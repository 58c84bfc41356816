"""Shared fixtures for the S/C reproduction tests.

Base TPC-DS-lite data is generated once per session at SF=0.002 (~6 k
store_sales rows) — big enough to exercise shuffle joins under the
disabled-broadcast session config, small enough that the ~100 per-node
oracle tests stay fast. Spark/DuckDB MV chains are computed lazily per
workload and cached for the whole session.
"""
from __future__ import annotations

import os

import duckdb
import pytest

from repro.synth_data import tpcds_pandas, write_tpcds
from repro.workloads.spec import WorkloadSpec

TEST_SF = 0.002


@pytest.fixture(scope="session")
def tpcds_pdfs():
    """Base tables as pandas frames — the DuckDB oracle's ground truth."""
    return tpcds_pandas(sf=TEST_SF)


@pytest.fixture(scope="session")
def tpcds_base(spark, tmp_path_factory):
    """Base tables materialized to Parquet (the warehouse's storage)."""
    out = tmp_path_factory.mktemp("tpcds_base")
    return write_tpcds(spark, str(out), sf=TEST_SF)


@pytest.fixture(scope="session")
def w5_profile(spark, tpcds_base, tmp_path_factory):
    """Execution metadata for the Compute-2 workload (shared by the
    executor, simulator, and cluster tests — profiling is the slowest
    fixture, so do it once)."""
    from repro.warehouse.metadata import profile_workload
    from repro.warehouse.storage import EMULATED_NFS
    from repro.workloads.tpcds import workload

    wl = workload("compute2_cross_channel")
    tmp = tmp_path_factory.mktemp("w5_profile")
    return wl, profile_workload(
        spark, wl, tpcds_base, str(tmp), storage=EMULATED_NFS
    )


def size_proxy_plan(wl, prof, budget_frac=0.25):
    """Deterministic non-trivial plan for executor/simulator tests:
    score each node by its size (the paper's toy-example convention) so
    flagging does not hinge on measured micro-timings at SF=0.002."""
    from repro.core.alternating import optimize

    sizes = {n: prof.stats[n].out_bytes for n in wl.node_names}
    g = wl.to_depgraph(sizes, sizes)
    budget = budget_frac * sum(sizes.values())
    plan = optimize(g, budget).plan
    assert plan.flagged
    return plan, budget


_duck_chains: dict[str, dict] = {}
_spark_chains: dict[str, dict] = {}


def duck_chain(wl: WorkloadSpec, base_pdfs: dict) -> dict:
    """All MV results of ``wl`` computed bottom-up in DuckDB (pandas)."""
    if wl.name not in _duck_chains:
        con = duckdb.connect()
        try:
            for t, pdf in base_pdfs.items():
                con.register(t, pdf)
            out = {}
            for nd in wl.nodes:
                con.execute(f"CREATE TABLE {nd.name} AS {nd.sql}")
                out[nd.name] = con.execute(
                    f"SELECT * FROM {nd.name}"
                ).fetchdf()
            _duck_chains[wl.name] = out
        finally:
            con.close()
    return _duck_chains[wl.name]


def spark_chain(spark, wl: WorkloadSpec, base_paths: dict) -> dict:
    """All MV results of ``wl`` computed bottom-up in Spark, persisted so
    each node's lineage is evaluated exactly once."""
    if wl.name not in _spark_chains:
        for t, path in base_paths.items():
            spark.read.parquet(path).createOrReplaceTempView(t)
        out = {}
        for nd in wl.nodes:
            df = spark.sql(nd.sql).persist()
            df.count()
            df.createOrReplaceTempView(nd.name)
            out[nd.name] = df
        _spark_chains[wl.name] = out
    return _spark_chains[wl.name]


class CacheProbe:
    """Stands in for the SparkSession in a refresh: before each node's
    SQL runs, records how many of its parents Spark still holds cached
    (``live``) and how many of those have every partition of their
    cached data in the block manager (``filled``). ``live[name]`` must
    equal the node's ``mem_parents``: a memory read of a parent that is
    no longer cached is a silent recompute, and so is one of a parent
    whose cache was never filled."""

    def __init__(self, spark, wl: WorkloadSpec):
        self._spark = spark
        self._nodes = {nd.sql: nd for nd in wl.nodes}
        self.live: dict[str, int] = {}
        self.filled: dict[str, int] = {}

    def sql(self, query: str):
        nd = self._nodes[query]
        cached = [p for p in nd.parents if self._spark.catalog.isCached(p)]
        self.live[nd.name] = len(cached)
        self.filled[nd.name] = sum(map(self._is_filled, cached))
        return self._spark.sql(query)

    def _is_filled(self, view: str) -> bool:
        entry = (
            self._spark._jsparkSession.sharedState()
            .cacheManager()
            .lookupCachedData(self._spark.table(view)._jdf)
        )
        return entry.isDefined() and (
            entry.get().cachedRepresentation().cacheBuilder()
            .isCachedColumnBuffersLoaded()
        )

    def __getattr__(self, name):
        return getattr(self._spark, name)


def assert_views_read_parquet_schema(spark, names, out: str) -> None:
    """Each MV view in ``names`` has the field names and types Spark
    infers from its Parquet files under ``out``, every field nullable
    (as Parquet stores them)."""
    for n in names:
        view = spark.table(n).schema
        files = spark.read.parquet(os.path.join(out, n)).schema
        assert [(f.name, f.dataType) for f in view] == [
            (f.name, f.dataType) for f in files
        ], n
        assert all(f.nullable for f in view), n
