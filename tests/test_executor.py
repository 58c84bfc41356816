"""Integration tests for the S/C Controller (warehouse.executor) and the
Memory Catalog, on real Spark executions.

The key guarantees (paper §III-C): plans execute in the given order;
flagged nodes live in the Memory Catalog within budget and are released
right after their last child; every MV — flagged or not — ends up fully
materialized on disk with exactly the declared contents.
"""
import collections
import dataclasses
import os

import pytest
from pyspark.errors import AnalysisException

from repro.core.alternating import optimize
from repro.core.graph import Plan
from repro.oracle import assert_equivalent
from repro.warehouse.catalog import CatalogOverflowError, MemoryCatalog
from repro.warehouse.executor import no_opt_plan, run_workload
from repro.warehouse.metadata import build_depgraph
from repro.warehouse.storage import StorageModel
from repro.workloads.tpcds import workload
from tests.conftest import CacheProbe, duck_chain


class TestMemoryCatalog:
    def test_add_and_release(self):
        c = MemoryCatalog(10)
        c.add("a", 6)
        assert "a" in c and c.used == 6
        c.release("a")
        assert c.used == 0

    def test_overflow_raises(self):
        c = MemoryCatalog(10)
        c.add("a", 6)
        with pytest.raises(CatalogOverflowError):
            c.add("b", 5)

    def test_duplicate_raises(self):
        c = MemoryCatalog(10)
        c.add("a", 1)
        with pytest.raises(ValueError):
            c.add("a", 1)

    def test_peak_tracking(self):
        c = MemoryCatalog(10)
        c.add("a", 4)
        c.add("b", 5)
        c.release("a")
        c.add("c", 1)
        assert c.peak == 9


@pytest.fixture(scope="module")
def w5_run(spark, tpcds_base, tpcds_pdfs, w5_profile, tmp_path_factory):
    """One S/C refresh run of the Compute-2 workload under a
    deterministic non-trivial plan (size-proxy scores — see conftest)."""
    from tests.conftest import size_proxy_plan

    wl, prof = w5_profile
    plan, budget = size_proxy_plan(wl, prof)
    sizes = {n: prof.stats[n].out_bytes for n in wl.node_names}
    out = tmp_path_factory.mktemp("w5_out")
    rep = run_workload(spark, wl, plan, sizes, budget, str(out), tpcds_base)
    return wl, plan, rep, str(out), budget


class TestOptimizedRun:
    def test_runs_in_plan_order(self, w5_run):
        wl, plan, rep, _, _ = w5_run
        assert rep.plan_order == tuple(wl.node_names[i] for i in plan.order)

    def test_all_mvs_materialized(self, spark, w5_run):
        wl, _, _, out, _ = w5_run
        for n in wl.node_names:
            assert spark.read.parquet(os.path.join(out, n)).count() >= 0

    def test_peak_within_budget(self, w5_run):
        _, _, rep, _, budget = w5_run
        assert rep.peak_catalog_bytes <= budget + 1e-6

    def test_flagged_nodes_recorded(self, w5_run):
        wl, plan, rep, _, _ = w5_run
        assert rep.flagged == frozenset(
            wl.node_names[i] for i in plan.flagged
        )

    def test_children_of_flagged_read_from_memory(self, w5_run):
        wl, _, rep, _, _ = w5_run
        timing = {t.name: t for t in rep.nodes}
        for nd in wl.nodes:
            n_flagged_parents = sum(
                1 for p in nd.parents if p in rep.flagged
            )
            assert timing[nd.name].mem_parents == n_flagged_parents

    def test_flagged_outputs_match_oracle(self, spark, w5_run, tpcds_pdfs):
        """The short-circuit path must not change MV contents: compare
        the *materialized parquet* of flagged nodes against DuckDB."""
        wl, _, rep, out, _ = w5_run
        duck = duck_chain(wl, tpcds_pdfs)
        checked = 0
        for n in sorted(rep.flagged)[:4]:
            nd = wl.node(n)
            inputs = {t: tpcds_pdfs[t] for t in wl.base_tables}
            inputs.update({p: duck[p] for p in nd.parents})
            df = spark.read.parquet(os.path.join(out, n))
            assert_equivalent(df, nd.sql, **inputs)
            checked += 1
        assert checked > 0

    def test_terminal_output_matches_oracle(self, spark, w5_run, tpcds_pdfs):
        wl, _, _, out, _ = w5_run
        duck = duck_chain(wl, tpcds_pdfs)
        nd = wl.node("workload_summary")
        inputs = {t: tpcds_pdfs[t] for t in wl.base_tables}
        inputs.update({p: duck[p] for p in nd.parents})
        df = spark.read.parquet(os.path.join(out, "workload_summary"))
        assert_equivalent(df, nd.sql, **inputs)


class TestNoOptRun:
    def test_no_opt_plan_is_declaration_order(self):
        wl = workload("compute2_cross_channel")
        plan = no_opt_plan(wl)
        assert plan.flagged == frozenset()
        assert list(plan.order) == list(range(len(wl.nodes)))

    def test_no_opt_run_materializes_everything(
        self, spark, tpcds_base, w5_profile, tmp_path_factory
    ):
        wl, prof = w5_profile
        sizes = {n: prof.stats[n].out_bytes for n in wl.node_names}
        out = tmp_path_factory.mktemp("w5_noopt")
        rep = run_workload(
            spark, wl, no_opt_plan(wl), sizes, 0.0, str(out), tpcds_base
        )
        assert rep.peak_catalog_bytes == 0.0
        assert rep.flagged == frozenset()
        for n in wl.node_names:
            assert os.path.isdir(os.path.join(str(out), n))

    def test_no_opt_terminal_matches_optimized(
        self, spark, w5_run, tpcds_base, w5_profile, tmp_path_factory
    ):
        """Reordering + caching must not change any result: no-opt and
        optimized runs produce identical terminal MVs."""
        wl, prof = w5_profile
        _, _, _, opt_out, _ = w5_run
        sizes = {n: prof.stats[n].out_bytes for n in wl.node_names}
        out = tmp_path_factory.mktemp("w5_noopt_cmp")
        run_workload(
            spark, wl, no_opt_plan(wl), sizes, 0.0, str(out), tpcds_base
        )
        a = (
            spark.read.parquet(os.path.join(str(out), "mix_summary"))
            .toPandas()
            .sort_values(["channel", "d_year", "d_moy"])
            .reset_index(drop=True)
        )
        b = (
            spark.read.parquet(os.path.join(opt_out, "mix_summary"))
            .toPandas()
            .sort_values(["channel", "d_year", "d_moy"])
            .reset_index(drop=True)
        )
        import pandas as pd

        pd.testing.assert_frame_equal(
            a[sorted(a.columns)], b[sorted(b.columns)], check_dtype=False
        )


class TestInfeasiblePlan:
    def test_overflow_detected(self, spark, tpcds_base, w5_profile, tmp_path):
        """An infeasible plan (flag everything, near-zero budget) must
        trip the Memory Catalog accounting, not silently overcommit."""
        wl, prof = w5_profile
        sizes = {n: prof.stats[n].out_bytes for n in wl.node_names}
        plan = Plan(
            tuple(range(len(wl.nodes))), frozenset(range(len(wl.nodes)))
        )
        try:
            with pytest.raises(CatalogOverflowError):
                run_workload(
                    spark, wl, plan, sizes, 1.0, str(tmp_path), tpcds_base
                )
        finally:
            spark.catalog.clearCache()  # drop partially-persisted MVs


def persistent_rdd_count(spark) -> int:
    return spark.sparkContext._jsc.getPersistentRDDs().size()


def flag_everything(wl, prof):
    """Every node flagged in declaration order with M = the sum of all
    sizes: feasible, and full of flagged-to-flagged chains."""
    sizes = {n: prof.stats[n].out_bytes for n in wl.node_names}
    n = len(wl.nodes)
    return Plan(tuple(range(n)), frozenset(range(n))), sizes, sum(sizes.values())


class TestLiveCache:
    def test_memory_reads_hit_live_cache(
        self, spark, tpcds_base, w5_profile, tmp_path
    ):
        """A child's memory read must find its flagged parent still
        cached in Spark, also after an ancestor was released."""
        wl, prof = w5_profile
        plan, sizes, budget = flag_everything(wl, prof)
        probe = CacheProbe(spark, wl)
        rep = run_workload(
            probe, wl, plan, sizes, budget, str(tmp_path), tpcds_base
        )
        counted = {t.name: t.mem_parents for t in rep.nodes}
        assert sum(counted.values()) == sum(len(nd.parents) for nd in wl.nodes)
        assert probe.live == counted


class TestFailure:
    def test_failed_node_leaves_no_cache(
        self, spark, tpcds_base, w5_profile, tmp_path
    ):
        """The first node with parents fails while its flagged parents
        are cached: the error surfaces and the refresh unpersists what
        it cached."""
        wl, prof = w5_profile
        plan, sizes, budget = flag_everything(wl, prof)
        nodes = list(wl.nodes)
        i = next(i for i, nd in enumerate(nodes) if nd.parents)
        nodes[i] = dataclasses.replace(
            nodes[i], sql=f"SELECT no_such_column FROM {nodes[i].parents[0]}"
        )
        broken = dataclasses.replace(wl, nodes=tuple(nodes))
        before = persistent_rdd_count(spark)
        with pytest.raises(AnalysisException):
            run_workload(
                spark, broken, plan, sizes, budget, str(tmp_path), tpcds_base
            )
        assert persistent_rdd_count(spark) <= before

    def test_writer_raises(self, spark, tpcds_base, w5_profile, tmp_path):
        """A flagged node's background transfer fails while its children
        read it from the cache: the error surfaces, the refresh
        unpersists what it cached, and the next refresh in the same
        session succeeds."""
        wl, prof = w5_profile
        plan, sizes, budget = flag_everything(wl, prof)
        counts = collections.Counter(sizes.values())
        target = next(
            nd.name for nd in wl.nodes
            if counts[sizes[nd.name]] == 1
            and any(nd.name in c.parents for c in wl.nodes)
        )
        storage = FailingWrite(
            read_bw=1e15, write_bw=1e15, fail_bytes=sizes[target]
        )
        before = persistent_rdd_count(spark)
        with pytest.raises(OSError, match="injected"):
            run_workload(
                spark, wl, plan, sizes, budget, str(tmp_path / "failed"),
                tpcds_base, storage=storage,
            )
        assert persistent_rdd_count(spark) <= before
        out = tmp_path / "after"
        rep = run_workload(spark, wl, plan, sizes, budget, str(out), tpcds_base)
        assert rep.flagged == frozenset(wl.node_names)
        assert all(os.path.isdir(out / n) for n in wl.node_names)
        assert persistent_rdd_count(spark) <= before


@dataclasses.dataclass(frozen=True)
class FailingWrite(StorageModel):
    """A storage model whose write of exactly ``fail_bytes`` raises."""

    fail_bytes: float = 0.0

    def pay_write(self, nbytes: float) -> None:
        if nbytes == self.fail_bytes:
            raise OSError("injected transfer failure")
        super().pay_write(nbytes)
