"""Tests for the LRU result-cache baseline (warehouse.lru)."""
import os

import pytest

from repro.warehouse.lru import run_workload_lru
from tests.conftest import CacheProbe, assert_views_read_parquet_schema


@pytest.fixture(scope="module")
def lru_run(spark, tpcds_base, w5_profile, tmp_path_factory):
    wl, prof = w5_profile
    sizes = {n: prof.stats[n].out_bytes for n in wl.node_names}
    capacity = 0.25 * sum(sizes.values())
    out = tmp_path_factory.mktemp("w5_lru")
    rep = run_workload_lru(
        spark, wl, sizes, capacity, str(out), tpcds_base
    )
    return wl, rep, str(out), capacity


class TestLRUBaseline:
    def test_everything_materialized(self, spark, lru_run):
        wl, _, out, _ = lru_run
        for n in wl.node_names:
            assert os.path.isdir(os.path.join(out, n))

    def test_capacity_respected(self, lru_run):
        _, rep, _, capacity = lru_run
        assert rep.peak_catalog_bytes <= capacity + 1e-6

    def test_topological_order_used(self, lru_run):
        wl, rep, _, _ = lru_run
        assert rep.plan_order == tuple(wl.node_names)

    def test_no_flagged_nodes(self, lru_run):
        _, rep, _, _ = lru_run
        assert rep.flagged == frozenset()

    def test_some_cache_hits(self, lru_run):
        """With 25% capacity, recently-produced parents should still be
        cached when their children run (topological order → high reuse
        locality in W5)."""
        _, rep, _, _ = lru_run
        assert sum(t.mem_parents for t in rep.nodes) > 0

    @pytest.mark.parametrize("frac", [0.1, 0.25])
    def test_memory_reads_hit_live_cache(
        self, spark, tpcds_base, w5_profile, tmp_path, frac
    ):
        """Every parent counted as a cache hit is still cached in Spark
        when the child's SQL runs, and no miss is. At 10 % capacity W5
        evicts parents whose cached children are read afterwards."""
        wl, prof = w5_profile
        sizes = {n: prof.stats[n].out_bytes for n in wl.node_names}
        probe = CacheProbe(spark, wl)
        rep = run_workload_lru(
            probe, wl, sizes, frac * sum(sizes.values()), str(tmp_path),
            tpcds_base,
        )
        counted = {t.name: t.mem_parents for t in rep.nodes}
        assert probe.live == counted
        assert probe.filled == counted  # filled on admission
        # cached or not, each output's view carries its Parquet schema
        assert_views_read_parquet_schema(spark, wl.node_names, str(tmp_path))

    def test_zero_capacity_no_hits(
        self, spark, tpcds_base, w5_profile, tmp_path_factory
    ):
        wl, prof = w5_profile
        sizes = {n: prof.stats[n].out_bytes for n in wl.node_names}
        out = tmp_path_factory.mktemp("w5_lru0")
        rep = run_workload_lru(spark, wl, sizes, 0.0, str(out), tpcds_base)
        assert sum(t.mem_parents for t in rep.nodes) == 0
        assert rep.peak_catalog_bytes == 0.0
