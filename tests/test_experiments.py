"""Tests for the shared experiment drivers (repro.experiments), run on
the (fast) Compute-2 profile so the table machinery is covered without
full benchmark-scale profiling."""
import pytest

from repro.experiments import (
    TABLE4_PCTS,
    io_ratio,
    table3_rows,
    table4_sweep,
    table5_rows,
)


@pytest.fixture(scope="module")
def mini_profiles(w5_profile):
    wl, prof = w5_profile
    return {wl.name: (wl, prof)}


class TestTable3:
    def test_io_ratio_in_unit_interval(self, w5_profile):
        wl, prof = w5_profile
        assert 0.0 < io_ratio(wl, prof) < 1.0

    def test_rows_shape(self, mini_profiles):
        rows = table3_rows(mini_profiles)
        assert len(rows) == 1
        r = rows[0]
        assert r["workload"] == "Compute 2"
        assert r["n_nodes"] == 16 and r["paper_n_nodes"] == 16
        assert 0 < r["io_ratio"] < 1


class TestTable4:
    def test_sweep_shape_and_monotonicity(self, mini_profiles, w5_profile):
        wl, prof = w5_profile
        total = sum(s.out_bytes for s in prof.stats.values())
        res = table4_sweep(mini_profiles, total)
        cols = ["no_opt"] + TABLE4_PCTS
        for metric in ("read", "compute", "query"):
            assert set(res[metric]) == set(cols)
        reads = [res["read"][c] for c in cols]
        assert all(b <= a + 1e-9 for a, b in zip(reads, reads[1:]))
        for c in cols:
            assert res["query"][c] == pytest.approx(
                res["read"][c] + res["compute"][c]
            )

    def test_flagged_grows_with_budget(self, mini_profiles, w5_profile):
        _, prof = w5_profile
        total = sum(s.out_bytes for s in prof.stats.values())
        res = table4_sweep(mini_profiles, total)
        flagged = [res["flagged"][p] for p in TABLE4_PCTS]
        assert flagged[-1] >= flagged[0]


class TestTable5:
    def test_rows_shape(self, mini_profiles, w5_profile):
        _, prof = w5_profile
        total = sum(s.out_bytes for s in prof.stats.values())
        rows = table5_rows(mini_profiles, total)
        assert [r["workers"] for r in rows] == [1, 2, 3, 4, 5]
        no_opts = [r["no_opt_s"] for r in rows]
        assert all(b < a for a, b in zip(no_opts, no_opts[1:]))
        assert all(r["speedup"] >= 1.0 for r in rows)
