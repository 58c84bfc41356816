"""Tests for execution-metadata collection (warehouse.metadata)."""
import pytest

from repro.warehouse.metadata import build_depgraph


class TestProfile:
    def test_stats_for_every_node(self, w5_profile):
        wl, prof = w5_profile
        assert set(prof.stats) == set(wl.node_names)

    def test_base_scans_measured(self, w5_profile):
        _, prof = w5_profile
        assert set(prof.base_scan_s) == {
            "store_sales", "catalog_sales", "web_sales",
            "date_dim", "item", "store", "customer",
        }
        assert all(v > 0 for v in prof.base_scan_s.values())

    def test_positive_times_and_sizes(self, w5_profile):
        _, prof = w5_profile
        for st in prof.stats.values():
            assert st.out_bytes > 0
            assert st.compute_s > 0
            # write_s is SIGNED (disk-create minus mem-create) — tiny
            # outputs can be cheaper to write than to cache.
            assert st.read_s > 0
            assert 0 <= st.mem_read_s <= st.read_s

    def test_child_counts(self, w5_profile):
        wl, prof = w5_profile
        assert prof.n_children["freq_items"] == 3
        assert prof.n_children["workload_summary"] == 0


class TestDepgraphFromProfile:
    def test_graph_shape(self, w5_profile):
        wl, prof = w5_profile
        g = build_depgraph(wl, prof)
        assert g.n == len(wl.nodes)
        assert len(g.edges) == sum(len(nd.parents) for nd in wl.nodes)

    def test_sizes_are_bytes_on_disk(self, w5_profile):
        wl, prof = w5_profile
        g = build_depgraph(wl, prof)
        idx = wl.index()
        for n in wl.node_names:
            assert g.sizes[idx[n]] == prof.stats[n].out_bytes

    def test_scores_nonnegative(self, w5_profile):
        wl, prof = w5_profile
        g = build_depgraph(wl, prof)
        assert all(s >= 0 for s in g.scores)

    def test_scores_follow_paper_formula(self, w5_profile):
        from repro.core.speedup import speedup_score

        wl, prof = w5_profile
        g = build_depgraph(wl, prof)
        idx = wl.index()
        for n in wl.node_names:
            expected = speedup_score(prof.stats[n], prof.n_children[n])
            assert g.scores[idx[n]] == pytest.approx(expected)

