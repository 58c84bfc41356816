"""Unit tests for speedup-score estimation (repro.core.speedup)."""
import pytest

from repro.core.speedup import NodeStats, speedup_score


class TestSpeedupScore:
    def test_paper_formula(self):
        st = NodeStats(
            out_bytes=1e6, compute_s=1.0, write_s=2.0, read_s=0.5,
            mem_read_s=0.1,
        )
        # 3 children * (0.5-0.1) read saving + 2.0 write saving
        assert speedup_score(st, 3) == pytest.approx(3 * 0.4 + 2.0)

    def test_childless_node_write_only(self):
        st = NodeStats(out_bytes=1e6, compute_s=1.0, write_s=2.0, read_s=0.5)
        assert speedup_score(st, 0) == pytest.approx(2.0)

    def test_overlap_penalty_reduces_write_saving(self):
        st = NodeStats(
            out_bytes=1e6, compute_s=1.0, write_s=2.0, read_s=0.5,
            overlap_penalty_s=0.5,
        )
        assert speedup_score(st, 0) == pytest.approx(1.5)

    def test_never_negative(self):
        st = NodeStats(
            out_bytes=1e6, compute_s=1.0, write_s=1.0, read_s=0.1,
            mem_read_s=0.5, overlap_penalty_s=5.0,
        )
        assert speedup_score(st, 2) == 0.0

    def test_more_children_more_savings(self):
        st = NodeStats(out_bytes=1e6, compute_s=1.0, write_s=1.0, read_s=0.5)
        assert speedup_score(st, 5) > speedup_score(st, 1)

    def test_negative_write_term_scores_zero(self):
        # caching costs more than writing, no readers -> flagging is a
        # pure loss -> score 0 (excluded from the MKP)
        st = NodeStats(out_bytes=1e4, compute_s=1.0, write_s=-0.3, read_s=0.05)
        assert speedup_score(st, 0) == 0.0

    def test_read_savings_offset_negative_write(self):
        st = NodeStats(out_bytes=1e6, compute_s=1.0, write_s=-0.2, read_s=0.5)
        assert speedup_score(st, 2) == pytest.approx(2 * 0.5 - 0.2)

