"""Tests for the cost-model simulator (sim.engine) and the cluster
scaling model (sim.cluster)."""
import pytest

from repro.core.alternating import optimize
from repro.core.graph import Plan
from repro.sim.cluster import cluster_sweep, worker_factor
from repro.sim.engine import simulate_run
from repro.warehouse.executor import no_opt_plan
from repro.warehouse.metadata import build_depgraph


@pytest.fixture(scope="module")
def sim_inputs():
    """The Compute-2 workload DAG with a synthetic paper-like profile.

    The simulator's logic is what's under test, so the economics are
    fabricated deterministically (disk creation costlier than memory
    creation, memory reads far cheaper than storage reads) rather than
    micro-measured at SF=0.002, where honest measurements say flagging
    is a loss and every plan comparison would be vacuous.
    """
    from repro.core.speedup import NodeStats
    from repro.warehouse.metadata import WorkloadProfile
    from repro.workloads.tpcds import workload

    wl = workload("compute2_cross_channel")
    stats = {
        nd.name: NodeStats(
            out_bytes=1000.0 * (i + 1),
            compute_s=1.0,
            write_s=0.5,  # disk-create costs 0.5 s more than mem-create
            read_s=0.3,
            mem_read_s=0.01,
            flag_write_s=0.1,
            async_write_s=0.4,
        )
        for i, nd in enumerate(wl.nodes)
    }
    n_children = {
        n: sum(1 for nd in wl.nodes for p in nd.parents if p == n)
        for n in wl.node_names
    }
    prof = WorkloadProfile(
        stats, {t: 0.05 for t in wl.base_tables}, n_children
    )
    sizes = {n: stats[n].out_bytes for n in wl.node_names}
    g = wl.to_depgraph(sizes, sizes)
    budget = 0.5 * sum(g.sizes)
    opt = optimize(g, budget).plan
    assert opt.flagged
    return wl, prof, no_opt_plan(wl), opt


class TestAccountingIdentities:
    def test_query_is_read_plus_compute(self, sim_inputs):
        wl, prof, base, opt = sim_inputs
        for plan in (base, opt):
            t = simulate_run(wl, prof, plan)
            assert t.query_s == pytest.approx(t.read_s + t.compute_s)

    def test_end_to_end_composition(self, sim_inputs):
        wl, prof, base, _ = sim_inputs
        t = simulate_run(wl, prof, base)
        assert t.end_to_end_s == pytest.approx(
            t.read_s + t.compute_s + t.write_s + t.async_tail_s
        )

    def test_no_opt_has_no_async_tail_or_memory(self, sim_inputs):
        wl, prof, base, _ = sim_inputs
        t = simulate_run(wl, prof, base)
        assert t.async_tail_s == 0.0
        assert t.peak_mem_bytes == 0.0

    def test_compute_invariant_under_plan(self, sim_inputs):
        """S/C targets I/O, not compute (paper Table IV: compute column
        is flat): the simulator's compute total must be plan-independent."""
        wl, prof, base, opt = sim_inputs
        assert simulate_run(wl, prof, base).compute_s == pytest.approx(
            simulate_run(wl, prof, opt).compute_s
        )


class TestShortCircuiting:
    def test_sc_reduces_read_time(self, sim_inputs):
        wl, prof, base, opt = sim_inputs
        assert simulate_run(wl, prof, opt).read_s < simulate_run(
            wl, prof, base
        ).read_s

    def test_sc_reduces_end_to_end(self, sim_inputs):
        wl, prof, base, opt = sim_inputs
        assert simulate_run(wl, prof, opt).end_to_end_s < simulate_run(
            wl, prof, base
        ).end_to_end_s

    def test_flagging_everything_maximizes_savings(self, sim_inputs):
        wl, prof, base, opt = sim_inputs
        all_flagged = Plan(base.order, frozenset(range(len(wl.nodes))))
        t_all = simulate_run(wl, prof, all_flagged)
        t_opt = simulate_run(wl, prof, opt)
        assert t_all.read_s <= t_opt.read_s + 1e-9

    def test_peak_memory_reported(self, sim_inputs):
        wl, prof, _, opt = sim_inputs
        if opt.flagged:
            assert simulate_run(wl, prof, opt).peak_mem_bytes > 0

    def test_speed_factor_scales_times(self, sim_inputs):
        wl, prof, base, _ = sim_inputs
        t1 = simulate_run(wl, prof, base)
        t2 = simulate_run(wl, prof, base, speed_factor=0.5)
        assert t2.end_to_end_s == pytest.approx(0.5 * t1.end_to_end_s)

    def test_plan_not_slower_than_no_opt(self, sim_inputs):
        wl, prof, base, opt = sim_inputs
        a, b = simulate_run(wl, prof, base), simulate_run(wl, prof, opt)
        assert a.end_to_end_s >= b.end_to_end_s


class TestClusterModel:
    def test_worker_factor_monotone(self):
        fs = [worker_factor(k) for k in range(1, 6)]
        assert fs[0] == pytest.approx(1.0)
        assert all(b < a for a, b in zip(fs, fs[1:]))

    def test_worker_factor_floor_is_serial_frac(self):
        assert worker_factor(10**6, 0.145) == pytest.approx(0.145, rel=1e-3)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            worker_factor(0)

    def test_fits_paper_no_opt_column(self):
        """t(k) = (serial + parallel/k) * t(1) reproduces the paper's
        Table V no-opt runtimes within a few percent."""
        paper = {1: 1528, 2: 868, 3: 656, 4: 546, 5: 487}
        for k, t in paper.items():
            pred = 1528 * worker_factor(k)
            assert pred == pytest.approx(t, rel=0.05)

    def test_cluster_sweep_speedup_flat(self, sim_inputs):
        wl, prof, base, opt = sim_inputs
        rows = cluster_sweep([(wl, prof, base, opt)], [1, 2, 3, 4, 5])
        speedups = [r.speedup for r in rows]
        assert all(s > 1.0 for s in speedups)
        # Table V: speedup roughly flat in worker count
        assert max(speedups) - min(speedups) < 0.35 * min(speedups)

    def test_cluster_sweep_runtime_decreases(self, sim_inputs):
        wl, prof, base, opt = sim_inputs
        rows = cluster_sweep([(wl, prof, base, opt)], [1, 2, 4])
        assert rows[0].no_opt_s > rows[1].no_opt_s > rows[2].no_opt_s
        assert rows[0].sc_s > rows[1].sc_s > rows[2].sc_s
