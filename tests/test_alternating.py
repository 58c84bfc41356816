"""Unit tests for alternating optimization (repro.core.alternating) —
including the paper's Fig. 7 worked example."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alternating import optimize
from repro.core.graph import DepGraph


def fig7_graph():
    """Paper Fig. 7: v1/v3 are 100 GB, M=100 GB; score == size.

    Under a plain topological order (τ1) the best flag set is
    {v1, v5, v6} with score 120; executing v4 before v3 (τ2) releases v1
    early so {v1, v3, v6} with score 210 becomes feasible.
    """
    return DepGraph(
        n=6,
        edges=((0, 1), (0, 3), (1, 2), (2, 4), (4, 5)),
        sizes=(100.0, 5.0, 100.0, 5.0, 10.0, 10.0),
        scores=(100.0, 5.0, 100.0, 5.0, 10.0, 10.0),
    )


@st.composite
def random_graphs(draw):
    n = draw(st.integers(2, 12))
    edges = set()
    for v in range(1, n):
        for u in range(v):
            if draw(st.booleans()):
                edges.add((u, v))
    sizes = tuple(float(draw(st.integers(1, 10))) for _ in range(n))
    scores = tuple(float(draw(st.integers(0, 10))) for _ in range(n))
    return DepGraph(n=n, edges=tuple(sorted(edges)), sizes=sizes, scores=scores)


class TestFig7:
    def test_reaches_paper_optimum(self):
        g = fig7_graph()
        res = optimize(g, 100)
        assert res.score == 210.0
        assert res.plan.flagged == frozenset({0, 2, 5})

    def test_plan_feasible(self):
        g = fig7_graph()
        res = optimize(g, 100)
        assert g.is_feasible(res.plan.flagged, res.plan.order, 100)

    def test_execution_order_valid(self):
        g = fig7_graph()
        res = optimize(g, 100)
        assert g.is_valid_order(list(res.plan.order))

    def test_converges_quickly(self):
        assert optimize(fig7_graph(), 100).iterations < 10

    def test_larger_budget_flags_everything(self):
        g = fig7_graph()
        res = optimize(g, 1000)
        assert res.plan.flagged == frozenset(range(6))

    def test_zero_budget_flags_nothing(self):
        g = fig7_graph()
        res = optimize(g, 0)
        assert res.plan.flagged == frozenset()


class TestProperties:
    @given(random_graphs(), st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_plan_always_feasible_and_valid(self, g, budget):
        res = optimize(g, budget)
        assert g.is_valid_order(list(res.plan.order))
        assert g.is_feasible(res.plan.flagged, res.plan.order, budget)

    @given(random_graphs(), st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_trace_scores_monotone(self, g, budget):
        res = optimize(g, budget)
        scores = [t["score"] for t in res.trace]
        # each continued iteration strictly increased flagged size, and
        # the MKP per fixed order never loses score across iterations
        assert all(b >= a - 1e-9 for a, b in zip(scores, scores[1:]))

    @given(random_graphs(), st.integers(0, 40))
    @settings(max_examples=40, deadline=None)
    def test_beats_or_matches_single_shot(self, g, budget):
        from repro.core.flagging import simplified_mkp

        res = optimize(g, budget)
        single = g.total_score(
            simplified_mkp(g, g.topological_order(), budget)
        )
        assert res.score >= single - 1e-9

    @pytest.mark.parametrize("selector", ["greedy", "random", "ratio"])
    def test_ablated_selectors_run(self, selector):
        g = fig7_graph()
        res = optimize(g, 100, node_selector=selector)
        assert g.is_feasible(res.plan.flagged, res.plan.order, 100)

    @pytest.mark.parametrize("scheduler", ["sa", "separator"])
    def test_ablated_schedulers_run(self, scheduler):
        g = fig7_graph()
        res = optimize(g, 100, order_scheduler=scheduler)
        assert g.is_feasible(res.plan.flagged, res.plan.order, 100)

    def test_mkp_madfs_at_least_matches_ablations_fig7(self):
        g = fig7_graph()
        ours = optimize(g, 100).score
        for sel in ("greedy", "random", "ratio"):
            assert ours >= optimize(g, 100, node_selector=sel).score
        for sch in ("separator",):
            assert ours >= optimize(g, 100, order_scheduler=sch).score

    def test_max_iterations_cap(self):
        g = fig7_graph()
        res = optimize(g, 100, max_iterations=1)
        assert res.iterations == 1
        assert g.is_feasible(res.plan.flagged, res.plan.order, 100)

    def test_empty_graphish(self):
        g = DepGraph(n=1, edges=(), sizes=(5.0,), scores=(1.0,))
        res = optimize(g, 10)
        assert res.plan.flagged == frozenset({0})


class TestMKPTrace:
    """Each ``simplified_mkp`` iteration reports whether the MKP proved
    its optimum and how many branch-and-bound nodes it explored."""

    def test_capped_search_not_optimal(self):
        from repro.workloads.generator import GenParams, generate_dag

        g = generate_dag(GenParams(n_nodes=100, seed=0))
        res = optimize(g, 0.016 * sum(g.sizes))
        assert res.trace[0]["mkp_optimal"] is False
        # a capped component explores max_nodes + 1 nodes
        assert res.trace[0]["mkp_explored"] > 30_000

    def test_small_workload_optimal(self):
        from repro.workloads.tpcds import workload

        wl = workload("io1_profit_report")
        sizes = {n: 1000.0 * (i + 1) for i, n in enumerate(wl.node_names)}
        g = wl.to_depgraph(sizes, sizes)
        res = optimize(g, 0.1 * sum(g.sizes))
        assert all(t["mkp_optimal"] is True for t in res.trace)
        assert res.trace[0]["mkp_explored"] > 0

    @pytest.mark.parametrize("n,seed", [(50, 1), (75, 0)])
    def test_first_iteration_is_topological_order_mkp(self, n, seed):
        # Alg. 2 starts from the topological order, so trace[0] carries
        # the counts of ``solve_mkp`` on that order's constraint sets.
        from repro.core.constraints import get_constraints
        from repro.core.mkp import solve_mkp
        from repro.workloads.generator import GenParams, generate_dag

        g = generate_dag(GenParams(n_nodes=n, seed=seed))
        budget = 0.016 * sum(g.sizes)
        res = optimize(g, budget, initial_order=None)
        cons = get_constraints(g, g.topological_order(), budget)
        items = sorted(set().union(*cons))
        mkp = solve_mkp({i: g.scores[i] for i in items},
                        {i: g.sizes[i] for i in items}, cons, budget)
        assert res.trace[0]["mkp_explored"] == mkp.explored
        assert res.trace[0]["mkp_optimal"] is mkp.optimal

    def test_other_selectors_carry_no_mkp_stats(self):
        res = optimize(fig7_graph(), 100, node_selector="greedy")
        assert all("mkp_optimal" not in t for t in res.trace)
