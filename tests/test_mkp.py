"""Unit tests for the branch-and-bound MKP solver (repro.core.mkp)."""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mkp import solve_mkp


def brute_force(profits, weights, cons, cap):
    ids = list(profits)
    best = 0.0
    for r in range(len(ids) + 1):
        for comb in itertools.combinations(ids, r):
            s = set(comb)
            if all(sum(weights[i] for i in c & s) <= cap for c in cons):
                best = max(best, sum(profits[i] for i in s))
    return best


class TestBasics:
    def test_empty(self):
        res = solve_mkp({}, {}, [], 10)
        assert res.chosen == frozenset() and res.profit == 0.0

    def test_single_fits(self):
        res = solve_mkp({0: 5.0}, {0: 3.0}, [frozenset({0})], 10)
        assert res.chosen == frozenset({0}) and res.profit == 5.0

    def test_single_does_not_fit(self):
        res = solve_mkp({0: 5.0}, {0: 30.0}, [frozenset({0})], 10)
        assert res.chosen == frozenset()

    def test_unconstrained_items_always_taken(self):
        res = solve_mkp(
            {0: 1.0, 1: 2.0}, {0: 100.0, 1: 3.0}, [frozenset({1})], 10
        )
        assert 0 in res.chosen  # item 0 is in no constraint set

    def test_classic_knapsack(self):
        profits = {0: 60.0, 1: 100.0, 2: 120.0}
        weights = {0: 10.0, 1: 20.0, 2: 30.0}
        res = solve_mkp(profits, weights, [frozenset({0, 1, 2})], 50)
        assert res.profit == 220.0 and res.chosen == frozenset({1, 2})

    def test_two_constraints_interaction(self):
        # 0 conflicts with 1 in C1 and with 2 in C2; cap admits one pair.
        profits = {0: 10.0, 1: 6.0, 2: 6.0}
        weights = {0: 7.0, 1: 7.0, 2: 7.0}
        cons = [frozenset({0, 1}), frozenset({0, 2})]
        res = solve_mkp(profits, weights, cons, 10)
        assert res.profit == 12.0 and res.chosen == frozenset({1, 2})

    def test_optimal_flag_set(self):
        res = solve_mkp({0: 1.0}, {0: 1.0}, [frozenset({0})], 10)
        assert res.optimal

    def test_truncation_returns_feasible(self):
        # profit ~ weight keeps the bound loose: the full search takes
        # ~1900 nodes, so a 10-node cap truncates it
        profits = {i: float(i % 7 + 1) for i in range(24)}
        weights = {i: profits[i] + 0.5 for i in range(24)}
        cons = [frozenset(range(0, 24, 2)), frozenset(range(1, 24, 2)),
                frozenset(range(24))]
        res = solve_mkp(profits, weights, cons, 20, max_nodes=10)
        assert not res.optimal
        for c in cons:
            assert sum(weights[i] for i in c & set(res.chosen)) <= 20 + 1e-9
        # the search stops at the cap, keeping the incumbent it had then
        assert res.explored == 11
        assert (sorted(res.chosen), res.profit) == ([3, 6, 13], 18.0)

    def test_zero_weight_items(self):
        res = solve_mkp({0: 5.0, 1: 3.0}, {0: 0.0, 1: 0.0},
                        [frozenset({0, 1})], 1)
        assert res.chosen == frozenset({0, 1})


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_instances(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(1, 12)
        profits = {i: float(rng.randint(0, 20)) for i in range(n)}
        weights = {i: float(rng.randint(1, 10)) for i in range(n)}
        cons = [
            frozenset(rng.sample(range(n), rng.randint(1, n)))
            for _ in range(rng.randint(1, 4))
        ]
        cap = rng.randint(5, 25)
        res = solve_mkp(profits, weights, cons, cap)
        assert res.profit == pytest.approx(
            brute_force(profits, weights, cons, cap)
        )

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_hypothesis_instances(self, data):
        n = data.draw(st.integers(1, 10))
        profits = {
            i: data.draw(st.floats(0, 20)) for i in range(n)
        }
        weights = {
            i: data.draw(st.floats(0.1, 10)) for i in range(n)
        }
        k = data.draw(st.integers(1, 3))
        cons = [
            frozenset(
                data.draw(
                    st.sets(st.integers(0, n - 1), min_size=1, max_size=n)
                )
            )
            for _ in range(k)
        ]
        cap = data.draw(st.floats(1, 30))
        res = solve_mkp(profits, weights, cons, cap)
        assert res.profit == pytest.approx(
            brute_force(profits, weights, cons, cap), rel=1e-9, abs=1e-9
        )
        for c in cons:
            assert (
                sum(weights[i] for i in c & set(res.chosen)) <= cap + 1e-6
            )


class TestComponentDecomposition:
    def test_disjoint_components_solved_independently(self):
        profits = {0: 5.0, 1: 4.0, 2: 7.0, 3: 2.0}
        weights = {0: 5.0, 1: 5.0, 2: 5.0, 3: 5.0}
        cons = [frozenset({0, 1}), frozenset({2, 3})]
        res = solve_mkp(profits, weights, cons, 5)
        assert res.chosen == frozenset({0, 2})
        assert res.profit == 12.0

    def test_explored_counts_accumulate(self):
        profits = {i: 1.0 for i in range(6)}
        weights = {i: 1.0 for i in range(6)}
        cons = [frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5})]
        res = solve_mkp(profits, weights, cons, 2)
        assert res.explored >= 3


# (sorted chosen, profit, optimal, explored) of ``solve_mkp`` on the
# topological-order constraints of ``generate_dag(n=50, seed=s)`` at
# M = 1.6 % of its total size, as the original per-constraint bound
# (a full rescan of every constraint at every node) found them.
TREE_GOLDEN = {
    0: (
        [9, 10, 15, 17, 20, 21, 22, 23, 29, 31, 36, 39, 45, 46, 47, 48, 49],
        34.01645594106684, False, 30001,
    ),
    1: (
        [0, 5, 6, 9, 11, 17, 27, 35, 36, 37, 43, 46, 47, 48, 49],
        209.50333450236653, True, 1635,
    ),
    2: (
        [5, 7, 8, 12, 14, 16, 19, 20, 22, 23, 24, 25, 26, 27, 29, 30, 31, 32,
         33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49],
        17.417400885932835, False, 30001,
    ),
    3: (
        [3, 4, 15, 16, 19, 20, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33,
         34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49],
        5.107208560640004, False, 30001,
    ),
    4: (
        [0, 8, 13, 16, 24, 30, 31, 32, 36, 37, 39, 40, 41, 42, 43, 44, 45, 46,
         47, 48, 49],
        33.8472540229129, False, 30001,
    ),
    5: (
        [1, 3, 4, 8, 9, 20, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35,
         36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49],
        37.35720266636188, False, 30001,
    ),
    6: (
        [9, 10, 14, 16, 19, 20, 21, 22, 23, 24, 25, 26, 29, 31, 32, 33, 34, 35,
         36, 38, 39, 43, 45, 46, 48],
        54.88717609670789, True, 18729,
    ),
    7: (
        [18, 19, 21, 22, 24, 30, 32, 33, 34, 38, 39, 40, 42, 43, 45, 46, 47,
         48, 49],
        140.45326466843656, True, 150,
    ),
}


class TestSearchTree:
    """Pins the branch-and-bound tree on the 50-node ``plan_synth``
    DAGs: a bound or ordering change that prunes differently changes
    ``explored`` (and, under the node cap, the incumbent)."""

    @pytest.mark.parametrize("seed", sorted(TREE_GOLDEN))
    def test_plan_synth_50_node_tree(self, seed):
        from repro.core.constraints import get_constraints
        from repro.workloads.generator import GenParams, generate_dag

        g = generate_dag(GenParams(n_nodes=50, seed=seed))
        budget = 0.016 * sum(g.sizes)
        cons = get_constraints(g, g.topological_order(), budget)
        items = sorted(set().union(*cons))
        res = solve_mkp({i: g.scores[i] for i in items},
                        {i: g.sizes[i] for i in items}, cons, budget)
        chosen, profit, optimal, explored = TREE_GOLDEN[seed]
        assert sorted(res.chosen) == chosen
        assert res.profit == pytest.approx(profit, rel=1e-12)
        assert res.optimal is optimal
        assert res.explored == explored
