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
# topological-order constraints of ``generate_dag(n=n, seed=s)`` at
# M = 1.6 % of its total size, keyed by n, then s. The 50-node trees are
# those of the original per-constraint bound (a full rescan of every
# constraint at every node); the 75- and 100-node ones were recorded
# from the incremental bound before its gaps were memoized.
TREE_GOLDEN = {
    50: {
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
    },
    75: {
        0: (
            [0, 4, 13, 19, 20, 22, 24, 31, 33, 34, 35, 38, 39, 40, 41, 42, 43, 44,
             45, 46, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62,
             63, 64, 65, 66, 67, 68, 69, 70, 71, 72, 73, 74],
            101.80583308883604, False, 30001,
        ),
        1: (
            [0, 2, 4, 6, 11, 12, 21, 26, 28, 31, 35, 36, 37, 39, 41, 42, 45, 46,
             47, 48, 49, 50, 51, 53, 54, 55, 56, 57, 59, 60, 61, 63, 64, 65, 66,
             67, 68, 69, 70, 71, 72, 73, 74],
            292.56789480653134, False, 30001,
        ),
        2: (
            [3, 4, 5, 6, 7, 13, 14, 15, 16, 21, 24, 25, 26, 27, 33, 34, 35, 36, 37,
             39, 40, 41, 43, 44, 45, 48, 50, 52, 53, 54, 56, 57, 58, 59, 60, 61,
             62, 63, 64, 66, 67, 71, 72, 73, 74],
            92.94224626778946, False, 30001,
        ),
        3: (
            [13, 16, 17, 18, 24, 28, 29, 30, 31, 34, 36, 37, 38, 44, 46, 47, 48,
             50, 51, 53, 58, 61, 62, 63, 67, 68, 69, 73, 74],
            118.670628263504, False, 30001,
        ),
        4: (
            [12, 13, 14, 19, 22, 24, 26, 28, 31, 32, 33, 34, 35, 36, 38, 39, 40,
             41, 42, 43, 44, 45, 46, 48, 49, 50, 51, 52, 54, 55, 56, 57, 58, 59,
             60, 61, 62, 63, 64, 65, 66, 67, 68, 69, 70, 71, 72, 73, 74],
            69.5197147477576, False, 30001,
        ),
        5: (
            [15, 20, 24, 25, 27, 28, 32, 33, 34, 35, 36, 37, 38],
            22.033132193075186, True, 818,
        ),
        6: (
            [1, 3, 6, 15, 16, 24, 25, 27, 29, 31, 32, 33, 34, 39, 40, 43, 44, 45,
             46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62,
             63, 64, 65, 66, 67, 68, 69, 70, 71, 72, 73, 74],
            49.996129921666366, False, 30001,
        ),
        7: (
            [1, 3, 4, 18, 21, 24, 25, 27, 28, 32, 34, 35, 36, 37, 39, 40, 43, 46,
             48, 49, 51, 52, 53, 55, 56, 57, 58, 60, 61, 63, 64, 65, 66, 67, 68,
             69, 70, 71, 72, 73, 74],
            209.11335944218618, False, 30001,
        ),
    },
    100: {
        0: (
            [2, 3, 8, 9, 10, 13, 16, 19, 24, 25, 29, 31, 32, 34, 38, 40, 47, 49,
             52, 54, 60, 61, 64, 65, 67, 71, 73, 76, 77, 78, 79, 80, 81, 82, 83,
             84, 85, 86, 87, 88, 89, 91, 92, 93, 94, 95, 98, 99],
            278.2958934734502, False, 30001,
        ),
        1: (
            [11, 13, 24, 25, 26, 35, 36, 40, 45, 48, 50, 51, 53, 54, 56, 58, 59,
             60, 61, 62, 63, 64, 65, 66, 67, 68, 69, 70, 71, 72, 73, 74, 75, 76,
             77, 78, 79, 80, 81, 82, 83, 84, 85, 86, 87, 88, 89, 90, 91, 92, 93,
             94, 95, 96, 97, 98, 99],
            288.3874263566081, False, 30001,
        ),
        2: (
            [2, 3, 4, 6, 12, 17, 19, 20, 21, 23, 26, 28, 30, 34, 35, 36, 37, 38,
             39, 40, 41, 43, 44, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57,
             58, 59, 60, 61, 62, 63, 64, 65, 66, 67, 68, 69, 70, 71, 72, 73, 74,
             75, 76, 77, 78, 79, 80, 81, 82, 83, 84, 85, 86, 87, 88, 89, 90, 91,
             92, 93, 94, 95, 96, 97, 98, 99],
            74.1275373991254, False, 30001,
        ),
        3: (
            [0, 2, 4, 5, 13, 20, 21, 26, 28, 31, 35, 36, 37, 39, 41, 43, 44, 46,
             50, 54, 55, 56, 57, 58, 59, 60, 63, 65, 70, 71, 73, 74, 75, 77, 78,
             79, 81, 82, 83, 84, 85, 86, 87, 88, 89, 90, 91, 92, 93, 94, 95, 96,
             97, 98, 99],
            294.75270601241994, False, 30001,
        ),
        4: (
            [0, 8, 16, 21, 24, 26, 28, 30, 33, 36, 40, 44, 46, 48, 49, 51, 52, 53,
             54, 56, 57, 58, 59, 60, 61, 62, 63, 64, 65, 66, 68, 70, 71, 72, 73,
             74, 75, 76, 77, 78, 79, 80, 81, 82, 83, 84, 85, 86, 87, 88, 89, 90,
             91, 92, 93, 94, 95, 96, 97, 98, 99],
            128.60487628462698, False, 30001,
        ),
        5: (
            [1, 2, 7, 9, 11, 12, 19, 22, 23, 25, 26, 31, 32, 33, 34, 35, 36, 37,
             39, 40, 41, 42, 43, 44, 45, 46, 48, 49, 50, 52, 53, 56, 57, 58, 60,
             61, 62, 63, 64, 65, 66, 67, 68, 69, 70, 71, 72, 73, 74, 75, 76, 77,
             78, 79, 80, 81, 82, 83, 84, 85, 86, 87, 88, 89, 90, 91, 92, 93, 94,
             95, 96, 97, 98, 99],
            112.99679062276816, False, 30001,
        ),
        6: (
            [0, 1, 3, 5, 17, 19, 20, 21, 25, 26, 27, 29, 33, 34, 36, 39, 44, 48,
             49, 50, 54, 55, 57, 59, 62, 65, 68, 69, 70, 71, 73, 74, 76, 78, 80,
             81, 82, 83, 84, 86, 87, 88, 89, 90, 91, 92, 93, 94, 95, 96, 97, 98, 99],
            371.1350465334295, False, 30001,
        ),
        7: (
            [1, 2, 5, 14, 16, 22, 23, 27, 28, 32, 33, 34, 36, 38, 39, 40, 41, 43,
             44, 45, 47, 48, 49, 50, 51, 52, 54, 55, 56, 57, 58, 59, 60, 61, 62,
             64, 65, 66, 68, 69, 70, 71, 72, 74, 75, 76, 77, 78, 79, 81, 83, 84,
             85, 86, 87, 88, 89, 90, 91, 92, 93, 94, 95, 96, 97, 98, 99],
            267.24902792230074, False, 30001,
        ),
    },
}


def plan_synth_mkp(n, seed):
    """``solve_mkp``'s arguments for one ``plan_synth`` DAG's MKP on its
    topological order."""
    from repro.core.constraints import get_constraints
    from repro.workloads.generator import GenParams, generate_dag

    g = generate_dag(GenParams(n_nodes=n, seed=seed))
    budget = 0.016 * sum(g.sizes)
    cons = get_constraints(g, g.topological_order(), budget)
    items = sorted(set().union(*cons))
    return ({i: g.scores[i] for i in items}, {i: g.sizes[i] for i in items},
            cons, budget)


class TestSearchTree:
    """Pins the branch-and-bound tree on the ``plan_synth`` DAGs: a bound
    or ordering change that prunes differently changes ``explored``
    (and, under the node cap, the incumbent). No state may outlive one
    ``solve_mkp`` call."""

    @staticmethod
    def check_tree(n, seed):
        res = solve_mkp(*plan_synth_mkp(n, seed))
        chosen, profit, optimal, explored = TREE_GOLDEN[n][seed]
        assert sorted(res.chosen) == chosen
        assert res.profit == pytest.approx(profit, rel=1e-12)
        assert res.optimal is optimal
        assert res.explored == explored

    @pytest.mark.parametrize("seed", sorted(TREE_GOLDEN[50]))
    def test_plan_synth_50_node_tree(self, seed):
        self.check_tree(50, seed)

    @pytest.mark.parametrize("seed", sorted(TREE_GOLDEN[75]))
    def test_plan_synth_75_node_tree(self, seed):
        self.check_tree(75, seed)

    @pytest.mark.parametrize("seed", sorted(TREE_GOLDEN[100]))
    def test_plan_synth_100_node_tree(self, seed):
        self.check_tree(100, seed)

    def test_sweep_explores_621352_nodes(self):
        # the 24 sweep DAGs' topological-order MKPs, as a traced
        # ``plan_synth`` run sums them in ``mkp_explored``
        assert sum(t[3] for by_seed in TREE_GOLDEN.values()
                   for t in by_seed.values()) == 621_352

    def test_repeat_calls_share_no_state(self):
        # The tight instance has A's items and constraints, so its search
        # meets A's loads but, at half the capacity, other gaps: a gap
        # cache that outlived its call would hand them to A's solve.
        a = plan_synth_mkp(50, 1)
        tight = (*a[:3], 0.5 * a[3])
        tight_first = solve_mkp(*tight)
        first = solve_mkp(*a)
        chosen, profit, optimal, explored = TREE_GOLDEN[50][1]
        assert (sorted(first.chosen), first.profit, first.optimal,
                first.explored) == (chosen, profit, optimal, explored)
        solve_mkp(*plan_synth_mkp(50, 6))
        assert solve_mkp(*a) == first
        assert solve_mkp(*tight) == tight_first

    def test_call_leaves_no_reference_cycles(self):
        # The per-call memos must go when the call returns: a cycle
        # through the search's closures would keep them until the next
        # cyclic collection.
        import gc

        a = plan_synth_mkp(50, 1)
        gc.disable()
        try:
            gc.collect()
            gc.set_debug(gc.DEBUG_SAVEALL)
            solve_mkp(*a)
            gc.collect()
            left = [o for o in gc.garbage if callable(o)
                    and getattr(o, "__module__", None) == "repro.core.mkp"]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert left == []
