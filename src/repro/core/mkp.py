"""Exact binary multidimensional knapsack (MKP) via branch-and-bound.

This is the ``BinaryMKPSolver`` subroutine of paper Alg. 1. The paper
uses Google OR-Tools' BnB solver; OR-Tools is unavailable offline, so we
implement branch-and-bound from scratch, with the engineering needed to
stay within the paper's ~0.02 s budget on 100-node graphs:

* **component decomposition** — items interact only through shared
  constraint sets, so connected components of the item/constraint
  bipartite graph are solved independently (S/C's constraint sets are
  per-step resident intervals, which split the instance into short
  time-separated segments);
* **greedy warm start** — a density-ordered feasible fill seeds the
  incumbent so pruning bites from the first branch;
* **incremental bounds** — a free O(1) suffix-profit bound first, then
  the per-constraint fractional-knapsack bound (minimum over constraints
  of ``current + profit outside the constraint + fractional fill
  inside``), each an admissible relaxation. The second is kept as
  ``current + remaining profit - max_k gap_k``, where ``gap_k`` is the
  remaining profit inside constraint k that its fractional fill leaves
  out; branching on an item recomputes only its own constraints' gaps
  (none when the item is taken and fits), so a node's test is one
  ``max``;
* **per-call gap memo** — with the capacity fixed, a constraint's gap
  depends only on which of its items remain (fixed for each branched
  item) and on its exact float load, so each (item, constraint) row
  keeps a ``load -> gap`` dict for the length of one ``_bnb`` call; on
  the ``plan_synth`` sweep's 24 topological-order MKPs 89 % of the gap
  evaluations are such repeats. The key is the exact load and a miss
  runs the same float expressions, so the search tree is unchanged;
* items explored in descending profit-density order.

Worst case remains exponential (MKP is NP-hard via 0-1 knapsack, paper
§V); ``max_nodes`` caps the tree per component and falls back to the
incumbent (feasible, near-optimal) when hit, reporting
``optimal=False``. S/C's realistic scores are strongly weight-correlated
(score ≈ bytes/bandwidth), the hardest knapsack class, so 50-100 node
generator DAGs mostly hit the default cap, which keeps a 100-node
optimization near 0.13 s in pure Python (mean over generator seeds 0-7
at M = 1.6 %, ``bench_optimizer`` on a 4-core x86 box; the paper's
0.02 s is C++ OR-Tools). The incumbent always dominates the
density-greedy fill, so capped solutions still upper-bound the Greedy
baseline.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence


@dataclass
class MKPResult:
    chosen: frozenset[int]
    profit: float
    optimal: bool
    explored: int


def solve_mkp(
    profits: dict[int, float],
    weights: dict[int, float],
    constraints: Sequence[frozenset[int]],
    capacity: float,
    *,
    max_nodes: int = 30_000,
) -> MKPResult:
    """Maximize Σ profit over chosen items s.t. for each constraint set C,
    Σ_{i ∈ C chosen} weight_i ≤ capacity.

    ``profits``/``weights`` are keyed by item id; ``constraints`` are
    frozensets of item ids sharing one capacity (the Memory Catalog
    bound M). Items appearing in no constraint are unconstrained and
    always taken (they cost nothing anywhere).
    """
    constrained = set().union(*constraints) if constraints else set()
    free = [i for i in profits if i not in constrained]
    base_profit = sum(profits[i] for i in free)

    # ---- component decomposition over shared constraints ---------------
    parent: dict[int, int] = {i: i for i in constrained}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in constraints:
        it = iter(c)
        first = next(it, None)
        if first is None:
            continue
        r = find(first)
        for other in it:
            parent[find(other)] = r

    comps: dict[int, list[int]] = {}
    for i in constrained:
        comps.setdefault(find(i), []).append(i)

    chosen: set[int] = set(free)
    total = base_profit
    optimal = True
    explored_total = 0
    for comp in comps.values():
        comp_set = set(comp)
        comp_cons = [c for c in constraints if c & comp_set]
        sub = _bnb(
            {i: profits[i] for i in comp},
            {i: weights[i] for i in comp},
            comp_cons,
            capacity,
            max_nodes,
        )
        chosen |= set(sub.chosen)
        total += sub.profit
        optimal &= sub.optimal
        explored_total += sub.explored
    return MKPResult(frozenset(chosen), total, optimal, explored_total)


def _bnb(
    profits: dict[int, float],
    weights: dict[int, float],
    constraints: Sequence[frozenset[int]],
    capacity: float,
    max_nodes: int,
) -> MKPResult:
    items = sorted(
        profits, key=lambda i: (-(profits[i] / max(weights[i], 1e-12)), i)
    )
    cons_sets = [set(c) for c in constraints]
    member = [
        tuple(k for k, c in enumerate(cons_sets) if it in c) for it in items
    ]

    suffix_profit = [0.0] * (len(items) + 1)
    for j in range(len(items) - 1, -1, -1):
        suffix_profit[j] = suffix_profit[j + 1] + profits[items[j]]

    # Per constraint: prefix weights, prefix profits, weights and profits
    # of its items in density order, so a fractional fill is one bisect.
    cons: list[tuple[list[float], list[float], list[float], list[float]]] = []
    for cset in cons_sets:
        ws = [weights[it] for it in items if it in cset]
        ps = [profits[it] for it in items if it in cset]
        cons.append((list(accumulate(ws, initial=0.0)),
                     list(accumulate(ps, initial=0.0)), ws, ps))

    def fill_row(k: int, p: int) -> tuple:
        """Constants of k's fractional fill once k's items from its p-th
        on remain: their profit, the prefix weight and profit before
        them, k's total weight, then k's prefix and item arrays."""
        pw, pp, ws, ps = cons[k]
        return (pp[-1] - pp[p], pw[p], pp[p], pw[-1], pw, pp, ws, ps)

    def fill_gap(load: float, in_total: float, pw_p: float, pp_p: float,
                 pw_last: float, pw: list[float], pp: list[float],
                 ws: list[float], ps: list[float]) -> float:
        """Profit of a constraint's remaining items (``fill_row``) that
        the fractional fill of its residual capacity leaves out."""
        residual = capacity - load
        if residual <= 0:
            return in_total
        end = pw_p + residual
        if pw_last <= end:  # every remaining item fits
            return 0.0
        # largest q whose remaining items before it weigh <= residual
        q = bisect_right(pw, end) - 1
        frac = pp[q] - pp_p
        spare = residual - (pw[q] - pw_p)
        wq = ws[q]
        if spare > 0 and wq > 0:
            frac += ps[q] * min(1.0, spare / wq)
        return in_total - frac

    # branched[j]: (k, memo, fill_row(k, p)) for each constraint k of item
    # j, where k's items from its p-th on remain once the search has
    # branched on j. With p and the capacity fixed, k's gap depends only
    # on loads[k], so memo maps each exact load met to its gap.
    seen = [0] * len(cons_sets)
    branched: list[tuple[tuple[int, dict[float, float], tuple], ...]] = []
    for ks in member:
        for k in ks:
            seen[k] += 1
        branched.append(tuple((k, {}, fill_row(k, seen[k])) for k in ks))

    # Greedy warm start: density order, keep if feasible everywhere.
    fit_cap = capacity + 1e-9
    loads0 = [0.0] * len(cons_sets)
    warm: list[int] = []
    for j, it in enumerate(items):
        w = weights[it]
        if all(loads0[k] + w <= fit_cap for k in member[j]):
            for k in member[j]:
                loads0[k] += w
            warm.append(it)
    best_profit = sum(profits[i] for i in warm)
    best_set = list(warm)
    explored = 0
    truncated = False

    # gaps[k]: profit of k's remaining items that the fractional knapsack
    # fill of k's residual capacity leaves out. The bound at depth j is
    # ``cur + suffix_profit[j] - max(gaps)``: every remaining item, less
    # what the tightest constraint cannot hold even fractionally, i.e.
    # the least of the per-constraint fractional bounds. Admissible:
    # skipped items only loosen it. Loads and gaps change only for the
    # branched item's constraints and are restored on backtrack.
    loads = [0.0] * len(cons_sets)
    gaps = [fill_gap(0.0, *fill_row(k, 0)) for k in range(len(cons_sets))]

    def dfs(j: int, cur: float, chosen: list[int]) -> None:
        nonlocal best_profit, best_set, explored, truncated
        explored += 1
        if truncated or explored > max_nodes:
            truncated = True
            return
        if cur > best_profit:
            best_profit = cur
            best_set = list(chosen)
        if j == len(items):
            return
        if cur + suffix_profit[j] <= best_profit + 1e-12:  # cheap bound
            return
        if cur + suffix_profit[j] - max(gaps) <= best_profit + 1e-12:
            return
        it = items[j]
        w = weights[it]
        rows = branched[j]
        saved = [gaps[k] for k, _, _ in rows]
        for k, _, _ in rows:
            if loads[k] + w > fit_cap:
                break
        else:
            for k, memo, row in rows:
                residual = capacity - loads[k]
                load = loads[k] = loads[k] + w
                # An item that fits in k's residual heads k's fractional
                # fill, so taking it removes its profit from both terms
                # of gaps[k], which stays as it was.
                if residual <= 0 or w > residual:
                    gap = memo.get(load)
                    if gap is None:
                        gap = memo[load] = fill_gap(load, *row)
                    gaps[k] = gap
            chosen.append(it)
            dfs(j + 1, cur + profits[it], chosen)
            if truncated:  # capped: unwind without touching the state
                return
            chosen.pop()
            for k, _, _ in rows:
                loads[k] -= w
        for k, memo, row in rows:
            load = loads[k]
            gap = memo.get(load)
            if gap is None:
                gap = memo[load] = fill_gap(load, *row)
            gaps[k] = gap
        dfs(j + 1, cur, chosen)
        if truncated:
            return
        for (k, _, _), gap in zip(rows, saved):
            gaps[k] = gap

    dfs(0, 0.0, [])
    # dfs refers to itself through its closure; break that cycle so the
    # memos go when the call returns, not at the next cyclic collection.
    del dfs
    return MKPResult(frozenset(best_set), best_profit, not truncated, explored)
