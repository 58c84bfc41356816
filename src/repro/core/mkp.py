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
* items explored in descending profit-density order.

Worst case remains exponential (MKP is NP-hard via 0-1 knapsack, paper
§V); ``max_nodes`` caps the tree per component and falls back to the
incumbent (feasible, near-optimal) when hit, reporting
``optimal=False``. S/C's realistic scores are strongly weight-correlated
(score ≈ bytes/bandwidth), the hardest knapsack class, so 50-100 node
generator DAGs mostly hit the default cap, which keeps a 100-node
optimization near 0.3 s in pure Python on a 4-core x86 box (the paper's
0.02 s is C++ OR-Tools). The incumbent always dominates the density-greedy fill,
so capped solutions still upper-bound the Greedy baseline.
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
    # branched[j]: (k, p) for each constraint k of item j, where k's
    # items from its p-th on remain once the search has branched on j.
    seen = [0] * len(cons_sets)
    branched: list[tuple[tuple[int, int], ...]] = []
    for ks in member:
        for k in ks:
            seen[k] += 1
        branched.append(tuple((k, seen[k]) for k in ks))

    # Greedy warm start: density order, keep if feasible everywhere.
    loads0 = [0.0] * len(cons_sets)
    warm: list[int] = []
    for j, it in enumerate(items):
        w = weights[it]
        if all(loads0[k] + w <= capacity + 1e-9 for k in member[j]):
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
    gaps = [0.0] * len(cons_sets)

    def refresh(kps: Sequence[tuple[int, int]]) -> None:
        """Recompute gaps[k] for each (k, p): k's remaining items are
        its p-th on, under the load loads[k]."""
        for k, p in kps:
            pw, pp, ws, ps = cons[k]
            in_total = pp[-1] - pp[p]
            residual = capacity - loads[k]
            if residual <= 0:
                gaps[k] = in_total
                continue
            end = pw[p] + residual
            if pw[-1] <= end:  # every remaining item fits
                gaps[k] = 0.0
                continue
            # largest q with weight(k's items p..q-1) <= residual
            q = bisect_right(pw, end) - 1
            frac = pp[q] - pp[p]
            spare = residual - (pw[q] - pw[p])
            wq = ws[q]
            if spare > 0 and wq > 0:
                frac += ps[q] * min(1.0, spare / wq)
            gaps[k] = in_total - frac

    refresh([(k, 0) for k in range(len(cons_sets))])

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
        kps = branched[j]
        saved = [gaps[k] for k, _ in kps]
        if all(loads[k] + w <= capacity + 1e-9 for k, _ in kps):
            for k, p in kps:
                residual = capacity - loads[k]
                loads[k] += w
                # An item that fits in k's residual heads k's fractional
                # fill, so taking it removes its profit from both terms
                # of gaps[k], which stays as it was.
                if residual <= 0 or w > residual:
                    refresh(((k, p),))
            chosen.append(it)
            dfs(j + 1, cur + profits[it], chosen)
            if truncated:  # capped: unwind without touching the state
                return
            chosen.pop()
            for k, _ in kps:
                loads[k] -= w
        refresh(kps)
        dfs(j + 1, cur, chosen)
        if truncated:
            return
        for (k, _), gap in zip(kps, saved):
            gaps[k] = gap

    dfs(0, 0.0, [])
    return MKPResult(frozenset(best_set), best_profit, not truncated, explored)
