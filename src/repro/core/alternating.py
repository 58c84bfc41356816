"""Alternating optimization for S/C Opt (paper §V-C, Algorithm 2).

Starting from a plain topological order and an empty flagged set, we
alternate: (1) solve S/C Opt Nodes for the current order; (2) solve
S/C Opt Order for the new flagged set. Terminate when

* the new flagged set's total size does not exceed the old one's
  (Alg. 2 line 5 — no progress), or
* the new order is infeasible for the current flagged set under M
  (Alg. 2 line 8 — keep the previous order), or
* an iteration cap is hit (the paper observes convergence in <10
  iterations on ≤100-node graphs; the cap is a pure safety net).

On the line-5 exit we return whichever of (U, U_new) has the higher
total speedup score — both are feasible under the current order (U was
verified on the previous line-8 check, U_new is MKP output for this
order), and the MKP's optimality means U_new can only be ≥ U, so this
never returns a worse plan than the paper's literal pseudocode.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.flagging import (
    NODE_SELECTORS,
    simplified_mkp,
    solve_simplified_mkp,
)
from repro.core.graph import DepGraph, Plan
from repro.core.madfs import ORDER_SCHEDULERS, ma_dfs


@dataclass
class OptResult:
    """Converged plan plus a per-iteration trace for tests/diagnostics.

    Each trace entry holds the iteration's flagged set, score and size;
    with the ``simplified_mkp`` selector also ``mkp_optimal`` (the MKP
    proved its optimum in every component) and ``mkp_explored`` (its
    branch-and-bound nodes, summed over components).
    """

    plan: Plan
    iterations: int
    score: float
    trace: list[dict] = field(default_factory=list)


def optimize(
    g: DepGraph,
    budget: float,
    *,
    node_selector: Callable[..., frozenset[int]] | str = simplified_mkp,
    order_scheduler: Callable[..., list[int]] | str = ma_dfs,
    initial_order: Sequence[int] | None = None,
    max_iterations: int = 50,
) -> OptResult:
    """Solve S/C Opt. ``node_selector``/``order_scheduler`` may be names
    from ``NODE_SELECTORS``/``ORDER_SCHEDULERS`` for ablation runs
    (paper §VI-F)."""
    if isinstance(node_selector, str):
        node_selector = NODE_SELECTORS[node_selector]
    if isinstance(order_scheduler, str):
        order_scheduler = ORDER_SCHEDULERS[order_scheduler]

    tau = list(initial_order) if initial_order is not None else g.topological_order()
    assert tau is not None and g.is_valid_order(tau)
    flagged: frozenset[int] = frozenset()
    trace: list[dict] = []

    for it in range(1, max_iterations + 1):
        mkp_stats = {}
        if node_selector is simplified_mkp:
            new_flagged, mkp = solve_simplified_mkp(g, tau, budget)
            mkp_stats = {"mkp_optimal": mkp.optimal, "mkp_explored": mkp.explored}
        else:
            new_flagged = node_selector(g, tau, budget)
        trace.append(
            {
                "iter": it,
                "flagged": set(new_flagged),
                "score": g.total_score(new_flagged),
                "size": sum(g.sizes[i] for i in new_flagged),
                **mkp_stats,
            }
        )
        new_size = sum(g.sizes[i] for i in new_flagged)
        old_size = sum(g.sizes[i] for i in flagged)
        if new_size <= old_size:  # Alg. 2 line 5
            if g.total_score(new_flagged) > g.total_score(flagged):
                flagged = new_flagged
            return OptResult(Plan(tuple(tau), flagged), it, g.total_score(flagged), trace)
        flagged = new_flagged
        new_tau = order_scheduler(g, flagged)
        if not g.is_valid_order(new_tau) or g.peak_memory(flagged, new_tau) > budget + 1e-9:
            return OptResult(  # Alg. 2 line 8: keep previous order
                Plan(tuple(tau), flagged), it, g.total_score(flagged), trace
            )
        tau = new_tau
    return OptResult(Plan(tuple(tau), flagged), max_iterations, g.total_score(flagged), trace)
