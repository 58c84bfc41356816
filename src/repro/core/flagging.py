"""Node-flagging solutions to S/C Opt Nodes (paper §V-A) and baselines.

``simplified_mkp`` is paper Algorithm 1: exclude unflaggable nodes,
build the maximal non-trivial constraint sets, solve the MKP exactly
over nodes that appear in some constraint, then trivially flag every
non-excluded node that appears in no constraint (flagging those cannot
violate memory).

Baselines (paper §VI-A):

* ``greedy_flag`` — walk nodes in execution order, flag when feasible;
* ``random_flag`` — same but in random order;
* ``ratio_flag`` — ratio-based selection [Xin et al., 60]: walk nodes by
  descending speedup-score/size ratio, flag when feasible.
"""
from __future__ import annotations

import random
from typing import Sequence

from repro.core.constraints import excluded_nodes, get_constraints
from repro.core.graph import DepGraph
from repro.core.mkp import MKPResult, solve_mkp


def simplified_mkp(
    g: DepGraph, order: Sequence[int], budget: float
) -> frozenset[int]:
    """Paper Algorithm 1: exact flagged-node selection for a fixed order."""
    return solve_simplified_mkp(g, order, budget)[0]


def solve_simplified_mkp(
    g: DepGraph, order: Sequence[int], budget: float
) -> tuple[frozenset[int], MKPResult]:
    """``simplified_mkp``'s flagged set plus the MKP's result, whose
    ``optimal`` is False when the search hit its node cap."""
    excl = excluded_nodes(g, budget)
    cons = get_constraints(g, order, budget)
    v_mkp = set().union(*cons) if cons else set()
    profits = {i: g.scores[i] for i in v_mkp}
    weights = {i: g.sizes[i] for i in v_mkp}
    res = solve_mkp(profits, weights, cons, budget)
    # Alg. 1 line 9: nodes in no constraint set and not excluded are
    # trivially flaggable.
    trivial = set(range(g.n)) - v_mkp - excl
    return frozenset(res.chosen) | frozenset(trivial), res


def _flag_in_sequence(
    g: DepGraph, order: Sequence[int], budget: float, sequence: Sequence[int]
) -> frozenset[int]:
    """Flag nodes one at a time in ``sequence``, keeping each only if the
    running set stays feasible under ``order`` (shared core of the
    Greedy/Random/Ratio baselines)."""
    flagged: set[int] = set()
    for v in sequence:
        if g.scores[v] == 0 or g.sizes[v] > budget:
            continue
        flagged.add(v)
        if not g.is_feasible(flagged, order, budget):
            flagged.remove(v)
    return frozenset(flagged)


def greedy_flag(
    g: DepGraph, order: Sequence[int], budget: float
) -> frozenset[int]:
    """Greedy baseline: iterate nodes in execution order, flag if feasible."""
    return _flag_in_sequence(g, order, budget, list(order))


def random_flag(
    g: DepGraph, order: Sequence[int], budget: float, *, seed: int = 0
) -> frozenset[int]:
    """Random baseline: iterate nodes in a random order, flag if feasible."""
    seq = list(range(g.n))
    random.Random(seed).shuffle(seq)
    return _flag_in_sequence(g, order, budget, seq)


def ratio_flag(
    g: DepGraph, order: Sequence[int], budget: float
) -> frozenset[int]:
    """Ratio-based selection [60]: prioritize high score/size ratio."""
    seq = sorted(
        range(g.n),
        key=lambda i: (-(g.scores[i] / max(g.sizes[i], 1e-12)), i),
    )
    return _flag_in_sequence(g, order, budget, seq)


NODE_SELECTORS = {
    "mkp": simplified_mkp,
    "greedy": greedy_flag,
    "random": random_flag,
    "ratio": ratio_flag,
}
