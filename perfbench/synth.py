"""The optimizer side: the ``plan_synth`` workload and the optimizer's
per-layer metrics, which both workloads report.

``plan_synth`` plans the §VI-H generator DAGs, 50, 75 and 100 nodes
with 8 generator seeds each, M = 1.6 % of each DAG's total size, with
S/C's optimizer (SimplifiedMKP + MA-DFS, Alg. 2) and with the Greedy +
MA-DFS baseline. No Spark runs. The instance set is fixed so plan times
compare across runs; ``--seed`` rotates the order they are planned in.
"""
from __future__ import annotations

import statistics
import time

from checks import check_plan, require, resident_bytes

SIZES = (50, 75, 100)
GEN_SEEDS = tuple(range(8))
BUDGET_SHARE = 0.016
# Set-up ends with S/C's ``optimize`` on three 75-node DAGs outside the
# sweep, ~3 s of planning work, so set-up time is planning and not the
# jitter of a few tens of milliseconds of imports. Over ten runs
# (IQR/median) it spread 0.25-0.28, against 0.385 with one 25-node
# warm-up (0.08 s) and 0.27 with one 50-node warm-up (0.5 s): what is
# left is the machine's CPU speed, which moved CPU-bound passes by up to
# +-20 % between runs.
WARMUP_DAGS = [{"n_nodes": 75, "seed": s} for s in (8, 9, 10)]
# One round: two passes of S/C's optimizer over every DAG, between
# passes of the Greedy + MA-DFS baseline (~150x faster, so it needs many
# passes), spread over the round so both methods see the same mix of
# fast and slow spells of this shared machine.
ROUND = (("baseline", "greedy", 7), ("sc", "mkp", 1), ("baseline", "greedy", 7),
         ("sc", "mkp", 1), ("baseline", "greedy", 7))


def instances(seed: int) -> list:
    """(label, graph, budget) of every sweep DAG, rotated by ``seed``."""
    from repro.workloads.generator import GenParams, generate_dag

    out = []
    for n in SIZES:
        for s in GEN_SEEDS:
            g = generate_dag(GenParams(n_nodes=n, seed=s))
            out.append((f"generate_dag(n={n}, seed={s})", g,
                        BUDGET_SHARE * sum(g.sizes)))
    k = seed % len(out)
    return out[k:] + out[:k]


def check_result(label, g, budget, res, *, vs_baselines: bool) -> None:
    """Check one ``optimize`` result: a valid order within M, the score
    it reports, and (for S/C) at least the score ``greedy_flag`` and
    ``ratio_flag`` reach on the same order."""
    from repro.core.flagging import greedy_flag, ratio_flag

    order, flagged = res.plan.order, res.plan.flagged
    check_plan(g.n, g.edges, order, flagged, g.sizes, budget, label)
    score = sum(g.scores[i] for i in flagged)
    require(abs(score - res.score) <= 1e-9 * max(1.0, score),
            f"{label}: reported score {res.score} != {score}")
    if vs_baselines:
        for sel in (greedy_flag, ratio_flag):
            other = sum(g.scores[i] for i in sel(g, order, budget))
            require(score >= other - 1e-9 * max(1.0, other),
                    f"{label}: S/C {score} < {sel.__name__} {other}")


def optimizer_layers(tracer, planned, check) -> dict:
    """Per-layer optimizer metrics over ``planned``, a list of
    ``(label, graph, budget, OptResult, seconds)``. ``optimize`` exposes
    neither its constraint sets nor the MKP's counts, so the first step
    of Alg. 2 is repeated here from outside: ``get_constraints`` and
    ``solve_mkp`` on the topological order, then ``ma_dfs`` for the
    flagged set found, whose feasibility goes to ``check``.
    """
    from repro.core.constraints import excluded_nodes, get_constraints
    from repro.core.madfs import ma_dfs
    from repro.core.mkp import solve_mkp

    cons_s = mkp_s = madfs_s = avg_madfs = avg_topo = 0.0
    n_sets = explored = optimal = flagged = 0
    for label, g, budget, res, _ in planned:
        flagged += len(res.plan.flagged)
        topo = g.topological_order()
        with tracer.span("get_constraints") as sp:
            cons = get_constraints(g, topo, budget)
        cons_s += sp["s"]
        n_sets += len(cons)
        items = sorted(set().union(*cons)) if cons else []
        with tracer.span("solve_mkp") as sp:
            mkp = solve_mkp({i: g.scores[i] for i in items},
                            {i: g.sizes[i] for i in items}, cons, budget)
        mkp_s += sp["s"]
        explored += mkp.explored
        optimal += mkp.optimal
        trivial = set(range(g.n)) - set(items) - excluded_nodes(g, budget)
        on_topo = set(mkp.chosen) | trivial
        check(check_plan, g.n, g.edges, topo, on_topo, g.sizes, budget,
              f"{label}, MKP on the topological order")
        with tracer.span("ma_dfs") as sp:
            order = ma_dfs(g, on_topo)
        madfs_s += sp["s"]
        avg_madfs += sum(resident_bytes(g.n, g.edges, order, on_topo, g.sizes)) / g.n
        avg_topo += sum(resident_bytes(g.n, g.edges, topo, on_topo, g.sizes)) / g.n
    k = len(planned)
    return {
        "plan_s": (sum(p[4] for p in planned), "s"),
        "plan_score": (sum(p[3].score for p in planned), "score"),
        "plan_flagged": (flagged, "count"),
        "alt_iterations": (statistics.mean(p[3].iterations for p in planned), "count"),
        "constraints_s": (cons_s, "s"),
        "constraint_sets": (n_sets, "count"),
        "mkp_s": (mkp_s, "s"),
        "mkp_explored": (explored, "count"),
        "mkp_optimal_share": (optimal / k, "ratio"),
        "madfs_s": (madfs_s, "s"),
        "madfs_avg_mem_ratio": (avg_madfs / avg_topo if avg_topo else 0.0, "ratio"),
    }


def plan_benchmark(run, t_start: float) -> dict:
    from repro.core.alternating import optimize
    from repro.workloads.generator import GenParams, generate_dag

    span = run.tracer.span
    with span("generate"):
        dags = instances(run.args.seed)
    with span("warmup"):  # first calls pay for lazy imports and caches
        for params in WARMUP_DAGS:
            g = generate_dag(GenParams(**params))
            optimize(g, BUDGET_SHARE * sum(g.sizes))
            run.attempted += 1
    setup_s = time.perf_counter() - t_start

    sweeps = {"sc": [], "baseline": []}
    planned = []
    t0 = time.perf_counter()
    rounds = 0
    while True:
        for method, selector, passes in ROUND:
            for _ in range(passes):
                with span(f"sweep_{method}") as sweep:
                    results = []
                    for label, g, budget in dags:
                        with span("optimize", label=label) as sp:
                            res = optimize(g, budget, node_selector=selector)
                        run.attempted += 1
                        results.append((label, g, budget, res, sp["s"]))
                sweeps[method].append(sweep["s"])
            for label, g, budget, res, _ in results:
                run.check(check_result, f"{label} ({method})", g, budget, res,
                          vs_baselines=method == "sc")
            if method == "sc":
                planned = results
        rounds += 1
        elapsed = time.perf_counter() - t0
        if elapsed * (rounds + 1) / rounds > run.args.seconds:
            break

    if not run.tracer.enabled:
        return {"setup_s": (setup_s, "s"),
                "sc_s": (statistics.median(sweeps["sc"]), "s")}
    layers = optimizer_layers(run.tracer, planned, run.check)
    layers["baseline_s"] = (statistics.median(sweeps["baseline"]), "s")
    layers["datagen_s"] = (run.tracer.total("generate"), "s")
    layers["warmup_s"] = (run.tracer.total("warmup"), "s")
    return layers
