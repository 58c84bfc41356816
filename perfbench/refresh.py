"""The ``refresh_io`` workload: I/O 1 refreshed on Spark.

The S/C plan comes from ``optimize`` over the stored execution metadata
of the run's data seed. After set-up (JVM, data, plan, one untimed
warm-up refresh) it refreshes in rounds of S/C, no-opt, S/C, with
caches cleared and garbage collected between refreshes. Traced runs add an LRU refresh, a fresh
profile and the optimizer's layers after the timed section.
"""
from __future__ import annotations

import os
import statistics
import time

import spark_env

# One round: S/C, no-opt, S/C. The JVM is still warming up over the
# round, and both methods sit at the same mean position in it. S/C gets
# two refreshes because, with one of each, its time spread far more from
# run to run than no-opt's (IQR/median 0.21 against 0.04, five seeds).
ROUND = ("sc", "noopt", "sc")


def refresh_benchmark(run, spark, work: str, t_start: float) -> dict:
    from checks import (
        best_score_on_order, check_frame, check_plan, duckdb_chain, lru_delays,
        read_mv, require, sc_delays,
    )
    from inputs import (
        SF, WORKLOAD, budget_bytes, data_seed, load_profile, metadata_path,
        plan_digest,
    )
    from repro.core.alternating import optimize
    from repro.synth_data import tpcds_pandas, write_tpcds
    from repro.warehouse.executor import no_opt_plan, run_workload
    from repro.warehouse.lru import run_workload_lru
    from repro.warehouse.metadata import build_depgraph
    from repro.warehouse.storage import EMULATED_NFS
    from repro.workloads.tpcds import all_workloads

    args, span = run.args, run.tracer.span
    wl = all_workloads()[WORKLOAD]
    names = wl.node_names
    dseed = data_seed(args.seed)
    budget = budget_bytes()

    with span("datagen"):
        base = write_tpcds(spark, os.path.join(work, "base"), sf=SF, seed=dseed)
    profile = load_profile(metadata_path(dseed))
    sizes = {n: profile.stats[n].out_bytes for n in names}
    with span("plan") as sp:
        g = build_depgraph(wl, profile)
        opt = optimize(g, budget)
    run.attempted += 1
    planned = [("S/C plan", g, budget, opt, sp["s"])]
    plan = opt.plan
    flagged = frozenset(names[i] for i in plan.flagged)
    print(f"plan {args.workload} seed {args.seed} (data seed {dseed}): "
          f"digest {plan_digest(names, plan)}, flagged {sorted(flagged)}, "
          f"order {[names[i] for i in plan.order]}", flush=True)
    size_list = [sizes[n] for n in names]
    run.check(check_plan, len(names), wl.edges(), plan.order, plan.flagged,
              size_list, budget, "S/C plan")
    best = best_score_on_order(len(names), wl.edges(), plan.order, size_list,
                               g.scores, budget)
    run.check(require, best is None or abs(opt.score - best) <= 1e-9 * max(1.0, best),
              f"S/C plan scores {opt.score}, enumeration finds {best}")
    noopt = no_opt_plan(wl)

    def refresh(method: str, out: str):
        if method == "lru":
            return run_workload_lru(spark, wl, sizes, budget, out, base,
                                    storage=EMULATED_NFS)
        if method == "noopt":
            return run_workload(spark, wl, noopt, sizes, 0.0, out, base,
                                storage=EMULATED_NFS)
        return run_workload(spark, wl, plan, sizes, budget, out, base,
                            storage=EMULATED_NFS)

    model = {
        "noopt": sc_delays(wl, noopt.order, frozenset(), sizes, EMULATED_NFS),
        "sc": sc_delays(wl, plan.order, flagged, sizes, EMULATED_NFS),
        "lru": lru_delays(wl, sizes, budget, EMULATED_NFS),
    }
    walls = {m: [] for m in model}
    reports = {m: [] for m in model}
    outs = {}

    def timed_refresh(method: str, out: str) -> float:
        """One refresh, its checks, then isolation from the next one."""
        with span(f"refresh_{method}") as sp:
            rep = refresh(method, out)
        run.attempted += 1
        wall = sp["s"]
        walls[method].append(wall)
        reports[method].append(rep)
        outs[method] = out
        left = spark_env.persistent_rdds(spark)
        run.check(require, not left,
                  f"{method}: RDDs {sorted(left)} still persisted after refresh")
        m = model[method]
        run.check(require, wall >= m["main"] and wall >= m["background"],
                  f"{method}: {wall:.3f} s is less than the emulated delays "
                  f"(main {m['main']:.3f} s, background {m['background']:.3f} s)")
        mem = sum(nt.mem_parents for nt in rep.nodes)
        disk = sum(nt.disk_parents for nt in rep.nodes)
        run.check(require, (mem, disk) == (m["mem"], m["disk"]),
                  f"{method}: parent reads mem/disk {mem}/{disk}, "
                  f"expected {m['mem']}/{m['disk']}")
        with span("isolate"):
            spark_env.isolate(spark)
        return wall

    with span("warmup"):
        timed_refresh("sc", os.path.join(work, "warmup"))
    walls["sc"].clear()
    reports["sc"].clear()
    setup_s = time.perf_counter() - t_start

    t0 = time.perf_counter()
    rounds = 0
    while True:
        for i, m in enumerate(ROUND):
            timed_refresh(m, os.path.join(work, f"{m}_{rounds}_{i}"))
        rounds += 1
        elapsed = time.perf_counter() - t0
        if elapsed * (rounds + 1) / rounds > args.seconds:
            break
    if run.tracer.enabled:  # untimed baseline, after the timed section
        timed_refresh("lru", os.path.join(work, "lru"))

    # Outputs of each method's last refresh against DuckDB on the same data.
    with span("check_outputs"):
        want = duckdb_chain(wl, tpcds_pandas(sf=SF, seed=dseed))
        for m, out in outs.items():
            for n in names:
                run.check(check_frame, read_mv(out, n), want[n], f"{m}/{n}")

    med = {m: statistics.median(w) for m, w in walls.items() if w}
    if not run.tracer.enabled:
        return {"setup_s": (setup_s, "s"), "sc_s": (med["sc"], "s")}
    return refresh_layers(run, spark, wl, profile, plan, noopt, base, work,
                          walls, reports, model, med, planned)


def refresh_layers(run, spark, wl, profile, plan, noopt, base, work, walls,
                   reports, model, med, planned) -> dict:
    """Per-layer metrics of a traced run (see README.md for the layer to
    end-to-end mapping)."""
    from repro.sim.engine import simulate_run
    from repro.warehouse.metadata import profile_workload
    from repro.warehouse.storage import EMULATED_NFS

    tr = run.tracer

    def median_of(m, fn):
        return statistics.median(fn(r, w) for r, w in zip(reports[m], walls[m]))

    out = {
        "session_start_s": (tr.total("session_start"), "s"),
        "datagen_s": (tr.total("datagen"), "s"),
        "warmup_s": (tr.total("warmup"), "s"),
        "isolate_s": (tr.total("isolate") / tr.count("isolate"), "s"),
        "baseline_s": (med["noopt"], "s"),
        "lru_refresh_s": (med["lru"], "s"),
    }
    for m in model:
        def tail(r):
            return r.async_write_wait_s if m == "sc" else 0.0
        out[f"{m}_node_s"] = (median_of(m, lambda r, w: sum(n.exec_s for n in r.nodes)), "s")
        out[f"{m}_disk_reads"] = (median_of(
            m, lambda r, w: sum(n.disk_parents for n in r.nodes)), "count")
        if m != "noopt":
            out[f"{m}_mem_reads"] = (median_of(
                m, lambda r, w: sum(n.mem_parents for n in r.nodes)), "count")
        out[f"{m}_emulated_io_s"] = (model[m]["main"], "s")
        out[f"{m}_spark_s"] = (median_of(
            m, lambda r, w: w - model[m]["main"] - tail(r)), "s")
    out["sc_async_tail_s"] = (median_of("sc", lambda r, w: r.async_write_wait_s), "s")
    out["sc_peak_catalog_mb"] = (max(r.peak_catalog_bytes for r in reports["sc"]) / 2**20, "MB")
    out["lru_peak_cache_mb"] = (max(r.peak_catalog_bytes for r in reports["lru"]) / 2**20, "MB")

    sim = {"noopt": simulate_run(wl, profile, noopt).end_to_end_s,
           "sc": simulate_run(wl, profile, plan).end_to_end_s}
    out["sim_noopt_s"] = (sim["noopt"], "s")
    out["sim_sc_s"] = (sim["sc"], "s")
    out["sim_over_measured"] = ((sim["noopt"] + sim["sc"]) / (med["noopt"] + med["sc"]), "ratio")

    with tr.span("profile"):
        profile_workload(spark, wl, base, os.path.join(work, "profile"),
                         storage=EMULATED_NFS)
    out["profile_s"] = (tr.total("profile"), "s")

    from synth import optimizer_layers

    out.update(optimizer_layers(tr, planned, run.check))
    return out
