"""Shared experiment drivers for the paper's evaluation tables.

Each function produces the rows of one table (or the Fig. 9-style
end-to-end comparison) from base-table paths and/or collected profiles;
``benchmarks/bench_*.py`` and ``jobs/*.py`` are thin wrappers around
these so pytest-benchmark runs and spark-submit runs measure the exact
same code.
"""
from __future__ import annotations

import os
import time

from pyspark.sql import SparkSession

from repro.core.alternating import optimize
from repro.sim.cluster import cluster_sweep
from repro.sim.engine import simulate_run
from repro.warehouse.executor import no_opt_plan, run_workload
from repro.warehouse.lru import run_workload_lru
from repro.warehouse.storage import EMULATED_NFS, StorageModel
from repro.warehouse.metadata import (
    WorkloadProfile,
    build_depgraph,
    profile_workload,
)
from repro.workloads.generator import GenParams, generate_dag
from repro.workloads.spec import WorkloadSpec
from repro.workloads.tpcds import PAPER_TABLE3, all_workloads

Profiles = dict[str, tuple[WorkloadSpec, WorkloadProfile]]

TABLE4_PCTS = [0.004, 0.008, 0.016, 0.032, 0.064]


def nominal_bytes(sf: float) -> float:
    """Nominal dataset size: sf x 1 GB. The paper's "100 GB dataset" is
    the dsdgen scale (uncompressed); its stored ORC is far smaller.
    Memory-Catalog percentages are therefore taken of the nominal size,
    matching how the paper's 1.6 GB relates to "100 GB"."""
    return sf * 1e9


def profile_all(
    spark: SparkSession,
    base_paths: dict[str, str],
    tmpdir: str,
    *,
    partitioned: bool = False,
    storage: StorageModel | None = EMULATED_NFS,
) -> Profiles:
    """Execution metadata for all five Table III workloads, profiled
    against the emulated-NFS storage model by default (DESIGN.md §4.1)."""
    out: Profiles = {}
    for name, wl in all_workloads(partitioned=partitioned).items():
        out[name] = (
            wl,
            profile_workload(
                spark, wl, base_paths, os.path.join(tmpdir, name),
                storage=storage,
            ),
        )
    return out


# ---- Table III ------------------------------------------------------------
def io_ratio(wl: WorkloadSpec, prof: WorkloadProfile) -> float:
    """Share of workload time spent on intermediate reads + writes —
    the short-circuitable I/O Table III characterizes."""
    io = sum(
        sum(prof.stats[p].read_s for p in nd.parents)
        + max(prof.stats[nd.name].write_s, 0.0)  # write_s is signed
        for nd in wl.nodes
    )
    compute = sum(prof.stats[n].compute_s for n in wl.node_names)
    return io / (io + compute)


def table3_rows(profiles: Profiles) -> list[dict]:
    rows = []
    for name, (wl, prof) in profiles.items():
        paper = PAPER_TABLE3[name]
        rows.append(
            {
                "workload": paper["label"],
                "tpcds_queries": paper["queries"],
                "n_nodes": len(wl.nodes),
                "paper_n_nodes": paper["nodes"],
                "io_ratio": round(io_ratio(wl, prof), 3),
                "paper_io_ratio": paper["io_ratio"],
            }
        )
    return rows


# ---- Table IV -------------------------------------------------------------
def table4_sweep(profiles: Profiles, total_bytes: float) -> dict:
    """Read/compute/query totals per Memory Catalog size (simulated from
    measured metadata; Query = Read + Compute as in the paper)."""
    out: dict = {"read": {}, "compute": {}, "query": {}, "flagged": {}}

    def column(key, plans):
        read = compute = 0.0
        for (wl, prof), plan in plans:
            t = simulate_run(wl, prof, plan)
            read += t.read_s
            compute += t.compute_s
        out["read"][key] = read
        out["compute"][key] = compute
        out["query"][key] = read + compute

    column("no_opt", [((wl, p), no_opt_plan(wl)) for wl, p in profiles.values()])
    for pct in TABLE4_PCTS:
        budget = pct * total_bytes
        plans = []
        n_flagged = 0
        for wl, prof in profiles.values():
            g = build_depgraph(wl, prof)
            plan = optimize(g, budget).plan
            n_flagged += len(plan.flagged)
            plans.append(((wl, prof), plan))
        column(pct, plans)
        out["flagged"][pct] = n_flagged
    return out


# ---- Table V --------------------------------------------------------------
def table5_rows(profiles: Profiles, total_bytes: float) -> list[dict]:
    budget = 0.016 * total_bytes
    runs = []
    for wl, prof in profiles.values():
        g = build_depgraph(wl, prof)
        runs.append((wl, prof, no_opt_plan(wl), optimize(g, budget).plan))
    return [
        {
            "workers": r.workers,
            "no_opt_s": round(r.no_opt_s, 2),
            "sc_s": round(r.sc_s, 2),
            "speedup": round(r.speedup, 3),
        }
        for r in cluster_sweep(runs, [1, 2, 3, 4, 5])
    ]


# ---- End-to-end (Fig. 9 numbers, claim 1) ---------------------------------
def end_to_end_rows(
    spark: SparkSession,
    profiles: Profiles,
    base_paths: dict[str, str],
    out_root: str,
    *,
    budget: float,
    baselines_on: str = "io1_profit_report",
    storage: StorageModel | None = EMULATED_NFS,
) -> list[dict]:
    """Real Spark refresh runs: no-opt vs S/C on every workload, plus
    Greedy/Ratio flaggings and the LRU cache on ``baselines_on``."""
    rows = []
    for name, (wl, prof) in profiles.items():
        sizes = {n: prof.stats[n].out_bytes for n in wl.node_names}
        g = build_depgraph(wl, prof)
        plan = optimize(g, budget).plan
        rep0 = run_workload(
            spark, wl, no_opt_plan(wl), sizes, 0.0,
            os.path.join(out_root, f"{name}_noopt"), base_paths,
            storage=storage,
        )
        rep1 = run_workload(
            spark, wl, plan, sizes, budget,
            os.path.join(out_root, f"{name}_sc"), base_paths,
            storage=storage,
        )
        row = {
            "workload": PAPER_TABLE3[name]["label"],
            "no_opt_s": round(rep0.total_s, 3),
            "sc_s": round(rep1.total_s, 3),
            "speedup": round(rep0.total_s / rep1.total_s, 3),
            "n_flagged": len(rep1.flagged),
            "peak_catalog_mb": round(rep1.peak_catalog_bytes / 2**20, 2),
        }
        if name == baselines_on:
            for sel in ("greedy", "ratio"):
                p = optimize(g, budget, node_selector=sel).plan
                r = run_workload(
                    spark, wl, p, sizes, budget,
                    os.path.join(out_root, f"{name}_{sel}"), base_paths,
                    storage=storage,
                )
                row[f"{sel}_s"] = round(r.total_s, 3)
            r = run_workload_lru(
                spark, wl, sizes, budget,
                os.path.join(out_root, f"{name}_lru"), base_paths,
                storage=storage,
            )
            row["lru_s"] = round(r.total_s, 3)
        rows.append(row)
    return rows


# ---- Optimizer scalability (claim 7, §VI-H) -------------------------------
OPT_METHODS = {
    "mkp+madfs": {},
    "greedy+madfs": {"node_selector": "greedy"},
    "ratio+madfs": {"node_selector": "ratio"},
    "mkp+sa": {"order_scheduler": "sa"},
    "mkp+separator": {"order_scheduler": "separator"},
}


def optimizer_scaling(
    sizes: list[int] = (25, 50, 75, 100), n_seeds: int = 8
) -> dict:
    results: dict = {m: {} for m in OPT_METHODS}
    for n in sizes:
        for m, kw in OPT_METHODS.items():
            ts = []
            for seed in range(n_seeds):
                g = generate_dag(GenParams(n_nodes=n, seed=seed))
                budget = 0.016 * sum(g.sizes)
                t0 = time.perf_counter()
                optimize(g, budget, **kw)
                ts.append(time.perf_counter() - t0)
            results[m][n] = sum(ts) / len(ts)
    return results
