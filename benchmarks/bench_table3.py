"""Table III reproduction: workload summary (queries, node counts, I/O
ratio).

The paper estimated each workload's I/O percentage by profiling
equivalent operations with Polars; we profile the real thing on Spark
(`warehouse.metadata.profile_workload`) and define

    I/O ratio = (intermediate reads + writes) / (that + compute)

— exactly the I/O S/C can short-circuit, the quantity Table III
characterizes. Logic lives in `repro.experiments`.
"""
from __future__ import annotations

from benchmarks.conftest import save_results
from repro.experiments import table3_rows


def test_table3_workload_summary(profiles, benchmark):
    rows = benchmark.pedantic(
        table3_rows, args=(profiles,), rounds=1, iterations=1
    )
    save_results("table3", rows)
    # Reproduction shape: node counts identical; every I/O workload is
    # I/O-heavier than Compute 1, which is the most compute-bound.
    ratios = {r["workload"]: r["io_ratio"] for r in rows}
    assert all(r["n_nodes"] == r["paper_n_nodes"] for r in rows)
    # Compute 1 must be clearly less I/O-bound than every I/O workload
    # (the paper's ordering; our absolute floor is higher because Spark
    # fixed per-node costs count as write time at SF=0.1 — EXPERIMENTS.md)
    assert all(ratios[w] > ratios["Compute 1"] for w in ("I/O 1", "I/O 2", "I/O 3"))
