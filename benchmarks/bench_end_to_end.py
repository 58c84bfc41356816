"""End-to-end MV refresh comparison on real Spark executions (backs the
paper's claim 1 / Fig. 9 numbers: S/C 1.04×–5.08× vs the raw engine, up
to 2.22× vs off-the-shelf methods; headline rows of EXPERIMENTS.md).

For each Table III workload at BENCH_SF with a 1.6 %-of-dataset Memory
Catalog: an unoptimized run (topological order, nothing cached, sync
writes) vs the S/C run (MKP + MA-DFS plan, Memory Catalog, async
materialization). On the I/O 1 workload we additionally run the Greedy/
Ratio flaggings and the LRU result-cache — the paper's off-the-shelf
comparison set. Driver logic in `repro.experiments.end_to_end_rows`.
"""
from __future__ import annotations

from benchmarks.conftest import BENCH_SF, NOMINAL_BYTES, save_results
from repro.experiments import end_to_end_rows

PAPER_FIG9_NOTE = (
    "paper Fig. 9 @100GB/1.6GB catalog: S/C speedup vs raw engine "
    "1.05x-2.72x (TPC-DS), 1.20x-5.08x (TPC-DSp); up to 2.22x vs "
    "Greedy/Random/Ratio/LRU"
)


def test_end_to_end_refresh(
    spark, profiles, bench_base, tmp_path_factory, benchmark
):
    out_root = str(tmp_path_factory.mktemp("e2e"))
    rows = benchmark.pedantic(
        end_to_end_rows,
        args=(spark, profiles, bench_base, out_root),
        kwargs={"budget": 0.016 * NOMINAL_BYTES},
        rounds=1,
        iterations=1,
    )
    sc = spark.sparkContext
    environment = (
        f"benchmarks/bench_end_to_end.py at BENCH_SF={BENCH_SF} on "
        f"{sc.master} (defaultParallelism {sc.defaultParallelism}, "
        f"{spark.conf.get('spark.sql.shuffle.partitions')} shuffle "
        "partitions), one run per method, each workload planned from one "
        "fresh profile"
    )
    save_results("end_to_end", {
        "note": PAPER_FIG9_NOTE, "environment": environment, "rows": rows,
    })

    # Shape (paper Fig. 9): the I/O-heavy workloads clearly speed up;
    # the compute-heavy ones sit near 1.0x (the paper's floor is 1.04x;
    # at SF=0.1 single-run variance on a <10 s workload is ~15-20%, so
    # the compute rows get a noise band rather than a strict >1 bound).
    assert all(r["n_flagged"] > 0 for r in rows)
    by_wl = {r["workload"]: r for r in rows}
    for w in ("I/O 1", "I/O 2", "I/O 3"):
        assert by_wl[w]["speedup"] > 1.1, (w, by_wl[w])
    for w in ("Compute 1", "Compute 2"):
        assert by_wl[w]["sc_s"] < by_wl[w]["no_opt_s"] * 1.25, (w, by_wl[w])
