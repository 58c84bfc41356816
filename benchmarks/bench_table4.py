"""Table IV reproduction: table-read / compute / query latency vs Memory
Catalog size (No-opt, 0.4 %–6.4 % of dataset size) on TPC-DS and
TPC-DSp.

The paper reports CPU seconds at 100 GB where Query = Table read +
Compute exactly; we replay the measured per-node metadata through the
same additive accounting (`repro.experiments.table4_sweep`). Per
catalog size the optimizer is re-run, so the flagged set (and hence the
short-circuited reads) grows with the budget — the paper's shape: read
time falls monotonically, compute stays flat.
"""
from __future__ import annotations

import pytest

from benchmarks.conftest import NOMINAL_BYTES, save_results
from repro.experiments import TABLE4_PCTS, table4_sweep


@pytest.mark.parametrize("variant", ["TPC-DS", "TPC-DSp"])
def test_table4_memory_catalog_sweep(
    variant, request, benchmark
):
    profs = request.getfixturevalue(
        "profiles" if variant == "TPC-DS" else "profiles_part"
    )
    res = benchmark.pedantic(
        table4_sweep, args=(profs, NOMINAL_BYTES), rounds=1, iterations=1
    )
    save_results(f"table4_{variant.lower().replace('-', '')}", res)

    reads = [res["read"]["no_opt"]] + [res["read"][p] for p in TABLE4_PCTS]
    # Shape assertions mirroring the paper: read latency never increases
    # with a bigger catalog and strictly improves by 6.4 %; compute flat;
    # query = read + compute.
    assert all(b <= a + 1e-6 for a, b in zip(reads, reads[1:]))
    assert res["read"][0.064] < res["read"]["no_opt"]
    comp = [res["compute"]["no_opt"]] + [res["compute"][p] for p in TABLE4_PCTS]
    assert max(comp) - min(comp) < 1e-6 * max(comp) + 1e-9
    for c in ["no_opt"] + TABLE4_PCTS:
        assert res["query"][c] == pytest.approx(
            res["read"][c] + res["compute"][c]
        )
