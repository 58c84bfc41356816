"""Optimizer scalability on synthetic DAGs (backs the paper's claim 7 /
§VI-H: S/C Opt solves 100-node workloads in negligible time, scaling
roughly linearly; SA/Separator ablations are slower).

The paper reports 0.02 s at 100 nodes with C++ OR-Tools; our solver is
pure Python with a capped branch-and-bound (see `repro.core.mkp`), so
the constant factor is larger — the reproduction target is the *shape*:
near-linear growth, sub-second at 100 nodes, SA clearly slower.
"""
from __future__ import annotations

from benchmarks.conftest import save_results
from repro.experiments import optimizer_scaling


def test_optimizer_scalability(benchmark):
    results = benchmark.pedantic(optimizer_scaling, rounds=1, iterations=1)
    save_results("optimizer_scalability", results)

    ours = results["mkp+madfs"]
    assert ours[100] < 1.0  # sub-second at 100 nodes (pure Python)
    # no exponential blowup: the last size step grows at most ~linearly
    # (25-node instances are sub-millisecond, so ratios against them are
    # dominated by constant overheads and say nothing about scaling)
    assert ours[100] < 5 * max(ours[75], 1e-3)
    assert results["mkp+sa"][100] > ours[100]  # SA ablation is slower
