"""Benchmark fixtures: TPC-DS-lite at benchmark scale, plus execution
metadata (profiles) for all five workloads on both dataset variants.

``BENCH_SF`` (env, default 0.1 ≈ nominal 100 MB) sets the scale factor.
Profiling and every run go through the emulated-NFS storage model
(`repro.warehouse.storage.EMULATED_NFS`) so the I/O economics match the
paper's operating point; the Memory-Catalog sweep percentages
(0.4 %–6.4 %) are taken of the *nominal* dataset size (sf × 1 GB), the
same convention as the paper's "1.6 GB on 100 GB". Every bench writes
its table to ``results/<name>.json`` and prints it as EXPERIMENTS.md
shows it; ``python -m benchmarks.render`` regenerates EXPERIMENTS.md
from those artifacts.
"""
from __future__ import annotations

import json
import os

import pytest

from benchmarks.render import RESULTS_DIR, section
from repro.experiments import nominal_bytes, profile_all
from repro.synth_data import write_tpcds

BENCH_SF = float(os.environ.get("BENCH_SF", "0.1"))
NOMINAL_BYTES = nominal_bytes(BENCH_SF)


def save_results(name: str, obj) -> None:
    """Write ``results/<name>.json`` and print the table it renders to."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.json")
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, default=str)
    print(f"\n{path}\n{section(name)}")


@pytest.fixture(scope="session", autouse=True)
def bench_spark_tuning(spark):
    """Benchmark-session Spark tuning: 16 shuffle partitions so fixed
    per-task costs do not swamp byte-proportional costs at SF=0.1 (the
    regime the emulated NFS is calibrated for)."""
    spark.conf.set("spark.sql.shuffle.partitions", "16")
    return spark


@pytest.fixture(scope="session")
def bench_base(spark, tmp_path_factory):
    out = tmp_path_factory.mktemp("bench_base")
    return write_tpcds(spark, str(out), sf=BENCH_SF)


@pytest.fixture(scope="session")
def bench_base_part(spark, tmp_path_factory):
    out = tmp_path_factory.mktemp("bench_base_part")
    return write_tpcds(spark, str(out), sf=BENCH_SF, partitioned=True)


@pytest.fixture(scope="session")
def profiles(spark, bench_base, tmp_path_factory):
    """name -> (WorkloadSpec, WorkloadProfile) on the plain dataset."""
    tmp = tmp_path_factory.mktemp("prof")
    out = profile_all(spark, bench_base, str(tmp))
    spark.catalog.clearCache()  # leave no cache residue for timed runs
    return out


@pytest.fixture(scope="session")
def profiles_part(spark, bench_base_part, tmp_path_factory):
    """Same, for the TPC-DSp variant (partition-filtered roots)."""
    tmp = tmp_path_factory.mktemp("profp")
    out = profile_all(spark, bench_base_part, str(tmp), partitioned=True)
    spark.catalog.clearCache()
    return out
