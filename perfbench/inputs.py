"""Fixed inputs of the ``refresh_io`` workload.

A run's ``--seed`` picks one of ``DATA_SEEDS``; that data seed fixes the
TPC-DS-lite base tables (``synth_data.write_tpcds``) and the stored
execution metadata the S/C plan is made from (``metadata/*.json``,
written by ``make_metadata.py``). The plan is therefore the same in
every run of a seed, and still comes from ``optimize`` at run time, so
an optimizer change changes the refreshes it drives.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os

from spark_env import BENCH_DIR

SF = 0.01  # TPC-DS-lite scale factor (sf=1 ~ 1 GB nominal)
BUDGET_SHARE = 0.016  # catalog bound M: 1.6 % of the nominal data size
DATA_SEEDS = (0, 1, 2, 3)
PROFILES_PER_SEED = 3  # metadata = field-wise median of this many profiles

WORKLOAD = "io1_profit_report"  # I/O 1, 21 MVs


def data_seed(seed: int) -> int:
    return DATA_SEEDS[seed % len(DATA_SEEDS)]


def budget_bytes() -> float:
    return BUDGET_SHARE * SF * 1e9


def metadata_path(dseed: int) -> str:
    return os.path.join(BENCH_DIR, "metadata", f"refresh_io_seed{dseed}.json")


def save_profile(path: str, profile, extra: dict) -> None:
    doc = {
        **extra,
        "stats": {n: dataclasses.asdict(s) for n, s in profile.stats.items()},
        "base_scan_s": profile.base_scan_s,
        "n_children": profile.n_children,
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def load_profile(path: str):
    """Stored metadata as a ``warehouse.metadata.WorkloadProfile``."""
    from repro.core.speedup import NodeStats
    from repro.warehouse.metadata import WorkloadProfile

    with open(path) as f:
        doc = json.load(f)
    stats = {n: NodeStats(**s) for n, s in doc["stats"].items()}
    return WorkloadProfile(stats, doc["base_scan_s"], doc["n_children"])


def plan_digest(names, plan) -> str:
    """Short digest of a plan: its flagged set plus its order."""
    flagged = sorted(names[i] for i in plan.flagged)
    order = [names[i] for i in plan.order]
    blob = json.dumps([flagged, order]).encode()
    return hashlib.sha256(blob).hexdigest()[:12]
