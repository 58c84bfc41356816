"""Regenerate the stored execution metadata of ``refresh_io``.

    python3 perfbench/make_metadata.py

For every data seed of ``DATA_SEEDS``, in one Spark session, it writes
the TPC-DS-lite tables, profiles I/O 1 ``PROFILES_PER_SEED`` times with
``profile_workload`` under the emulated NFS, and stores the field-wise
median of the per-node ``NodeStats`` in
``perfbench/metadata/refresh_io_seed<d>.json``. It also records the plan
each single profile would give, which shows how much a single-shot
profile moves the plan.
"""
from __future__ import annotations

import argparse
import statistics
import sys

import spark_env

spark_env.use_repo_sources()

from inputs import (  # noqa: E402
    DATA_SEEDS,
    PROFILES_PER_SEED,
    SF,
    WORKLOAD,
    budget_bytes,
    metadata_path,
    plan_digest,
    save_profile,
)


def median_profile(profiles):
    from repro.core.speedup import NodeStats
    from repro.warehouse.metadata import WorkloadProfile

    first = profiles[0]
    fields = [f for f in NodeStats.__dataclass_fields__]
    stats = {
        n: NodeStats(**{
            f: statistics.median(getattr(p.stats[n], f) for p in profiles)
            for f in fields
        })
        for n in first.stats
    }
    base = {
        t: statistics.median(p.base_scan_s[t] for p in profiles)
        for t in first.base_scan_s
    }
    return WorkloadProfile(stats, base, dict(first.n_children))


def main() -> None:
    argparse.ArgumentParser(description=__doc__).parse_args()

    from repro.core.alternating import optimize
    from repro.synth_data import write_tpcds
    from repro.warehouse.metadata import build_depgraph, profile_workload
    from repro.warehouse.storage import EMULATED_NFS
    from repro.workloads.tpcds import all_workloads

    work = spark_env.fresh_workdir("make_metadata")
    spark = spark_env.start_session(work)
    try:
        for dseed in DATA_SEEDS:
            base = write_tpcds(spark, f"{work}/base{dseed}", sf=SF, seed=dseed)
            wl = all_workloads()[WORKLOAD]
            singles = []
            for k in range(PROFILES_PER_SEED):
                spark_env.isolate(spark)
                singles.append(profile_workload(
                    spark, wl, base, f"{work}/prof{dseed}_{k}",
                    storage=EMULATED_NFS,
                ))
            med = median_profile(singles)
            names = wl.node_names

            def flagged(p):
                plan = optimize(build_depgraph(wl, p), budget_bytes()).plan
                return sorted(names[i] for i in plan.flagged), plan

            single_plans = [flagged(p)[0] for p in singles]
            med_flagged, plan = flagged(med)
            save_profile(metadata_path(dseed), med, {
                "workload": WORKLOAD,
                "sf": SF,
                "data_seed": dseed,
                "profiles": PROFILES_PER_SEED,
                "budget_bytes": budget_bytes(),
                "flagged": med_flagged,
                "plan_digest": plan_digest(names, plan),
                "single_profile_flagged": single_plans,
            })
            print(f"data seed {dseed}: flagged {med_flagged}; "
                  f"single profiles: {single_plans}", flush=True)
    finally:
        spark_env.stop_session(spark)


if __name__ == "__main__":
    sys.exit(main())
