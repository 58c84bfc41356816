"""S/C benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload refresh_io --seed 1 --seconds 20 --trace 0

Workloads (README.md has the why): ``refresh_io`` refreshes TPC-DS-lite
I/O 1 on Spark behind the emulated NFS, no-opt against S/C;
``plan_synth`` runs S/C's optimizer and the Greedy baseline over the
§VI-H generator DAGs, without Spark. After set-up, a run measures whole
rounds, starting another only while the rounds so far project to end
within ``--seconds``, then checks every output. The last line printed
is one JSON object: with ``--trace 0`` the end-to-end metrics of
``BENCHMARK.json``, with ``--trace 1`` its per-layer metrics, a layer
the workload does not exercise reading 0.
"""
import time

T_START = time.perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import spark_env  # noqa: E402
from spans import Tracer  # noqa: E402

WORKLOADS = ("plan_synth", "refresh_io")


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


class Run:
    """State of one benchmark run: operation counts, check failures and
    spans."""

    def __init__(self, args):
        self.args = args
        self.tracer = Tracer(args.trace == 1)
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, fn, *a, **kw) -> None:
        """Run one check; a failure is recorded and the run goes on."""
        from checks import CheckFailed

        try:
            fn(*a, **kw)
        except CheckFailed as e:
            self.failures.append(str(e))
            print(f"CHECK FAILED: {e}", file=sys.stderr)


def declared_metrics(trace: bool) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(spark_env.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    args = parse_args()
    spark_env.use_repo_sources()
    declared = declared_metrics(args.trace == 1)
    run = Run(args)
    work = spark_env.fresh_workdir(args.workload)
    if args.workload == "plan_synth":
        from synth import plan_benchmark

        metrics = plan_benchmark(run, T_START)
    else:
        from refresh import refresh_benchmark

        with run.tracer.span("session_start"):
            spark = spark_env.start_session(work)
        try:
            metrics = refresh_benchmark(run, spark, work, T_START)
        finally:
            spark_env.stop_session(spark)
    run.tracer.write(os.path.join(work, "spans.json"))

    unknown = set(metrics) - set(declared)
    if unknown:
        sys.exit(f"perfbench: metrics {sorted(unknown)} are not in BENCHMARK.json")
    for name, unit in declared.items():
        value, got_unit = metrics.get(name, (0, unit))
        if got_unit != unit:
            sys.exit(f"perfbench: {name} measured in {got_unit}, declared {unit}")
        metrics[name] = (value, unit)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": 0,  # a failing operation ends the run without a result
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
