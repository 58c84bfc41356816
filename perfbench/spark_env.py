"""The benchmark's Spark session and its scratch space.

Everything a run writes (Parquet, Spark block-manager and shuffle
files, JVM and Python temp files) goes under ``perfbench/.work`` of the
checkout the benchmark runs from, and the session is torn down with its
JVM waited for, so a run leaves no process behind.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK = os.path.join(BENCH_DIR, ".work")

# Fewer cores than the 4-core box it was tuned on (noise control: the
# JVM, the Python driver and the emulated-storage writer thread keep
# a core of their own).
MASTER = "local[2]"
SHUFFLE_PARTITIONS = 2


def use_repo_sources() -> None:
    """Import ``repro`` from this checkout's ``src``, never from
    elsewhere; a checkout without it is an error."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program sources at {src}")
    sys.path.insert(0, src)


def fresh_workdir(name: str) -> str:
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def start_session(workdir: str):
    """Start the JVM and a SparkSession whose scratch stays in ``workdir``."""
    tmp = os.path.join(workdir, "tmp")
    local = os.path.join(workdir, "spark-local")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(local, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = local
    # every JVM spark-submit starts: temp files here, no /tmp/hsperfdata
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {MASTER} --driver-memory 1g "
        f"--conf spark.local.dir={local} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false pyspark-shell"
    )
    import tempfile

    tempfile.tempdir = tmp
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        # the repository's convention: exercise shuffle joins
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", os.path.join(workdir, "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and wait for the JVM process to exit."""
    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    if proc is None:
        return
    if proc.stdin:
        proc.stdin.close()  # the JVM exits when its stdin closes
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=30)


def isolate(spark) -> None:
    """Stand-in for the idle gap between two scheduled refreshes: drop
    every cached block, collect garbage in the JVM and in Python, and
    wait until the block manager reports its storage memory free again
    (block removal is asynchronous)."""
    import gc

    spark.catalog.clearCache()
    for rdd in list(persistent_rdds(spark).values()):
        rdd.unpersist(True)
    spark.sparkContext._jvm.System.gc()
    gc.collect()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and storage_used_bytes(spark) > 0:
        time.sleep(0.02)


def persistent_rdds(spark) -> dict:
    """RDDs Spark still holds as persisted, by id."""
    return dict(spark.sparkContext._jsc.getPersistentRDDs())


def storage_used_bytes(spark) -> int:
    """Bytes of cached blocks held by the block manager(s)."""
    status = spark.sparkContext._jsc.sc().getExecutorMemoryStatus()
    it = status.values().iterator()
    used = 0
    while it.hasNext():
        pair = it.next()
        used += int(pair._1()) - int(pair._2())
    return used
