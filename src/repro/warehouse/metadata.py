"""Execution-metadata collection (paper §III-A).

S/C's optimizer consumes *observed performance metrics from past MV
refresh runs*: output sizes and per-node timings. ``profile_workload``
is that past run: it executes every node once with all inputs (parents
*and* base tables) memory-resident to isolate compute, then measures the
write cost, the on-disk size, the disk re-scan cost, and the
memory-scan cost of each output. Disk scans are forced with Spark's
``noop`` sink so the full Parquet decode happens without a write.

From these stats, ``build_depgraph`` derives the optimizer input: node
sizes ``S`` (bytes on disk, the Memory Catalog accounting unit) and
speedup scores ``T`` (paper §IV formula via `repro.core.speedup`).

When a ``storage`` model (`warehouse.storage`) is given, its emulated
byte delays are folded into ``read_s``/``write_s``/``base_scan_s`` —
the same delays the Controller pays at run time, so the Optimizer plans
against the storage it will actually execute on.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass

from pyspark.sql import SparkSession

from repro.core.graph import DepGraph
from repro.core.speedup import NodeStats, speedup_score
from repro.warehouse.storage import StorageModel
from repro.workloads.spec import WorkloadSpec


def _dir_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


def _noop_scan(df) -> float:
    t0 = time.perf_counter()
    df.write.format("noop").mode("overwrite").save()
    return time.perf_counter() - t0


@dataclass
class WorkloadProfile:
    """Per-node stats plus per-base-table disk-scan times (seconds)."""

    stats: dict[str, NodeStats]
    base_scan_s: dict[str, float]
    n_children: dict[str, int]


def profile_workload(
    spark: SparkSession,
    wl: WorkloadSpec,
    base_paths: dict[str, str],
    tmpdir: str,
    *,
    storage: StorageModel | None = None,
) -> WorkloadProfile:
    """One profiling refresh run; all outputs land in ``tmpdir``."""
    os.makedirs(tmpdir, exist_ok=True)
    base_scan_s: dict[str, float] = {}
    cached = []
    for name, path in base_paths.items():
        raw = spark.read.parquet(path)
        # Real scan cost only — base tables are exempt from the emulated
        # NFS (they are not what S/C short-circuits; DESIGN.md §4.1).
        base_scan_s[name] = _noop_scan(raw)
        df = raw.persist()
        df.count()
        df.createOrReplaceTempView(name)
        cached.append(df)
    stats: dict[str, NodeStats] = {}
    mv_cached: dict[str, object] = {}
    try:
        for nd in wl.nodes:  # declaration order is topological
            path = os.path.join(tmpdir, nd.name)
            # time(create v_i on disk): straight write, no caching. Must
            # run BEFORE the persist below — Spark's CacheManager
            # matches identical plans, so a later plain spark.sql(sql)
            # would silently read the node's own cache.
            t0 = time.perf_counter()
            spark.sql(nd.sql).write.mode("overwrite").parquet(path)
            create_disk_s = time.perf_counter() - t0
            out_bytes = _dir_bytes(path)
            transfer_s = storage.write_delay(out_bytes) if storage else 0.0
            # time(create v_i in memory): produce + cache (paper §IV).
            t0 = time.perf_counter()
            df = spark.sql(nd.sql).persist()
            df.count()
            create_mem_s = time.perf_counter() - t0
            # Critical-path materialization cost when flagged: encode
            # from the cache (the storage transfer overlaps downstream).
            t0 = time.perf_counter()
            df.write.mode("overwrite").parquet(path)
            wfc_s = time.perf_counter() - t0
            read_s = _noop_scan(spark.read.parquet(path))
            mem_read_s = _noop_scan(df)
            if storage:
                read_s += storage.read_delay(out_bytes)
            df.createOrReplaceTempView(nd.name)
            mv_cached[nd.name] = df
            stats[nd.name] = NodeStats(
                out_bytes=float(out_bytes),
                compute_s=create_mem_s,
                # signed sync cost of NOT flagging (see NodeStats)
                write_s=create_disk_s + transfer_s - create_mem_s,
                read_s=read_s,
                mem_read_s=min(mem_read_s, read_s),
                flag_write_s=wfc_s,
                async_write_s=transfer_s,
            )
    finally:
        # blocking: async block removal otherwise storms the next runs
        # (first post-profiling executions measured 2-4x slower)
        for df in list(mv_cached.values()) + cached:
            df.unpersist(blocking=True)
    n_children = {
        n: sum(1 for nd in wl.nodes for p in nd.parents if p == n)
        for n in wl.node_names
    }
    return WorkloadProfile(stats, base_scan_s, n_children)


def build_depgraph(wl: WorkloadSpec, profile: WorkloadProfile) -> DepGraph:
    """Optimizer input from observed metadata (paper §IV inputs 2 and 3)."""
    sizes = {n: profile.stats[n].out_bytes for n in wl.node_names}
    scores = {
        n: speedup_score(profile.stats[n], profile.n_children[n])
        for n in wl.node_names
    }
    return wl.to_depgraph(sizes, scores)

