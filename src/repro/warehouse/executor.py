"""S/C Controller: performs an MV refresh run on Spark (paper §III).

``run_workload`` executes the workload's nodes one by one in the plan's
order, directing where each output lives (paper Fig. 6):

* **flagged** node → created directly in the Memory Catalog and
  registered under its MV name so downstream SQL reads it from memory:
  it is ``persist()``-ed before its local Parquet encode, so the write
  itself computes it and fills the cache, with no separate ``count()``
  (the encode is CPU work, kept on the critical path — it cannot be
  hidden on shared cores); the *storage transfer* to "NFS" runs on a
  single-worker background thread, overlapping downstream compute
  exactly like the paper's disk channel;
* **unflagged** node → encoded and transferred synchronously;
  downstream reads re-scan Parquet and pay the transfer delay. The
  read-back carries the node's known schema, so no Spark job infers it
  from the files.

A flagged node is released (unpersisted, catalog slot freed) once its
last child has run and its background transfer is done, so every MV is
fully persisted by the end of the run (the paper's SLA guarantee).

Each MV's temp view is bound exactly once per refresh, before any
reader, and never rebound: a flagged node's view points at its cached
DataFrame, every other node's at its written Parquet. Releasing is
``unpersist`` alone. Replacing a temp view in Spark uncaches, with
cascade, every cached plan built on the old view, which would silently
drop still-resident flagged children out of the cache.

The same loop runs the baselines through a ``ResidencyPolicy``: no-opt
is the S/C policy with nothing flagged, and the LRU result cache
(`warehouse.lru`) keeps written outputs cached, with the Memory Catalog
as its byte ledger too. On every exit path the refresh unpersists what
it cached and shuts its writer down.

``storage`` is the optional emulated-NFS model (`warehouse.storage`):
reads of disk-resident tables and all writes additionally pay
``bytes/bandwidth``; background writes pay it in the writer thread, so
the delay overlaps downstream compute exactly as the paper's
materialization does. ``storage=None`` runs against raw local disk.
"""
from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Callable

from pyspark.sql import DataFrame, SparkSession
from pyspark.storagelevel import StorageLevel

from repro.core.graph import Plan
from repro.warehouse.catalog import MemoryCatalog
from repro.warehouse.storage import StorageModel
from repro.workloads.spec import WorkloadSpec

# Target bytes per output partition: small MVs collapse to one file so
# the fixed per-task/commit overhead does not swamp byte costs.
_PARTITION_BYTES = 4 << 20


def n_output_partitions(est_bytes: float) -> int:
    """Partition count for writing an MV of ``est_bytes`` (clamped 1–16)."""
    return max(1, min(16, int(est_bytes // _PARTITION_BYTES) + 1))


@dataclass
class NodeTiming:
    name: str
    flagged: bool
    exec_s: float  # storage reads, SQL, encode, sync transfer, cache fill
    mem_parents: int  # parents read from the Memory Catalog
    disk_parents: int  # parents re-read from storage


@dataclass
class RunReport:
    workload: str
    plan_order: tuple[str, ...]
    flagged: frozenset[str]
    total_s: float
    nodes: list[NodeTiming] = field(default_factory=list)
    peak_catalog_bytes: float = 0.0
    async_write_wait_s: float = 0.0  # tail wait for background writes


class ResidencyPolicy:
    """Which *unflagged* outputs stay cached after their synchronous
    write. This default keeps none: S/C and no-opt cache only flagged
    outputs."""

    def touch(self, name: str) -> None:
        """A child read the cached output ``name``."""

    def admit(
        self,
        name: str,
        nbytes: float,
        catalog: MemoryCatalog,
        evict: Callable[[str], None],
    ) -> bool:
        """Whether the just-written output ``name`` of ``nbytes`` stays
        cached; may ``evict`` resident outputs first to make room."""
        return False


def register_base_tables(spark: SparkSession, paths: dict[str, str]) -> None:
    """Expose base tables to SQL as views over their Parquet files (the
    Hive-catalog analogue). Each registration infers the schema from the
    files, since a base table may change schema at the same path."""
    for name, path in paths.items():
        spark.read.parquet(path).createOrReplaceTempView(name)


def no_opt_plan(wl: WorkloadSpec) -> Plan:
    """The unoptimized baseline: plain topological order, nothing flagged
    (paper's "raw engine")."""
    idx = {n: i for i, n in enumerate(wl.node_names)}
    order = []
    seen: set[str] = set()
    for nd in wl.nodes:  # declaration order is topological
        assert all(p in seen for p in nd.parents)
        seen.add(nd.name)
        order.append(idx[nd.name])
    return Plan(tuple(order), frozenset())


def run_workload(
    spark: SparkSession,
    wl: WorkloadSpec,
    plan: Plan,
    sizes: dict[str, float],
    budget: float,
    out_dir: str,
    base_paths: dict[str, str],
    *,
    storage: StorageModel | None = None,
) -> RunReport:
    """Perform one MV refresh run under ``plan``; returns timing report.

    ``sizes`` are the Optimizer's estimated output sizes (bytes) used
    for Memory Catalog accounting, write partitioning, and storage
    delays; ``budget`` is the catalog bound M. All MVs end up
    materialized under ``out_dir/<name>``.
    """
    return _refresh(
        spark, wl, plan, sizes, budget, out_dir, base_paths, storage,
        ResidencyPolicy(),
    )


def _refresh(
    spark: SparkSession,
    wl: WorkloadSpec,
    plan: Plan,
    sizes: dict[str, float],
    budget: float,
    out_dir: str,
    base_paths: dict[str, str],
    storage: StorageModel | None,
    policy: ResidencyPolicy,
) -> RunReport:
    """The one refresh loop behind `run_workload` and
    `warehouse.lru.run_workload_lru`."""
    os.makedirs(out_dir, exist_ok=True)
    register_base_tables(spark, base_paths)
    names = wl.node_names
    flagged_names = frozenset(names[i] for i in plan.flagged)
    catalog = MemoryCatalog(budget)
    pending_children = {
        n: sum(1 for nd in wl.nodes for p in nd.parents if p == n)
        for n in names
    }
    cached: dict[str, DataFrame] = {}  # in the catalog, persisted by us
    transfers: dict[str, Future] = {}  # flagged, not yet released
    report = RunReport(
        workload=wl.name,
        plan_order=tuple(names[i] for i in plan.order),
        flagged=flagged_names,
        total_s=0.0,
    )

    def transfer(name: str) -> None:
        """Emulated NFS transfer of the encoded output — pure channel
        time, no CPU. For flagged nodes it runs on the single-worker
        background pool (the paper's disk channel), overlapping
        downstream compute exactly as the simulator accounts it."""
        if storage:
            storage.pay_write(sizes[name])

    def cache(name: str, df: DataFrame) -> DataFrame:
        cached[name] = df.persist(StorageLevel.MEMORY_AND_DISK)
        return cached[name]

    def release(name: str) -> None:
        cached.pop(name).unpersist()
        catalog.release(name)

    # A flagged node whose children all ran is *releasable* once its
    # background transfer completes. The pipeline never blocks on that:
    # release is lazy, and only a catalog reservation that actually
    # needs the space waits for it.
    def releasable() -> list[Future]:
        return [f for n, f in transfers.items() if pending_children[n] == 0]

    def release_finished() -> None:
        for name in [n for n, f in transfers.items()
                     if pending_children[n] == 0 and f.done()]:
            transfers.pop(name).result()  # surface background-write errors
            release(name)

    def reserve(name: str, nbytes: float) -> None:
        """Claim catalog space, waiting out pending releases if the
        budget is momentarily exhausted; raises only when no pending
        release could ever free enough (an infeasible plan)."""
        release_finished()
        while catalog.used + nbytes > catalog.budget + 1e-9 and releasable():
            wait(releasable(), return_when=FIRST_COMPLETED)
            release_finished()
        catalog.add(name, nbytes)  # raises CatalogOverflowError if over

    t0 = time.perf_counter()
    pool = ThreadPoolExecutor(max_workers=1)  # one storage channel
    try:
        for i in plan.order:
            nd = wl.nodes[i]
            release_finished()
            te = time.perf_counter()
            mem_p = 0
            for p in nd.parents:
                if p in catalog:
                    policy.touch(p)
                    mem_p += 1
                elif storage:
                    # Base tables stay on fast local storage: S/C's
                    # mechanism concerns intermediate materialization,
                    # and exempting base scans isolates exactly the I/O
                    # it can short-circuit (DESIGN.md §4.1).
                    storage.pay_read(sizes[p])
            df = spark.sql(nd.sql)
            path = os.path.join(out_dir, nd.name)
            nbytes = sizes[nd.name]
            if nd.name in flagged_names:
                reserve(nd.name, nbytes)
                df = cache(nd.name, df)
            # Local Parquet encode, synchronous for every node: CPU work
            # stays on the critical path so overlap never hides compute.
            # A flagged node's write also fills its cache (adaptive
            # execution materializes the cache, then encodes from it).
            df.coalesce(n_output_partitions(nbytes)).write.mode(
                "overwrite"
            ).parquet(path)
            if nd.name in flagged_names:
                transfers[nd.name] = pool.submit(transfer, nd.name)
            else:
                transfer(nd.name)  # synchronous transfer, critical path
                # The schema is known, so no job infers it from the files.
                df = spark.read.schema(df.schema).parquet(path)
                if policy.admit(nd.name, nbytes, catalog, release):
                    catalog.add(nd.name, nbytes)
                    df = cache(nd.name, df)
                    df.count()  # fill on admission, like a result cache
            df.createOrReplaceTempView(nd.name)
            report.nodes.append(
                NodeTiming(
                    nd.name, nd.name in flagged_names,
                    time.perf_counter() - te, mem_p, len(nd.parents) - mem_p,
                )
            )
            for p in nd.parents:
                pending_children[p] -= 1
        tw = time.perf_counter()
        wait(list(transfers.values()))
        release_finished()
        report.async_write_wait_s = time.perf_counter() - tw
    finally:
        pool.shutdown()
        for df in cached.values():
            df.unpersist()
    report.total_s = time.perf_counter() - t0
    report.peak_catalog_bytes = catalog.peak
    return report
