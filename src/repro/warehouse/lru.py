"""LRU result-cache baseline (paper §VI-A, "the LRU cache in the DBMS").

Models the off-the-shelf alternative S/C is compared against: the
engine's query-result cache, grown by the same amount of memory S/C
gets as Memory Catalog. Execution is a plain topological order with
*synchronous* writes (no reordering, no overlapped materialization).
After each node's write, its result, read back from its own Parquet
(one decode), is cached if it fits in capacity M, evicting
least-recently-used entries first. A child whose parent is still cached
reads it from memory; otherwise it re-reads storage (paying the
emulated-NFS delay when a storage model is given).

The refresh runs in the Controller's one loop (`warehouse.executor`),
so it follows the same rules: the Memory Catalog is the byte ledger,
each MV's temp view is bound once, to the cached result, and eviction
is ``unpersist`` alone, after which the view reads the Parquet.
"""
from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from pyspark.sql import SparkSession

from repro.warehouse.catalog import MemoryCatalog
from repro.warehouse.executor import (
    ResidencyPolicy,
    RunReport,
    _refresh,
    no_opt_plan,
)
from repro.warehouse.storage import StorageModel
from repro.workloads.spec import WorkloadSpec


class LRUPolicy(ResidencyPolicy):
    """Cache every output that fits, evicting least-recently-used ones."""

    def __init__(self) -> None:
        self.recency: OrderedDict[str, None] = OrderedDict()

    def touch(self, name: str) -> None:
        self.recency.move_to_end(name)

    def admit(
        self,
        name: str,
        nbytes: float,
        catalog: MemoryCatalog,
        evict: Callable[[str], None],
    ) -> bool:
        if nbytes > catalog.budget:
            return False
        while self.recency and catalog.used + nbytes > catalog.budget:
            evict(self.recency.popitem(last=False)[0])
        self.recency[name] = None
        return True


def run_workload_lru(
    spark: SparkSession,
    wl: WorkloadSpec,
    sizes: dict[str, float],
    capacity: float,
    out_dir: str,
    base_paths: dict[str, str],
    *,
    storage: StorageModel | None = None,
) -> RunReport:
    """Refresh all MVs with an LRU result cache of ``capacity`` bytes."""
    return _refresh(
        spark, wl, no_opt_plan(wl), sizes, capacity, out_dir, base_paths,
        storage, LRUPolicy(),
    )
