"""Emulated NFS storage model (DESIGN.md §4.1/§4.4).

The paper's warehouse materializes MVs to NFS with measured 519.8 MB/s
read / 358.9 MB/s write — at 10 GB–1 TB, intermediate I/O is 37–69 % of
statement runtime (paper Fig. 3). In this container, Parquet on local
disk sits in the OS page cache, so I/O is nearly free and the
short-circuit mechanism has nothing to save; real runs would show no
signal regardless of scale factor.

We therefore emulate the remote-storage cost explicitly: every transfer
to/from "NFS" pays an additional ``bytes / bandwidth`` delay on top of
the real Parquet encode/decode. The delay is applied *identically* in

* the metadata profiler (so the Optimizer plans against it),
* the S/C Controller (sync writes and reads on the critical path;
  background writes sleep in the writer thread — occupying the storage
  channel without consuming CPU, exactly the overlap the paper
  exploits),
* every baseline (no-opt, Greedy/Random/Ratio, LRU),

so no method gets an un-modeled advantage. ``EMULATED_NFS`` is slower
than the paper's array because our compute-per-byte is far higher at
SF=0.1 (Spark fixed overheads); it is chosen so the workloads' I/O
ratios land in the paper's Table III range. ``storage=None`` everywhere
means raw local disk (used by the unit tests).
"""
from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass(frozen=True)
class StorageModel:
    """Bandwidth model of the materialization store, in bytes/second."""

    read_bw: float
    write_bw: float

    def read_delay(self, nbytes: float) -> float:
        return nbytes / self.read_bw

    def write_delay(self, nbytes: float) -> float:
        return nbytes / self.write_bw

    def pay_read(self, nbytes: float) -> None:
        time.sleep(self.read_delay(nbytes))

    def pay_write(self, nbytes: float) -> None:
        time.sleep(self.write_delay(nbytes))


# Calibrated figure used by all benchmarks and jobs. The absolute
# bandwidth is NOT the paper's array speed: the paper counts
# serialization/compression as read/write cost (§II-C) and its
# compute-per-byte at 100 GB is ~10x lower than Spark's at SF=0.1
# (fixed overheads), so the emulated bandwidth is chosen to put the
# I/O-heavy workloads' I/O share at the paper's Table III operating
# point (~50 %) on *this* substrate. See EXPERIMENTS.md §Calibration.
EMULATED_NFS = StorageModel(read_bw=0.8e6, write_bw=0.6e6)
