"""Speedup-score estimation from execution metadata (paper §IV).

The paper defines the speedup score of flagging node v_i as

    t_i =   Σ_{children v_j} [read(v_j | v_i on disk) − read(v_j | v_i in mem)]
          + [time(create v_i on disk) − time(create v_i in memory)]

i.e. every child saves the disk-read of v_i's output, and v_i itself
saves its synchronous write (the materialization overlaps downstream
compute, §III-C). We estimate both terms from observed metadata: output
bytes on disk and per-node read/write times measured by a profiling run
(`warehouse.metadata`).
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class NodeStats:
    """Observed execution metadata for one MV update node.

    ``out_bytes``    — size of the node's output on disk (proxy for its
                       Memory Catalog footprint, paper §IV input 2);
    ``compute_s``    — time(create v_i in memory): produce + cache the
                       output with all inputs memory-resident;
    ``write_s``      — time(create v_i on disk) − time(create v_i in
                       memory). SIGNED: negative when building the
                       in-memory copy costs more than writing straight
                       to disk (small outputs on an engine with cheap
                       local writes) — then flagging for the write term
                       alone is a loss, exactly as the paper's formula
                       implies;
    ``read_s``       — time for a downstream node to read the output
                       from disk;
    ``mem_read_s``   — time to read the output from the Memory Catalog
                       (≈0; kept explicit so tests can model overheads);
    ``overlap_penalty_s`` — residual cost of the asynchronous write that
                       cannot be hidden (I/O interference; ≥0).
    """

    out_bytes: float
    compute_s: float
    write_s: float
    read_s: float
    mem_read_s: float = 0.0
    overlap_penalty_s: float = 0.0
    # Critical-path cost a *flagged* node still pays to materialize
    # (write-from-cache encode; the storage transfer itself runs in the
    # background). 0 in the idealized paper model.
    flag_write_s: float = 0.0
    # Background storage-channel occupancy of a flagged node's
    # materialization (the overlapped part of the write).
    async_write_s: float = 0.0


def speedup_score(stats: NodeStats, n_children: int) -> float:
    """Paper §IV speedup score from observed metadata, clamped at 0.

    The write term is ``time(create on disk) − time(create in
    memory)`` = ``write_s − flag_write_s`` in our stats; the clamp
    applies to the SUM, so a node whose cache/encode penalty outweighs
    its children's read savings scores 0, which
    `core.constraints.excluded_nodes` then bars from flagging.
    """
    read_saving = n_children * max(stats.read_s - stats.mem_read_s, 0.0)
    write_saving = stats.write_s - stats.flag_write_s - stats.overlap_penalty_s
    return max(0.0, read_saving + write_saving)

