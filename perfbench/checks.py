"""Output and property checks, written apart from the program.

Nothing here calls the program's own accounting (``DepGraph`` memory
profiles, ``MemoryCatalog``, ``simulate_run``): residency, the LRU cache
and the emulated storage delays are recomputed from the plan, the sizes
and the storage bandwidths, so a fault in the program's bookkeeping
shows as a failed check instead of agreeing with itself.
"""
from __future__ import annotations

import itertools
import os
from collections import OrderedDict


class CheckFailed(AssertionError):
    pass


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# ---- plans ---------------------------------------------------------------
def resident_bytes(n, edges, order, flagged, sizes) -> list[float]:
    """Flagged bytes resident at each step of ``order``: a flagged node
    is resident from its own step through its last child's step, or to
    the end of the run when it has no child."""
    pos = {v: p for p, v in enumerate(order)}
    last = {v: (pos[v] if any(u == v for u, _ in edges) else n - 1)
            for v in range(n)}
    for u, c in edges:
        last[u] = max(last[u], pos[c])
    steps = [0.0] * n
    for v in flagged:
        for p in range(pos[v], last[v] + 1):
            steps[p] += sizes[v]
    return steps


def check_plan(n, edges, order, flagged, sizes, budget, label: str) -> None:
    require(sorted(order) == list(range(n)), f"{label}: order is not a permutation")
    pos = {v: p for p, v in enumerate(order)}
    require(all(pos[u] < pos[c] for u, c in edges),
            f"{label}: order breaks a dependency")
    peak = max(resident_bytes(n, edges, order, flagged, sizes), default=0.0)
    require(peak <= budget * (1 + 1e-9) + 1e-9,
            f"{label}: resident {peak:.0f} B exceeds M = {budget:.0f} B")


def best_score_on_order(n, edges, order, sizes, scores, budget, max_items=16):
    """Highest total score of any node set that stays within ``budget``
    under ``order``, by enumeration over the nodes that can score; None
    when there are more than ``max_items`` of them."""
    items = [i for i in range(n) if scores[i] > 0 and sizes[i] <= budget]
    if len(items) > max_items:
        return None
    best = 0.0
    for r in range(len(items) + 1):
        for subset in itertools.combinations(items, r):
            if max(resident_bytes(n, edges, order, subset, sizes),
                   default=0.0) <= budget * (1 + 1e-9) + 1e-9:
                best = max(best, sum(scores[i] for i in subset))
    return best


# ---- emulated storage delays --------------------------------------------
def sc_delays(wl, order, flagged_names, sizes, storage):
    """Storage delays the S/C Controller (or no-opt, with nothing
    flagged) must pay: ``main`` on the critical path (reads of unflagged
    parents, writes of unflagged nodes), ``background`` on the single
    writer channel (writes of flagged nodes), and the parent reads
    served from memory and from storage."""
    main = background = 0.0
    mem = disk = 0
    for i in order:
        nd = wl.nodes[i]
        for p in nd.parents:
            if p in flagged_names:
                mem += 1
            else:
                disk += 1
                main += storage.read_delay(sizes[p])
        if nd.name in flagged_names:
            background += storage.write_delay(sizes[nd.name])
        else:
            main += storage.write_delay(sizes[nd.name])
    return {"main": main, "background": background, "mem": mem, "disk": disk}


def lru_delays(wl, sizes, capacity, storage):
    """The same for an LRU result cache of ``capacity`` bytes over the
    declaration order with synchronous writes."""
    cache: OrderedDict[str, float] = OrderedDict()
    main = 0.0
    mem = disk = 0
    for nd in wl.nodes:
        for p in nd.parents:
            if p in cache:
                cache.move_to_end(p)
                mem += 1
            else:
                disk += 1
                main += storage.read_delay(sizes[p])
        main += storage.write_delay(sizes[nd.name])
        nbytes = sizes[nd.name]
        if nbytes <= capacity:
            while cache and sum(cache.values()) + nbytes > capacity:
                cache.popitem(last=False)
            cache[nd.name] = nbytes
    return {"main": main, "background": 0.0, "mem": mem, "disk": disk}


# ---- MV outputs ----------------------------------------------------------
def duckdb_chain(wl, base_pdfs: dict) -> dict:
    """Every MV of ``wl`` computed bottom-up in DuckDB."""
    import duckdb

    con = duckdb.connect()
    try:
        for t, pdf in base_pdfs.items():
            con.register(t, pdf)
        out = {}
        for nd in wl.nodes:
            con.execute(f"CREATE TABLE {nd.name} AS {nd.sql}")
            out[nd.name] = con.execute(f"SELECT * FROM {nd.name}").fetchdf()
        return out
    finally:
        con.close()


def read_mv(out_dir: str, name: str):
    import pyarrow.parquet as pq

    return pq.read_table(os.path.join(out_dir, name)).to_pandas()


def canonical(pdf):
    import pandas as pd

    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.columns:
        if pd.api.types.is_float_dtype(pdf[c]):
            pdf[c] = pdf[c].round(6)
        elif pd.api.types.is_datetime64_any_dtype(pdf[c]):
            pdf[c] = pdf[c].astype("datetime64[us]")
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def check_frame(got, want, label: str) -> None:
    import pandas as pd

    require(set(got.columns) == set(want.columns),
            f"{label}: columns {sorted(got.columns)} != {sorted(want.columns)}")
    require(len(got) == len(want), f"{label}: {len(got)} rows != {len(want)}")
    try:
        pd.testing.assert_frame_equal(
            canonical(got), canonical(want), check_dtype=False, rtol=1e-8, atol=2e-6
        )
    except AssertionError as e:
        raise CheckFailed(f"{label}: {e}") from None
