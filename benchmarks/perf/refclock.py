"""A reference clock that divides machine-speed drift out of host time.

On a shared machine the same job's wall time drifts by tens of percent
over minutes as neighbours come and go.  Host and setup times are
therefore reported in *reference seconds*: wall seconds scaled by how
fast a fixed pure-Python loop ran during the same run,

    ref_s = wall_s * NOMINAL_CHUNK_S / measured_chunk_s

The loop never touches the program, so a slower program still reads
slower; only a slower machine is divided out.  It exercises what the
simulator's hot paths do -- a heap of small objects, dict updates,
generator resumes, attribute access -- on a small working set.
"""

from __future__ import annotations

import heapq
import time

#: Mean duration of one :func:`_chunk` on an idle 2-vCPU x86-64 VM
#: (Python 3.11); it only fixes the unit, so that reference seconds read
#: close to wall seconds on that machine.
NOMINAL_CHUNK_S = 0.0113
CHUNKS = 5


class _Item:
    __slots__ = ("t", "seq", "owner")

    def __init__(self, t: int, seq: int, owner):
        self.t = t
        self.seq = seq
        self.owner = owner

    def __lt__(self, other: "_Item") -> bool:
        return self.t < other.t or (self.t == other.t and self.seq < other.seq)


def _proc(state: dict):
    total = 0
    while True:
        step = yield total
        total += step
        state[step & 4095] = total


def _chunk(table: list[dict]) -> int:
    heap: list[_Item] = []
    gens = [_proc(table[i & 7]) for i in range(32)]
    for g in gens:
        next(g)
    seq = 0
    for i in range(6000):
        g = gens[i & 31]
        v = g.send(i)
        key = (v * 1103515245 + i) & 0xFFFFF
        heapq.heappush(heap, _Item(key, seq, g))
        seq += 1
        if len(heap) > 512:
            seq += heapq.heappop(heap).t & 1
    return seq


def chunk_seconds(chunks: int = CHUNKS) -> float:
    """Mean wall seconds of one reference chunk, over ``chunks`` runs."""
    table = [dict() for _ in range(8)]
    t0 = time.perf_counter()
    for _ in range(chunks):
        _chunk(table)
    return (time.perf_counter() - t0) / chunks


def to_reference(wall_s: float, measured_chunk_s: float) -> float:
    """Wall seconds at the reference machine speed."""
    return wall_s * NOMINAL_CHUNK_S / measured_chunk_s
