"""A fixed pure-Python kernel that gauges how fast the machine is right now.

On a shared host the same plan takes anywhere from 1x to 1.5x its
fastest time, depending on what the other tenants run, and the slow
phases last from a fraction of a second to minutes. Timing this kernel
next to each plan and dividing by it removes most of that: the kernel
and the planner are both interpreted Python over ints, floats, dicts,
lists and ``heapq``, and slow down together.

The kernel does not use ``mswplan``, so a change to the planner never
changes it. Changing the kernel or ``REF_S`` changes every normalised
metric, so compare commits only with the same copy of this file.
"""

from __future__ import annotations

import gc
import heapq
import time

#: The kernel's fastest time, in seconds, on a 2-vCPU Intel Xeon VM at
#: 2.1 GHz under CPython 3.11. Normalised metrics are seconds on that
#: machine when nothing else on its host competes for the CPU.
REF_S = 0.0085

_GRID = 40


def _grid_graph(n: int) -> dict[int, list[tuple[int, float]]]:
    adj: dict[int, list[tuple[int, float]]] = {}
    for y in range(n):
        for x in range(n):
            u = y * n + x
            adj[u] = [((y + dy) * n + x + dx, 100.0 + (u * 31 + (y + dy) * n + x + dx) % 17)
                      for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
                      if 0 <= x + dx < n and 0 <= y + dy < n]
    return adj


_ADJ = _grid_graph(_GRID)


def kernel() -> float:
    """Integer arithmetic, then shortest paths from two grid nodes."""
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    total = float(acc)
    for src in (0, _GRID * _GRID // 2 - 3):
        dist = {src: 0.0}
        heap = [(0.0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in _ADJ[u]:
                nd = d + w
                if nd < dist.get(v, 1e300):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        total += sum(dist.values())
    return total


def seconds() -> float:
    """Wall seconds of one kernel run."""
    gc.collect()
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
