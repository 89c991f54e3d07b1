"""A fixed pure-Python reference kernel that tracks the machine's speed.

On a shared virtual machine the same code runs up to 1.5 times slower or
faster from one minute to the next, for every process alike.  Timing this
kernel next to the operations measures that drift, and dividing by it turns
wall times into wall times at one reference speed.  The kernel uses the same
kinds of work as the package (integer arithmetic, list appends, set and
dictionary lookups, breadth-first search) and shares no code with it, so a
change to the package moves corrected times exactly as it moves wall times.
"""

from __future__ import annotations

import statistics
import time

# The kernel's wall time at the reference speed.  Corrected times are wall
# times scaled by REFERENCE_S over the kernel's measured time, so they read
# as seconds on a machine where the kernel takes exactly this long.
REFERENCE_S = 0.005

_MASK = (1 << 64) - 1


def kernel() -> int:
    """Fixed work: a pseudo-random graph of 300 nodes and 30 breadth-first searches."""
    state = 12345
    n = 300
    adj: list[list[int]] = [[] for _ in range(n)]
    for _ in range(1500):
        state = (state * 6364136223846793005 + 1442695040888963407) & _MASK
        a, b = (state >> 33) % n, (state >> 17) % n
        adj[a].append(b)
        adj[b].append(a)
    reached = 0
    for s in range(0, n, 10):
        seen = {s}
        queue = [s]
        for u in queue:
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        reached += len(queue)
    return reached


def kernel_seconds(repeats: int = 3) -> float:
    """Median wall time of ``repeats`` kernel runs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
