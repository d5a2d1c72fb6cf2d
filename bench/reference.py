"""Fixed reference work that measures the machine's speed between ops.

On a shared machine the same work can take 50% longer for seconds at a
time, with CPU time tracking wall time, so raw op times of one seed
differ from run to run by more than any useful bound.  After every op the
benchmark runs reference chunks for a share of the op's time, and scales
the op's time by how long the chunks took against their time on an idle
core (``KERNELS``), so that every reported time is at that idle speed.

A busy neighbour slows different code by different amounts: dict and
Fraction work slows far more than a tight loop over a small list.  Each
workload therefore uses the chunk that resembles its own hot code.  The
chunks are the benchmark's own code, so a change to the package cannot
change them.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

SHARE = 0.15  # reference work run after each op, as a share of its time
WINDOW_S = 0.25  # least reference work that sets the speed around an op


def _dicts(rounds: int) -> int:
    table: dict = {}
    acc = 0
    for i in range(rounds):
        key = (i * 7919 % 1013, i & 7)
        table[key] = table.get(key, 0) + i
        acc += key[0] * key[0] % 13
    return acc + len(table)


def _subsets(n: int) -> int:
    """Subset convolution shaped like ringmat.principal_permanents."""
    weights = [(m * 2654435761) % 5 for m in range(1 << n)]
    sums = [1] + [0] * ((1 << n) - 1)
    for S in range(1, 1 << n):
        low = S & -S
        rest = S ^ low
        T, total = rest, 0
        while True:
            m = T | low
            w = weights[m]
            if w:
                total += w * sums[S ^ m]
            if T == 0:
                break
            T = (T - 1) & rest
        sums[S] = total
    return sums[-1] % 97


def _fractions(rounds: int) -> int:
    frac = Fraction(0)
    for i in range(1, rounds):
        frac += Fraction(i % 7 - 3, i)
    return frac.denominator


def dict_chunk() -> int:
    """Dict and tuple updates, like permutation walks and basis conversion."""
    return _dicts(1500)


def subset_chunk() -> int:
    """Subset convolutions over bitmasks, like the principal-minor tables."""
    return _subsets(8)


def mixed_chunk() -> int:
    """All three styles, like the identity suite."""
    return _dicts(800) + _subsets(7) + _fractions(90)


# Chunk and its time on an idle core of the machine the bounds in
# BENCHMARK.json were set on (2-core x86-64, Python 3.11).
KERNELS = {
    "dicts": (dict_chunk, 0.00035),
    "subsets": (subset_chunk, 0.00031),
    "mixed": (mixed_chunk, 0.00047),
}


def reference_times(kernel: str, budget: float) -> list:
    """Run chunks of kernel for about budget seconds (at least one); their times."""
    chunk = KERNELS[kernel][0]
    times: list = []
    spent = 0.0
    while spent < budget or not times:
        t0 = perf_counter()
        chunk()
        times.append(perf_counter() - t0)
        spent += times[-1]
    return times


def scale_to_reference(kernel: str, times: list, marks: list, chunks: list) -> list:
    """Each op time at the speed where a chunk of kernel takes its idle time.

    Op i is scaled by the chunks run after it, chunks[marks[i]:marks[i + 1]],
    widened to its neighbours until they add up to WINDOW_S.
    """
    idle = KERNELS[kernel][1]
    prefix = [0.0]
    for t in chunks:
        prefix.append(prefix[-1] + t)
    scaled = []
    for i, t in enumerate(times):
        lo, hi = i, i + 1
        while prefix[marks[hi]] - prefix[marks[lo]] < WINDOW_S and (lo > 0 or hi < len(times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(times))
        mean = (prefix[marks[hi]] - prefix[marks[lo]]) / (marks[hi] - marks[lo])
        scaled.append(t * idle / mean)
    return scaled
