"""Integer partitions, records of words, and symmetric group characters.

Conventions used throughout the package:

- A partition is a tuple of weakly decreasing positive integers; the
  empty tuple is the unique partition of 0.
- A permutation of [n] = {1, ..., n} is a tuple in one-line notation,
  sigma[i-1] is the image of i.
- Partitions of equal weight are listed reverse-lexicographically,
  from (n) down to (1,)*n; across weights, smaller weight first.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .guards import guard

Partition = tuple


# ---------------------------------------------------------------- partitions

def is_partition(lam) -> bool:
    return (
        isinstance(lam, tuple)
        and all(isinstance(p, int) and p > 0 for p in lam)
        and all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))
    )


@lru_cache(maxsize=None)
def _partitions(n: int, max_part: int) -> tuple:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def partitions_of(n: int) -> list:
    """All partitions of n in reverse-lexicographic order, (n) first."""
    guard("partitions_of", n, 25)
    if n < 0:
        raise ValueError("n must be nonnegative")
    return list(_partitions(n, n))


def partition_key(lam: Partition):
    """Sort key: by weight, then reverse-lexicographic within a weight."""
    return (sum(lam), tuple(-p for p in lam))


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= i) for i in range(1, lam[0] + 1))


def multiplicity_factorial(lam: Partition) -> int:
    """Product of r_i! where r_i is the multiplicity of part i in lam."""
    out, run = 1, 1
    for i in range(1, len(lam)):
        run = run + 1 if lam[i] == lam[i - 1] else 1
        out *= run
    return out


def z_lambda(lam: Partition) -> int:
    """Centralizer order: product of i^{r_i} r_i! over part values i."""
    out = 1
    mult: dict[int, int] = {}
    for p in lam:
        mult[p] = mult.get(p, 0) + 1
    for i, r in mult.items():
        out *= i**r * factorial(r)
    return out


def sgn_of_type(lam: Partition) -> int:
    """Sign of any permutation with cycle type lam."""
    return -1 if (sum(lam) - len(lam)) % 2 else 1


def hook_partition(i: int, n: int) -> Partition:
    """The hook (i, 1^{n-i})."""
    if not 1 <= i <= n:
        raise ValueError("hook arm must satisfy 1 <= i <= n")
    return (i,) + (1,) * (n - i)


# -------------------------------------------------------------------- records

def record_positions(word) -> list:
    """Positions r (1-based) with word[r-1] greater than everything before it."""
    out, best = [], 0
    for r, v in enumerate(word, start=1):
        if v > best:
            out.append(r)
            best = v
    return out


def record_partition(word) -> Partition:
    """Gaps between successive record positions (last gap runs to n+1), sorted."""
    recs = record_positions(word)
    recs.append(len(word) + 1)
    gaps = [recs[t + 1] - recs[t] for t in range(len(recs) - 1)]
    return tuple(sorted(gaps, reverse=True))


# ----------------------------------------------------------------- characters

def _beta_numbers(lam: Partition, slots: int) -> tuple:
    return tuple(
        (lam[i] if i < len(lam) else 0) + slots - 1 - i for i in range(slots)
    )


def _strip_removals(lam: Partition, k: int):
    """Yield (partition after removing a border strip of size k, strip height)."""
    m = max(len(lam), 1)
    beta = set(_beta_numbers(lam, m))
    for b in sorted(beta):
        c = b - k
        if c < 0 or c in beta:
            continue
        height = sum(1 for e in beta if c < e < b)
        nb = sorted((beta - {b}) | {c}, reverse=True)
        parts = tuple(nb[i] - (m - 1 - i) for i in range(m))
        yield tuple(p for p in parts if p > 0), height


@lru_cache(maxsize=None)
def character(lam: Partition, mu: Partition) -> int:
    """Irreducible character chi^lam evaluated on the class mu.

    Murnaghan-Nakayama recursion over border strips, using beta numbers.
    """
    if sum(lam) != sum(mu):
        raise ValueError("lam and mu must have equal weight")
    if not mu:
        return 1
    k, rest = mu[0], mu[1:]
    total = 0
    for smaller, height in _strip_removals(lam, k):
        total += (-1) ** height * character(smaller, rest)
    return total
