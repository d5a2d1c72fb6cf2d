"""Path polynomials and the walk generating function of a digraph.

xi(D, k) is the sum of x_{i_0} ... x_{i_{k-1}} over directed paths on k
distinct vertices (k = 0 gives 1, k > n gives 0).  gamma counts walks
with repetition allowed, evaluated at a point.  The generating function
of the gamma sequence is the rational function

    W_D(z) = det(I + z X Abar) / det(I - z X A)

evaluated here as a truncated integer power series at integer points;
verify_walk_identity checks that statement, the reciprocity
W_Dbar(z) * W_D(-z) = 1, and (for acyclic D) that the denominator is 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .digraph import Digraph, complement, is_acyclic
from .guards import guard
from .ringmat import MultilinearPoly


@dataclass(frozen=True)
class PathPolynomial:
    """xi_k: multilinear polynomial summing monomials of k-vertex paths."""

    k: int
    value: MultilinearPoly


def xi(D: Digraph, k: int) -> PathPolynomial:
    """Sum over directed paths on exactly k distinct vertices.

    xi(D, 0) is the constant 1; negative k and k > n give 0.
    """
    n = D.n
    if k < 0 or k > n:
        return PathPolynomial(k, MultilinearPoly.zero(n))
    if k == 0:
        return PathPolynomial(0, MultilinearPoly.const(n, 1))
    # ends[mask][last]: number of paths with vertex set mask ending at last
    ends: list = [None] * (1 << n)
    adj = {v: D.out_neighbors(v) for v in D.vertices()}
    for v in D.vertices():
        ends[1 << (v - 1)] = {v: 1}
    order = sorted(range(1, 1 << n), key=int.bit_count)
    counts: dict = {}
    for mask in order:
        em = ends[mask]
        if not em:
            continue
        size = mask.bit_count()
        if size == k:
            counts[mask] = counts.get(mask, 0) + sum(em.values())
            continue
        if size > k:
            continue
        for last, cnt in em.items():
            for w in adj[last]:
                bit = 1 << (w - 1)
                if mask & bit:
                    continue
                d = ends[mask | bit]
                if d is None:
                    d = ends[mask | bit] = {}
                d[w] = d.get(w, 0) + cnt
    return PathPolynomial(k, MultilinearPoly(n, counts))


def gamma(D: Digraph, k: int, point) -> int:
    """Weighted walk count with k steps: 1^T (XA)^k X 1 at the given point.

    Walks on k+1 vertices, repetition allowed; k = 0 gives the sum of
    the point's coordinates.
    """
    guard("gamma", k, 12)
    if k < 0:
        raise ValueError("k must be nonnegative")
    pt = list(point)
    if len(pt) != D.n:
        raise ValueError("point must have one coordinate per vertex")
    return _walk_counts(D.adjacency(), pt, k + 1)[k]


def _walk_counts(A, pt: list, count: int) -> list:
    """[gamma_0, ..., gamma_(count-1)] at the point pt, with no size guard."""
    n = len(A)
    vec = pt[:]  # X 1
    counts = []
    for step in range(count):
        if step:
            out = [0] * n
            for i in range(n):
                xi_ = pt[i]
                if not xi_:
                    continue
                row = A[i]
                s = 0
                for j in range(n):
                    if row[j]:
                        s += vec[j]
                out[i] = xi_ * s
            vec = out
        counts.append(sum(vec))
    return counts


# ----------------------------------------------------- truncated z-series

def _zmul(a: list, b: list, K: int) -> list:
    out = [0] * (K + 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        top = min(K - i, len(b) - 1)
        for j in range(top + 1):
            if b[j]:
                out[i + j] += ai * b[j]
    return out


def _zinv(a: list, K: int) -> list:
    """Series inverse mod z^(K+1); requires a[0] = 1 or -1."""
    c0 = a[0]
    if c0 not in (1, -1):
        raise ZeroDivisionError("constant term must be a unit integer")
    out = [0] * (K + 1)
    out[0] = c0
    for m in range(1, K + 1):
        s = 0
        for i in range(1, min(m, len(a) - 1) + 1):
            if a[i]:
                s += a[i] * out[m - i]
        out[m] = -c0 * s
    return out


def _zdet(M: list, K: int) -> list:
    """Determinant of a matrix of truncated z-series, by column minors."""
    n = len(M)
    guard("det_ring", n, 8)
    if n == 0:
        return [1] + [0] * K
    minors = {0: [1] + [0] * K}
    for r in range(n):
        nxt: dict = {}
        rpar = r & 1
        for cols, val in minors.items():
            below = 0
            for j in range(n):
                bit = 1 << j
                if cols & bit:
                    below ^= 1
                    continue
                entry = M[r][j]
                if not any(entry):
                    continue
                term = _zmul(val, entry, K)
                if rpar ^ below:
                    term = [-t for t in term]
                key = cols | bit
                if key in nxt:
                    nxt[key] = [x + y for x, y in zip(nxt[key], term)]
                else:
                    nxt[key] = term
        minors = nxt
    return minors.get((1 << n) - 1, [0] * (K + 1))


def walk_series(D: Digraph, point, K: int) -> list:
    """Coefficients gamma_0..gamma_K of W_D(z) at the point, via the
    determinant ratio."""
    A = D.adjacency()
    Abar = complement(D).adjacency()
    pt = list(point)
    num = _matrix_i_plus_zxa(Abar, pt, K)
    den = _matrix_i_plus_zxa(A, pt, K, sign=-1)
    det_num = _zdet(num, K)
    det_den = _zdet(den, K)
    return _zmul(det_num, _zinv(det_den, K), K)


def _matrix_i_plus_zxa(A, pt, K: int, sign: int = 1) -> list:
    n = len(A)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = [0] * (K + 1)
            if i == j:
                entry[0] = 1
            if A[i][j] and K >= 1:
                entry[1] += sign * pt[i] * A[i][j]
            row.append(entry)
        out.append(row)
    return out


def denominator_series(D: Digraph, point, K: int) -> list:
    """det(I - zXA) as a truncated series at the point."""
    return _zdet(_matrix_i_plus_zxa(D.adjacency(), list(point), K, sign=-1), K)


# ------------------------------------------------------------- verification

@dataclass
class WalkIdentityReport:
    n: int
    K: int
    trials: int
    seed: object
    acyclic: bool
    ok: bool = True
    failures: list = field(default_factory=list)

    def record(self, message: str) -> None:
        self.ok = False
        self.failures.append(message)


def verify_walk_identity(
    D: Digraph, K: int | None = None, trials: int = 10, seed=0
) -> WalkIdentityReport:
    """Check the determinant formula for the walk series at random points.

    At each integer point: the series ratio matches the gamma sequence up
    to order K (default 2n+1), the complement's series is the reciprocal
    of W_D(-z), and for acyclic D the denominator det(I - zXA) is exactly 1.
    """
    n = D.n
    if K is None:
        K = 2 * n + 1
    guard("walk_identity", n, 8)
    guard("walk_identity_order", K, max(12, 2 * n + 1))
    rng = random.Random(seed)
    acyc = is_acyclic(D)
    report = WalkIdentityReport(n=n, K=K, trials=trials, seed=seed, acyclic=acyc)
    Dbar = complement(D)
    A = D.adjacency()
    for t in range(trials):
        pt = [rng.randint(-3, 3) for _ in range(n)]
        series = walk_series(D, pt, K)
        # gamma_0 = 1 (empty walk); gamma_k for k >= 1 counts k-vertex walks
        gammas = [1] + _walk_counts(A, pt, K)
        if series != gammas:
            report.record(
                f"trial {t}: series {series} != walk counts {gammas} at {pt}"
            )
        series_bar = walk_series(Dbar, pt, K)
        flipped = [c if k % 2 == 0 else -c for k, c in enumerate(series)]
        prod = _zmul(series_bar, flipped, K)
        if prod != [1] + [0] * K:
            report.record(f"trial {t}: reciprocity fails at {pt}: {prod}")
        if acyc:
            den = denominator_series(D, pt, K)
            if den != [1] + [0] * K:
                report.record(f"trial {t}: acyclic denominator {den} at {pt}")
    return report
