"""Path polynomials and the walk generating function of a digraph.

xi(D) lists the path polynomials xi_0..xi_n: xi_k is the sum of
x_{i_0} ... x_{i_{k-1}} over directed paths on k distinct vertices, all
read off ringmat.path_counts, the table ham_dp reads.  gamma counts walks
with repetition allowed, evaluated at a point.  The generating function
of the gamma sequence is the rational function

    W_D(z) = det(I + z X Abar) / det(I - z X A)

evaluated here as a truncated integer power series at integer points.
The z^k coefficient of det(I + z M) is the sum of the k x k principal
minors of M, so both determinants are read off
ringmat.principal_determinants, the kernel the Hamiltonian formulas use.
verify_walk_identity checks that statement, the reciprocity
W_Dbar(z) * W_D(-z) = 1, and (for acyclic D) that the denominator is 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .digraph import Digraph, complement, is_acyclic
from .guards import guard
from .hamilton import DP_BOUND
from .ringmat import MultilinearPoly, path_counts, principal_determinants


def xi(D: Digraph) -> list:
    """The path polynomials [xi_0, ..., xi_n] of D, from one path_counts
    table: xi_k sums x_S over the directed paths on k vertices, S their
    vertex set, so xi_0 = 1.  Shares ham_dp's size bound."""
    guard("xi", D.n, DP_BOUND)
    out: list = [{} for _ in range(D.n + 1)]
    for mask, c in enumerate(path_counts(D.adjacency())):
        if c:
            out[mask.bit_count()][mask] = c
    return [MultilinearPoly(D.n, terms) for terms in out]


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


def _det_series(A, pt: list, K: int, sign: int) -> list:
    """det(I + sign z X A) mod z^(K+1) at the point.

    The z^k coefficient is sign^k times the sum of the k x k principal
    minors of X A, all of which principal_determinants gives at once.
    """
    XA = [[x * a for a in row] for x, row in zip(pt, A)]
    out = [0] * (K + 1)
    for S, d in enumerate(principal_determinants(XA)):
        k = S.bit_count()
        if d and k <= K:
            out[k] += sign**k * d
    return out


def walk_series(D: Digraph, point, K: int) -> list:
    """Coefficients gamma_0..gamma_K of W_D(z) at the point, via the
    determinant ratio."""
    pt = list(point)
    num = _det_series(complement(D).adjacency(), pt, K, 1)
    return _zmul(num, _zinv(denominator_series(D, pt, K), K), K)


def denominator_series(D: Digraph, point, K: int) -> list:
    """det(I - zXA) as a truncated series at the point."""
    return _det_series(D.adjacency(), list(point), K, -1)


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
