"""Path polynomials and the walk generating function of a digraph.

xi(D) lists the path polynomials xi_0..xi_n: xi_k is the sum of
x_{i_0} ... x_{i_{k-1}} over directed paths on k distinct vertices, all
read off ringmat.path_counts, the table ham_dp reads.  gamma_k counts
the walks on k vertices, repetition allowed, weighted at a point
(_walk_counts).  The generating function of the gamma sequence is the
rational function

    W_D(z) = det(I + z X Abar) / det(I - z X A)

evaluated here as a truncated integer power series at integer points.
The z^k coefficient of det(I + z M) is the sum of the k x k principal
minors of M, so both determinants are read off
ringmat.principal_determinants, the kernel the Hamiltonian formulas use.
verify_walk_identity checks that statement for D and Dbar, the
reciprocity W_Dbar(z) * W_D(-z) = 1 on the walk counts themselves, and
(for acyclic D) that the denominator is 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .digraph import Digraph, complement, is_acyclic
from .guards import guard
from .hamilton import DP_BOUND
from .ringmat import path_counts, principal_determinants


def xi(D: Digraph) -> list:
    """The path polynomials [xi_0, ..., xi_n] of D as term dicts, from one
    path_counts table: xi_k sums x_S over the directed paths on k
    vertices, S their vertex set, so xi_0 = {0: 1}.  Shares ham_dp's size
    bound."""
    guard("xi", D.n, DP_BOUND)
    out: list = [{} for _ in range(D.n + 1)]
    for mask, c in enumerate(path_counts(D.adjacency())):
        if c:
            out[mask.bit_count()][mask] = c
    return out


def _walk_counts(A, pt: list, count: int) -> list:
    """[gamma_1, ..., gamma_count] at the point pt: the weighted walks on
    1, ..., count vertices, with no size guard."""
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


def _det_series(A, pt: list, K: int) -> list:
    """det(I + zXA) mod z^(K+1) at the point: the z^k coefficient sums the
    k x k principal minors of XA, which principal_determinants gives at once."""
    XA = [[x * a for a in row] for x, row in zip(pt, A)]
    out = [0] * (K + 1)
    for S, d in enumerate(principal_determinants(XA)):
        k = S.bit_count()
        if d and k <= K:
            out[k] += d
    return out


def _flip(a: list) -> list:
    """The series a(-z)."""
    return [-c if k & 1 else c for k, c in enumerate(a)]


def _ratio(num: list, den: list) -> list:
    """num(z) / den(-z) to num's order, by long division (a determinant
    series starts with 1): W_D(z) for num, den = det(I + zXAbar), det(I + zXA)."""
    div = _flip(den)
    out: list = []
    for m, c in enumerate(num):
        out.append(c - sum(div[i] * out[m - i] for i in range(1, m + 1)))
    return out


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

    At each integer point, up to order K (default 2n+1): the series ratio
    matches the gamma sequence for D and for Dbar, both read off one
    det(I + zXA) and one det(I + zXAbar); the gamma sequences alone satisfy
    W_Dbar(z) * W_D(-z) = 1; for acyclic D, det(I - zXA) is exactly 1.
    """
    n = D.n
    if K is None:
        K = 2 * n + 1
    guard("walk_identity", n, 8)
    guard("walk_identity_order", K, max(12, 2 * n + 1))
    rng = random.Random(seed)
    acyc = is_acyclic(D)
    report = WalkIdentityReport(n=n, K=K, trials=trials, seed=seed, acyclic=acyc)
    A, Abar = D.adjacency(), complement(D).adjacency()
    one = [1] + [0] * K
    for t in range(trials):
        pt = [rng.randint(-3, 3) for _ in range(n)]
        plus, plus_bar = _det_series(A, pt, K), _det_series(Abar, pt, K)
        # gamma_0 = 1 (empty walk); gamma_k for k >= 1 counts k-vertex walks
        gammas = [1] + _walk_counts(A, pt, K)
        gammas_bar = [1] + _walk_counts(Abar, pt, K)
        for label, series, want in (
            ("series", _ratio(plus_bar, plus), gammas),
            ("complement series", _ratio(plus, plus_bar), gammas_bar),
        ):
            if series != want:
                report.record(
                    f"trial {t}: {label} {series} != walk counts {want} at {pt}"
                )
        prod = _zmul(gammas_bar, _flip(gammas), K)
        if prod != one:
            report.record(f"trial {t}: reciprocity fails at {pt}: {prod}")
        if acyc and _flip(plus) != one:
            report.record(f"trial {t}: acyclic denominator {_flip(plus)} at {pt}")
    return report
