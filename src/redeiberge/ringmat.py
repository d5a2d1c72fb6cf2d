"""Multilinear polynomial ring and exact matrix kernels.

MultilinearPoly represents an element of Z[x_1..x_n]/(x_i^2): a map
from vertex-subset bitmasks to coefficients.  Coefficients may be int,
Fraction, or SymFun (anything with +, *, unary -, and truthiness).
Products of monomials with overlapping support vanish, which makes
X A nilpotent and lets the generating-function determinants terminate
exactly.

Matrix kernels: fraction-free Bareiss determinant, Ryser permanent with
Gray-code updates, immanants, and one dynamic program that produces the
determinants and permanents of all principal submatrices at once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations as _it_permutations

from .combinat import character, cycle_type, partitions_of
from .guards import guard
from .symfun import SymFun, _ek_in_p, _hk_in_p

# ------------------------------------------------------------ MultilinearPoly


class MultilinearPoly:
    """Square-free polynomial over an arbitrary coefficient ring.

    Bit i-1 of a term's mask marks the variable x_i.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms: dict = {}
        if terms:
            for mask, c in terms.items():
                if mask >> n:
                    raise ValueError("mask uses variables beyond x_n")
                if c:
                    cur = self.terms.get(mask)
                    cur = c if cur is None else cur + c
                    if cur:
                        self.terms[mask] = cur
                    else:
                        self.terms.pop(mask, None)

    @classmethod
    def zero(cls, n: int) -> "MultilinearPoly":
        return cls(n)

    @classmethod
    def const(cls, n: int, c) -> "MultilinearPoly":
        return cls(n, {0: c})

    @classmethod
    def variable(cls, n: int, i: int, c=1) -> "MultilinearPoly":
        """c * x_i."""
        if not 1 <= i <= n:
            raise ValueError("variable index out of range")
        return cls(n, {1 << (i - 1): c})

    def __add__(self, other: "MultilinearPoly") -> "MultilinearPoly":
        out = dict(self.terms)
        for mask, c in other.terms.items():
            cur = out.get(mask)
            cur = c if cur is None else cur + c
            if cur:
                out[mask] = cur
            else:
                out.pop(mask, None)
        res = MultilinearPoly(self.n)
        res.terms = out
        return res

    def __neg__(self) -> "MultilinearPoly":
        res = MultilinearPoly(self.n)
        res.terms = {m: -c for m, c in self.terms.items()}
        return res

    def __sub__(self, other: "MultilinearPoly") -> "MultilinearPoly":
        return self + (-other)

    def __mul__(self, other: "MultilinearPoly") -> "MultilinearPoly":
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if m1 & m2:
                    continue
                key = m1 | m2
                c = c1 * c2
                cur = out.get(key)
                cur = c if cur is None else cur + c
                if cur:
                    out[key] = cur
                else:
                    out.pop(key, None)
        res = MultilinearPoly(self.n)
        res.terms = out
        return res

    def scale(self, c) -> "MultilinearPoly":
        if not c:
            return MultilinearPoly(self.n)
        res = MultilinearPoly(self.n)
        res.terms = {m: v * c for m, v in self.terms.items()}
        return res

    def coeff(self, mask_or_verts):
        """Coefficient of the squarefree monomial over a mask or vertex set."""
        mask = (
            mask_or_verts
            if isinstance(mask_or_verts, int)
            else mask_of(mask_or_verts)
        )
        return self.terms.get(mask, 0)

    def inverse(self) -> "MultilinearPoly":
        """Multiplicative inverse; needs an invertible scalar constant term."""
        c0 = self.terms.get(0, 0)
        if not isinstance(c0, (int, Fraction)) or not c0:
            raise ZeroDivisionError("constant term is not an invertible scalar")
        inv0 = Fraction(1, 1) / Fraction(c0)
        g = MultilinearPoly(
            self.n, {m: -c * inv0 for m, c in self.terms.items() if m}
        )
        acc = MultilinearPoly.const(self.n, Fraction(1))
        power = MultilinearPoly.const(self.n, Fraction(1))
        for _ in range(self.n):
            power = power * g
            if not power.terms:
                break
            acc = acc + power
        return acc.scale(inv0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultilinearPoly)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self):
        raise TypeError("MultilinearPoly is mutable, not hashable")

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for mask in sorted(self.terms):
            mono = "*".join(f"x{i+1}" for i in range(self.n) if mask >> i & 1)
            c = self.terms[mask]
            bits.append(f"({c})*{mono}" if mono else f"({c})")
        return " + ".join(bits)


def mask_of(verts) -> int:
    mask = 0
    for v in verts:
        mask |= 1 << (v - 1)
    return mask


def coeff_extract(f: MultilinearPoly, verts):
    """The coefficient functional: read off the monomial over the vertex set."""
    return f.coeff(mask_of(verts))


# ------------------------------------------------------------ exact det / per


def bareiss_det(M) -> int:
    """Fraction-free determinant of an integer matrix."""
    n = len(M)
    if n == 0:
        return 1
    A = [list(map(int, row)) for row in M]
    sign, prev = 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for r in range(k + 1, n):
                if A[r][k]:
                    A[k], A[r] = A[r], A[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = A[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * pivot - A[i][k] * A[k][j]) // prev
        prev = pivot
    return sign * A[n - 1][n - 1]


def det_ring(M, one, bound: int = 8):
    """Determinant over any commutative ring, by column-subset minors.

    one is the ring's multiplicative identity; cost is O(n * 2^n) ring
    multiplications, no division.
    """
    n = len(M)
    guard("det_ring", n, bound)
    if n == 0:
        return one
    minors = {0: one}
    for r in range(n):
        nxt: dict = {}
        row = M[r]
        rpar = r & 1
        for cols, val in minors.items():
            below = 0  # parity of used columns to the left of j
            for j in range(n):
                bit = 1 << j
                if cols & bit:
                    below ^= 1
                    continue
                entry = row[j]
                if not entry:
                    continue
                term = val * entry
                if rpar ^ below:
                    term = -term
                key = cols | bit
                cur = nxt.get(key)
                cur = term if cur is None else cur + term
                nxt[key] = cur
        minors = nxt
    full = (1 << n) - 1
    result = minors.get(full)
    if result is None:
        result = one - one
    return result


def determinant(M):
    """Exact determinant: Bareiss for integers, Gaussian elimination for
    rationals, column-subset minor DP for ring-valued entries."""
    if all(isinstance(x, int) for row in M for x in row):
        return bareiss_det(M)
    if all(isinstance(x, (int, Fraction)) for row in M for x in row):
        return _fraction_gauss_det(M)
    return det_ring(M, _ring_one_like(M))


def _fraction_gauss_det(M) -> Fraction:
    n = len(M)
    A = [[Fraction(x) for x in row] for row in M]
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if A[r][k]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            A[k], A[pivot_row] = A[pivot_row], A[k]
            det = -det
        det *= A[k][k]
        inv = 1 / A[k][k]
        for r in range(k + 1, n):
            if A[r][k]:
                factor = A[r][k] * inv
                for c in range(k, n):
                    A[r][c] -= factor * A[k][c]
    return det


def _ring_one_like(M):
    for row in M:
        for x in row:
            if isinstance(x, MultilinearPoly):
                return MultilinearPoly.const(x.n, 1)
            if isinstance(x, SymFun):
                return SymFun.const(1, x.basis)
    return 1


def permanent_ryser(M) -> int:
    """Permanent by Ryser's formula with Gray-code column updates."""
    n = len(M)
    guard("permanent_ryser", n, 20)
    if n == 0:
        return 1
    rows = [list(row) for row in M]
    sums = [0] * n
    total = 0
    gray = 0
    for k in range(1, 1 << n):
        j = (k & -k).bit_length() - 1
        bit = 1 << j
        if gray & bit:
            gray ^= bit
            for i in range(n):
                sums[i] -= rows[i][j]
        else:
            gray ^= bit
            for i in range(n):
                sums[i] += rows[i][j]
        prod = 1
        for s in sums:
            if not s:
                prod = 0
                break
            prod *= s
        if prod:
            total += -prod if (n - gray.bit_count()) & 1 else prod
    return total


def permanent_expansion(M) -> int:
    """Permanent by recursive Laplace expansion (independent small oracle)."""
    n = len(M)
    if n == 0:
        return 1
    cols = list(range(n))

    def rec(r: int, used: int) -> int:
        if r == n:
            return 1
        total = 0
        for j in cols:
            if used >> j & 1 or not M[r][j]:
                continue
            total += M[r][j] * rec(r + 1, used | 1 << j)
        return total

    return rec(0, 0)


# ------------------------------------------------- principal minor families


def _anchored_cycle_weights(A) -> list:
    """cyc[mask]: weighted count of directed cycles with vertex set = mask.

    Each cycle is counted once, anchored at its minimum vertex; a
    singleton mask counts the loop weight A[v][v].
    """
    n = len(A)
    size = 1 << n
    paths: list = [None] * size
    cyc = [0] * size
    for v in range(n):
        paths[1 << v] = {v: 1}
    for mask in range(1, size):
        pm = paths[mask]
        if not pm:
            continue
        a = (mask & -mask).bit_length() - 1
        closing = 0
        for v, w in pm.items():
            back = A[v][a]
            if back:
                closing += w * back
        cyc[mask] = closing
        for v, w in pm.items():
            row = A[v]
            for u in range(a + 1, n):
                bit = 1 << u
                if mask & bit:
                    continue
                step = row[u]
                if not step:
                    continue
                d = paths[mask | bit]
                if d is None:
                    d = paths[mask | bit] = {}
                d[u] = d.get(u, 0) + w * step
    return cyc


def principal_permanents(A) -> list:
    """per A[S] for every subset S of row/column indices, indexed by bitmask."""
    guard("principal_minors", len(A), 18)
    return _cycle_cover_sums(_anchored_cycle_weights(A))


def principal_determinants(A) -> list:
    """det A[S] for every subset S, by signed cycle-cover convolution."""
    guard("principal_minors", len(A), 18)
    # a cycle on L vertices contributes sign (-1)^(L-1)
    signed = [
        c if m.bit_count() & 1 else -c
        for m, c in enumerate(_anchored_cycle_weights(A))
    ]
    return _cycle_cover_sums(signed)


def _cycle_cover_sums(w: list) -> list:
    """out[S]: sum over partitions of S into blocks m of the product of w[m].

    w is indexed by bitmask; each block is taken with the lowest vertex
    of what remains, so every partition is counted once (3^n steps).
    """
    out = [0] * len(w)
    out[0] = 1
    for S in range(1, len(w)):
        a = S & -S
        rest = S ^ a
        acc = 0
        T = rest
        while True:
            m = T | a
            c = w[m]
            if c:
                acc += c * out[S ^ m]
            if T == 0:
                break
            T = (T - 1) & rest
        out[S] = acc
    return out


def submatrix(M, rows, cols=None) -> list:
    """Submatrix on sorted 1-based index sets (cols defaults to rows)."""
    rs = sorted(rows)
    cs = rs if cols is None else sorted(cols)
    return [[M[r - 1][c - 1] for c in cs] for r in rs]


# --------------------------------------------------------------------- immanants


def immanant(M, lam) -> int:
    """Sum over permutations of chi^lam(cycle type) times the diagonal product."""
    n = len(M)
    lam = tuple(lam)
    if sum(lam) != n:
        raise ValueError("lam must be a partition of the matrix size")
    guard("immanant", n, 9)
    chi = {mu: character(lam, mu) for mu in partitions_of(n)}
    total = 0
    for images in _it_permutations(range(n)):
        prod = 1
        for i, j in enumerate(images):
            entry = M[i][j]
            if not entry:
                prod = 0
                break
            prod *= entry
        if prod:
            sigma = tuple(j + 1 for j in images)
            total += chi[cycle_type(sigma)] * prod
    return total


# ----------------------------------------------------------- matrix series


def xa_matrix(A) -> list:
    """The matrix X A with X = diag(x_1..x_n), over the multilinear ring."""
    n = len(A)
    return [
        [
            MultilinearPoly(n, {1 << i: A[i][j]} if A[i][j] else None)
            for j in range(n)
        ]
        for i in range(n)
    ]


def mlp_identity(n: int, c=1) -> list:
    return [
        [MultilinearPoly.const(n, c if i == j else 0) for j in range(n)]
        for i in range(n)
    ]


def mlp_mat_mul(M1, M2) -> list:
    n = len(M1)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = MultilinearPoly.zero(n)
            for k in range(n):
                if M1[i][k] and M2[k][j]:
                    acc = acc + M1[i][k] * M2[k][j]
            row.append(acc)
        out.append(row)
    return out


def _series_coefficients(kind: str, n: int) -> list:
    """h_k (kind "H") or e_k (kind "E") in the p basis, for k = 0..n."""
    table = _hk_in_p if kind == "H" else _ek_in_p
    return [SymFun("p", dict(table(k))) for k in range(n + 1)]


def matrix_series(A, kind: str) -> list:
    """The matrix H_z(XA) = sum_k h_k (XA)^k, or E_z(XA) with e_k.

    X A is nilpotent in the multilinear ring, so the sum over k <= n is
    exact.  Entries are MultilinearPoly with SymFun (p basis) coefficients.
    """
    n = len(A)
    guard("matrix_series", n, 6)
    if kind not in ("H", "E"):
        raise ValueError("kind must be 'H' or 'E'")
    coeffs = _series_coefficients(kind, n)
    powers = [mlp_identity(n)]
    xa = xa_matrix(A)
    for _ in range(n):
        powers.append(mlp_mat_mul(powers[-1], xa))
    out = [
        [MultilinearPoly.zero(n) for _ in range(n)] for _ in range(n)
    ]
    for k, ck in enumerate(coeffs):
        mat = powers[k]
        for i in range(n):
            for j in range(n):
                entry = mat[i][j]
                if entry:
                    out[i][j] = out[i][j] + entry.scale(ck)
    return out


def identity_minus_xa(A) -> list:
    """I - XA over the multilinear ring with integer coefficients."""
    n = len(A)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = {}
            if i == j:
                terms[0] = 1
            if A[i][j]:
                terms[1 << i] = terms.get(1 << i, 0) - A[i][j]
            row.append(MultilinearPoly(n, terms))
        out.append(row)
    return out


def identity_plus_xa(A) -> list:
    n = len(A)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            terms = {}
            if i == j:
                terms[0] = 1
            if A[i][j]:
                terms[1 << i] = terms.get(1 << i, 0) + A[i][j]
            row.append(MultilinearPoly(n, terms))
        out.append(row)
    return out
