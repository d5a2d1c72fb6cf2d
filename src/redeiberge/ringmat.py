"""Multilinear polynomial ring and exact matrix kernels.

MultilinearPoly represents an element of Z[x_1..x_n]/(x_i^2): a map
from vertex-subset bitmasks to coefficients.  Coefficients may be int,
Fraction, or SymFun (anything with +, *, unary -, and truthiness).
Products of monomials with overlapping support vanish, which makes
X A nilpotent and lets the generating-function determinants terminate
exactly.

Two determinant kernels, one per job:

- det_ring, for a matrix with ring-valued entries (the matrix-det and
  schur-JT routes of U_D), by column-subset minors;
- principal_determinants and principal_permanents, for all principal
  minors of an integer matrix at once, by cycle-cover convolution (the
  Hamiltonian cycle formulas and the walk series).

partition_sum reads only the convolution's full-set value, in 3^(n-1)
steps (ham_detper).  subset_exp keeps power sums apart by block size:
fed the anchored cycle weights of D and of its complement, it is the
subset-formula route of U_D and the powersum route of Chow's Xi_D.
path_counts is the one endpoint DP over vertex sets: it counts the
directed paths on each set, for ham_dp (the full set) and the path
polynomials of walks.xi.

Also here: the Ryser permanent with Gray-code updates, immanants, and
the matrix series H(XA) and E(XA) with integer coefficients.  A term of
(XA)^k is a squarefree monomial on exactly k vertices, so the h_k (or
e_k) it carries is known from its support, and a product of series
terms carries the multiset of its factors' degrees.  matrix_series
packs that multiset into the term's key:

- bits 0..n-1 hold the support mask;
- above them, one field of n.bit_length() bits per degree k = 1..n
  counts the factors h_k (or e_k).

A product of series terms covers at most n vertices, so a field counts
at most n factors and never carries into the next; two terms multiply
when their supports are disjoint, and the product's key is the sum of
the two keys, which on plain masks is their union.  det_ring over these
entries thus multiplies integers only, and series_coefficients reads
the fields back as partitions in the h or e basis.
"""

from __future__ import annotations

from itertools import permutations as _it_permutations
from operator import mul

from .combinat import character, cycle_type, partitions_of
from .guards import guard
from .symfun import SymFun

# ------------------------------------------------------------ MultilinearPoly


class MultilinearPoly:
    """Square-free polynomial over an arbitrary coefficient ring.

    Bit i-1 of a term's mask marks the variable x_i.  Keys built inside
    this module (matrix_series) may also carry degree fields above bit
    n-1; products test overlap on the low n bits only and add keys, and
    repr prints such a key's partition after its monomial, x1*x2[2,1].
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
        return _poly(self.n, out)

    def __neg__(self) -> "MultilinearPoly":
        return _poly(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "MultilinearPoly") -> "MultilinearPoly":
        return self + (-other)

    def __mul__(self, other: "MultilinearPoly") -> "MultilinearPoly":
        out: dict = {}
        _add_products(out, self.terms, other.terms, (1 << self.n) - 1)
        return _poly(self.n, out)

    def coeff(self, mask_or_verts):
        """Coefficient of the squarefree monomial over a mask or vertex set."""
        mask = (
            mask_or_verts
            if isinstance(mask_or_verts, int)
            else mask_of(mask_or_verts)
        )
        return self.terms.get(mask, 0)

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
        for key in sorted(self.terms):
            mono = "*".join(f"x{i+1}" for i in range(self.n) if key >> i & 1)
            lam = _degrees(key, self.n)
            mono += f"[{','.join(map(str, lam))}]" if lam else ""
            c = self.terms[key]
            bits.append(f"({c})*{mono}" if mono else f"({c})")
        return " + ".join(bits)


def _poly(n: int, terms: dict) -> MultilinearPoly:
    """The trusted construction: terms already merged, zero-free and
    keyed as this module keys them."""
    res = MultilinearPoly(n)
    res.terms = terms
    return res


def _add_products(out: dict, t1: dict, t2: dict, low: int) -> None:
    """Add the products of the terms t1 by the terms t2 into out.  Terms
    whose supports (key & low) meet vanish; the others' keys add."""
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            if m1 & m2 & low:
                continue
            key = m1 + m2
            c = c1 * c2
            cur = out.get(key)
            cur = c if cur is None else cur + c
            if cur:
                out[key] = cur
            else:
                out.pop(key, None)


def mask_of(verts) -> int:
    mask = 0
    for v in verts:
        mask |= 1 << (v - 1)
    return mask


# ------------------------------------------------------------ exact det / per

# Largest matrix det_ring admits.
DET_RING_BOUND = 8


def det_ring(M, one):
    """Determinant over any commutative ring, by column-subset minors.

    one is the ring's multiplicative identity; cost is O(n * 2^n) ring
    multiplications, no division.
    """
    n = len(M)
    guard("det_ring", n, DET_RING_BOUND)
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


# ------------------------------------------------- principal minor families


def _anchored_cycle_weights(A) -> list:
    """cyc[mask]: weighted count of directed cycles with vertex set = mask.

    Each cycle is counted once, anchored at its minimum vertex; a
    singleton mask counts the loop weight A[v][v].  A path from the
    anchor only steps to unplaced successors past it (one successor
    bitmask per vertex), and each mask's paths are dropped once read.
    """
    n = len(A)
    size = 1 << n
    succ = [sum(1 << u for u, x in enumerate(row) if x) for row in A]
    paths: list = [None] * size
    cyc = [0] * size
    for v in range(n):
        paths[1 << v] = {v: 1}
    for mask in range(1, size):
        pm = paths[mask]
        if not pm:
            continue
        paths[mask] = None
        a = (mask & -mask).bit_length() - 1
        past = ~mask & -(2 << a)
        closing = 0
        for v, w in pm.items():
            row = A[v]
            closing += w * row[a]
            avail = succ[v] & past
            while avail:
                bit = avail & -avail
                avail ^= bit
                u = bit.bit_length() - 1
                d = paths[mask | bit]
                if d is None:
                    d = paths[mask | bit] = {}
                d[u] = d.get(u, 0) + w * row[u]
        cyc[mask] = closing
    return cyc


def path_counts(A) -> list:
    """h[mask]: number of directed paths with vertex set = mask.

    h[0] = 1 and a singleton counts its one-vertex path; loops are
    ignored.  A path steps to any unplaced successor, and each mask's
    endpoint dict is replaced by its total once read, masks going up.
    """
    n = len(A)
    # endpoints are numbered from 1, as bit.bit_length() gives them
    succ = [0] + [
        sum(1 << u for u, x in enumerate(row) if x and u != v)
        for v, row in enumerate(A)
    ]
    h: list = [None] * (1 << n)
    h[0] = 1
    for v in range(n):
        h[1 << v] = {v + 1: 1}
    for mask in range(1, 1 << n):
        pm = h[mask]
        if not pm:
            h[mask] = 0
            continue
        h[mask] = sum(pm.values())
        free = ~mask
        for v, c in pm.items():
            avail = succ[v] & free
            while avail:
                bit = avail & -avail
                avail ^= bit
                d = h[mask | bit]
                if d is None:
                    d = h[mask | bit] = {}
                u = bit.bit_length()
                d[u] = d.get(u, 0) + c
    return h


def principal_permanents(A, cyc=None) -> list:
    """per A[S] for every subset S of row/column indices, indexed by bitmask;
    cyc, if given, is _anchored_cycle_weights(A), built once for per and det."""
    guard("principal_minors", len(A), 18)
    return _cycle_cover_sums(_anchored_cycle_weights(A) if cyc is None else cyc)


def principal_determinants(A, cyc=None) -> list:
    """det A[S] for every subset S, by signed cycle-cover convolution."""
    guard("principal_minors", len(A), 18)
    cyc = _anchored_cycle_weights(A) if cyc is None else cyc
    return _cycle_cover_sums(_signed_cycles(cyc))


def _signed_cycles(cyc: list) -> list:
    """cyc with a cycle on L vertices signed (-1)^(L-1), as in det."""
    return [c if m.bit_count() & 1 else -c for m, c in enumerate(cyc)]


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


def partition_sum(w: list):
    """_cycle_cover_sums(w)[-1] in 3^(n-1) steps: the table covers only the
    masks avoiding vertex 1 (even, halved), and vertex 1's block closes
    each partition against that table read in reverse."""
    if len(w) == 1:
        return 1
    return sum(map(mul, w[1::2], reversed(_cycle_cover_sums(w[0::2]))))


def subset_exp(*weights) -> dict:
    """Sum over the set partitions of [n] of the product of block weights.

    One weight list per alphabet, each indexed by bitmask: block m weighs
    sum_a weights[a][m] * p_|m| in alphabet a.  Keys hold one partition
    per alphabet.  Blocks are taken as in _cycle_cover_sums, so every set
    partition is counted once, and as in partition_sum, only masks
    avoiding vertex 1 are tabled before the full set.
    """
    full = len(weights[0]) - 1
    out = {0: {((),) * len(weights): 1}}
    for S in [*range(2, full, 2), full] if full else ():
        a = S & -S
        rest = S ^ a
        acc: dict = {}
        T = rest
        while True:
            m = T | a
            k = m.bit_count()
            for i, w in enumerate(weights):
                if w[m]:
                    for key, c in out[S ^ m].items():
                        lam = tuple(sorted(key[i] + (k,), reverse=True))
                        new = key[:i] + (lam,) + key[i + 1:]
                        acc[new] = acc.get(new, 0) + w[m] * c
            if T == 0:
                break
            T = (T - 1) & rest
        out[S] = {key: c for key, c in acc.items() if c}
    return out[full]


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
    """Product of two n x n matrices over the ring in n variables; each
    entry is summed in one dict."""
    n = len(M1)
    low = (1 << n) - 1
    out = []
    for row in M1:
        new = []
        for j in range(n):
            acc: dict = {}
            for a, brow in zip(row, M2):
                b = brow[j].terms
                if a.terms and b:
                    _add_products(acc, a.terms, b, low)
            new.append(_poly(n, acc))
        out.append(new)
    return out


def matrix_series(A, kind: str) -> list:
    """The matrix H_z(XA) = sum_k h_k (XA)^k, or E_z(XA) with e_k.

    X A is nilpotent in the multilinear ring, so the sum over k <= n is
    exact.  Entries are MultilinearPoly with int coefficients; the term
    x_S of (XA)^k, k = |S|, is keyed S plus one count in degree k's
    field (module docstring).  H and E pack alike and differ only in how
    series_coefficients reads the fields: as h (kind "H") or e ("E").
    """
    n = len(A)
    guard("matrix_series", n, 6)
    _series_basis(kind)
    width = n.bit_length()
    power = mlp_identity(n)
    out = [[dict(entry.terms) for entry in row] for row in power]
    xa = xa_matrix(A)
    for k in range(1, n + 1):
        power = mlp_mat_mul(power, xa)
        field = 1 << (n + (k - 1) * width)
        for orow, prow in zip(out, power):
            for terms, entry in zip(orow, prow):
                for mask, c in entry.terms.items():
                    terms[mask + field] = c
    return [[_poly(n, terms) for terms in row] for row in out]


def series_coefficients(det: MultilinearPoly, kind: str) -> dict:
    """{mask: SymFun} of a product of matrix_series entries, such as their
    det_ring: each key's degree fields read back as the partition of its
    h factors (kind "H") or e factors (kind "E")."""
    n = det.n
    low = (1 << n) - 1
    by_mask: dict = {}
    for key, c in det.terms.items():
        by_mask.setdefault(key & low, {})[_degrees(key, n)] = c
    basis = _series_basis(kind)
    return {mask: SymFun(basis, terms) for mask, terms in by_mask.items()}


def _degrees(key: int, n: int) -> tuple:
    """The partition that the degree fields of a key count; () for a mask."""
    width = n.bit_length()
    lam: list = []
    fields = key >> n
    k = 1
    while fields:
        lam[:0] = [k] * (fields & ((1 << width) - 1))
        fields >>= width
        k += 1
    return tuple(lam)


def _series_basis(kind: str) -> str:
    if kind not in ("H", "E"):
        raise ValueError("kind must be 'H' or 'E'")
    return kind.lower()
