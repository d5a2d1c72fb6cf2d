"""Exact matrix kernels, over the integers and the multilinear ring.

An element of the multilinear ring Z[x_1..x_n]/(x_i^2) is a plain term
dict {key: coefficient}, bit i-1 of the key marking x_i; src/ builds
int coefficients only.  Products of monomials with overlapping support
vanish, which makes X A nilpotent and lets the generating-function
determinants terminate exactly.

Two determinant kernels, one per job:

- det_ring, for a matrix of term dicts (the matrix-det and schur-JT
  routes of U_D), by column-subset minors, each one term dict that the
  products are added into in place;
- principal_determinants and principal_permanents, for all principal
  minors of an integer matrix at once, by cycle-cover convolution (the
  Hamiltonian cycle formulas and the walk series).

partition_sum reads only the convolution's full-set value, from the
table of the masks avoiding vertex 1 (ham_detper).  subset_exp keeps
power sums apart by block size: fed the anchored cycle weights of D and
of its complement, it is the subset-formula route of U_D and the
powersum route of Chow's Xi_D.
_anchored_cycle_weights and path_counts are the endpoint DPs (below).

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

The cycle-cover convolution is a subset convolution packed into K-bit
integer fields (Bjorklund, Husfeldt, Kaski and Koivisto, STOC 2007).
It packs the top k = _packing_depth(n) vertices and walks the 2^(n-k)
masks X of the others: one integer holds out[X | Y] for every set Y of
top vertices, at field position sum of 3^i over Y (vertex n - i at 3^i),
and a block weight holds w[m | Y] alike.  Two fields multiply into the
sum of their positions, which for disjoint sets is their union's and for
overlapping ones has a base-3 digit 2; each mask's sum is decoded as
signed fields and repacked without those.  With M_j the largest |w[m]|
over |m| = j, e_0 = 1 and e_s = sum_j C(s-1, j-1) M_j e_(s-j) bound
|out[S]| for |S| = s.  A field with digit sum d sums products w[B] out[R]
over a virtual set of |X| + d vertices (an overlap vertex in both
factors), at most C(|X| + d - 1, j - 1) with |B| = j, so e_(|X| + d)
bounds it.  The decode, ((acc + bias) & keep) - kept_bias, reads only
the fields at positions up to (3^k - 1)/2, the top kept one, as none
above carries into them.  So e is carried to n - k + d_k, d_k the
largest digit sum there (4 at k = 3, position 8 = 022 in base 3), and
K = max(e).bit_length() + 1 holds each field read, signed.

The endpoint DPs keep one integer per vertex set X, packed alike:
Q[X] = sum_v P[X][v] row_v, with P[X][v] the paths on X ending at v and
row_v holding A[v][u] in u's field.  Masks go up: u's field of Q[X],
for u not in X, is read once and pushed on as Q[X | u] += f row_u, and
Q[X] is replaced by its result once read.
_anchored_cycle_weights starts each path at X's least vertex and pushes
only past it; the anchor's field is cyc[X].  Entries are signed: fields
are read from Q[X] plus the sign bit in every field, minus that bit.
A field of X sums at most (|X| - 1)! products of |X| entries, so with
M = max |A[v][u]|, K = ((n - 1)! M^n).bit_length() + 1.
path_counts (ham_dp and walks.xi) counts paths, loops ignored: each row
holds a 1 in field 0, below the vertices' fields, so field 0 of Q[X] is
h[X].  No field of X exceeds |X|! <= n!, unsigned: K = n!.bit_length().
"""

from __future__ import annotations

from itertools import permutations as _it_permutations
from math import comb, factorial
from operator import lshift, mul

from .combinat import character, partitions_of
from .guards import guard
from .symfun import SymFun

# ------------------------------------------------------------ exact det / per

# Largest matrix det_ring admits.
DET_RING_BOUND = 8


def _add_products(out: dict, t1, t2, low: int) -> None:
    """Add the products of the terms t1 by the terms t2, each a sequence of
    (key, coefficient) pairs, into out, in place.  Terms whose supports
    (key & low) meet vanish; the others' keys add.  A sum that cancels
    stays in out as 0 (see _nonzero)."""
    get = out.get
    for m2, c2 in t2:
        for m1, c1 in t1:
            if not m1 & m2 & low:
                key = m1 + m2
                out[key] = get(key, 0) + c1 * c2


def _nonzero(terms: dict) -> dict:
    """terms, its zero coefficients deleted in place."""
    if not all(terms.values()):
        for m in [m for m, c in terms.items() if not c]:
            del terms[m]
    return terms


def det_ring(M, nvars: int) -> dict:
    """Determinant of a matrix over the multilinear ring in nvars
    variables, each entry a term dict, by column-subset minors.

    The minor of the first r rows on a column set is one term dict.  Row r
    adds each minor-by-entry product into the dict of the larger set in
    place, the row sign (-1)^r folded into the entry and its negation
    taken where an odd number of the minor's columns lie left of the
    entry's; zeros are pruned once per row.  O(n 2^n) polynomial
    products, no division.  The result is a new dict.
    """
    n = len(M)
    guard("det_ring", n, DET_RING_BOUND)
    low = (1 << nvars) - 1
    minors = {0: {0: 1}}
    for r, row in enumerate(M):
        signed = []  # (bit, (entry * (-1)^r, entry * (-1)^(r+1))) per nonzero entry
        for j, entry in enumerate(row):
            if entry:
                pos = tuple(entry.items())
                neg = tuple((m, -c) for m, c in pos)
                signed.append((1 << j, (neg, pos) if r & 1 else (pos, neg)))
        nxt: dict = {}
        for cols, val in minors.items():
            val = tuple(val.items())
            for bit, pair in signed:
                if not cols & bit:
                    acc = nxt.get(cols | bit)
                    if acc is None:
                        acc = nxt[cols | bit] = {}
                    _add_products(acc, val, pair[(cols & (bit - 1)).bit_count() & 1], low)
        minors = {cols: t for cols, acc in nxt.items() if (t := _nonzero(acc))}
    return minors.get((1 << n) - 1, {})


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
    singleton counts the loop weight A[v][v].  Signed integer entries;
    one packed integer per mask (module docstring).
    """
    n = len(A)
    M = max((abs(x) for row in A for x in row), default=0)
    K = (factorial(max(n - 1, 0)) * M**n).bit_length() + 1
    sign, field = 1 << (K - 1), (1 << K) - 1
    bias = sign * (((1 << K * n) - 1) // field)  # sign in every field
    rows = [sum(map(lshift, row, range(0, K * n, K))) for row in A]
    cyc, lo, hi, h = _packed_table(rows, K, 0)
    full = len(cyc) - 1
    for X in range(1, full + 1):
        q = cyc[X]
        if not q:
            continue
        a = X & -X
        q += bias
        cyc[X] = (q >> K * (a.bit_length() - 1) & field) - sign
        avail = (full ^ X) & -(a << 1)
        for bit, s, row in lo[avail & (1 << h) - 1] + hi[avail >> h]:
            f = (q >> s & field) - sign
            if f:
                cyc[X | bit] += f * row
    return cyc


def path_counts(A) -> list:
    """h[mask]: number of directed paths with vertex set = mask.

    h[0] = 1 and a singleton counts its one-vertex path; loops are
    ignored.  One packed integer per mask (module docstring).
    """
    n = len(A)
    K = factorial(n).bit_length()
    field = (1 << K) - 1
    rows = [
        1 + sum(1 << K * (u + 1) for u, x in enumerate(row) if x and u != v)
        for v, row in enumerate(A)
    ]
    out, lo, hi, h = _packed_table(rows, K, K)
    full = len(out) - 1
    out[0] = 1
    for X in range(1, full + 1):
        q = out[X]
        if not q:
            continue
        out[X] = q & field
        avail = full ^ X
        for bit, s, row in lo[avail & (1 << h) - 1] + hi[avail >> h]:
            f = q >> s & field
            if f:
                out[X | bit] += f * row
    return out


def _packed_table(rows: list, K: int, offset: int) -> tuple:
    """The endpoint DPs' table, rows[v] at each {v}, and lo, hi, h: a mask
    m's vertices u as (bit, offset + K u, rows[u]) in lo[m & (2^h - 1)] +
    hi[m >> h], h = n // 2, built by doubling (2^h + 2^(n-h) tuples)."""
    h = len(rows) >> 1
    table = [0] * (1 << len(rows))
    lo, hi = [()], [()]
    for u, row in enumerate(rows):
        table[1 << u] = row
        t = ((1 << u, offset + K * u, row),)
        if u < h:
            lo += [p + t for p in lo]
        else:
            hi += [p + t for p in hi]
    return table, lo, hi, h


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

    w is indexed by integer bitmask; each block is taken with the lowest
    vertex of what remains, so every partition is counted once.  The top
    k = _packing_depth(n) vertices share one integer (module docstring):
    3^(n-k)/2 steps.  At k = 0 each sum is one field, with nothing to
    decode.
    """
    size = len(w)
    k = _packing_depth(size.bit_length() - 1)
    low = size >> k
    wt, out = w, [1] + [0] * (low - 1)
    if k:
        K = _field_bits(w, k)
        sign, field = 1 << (K - 1), (1 << K) - 1
        shifts = [0]  # set Y of top vertices -> K * (sum of their 3^i)
        for i in reversed(range(k)):
            shifts += [s + K * 3**i for s in shifts]
        ones = sum(1 << s for s in shifts)  # a 1 in each kept field
        keep, kept_bias = field * ones, sign * ones
        bias = sign * (((1 << K * 3**k) - 1) // field)  # sign in all 3^k fields
        for i in range(k):  # fold vertex n - i into field 3^i
            half, s = len(wt) >> 1, K * 3**i
            wt = [p + (c << s) for p, c in zip(wt[:half], wt[half:])]
        # the sets of top vertices alone: a table of 2^k entries, unpacked
        out[0] = sum(map(lshift, _cycle_cover_sums(w[::low]), shifts))
    for X in range(1, low):
        a = X & -X
        rest = X ^ a
        acc = wt[a] * out[rest]  # the block {a}; the loop takes the larger ones
        T = rest
        while T:
            c = wt[T | a]
            if c:
                acc += c * out[rest ^ T]
            T = (T - 1) & rest
        out[X] = ((acc + bias) & keep) - kept_bias if k else acc
    if not k:
        return out
    out = [p + kept_bias for p in out]
    return [((p >> s) & field) - sign for s in shifts for p in out]


def _packing_depth(n: int) -> int:
    """Top vertices packed in a table on n vertices: below n = 7 the fields
    cost more than they save, and a fourth widens them more than it saves."""
    return 3 if n >= 7 else 0


def _field_bits(w: list, k: int) -> int:
    """K of _cycle_cover_sums at depth k: the bounds e_s carried to
    s = n - k + d_k, the largest set a field that the decode reads sums
    over (module docstring)."""
    M = [0] * len(w).bit_length()
    for m, c in enumerate(w):
        if c:
            c, j = abs(c), m.bit_count()
            if c > M[j]:
                M[j] = c
    d_k = max(sum(p // 3**i % 3 for i in range(k)) for p in range(3**k // 2 + 1))
    e = [1]
    for s in range(1, len(M) - k + d_k):
        bound = 0
        for j in range(1, min(s + 1, len(M))):
            if M[j]:
                bound += comb(s - 1, j - 1) * M[j] * e[s - j]
        e.append(bound)
    return max(e).bit_length() + 1


def partition_sum(w: list):
    """_cycle_cover_sums(w)[-1] from the table of the masks avoiding
    vertex 1 (even, halved), which packs as any table on n - 1 vertices
    does: 3^(n-1-k)/2 steps, k = _packing_depth(n - 1).  Vertex 1's block
    closes each partition against that table read in reverse."""
    if len(w) == 1:
        return 1
    return sum(map(mul, w[1::2], reversed(_cycle_cover_sums(w[0::2]))))


def subset_exp(*weights) -> dict:
    """Sum over the set partitions of [n] of the product of block weights.

    One weight list per alphabet, each indexed by bitmask: block m weighs
    sum_a weights[a][m] * p_|m| in alphabet a.  Keys hold one partition
    per alphabet.  Blocks are taken as in _cycle_cover_sums and, as in
    partition_sum, only masks avoiding vertex 1 are tabled before the full
    set: about 3^(n-1)/2 block steps, each a dict merge, left unpacked.
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


def immanant(M) -> dict:
    """{lam: imm_lam(M)} for every partition lam of len(M) (imm_() = 1 at
    n = 0): one permutation walk tallies the diagonal products by cycle
    type, and imm_lam sums that tally against chi^lam.  A cycle type is
    read off the images by following each cycle from the least unvisited
    index, the visited ones a bitmask."""
    n = len(M)
    guard("immanant", n, 9)
    full = (1 << n) - 1
    by_type: dict = {}
    for images in _it_permutations(range(n)):
        prod = 1
        for row, j in zip(M, images):
            prod *= row[j]
            if not prod:
                break
        else:
            lens = []
            rest = full
            while rest:
                j = (rest & -rest).bit_length() - 1
                length = 0
                while rest >> j & 1:
                    rest ^= 1 << j
                    j = images[j]
                    length += 1
                lens.append(length)
            lens.sort(reverse=True)
            mu = tuple(lens)
            by_type[mu] = by_type.get(mu, 0) + prod
    out = {}
    for lam in partitions_of(n):
        total = 0
        for mu, c in by_type.items():
            total += character(lam, mu) * c
        out[lam] = total
    return out


# ----------------------------------------------------------- matrix series


def matrix_series(A, kind: str) -> list:
    """The matrix H_z(XA) = sum_k h_k (XA)^k, or E_z(XA) with e_k, with
    X = diag(x_1..x_n).

    X A is nilpotent in the multilinear ring, so the sum over k <= n is
    exact.  Entries are term dicts with int coefficients; the term x_S of
    (XA)^k, k = |S|, is keyed S plus one count in degree k's field
    (module docstring).  (XA)^k is (XA)^(k-1) times XA, entry by entry:
    x_l A[l][j] extends each term of column l that avoids x_l.  H and E
    pack alike and differ only in how series_coefficients reads the
    fields: as h (kind "H") or e ("E").
    """
    n = len(A)
    guard("matrix_series", n, 6)
    _series_basis(kind)
    width = n.bit_length()
    out = [[{0: 1} if i == j else {} for j in range(n)] for i in range(n)]
    power = [[dict(t) for t in row] for row in out]  # (XA)^0
    for k in range(1, n + 1):
        field = 1 << (n + (k - 1) * width)
        for orow, prow in zip(out, power):
            new = [{} for _ in range(n)]
            for l, terms in enumerate(prow):
                bit = 1 << l
                for mask, c in terms.items():
                    if not mask & bit:
                        for acc, a in zip(new, A[l]):
                            if a:
                                acc[mask | bit] = acc.get(mask | bit, 0) + c * a
            prow[:] = [_nonzero(acc) for acc in new]
            for terms, acc in zip(orow, prow):
                for mask, c in acc.items():
                    terms[mask + field] = c
    return out


def series_coefficients(det: dict, n: int, kind: str) -> dict:
    """{mask: SymFun} of a product of matrix_series entries on n vertices,
    such as their det_ring: each key's degree fields read back as the
    partition of its h factors (kind "H") or e factors (kind "E")."""
    low = (1 << n) - 1
    by_mask: dict = {}
    for key, c in det.items():
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
