"""Independent oracles for the test suite.

Everything here recomputes values from first principles with the
dumbest correct algorithm available (literal enumeration, classical
recurrences), so that agreement is meaningful.  Elements of the
multilinear ring are term dicts, as in the package, multiplied here by
ring_mul, a product loop of the tests' own.
specialize (and lift_to_mtilde, its inverse) evaluates a SymFun in its
own basis, with no basis conversion.

What this module imports from the library, and why:

- Digraph, the container every oracle reads; SymFun and
  TwoAlphabetSymFun, the containers some return, with _as_coeff, the
  coefficient check their constructors apply.
- multiplicity_factorial, sgn_of_type and z_lambda: one-line products
  over a partition's parts, which the oracles take as given.
- character and to_p, read by character_degree, inner_product,
  is_p_positive, equals and the two-alphabet lifts: these test the
  library's character table and conversion to p, not stand in for them.
- _schur_JT, read by schur_coeff_JT, which is not an oracle: it reads
  one partition off the schur-JT route, for the tests that pin single
  Schur coefficients.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations
from math import prod

from redeiberge.combinat import (
    character,
    multiplicity_factorial,
    sgn_of_type,
    z_lambda,
)
from redeiberge.digraph import Digraph
from redeiberge.redei import _schur_JT
from redeiberge.symfun import SymFun, TwoAlphabetSymFun, _as_coeff, to_p


# ---------------------------------------------------- fundamental / U oracle

def chain_fundamental(strict_positions, n: int, nvars: int) -> dict:
    """F as a dict exponent vector -> int, by filtering weakly increasing
    chains for strict rises at the marked positions."""
    strict = set(strict_positions)
    out: dict = {}
    if n == 0:
        out[(0,) * nvars] = 1
        return out
    for chain in combinations_with_replacement(range(1, nvars + 1), n):
        if any(chain[j - 1] >= chain[j] for j in strict):
            continue
        exp = [0] * nvars
        for v in chain:
            exp[v - 1] += 1
        key = tuple(exp)
        out[key] = out.get(key, 0) + 1
    return out


def u_poly_bruteforce(D, nvars: int) -> dict:
    """U_D as a polynomial dict, straight from the definition."""
    n = D.n
    out: dict = {}
    for pi in permutations(range(1, n + 1)):
        descents = {
            i for i in range(1, n) if (pi[i - 1], pi[i]) in D.edges
        }
        for exp, c in chain_fundamental(descents, n, nvars).items():
            out[exp] = out.get(exp, 0) + c
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------- MultivarPoly

class MultivarPoly:
    """Polynomial in a fixed number of variables, exponent vector -> Fraction."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms: dict = {}
        if terms:
            for exp, c in terms.items():
                c = _as_coeff(c)
                if not c:
                    continue
                if len(exp) != nvars:
                    raise ValueError("exponent vector of wrong length")
                self.terms[tuple(exp)] = self.terms.get(tuple(exp), Fraction(0)) + c
            self.terms = {e: c for e, c in self.terms.items() if c}

    @classmethod
    def zero(cls, nvars: int) -> "MultivarPoly":
        return cls(nvars)

    @classmethod
    def monomial(cls, nvars: int, exp, coeff=1) -> "MultivarPoly":
        return cls(nvars, {tuple(exp): coeff})

    def add_term(self, exp, c) -> None:
        cur = self.terms.get(exp, Fraction(0)) + c
        if cur:
            self.terms[exp] = cur
        else:
            self.terms.pop(exp, None)

    def __add__(self, other: "MultivarPoly") -> "MultivarPoly":
        out = MultivarPoly(self.nvars, dict(self.terms))
        for e, c in other.terms.items():
            out.add_term(e, c)
        return out

    def __sub__(self, other: "MultivarPoly") -> "MultivarPoly":
        out = MultivarPoly(self.nvars, dict(self.terms))
        for e, c in other.terms.items():
            out.add_term(e, -c)
        return out

    def __mul__(self, other: "MultivarPoly") -> "MultivarPoly":
        out = MultivarPoly(self.nvars)
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out.add_term(tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return out

    def scale(self, c) -> "MultivarPoly":
        c = _as_coeff(c)
        return MultivarPoly(self.nvars, {e: v * c for e, v in self.terms.items()})

    def coeff(self, exp) -> Fraction:
        return self.terms.get(tuple(exp), Fraction(0))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultivarPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self):
        raise TypeError("MultivarPoly is mutable, not hashable")

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, reverse=True):
            mono = "*".join(
                f"z{i+1}" + (f"^{k}" if k > 1 else "")
                for i, k in enumerate(e)
                if k
            )
            bits.append(f"{self.terms[e]}*{mono}" if mono else f"{self.terms[e]}")
        return " + ".join(bits)


# ------------------------------------------------------------- specialization

def _distinct_arrangements(values, nslots: int):
    """Distinct length-nslots tuples using each value of the multiset once,
    padded with zeros."""
    pool: dict[int, int] = {}
    for v in values:
        pool[v] = pool.get(v, 0) + 1
    pool[0] = nslots - len(values)
    cur = [0] * nslots

    def rec(i: int):
        if i == nslots:
            yield tuple(cur)
            return
        for v in list(pool):
            if pool[v]:
                pool[v] -= 1
                cur[i] = v
                yield from rec(i + 1)
                pool[v] += 1

    yield from rec(0)


@lru_cache(maxsize=None)
def _basis_poly(basis: str, lam, nvars: int) -> MultivarPoly:
    """p_lam, h_lam, e_lam or m_lam in nvars variables, built from
    monomials: m_lam by its distinct exponent arrangements, and the others
    as products over parts of z_i^k summed over i, or the monomials of k
    indices chosen with (h) or without (e) repetition."""
    out = MultivarPoly.zero(nvars)
    if basis == "m":
        if len(lam) <= nvars:
            for exp in _distinct_arrangements(lam, nvars):
                out.add_term(exp, 1)
        return out
    if len(lam) != 1:
        out = MultivarPoly.monomial(nvars, (0,) * nvars)
        for k in lam:
            out = out * _basis_poly(basis, (k,), nvars)
        return out
    k = lam[0]
    if basis == "p":
        choices = [(i,) * k for i in range(nvars)]
    elif basis == "h":
        choices = combinations_with_replacement(range(nvars), k)
    else:
        choices = combinations(range(nvars), k)
    for idx in choices:
        out.add_term(tuple(idx.count(i) for i in range(nvars)), 1)
    return out


def specialize(f: SymFun, nvars: int) -> MultivarPoly:
    """Evaluate with z_{nvars+1} = z_{nvars+2} = ... = 0, exactly, in f's
    own basis, with no basis conversion: mtilde_lam as (multiplicities of
    lam)! m_lam, and s_lam as the sum over mu of chi^lam(mu) / z_mu p_mu,
    with characters from irreducible_characters_oracle."""
    out = MultivarPoly.zero(nvars)
    for lam, c in f.terms.items():
        basis, terms = f.basis, [(lam, c)]
        if basis == "mtilde":
            basis, terms = "m", [(lam, c * multiplicity_factorial(lam))]
        elif basis == "s":
            chars = irreducible_characters_oracle(sum(lam))[lam]
            basis = "p"
            terms = [(mu, Fraction(c * chi, _z_of(mu))) for mu, chi in chars.items()]
        for mu, d in terms:
            for exp, v in _basis_poly(basis, mu, nvars).terms.items():
                out.add_term(exp, d * v)
    return out


def lift_to_mtilde(poly: MultivarPoly, degree: int) -> SymFun:
    """Inverse of specialize for symmetric polynomials of the given degree.

    Reads coefficients off partition-shaped monomials and verifies the
    residual is zero, so asymmetric or wrong-degree input is rejected.
    """
    if degree > 0 and poly.nvars < degree:
        raise ValueError("need at least as many variables as the degree")
    coeffs: dict = {}
    for exp, c in poly.terms.items():
        if sum(exp) != degree:
            raise ValueError("polynomial is not homogeneous of the stated degree")
        lam = tuple(sorted((v for v in exp if v), reverse=True))
        if exp == lam + (0,) * (poly.nvars - len(lam)):
            coeffs[lam] = c
    f = SymFun(
        "mtilde",
        {lam: c / multiplicity_factorial(lam) for lam, c in coeffs.items()},
    )
    if specialize(f, poly.nvars) != poly:
        raise ValueError("polynomial is not symmetric; lift has nonzero residual")
    return f


# ------------------------------------------------------------------ tableaux

def _shape_cells(lam):
    return [(r, c) for r, row_len in enumerate(lam) for c in range(row_len)]


def ssyt_contents(lam, nvars: int):
    """Yield the content vector of every semistandard tableau of shape lam
    with entries at most nvars."""
    cells = _shape_cells(lam)
    filling: dict = {}

    def rec(idx: int):
        if idx == len(cells):
            content = [0] * nvars
            for v in filling.values():
                content[v - 1] += 1
            yield tuple(content)
            return
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = max(lo, filling[(r, c - 1)])
        if r > 0:
            lo = max(lo, filling[(r - 1, c)] + 1)
        for v in range(lo, nvars + 1):
            filling[(r, c)] = v
            yield from rec(idx + 1)
        filling.pop((r, c), None)

    yield from rec(0)


def schur_poly_oracle(lam, nvars: int) -> dict:
    out: dict = {}
    for content in ssyt_contents(lam, nvars):
        out[content] = out.get(content, 0) + 1
    return out


def kostka_oracle(lam, mu) -> int:
    """Number of SSYT of shape lam and content exactly mu."""
    mu = tuple(mu)
    return sum(
        1
        for content in ssyt_contents(lam, len(mu))
        if tuple(content) == mu
    )


def syt_count_oracle(lam) -> int:
    """Standard Young tableaux by direct enumeration (add n, n-1, ... at
    corners)."""
    lam = tuple(lam)

    @lru_cache(maxsize=None)
    def count(shape) -> int:
        if not shape:
            return 1
        total = 0
        for i, row in enumerate(shape):
            if row and (i == len(shape) - 1 or shape[i + 1] < row):
                smaller = tuple(
                    r - 1 if j == i else r for j, r in enumerate(shape)
                )
                smaller = tuple(r for r in smaller if r)
                total += count(smaller)
        return total

    return count(lam)


def lr_coefficient_oracle(lam, mu, nu) -> int:
    """Littlewood-Richardson skew tableaux of shape nu/lam, content mu,
    with the lattice condition on the reverse reading word."""
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    if sum(lam) + sum(mu) != sum(nu):
        return 0
    if len(lam) > len(nu):
        return 0
    inner = lam + (0,) * (len(nu) - len(lam))
    if any(inner[i] > nu[i] for i in range(len(nu))):
        return 0
    cells = [
        (r, c) for r in range(len(nu)) for c in range(inner[r], nu[r])
    ]
    k = len(mu)
    filling: dict = {}
    remaining = list(mu)
    count = 0

    def lattice_ok() -> bool:
        seen = [0] * (k + 1)
        for r in range(len(nu)):
            for c in range(nu[r] - 1, inner[r] - 1, -1):
                v = filling[(r, c)]
                seen[v] += 1
                if v > 1 and seen[v] > seen[v - 1]:
                    return False
        return True

    def rec(idx: int):
        nonlocal count
        if idx == len(cells):
            if lattice_ok():
                count += 1
            return
        r, c = cells[idx]
        lo = 1
        if (r, c - 1) in filling:
            lo = max(lo, filling[(r, c - 1)])
        hi = k
        if (r - 1, c) in filling:
            lo = max(lo, filling[(r - 1, c)] + 1)
        for v in range(lo, hi + 1):
            if remaining[v - 1] == 0:
                continue
            filling[(r, c)] = v
            remaining[v - 1] -= 1
            rec(idx + 1)
            remaining[v - 1] += 1
        filling.pop((r, c), None)

    rec(0)
    return count


# ------------------------------------------------------ character oracle

def permutation_module_character(lam, mu) -> int:
    """Trace of a cycle-type-mu permutation on ordered set partitions with
    block sizes lam: each cycle must land in a single block."""
    lam, mu = tuple(lam), tuple(mu)
    cycles = list(mu)

    @lru_cache(maxsize=None)
    def rec(i: int, caps) -> int:
        if i == len(cycles):
            return 1 if not any(caps) else 0
        total = 0
        for b in range(len(caps)):
            if caps[b] >= cycles[i]:
                key = caps[:b] + (caps[b] - cycles[i],) + caps[b + 1:]
                total += rec(i + 1, key)
        return total

    return rec(0, lam)


@lru_cache(maxsize=None)
def irreducible_characters_oracle(n: int) -> dict:
    """Character table by Gram-Schmidt on permutation-module characters.

    Partitions are processed from most dominant down (reverse-lex refines
    dominance), which pins each irreducible uniquely.
    """
    parts = _partitions_revlex(n)
    zs = {mu: _z_of(mu) for mu in parts}

    def inner(f: dict, g: dict) -> Fraction:
        return sum(
            (Fraction(f[mu] * g[mu], zs[mu]) for mu in parts),
            Fraction(0),
        )

    chars: dict = {}
    for lam in parts:
        vec = {mu: Fraction(permutation_module_character(lam, mu)) for mu in parts}
        for rho, chi in chars.items():
            coef = inner(vec, chi)
            if coef:
                for mu in parts:
                    vec[mu] -= coef * chi[mu]
        norm = inner(vec, vec)
        assert norm == 1, f"Gram-Schmidt produced non-irreducible at {lam}"
        chars[lam] = {mu: vec[mu] for mu in parts}
    return {
        lam: {mu: int(v) for mu, v in row.items()}
        for lam, row in chars.items()
    }


def _partitions_revlex(n: int) -> list:
    def gen(total, max_part):
        if total == 0:
            yield ()
            return
        for first in range(min(total, max_part), 0, -1):
            for rest in gen(total - first, first):
                yield (first,) + rest

    return list(gen(n, n))


def _z_of(mu) -> int:
    out = 1
    mult: dict = {}
    for part in mu:
        mult[part] = mult.get(part, 0) + 1
    for i, r in mult.items():
        f = 1
        for t in range(1, r + 1):
            f *= t
        out *= i**r * f
    return out


# ------------------------------------------------------------------- counting

def euler_partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal number recurrence."""
    table = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            if g1 <= m:
                total += sign * table[m - g1]
            if g2 <= m:
                total += sign * table[m - g2]
            k += 1
        table[m] = total
    return table[n]


def ham_paths_oracle(D) -> int:
    """Hamiltonian paths by filtering all permutations."""
    n = D.n
    if n == 0:
        return 1
    return sum(
        1
        for pi in permutations(range(1, n + 1))
        if all((pi[i], pi[i + 1]) in D.edges for i in range(n - 1))
    )


def ham_cycles_oracle(D) -> int:
    """Hamiltonian cycles by filtering permutations anchored at vertex 1."""
    n = D.n
    if n == 0:
        return 0
    if n == 1:
        return 1 if (1, 1) in D.edges else 0
    count = 0
    for rest in permutations(range(2, n + 1)):
        seq = (1,) + rest
        if all((seq[i], seq[i + 1]) in D.edges for i in range(n - 1)) and (
            seq[-1],
            seq[0],
        ) in D.edges:
            count += 1
    return count


def descent_set_counts(D) -> list:
    """c[S], S a bitmask on [n-1] (bit j-1 for position j): the
    permutations whose D-descent set is S, by tallying S_n."""
    n = D.n
    c = [0] * (1 << max(n - 1, 0))
    for pi in permutations(range(1, n + 1)):
        c[sum(1 << (j - 1) for j in range(1, n) if (pi[j - 1], pi[j]) in D.edges)] += 1
    return c


def hook_descent_count(D, i: int) -> int:
    """Permutations whose D-descent set (positions j with
    (pi_j, pi_{j+1}) an edge of D) is exactly {i, ..., n-1}: the hook
    Schur coefficient [s_(i,1^(n-i))] U_D, by filtering S_n."""
    n = D.n
    target = set(range(i, n))
    return sum(
        1
        for pi in permutations(range(1, n + 1))
        if {j for j in range(1, n) if (pi[j - 1], pi[j]) in D.edges} == target
    )


# ------------------------------------------ descent-free permutations, records

def d_descent_set(D: Digraph, word) -> frozenset:
    """Positions i with (word[i-1], word[i]) an edge of D."""
    return frozenset(
        i for i in range(1, len(word)) if D.has_edge(word[i - 1], word[i])
    )


def record_positions(word) -> list:
    """Positions r (1-based) with word[r-1] greater than everything before it."""
    out, best = [], 0
    for r, v in enumerate(word, start=1):
        if v > best:
            out.append(r)
            best = v
    return out


def record_partition(word) -> tuple:
    """Gaps between successive record positions (last gap runs to n+1), sorted."""
    recs = record_positions(word)
    recs.append(len(word) + 1)
    gaps = [recs[t + 1] - recs[t] for t in range(len(recs) - 1)]
    return tuple(sorted(gaps, reverse=True))


def records_oracle(D) -> dict:
    """The permutations of [n] with no D-descent, tallied by record
    partition, by filtering S_n."""
    n = D.n
    out: dict = {}
    for pi in permutations(range(1, n + 1)):
        if not d_descent_set(D, pi):
            lam = record_partition(pi)
            out[lam] = out.get(lam, 0) + 1
    return out


def path_sets_oracle(D, k: int) -> dict:
    """Directed paths on exactly k distinct vertices, counted per vertex
    set (frozenset -> count), by explicit enumeration."""
    out: dict = {}
    if k == 0:
        out[frozenset()] = 1
        return out
    if k < 0 or k > D.n:
        return out

    def rec(seq):
        if len(seq) == k:
            key = frozenset(seq)
            out[key] = out.get(key, 0) + 1
            return
        for w in range(1, D.n + 1):
            if w not in seq and (seq[-1], w) in D.edges:
                rec(seq + [w])

    for v in range(1, D.n + 1):
        rec([v])
    return out


def walks_oracle(D, point, kverts: int):
    """Weighted count of walks on kverts vertices by explicit enumeration."""
    if kverts == 0:
        return 1
    total = 0

    def rec(v, weight, steps):
        nonlocal total
        if steps == kverts:
            total += weight
            return
        for w in range(1, D.n + 1):
            if (v, w) in D.edges:
                rec(w, weight * point[w - 1], steps + 1)

    for v in range(1, D.n + 1):
        rec(v, point[v - 1], 1)
    return total


def covers_by_edge_subsets(D) -> dict:
    """Path-cycle covers counted by brute force over edge subsets.

    Returns a dict (path partition, cycle partition) -> count; a vertex
    with no chosen edges is a singleton path.
    """
    edges = sorted(D.edges)
    n = D.n
    out: dict = {}
    for mask in range(1 << len(edges)):
        chosen = [edges[i] for i in range(len(edges)) if mask >> i & 1]
        outdeg: dict = {}
        indeg: dict = {}
        ok = True
        for u, v in chosen:
            outdeg[u] = outdeg.get(u, 0) + 1
            indeg[v] = indeg.get(v, 0) + 1
            if outdeg[u] > 1 or indeg[v] > 1:
                ok = False
                break
        if not ok:
            continue
        succ = dict(chosen)
        visited = set()
        paths, cycles = [], []
        for v in range(1, n + 1):
            if v in visited or v in indeg:
                continue
            comp = [v]
            visited.add(v)
            while comp[-1] in succ:
                comp.append(succ[comp[-1]])
                visited.add(comp[-1])
            paths.append(len(comp))
        for v in range(1, n + 1):
            if v in visited:
                continue
            comp = [v]
            visited.add(v)
            cur = succ[v]
            while cur != v:
                comp.append(cur)
                visited.add(cur)
                cur = succ[cur]
            cycles.append(len(comp))
        key = (
            tuple(sorted(paths, reverse=True)),
            tuple(sorted(cycles, reverse=True)),
        )
        out[key] = out.get(key, 0) + 1
    return out


def _mtilde_value(lam, letters) -> int:
    """mtilde_lam at the given letter values: the sum over injective maps
    from the parts of lam to the letters of prod letter^part."""
    return sum(
        prod(x ** part for x, part in zip(chosen, lam))
        for chosen in permutations(letters, len(lam))
    )


def chow_value_oracle(D, z, y, hat: bool = False) -> int:
    """Chow's path-cycle function of D at letter values z and y.

    Over the covers of covers_by_edge_subsets, Xi_D sums
    mtilde_paths(z) p_cycles(y), and Xi_hat_D (hat) sums
    (-2)^(number of cycles) mtilde_paths(z u y) p_cycles(y).
    """
    letters = tuple(z) + tuple(y) if hat else tuple(z)
    total = 0
    for (paths, cycles), count in covers_by_edge_subsets(D).items():
        weight = (-2) ** len(cycles) if hat else 1
        p_y = prod(sum(v ** k for v in y) for k in cycles)
        total += count * weight * _mtilde_value(paths, letters) * p_y
    return total


# ------------------------------------------------------ multilinear kernels

def permanent_expansion(M) -> int:
    """Permanent by recursive Laplace expansion."""
    n = len(M)

    def rec(r: int, used: int) -> int:
        if r == n:
            return 1
        total = 0
        for j in range(n):
            if used >> j & 1 or not M[r][j]:
                continue
            total += M[r][j] * rec(r + 1, used | 1 << j)
        return total

    return rec(0, 0)


def anchored_cycle_weights_oracle(A) -> list:
    """Weighted directed cycles on each vertex set (indexed by bitmask),
    listed as the orderings of the set that start at its smallest vertex."""
    n = len(A)
    out = []
    for mask in range(1 << n):
        verts = [v for v in range(n) if mask >> v & 1]
        total = 0
        if verts:
            for order in permutations(verts[1:]):
                cycle = (verts[0], *order, verts[0])
                total += prod(A[u][v] for u, v in zip(cycle, cycle[1:]))
        out.append(total)
    return out


def cycle_cover_sums(w: list) -> list:
    """out[S]: the sum over the set partitions of S (as bitmasks) of the
    product of the block weights w[m], one scalar step per pair of a mask
    and a block holding its lowest vertex (3^n steps)."""
    out = [0] * len(w)
    out[0] = 1
    for S in range(1, len(w)):
        a = S & -S
        rest = S ^ a
        T = rest
        while True:
            out[S] += w[T | a] * out[rest ^ T]
            if T == 0:
                break
            T = (T - 1) & rest
    return out


# ------------------------------------------------------- multilinear ring
#
# An element of Z[x_1..x_n]/(x_i^2) is a term dict {key: coefficient}:
# bit i-1 of a key marks x_i, and bits from n up (the degree fields of
# ringmat.matrix_series) add under products.

def ring_mul(f: dict, g: dict, n: int) -> dict:
    """f * g in n variables: terms whose supports (the low n bits) meet
    vanish, the others' keys add; zero sums are dropped."""
    low = (1 << n) - 1
    out: dict = {}
    for k1, c1 in f.items():
        for k2, c2 in g.items():
            if not k1 & k2 & low:
                out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def ring_add(f: dict, g: dict) -> dict:
    """f + g, zero sums dropped."""
    out = dict(f)
    for k, c in g.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def variable(i: int, c=1) -> dict:
    """c * x_i."""
    return {1 << (i - 1): c}


def coeff_extract(f: dict, verts):
    """The coefficient functional: read off the monomial over the vertex set."""
    return f.get(sum(1 << (v - 1) for v in set(verts)), 0)


def identity_minus_xa(A) -> list:
    """I - XA over the multilinear ring with integer coefficients."""
    return _identity_plus_signed_xa(A, -1)


def identity_plus_xa(A) -> list:
    """I + XA over the multilinear ring with integer coefficients."""
    return _identity_plus_signed_xa(A, 1)


def matrix_series_oracle(A, kind: str) -> list:
    """H_z(XA) = sum_k h_k (XA)^k (kind "H"), or E_z(XA) with e_k, over
    the multilinear ring with SymFun coefficients.  The x_S coefficient
    of (XA)^k at (i, j), k = |S|, sums the walks i = v_0 -> ... -> v_k = j
    whose first k vertices are S, listed as orderings of S from i."""
    n = len(A)
    basis = kind.lower()
    out = []
    for i in range(n):
        others = [v for v in range(n) if v != i]
        row = []
        for j in range(n):
            by_mask: dict = {}
            for k in range(1, n + 1):
                for rest in permutations(others, k - 1):
                    walk = (i, *rest, j)
                    w = prod(A[u][v] for u, v in zip(walk, walk[1:]))
                    mask = sum(1 << v for v in walk[:-1])
                    by_mask[mask] = by_mask.get(mask, 0) + w
            terms = {
                mask: SymFun.element(basis, (mask.bit_count(),)) * c
                for mask, c in by_mask.items()
            }
            if i == j:
                terms[0] = SymFun.const(1, basis)
            row.append({mask: c for mask, c in terms.items() if c})
        out.append(row)
    return out


def _identity_plus_signed_xa(A, sign: int) -> list:
    n = len(A)
    return [
        [
            {k: c for k, c in ((0, int(i == j)), (1 << i, sign * A[i][j])) if c}
            for j in range(n)
        ]
        for i in range(n)
    ]


# ------------------------------------------------ determinant and inverse

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


def det_ring_leibniz(M, n: int) -> dict:
    """det M over the multilinear ring in n variables, by the Leibniz sum:
    each permutation's signed product expanded by ring_mul."""
    total: dict = {}
    for sigma in permutations(range(len(M))):
        terms = {0: sgn(tuple(j + 1 for j in sigma))}
        for row, j in zip(M, sigma):
            terms = ring_mul(terms, row[j], n)
        total = ring_add(total, terms)
    return total


def multilinear_inverse(f: dict, n: int) -> dict:
    """Inverse of f in n variables; needs an invertible scalar constant term.

    With f = c0 (1 - g) and g nilpotent, f^(-1) = (1 + g + g^2 + ...) / c0.
    """
    c0 = f.get(0, 0)
    if not isinstance(c0, (int, Fraction)) or not c0:
        raise ZeroDivisionError("constant term is not an invertible scalar")
    inv0 = 1 / Fraction(c0)
    g = {m: -c * inv0 for m, c in f.items() if m}
    acc = power = {0: inv0}
    for _ in range(n):
        power = ring_mul(power, g, n)
        if not power:
            break
        acc = ring_add(acc, power)
    return acc


# ------------------------------------------------ permutations tied to edges

def perms_with_cycles_oracle(D, either: bool = False) -> list:
    """Permutations of [n], as dicts, whose cycles of length >= 2 each step
    along edges of D, or (either=True) each step wholly along edges of D
    or wholly along non-edges; by filtering all of them."""
    vs = range(1, D.n + 1)
    out = []
    for images in permutations(vs):
        sigma = dict(zip(vs, images))
        ok = True
        for v in vs:
            cyc = [v]
            while sigma[cyc[-1]] != v:
                cyc.append(sigma[cyc[-1]])
            if len(cyc) < 2:
                continue
            steps = [(cyc[t], cyc[(t + 1) % len(cyc)]) for t in range(len(cyc))]
            in_d = [e in D.edges for e in steps]
            if not (all(in_d) or (either and not any(in_d))):
                ok = False
                break
        if ok:
            out.append(sigma)
    return out


# ---------------------------------------------- helpers only the tests use
#
# Small conveniences the package itself never calls.  character_degree and
# inner_product read the package's character table and p-basis conversion,
# and is_p_positive its p-basis conversion, so they test those, not stand
# in for them.  sgn, psi and foata_linearize read cycles_of here.
# variable, induced, subdigraph and symfun_from_json_dict build inputs
# through the package's validating constructors.

def permutations_of(n: int):
    """All permutations of [n] in one-line notation, lexicographic."""
    return permutations(range(1, n + 1))


def perm_to_dict(sigma: tuple) -> dict:
    return {i: v for i, v in enumerate(sigma, start=1)}


def cycles_of(sigma) -> list:
    """Disjoint cycles, each starting at its minimum, ordered by minimum.

    Accepts one-line tuples (domain [n]) or dicts on any finite domain.
    Successive entries follow sigma: cycle (c0, c1, ...) has sigma(ct) = c(t+1).
    """
    mapping = perm_to_dict(sigma) if isinstance(sigma, tuple) else sigma
    seen = set()
    cycles = []
    for start in sorted(mapping):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        cur = mapping[start]
        while cur != start:
            cyc.append(cur)
            seen.add(cur)
            cur = mapping[cur]
        cycles.append(tuple(cyc))
    return cycles


def cycle_type(sigma) -> tuple:
    return tuple(sorted((len(c) for c in cycles_of(sigma)), reverse=True))


def perm_from_cycles(n: int, cycles) -> tuple:
    """One-line permutation of [n] from disjoint cycles (fixed points omitted)."""
    img = list(range(1, n + 1))
    for cyc in cycles:
        for t, v in enumerate(cyc):
            img[v - 1] = cyc[(t + 1) % len(cyc)]
    return tuple(img)


def is_digraph_cycle(cyc, D) -> bool:
    """True iff following the cycle (incl. closing step) walks along edges.

    A fixed point (v,) requires the loop (v, v).
    """
    k = len(cyc)
    return all((cyc[t], cyc[(t + 1) % k]) in D.edges for t in range(k))


def phi(sigma: tuple, D) -> int:
    """Sum of (length - 1) over the cycles of the one-line permutation sigma
    that are cycles of D."""
    total, seen = 0, set()
    for start in range(1, len(sigma) + 1):
        if start in seen:
            continue
        cyc = [start]
        while sigma[cyc[-1] - 1] != start:
            cyc.append(sigma[cyc[-1] - 1])
        seen.update(cyc)
        if is_digraph_cycle(cyc, D):
            total += len(cyc) - 1
    return total


def sgn(sigma) -> int:
    return sgn_of_type(cycle_type(sigma))


def psi(sigma) -> int:
    """Number of nontrivial (length >= 2) cycles."""
    return sum(1 for c in cycles_of(sigma) if len(c) >= 2)


def foata_linearize(sigma: tuple) -> tuple:
    """One-line word listing each cycle as (max, preimage of max, ...),
    cycles concatenated in increasing order of their maxima.

    Bijection on permutations of [n] with record_partition(foata(sigma))
    equal to cycle_type(sigma).
    """
    n = len(sigma)
    inv = [0] * (n + 1)
    for i, v in enumerate(sigma, start=1):
        inv[v] = i
    word = []
    for cyc in sorted(cycles_of(sigma), key=max):
        cur = max(cyc)
        for _ in cyc:
            word.append(cur)
            cur = inv[cur]
    return tuple(word)


def random_acyclic_digraph(n: int, p: float, seed) -> Digraph:
    """Random digraph whose edges all descend through a random vertex order."""
    if not 0 <= p <= 1:  # also rejects NaN
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    rng = random.Random(seed)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    rank = {v: i for i, v in enumerate(order)}
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(1, n + 1)
        if u != v and rank[u] > rank[v] and rng.random() < p
    ]
    return Digraph(n, frozenset(edges))


def all_tournaments(n: int):
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    for mask in range(1 << len(pairs)):
        yield Digraph(
            n,
            frozenset(
                (u, v) if mask >> i & 1 else (v, u)
                for i, (u, v) in enumerate(pairs)
            ),
        )


def z_alphabet(f: SymFun) -> TwoAlphabetSymFun:
    """f in the z alphabet alone, read off its p expansion."""
    return TwoAlphabetSymFun({(lam, ()): c for lam, c in to_p(f).terms.items()})


def y_alphabet(f: SymFun) -> TwoAlphabetSymFun:
    """f in the y alphabet alone, read off its p expansion."""
    return TwoAlphabetSymFun({((), lam): c for lam, c in to_p(f).terms.items()})


def joint_p(lam) -> TwoAlphabetSymFun:
    """p_lam over the union alphabet: the product of p_k(z) + p_k(y)."""
    out = TwoAlphabetSymFun({((), ()): 1})
    for k in lam:
        out = out * TwoAlphabetSymFun({((k,), ()): 1, ((), (k,)): 1})
    return out


def equals(f: SymFun, g: SymFun) -> bool:
    """Basis-independent equality, through the p expansions."""
    return to_p(f).terms == to_p(g).terms


def dominates(lam, mu) -> bool:
    """True iff lam >= mu in dominance order (equal weights assumed)."""
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            return False
    return True


def swap_labels(D: Digraph, i: int, j: int) -> Digraph:
    """D with the labels of vertices i and j exchanged."""
    swap = {i: j, j: i}
    return Digraph(D.n, frozenset((swap.get(u, u), swap.get(v, v)) for u, v in D.edges))


def _vertex_subset(D: Digraph, verts) -> list:
    """The sorted vertex subset, each vertex checked to lie in [n]."""
    vs = sorted(set(verts))
    if not all(v in D.vertices() for v in vs):
        raise ValueError("vertex subset out of range")
    return vs


def induced(D: Digraph, verts) -> Digraph:
    """Restrict the edge set to verts x verts; labels are kept."""
    vs = set(_vertex_subset(D, verts))
    return Digraph(D.n, frozenset(e for e in D.edges if e[0] in vs and e[1] in vs))


def subdigraph(D: Digraph, verts) -> Digraph:
    """The subdigraph induced on verts, relabeled 1..k in increasing order."""
    label = {v: i for i, v in enumerate(_vertex_subset(D, verts), 1)}
    return Digraph(
        len(label),
        frozenset((label[u], label[v]) for u, v in D.edges if u in label and v in label),
    )


def symfun_from_json_dict(data: dict) -> SymFun:
    """The SymFun that SymFun.to_json_dict wrote."""
    terms: dict = {}
    for item in data["terms"]:
        lam = tuple(item["partition"])
        terms[lam] = terms.get(lam, 0) + Fraction(item["coeff"])
    return SymFun(data["basis"], terms)


def is_p_positive(f) -> bool:
    fp = to_p(f)
    return all(c > 0 for c in fp.terms.values())


def is_two_cycle_free(D) -> bool:
    """No loops and no antiparallel pair of edges."""
    return all(u != v and (v, u) not in D.edges for (u, v) in D.edges)


def descent_composition(descents, n: int) -> tuple:
    """Composition of n whose partial-sum set is the given descent set."""
    cuts = sorted(descents)
    if cuts and not (1 <= cuts[0] and cuts[-1] <= n - 1):
        raise ValueError("descents must lie in [1, n-1]")
    prev, parts = 0, []
    for c in cuts + [n]:
        parts.append(c - prev)
        prev = c
    return tuple(parts)


def composition_descents(alpha) -> frozenset:
    """Partial sums of alpha except the last."""
    out, acc = [], 0
    for part in alpha[:-1]:
        acc += part
        out.append(acc)
    return frozenset(out)


def character_degree(lam) -> int:
    """chi^lam at the identity class."""
    return character(tuple(lam), (1,) * sum(lam))


def inner_product(f, g) -> Fraction:
    """Hall inner product, <p_lam, p_mu> = delta * z_lam."""
    fp, gp = to_p(f).terms, to_p(g).terms
    return sum(
        (c * gp[lam] * z_lambda(lam) for lam, c in fp.items() if lam in gp),
        Fraction(0),
    )


# ------------------------------------------------------ Schur coefficients

def schur_coeff_JT(D: Digraph, lam) -> int:
    """[s_lam] U_D for one partition lam of n by the schur-JT route's two
    Jacobi-Trudi forms (redei._schur_JT), which must agree."""
    lam = tuple(lam)
    if sum(lam) != D.n:
        raise ValueError("lam must be a partition of n")
    return _schur_JT(D, [lam])[lam]


@lru_cache(maxsize=None)
def _hk_in_p(k: int) -> tuple:
    """h_k as (nu, 1 / z_nu) pairs over the partitions nu of k."""
    return tuple((nu, Fraction(1, _z_of(nu))) for nu in _partitions_revlex(k))


def h_pairings_oracle(lam) -> dict:
    """{mu: <h_lam, p_mu>} over the mu where it is not 0, as z_mu times
    [p_mu] of the product of the Fraction expansions _hk_in_p(k) over the
    parts k of lam."""
    cur = {(): Fraction(1)}
    for k in lam:
        nxt: dict = {}
        for mu1, c1 in cur.items():
            for mu2, c2 in _hk_in_p(k):
                key = tuple(sorted(mu1 + mu2, reverse=True))
                nxt[key] = nxt.get(key, 0) + c1 * c2
        cur = nxt
    return {mu: c * _z_of(mu) for mu, c in cur.items() if c}


def to_p_by_pairings_oracle(f: SymFun) -> dict:
    """The p terms of f in the s, h or e basis, one term at a time: b_lam
    is the sum over the classes mu of <b_lam, p_mu> / z_mu p_mu, with
    <s_lam, p_mu> from irreducible_characters_oracle, <h_lam, p_mu> the
    permutation-module character and <e_lam, p_mu> that times sgn(mu)."""
    out: dict = {}
    for lam, c in f.terms.items():
        for mu in _partitions_revlex(sum(lam)):
            if f.basis == "s":
                pairing = irreducible_characters_oracle(sum(lam))[lam][mu]
            else:
                pairing = permutation_module_character(lam, mu)
                if f.basis == "e":
                    pairing *= sgn_of_type(mu)
            out[mu] = out.get(mu, 0) + c * Fraction(pairing, _z_of(mu))
    return {mu: c for mu, c in out.items() if c}
