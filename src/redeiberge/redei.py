"""The descent symmetric function U_D of a digraph, by independent routes.

U_D is the sum over permutations pi of [n] of the fundamental
quasisymmetric function indexed by the positions i where (pi_i, pi_{i+1})
is an edge of D.  It is symmetric, and this module computes it by
several structurally different algorithms that are checked against each
other:

- "F-definition"   literal definition: a descent-set DP, read off the M basis
- "path-cover"     augmented monomials over path covers of the complement
- "powersum-GS"    signed power sums over permutations whose nontrivial
                   cycles lie in D or its complement
- "subset-formula" exponential formula over set partitions: a block is a
                   cycle of the complement or a signed cycle of D
- "matrix-det"     coefficient extraction from det H(X Abar) det E(X A)
- "schur-JT"       Schur coefficients from path-polynomial determinants
                   (Jacobi-Trudi style, both transposed forms)
- "immanant-LR"    immanants against Littlewood-Richardson coefficients
- "acyclic-*"      closed forms valid for acyclic D
- "tournament"     odd-cycle power sum form valid for tournaments

The same machinery yields the two-alphabet path-cycle functions Xi_D and
Xi_hat_D together with their complementation identities.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import factorial
from typing import Callable, NamedTuple

from .combinat import (
    conjugate,
    hook_partition,
    multiplicity_factorial,
    partitions_of,
)
from .digraph import (
    Digraph,
    complement,
    descent_free_records,
    enumerate_cycle_covers,
    enumerate_path_covers,
    enumerate_path_cycle_covers,
    has_only_descending_edges,
    is_acyclic,
    is_tournament,
    per_digraph,
    perms_with_all_cycles_in,
    perms_with_cycles_in_either,
)
from .guards import DisagreementError, guard
from .hamilton import cycle_weights, ham_dp
from .ringmat import (
    _signed_cycles,
    det_ring,
    immanant,
    matrix_series,
    series_coefficients,
    subset_exp,
    submatrix,
)
from .symfun import (
    SymFun,
    TwoAlphabetSymFun,
    _mtilde_to_p,
    _with_terms,
    convert,
    littlewood_richardson,
    to_p,
)
from .walks import xi

# Largest n of the path-cycle functions and of their identity check.
CHOW_BOUND = 6
CHOW_IDENTITIES_BOUND = 5


# --------------------------------------------------------------- fundamentals

@per_digraph
def _descent_counts(D: Digraph) -> tuple:
    """c[S], S a bitmask on [n-1] (bit i-1 for position i): the number of
    permutations of [n] whose D-descent set is S.  T[R][v] packs in W-bit
    fields, W = (n!).bit_length(), the orderings of the vertex set R that
    end at v, field d counting those with descent mask d.  Appending w
    outside R adds T[R][v] to T[R | w][w], shifted by W * 2^(|R|-1) when
    v -> w is an edge of D (a descent at position |R|); loops are ignored.
    A tuple, as F-definition and hook_coefficient may share it."""
    n = D.n
    if n == 0:
        return (1,)
    W = factorial(n).bit_length()
    A = D.adjacency()
    preds = [[u for u in range(n) if A[u][w] and u != w] for w in range(n)]
    T = [[0] * n for _ in range(1 << n)]
    for v in range(n):
        T[1 << v][v] = 1
    for R in range(1, (1 << n) - 1):
        row, total, shift = T[R], sum(T[R]), W << (R.bit_count() - 1)
        for w in range(n):
            if not R >> w & 1:
                b = sum([row[v] for v in preds[w]])
                T[R | 1 << w][w] += total - b + (b << shift)
    packed, mask = sum(T[-1]), (1 << W) - 1
    return tuple(packed >> W * d & mask for d in range(1 << (n - 1)))


def u_via_fundamental(D: Digraph) -> SymFun:
    """Literal definition, read off the quasisymmetric M basis.

    Counts the permutations by D-descent set S (_descent_counts); as F_S
    is the sum of M_T over T containing S, one subset-sum pass gives the
    M coefficient a_T of U_D.  U_D is symmetric, so every composition
    alpha (T its set of partial sums) that rearranges lam must carry the
    same a_T, which is then [m_lam] U_D; a composition that differs raises
    ValueError.
    """
    n = D.n
    _admit("F-definition", D)
    a = list(_descent_counts(D))  # summed in place below
    for i in range(n - 1):
        bit = 1 << i
        for T in range(len(a)):
            if T & bit:
                a[T] += a[T ^ bit]
    m_coeff: dict = {}
    for T, coeff in enumerate(a):
        cuts = [0] + [i for i in range(1, n) if T >> (i - 1) & 1] + [n]
        # at n = 0 the one composition is empty, and U_D = 1
        parts = [b - c for c, b in zip(cuts, cuts[1:]) if b > c]
        lam = tuple(sorted(parts, reverse=True))
        if m_coeff.setdefault(lam, coeff) != coeff:
            raise ValueError(
                f"U_D is not symmetric: M coefficients {m_coeff[lam]} and"
                f" {coeff} for rearrangements of {lam}"
            )
    return SymFun(
        "mtilde",
        {
            lam: Fraction(c, multiplicity_factorial(lam))
            for lam, c in m_coeff.items()
        },
    )


# ---------------------------------------------------------------- path covers

def u_via_path_covers(D: Digraph) -> SymFun:
    """Augmented monomials of path partitions over path covers of the
    complement."""
    _admit("path-cover", D)
    tally = enumerate_path_covers(complement(D))
    return SymFun("mtilde", {lam: c for (lam, _), c in tally.items()})


# ----------------------------------------------------------- power sum routes

def u_via_powersum_GS(D: Digraph) -> SymFun:
    """Signed power sums over permutations each of whose nontrivial cycles
    is a cycle of D or a cycle of its complement; the sign twists each
    D-cycle by (-1)^(length-1).  The walk tallies the permutations by
    (cycle type, sign)."""
    _admit("powersum-GS", D)
    out = Counter()
    for (lam, s), c in perms_with_cycles_in_either(D).items():
        out[lam] += s * c
    return SymFun("p", out)


def u_via_subset_formula(D: Digraph) -> SymFun:
    """Exponential formula over the set partitions of [n]: a block B of
    size k weighs (cyc_Dbar(B) + (-1)^(k-1) cyc_D(B)) p_k, where cyc
    counts the directed cycles on exactly B.  Grouped by vertex sets,
    these are unsigned cycle covers of the complement against signed
    cycle covers of D."""
    _admit("subset-formula", D)
    cyc = _signed_cycles(cycle_weights(D))
    cyc_bar = cycle_weights(complement(D))
    w = [a + b for a, b in zip(cyc_bar, cyc)]
    return SymFun("p", {lam: c for (lam,), c in subset_exp(w).items()})


# --------------------------------------------------------------- matrix route

def u_via_matrix_route(D: Digraph) -> SymFun:
    """Extract the squarefree full-support coefficient of
    det H(X Abar) * det E(X A) over the multilinear ring.

    Both determinants are taken over integer coefficients, the h and e
    degrees packed into each term's key (ringmat.matrix_series); they
    are read back as h- and e-basis coefficients per vertex set, and
    complementary sets multiply in p."""
    n = D.n
    _admit("matrix-det", D)
    if n == 0:
        return SymFun.const(1)
    H = matrix_series(complement(D).adjacency())
    E = matrix_series(D.adjacency())
    det_h = series_coefficients(det_ring(H, n), n, "H")
    det_e = series_coefficients(det_ring(E, n), n, "E")
    full = (1 << n) - 1
    terms: dict = {}
    for mask, ch in det_h.items():
        ce = det_e.get(full ^ mask)
        if ce:
            for lam, c in (ch * ce).terms.items():
                terms[lam] = terms.get(lam, 0) + c
    return SymFun("p", terms)


# ------------------------------------------------------------- Schur routes

def _schur_JT(D: Digraph, lams) -> dict:
    """{lam: [s_lam] U_D} for the given partitions of n by shape lam on
    the complement's path polynomials and lam' on D's own, which must
    agree; the path polynomials of D and of its complement built once."""
    xis_bar, xis = xi(complement(D)), xi(D)
    out = {}
    for lam in lams:
        a = _jt_coefficient(xis_bar, lam)
        b = _jt_coefficient(xis, conjugate(lam))
        if a != b:
            raise DisagreementError(
                f"Jacobi-Trudi forms disagree for {lam}: {a} vs {b}"
            )
        out[lam] = a
    return out


def _jt_coefficient(xis: list, lam: tuple) -> int:
    """Full-support coefficient of det [xi_{lam_i - i + j}], xis = xi(D);
    an index outside 0..n reads as 0."""
    n = len(xis) - 1
    M = [
        [xis[k] if 0 <= k <= n else {} for k in range(part - i, part - i + len(lam))]
        for i, part in enumerate(lam)
    ]
    return det_ring(M, n).get((1 << n) - 1, 0)


def u_via_schur_JT(D: Digraph) -> SymFun:
    _admit("schur-JT", D)
    coeffs = _schur_JT(D, partitions_of(D.n))
    return SymFun("s", {lam: c for lam, c in coeffs.items() if c})


def u_via_immanant_LR(D: Digraph) -> SymFun:
    """Immanants of complementary principal submatrices paired through
    Littlewood-Richardson coefficients: imm_lam(Abar[I^c]) imm_mu'(A[I])
    is summed per pair (lam, mu) over the vertex sets I, one immanant
    call per nonempty submatrix, and each sum is expanded by c^nu_{lam mu}."""
    n = D.n
    _admit("immanant-LR", D)
    A = D.adjacency()
    Abar = complement(D).adjacency()
    verts = list(D.vertices())
    pairs: dict = {}
    for k in range(n + 1):
        for I in combinations(verts, k):
            Ic = [v for v in verts if v not in I]
            imm_a = immanant(submatrix(A, I)) if k else {(): 1}
            imm_abar = immanant(submatrix(Abar, Ic)) if n - k else {(): 1}
            for (rho, a), (lam, b) in product(imm_a.items(), imm_abar.items()):
                if a and b:
                    key = (lam, conjugate(rho))
                    pairs[key] = pairs.get(key, 0) + a * b
    out: dict = {}
    for (lam, mu), weight in pairs.items():
        for nu in partitions_of(n):
            c = littlewood_richardson(lam, mu, nu)
            if c:
                out[nu] = out.get(nu, 0) + weight * c
    return SymFun("s", out)


# ------------------------------------------------------------ special classes

def u_acyclic(D: Digraph, flavor: str = "powersum") -> SymFun:
    """Closed forms for acyclic digraphs.

    powersum: unsigned cycle covers of the complement over [n].
    schur:    immanants of the complement's adjacency matrix.
    records:  record partitions of the permutations with no D-descent,
              from the cover walk (descent_free_records); valid when
              every edge descends (u > v).
    """
    _admit(f"acyclic-{flavor}", D)
    if flavor == "powersum":
        tally = enumerate_cycle_covers(complement(D))
        return SymFun("p", {lam: c for (_, lam), c in tally.items()})
    if flavor == "schur":
        imms = immanant(complement(D).adjacency())
        return SymFun("s", {lam: c for lam, c in imms.items() if c})
    # records: _admit has rejected every other flavor
    return SymFun("p", descent_free_records(D))


def u_tournament(D: Digraph) -> SymFun:
    """Odd-cycle power sum form: permutations all of whose cycles are
    odd cycles of D, weighted by 2^(number of nontrivial cycles); the
    cycle types are read off the walk's tally."""
    _admit("tournament", D)
    out = Counter()
    for (lam, _), c in perms_with_all_cycles_in(D).items():
        if all(part % 2 for part in lam):
            out[lam] += c << sum(1 for part in lam if part >= 2)
    return SymFun("p", out)


def powersum_to_ones(f: SymFun):
    """Evaluate with every p_k set to 1 (counts objects by forgetting type)."""
    fp = to_p(f)
    return sum(fp.terms.values(), Fraction(0))


# -------------------------------------------------------------------- hooks

def hook_coefficient(D: Digraph) -> list:
    """[s_(i,1^(n-i))] U_D for i = 1..n, read off the descents: the number
    of permutations whose D-descent set is exactly {i, ..., n-1}, read
    off _descent_counts, the DP of F-definition, so it admits the n that
    route admits."""
    n = D.n
    guard("u_hooks", n, ROUTES["F-definition"].bound)
    c = _descent_counts(D)
    return [c[(1 << (n - 1)) - (1 << (i - 1))] for i in range(1, n + 1)]


def check_hooks(D: Digraph, u_schur: SymFun) -> None:
    """Check each hook [s_(i,1^(n-i))] u_schur, i = 1..n, against its
    descent count hook_coefficient(D)[i-1], then the end hooks against
    ham_dp of D (i = 1) and of its complement (i = n); u_schur is U_D in
    the Schur basis, as schur-JT gives it.  DisagreementError names the
    first hook that differs.  At n = 0 there is no hook to read."""
    hooks = [u_schur.coefficient(hook_partition(i, D.n)) for i in range(1, D.n + 1)]
    for i, (value, count) in enumerate(zip(hooks, hook_coefficient(D)), start=1):
        if value != count:
            raise DisagreementError(
                f"hook {i}: determinant {value} != descent count {count}"
            )
    if hooks and (hooks[0], hooks[-1]) != (ham_dp(D), ham_dp(complement(D))):
        raise DisagreementError(f"hook read-off mismatch: {hooks[0]}, {hooks[-1]}")


# ------------------------------------------------------------- Chow functions

def chow_xi(D: Digraph, route: str = "direct") -> TwoAlphabetSymFun:
    """Path-cycle function: augmented monomials in z on path partitions
    times power sums in y on cycle partitions, over path-cycle covers."""
    guard("chow", D.n, CHOW_BOUND)
    if route == "direct":
        return _chow_weigh(enumerate_path_cycle_covers(D), 1)
    if route == "powersum":
        return _chow_xi_powersum(D)
    raise ValueError(f"unknown route {route!r}")


def _chow_weigh(tally: Counter, w: int) -> TwoAlphabetSymFun:
    """Sum over the tallied covers of w^(number of cycles) times
    mtilde_(path partition)(z) * p_(cycle partition)(y)."""
    terms: dict = {}
    for (plam, clam), c in tally.items():
        c *= w ** len(clam)
        for mu, d in _mtilde_to_p(plam):
            terms[(mu, clam)] = terms.get((mu, clam), 0) + c * d
    return _with_terms(TwoAlphabetSymFun(), terms)


def _chow_xi_powersum(D: Digraph) -> TwoAlphabetSymFun:
    """Exponential formula over the set partitions of [n] in two
    alphabets: a block B of size k weighs v(B) p_k(z) + cyc_D(B) p_k(y),
    v(B) = (-1)^(k-1) cyc_Dbar(B) + cyc_D(B).  Grouped by vertex sets,
    these are signed cycle covers of the complement in z against cycle
    covers of D in the union alphabet z u y."""
    cyc = cycle_weights(D)
    cyc_bar = _signed_cycles(cycle_weights(complement(D)))
    v = [a + b for a, b in zip(cyc_bar, cyc)]
    return _with_terms(TwoAlphabetSymFun(), subset_exp(v, cyc))


def chow_xi_hat(D: Digraph) -> TwoAlphabetSymFun:
    """Variant with augmented monomials over the union alphabet and
    cycle weight (-2) per cycle.

    Since mtilde_lam(z u y) = z_to_zy(mtilde_lam(z)), and z_to_zy leaves
    p(y) alone, this is the (-2)-weighted cover tally read as
    mtilde(z) p(y), with the union alphabet then substituted for z.
    """
    guard("chow", D.n, CHOW_BOUND)
    return _chow_weigh(enumerate_path_cycle_covers(D), -2).z_to_zy()


def u_from_chow(D: Digraph) -> SymFun:
    """U_D as the y = 0 specialization of the complement's path-cycle
    function, read off the two-alphabet kernel chow_xi(Dbar, "powersum").
    Against the U_D the routes agreed on, this checks that kernel at
    y = 0, not path-cover: no cover is enumerated."""
    return chow_xi(complement(D), "powersum").y_to_zero().z_part()


def verify_chow_identities(D: Digraph) -> None:
    """Complementation identities for the path-cycle functions.

    Checks that omega on z after y -> -y, then substituting the union
    alphabet for z, turns Xi of the complement into Xi of D; the
    analogous statement for Xi_hat without the final substitution; and
    that the direct Xi of D equals its powersum route.  Raises
    DisagreementError naming every check that fails.
    """
    guard("chow_identities", D.n, CHOW_IDENTITIES_BOUND)
    # Xi and Xi_hat of D and of its complement, from one tally each
    covers = enumerate_path_cycle_covers(D)
    covers_bar = enumerate_path_cycle_covers(complement(D))
    lhs = _chow_weigh(covers_bar, 1).negate_y().omega_z().z_to_zy()
    rhs = _chow_weigh(covers, 1)
    lhs_hat = _chow_weigh(covers, -2).z_to_zy().negate_y().omega_z()
    rhs_hat = _chow_weigh(covers_bar, -2).z_to_zy()
    failures = [
        _first_difference(label, a, b)
        for label, a, b in (
            ("full transform", lhs, rhs),
            ("hat transform", lhs_hat, rhs_hat),
            ("powersum route", rhs, chow_xi(D, "powersum")),
        )
        if a != b
    ]
    if failures:
        raise DisagreementError("; ".join(failures))


def _first_difference(label: str, a, b) -> str:
    """Where two values with .terms (SymFun in one basis, or
    TwoAlphabetSymFun) first differ, by sorted key."""
    keys = sorted(set(a.terms) | set(b.terms))
    for key in keys:
        ca = a.terms.get(key, 0)
        cb = b.terms.get(key, 0)
        if ca != cb:
            return f"{label}: coefficient at {key} differs, {ca} vs {cb}"
    return f"{label}: no differing coefficient found"


# ------------------------------------------------------------ route plumbing

@dataclass
class URouteResult:
    route: str
    value: SymFun
    elapsed_ms: float

    def to_json_dict(self, include_timings: bool = False) -> dict:
        out = {"route": self.route, **self.value.to_json_dict()}
        if include_timings:
            out["elapsed_ms"] = round(self.elapsed_ms, 3)
        return out


class Route(NamedTuple):
    """A U_D route: the function computing it, the largest n it runs at,
    and the property a digraph needs for it to apply (None: any)."""

    fn: Callable
    bound: int
    precondition: Callable | None = None


# Route name -> Route, in the order of applicable_routes, which is the
# order of the routes in `u --routes all` output.  Each row looks its
# function up by name when called, so a wrapper put on the module's
# function (a test stub, bench/tracer.py) is the one that runs.
ROUTES = {
    "F-definition": Route(lambda D: u_via_fundamental(D), 7),
    "path-cover": Route(lambda D: u_via_path_covers(D), 8),
    "powersum-GS": Route(lambda D: u_via_powersum_GS(D), 8),
    "subset-formula": Route(lambda D: u_via_subset_formula(D), 7),
    "matrix-det": Route(lambda D: u_via_matrix_route(D), 6),
    "schur-JT": Route(lambda D: u_via_schur_JT(D), 7),
    "immanant-LR": Route(lambda D: u_via_immanant_LR(D), 6),
    "acyclic-powersum": Route(lambda D: u_acyclic(D, "powersum"), 8, is_acyclic),
    "acyclic-schur": Route(lambda D: u_acyclic(D, "schur"), 6, is_acyclic),
    "acyclic-records": Route(
        lambda D: u_acyclic(D, "records"), 8, has_only_descending_edges
    ),
    "tournament": Route(lambda D: u_tournament(D), 8, is_tournament),
}

# The route behind u_digraph, `u --routes default` and the identity
# suite's checks on the complement and the opposite.
DEFAULT_ROUTE = "powersum-GS"


def _admit(name: str, D: Digraph) -> None:
    """Raise unless route `name` may run on D: ValueError for an unknown
    route or an unmet precondition, GuardError above its bound."""
    route = ROUTES.get(name)
    if route is None:
        raise ValueError(f"unknown route {name!r}")
    guard(f"route {name}", D.n, route.bound)
    if route.precondition and not route.precondition(D):
        raise ValueError(f"route {name} needs {route.precondition.__name__}(D)")


def applicable_routes(D: Digraph) -> list:
    """Routes whose bounds and preconditions admit this digraph."""
    return [
        name
        for name, r in ROUTES.items()
        if D.n <= r.bound and (r.precondition is None or r.precondition(D))
    ]


def compute_route(D: Digraph, route: str) -> URouteResult:
    fn = ROUTES[route].fn
    t0 = time.perf_counter()
    value = fn(D)
    return URouteResult(
        route=route,
        value=value,
        elapsed_ms=(time.perf_counter() - t0) * 1000,
    )


def u_all_routes(D: Digraph, routes=None) -> list:
    """Results of the given routes, default every applicable one.

    Given routes, each named once, are all admitted (known name, bound,
    precondition) before any of them runs.
    """
    if routes is None:
        routes = applicable_routes(D)
    else:
        for k, r in enumerate(routes):
            if r in routes[:k]:
                raise ValueError(f"route {r!r} is given twice")
            _admit(r, D)
    return [compute_route(D, r) for r in routes]


def routes_agree(results) -> SymFun:
    """The route results' common p form.

    DisagreementError names the first route that differs from the first
    one and the first partition where they differ; ValueError means there
    is nothing to compare.
    """
    if not results:
        raise ValueError("no route results to compare")
    first, *rest = results
    want = to_p(first.value)
    for res in rest:
        got = to_p(res.value)
        if got.terms != want.terms:
            label = f"routes disagree: {res.route} differs from {first.route}"
            raise DisagreementError(_first_difference(label, got, want))
    return want


def u_digraph(D: Digraph, basis: str = "p") -> SymFun:
    """U_D by DEFAULT_ROUTE, in the requested basis."""
    return convert(ROUTES[DEFAULT_ROUTE].fn(D), basis)
