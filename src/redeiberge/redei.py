"""The descent symmetric function U_D of a digraph, by independent routes.

U_D is the sum over permutations pi of [n] of the fundamental
quasisymmetric function indexed by the positions i where (pi_i, pi_{i+1})
is an edge of D.  It is symmetric, and this module computes it by
several structurally different algorithms that are checked against each
other:

- "F-definition"   literal sum of fundamentals, lifted off monomials
- "path-cover"     augmented monomials over path covers of the complement
- "powersum-GS"    signed power sums over permutations whose nontrivial
                   cycles lie in D or its complement
- "subset-formula" cycle covers of complementary vertex sets, signed on
                   the D side
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
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations as _it_permutations
from typing import Callable, NamedTuple

from .combinat import (
    conjugate,
    cycle_type,
    hook_partition,
    partitions_of,
    phi,
    record_partition,
    sgn_of_type,
)
from .digraph import (
    Digraph,
    complement,
    d_descent_set,
    digraph_hash,
    enumerate_cycle_covers,
    enumerate_path_covers,
    enumerate_path_cycle_covers,
    has_only_descending_edges,
    is_acyclic,
    is_tournament,
    perms_with_all_cycles_in,
    perms_with_cycles_in_either,
)
from .guards import DisagreementError, guard
from .ringmat import (
    MultilinearPoly,
    det_ring,
    immanant,
    matrix_series,
    submatrix,
)
from .symfun import (
    MultivarPoly,
    SymFun,
    TwoAlphabetSymFun,
    convert,
    fundamental_F,
    lift_to_mtilde,
    littlewood_richardson,
    to_p,
)
from .walks import xi

# Largest n of the path-cycle functions and of their identity check.
CHOW_BOUND = 6
CHOW_IDENTITIES_BOUND = 5


# --------------------------------------------------------------- fundamentals

def u_via_fundamental(D: Digraph) -> SymFun:
    """Literal definition: sum the fundamentals of the descent sets of all
    permutations, in n variables, then lift to augmented monomials."""
    n = D.n
    _admit("F-definition", D)
    counts: dict = {}
    for pi in _it_permutations(range(1, n + 1)):
        key = d_descent_set(D, pi)
        counts[key] = counts.get(key, 0) + 1
    poly = MultivarPoly.zero(n)
    for key, c in counts.items():
        contribution = fundamental_F(key, n, n)
        for exp, v in contribution.terms.items():
            poly.add_term(exp, v * c)
    return lift_to_mtilde(poly, n)


# ---------------------------------------------------------------- path covers

def u_via_path_covers(D: Digraph) -> SymFun:
    """Augmented monomials of path partitions over path covers of the
    complement."""
    _admit("path-cover", D)
    out: dict = {}
    for cover in enumerate_path_covers(complement(D)):
        lam = cover.path_partition()
        out[lam] = out.get(lam, 0) + 1
    return SymFun("mtilde", out)


# ----------------------------------------------------------- power sum routes

def u_via_powersum_GS(D: Digraph) -> SymFun:
    """Signed power sums over permutations whose nontrivial cycles are all
    cycles of D or all-of-each cycles of its complement; the sign twists
    each D-cycle by (-1)^(length-1)."""
    _admit("powersum-GS", D)
    out: dict = {}
    for sigma in perms_with_cycles_in_either(D):
        lam = cycle_type(sigma)
        s = -1 if phi(sigma, D) & 1 else 1
        out[lam] = out.get(lam, 0) + s
    return SymFun("p", out)


def _cycle_cover_pvec(D: Digraph, verts, signed: bool) -> dict:
    """Power sum vector of cycle covers of D restricted to verts.

    Maps the cycle-type partition to a count, multiplied by the sign
    (-1)^(weight - length) when signed.
    """
    out: dict = {}
    for cover in enumerate_cycle_covers(D, verts):
        lam = cover.cycle_partition()
        c = sgn_of_type(lam) if signed else 1
        out[lam] = out.get(lam, 0) + c
    return out


def u_via_subset_formula(D: Digraph) -> SymFun:
    """Bilinear sum over complementary vertex subsets: unsigned cycle
    covers of the complement against signed cycle covers of D."""
    n = D.n
    _admit("subset-formula", D)
    Dbar = complement(D)
    verts = list(D.vertices())
    out: dict = {}
    for k in range(n + 1):
        for I in combinations(verts, k):
            Ic = [v for v in verts if v not in I]
            signed = _cycle_cover_pvec(D, I, signed=True)
            if not signed:
                continue
            unsigned = _cycle_cover_pvec(Dbar, Ic, signed=False)
            for lam1, c1 in unsigned.items():
                for lam2, c2 in signed.items():
                    key = tuple(sorted(lam1 + lam2, reverse=True))
                    out[key] = out.get(key, 0) + c1 * c2
    return SymFun("p", out)


# --------------------------------------------------------------- matrix route

def u_via_matrix_route(D: Digraph) -> SymFun:
    """Extract the squarefree full-support coefficient of
    det H(X Abar) * det E(X A) over the multilinear ring."""
    n = D.n
    _admit("matrix-det", D)
    if n == 0:
        return SymFun.const(1)
    H = matrix_series(complement(D).adjacency(), "H")
    E = matrix_series(D.adjacency(), "E")
    one = MultilinearPoly.const(n, SymFun.const(1))
    det_h = det_ring(H, one)
    det_e = det_ring(E, one)
    full = (1 << n) - 1
    total = SymFun.zero("p")
    for mask, ch in det_h.terms.items():
        ce = det_e.terms.get(full ^ mask)
        if ce:
            total = total + _p_concat(ch, ce)
    return total


def _p_concat(f: SymFun, g: SymFun) -> SymFun:
    """Product of two p-basis elements by concatenating partitions."""
    out: dict = {}
    for lam1, c1 in f.terms.items():
        for lam2, c2 in g.terms.items():
            key = tuple(sorted(lam1 + lam2, reverse=True))
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return SymFun("p", out)


# ------------------------------------------------------------- Schur routes

def schur_coeff_JT(D: Digraph, lam) -> int:
    """Schur coefficient of U_D from path-polynomial determinants.

    Computes both the complement form (shape lam on the complement's
    path polynomials) and the transposed form (shape lam' on D's own),
    and insists they agree.
    """
    lam = tuple(lam)
    n = D.n
    guard("u_schur_jt", n, ROUTES["schur-JT"].bound)
    if sum(lam) != n:
        raise ValueError("lam must be a partition of n")
    a = _jt_coefficient(complement(D), lam)
    b = _jt_coefficient(D, conjugate(lam))
    if a != b:
        raise DisagreementError(
            f"Jacobi-Trudi forms disagree for {lam}: {a} vs {b}"
        )
    return a


def _jt_coefficient(D: Digraph, lam: tuple) -> int:
    """Full-support coefficient of det [xi_{lam_i - i + j}] over D."""
    n = D.n
    ell = len(lam)
    if ell == 0:
        return 1 if n == 0 else 0
    cache: dict = {}

    def xival(k: int) -> MultilinearPoly:
        if k not in cache:
            cache[k] = xi(D, k).value
        return cache[k]

    M = [
        [xival(lam[i] - (i + 1) + (j + 1)) for j in range(ell)]
        for i in range(ell)
    ]
    det = det_ring(M, MultilinearPoly.const(n, 1))
    val = det.coeff((1 << n) - 1) if n else det.coeff(0)
    if isinstance(val, Fraction):
        if val.denominator != 1:
            raise ArithmeticError("non-integral Schur coefficient")
        val = int(val)
    return int(val)


def u_via_schur_JT(D: Digraph) -> SymFun:
    _admit("schur-JT", D)
    terms = {}
    for lam in partitions_of(D.n):
        c = schur_coeff_JT(D, lam)
        if c:
            terms[lam] = c
    return SymFun("s", terms)


def u_via_immanant_LR(D: Digraph) -> SymFun:
    """Immanants of complementary principal submatrices paired through
    Littlewood-Richardson coefficients."""
    n = D.n
    _admit("immanant-LR", D)
    A = D.adjacency()
    Abar = complement(D).adjacency()
    verts = list(D.vertices())
    out: dict = {}
    for k in range(n + 1):
        for I in combinations(verts, k):
            Ic = [v for v in verts if v not in I]
            sub_a = submatrix(A, I)
            sub_abar = submatrix(Abar, Ic)
            for mu in partitions_of(k):
                imm_a = immanant(sub_a, conjugate(mu)) if k else 1
                if not imm_a:
                    continue
                for lam in partitions_of(n - k):
                    imm_abar = immanant(sub_abar, lam) if n - k else 1
                    if not imm_abar:
                        continue
                    weight = imm_abar * imm_a
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
    records:  record partitions of D-descent-free permutations; valid
              when every edge descends (u > v).
    """
    n = D.n
    _admit(f"acyclic-{flavor}", D)
    if flavor == "powersum":
        return SymFun("p", _cycle_cover_pvec(complement(D), None, signed=False))
    if flavor == "schur":
        Abar = complement(D).adjacency()
        terms = {}
        for lam in partitions_of(n):
            c = immanant(Abar, lam) if n else 1
            if c:
                terms[lam] = c
        return SymFun("s", terms)
    # records: _admit has rejected every other flavor
    out: dict = {}
    for pi in _it_permutations(range(1, n + 1)):
        if not d_descent_set(D, pi):
            lam = record_partition(pi)
            out[lam] = out.get(lam, 0) + 1
    return SymFun("p", out)


def u_tournament(D: Digraph) -> SymFun:
    """Odd-cycle power sum form: permutations all of whose cycles are
    odd cycles of D, weighted by 2^(number of nontrivial cycles)."""
    _admit("tournament", D)
    out: dict = {}
    for sigma in perms_with_all_cycles_in(D):
        lam = cycle_type(sigma)
        if any(part % 2 == 0 for part in lam):
            continue
        nontrivial = sum(1 for part in lam if part >= 2)
        out[lam] = out.get(lam, 0) + (1 << nontrivial)
    return SymFun("p", out)


def powersum_to_ones(f: SymFun):
    """Evaluate with every p_k set to 1 (counts objects by forgetting type)."""
    fp = to_p(f)
    return sum(fp.terms.values(), Fraction(0))


def is_p_positive(f: SymFun) -> bool:
    fp = to_p(f)
    return all(c > 0 for c in fp.terms.values())


# -------------------------------------------------------------------- hooks

def hook_descent_count(D: Digraph, i: int) -> int:
    """Number of permutations whose D-descent set is exactly {i, ..., n-1}."""
    n = D.n
    guard("u_hooks", n, ROUTES["schur-JT"].bound)
    target = frozenset(range(i, n))
    return sum(
        1
        for pi in _it_permutations(range(1, n + 1))
        if d_descent_set(D, pi) == target
    )


def hook_coefficient(D: Digraph, i: int) -> int:
    """Schur coefficient of the hook (i, 1^(n-i)), checked against the
    descent-set count it must equal."""
    n = D.n
    value = schur_coeff_JT(D, hook_partition(i, n))
    count = hook_descent_count(D, i)
    if value != count:
        raise DisagreementError(
            f"hook {i}: determinant {value} != descent count {count}"
        )
    return value


# ------------------------------------------------------------- Chow functions

def chow_xi(D: Digraph, route: str = "direct") -> TwoAlphabetSymFun:
    """Path-cycle function: augmented monomials in z on path partitions
    times power sums in y on cycle partitions, over path-cycle covers."""
    n = D.n
    guard("chow", n, CHOW_BOUND)
    if route == "direct":
        out = TwoAlphabetSymFun.zero()
        acc: dict = {}
        for cover in enumerate_path_cycle_covers(D):
            key = (cover.path_partition(), cover.cycle_partition())
            acc[key] = acc.get(key, 0) + 1
        for (plam, clam), c in acc.items():
            zpart = TwoAlphabetSymFun.from_z(
                SymFun("mtilde", {plam: c})
            )
            ypart = TwoAlphabetSymFun({((), clam): 1})
            out = out + zpart * ypart
        return out
    if route == "powersum":
        return _chow_xi_powersum(D)
    raise ValueError(f"unknown route {route!r}")


def _chow_xi_powersum(D: Digraph) -> TwoAlphabetSymFun:
    """Signed cycle covers of the complement in z against cycle covers of
    D in the union alphabet, over complementary vertex subsets."""
    n = D.n
    Dbar = complement(D)
    verts = list(D.vertices())
    out = TwoAlphabetSymFun.zero()
    for k in range(n + 1):
        for I in combinations(verts, k):
            Ic = [v for v in verts if v not in I]
            signed = _cycle_cover_pvec(Dbar, I, signed=True)
            if not signed:
                continue
            joint = TwoAlphabetSymFun.zero()
            any_joint = False
            for cover in enumerate_cycle_covers(D, Ic):
                joint = joint + TwoAlphabetSymFun.joint_p(
                    cover.cycle_partition()
                )
                any_joint = True
            if not any_joint:
                continue
            zonly = TwoAlphabetSymFun(
                {(lam, ()): c for lam, c in signed.items()}
            )
            out = out + zonly * joint
    return out


def chow_xi_hat(D: Digraph) -> TwoAlphabetSymFun:
    """Variant with augmented monomials over the union alphabet and
    cycle weight (-2) per cycle."""
    n = D.n
    guard("chow", n, CHOW_BOUND)
    out = TwoAlphabetSymFun.zero()
    acc: dict = {}
    for cover in enumerate_path_cycle_covers(D):
        key = (cover.path_partition(), cover.cycle_partition())
        acc[key] = acc.get(key, 0) + 1
    for (plam, clam), c in acc.items():
        weight = c * (-2) ** len(clam)
        mt_joint = _mtilde_joint(plam)
        ypart = TwoAlphabetSymFun({((), clam): 1})
        out = out + mt_joint * ypart * weight
    return out


def _mtilde_joint(lam: tuple) -> TwoAlphabetSymFun:
    """mtilde_lam over the union alphabet, expanded into split power sums."""
    f = to_p(SymFun("mtilde", {lam: 1}))
    out = TwoAlphabetSymFun.zero()
    for mu, c in f.terms.items():
        out = out + TwoAlphabetSymFun.joint_p(mu) * c
    return out


def u_from_chow(D: Digraph) -> SymFun:
    """U_D as the y = 0 specialization of the complement's path-cycle
    function."""
    return chow_xi(complement(D), "direct").y_to_zero().z_part()


@dataclass
class ChowReport:
    n: int
    digraph_hash: str
    ok: bool = True
    failures: list = field(default_factory=list)

    def record(self, message: str) -> None:
        self.ok = False
        self.failures.append(message)


def verify_chow_identities(D: Digraph) -> ChowReport:
    """Complementation identities for the path-cycle functions.

    Checks that omega on z after y -> -y, then substituting the union
    alphabet for z, turns Xi of the complement into Xi of D; and the
    analogous statement for Xi_hat without the final substitution.
    """
    guard("chow_identities", D.n, CHOW_IDENTITIES_BOUND)
    report = ChowReport(n=D.n, digraph_hash=digraph_hash(D))
    Dbar = complement(D)
    lhs = chow_xi(Dbar, "direct").negate_y().omega_z().z_to_zy()
    rhs = chow_xi(D, "direct")
    if lhs != rhs:
        report.record(_first_difference("full transform", lhs, rhs))
    lhs_hat = chow_xi_hat(D).negate_y().omega_z()
    rhs_hat = chow_xi_hat(Dbar)
    if lhs_hat != rhs_hat:
        report.record(_first_difference("hat transform", lhs_hat, rhs_hat))
    direct = chow_xi(D, "direct")
    via_powersum = chow_xi(D, "powersum")
    if direct != via_powersum:
        report.record(_first_difference("powersum route", direct, via_powersum))
    return report


def _first_difference(
    label: str, a: TwoAlphabetSymFun, b: TwoAlphabetSymFun
) -> str:
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
    basis: str
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
# order of the routes in `u --routes all` output.
ROUTES = {
    "F-definition": Route(u_via_fundamental, 7),
    "path-cover": Route(u_via_path_covers, 8),
    "powersum-GS": Route(u_via_powersum_GS, 8),
    "subset-formula": Route(u_via_subset_formula, 7),
    "matrix-det": Route(u_via_matrix_route, 6),
    "schur-JT": Route(u_via_schur_JT, 7),
    "immanant-LR": Route(u_via_immanant_LR, 6),
    "acyclic-powersum": Route(lambda D: u_acyclic(D, "powersum"), 8, is_acyclic),
    "acyclic-schur": Route(lambda D: u_acyclic(D, "schur"), 6, is_acyclic),
    "acyclic-records": Route(
        lambda D: u_acyclic(D, "records"), 8, has_only_descending_edges
    ),
    "tournament": Route(u_tournament, 8, is_tournament),
}

# compute_route calls through this name -> function dict, not the rows:
# a wrapper put on the module's functions from outside (bench/tracer.py)
# replaces values in module-level dicts but not fields of a row.  For the
# same reason the acyclic flavors look u_acyclic up when called.
_ROUTE_FUNCTIONS = {name: r.fn for name, r in ROUTES.items()}


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
    fn = _ROUTE_FUNCTIONS[route]
    t0 = time.perf_counter()
    value = fn(D)
    return URouteResult(
        route=route,
        basis=value.basis,
        value=value,
        elapsed_ms=(time.perf_counter() - t0) * 1000,
    )


def u_all_routes(D: Digraph, routes=None) -> list:
    """Results of the given routes, default every applicable one.

    Given routes are all admitted (known name, bound, precondition)
    before any of them runs.
    """
    if routes is None:
        routes = applicable_routes(D)
    else:
        for r in routes:
            _admit(r, D)
    return [compute_route(D, r) for r in routes]


def routes_agree(results) -> tuple:
    """(all equal as symmetric functions, common p form or None).

    Raises ValueError when there is nothing to compare.
    """
    if not results:
        raise ValueError("no route results to compare")
    reference = to_p(results[0].value)
    for res in results[1:]:
        if to_p(res.value).terms != reference.terms:
            return False, None
    return True, reference


def u_digraph(D: Digraph, basis: str = "p") -> SymFun:
    """U_D by the default route (signed power sums), in the requested basis."""
    return convert(u_via_powersum_GS(D), basis)
