"""Descent symmetric function U_D: golden values, route agreement, hooks,
special-class forms, and the two-alphabet path-cycle functions."""

import importlib
import math
import random
from fractions import Fraction

import pytest

from hypothesis import given, settings

from redeiberge.combinat import (
    conjugate,
    hook_partition,
    partitions_of,
)
from redeiberge.digraph import (
    all_digraphs,
    complement,
    digraph,
    directed_path_digraph,
    empty_digraph,
    is_acyclic,
    opposite,
    random_digraph,
    random_tournament,
)
from redeiberge.guards import DisagreementError, GuardError
from redeiberge.hamilton import ham_dp
import redeiberge.redei as redei
from redeiberge.redei import (
    ROUTES,
    applicable_routes,
    chow_xi,
    check_hooks,
    chow_xi_hat,
    compute_route,
    hook_coefficient,
    powersum_to_ones,
    routes_agree,
    u_acyclic,
    u_all_routes,
    u_digraph,
    u_from_chow,
    u_tournament,
    u_via_immanant_LR,
    u_via_schur_JT,
    verify_chow_identities,
)
from redeiberge.ringmat import (
    det_ring,
    matrix_series,
    series_coefficients,
)
from redeiberge import symfun
from redeiberge.symfun import (
    SymFun,
    TwoAlphabetSymFun,
    convert,
    omega,
    to_p,
)
from redeiberge.walks import xi

import oracles
from gens import digraphs
from oracles import (
    MultivarPoly,
    is_p_positive,
    is_two_cycle_free,
    lift_to_mtilde,
    random_acyclic_digraph,
    schur_coeff_JT,
    specialize,
    u_poly_bruteforce,
)

EXAMPLE3 = digraph(3, [(1, 1), (1, 3), (3, 2)])
TREE = digraph(4, [(4, 3), (3, 2), (3, 1)])

CORE_ROUTES = (
    "F-definition",
    "path-cover",
    "powersum-GS",
    "subset-formula",
    "matrix-det",
    "schur-JT",
    "immanant-LR",
)


# ------------------------------------------------------------ golden values

def test_example3_mtilde_golden():
    u = u_digraph(EXAMPLE3, "mtilde")
    assert u == SymFun("mtilde", {(1, 1, 1): 1, (2, 1): 4, (3,): 3})


def test_example3_powersum_golden():
    u = u_digraph(EXAMPLE3, "p")
    assert u == SymFun("p", {(1, 1, 1): 1, (2, 1): 1, (3,): 1})


def test_example3_schur_golden():
    u = u_digraph(EXAMPLE3, "s")
    assert u == SymFun("s", {(1, 1, 1): 1, (2, 1): 1, (3,): 3})


def test_example3_complement_goldens():
    ubar = u_digraph(complement(EXAMPLE3), "p")
    assert ubar == SymFun("p", {(1, 1, 1): 1, (2, 1): -1, (3,): 1})
    assert convert(ubar, "mtilde") == SymFun(
        "mtilde", {(1, 1, 1): 1, (2, 1): 2, (3,): 1}
    )


def test_example3_all_routes_agree_on_golden():
    results = u_all_routes(EXAMPLE3)
    assert [r.route for r in results] == list(CORE_ROUTES)
    ok, common = routes_agree(results)
    assert ok
    assert common == SymFun("p", {(1, 1, 1): 1, (2, 1): 1, (3,): 1})


def test_tree_schur_golden_three_ways():
    expected = SymFun("s", {(4,): 10, (3, 1): 4, (2, 2): -2, (2, 1, 1): 2})
    assert u_via_schur_JT(TREE) == expected
    assert to_p(u_via_immanant_LR(TREE)) == to_p(expected)
    assert to_p(u_acyclic(TREE, "schur")) == to_p(expected)
    assert schur_coeff_JT(TREE, (2, 2)) == -2
    assert schur_coeff_JT(TREE, (1, 1, 1, 1)) == 0


# --------------------------------------------------- definition cross-check

@settings(max_examples=25)
@given(digraphs(max_n=4))
def test_u_matches_bruteforce_definition(D):
    u = u_digraph(D, "mtilde")
    nvars = D.n + 1
    got = {k: Fraction(v) for k, v in specialize(u, nvars).terms.items() if v}
    want = {k: Fraction(v) for k, v in u_poly_bruteforce(D, nvars).items()}
    assert got == want


def test_fundamental_route_matches_lifted_definition():
    seeded = [(1, 0.5), (2, 0.5), (4, 0.3), (4, 0.7), (5, 0.2), (5, 0.5), (5, 0.8)]
    corpus = [empty_digraph(0), *all_digraphs(3)]
    corpus += [random_digraph(n, p, seed) for seed, (n, p) in enumerate(seeded)]
    for D in corpus:
        n = D.n
        want = lift_to_mtilde(MultivarPoly(n, u_poly_bruteforce(D, n)), n)
        assert redei.u_via_fundamental(D) == want


def test_fundamental_route_rejects_asymmetric_m_coefficients(monkeypatch):
    # every permutation descends at position 1 only: F_{1} alone is not
    # symmetric, as M_(1,2) and M_(2,1) get different coefficients
    monkeypatch.setattr(redei, "d_descent_set", lambda D, pi: frozenset({1}))
    with pytest.raises(ValueError, match="not symmetric"):
        redei.u_via_fundamental(empty_digraph(3))


@given(digraphs(max_n=4))
def test_omega_sends_u_to_complement(D):
    assert to_p(omega(u_digraph(D))) == to_p(u_digraph(complement(D)))


@given(digraphs(max_n=4))
def test_u_invariant_under_opposite(D):
    assert u_digraph(opposite(D)) == u_digraph(D)


@settings(max_examples=15)
@given(digraphs(max_n=4))
def test_all_routes_agree(D):
    ok, common = routes_agree(u_all_routes(D))
    assert ok
    assert common == u_digraph(D)


def test_powersum_gs_matches_other_routes_up_to_its_bound():
    # The route comparisons above and in the acceptance gate stop at n = 5.
    # path-cover of a sparse D is slow at n = 8, so densities there are >= 0.5.
    for n, densities in ((7, (0.2, 0.5, 0.8)), (8, (0.5, 0.7, 0.9))):
        for seed, p in enumerate(densities):
            D = random_digraph(n, p, seed=40 + seed)
            assert to_p(redei.u_via_path_covers(D)) == redei.u_via_powersum_GS(D)
    T = random_tournament(8, seed=41)
    assert u_tournament(T) == redei.u_via_powersum_GS(T)
    A = random_acyclic_digraph(8, 0.5, seed=42)
    assert to_p(u_acyclic(A, "powersum")) == redei.u_via_powersum_GS(A)


def test_powersum_to_ones_counts_complement_ham_paths():
    for seed in range(12):
        D = random_digraph(5, 0.4, seed=seed)
        total = powersum_to_ones(u_digraph(D))
        assert total == ham_dp(complement(D))


# ------------------------------------------------------------------- hooks

def test_path4_hook_coefficients():
    P4 = directed_path_digraph(4)
    assert hook_coefficient(P4) == [1, 1, 3, 11]


def test_hook_readoffs_are_ham_counts():
    for seed in range(8):
        D = random_digraph(4, 0.5, seed=100 + seed)
        hooks = hook_coefficient(D)
        assert len(hooks) == D.n
        assert hooks[0] == ham_dp(D)
        assert hooks[-1] == ham_dp(complement(D))


def test_hook_descent_count_on_example3():
    # Descent sets over S_3: three permutations have {}, (3,2,1) has {1},
    # (2,1,3) has {2} via the edge (1,3), and (1,3,2) has {1,2}.
    assert oracles.hook_descent_count(EXAMPLE3, 3) == 3
    assert oracles.hook_descent_count(EXAMPLE3, 2) == 1
    assert oracles.hook_descent_count(EXAMPLE3, 1) == 1
    assert hook_coefficient(EXAMPLE3) == [1, 1, 3]
    assert hook_coefficient(empty_digraph(0)) == []


def test_hook_partition_consistency():
    for i in (1, 2, 3, 4):
        lam = hook_partition(i, 4)
        assert sum(lam) == 4
        assert lam[0] == i


# ---------------------------------------------------------- special classes

def descending_digraph(n, seed):
    # Every edge goes from a larger to a smaller label, so the digraph is
    # acyclic and the records flavor applies.
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(1, u)
        if rng.random() < 0.5
    ]
    return digraph(n, edges)


def test_acyclic_flavors_agree():
    for seed in range(10):
        D = descending_digraph(5, seed)
        assert is_acyclic(D)
        base = u_digraph(D)
        assert to_p(u_acyclic(D, "powersum")) == base
        if D.n <= ROUTES["acyclic-schur"].bound:
            assert to_p(u_acyclic(D, "schur")) == base
        assert to_p(u_acyclic(D, "records")) == base


def test_acyclic_powersum_handles_any_vertex_order():
    for seed in range(6):
        D = random_acyclic_digraph(5, 0.5, seed=seed)
        assert is_acyclic(D)
        assert to_p(u_acyclic(D, "powersum")) == u_digraph(D)


def test_acyclic_rejects_cyclic_and_bad_flavor():
    loop = digraph(1, [(1, 1)])
    with pytest.raises(ValueError):
        u_acyclic(loop)
    with pytest.raises(ValueError):
        u_acyclic(TREE, "nope")
    ascending = digraph(2, [(1, 2)])
    with pytest.raises(ValueError):
        u_acyclic(ascending, "records")


def test_acyclic_u_is_p_positive():
    for seed in range(15):
        D = random_acyclic_digraph(5, 0.5, seed=200 + seed)
        assert is_p_positive(u_digraph(D))


def test_two_cycle_free_u_is_p_positive():
    # Thinning a tournament can never create an opposite pair of edges.
    for seed in range(15):
        rng = random.Random(seed)
        T = random_tournament(5, seed=seed)
        edges = [e for e in T.edges if rng.random() < 0.7]
        D = digraph(5, edges)
        assert is_two_cycle_free(D)
        assert is_p_positive(u_digraph(D))


def test_tournament_form_matches_and_has_odd_parts():
    for seed in range(12):
        T = random_tournament(5, seed=seed)
        u = u_tournament(T)
        assert u == u_digraph(T)
        for lam, c in u.terms.items():
            assert all(part % 2 == 1 for part in lam)
            assert c > 0
        assert powersum_to_ones(u) == ham_dp(complement(T))


def test_tournament_rejects_non_tournament():
    with pytest.raises(ValueError):
        u_tournament(EXAMPLE3)


def test_p_positive_predicate():
    assert is_p_positive(SymFun("p", {(2, 1): 1, (3,): 2}))
    assert not is_p_positive(SymFun("p", {(2, 1): -1, (3,): 2}))
    # s_{11} - s_2 collapses to -p_2 in the power sum basis.
    assert not is_p_positive(SymFun("s", {(1, 1): 1}) - SymFun("s", {(2,): 1}))


# ------------------------------------------------------------ route plumbing

def test_applicable_routes_example3():
    assert applicable_routes(EXAMPLE3) == list(CORE_ROUTES)


def test_applicable_routes_special_classes():
    routes_tree = applicable_routes(TREE)
    for name in ("acyclic-powersum", "acyclic-schur", "acyclic-records"):
        assert name in routes_tree
    assert "tournament" not in routes_tree
    T = random_tournament(4, seed=1)
    assert "tournament" in applicable_routes(T)

    big = empty_digraph(7)
    routes7 = applicable_routes(big)
    assert "matrix-det" not in routes7
    assert "immanant-LR" not in routes7
    assert "F-definition" in routes7
    assert "subset-formula" in routes7


def test_compute_route_result_fields():
    res = compute_route(EXAMPLE3, "powersum-GS")
    assert res.route == "powersum-GS"
    assert res.value.basis == "p"
    assert res.value == u_digraph(EXAMPLE3)
    assert res.elapsed_ms >= 0
    payload = res.to_json_dict()
    assert payload["route"] == "powersum-GS"
    assert "elapsed_ms" not in payload
    assert "elapsed_ms" in res.to_json_dict(include_timings=True)


def test_unknown_route_rejected():
    with pytest.raises(ValueError):
        u_all_routes(EXAMPLE3, routes=["powersum-GS", "bogus"])


def _meeting_precondition(route, n):
    """An n-vertex digraph the route's precondition accepts."""
    transitive = digraph(n, [(u, v) for u in range(1, n + 1) for v in range(1, u)])
    for D in (empty_digraph(n), transitive):
        if route.precondition is None or route.precondition(D):
            return D
    raise AssertionError("no candidate digraph meets the precondition")


@pytest.mark.parametrize("name", list(ROUTES))
def test_route_guards(name, monkeypatch):
    route = ROUTES[name]
    assert name in applicable_routes(_meeting_precondition(route, route.bound))
    D = _meeting_precondition(route, route.bound + 1)
    assert name not in applicable_routes(D)

    # Everything redei imports for its work fails if called, so the route
    # must stop at its guard before any of it runs.
    def no_work(*args, **kwargs):
        raise AssertionError("route began work above its bound")

    for attr, value in list(vars(redei).items()):
        foreign = getattr(value, "__module__", None) != redei.__name__
        if callable(value) and foreign and attr != "guard":
            monkeypatch.setattr(redei, attr, no_work)
    with pytest.raises(GuardError):
        route.fn(D)
    with pytest.raises(GuardError):
        u_all_routes(D, [name])
    if name == redei.DEFAULT_ROUTE:  # behind u_digraph
        with pytest.raises(GuardError):
            u_digraph(D)


def test_schur_coeff_requires_partition_of_n():
    with pytest.raises(ValueError):
        schur_coeff_JT(EXAMPLE3, (2, 1, 1))


def test_empty_digraph_u_is_all_fundamentals():
    # No edges means every permutation has empty descent set, so U_D is
    # n! h_n; on 0 vertices it degenerates to the constant 1.
    u = u_digraph(digraph(3, []), "h")
    assert u == SymFun("h", {(3,): 6})
    zero = u_digraph(digraph(0, []))
    assert to_p(zero) == SymFun("p", {(): 1})


# ----------------------------------------------------- path-cycle functions

def mtilde_z_times_p_y(pairs):
    out = TwoAlphabetSymFun.zero()
    for (zlam, ylam), c in pairs.items():
        zpart = oracles.z_alphabet(SymFun("mtilde", {zlam: c}))
        out = out + zpart * TwoAlphabetSymFun({((), ylam): 1})
    return out


def test_chow_xi_example3_golden():
    expected = mtilde_z_times_p_y(
        {
            ((1, 1, 1), ()): 1,
            ((2, 1), ()): 2,
            ((3,), ()): 1,
            ((1, 1), (1,)): 1,
            ((2,), (1,)): 1,
        }
    )
    assert chow_xi(EXAMPLE3, "direct") == expected
    assert chow_xi(EXAMPLE3, "powersum") == expected


def test_chow_xi_example3_complement_golden():
    expected = mtilde_z_times_p_y(
        {
            ((1, 1, 1), ()): 1,
            ((2, 1), ()): 4,
            ((3,), ()): 3,
            ((1,), (1, 1)): 1,
            ((2,), (1,)): 3,
            ((1, 1), (1,)): 2,
            ((), (2, 1)): 1,
            ((1,), (2,)): 1,
            ((), (3,)): 1,
        }
    )
    Dbar = complement(EXAMPLE3)
    assert chow_xi(Dbar, "direct") == expected
    assert chow_xi(Dbar, "powersum") == expected


def test_chow_xi_loop_and_hat_loop():
    loop = digraph(1, [(1, 1)])
    assert chow_xi(loop, "direct") == TwoAlphabetSymFun(
        {((1,), ()): 1, ((), (1,)): 1}
    )
    assert chow_xi_hat(loop) == TwoAlphabetSymFun(
        {((1,), ()): 1, ((), (1,)): -1}
    )


def test_chow_identities_on_randoms():
    for seed in range(10):
        D = random_digraph(4, 0.45, seed=400 + seed)
        report = verify_chow_identities(D)
        assert report.ok, report.failures
        assert report.n == 4
        assert report.failures == []


@settings(max_examples=20)
@given(digraphs(max_n=4))
def test_u_from_chow_matches_u(D):
    assert to_p(u_from_chow(D)) == u_digraph(D)


def test_chow_identities_build_each_direct_function_once(monkeypatch):
    # Xi and Xi_hat of D and of its complement come from one cover
    # enumeration each, and the powersum route is built once.
    routes, enumerated = [], []
    real_xi, real_enum = redei.chow_xi, redei.enumerate_path_cycle_covers

    def counted_xi(D, route="direct"):
        routes.append(route)
        return real_xi(D, route)

    def counted_enum(D, *args, **kwargs):
        enumerated.append(D)
        return real_enum(D, *args, **kwargs)

    monkeypatch.setattr(redei, "chow_xi", counted_xi)
    monkeypatch.setattr(redei, "enumerate_path_cycle_covers", counted_enum)
    D = random_digraph(4, 0.45, seed=401)
    report = verify_chow_identities(D)
    assert report.ok, report.failures
    assert len(enumerated) == 2 and set(enumerated) == {D, complement(D)}
    assert routes == ["powersum"]


def test_kernel_routes_enumerate_no_covers(monkeypatch):
    # subset-formula and the powersum Xi read the subset_exp kernel, so
    # each cross-check compares two different algorithms
    cases = [random_digraph(5, p, seed=410 + i) for i, p in enumerate((0.3, 0.6))]
    want = [
        (redei.u_via_subset_formula(D), chow_xi(D, "powersum")) for D in cases
    ]

    def boom(*args, **kwargs):
        raise AssertionError("cover enumeration called")

    digraph_module = importlib.import_module("redeiberge.digraph")
    for name in ("enumerate_cycle_covers", "enumerate_path_cycle_covers"):
        monkeypatch.setattr(redei, name, boom)
        monkeypatch.setattr(digraph_module, name, boom)
    for D, (u, xi_p) in zip(cases, want):
        assert redei.u_via_subset_formula(D) == u
        assert chow_xi(D, "powersum") == xi_p


def test_subset_formula_matches_powersum_gs_at_its_bound():
    n = ROUTES["subset-formula"].bound
    for i, p in enumerate((0.25, 0.5, 0.75)):
        D = random_digraph(n, p, seed=420 + i)
        assert redei.u_via_subset_formula(D) == redei.u_via_powersum_GS(D)


def _two_alphabet_value(f, z, y):
    """Sum of the p(z) (x) p(y) terms of f at letter values z and y."""
    total = Fraction(0)
    for (zl, yl), c in f.terms.items():
        pz = [sum(v ** k for v in z) for k in zl]
        py = [sum(v ** k for v in y) for k in yl]
        total += c * math.prod(pz) * math.prod(py)
    return total


def test_chow_functions_match_cover_oracle_at_integer_points():
    rng = random.Random(77)
    cases = [D for n in range(3) for D in all_digraphs(n)]
    cases += [random_digraph(3, 0.5, seed=700 + s) for s in range(6)]
    cases += [random_digraph(4, 0.45, seed=710 + s) for s in range(4)]
    for D in cases:
        xi_d = chow_xi(D, "direct")
        xi_p = chow_xi(D, "powersum")
        xi_hat = chow_xi_hat(D)
        for _ in range(3):
            z = [rng.randint(-3, 3) for _ in range(D.n)]
            y = [rng.randint(-3, 3) for _ in range(D.n)]
            want = oracles.chow_value_oracle(D, z, y)
            assert _two_alphabet_value(xi_d, z, y) == want, (D, z, y)
            assert _two_alphabet_value(xi_p, z, y) == want, (D, z, y)
            assert _two_alphabet_value(xi_hat, z, y) == (
                oracles.chow_value_oracle(D, z, y, hat=True)
            ), (D, z, y)


def test_chow_functions_build_each_result_in_one_term_dict(monkeypatch):
    adds = []
    real = TwoAlphabetSymFun.__add__

    def counted(self, other):
        adds.append(1)
        return real(self, other)

    monkeypatch.setattr(TwoAlphabetSymFun, "__add__", counted)
    D = random_digraph(4, 0.45, seed=402)
    chow_xi(D, "direct")
    chow_xi(D, "powersum")
    chow_xi_hat(D)
    assert adds == []


def test_chow_unknown_route_and_guard():
    with pytest.raises(ValueError):
        chow_xi(EXAMPLE3, "sideways")
    with pytest.raises(GuardError):
        chow_xi(empty_digraph(7))
    with pytest.raises(GuardError):
        verify_chow_identities(empty_digraph(6))


# ------------------------------------------------- kernel extraction values

def test_matrix_route_det_ring_builds_no_symfun(monkeypatch):
    # det H(X Abar) and det E(X A) multiply integers under packed keys;
    # SymFun values appear only once series_coefficients reads them back
    def no_symfun(*args):
        raise AssertionError("det_ring built a SymFun")

    real_det_ring = redei.det_ring
    calls = []

    def det_ring_without_symfun(M, nvars):
        with monkeypatch.context() as m:
            m.setattr(symfun, "_with_terms", no_symfun)
            det = real_det_ring(M, nvars)
        calls.append(all(type(c) is int for c in det.values()))
        return det

    monkeypatch.setattr(redei, "det_ring", det_ring_without_symfun)
    D = random_digraph(5, 0.5, seed=7)
    assert to_p(redei.u_via_matrix_route(D)) == redei.u_via_powersum_GS(D)
    assert calls == [True, True]


def test_subset_extraction_from_h_series_det():
    # Coefficient of x2*x3 in det H(X Abar) for EXAMPLE3: the only cycle cover
    # of the complement restricted to {2, 3} is the two loops, since the
    # complement lacks the edge (3, 2); hence p_{11}, not p_2.
    Abar = complement(EXAMPLE3).adjacency()
    assert Abar == [[0, 1, 0], [1, 1, 1], [1, 0, 1]]
    H = matrix_series(Abar, "H")
    det = det_ring(H, 3)
    mask = (1 << 1) | (1 << 2)
    coeff = series_coefficients(det, 3, "H")[mask]
    assert to_p(coeff) == SymFun("p", {(1, 1): 1})


def test_jacobi_trudi_column_det_extraction():
    # Shape (1,1,1) on EXAMPLE3's own path polynomials: full-support
    # coefficient of det [xi_{1-i+j}] equals the s_3 coefficient, 3.
    lam = (1, 1, 1)
    xis = xi(EXAMPLE3)
    x0, x1, x2, x3 = xis
    assert x0 == {0: 1}
    M = [[x1, x2, x3], [x0, x1, x2], [{}, x0, x1]]
    assert det_ring(M, 3).get(0b111) == 3
    # _jt_coefficient reads the index -1 above, and any index past n, as 0
    assert redei._jt_coefficient(xis, lam) == 3
    assert redei._jt_coefficient(xis, (4,)) == 0
    assert schur_coeff_JT(EXAMPLE3, (3,)) == 3
    assert conjugate((3,)) == lam


def test_schur_jt_route_builds_each_path_polynomial_list_once(monkeypatch):
    # xi of D and of its complement, once each for all seven partitions
    calls = []
    monkeypatch.setattr(redei, "xi", lambda D: calls.append(D) or xi(D))
    D = random_digraph(5, 0.5, 3)
    assert u_via_schur_JT(D) == convert(u_digraph(D), "s")
    assert calls == [complement(D), D]


def test_hook_disagreement_is_guarded():
    # check_hooks compares each Jacobi-Trudi hook with its descent count:
    # the schur-JT route's hooks pass and match the oracle, and one
    # perturbed determinant fails the check, naming that hook.
    P4 = directed_path_digraph(4)
    u = u_via_schur_JT(P4)
    assert check_hooks(P4, u) == [
        oracles.hook_descent_count(P4, i) for i in (1, 2, 3, 4)
    ]
    perturbed = u + SymFun.element("s", hook_partition(3, 4))
    with pytest.raises(DisagreementError, match=r"^hook 3: determinant 4 != descent count 3$"):
        check_hooks(P4, perturbed)
