"""Acceptance gate: ten shipping criteria, each timed against its budget
and reported as one PASS/FAIL line (run with -s to see the lines live)."""

import itertools
import random
import time
from fractions import Fraction
from functools import wraps

from oracles import (
    all_tournaments,
    bareiss_det,
    hook_descent_count,
    identity_minus_xa,
    identity_plus_xa,
    is_p_positive,
    multilinear_inverse,
    permanent_expansion,
    perms_with_cycles_oracle,
    psi,
    random_acyclic_digraph,
    schur_coeff_JT,
    sgn,
    z_alphabet,
)
from redeiberge.cli import build_corpus, run_corpus
from redeiberge.combinat import (
    character,
    cycle_type,
    hook_partition,
    partitions_of,
    z_lambda,
)
from redeiberge.digraph import (
    all_digraphs,
    complement,
    digraph,
    enumerate_cycle_covers,
    random_digraph,
    random_tournament,
)
from redeiberge.hamilton import (
    ham_cycles,
    ham_cycles_bruteforce,
    ham_detper,
    ham_dp,
    ham_paths_bruteforce,
    parity_suite,
)
from redeiberge.redei import (
    hook_coefficient,
    powersum_to_ones,
    u_all_routes,
    u_digraph,
    u_from_chow,
    u_tournament,
    u_via_immanant_LR,
    u_via_schur_JT,
)
from redeiberge.ringmat import (
    det_ring,
    matrix_series,
    permanent_ryser,
    series_coefficients,
)
from redeiberge.symfun import SymFun, TwoAlphabetSymFun, convert, to_p
from redeiberge.walks import verify_walk_identity

from redeiberge.redei import chow_xi

EXAMPLE3 = digraph(3, [(1, 1), (1, 3), (3, 2)])
TREE = digraph(4, [(4, 3), (3, 2), (3, 1)])
DENSITIES = (0.15, 0.3, 0.5, 0.7, 0.85)


def criterion(number, name, budget_s):
    """Time the body; print one verdict line; enforce the budget if gating."""

    def deco(fn):
        @wraps(fn)
        def wrapper():
            start = time.monotonic()
            try:
                fn()
                elapsed = time.monotonic() - start
                if budget_s is not None and elapsed > budget_s:
                    raise AssertionError(
                        f"budget exceeded: {elapsed:.1f}s > {budget_s}s"
                    )
            except BaseException:
                elapsed = time.monotonic() - start
                print(f"ACCEPTANCE {number} {name}: FAIL ({elapsed:.1f}s)")
                raise
            tail = f" <= {budget_s}s" if budget_s is not None else ""
            print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s{tail})")

        return wrapper

    return deco


def random_corpus(rng, count, n_lo, n_hi):
    return [
        random_digraph(
            rng.randint(n_lo, n_hi),
            DENSITIES[i % len(DENSITIES)],
            rng.randrange(2**32),
        )
        for i in range(count)
    ]


@criterion(1, "worked-example-goldens", 1)
def test_criterion_01_worked_example_goldens():
    expected = {
        "p": SymFun("p", {(1, 1, 1): 1, (2, 1): 1, (3,): 1}),
        "mtilde": SymFun("mtilde", {(1, 1, 1): 1, (2, 1): 4, (3,): 3}),
        "s": SymFun("s", {(1, 1, 1): 1, (2, 1): 1, (3,): 3}),
    }
    results = u_all_routes(EXAMPLE3)
    assert len(results) == 7
    for res in results:
        for basis, want in expected.items():
            assert convert(res.value, basis) == want, (res.route, basis)
    expected_bar = {
        "p": SymFun("p", {(1, 1, 1): 1, (2, 1): -1, (3,): 1}),
        "mtilde": SymFun("mtilde", {(1, 1, 1): 1, (2, 1): 2, (3,): 1}),
    }
    for res in u_all_routes(complement(EXAMPLE3)):
        for basis, want in expected_bar.items():
            assert convert(res.value, basis) == want, (res.route, basis)


@criterion(2, "tree-schur-golden", 1)
def test_criterion_02_tree_schur_golden():
    expected = SymFun("s", {(4,): 10, (3, 1): 4, (2, 2): -2, (2, 1, 1): 2})
    assert u_via_schur_JT(TREE) == expected
    assert to_p(u_via_immanant_LR(TREE)) == to_p(expected)
    for lam in partitions_of(4):
        want = expected.terms.get(lam, 0)
        assert schur_coeff_JT(TREE, lam) == want


@criterion(3, "path-cycle-goldens", 1)
def test_criterion_03_path_cycle_goldens():
    def build(pairs):
        out = TwoAlphabetSymFun.zero()
        for (zlam, ylam), c in pairs.items():
            zpart = z_alphabet(SymFun("mtilde", {zlam: c}))
            out = out + zpart * TwoAlphabetSymFun({((), ylam): 1})
        return out

    expected_d = build(
        {
            ((1, 1, 1), ()): 1,
            ((2, 1), ()): 2,
            ((3,), ()): 1,
            ((1, 1), (1,)): 1,
            ((2,), (1,)): 1,
        }
    )
    expected_dbar = build(
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
    assert chow_xi(EXAMPLE3, "direct") == expected_d
    assert chow_xi(complement(EXAMPLE3), "direct") == expected_dbar
    # Setting y = 0 in the complement's function recovers U_D.
    assert convert(u_from_chow(EXAMPLE3), "mtilde") == SymFun(
        "mtilde", {(1, 1, 1): 1, (2, 1): 4, (3,): 3}
    )
    assert to_p(u_from_chow(EXAMPLE3)) == u_digraph(EXAMPLE3)


@criterion(4, "route-equivalence-corpus", 300)
def test_criterion_04_route_equivalence_corpus():
    items = (
        build_corpus("exhaustive3")
        + build_corpus("random:4,200", seed=21)
        + build_corpus("random:5,200", seed=22)
    )
    assert len(items) == 912
    summary = run_corpus(items, jobs=1)
    assert summary["items"] == 912
    assert summary["failed_items"] == 0, summary["failures"][:3]
    tally = summary["identities"]
    for name in (
        "routes-agree",
        "omega-complement",
        "opposite-invariance",
        "berge-parity",
        "hooks-readoff",
        "u-from-path-cycle",
        "chow-identities",
        "walk-identity",
    ):
        assert tally[name]["checked"] == 912, name
        assert tally[name]["failed"] == 0, name


@criterion(5, "hamiltonian-counting", 120)
def test_criterion_05_hamiltonian_counting():
    for n in range(4):
        for D in all_digraphs(n):
            paths = ham_paths_bruteforce(D)
            assert ham_detper(D) == paths
            assert ham_dp(D) == paths
    rng = random.Random(501)
    for D in random_corpus(rng, 300, 1, 8):
        paths = ham_paths_bruteforce(D)
        assert ham_detper(D) == paths
        assert ham_dp(D) == paths
    rng = random.Random(502)
    for D in random_corpus(rng, 100, 1, 7):
        brute = ham_cycles_bruteforce(D)
        values = {ham_cycles(D, "formula_a", i) for i in range(1, D.n + 1)}
        assert values == {brute}
        assert ham_cycles(D, "formula_b") == brute
    empty0 = digraph(0, [])
    assert ham_detper(empty0) == ham_dp(empty0) == 1
    assert ham_paths_bruteforce(empty0) == 1
    loop = digraph(1, [(1, 1)])
    assert ham_cycles_bruteforce(loop) == 1
    assert ham_cycles(loop, "formula_a") == 1
    assert ham_cycles(loop, "formula_b") == 1
    assert ham_cycles_bruteforce(digraph(1, [])) == 0


@criterion(6, "parity-theorems", 120)
def test_criterion_06_parity_theorems():
    corpus = (
        build_corpus("exhaustive3")
        + build_corpus("random:4,200", seed=21)
        + build_corpus("random:5,200", seed=22)
    )
    for D in corpus:
        assert parity_suite(D)["berge_ok"]
    for n in range(1, 5):
        for T in all_tournaments(n):
            report = parity_suite(T)
            assert report["is_tournament"]
            assert report["berge_ok"]
            assert report["redei_ok"]
    for n in range(5, 11):
        for k in range(50):
            T = random_tournament(n, seed=1000 * n + k)
            report = parity_suite(T)
            assert report["berge_ok"]
            assert report["redei_ok"]


@criterion(7, "positivity-properties", 180)
def test_criterion_07_positivity_properties():
    rng = random.Random(701)
    for _ in range(100):
        n = rng.randint(1, 6)
        D = random_acyclic_digraph(
            n, rng.choice(DENSITIES), rng.randrange(2**32)
        )
        assert is_p_positive(u_digraph(D)), D
    rng = random.Random(702)
    for _ in range(100):
        n = rng.randint(1, 6)
        T = random_tournament(n, seed=rng.randrange(2**32))
        edges = [e for e in T.edges if rng.random() < 0.7]
        D = digraph(n, edges)
        assert is_p_positive(u_digraph(D)), D
    for n in range(1, 5):
        for T in all_tournaments(n):
            u = u_tournament(T)
            form: dict = {}
            for sigma in perms_with_cycles_oracle(T):
                lam = cycle_type(sigma)
                if all(part % 2 for part in lam):
                    form[lam] = form.get(lam, 0) + 2 ** psi(sigma)
            assert u == SymFun("p", form)
            assert u == u_digraph(T)
            assert powersum_to_ones(u) == ham_paths_bruteforce(complement(T))


@criterion(8, "hook-coefficients", 60)
def test_criterion_08_hook_coefficients():
    corpus = [D for n in range(1, 4) for D in all_digraphs(n)]
    rng = random.Random(801)
    corpus += random_corpus(rng, 100, 4, 4)
    corpus += random_corpus(rng, 100, 5, 5)
    for D in corpus:
        n = D.n
        u = u_via_schur_JT(D)
        hooks = [u.coefficient(hook_partition(i, n)) for i in range(1, n + 1)]
        assert hooks == [hook_descent_count(D, i) for i in range(1, n + 1)]
        assert hook_coefficient(D) == hooks
        assert hooks[0] == ham_dp(D)
        assert hooks[-1] == ham_dp(complement(D))


@criterion(9, "kernel-identities", 60)
def test_criterion_09_kernel_identities():
    rng = random.Random(901)
    for _ in range(20):
        n = rng.randint(1, 5)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        det_side = det_ring(identity_plus_xa(A), n)
        per_side = multilinear_inverse(det_ring(identity_minus_xa(A), n), n)
        for r in range(n + 1):
            for verts in itertools.combinations(range(1, n + 1), r):
                mask = sum(1 << (v - 1) for v in verts)
                sub = [[A[i - 1][j - 1] for j in verts] for i in verts]
                want_det = bareiss_det(sub) if verts else 1
                want_per = permanent_expansion(sub) if verts else 1
                assert det_side.get(mask, 0) == want_det
                assert per_side.get(mask, 0) == want_per

    def as_p(value):
        # Absent multilinear coefficients come back as a bare zero.
        return to_p(value if isinstance(value, SymFun) else SymFun.const(value))

    def perm_sum(A, verts, signed):
        out: dict = {}
        for images in itertools.permutations(verts):
            sigma = dict(zip(verts, images))
            w = 1
            for i in verts:
                w *= A[i - 1][sigma[i] - 1]
            if not w:
                continue
            s = sgn(sigma) if signed else 1
            lam = cycle_type(sigma)
            out[lam] = out.get(lam, 0) + s * w
        return to_p(SymFun("p", out))

    rng = random.Random(902)
    for _ in range(12):
        n = rng.randint(1, 4)
        A = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        det_h = series_coefficients(det_ring(matrix_series(A, "H"), n), n, "H")
        det_e = series_coefficients(det_ring(matrix_series(A, "E"), n), n, "E")
        for r in range(1, n + 1):
            for verts in itertools.combinations(range(1, n + 1), r):
                mask = sum(1 << (v - 1) for v in verts)
                assert as_p(det_h.get(mask, 0)) == perm_sum(A, verts, False)
                assert as_p(det_e.get(mask, 0)) == perm_sum(A, verts, True)

    rng = random.Random(903)
    for _ in range(10):
        n = rng.randint(1, 5)
        D = random_digraph(n, rng.choice(DENSITIES), rng.randrange(2**32))
        det_h = series_coefficients(
            det_ring(matrix_series(D.adjacency(), "H"), n), n, "H"
        )
        for r in range(1, n + 1):
            for verts in itertools.combinations(range(1, n + 1), r):
                mask = sum(1 << (v - 1) for v in verts)
                covers = enumerate_cycle_covers(D, verts)
                want = SymFun("p", {lam: c for (_, lam), c in covers.items()})
                assert as_p(det_h.get(mask, 0)) == to_p(want)

    rng = random.Random(904)
    for _ in range(25):
        n = rng.randint(1, 6)
        u = [rng.randint(-4, 4) for _ in range(n)]
        v = [rng.randint(-4, 4) for _ in range(n)]
        M = [
            [(1 if i == j else 0) + u[i] * v[j] for j in range(n)]
            for i in range(n)
        ]
        assert bareiss_det(M) == 1 + sum(ui * vi for ui, vi in zip(u, v))

    for n in range(1, 6):
        parts = partitions_of(n)
        for lam in parts:
            for kappa in parts:
                total = sum(
                    Fraction(character(lam, mu) * character(kappa, mu), z_lambda(mu))
                    for mu in parts
                )
                assert total == (1 if lam == kappa else 0)

    rng = random.Random(905)
    for _ in range(15):
        n = rng.randint(1, 5)
        D = random_digraph(n, rng.choice(DENSITIES), rng.randrange(2**32))
        report = verify_walk_identity(D, trials=10, seed=rng.randrange(2**32))
        assert report.ok, report.failures
        assert report.K == 2 * n + 1
        assert report.trials == 10


@criterion(10, "performance-smoke", None)
def test_criterion_10_performance_smoke():
    t0 = time.monotonic()
    v16 = ham_detper(random_digraph(16, 0.5, seed=160))
    t_det = time.monotonic() - t0
    assert v16 == 263052743
    t0 = time.monotonic()
    v18 = permanent_ryser(random_digraph(18, 0.5, seed=180).adjacency())
    t_ryser = time.monotonic() - t0
    assert v18 == 27491618862
    print(
        f"  informational: ham_detper n=16 {t_det:.1f}s (target 300s), "
        f"ryser n=18 {t_ryser:.1f}s (target 120s)"
    )
