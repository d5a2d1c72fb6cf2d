from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gens import digraphs, int_matrices
from oracles import (
    anchored_cycle_weights_oracle,
    bareiss_det,
    coeff_extract,
    identity_minus_xa,
    identity_plus_xa,
    matrix_series_oracle,
    multilinear_inverse,
    path_sets_oracle,
    permanent_expansion,
    sgn,
)
from redeiberge.combinat import cycle_type, cycles_of, partitions_of
from redeiberge.digraph import (
    complete_digraph,
    digraph,
    empty_digraph,
    enumerate_cycle_covers,
)
from redeiberge.guards import GuardError, guard
from redeiberge.ringmat import (
    MultilinearPoly,
    _anchored_cycle_weights,
    _cycle_cover_sums,
    det_ring,
    immanant,
    mask_of,
    matrix_series,
    mlp_identity,
    mlp_mat_mul,
    partition_sum,
    path_counts,
    permanent_ryser,
    principal_determinants,
    principal_permanents,
    series_coefficients,
    submatrix,
    subset_exp,
    xa_matrix,
)
from redeiberge.symfun import SymFun, equals, to_p


def leibniz_det(M) -> int:
    n = len(M)
    total = 0
    for images in permutations(range(n)):
        prod = 1
        for i, j in enumerate(images):
            prod *= M[i][j]
        total += sgn(tuple(j + 1 for j in images)) * prod
    return total


# ------------------------------------------------------------ MultilinearPoly

def test_multilinear_squares_vanish():
    x1 = MultilinearPoly.variable(3, 1)
    x2 = MultilinearPoly.variable(3, 2)
    assert not (x1 * x1).terms
    s = x1 + x2
    assert (s * s).coeff({1, 2}) == 2
    assert (s * s).coeff({1}) == 0
    assert coeff_extract(s * s, (1, 2)) == 2
    assert mask_of((1, 3)) == 0b101


def test_multilinear_validation_and_const():
    with pytest.raises(ValueError):
        MultilinearPoly(2, {0b100: 1})
    with pytest.raises(ValueError):
        MultilinearPoly.variable(2, 3)
    c = MultilinearPoly.const(2, 7)
    assert c.coeff(0) == 7
    assert c.coeff(()) == 7


def test_repr_prints_packed_degree_partitions():
    # det H(XA) of a 2-cycle is 1 + (2 h_2 - h_1^2) x1 x2: two terms on the
    # support x1 x2 that differ only in their packed h partition
    det = det_ring(matrix_series([[0, 1], [1, 0]], "H"), MultilinearPoly.const(2, 1))
    assert repr(det) == "(1) + (-1)*x1*x2[1,1] + (2)*x1*x2[2]"
    assert repr(MultilinearPoly(2, {0: 1, 0b11: 2})) == "(1) + (2)*x1*x2"


def test_multilinear_inverse_is_geometric():
    # (1 - x1 - x2)^(-1) = 1 + (x1 + x2) + 2 x1 x2
    f = MultilinearPoly(2, {0: 1, 0b01: -1, 0b10: -1})
    inv = multilinear_inverse(f)
    assert inv.coeff(0) == 1
    assert inv.coeff({1}) == 1
    assert inv.coeff({2}) == 1
    assert inv.coeff({1, 2}) == 2
    assert (f * inv) == MultilinearPoly.const(2, Fraction(1))
    with pytest.raises(ZeroDivisionError):
        multilinear_inverse(MultilinearPoly(2, {0b01: 1}))


# ------------------------------------------------------------ determinants

@given(int_matrices(max_n=5))
def test_bareiss_matches_leibniz(M):
    assert bareiss_det(M) == leibniz_det(M)


@given(int_matrices(max_n=4))
def test_det_ring_and_fraction_path_match_bareiss(M):
    ref = bareiss_det(M)
    assert det_ring(M, 1) == ref
    Mq = [[Fraction(x, 2) for x in row] for row in M]
    assert det_ring(Mq, Fraction(1)) == Fraction(ref, 2 ** len(M))


def test_determinant_edge_cases():
    assert bareiss_det([]) == 1
    assert det_ring([], 1) == 1
    assert bareiss_det([[0, 1], [0, 0]]) == 0
    assert det_ring([[0, 1], [1, 0]], 1) == -1
    with pytest.raises(GuardError):
        det_ring([[1] * 9 for _ in range(9)], 1)


# -------------------------------------------------------------- permanents

@given(int_matrices(max_n=5))
def test_ryser_matches_expansion(M):
    assert permanent_ryser(M) == permanent_expansion(M)


def test_permanent_examples():
    assert permanent_ryser([]) == 1
    assert permanent_ryser([[1, 1, 1]] * 3) == 6
    assert permanent_ryser([[1, 0], [0, 1]]) == 1
    with pytest.raises(GuardError):
        permanent_ryser([[1] * 21 for _ in range(21)])


@given(int_matrices(max_n=4))
def test_determinant_permanent_parity(M):
    assert (bareiss_det(M) - permanent_ryser(M)) % 2 == 0


# --------------------------------------------------- principal minor families

@given(int_matrices(max_n=4))
def test_principal_families_match_direct_minors(M):
    n = len(M)
    pers = principal_permanents(M)
    dets = principal_determinants(M)
    for S in range(1 << n):
        verts = [i + 1 for i in range(n) if S >> i & 1]
        sub = submatrix(M, verts)
        assert pers[S] == permanent_expansion(sub), verts
        assert dets[S] == bareiss_det(sub), verts


# ---------------------------------------------------------------- subset_exp

def _cycles(D):
    return _anchored_cycle_weights(D.adjacency())


def test_subset_exp_edge_cases():
    # n = 0: the empty partition, once per alphabet
    assert subset_exp([1]) == {((),): 1}
    assert subset_exp([1], [0]) == {((), ()): 1}
    # no cycles at all: no set partition of a nonempty set has a weight
    assert subset_exp(_cycles(empty_digraph(3))) == {}
    # loops only: all singletons, each in either alphabet
    loops = _cycles(digraph(3, [(v, v) for v in (1, 2, 3)]))
    assert subset_exp(loops) == {((1, 1, 1),): 1}
    assert subset_exp(loops, loops) == {
        ((1,) * a, (1,) * (3 - a)): comb(3, a) for a in range(4)
    }
    # complete with loops: a block on k vertices carries (k-1)! cycles, so
    # p_lam counts the permutations of cycle type lam
    for n in range(5):
        by_type = Counter(
            cycle_type(p) for p in permutations(range(1, n + 1))
        )
        got = subset_exp(_cycles(complete_digraph(n, loops=True)))
        assert got == {(lam,): c for lam, c in by_type.items()}


@st.composite
def mask_weights(draw, max_n=6):
    """Two weight lists indexed by the bitmasks of [n]."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    weights = st.lists(
        st.integers(min_value=-3, max_value=3), min_size=1 << n, max_size=1 << n
    )
    return draw(weights), draw(weights)


@given(mask_weights())
def test_subset_exp_at_unit_power_sums_is_the_cycle_cover_sum(pair):
    # p_k = 1 in every alphabet forgets block sizes and alphabets, leaving
    # the scalar convolution of the summed weights
    w, v = pair
    assert sum(subset_exp(w).values()) == _cycle_cover_sums(w)[-1]
    both = [a + b for a, b in zip(w, v)]
    assert sum(subset_exp(w, v).values()) == _cycle_cover_sums(both)[-1]


def test_subset_exp_on_one_vertex():
    # the only partition of {1} is one block: the loop, if there is one
    lonely, looped = _cycles(empty_digraph(1)), _cycles(digraph(1, [(1, 1)]))
    assert subset_exp(lonely) == {}
    assert subset_exp(lonely, lonely) == {}
    assert subset_exp(looped) == {((1,),): 1}
    assert subset_exp(looped, lonely) == {((1,), ()): 1}
    assert subset_exp([0, 2], [0, -3]) == {((1,), ()): 2, ((), (1,)): -3}


@given(mask_weights())
def test_partition_sum_is_the_last_cycle_cover_sum(pair):
    w, _ = pair
    assert partition_sum(w) == _cycle_cover_sums(w)[-1]


def test_partition_sum_small_n():
    assert partition_sum([0]) == partition_sum([5]) == 1  # the empty partition
    assert partition_sum([7, -2]) == -2
    # {1,2} splits as {1}{2} or stays whole
    assert partition_sum([0, 2, 3, 5]) == 2 * 3 + 5


@st.composite
def weighted_matrices(draw, max_n=6):
    """Integer matrices with negative entries and loops, some rows zeroed."""
    M = draw(int_matrices(min_n=0, max_n=max_n, lo=-3, hi=3))
    zero_rows = draw(st.sets(st.integers(min_value=0, max_value=max(len(M) - 1, 0))))
    return [[0] * len(row) if i in zero_rows else row for i, row in enumerate(M)]


@given(weighted_matrices())
def test_anchored_cycle_weights_match_the_permutation_oracle(M):
    assert _anchored_cycle_weights(M) == anchored_cycle_weights_oracle(M)


@given(digraphs(max_n=5))
@example(digraph(0, []))
@example(digraph(2, [(1, 1), (1, 2), (2, 1)]))
def test_path_counts_match_the_path_set_oracle(D):
    # h[0] = 1 for the empty path, and loops never extend a path
    n = D.n
    h = path_counts(D.adjacency())
    assert len(h) == 1 << n
    by_size = [path_sets_oracle(D, k) for k in range(n + 1)]
    for S, c in enumerate(h):
        verts = frozenset(v + 1 for v in range(n) if S >> v & 1)
        assert c == by_size[len(verts)].get(verts, 0), S


def test_principal_minors_guard():
    with pytest.raises(GuardError):
        principal_permanents([[1] * 19 for _ in range(19)])


def test_guards_ignore_the_environment(monkeypatch):
    # Bounds are fixed in the code; no environment variable raises them.
    monkeypatch.setenv("REDEI_GUARD_OVERRIDE", "99")
    with pytest.raises(GuardError):
        guard("det_ring", 9, 8)
    with pytest.raises(GuardError):
        det_ring([[1] * 9 for _ in range(9)], 1)
    with pytest.raises(GuardError):
        principal_determinants([[1] * 19 for _ in range(19)])


def test_submatrix_rectangular():
    M = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert submatrix(M, [1, 3]) == [[1, 3], [7, 9]]
    assert submatrix(M, [2], [1, 3]) == [[4, 6]]


# ------------------------------------------------------------------ immanants

def test_immanant_extremes_and_example():
    M = [[1, 2], [3, 4]]
    assert immanant(M, (1, 1)) == bareiss_det(M)
    assert immanant(M, (2,)) == permanent_expansion(M)
    ones = [[1] * 3 for _ in range(3)]
    assert immanant(ones, (2, 1)) == 0
    with pytest.raises(ValueError):
        immanant(M, (3,))


@given(int_matrices(max_n=4))
def test_immanant_vs_class_sum_oracle(M):
    n = len(M)
    by_type: dict = {}
    for images in permutations(range(n)):
        sigma = tuple(j + 1 for j in images)
        prod = 1
        for i, j in enumerate(images):
            prod *= M[i][j]
        key = tuple(sorted((len(c) for c in cycles_of(sigma)), reverse=True))
        by_type[key] = by_type.get(key, 0) + prod
    import oracles

    table = oracles.irreducible_characters_oracle(n) if n else {(): {(): 1}}
    for lam in partitions_of(n):
        expected = sum(
            table[lam][mu] * by_type.get(mu, 0) for mu in partitions_of(n)
        )
        assert immanant(M, lam) == expected


# ----------------------------------------------------------- matrix series

def test_xa_matrix_and_identity_series():
    A = [[1, 1], [0, 1]]
    XA = xa_matrix(A)
    assert XA[0][0].coeff({1}) == 1
    assert XA[0][1].coeff({1}) == 1
    assert not XA[1][0].terms
    prod = mlp_mat_mul(XA, XA)
    # (XA)^2 entry (1,2): x1*(A[0][0]x1... ) only x1x2 survives
    assert prod[0][1].coeff({1, 2}) == 1
    ident = mlp_identity(2)
    assert mlp_mat_mul(ident, XA)[0][0] == XA[0][0]


def test_macmahon_det_side():
    # L_S det(I + X A) = det A[S] for every S
    import random

    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(1, 4)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        f = det_ring(identity_plus_xa(A), MultilinearPoly.const(n, 1))
        for S in range(1 << n):
            verts = [i + 1 for i in range(n) if S >> i & 1]
            assert f.coeff(S) == bareiss_det(submatrix(A, verts)), (A, verts)


def test_macmahon_permanent_side():
    # L_S det(I - X A)^(-1) = per A[S]
    import random

    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(1, 4)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        one = MultilinearPoly.const(n, 1)
        f = multilinear_inverse(det_ring(identity_minus_xa(A), one))
        for S in range(1 << n):
            verts = [i + 1 for i in range(n) if S >> i & 1]
            assert f.coeff(S) == permanent_expansion(submatrix(A, verts)), (A, verts)


def test_sylvester_rank_one():
    import random

    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 6)
        u = [rng.randint(-5, 5) for _ in range(n)]
        v = [rng.randint(-5, 5) for _ in range(n)]
        M = [
            [(1 if i == j else 0) + u[i] * v[j] for j in range(n)]
            for i in range(n)
        ]
        assert bareiss_det(M) == 1 + sum(a * b for a, b in zip(u, v))


def test_matrix_series_small():
    assert matrix_series([], "H") == []
    H = matrix_series([[1]], "H")
    entry = series_coefficients(H[0][0], "H")
    assert equals(entry[0], SymFun.const(1))
    assert equals(entry[mask_of({1})], SymFun.element("h", (1,)))
    E = matrix_series([[1]], "E")
    assert equals(series_coefficients(E[0][0], "E")[1], SymFun.element("e", (1,)))
    # entries carry h (or e) basis coefficients with int values
    A = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    for kind in ("H", "E"):
        entries = [e for row in matrix_series(A, kind) for e in row]
        assert all(type(v) is int for e in entries for v in e.terms.values())
        coeffs = [
            c for e in entries for c in series_coefficients(e, kind).values()
        ]
        assert coeffs and {c.basis for c in coeffs} == {kind.lower()}
        assert all(type(v) is int for c in coeffs for v in c.terms.values())
    with pytest.raises(ValueError):
        matrix_series([[1]], "Q")
    with pytest.raises(ValueError):
        series_coefficients(MultilinearPoly.const(1, 1), "Q")
    with pytest.raises(GuardError):
        matrix_series([[0] * 7 for _ in range(7)], "H")


def _p_terms(c) -> dict:
    return to_p(c).terms if c else {}


@given(int_matrices(max_n=5, lo=-2, hi=2))
@example([[-2]])
@example([[2, -1, 0], [1, -2, 1], [0, -1, 1]])
def test_packed_series_det_matches_symfun_oracle(A):
    # det_ring of the packed integer series, decoded, against det_ring of
    # the series built with SymFun coefficients, at every vertex set
    n = len(A)
    for kind in ("H", "E"):
        basis = kind.lower()
        got = series_coefficients(
            det_ring(matrix_series(A, kind), MultilinearPoly.const(n, 1)), kind
        )
        one = MultilinearPoly.const(n, SymFun.const(1, basis))
        want = det_ring(matrix_series_oracle(A, kind), one)
        for mask in range(1 << n):
            assert _p_terms(got.get(mask)) == _p_terms(want.coeff(mask))


def test_packed_series_det_small_n():
    for kind in ("H", "E"):
        det0 = det_ring(matrix_series([], kind), MultilinearPoly.const(0, 1))
        assert series_coefficients(det0, kind) == {0: SymFun.const(1, kind.lower())}
    # one vertex with a loop of weight -3: det = 1 - 3 h_1 x1; no loop: 1
    got = series_coefficients(
        det_ring(matrix_series([[-3]], "H"), MultilinearPoly.const(1, 1)), "H"
    )
    assert got == {0: SymFun.const(1, "h"), 1: SymFun("h", {(1,): -3})}
    assert not series_coefficients(
        det_ring(matrix_series([[0]], "E"), MultilinearPoly.const(1, 1)), "E"
    ).get(1)


def test_series_extraction_is_cycle_cover_sum():
    # full-support coefficient of det H_z(XA): sum of p_cyc over cycle
    # covers; checked directly against the cover enumeration
    D = digraph(3, [(1, 2), (2, 1), (3, 3), (1, 1), (2, 3)])
    A = D.adjacency()
    f = det_ring(matrix_series(A, "H"), MultilinearPoly.const(3, 1))
    got = to_p(series_coefficients(f, "H")[0b111])
    expect: dict = {}
    for cover in enumerate_cycle_covers(D):
        lam = cover.cycle_partition()
        expect[lam] = expect.get(lam, 0) + 1
    assert got.terms == {lam: Fraction(c) for lam, c in expect.items()}
