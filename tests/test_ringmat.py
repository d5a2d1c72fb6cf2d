import ast
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gens import digraphs, int_matrices
from oracles import (
    anchored_cycle_weights_oracle,
    bareiss_det,
    coeff_extract,
    cycle_cover_sums,
    cycle_type,
    cycles_of,
    det_ring_leibniz,
    equals,
    identity_minus_xa,
    identity_plus_xa,
    matrix_series_oracle,
    multilinear_inverse,
    path_sets_oracle,
    permanent_expansion,
    ring_add,
    ring_mul,
    sgn,
    variable,
)
from redeiberge import ringmat
from redeiberge.combinat import partitions_of
from redeiberge.digraph import (
    complement,
    complete_digraph,
    digraph,
    empty_digraph,
    enumerate_cycle_covers,
    random_digraph,
)
from redeiberge.guards import GuardError, guard
from redeiberge.ringmat import (
    _anchored_cycle_weights,
    _cycle_cover_sums,
    _packing_depth,
    _signed_cycles,
    det_ring,
    immanant,
    matrix_series,
    partition_sum,
    path_counts,
    permanent_ryser,
    principal_determinants,
    principal_permanents,
    series_coefficients,
    submatrix,
    subset_exp,
)
from redeiberge.symfun import SymFun, to_p
from redeiberge.walks import xi


def leibniz_det(M) -> int:
    n = len(M)
    total = 0
    for images in permutations(range(n)):
        prod = 1
        for i, j in enumerate(images):
            prod *= M[i][j]
        total += sgn(tuple(j + 1 for j in images)) * prod
    return total


# ------------------------------------------- the tests' multilinear ring

def test_multilinear_squares_vanish():
    x1, x2 = variable(1), variable(2)
    assert ring_mul(x1, x1, 3) == {}
    s = ring_add(x1, x2)
    assert ring_mul(s, s, 3) == {0b11: 2}
    assert coeff_extract(ring_mul(s, s, 3), (1, 2)) == 2
    assert ring_add(s, variable(1, -1)) == x2
    # keys above the low n bits add without an overlap test
    assert ring_mul({0b1100: 3}, {0b0110: 5}, 2) == {0b10010: 15}


def test_multilinear_inverse_is_geometric():
    # (1 - x1 - x2)^(-1) = 1 + (x1 + x2) + 2 x1 x2
    f = {0: 1, 0b01: -1, 0b10: -1}
    inv = multilinear_inverse(f, 2)
    assert inv == {0: 1, 0b01: 1, 0b10: 1, 0b11: 2}
    assert ring_mul(f, inv, 2) == {0: 1}
    assert multilinear_inverse({0: 2, 0b01: 1}, 1) == {0: Fraction(1, 2), 0b01: Fraction(-1, 4)}
    with pytest.raises(ZeroDivisionError):
        multilinear_inverse({0b01: 1}, 2)


def test_oracles_import_nothing_from_ringmat():
    # the oracle ring multiplies with its own loop, never the kernel's
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert "redeiberge.symfun" in imported
    assert not [m for m in imported if m.split(".")[:2] == ["redeiberge", "ringmat"]]


# ------------------------------------------------------------ determinants

@given(int_matrices(max_n=5))
def test_bareiss_matches_leibniz(M):
    assert bareiss_det(M) == leibniz_det(M)


def _scalars(M) -> list:
    """A scalar matrix over the multilinear ring on n = 0 variables."""
    return [[{0: x} if x else {} for x in row] for row in M]


def _xa(A) -> list:
    """X A with X = diag(x_1..x_n), as term dicts."""
    return [[{1 << i: a} if a else {} for a in row] for i, row in enumerate(A)]


@given(int_matrices(max_n=4))
def test_det_ring_and_fraction_path_match_bareiss(M):
    ref = bareiss_det(M)
    assert det_ring(_scalars(M), 0) == ({0: ref} if ref else {})
    Mq = _scalars([[Fraction(x, 2) for x in row] for row in M])
    got = det_ring(Mq, 0)
    assert got == ({0: Fraction(ref, 2 ** len(M))} if ref else {})


def test_determinant_edge_cases():
    assert bareiss_det([]) == 1
    assert det_ring([], 0) == {0: 1}
    assert bareiss_det([[0, 1], [0, 0]]) == 0
    assert det_ring(_scalars([[0, 1], [1, 0]]), 0) == {0: -1}
    with pytest.raises(GuardError):
        det_ring(_scalars([[1] * 9 for _ in range(9)]), 0)


@st.composite
def ring_matrices(draw, max_size=4, max_n=4):
    """(M, n): a square matrix of up to max_size rows over the multilinear
    ring in n <= max_n variables, each entry a few int-coefficient terms."""
    n = draw(st.integers(0, max_n))
    size = draw(st.integers(0, max_size))
    terms = st.dictionaries(
        st.integers(0, (1 << n) - 1), st.integers(-3, 3), max_size=3
    )
    M = [[draw(terms) for _ in range(size)] for _ in range(size)]
    return M, n


def _det_ring_cases() -> list:
    """(M, n) over X A, I + X A and both packed series of seeded A, and
    the Jacobi-Trudi matrices [xi_{lam_i - i + j}] of seeded digraphs,
    whose entries share variables, so products of overlapping terms would
    not drop out unnoticed."""
    rng = random.Random(11)
    cases = []
    for n in range(5):
        A = [[rng.choice((0, 0, 1, -2)) for _ in range(n)] for _ in range(n)]
        for M in (
            _xa(A),
            identity_plus_xa(A),
            matrix_series(A),
        ):
            cases.append((M, n))
    for n in (3, 4):
        xis = xi(random_digraph(n, 0.6, seed=n))
        for lam in partitions_of(n):
            M = [
                [xis[k] if 0 <= k <= n else {} for k in range(part - i, part - i + len(lam))]
                for i, part in enumerate(lam)
            ]
            cases.append((M, n))
    return cases


@given(ring_matrices())
def test_det_ring_matches_the_leibniz_oracle(case):
    M, n = case
    det = det_ring(M, n)
    assert det == det_ring_leibniz(M, n)
    assert all(det.values())


def test_det_ring_matches_the_leibniz_oracle_on_series():
    # packed keys: degree fields above bit n - 1 add, supports must not meet
    for M, n in _det_ring_cases():
        det = det_ring(M, n)
        assert det == det_ring_leibniz(M, n), (M, n)
        assert all(det.values())


def test_det_ring_leaves_its_entries_unchanged():
    # the minors are summed in place: no entry's dict may be one of them,
    # nor be negated or pruned where it is
    cases = _det_ring_cases() + [([], 3), ([[{0: 5}]], 2)]
    for M, n in cases:
        before = [[dict(e) for e in row] for row in M]
        det = det_ring(M, n)
        assert M == before
        assert all(det is not e for row in M for e in row)
        det.clear()  # the result is the caller's to change
        assert M == before
        assert det_ring(M, n) == det_ring_leibniz(M, n)


def test_det_ring_stores_no_zero_when_products_cancel():
    p = {0b001: 1, 0b010: 3}  # x1 + 3 x2
    q = {0b001: 2, 0b010: 1}  # 2 x1 + x2
    # p q and q p share the term 7 x1 x2, which cancels in det
    assert det_ring([[p, q], [p, q]], 3) == {}
    r = {0: 1, 0b100: 2}  # 1 + 2 x3
    assert det_ring([[p, q, r], [p, q, r], [{}, {0b100: 1}, {0b100: 2}]], 3) == {}
    # p q - q (p + r) = -q r: the x1 x2 key cancels, the others stay
    det = det_ring([[p, q], [ring_add(p, r), q]], 3)
    assert det == {k: -c for k, c in ring_mul(q, r, 3).items()}
    assert 0b011 not in det and all(det.values())


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


# ------------------------------------------------------ cycle-cover convolution
#
# The packing depth steps from 0 to 3 top vertices between n = 6 and
# n = 7; the tests below run every n up to 11, so each depth meets
# tables of several sizes.

def test_packing_depth_changes_only_at_tested_sizes():
    depths = [_packing_depth(n) for n in range(19)]  # up to principal_minors' 18
    assert depths[:7] == [0] * 7
    assert set(depths[7:]) == {3}


def _weights(n: int, bound: int, seed: int) -> list:
    """Zeros, +-bound and values between, in about equal shares."""
    rng = random.Random(seed)
    return [
        rng.choice((0, bound, -bound, rng.randint(-bound, bound)))
        for _ in range(1 << n)
    ]


@settings(max_examples=60)
@given(st.integers(0, 11), st.sampled_from([3, 10**15]), st.integers(0, 2**32))
@example(n=6, bound=10**15, seed=0)
@example(n=7, bound=10**15, seed=0)
def test_cycle_cover_sums_match_the_scalar_oracle(n, bound, seed):
    w = _weights(n, bound, seed)
    assert _cycle_cover_sums(w) == cycle_cover_sums(w)


@pytest.mark.parametrize("M", [1, 3, 10**15, -1, -3, -(10**15)])
def test_cycle_cover_sums_at_the_field_bound(M):
    # With every weight M, out[S] sums M^(blocks) over the set partitions
    # of S, so for M > 0 the full set sits exactly at the bound e_n:
    # sum_k stirling[k] M^k, stirling[k] counting the partitions of [n]
    # into k blocks.  With the full set's weight alone, e stops at
    # e_n = |M| even when packed, so out[[n]] = M sits at the bound that
    # sizes the fields.
    stirling = [1]
    for n in range(12):
        w = [M] * (1 << n)
        got = _cycle_cover_sums(w)
        assert got == cycle_cover_sums(w)
        assert got[-1] == sum(s * M**k for k, s in enumerate(stirling))
        alone = [0] * ((1 << n) - 1) + [M]
        assert _cycle_cover_sums(alone)[-1] == (M if n else 1)
        assert _cycle_cover_sums(alone) == cycle_cover_sums(alone)
        stirling = [
            k * s + t for k, (s, t) in enumerate(zip(stirling + [0], [0] + stirling))
        ]


@pytest.mark.parametrize("M", [10**6, -(10**6)])
def test_cycle_cover_sums_bound_the_overlap_fields(M):
    # Blocks on 4 vertices weigh M, all others 1.  No set of 7 vertices
    # holds two such blocks, so every out[S] is of order M, but an
    # overlap field of a packed sum pairs two of them (about M^2): the
    # field width must come from e carried to n - 3 + 4 = n + 1 (4 is the
    # largest digit sum of a field the decode reads), not to n.
    w = [M if m.bit_count() == 4 else 1 for m in range(1 << 7)]
    assert _cycle_cover_sums(w) == cycle_cover_sums(w)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_cycle_cover_sums_at_every_packing_depth(monkeypatch, k):
    # Depth k from 7 vertices up, 0 below so the top table is not packed.
    # +-M on the blocks of (n + t) // 2 vertices holding the top t: no set
    # holds two of them, but the field with a digit 2 for each of the t
    # pairs two.  At k = 3 with t = 2 and odd n (digit sum 4), and at
    # k = 4 with t = 3 and even n (digit sum 6), only e_(n - k + 2t), the
    # last bound _field_bits carries, sees that product.
    monkeypatch.setattr(ringmat, "_packing_depth", lambda n: k if n >= 7 else 0)
    for n in range(7, 12):
        w = _weights(n, 10**15, 10 * n + k)
        assert _cycle_cover_sums(w) == cycle_cover_sums(w)
        for t in (2, 3):
            top, size = ((1 << t) - 1) << (n - t), (n + t) // 2
            big = [m & top == top and m.bit_count() == size for m in range(1 << n)]
            for M in (10**6, -(10**6)):
                w = [M if b else 1 for b in big]
                assert _cycle_cover_sums(w) == cycle_cover_sums(w)


@settings(max_examples=8)
@given(st.integers(9, 10), st.sampled_from([0.3, 0.5, 0.7]), st.integers(0, 999))
def test_cycle_cover_sums_on_anchored_cycle_weights(n, p, seed):
    # per and det tables of D and of its complement, as ham --cycles builds
    D = random_digraph(n, p, seed)
    for A in (D.adjacency(), complement(D).adjacency()):
        cyc = _anchored_cycle_weights(A)
        for w in (cyc, _signed_cycles(cyc)):
            assert _cycle_cover_sums(w) == cycle_cover_sums(w)


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
    assert sum(subset_exp(w).values()) == cycle_cover_sums(w)[-1]
    both = [a + b for a, b in zip(w, v)]
    assert sum(subset_exp(w, v).values()) == cycle_cover_sums(both)[-1]


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
    assert partition_sum(w) == cycle_cover_sums(w)[-1]


@settings(max_examples=30)
@given(st.integers(0, 11), st.sampled_from([3, 10**15]), st.integers(0, 2**32))
@example(n=7, bound=10**15, seed=0)
@example(n=8, bound=10**15, seed=0)
def test_partition_sum_at_every_packing_depth(n, bound, seed):
    # partition_sum's table has n - 1 vertices, so it is packed from n = 8
    w = _weights(n, bound, seed)
    assert partition_sum(w) == cycle_cover_sums(w)[-1]


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


def _signed_matrix(n: int, bound: int, seed: int) -> list:
    """Entries 0, +-bound and between; one row all negative, one zero."""
    rng = random.Random(seed)
    M = [
        [rng.choice((0, bound, -bound, rng.randint(-bound, bound))) for _ in range(n)]
        for _ in range(n)
    ]
    M[rng.randrange(n)] = [-rng.randint(1, bound) for _ in range(n)]
    M[rng.randrange(n)] = [0] * n
    return M


@pytest.mark.parametrize("n", range(1, 9))
def test_anchored_cycle_weights_at_the_field_bound(n):
    # With every entry +-M the full set's anchor field is (n - 1)! M^n, the
    # bound the field width comes from; the random matrices mix signs in
    # every field, with an all-negative row and a zero row.
    big = 10**6
    for M in ([[big] * n] * n, [[-big] * n] * n, _signed_matrix(n, big, n)):
        assert _anchored_cycle_weights(M) == anchored_cycle_weights_oracle(M)
    assert _anchored_cycle_weights([[big] * n] * n)[-1] == factorial(n - 1) * big**n


def test_path_counts_on_complete_digraphs_fill_every_field():
    # h[X] = |X|!, and the full set's total n! is the bound of the field width
    for n in range(11):
        for loops in (False, True):
            h = path_counts(complete_digraph(n, loops=loops).adjacency())
            assert h == [factorial(m.bit_count()) for m in range(1 << n)]


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


def test_submatrix_principal():
    M = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    assert submatrix(M, [1, 3]) == [[1, 3], [7, 9]]
    assert submatrix(M, [3, 1]) == [[1, 3], [7, 9]]


# ------------------------------------------------------------------ immanants

def test_immanant_extremes_and_example():
    M = [[1, 2], [3, 4]]
    assert immanant(M) == {(2,): permanent_expansion(M), (1, 1): bareiss_det(M)}
    ones = [[1] * 3 for _ in range(3)]
    assert immanant(ones) == {(3,): 6, (2, 1): 0, (1, 1, 1): 0}
    # keys are exactly the partitions of n, also at n = 0 and n = 1
    assert immanant([]) == {(): 1}
    assert immanant([[7]]) == {(1,): 7}
    assert immanant([[0]]) == {(1,): 0}
    zero = [[0] * 4 for _ in range(4)]
    assert immanant(zero) == dict.fromkeys(partitions_of(4), 0)


def _immanant_oracle(M) -> dict:
    """Class sums of the diagonal products, cycle types by cycles_of,
    against the Gram-Schmidt character table."""
    import oracles

    n = len(M)
    by_type: dict = {}
    for images in permutations(range(n)):
        sigma = tuple(j + 1 for j in images)
        prod = 1
        for i, j in enumerate(images):
            prod *= M[i][j]
        key = tuple(sorted((len(c) for c in cycles_of(sigma)), reverse=True))
        by_type[key] = by_type.get(key, 0) + prod
    table = oracles.irreducible_characters_oracle(n)
    return {
        lam: sum(table[lam][mu] * by_type.get(mu, 0) for mu in partitions_of(n))
        for lam in partitions_of(n)
    }


@given(int_matrices(max_n=4))
def test_immanant_vs_class_sum_oracle(M):
    assert immanant(M) == _immanant_oracle(M)


def test_immanant_at_zero_one_and_seven():
    assert immanant([]) == _immanant_oracle([]) == {(): 1}
    for x in (-3, 0, 1):
        assert immanant([[x]]) == _immanant_oracle([[x]]) == {(1,): x}
    rng = random.Random(7)
    for entries in ((0, 1), (-1, 0, 1, 2)):
        M = [[rng.choice(entries) for _ in range(7)] for _ in range(7)]
        got = immanant(M)
        assert got == _immanant_oracle(M)
        assert got[(7,)] == permanent_expansion(M)
        assert got[(1,) * 7] == bareiss_det(M)


# ----------------------------------------------------------- matrix series

def test_macmahon_det_side():
    # L_S det(I + X A) = det A[S] for every S
    import random

    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(1, 4)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        f = det_ring(identity_plus_xa(A), n)
        for S in range(1 << n):
            verts = [i + 1 for i in range(n) if S >> i & 1]
            assert f.get(S, 0) == bareiss_det(submatrix(A, verts)), (A, verts)


def test_macmahon_permanent_side():
    # L_S det(I - X A)^(-1) = per A[S]
    import random

    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(1, 4)
        A = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        f = multilinear_inverse(det_ring(identity_minus_xa(A), n), n)
        for S in range(1 << n):
            verts = [i + 1 for i in range(n) if S >> i & 1]
            assert f.get(S, 0) == permanent_expansion(submatrix(A, verts)), (A, verts)


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
    assert matrix_series([]) == []
    S = matrix_series([[1]])
    entry = series_coefficients(S[0][0], 1, "H")
    assert equals(entry[0], SymFun.const(1))
    assert equals(entry[0b1], SymFun.element("h", (1,)))
    assert equals(series_coefficients(S[0][0], 1, "E")[1], SymFun.element("e", (1,)))
    # entries carry int values, read as h (or e) basis coefficients
    A = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    entries = [e for row in matrix_series(A) for e in row]
    assert all(type(v) is int for e in entries for v in e.values())
    for kind in ("H", "E"):
        coeffs = [
            c for e in entries for c in series_coefficients(e, 3, kind).values()
        ]
        assert coeffs and {c.basis for c in coeffs} == {kind.lower()}
        assert all(type(v) is int for c in coeffs for v in c.terms.values())
    with pytest.raises(ValueError):
        series_coefficients({0: 1}, 1, "Q")
    with pytest.raises(GuardError):
        matrix_series([[0] * 7 for _ in range(7)])


def _p_terms(c) -> dict:
    return to_p(c).terms if c else {}


@given(int_matrices(max_n=5, lo=-2, hi=2))
@example([[-2]])
@example([[2, -1, 0], [1, -2, 1], [0, -1, 1]])
def test_packed_series_det_matches_symfun_oracle(A):
    # det_ring of the packed integer series, decoded, against the Leibniz
    # det of the series built with SymFun coefficients, at every vertex set
    n = len(A)
    for kind in ("H", "E"):
        got = series_coefficients(det_ring(matrix_series(A), n), n, kind)
        want = det_ring_leibniz(matrix_series_oracle(A, kind), n)
        for mask in range(1 << n):
            assert _p_terms(got.get(mask)) == _p_terms(want.get(mask))


@given(int_matrices(max_n=4, lo=-2, hi=2))
def test_matrix_series_matches_the_walk_oracle(A):
    # entry by entry: the packed powers of X A, decoded, against the walks
    n = len(A)
    for kind in ("H", "E"):
        for row, want_row in zip(matrix_series(A), matrix_series_oracle(A, kind)):
            for entry, want in zip(row, want_row):
                got = series_coefficients(entry, n, kind)
                assert all(got.values())
                assert {m: to_p(c).terms for m, c in got.items()} == {
                    m: to_p(c).terms for m, c in want.items()
                }


def test_series_det_keeps_packed_degree_partitions_apart():
    # det H(XA) of a 2-cycle is 1 + (2 h_2 - h_1^2) x1 x2: two terms on the
    # support x1 x2 that differ only in their packed h partition
    det = det_ring(matrix_series([[0, 1], [1, 0]]), 2)
    assert len(det) == 3
    assert series_coefficients(det, 2, "H") == {
        0: SymFun.const(1, "h"),
        0b11: SymFun("h", {(1, 1): -1, (2,): 2}),
    }


def test_packed_series_det_small_n():
    for kind in ("H", "E"):
        det0 = det_ring(matrix_series([]), 0)
        assert series_coefficients(det0, 0, kind) == {0: SymFun.const(1, kind.lower())}
    # one vertex with a loop of weight -3: det = 1 - 3 h_1 x1; no loop: 1
    got = series_coefficients(det_ring(matrix_series([[-3]]), 1), 1, "H")
    assert got == {0: SymFun.const(1, "h"), 1: SymFun("h", {(1,): -3})}
    assert not series_coefficients(
        det_ring(matrix_series([[0]]), 1), 1, "E"
    ).get(1)


def test_series_extraction_is_cycle_cover_sum():
    # full-support coefficient of det H_z(XA): sum of p_cyc over cycle
    # covers; checked directly against the cover enumeration.  The two
    # 4-vertex digraphs (4 and 14 cycle covers) catch a det_ring that keeps
    # the products of terms whose supports overlap; the 3-vertex one does not.
    cases = [
        digraph(3, [(1, 2), (2, 1), (3, 3), (1, 1), (2, 3)]),
        random_digraph(4, 0.6, seed=0),
        random_digraph(4, 0.8, seed=1),
    ]
    for D in cases:
        f = det_ring(matrix_series(D.adjacency()), D.n)
        got = to_p(series_coefficients(f, D.n, "H")[(1 << D.n) - 1])
        expect = enumerate_cycle_covers(D)
        assert expect
        assert got.terms == {lam: Fraction(c) for (_, lam), c in expect.items()}
