import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from gens import digraphs
from oracles import (
    denominator_series,
    gamma,
    random_acyclic_digraph,
    walk_series,
)
import redeiberge.walks as walks
from redeiberge.digraph import (
    digraph,
    directed_path_digraph,
    empty_digraph,
    random_digraph,
)
from redeiberge.guards import DisagreementError, GuardError
from redeiberge.hamilton import ham_dp
from redeiberge.walks import verify_walk_identity, xi


# ------------------------------------------------------------------ xi

@given(digraphs(max_n=5))
def test_xi_counts_paths_by_vertex_set(D):
    n = D.n
    xis = xi(D)
    # xi_0..xi_n, and no path has more than n distinct vertices
    assert len(xis) == n + 1
    assert not oracles.path_sets_oracle(D, n + 1)
    for k, poly in enumerate(xis):
        lib = {
            frozenset(v + 1 for v in range(n) if mask >> v & 1): c
            for mask, c in poly.items()
        }
        assert lib == oracles.path_sets_oracle(D, k), k


def test_xi_examples():
    D = digraph(3, [(1, 1), (1, 3), (3, 2)])
    xis = xi(D)
    # loops never extend a path; xi_2 = x1 x3 + x3 x2
    assert xis[2] == {0b101: 1, 0b110: 1}
    assert xis[3] == {0b111: 1}
    assert xis[0] == {0: 1}
    P = directed_path_digraph(4)
    assert xi(P)[4] == {0b1111: 1}
    assert xi(empty_digraph(0)) == [{0: 1}]


@given(digraphs(min_n=1, max_n=5))
def test_xi_full_support_counts_hamiltonian_paths(D):
    assert xi(D)[D.n].get((1 << D.n) - 1, 0) == ham_dp(D)


def test_xi_is_guarded_before_it_allocates():
    # the endpoint DP's table has 2^n entries; ham_dp stops at the same n
    with pytest.raises(GuardError, match="xi"):
        xi(empty_digraph(23))


# ------------------------------------------------------------------- gamma

@given(digraphs(min_n=1, max_n=5), st.integers(min_value=0, max_value=5))
def test_gamma_counts_weighted_walks(D, k):
    pt = [((v * 7) % 5) - 2 for v in range(1, D.n + 1)]
    assert gamma(D, k, pt) == oracles.walks_oracle(D, pt, k + 1)


def test_gamma_validation():
    D = empty_digraph(2)
    with pytest.raises(ValueError):
        gamma(D, -1, [1, 1])
    with pytest.raises(ValueError):
        gamma(D, 1, [1])
    with pytest.raises(GuardError):
        gamma(D, 13, [1, 1])


# ------------------------------------------------------------- walk series

@given(digraphs(min_n=1, max_n=4), st.integers(min_value=0, max_value=3))
def test_walk_series_matches_enumeration(D, shift):
    K = 2 * D.n + 1
    pt = [((v + shift) % 3) - 1 for v in range(1, D.n + 1)]
    series = walk_series(D, pt, K)
    assert series[0] == 1
    for k in range(1, K + 1):
        assert series[k] == oracles.walks_oracle(D, pt, k), k


@given(digraphs(min_n=2, max_n=5), st.data())
def test_truncated_series_match_oracles(D, data):
    # K < n cuts both determinants below their full degree.
    n = D.n
    K = data.draw(st.integers(min_value=0, max_value=n - 1))
    pt = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    series = walk_series(D, pt, K)
    assert series == [1] + [oracles.walks_oracle(D, pt, k) for k in range(1, K + 1)]
    A = D.adjacency()
    want = [0] * (K + 1)
    for S in range(1 << n):
        verts = [i for i in range(n) if S >> i & 1]
        if len(verts) <= K:
            sub = [[-pt[i] * A[i][j] for j in verts] for i in verts]
            want[len(verts)] += oracles.bareiss_det(sub)
    assert denominator_series(D, pt, K) == want


def test_walk_series_guard_is_the_principal_minor_bound():
    # det(I + zXJ) = 1 + z(x_1 + ... + x_9) over the complete complement
    assert walk_series(empty_digraph(9), [1] * 9, 2) == [1, 9, 0]
    with pytest.raises(GuardError):
        walk_series(empty_digraph(19), [1] * 19, 2)


def test_acyclic_denominator_is_one():
    for seed in range(12):
        D = random_acyclic_digraph(seed % 5 + 1, 0.6, seed)
        pt = [1] * D.n
        assert denominator_series(D, pt, 2 * D.n + 1) == [1] + [0] * (2 * D.n + 1)
    loop = digraph(1, [(1, 1)])
    assert denominator_series(loop, [1], 3) == [1, -1, 0, 0]


# ------------------------------------------------------------- verification

@given(digraphs(max_n=5))
def test_walk_identity_report_passes(D):
    assert verify_walk_identity(D, trials=2, seed=11) is None


def test_walk_identity_guards():
    with pytest.raises(GuardError):
        verify_walk_identity(empty_digraph(9))


def _walk_identity_failures(D) -> list:
    """The failures verify_walk_identity joins into its DisagreementError."""
    with pytest.raises(DisagreementError) as exc:
        verify_walk_identity(D, trials=2, seed=5)
    return str(exc.value).split("; ")


def test_walk_identity_checks_reciprocity_on_the_walk_counts(monkeypatch):
    # Reciprocity multiplies the walk counts of D and Dbar, which use no
    # determinant: a fault in the counts fails it, and a fault in the
    # determinant tables fails the series checks but not reciprocity.
    D = random_digraph(4, 0.5, 2)
    real_counts, real_dets = walks._walk_counts, walks.principal_determinants

    def off_counts(A, pt, count):
        counts = real_counts(A, pt, count)
        return [counts[0], counts[1] + 1, *counts[2:]]

    monkeypatch.setattr(walks, "_walk_counts", off_counts)
    failures = _walk_identity_failures(D)
    assert any("reciprocity" in f for f in failures), failures
    monkeypatch.setattr(walks, "_walk_counts", real_counts)

    def off_dets(M):
        return [d + 7 if S.bit_count() == 2 else d for S, d in enumerate(real_dets(M))]

    monkeypatch.setattr(walks, "principal_determinants", off_dets)
    failures = _walk_identity_failures(D)
    assert any(": series" in f for f in failures), failures
    assert any("complement series" in f for f in failures), failures
    assert not any("reciprocity" in f for f in failures), failures


def test_walk_identity_builds_two_determinant_tables_per_trial(monkeypatch):
    calls = []
    real = walks.principal_determinants

    def counted(M):
        calls.append(len(M))
        return real(M)

    monkeypatch.setattr(walks, "principal_determinants", counted)
    for D in (random_digraph(4, 0.5, 2), random_acyclic_digraph(4, 0.5, 2)):
        calls.clear()
        assert verify_walk_identity(D, trials=3, seed=1) is None
        assert calls == [4] * 6
