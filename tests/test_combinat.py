from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from gens import partitions, perms
from oracles import (
    character_degree,
    composition_descents,
    cycle_type,
    cycles_of,
    descent_composition,
    dominates,
    foata_linearize,
    is_digraph_cycle,
    perm_from_cycles,
    permutations_of,
    phi,
    psi,
    record_partition,
    record_positions,
    sgn,
)
from redeiberge.combinat import (
    character,
    conjugate,
    hook_partition,
    is_partition,
    multiplicity_factorial,
    partition_key,
    partitions_of,
    sgn_of_type,
    z_lambda,
)
from redeiberge.digraph import digraph
from redeiberge.guards import GuardError


# ---------------------------------------------------------------- partitions

def test_partition_counts_match_pentagonal_recurrence():
    for n in range(13):
        assert len(partitions_of(n)) == oracles.euler_partition_count(n)


def test_partitions_are_valid_and_reverse_lex():
    for n in range(9):
        parts = partitions_of(n)
        assert all(is_partition(lam) and sum(lam) == n for lam in parts)
        assert parts == sorted(parts, reverse=True)
        assert len(set(parts)) == len(parts)
    assert partitions_of(0) == [()]
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partitions_guard():
    with pytest.raises(GuardError):
        partitions_of(26)
    with pytest.raises(ValueError):
        partitions_of(-1)


def test_partition_key_sorts_by_weight_then_revlex():
    pool = [lam for n in range(6) for lam in partitions_of(n)]
    ordered = sorted(pool, key=partition_key)
    assert ordered == [lam for n in range(6) for lam in partitions_of(n)]


@given(partitions())
def test_conjugate_is_an_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert sum(conjugate(lam)) == sum(lam)
    assert is_partition(conjugate(lam))


def test_conjugate_examples():
    assert conjugate(()) == ()
    assert conjugate((4,)) == (1, 1, 1, 1)
    assert conjugate((3, 2)) == (2, 2, 1)


def test_hook_partition_shape_and_conjugate():
    for n in range(1, 7):
        for i in range(1, n + 1):
            hook = hook_partition(i, n)
            assert hook == (i,) + (1,) * (n - i)
            assert conjugate(hook) == hook_partition(n - i + 1, n)
    with pytest.raises(ValueError):
        hook_partition(0, 3)
    with pytest.raises(ValueError):
        hook_partition(4, 3)


def test_z_lambda_class_sizes_sum_to_group_order():
    for n in range(8):
        assert sum(factorial(n) // z_lambda(lam) for lam in partitions_of(n)) == factorial(n)
    assert z_lambda((1, 1, 1)) == 6
    assert z_lambda((3,)) == 3
    assert z_lambda((2, 2, 1)) == 8


@given(partitions(max_weight=7))
def test_z_lambda_counts_centralizer(lam):
    n = sum(lam)
    class_size = sum(1 for pi in permutations_of(n) if cycle_type(pi) == lam)
    assert class_size == factorial(n) // z_lambda(lam)


def test_multiplicity_factorial():
    assert multiplicity_factorial(()) == 1
    assert multiplicity_factorial((3, 1)) == 1
    assert multiplicity_factorial((2, 2, 2, 1)) == 6
    assert multiplicity_factorial((1, 1, 1, 1)) == 24


def test_dominates_on_weight_four():
    assert dominates((4,), (2, 2))
    assert dominates((2, 2), (2, 1, 1))
    assert not dominates((2, 2), (3, 1))
    assert not dominates((3, 1), (4,))
    assert dominates((3, 1), (3, 1))


# --------------------------------------------------------------- permutations

@given(perms(min_n=1, max_n=6))
def test_cycles_partition_the_domain(pi):
    cycles = cycles_of(pi)
    elements = [v for c in cycles for v in c]
    assert sorted(elements) == list(range(1, len(pi) + 1))
    for c in cycles:
        assert c[0] == min(c)
    assert [c[0] for c in cycles] == sorted(c[0] for c in cycles)
    assert perm_from_cycles(len(pi), cycles) == pi


def test_cycles_follow_sigma():
    pi = (4, 3, 2, 6, 5, 1)
    assert cycles_of(pi) == [(1, 4, 6), (2, 3), (5,)]
    assert cycle_type(pi) == (3, 2, 1)
    assert cycles_of({7: 9, 9: 7}) == [(7, 9)]


@given(perms(min_n=1, max_n=6))
def test_sgn_matches_inversion_parity(pi):
    inversions = sum(
        1
        for i in range(len(pi))
        for j in range(i + 1, len(pi))
        if pi[i] > pi[j]
    )
    assert sgn(pi) == (-1) ** inversions
    assert sgn(pi) == sgn_of_type(cycle_type(pi))


@given(perms(min_n=1, max_n=5), st.randoms(use_true_random=False))
def test_sgn_is_multiplicative(pi, rng):
    n = len(pi)
    tau = list(range(1, n + 1))
    rng.shuffle(tau)
    composed = tuple(pi[t - 1] for t in tau)
    assert sgn(composed) == sgn(pi) * sgn(tuple(tau))


def test_psi_counts_nontrivial_cycles():
    assert psi((1, 2, 3)) == 0
    assert psi((2, 1, 3)) == 1
    assert psi((2, 1, 4, 3)) == 2


def test_phi_counts_digraph_cycle_excess():
    D = digraph(3, [(1, 1), (1, 3), (3, 1), (2, 2)])
    assert phi((1, 2, 3), D) == 0
    # cycle (1,3) is a digraph cycle and adds 1; the fixed point 2 adds 0
    assert phi((3, 2, 1), D) == 1
    assert phi((2, 1, 3), D) == 0


def test_is_digraph_cycle_fixed_point_needs_loop():
    D = digraph(2, [(1, 1), (1, 2)])
    assert is_digraph_cycle((1,), D)
    assert not is_digraph_cycle((2,), D)
    assert not is_digraph_cycle((1, 2), D)


# ------------------------------------------------- records and Foata's map

def test_record_positions_and_partition():
    assert record_positions((3, 2, 5, 6, 4, 1)) == [1, 3, 4]
    assert record_partition((3, 2, 5, 6, 4, 1)) == (3, 2, 1)
    assert record_partition((1, 2, 3)) == (1, 1, 1)
    assert record_partition((3, 2, 1)) == (3,)
    assert record_partition(()) == ()


def test_foata_example():
    pi = (4, 3, 2, 6, 5, 1)
    assert foata_linearize(pi) == (3, 2, 5, 6, 4, 1)


@given(perms(min_n=0, max_n=7))
def test_foata_is_a_type_preserving_bijection(pi):
    word = foata_linearize(pi)
    assert sorted(word) == list(range(1, len(pi) + 1))
    assert record_partition(word) == cycle_type(pi) if pi else word == ()


def test_foata_bijectivity_exhaustive():
    for n in range(6):
        images = {foata_linearize(pi) for pi in permutations_of(n)}
        assert len(images) == factorial(n)


# ------------------------------------------------ descent sets, compositions

@given(st.integers(min_value=1, max_value=9), st.data())
def test_descent_composition_roundtrip(n, data):
    descents = data.draw(st.sets(st.integers(min_value=1, max_value=n - 1)) if n > 1 else st.just(set()))
    alpha = descent_composition(descents, n)
    assert sum(alpha) == n
    assert all(a >= 1 for a in alpha)
    assert composition_descents(alpha) == frozenset(descents)


def test_descent_composition_examples():
    assert descent_composition(set(), 4) == (4,)
    assert descent_composition({1, 2, 3}, 4) == (1, 1, 1, 1)
    assert descent_composition({2}, 5) == (2, 3)
    with pytest.raises(ValueError):
        descent_composition({4}, 4)


# ----------------------------------------------------------------- characters

def test_character_table_matches_gram_schmidt_oracle():
    for n in range(1, 6):
        table = oracles.irreducible_characters_oracle(n)
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert character(lam, mu) == table[lam][mu], (lam, mu)


def test_character_known_row():
    # chi^(2,1) on classes (1,1,1), (2,1), (3)
    assert character((2, 1), (1, 1, 1)) == 2
    assert character((2, 1), (2, 1)) == 0
    assert character((2, 1), (3,)) == -1


def test_character_trivial_and_sign_rows():
    for n in range(1, 7):
        for mu in partitions_of(n):
            assert character((n,), mu) == 1
            assert character((1,) * n, mu) == sgn_of_type(mu)


def test_character_degree_counts_standard_tableaux():
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert character_degree(lam) == oracles.syt_count_oracle(lam)


def test_character_orthogonality():
    for n in range(1, 8):
        parts = partitions_of(n)
        for a, lam in enumerate(parts):
            for rho in parts[a:]:
                dot = sum(
                    Fraction(character(lam, mu) * character(rho, mu), z_lambda(mu))
                    for mu in parts
                )
                assert dot == (1 if lam == rho else 0), (lam, rho)


def test_character_weight_mismatch_rejected():
    with pytest.raises(ValueError):
        character((2, 1), (2, 2))
