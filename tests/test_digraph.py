import importlib
import json
from collections import Counter
from math import comb, factorial, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from gens import digraphs
from oracles import (
    all_tournaments,
    induced,
    is_two_cycle_free,
    random_acyclic_digraph,
)
from redeiberge.combinat import is_partition, partitions_of
from redeiberge.digraph import (
    Digraph,
    _path_counts,
    _successors,
    all_digraphs,
    complement,
    complete_digraph,
    d_descent_set,
    digraph,
    digraph_from_json_dict,
    digraph_from_text,
    digraph_hash,
    digraph_to_json_dict,
    digraph_to_text,
    directed_path_digraph,
    empty_digraph,
    enumerate_cycle_covers,
    enumerate_path_covers,
    enumerate_path_cycle_covers,
    has_only_descending_edges,
    is_acyclic,
    is_tournament,
    load_digraph,
    opposite,
    perms_with_all_cycles_in,
    perms_with_cycles_in_either,
    poset_digraph,
    random_digraph,
    random_tournament,
    star_partition_digraph,
)
from redeiberge.guards import GuardError


# ------------------------------------------------------------- construction

def test_constructor_validates_edges():
    with pytest.raises(ValueError):
        digraph(2, [(0, 1)])
    with pytest.raises(ValueError):
        digraph(2, [(1, 3)])
    with pytest.raises(ValueError):
        Digraph(-1, frozenset())
    D = digraph(3, [(1, 2), (1, 2)])
    assert len(D.edges) == 1
    assert D.has_edge(1, 2) and not D.has_edge(2, 1)
    assert D.out_neighbors(1) == [2]
    assert D.adjacency() == [[0, 1, 0], [0, 0, 0], [0, 0, 0]]


def test_labels_must_be_ints_not_floats_bools_or_strings():
    # int() would truncate 3.7 to 3 and 1.9 to 1, and True passes as 1
    for bad in (3.7, True, "3"):
        with pytest.raises(ValueError):
            digraph(bad, [])
        with pytest.raises(ValueError):
            digraph_from_json_dict({"n": bad, "edges": []})
    for bad in (1.9, 1.0, True, "1", 0, 4):
        for edge in ((bad, 2), (2, bad)):
            with pytest.raises(ValueError, match=r"edge .* not inside \[1, 3\]\^2"):
                digraph(3, [edge])
        with pytest.raises(ValueError):
            digraph_from_json_dict({"n": 3, "edges": [[2, bad]]})
    with pytest.raises(ValueError):
        digraph_from_json_dict({"n": 3.7, "edges": [[1.9, 2], [True, 3]]})
    assert digraph_from_json_dict({"n": 3, "edges": [[1, 2]]}) == digraph(3, [(1, 2)])


def test_edges_must_be_a_sequence_of_pairs():
    for bad in ([1], 5, None, [[[1], 2]], [(1, 2, 3)], [(1,)]):
        with pytest.raises(ValueError):
            digraph(3, bad)
    for bad in ([(1, 2, 3)], [(1,)], [[1, 2], 3]):
        with pytest.raises(ValueError, match=r"edges must be \(u, v\) pairs"):
            digraph_from_json_dict({"n": 3, "edges": bad})


def test_json_input_names_a_missing_key():
    for data, key in (({"n": 3}, "edges"), ({"edges": []}, "n"), ({}, "n")):
        with pytest.raises(ValueError, match=f"lacks the key '{key}'"):
            digraph_from_json_dict(data)


def test_zero_vertex_digraph():
    D = empty_digraph(0)
    assert list(D.vertices()) == []
    assert D.adjacency() == []
    assert complement(D).edges == frozenset()


# --------------------------------------------------------------- operations

@given(digraphs())
def test_complement_is_an_involution_and_partitions_pairs(D):
    Dbar = complement(D)
    assert complement(Dbar) == D
    assert len(D.edges) + len(Dbar.edges) == D.n * D.n
    assert not (D.edges & Dbar.edges)


@given(digraphs())
def test_opposite_is_an_involution(D):
    assert opposite(opposite(D)) == D
    assert len(opposite(D).edges) == len(D.edges)
    # complement and opposite commute
    assert opposite(complement(D)) == complement(opposite(D))


def test_induced_keeps_labels():
    D = digraph(4, [(1, 2), (2, 3), (3, 4), (4, 4)])
    sub = induced(D, {2, 3})
    assert sub.edges == frozenset({(2, 3)})
    assert sub.n == 4
    with pytest.raises(ValueError):
        induced(D, {5})


@given(digraphs(max_n=4))
def test_acyclicity_matches_nilpotent_adjacency(D):
    # A digraph has no directed cycle iff its adjacency matrix is nilpotent
    A = D.adjacency()
    n = D.n
    M = [row[:] for row in A]
    for _ in range(max(n - 1, 0)):
        M = [
            [sum(M[i][k] * A[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    nilpotent = all(M[i][j] == 0 for i in range(n) for j in range(n))
    assert is_acyclic(D) == nilpotent


def test_predicates():
    assert is_tournament(digraph(3, [(1, 2), (2, 3), (3, 1)]))
    assert not is_tournament(digraph(3, [(1, 2), (2, 1), (2, 3), (3, 1)]))
    assert not is_tournament(digraph(2, [(1, 2), (1, 1)]))
    assert is_two_cycle_free(digraph(3, [(1, 2), (2, 3)]))
    assert not is_two_cycle_free(digraph(2, [(1, 2), (2, 1)]))
    assert not is_two_cycle_free(digraph(1, [(1, 1)]))
    assert has_only_descending_edges(directed_path_digraph(4))
    assert not has_only_descending_edges(digraph(2, [(1, 2)]))


def test_descent_set():
    D = digraph(3, [(1, 1), (1, 3), (3, 2)])
    assert d_descent_set(D, (1, 3, 2)) == frozenset({1, 2})
    assert d_descent_set(D, (2, 1, 3)) == frozenset({2})
    assert d_descent_set(D, (2, 3, 1)) == frozenset()


# ----------------------------------------------------------------- generators

def test_generator_shapes():
    assert len(complete_digraph(3).edges) == 6
    assert len(complete_digraph(3, loops=True).edges) == 9
    assert directed_path_digraph(4).edges == frozenset({(2, 1), (3, 2), (4, 3)})
    star = star_partition_digraph([1, 2], [3])
    assert star.edges == frozenset({(3, 1), (3, 2)})
    with pytest.raises(ValueError):
        star_partition_digraph([1], [3])


def test_poset_digraph_transitive_closure():
    D = poset_digraph(3, [(1, 2), (2, 3)])
    # a < b gives the descending edge (b, a)
    assert D.edges == frozenset({(2, 1), (3, 2), (3, 1)})
    assert has_only_descending_edges(D)
    with pytest.raises(ValueError):
        poset_digraph(2, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        poset_digraph(2, [(1, 3)])


def test_random_generators_are_seeded_and_in_family():
    assert random_digraph(5, 0.4, seed=11) == random_digraph(5, 0.4, seed=11)
    assert random_tournament(6, seed=3) == random_tournament(6, seed=3)
    for seed in range(10):
        assert is_tournament(random_tournament(5, seed))
        assert is_acyclic(random_acyclic_digraph(6, 0.5, seed))
    assert len(random_digraph(4, 0.0, seed=0).edges) == 0
    assert len(random_digraph(4, 1.0, seed=0).edges) == 16


def test_random_generators_reject_a_probability_outside_0_1():
    for p in (-0.5, 1.7, float("nan")):
        with pytest.raises(ValueError):
            random_digraph(4, p, seed=0)
        with pytest.raises(ValueError):
            random_acyclic_digraph(4, p, seed=0)


def test_exhaustive_generators():
    threes = list(all_digraphs(2))
    assert len(threes) == 16
    assert len({d.edges for d in threes}) == 16
    tours = list(all_tournaments(3))
    assert len(tours) == 8
    assert all(is_tournament(t) for t in tours)


# -------------------------------------------------------------------- covers

@given(digraphs(max_n=4))
def test_covers_match_edge_subset_enumeration(D):
    assert enumerate_path_cycle_covers(D) == oracles.covers_by_edge_subsets(D)


def test_cover_tallies_match_edge_subsets_at_five_vertices():
    # the oracle walks 2^|E| edge subsets, so these 5-vertex digraphs are sparse
    for seed in range(7):
        D = random_digraph(5, 0.45, seed)
        assert len(D.edges) <= 13, seed
        assert enumerate_path_cycle_covers(D) == oracles.covers_by_edge_subsets(D)


@given(digraphs(max_n=4))
def test_cover_components_partition_vertices(D):
    # each tallied cover's component lengths add up to n, no entry is
    # empty, and a cycle of length 1 needs a loop
    loops = sum(u == v for u, v in D.edges)
    for (paths, cycles), c in enumerate_path_cycle_covers(D).items():
        assert is_partition(paths) and is_partition(cycles) and c > 0
        assert sum(paths) + sum(cycles) == D.n
        assert cycles.count(1) <= loops


def _z(lam) -> int:
    """Order of the centralizer of a permutation of cycle type lam."""
    return prod(i**m * factorial(m) for i, m in Counter(lam).items())


def _orderings(lam) -> int:
    """prod_i m_i(lam)!: the orderings of equal parts of lam."""
    return prod(factorial(m) for m in Counter(lam).values())


def test_cycle_covers_at_the_bound_count_permutations_by_type():
    # a cycle cover of the complete digraph with loops is a permutation
    tally = enumerate_cycle_covers(complete_digraph(8, loops=True))
    assert tally == {((), lam): factorial(8) // _z(lam) for lam in partitions_of(8)}


def test_path_covers_at_the_bound_cut_orderings_into_paths():
    # cut one of the 8! orderings of [8] into paths of lengths lam; paths
    # of equal length come in any order
    tally = enumerate_path_covers(complete_digraph(8))
    assert tally == {
        (lam, ()): factorial(8) // _orderings(lam) for lam in partitions_of(8)
    }
    assert sum(tally.values()) == 394353  # OEIS A000262


def test_path_cycle_covers_at_the_bound_split_the_vertices():
    # the k vertices on paths of lengths mu and the 8 - k on cycles of type
    # nu are chosen in C(8, k) ways; then as in the two tests above
    tally = enumerate_path_cycle_covers(complete_digraph(8, loops=True))
    want = {
        (mu, nu): comb(8, k) * (factorial(k) // _orderings(mu))
        * (factorial(8 - k) // _z(nu))
        for k in range(9)
        for mu in partitions_of(k)
        for nu in partitions_of(8 - k)
    }
    assert tally == want
    assert sum(tally.values()) == sum(comb(8, k) ** 2 * factorial(k) for k in range(9))
    assert sum(tally.values()) == 1441729  # OEIS A002720


@given(digraphs(max_n=5), st.data())
def test_cycle_covers_are_the_pathless_covers(D, data):
    keep = data.draw(st.lists(st.booleans(), min_size=D.n, max_size=D.n))
    subset = [v for v, k in zip(D.vertices(), keep) if k]
    for G in (D, oracles.subdigraph(D, subset)):
        full = enumerate_path_cycle_covers(G)
        assert enumerate_cycle_covers(G) == {
            key: c for key, c in full.items() if not key[0]
        }


@given(digraphs(max_n=5), st.data())
def test_path_covers_are_the_cycleless_covers(D, data):
    keep = data.draw(st.lists(st.booleans(), min_size=D.n, max_size=D.n))
    subset = [v for v, k in zip(D.vertices(), keep) if k]
    for G in (D, oracles.subdigraph(D, subset)):
        full = enumerate_path_cycle_covers(G)
        assert enumerate_path_covers(G) == {
            key: c for key, c in full.items() if not key[1]
        }


def test_path_covers_never_close_a_cycle(monkeypatch):
    def no_cycle(start, *args):
        raise AssertionError(f"path cover enumeration grew a cycle at {start}")

    # the package re-exports the function digraph under the module's name
    module = importlib.import_module("redeiberge.digraph")
    monkeypatch.setattr(module, "_cycle", no_cycle)
    D = complete_digraph(4, loops=True)
    # partitions of [4] into blocks, each block ordered into a path
    assert sum(enumerate_path_covers(D).values()) == 73
    with pytest.raises(AssertionError, match="grew a cycle"):
        enumerate_path_cycle_covers(D)


def _check_path_counts(D):
    count = _path_counts(D.n, _successors(D))
    by_size = [oracles.path_sets_oracle(D, k) for k in range(D.n + 1)]
    for mask in range(1, 1 << D.n):
        verts = frozenset(v for v in D.vertices() if mask >> v - 1 & 1)
        assert count[mask] == by_size[len(verts)].get(verts, 0), sorted(verts)


@given(digraphs(max_n=6))
def test_path_walk_counts_each_vertex_sets_paths(D):
    # the forward-only walk, per vertex set, against explicit enumeration
    _check_path_counts(D)


@pytest.mark.parametrize("n", [7, 8])
def test_path_walk_counts_at_seven_and_eight(n):
    for p in (0.15, 0.5, 0.85):
        _check_path_counts(random_digraph(n, p, 70 + n))


def test_cover_filters():
    D = digraph(2, [(1, 2), (2, 1)])
    # {1}{2}, 1->2, 2->1, cycle(12)
    assert enumerate_path_cycle_covers(D) == {
        ((1, 1), ()): 1, ((2,), ()): 2, ((), (2,)): 1
    }
    assert enumerate_path_covers(D) == {((1, 1), ()): 1, ((2,), ()): 2}
    assert enumerate_cycle_covers(D) == {((), (2,)): 1}
    assert enumerate_cycle_covers(empty_digraph(2)) == {}
    assert enumerate_path_cycle_covers(empty_digraph(2)) == {((1, 1), ()): 1}
    assert enumerate_path_cycle_covers(empty_digraph(0)) == {((), ()): 1}
    with pytest.raises(GuardError):
        enumerate_path_cycle_covers(empty_digraph(9))


# ------------------------------------------------- permutations tied to edges

def _oracle_tally(D, either: bool = False) -> Counter:
    """The filtering oracle's permutations tallied by (cycle type, (-1)^phi)."""
    tally = Counter()
    for sigma in oracles.perms_with_cycles_oracle(D, either):
        lengths, seen = [], set()
        for v in D.vertices():
            if v not in seen:
                cycle = [v]
                while sigma[cycle[-1]] != v:
                    cycle.append(sigma[cycle[-1]])
                seen.update(cycle)
                lengths.append(len(cycle))
        one_line = tuple(sigma[v] for v in D.vertices())
        cycle_type = tuple(sorted(lengths, reverse=True))
        tally[cycle_type, (-1) ** oracles.phi(one_line, D)] += 1
    return tally


def test_perms_with_cycles_in_digraph():
    D = digraph(3, [(1, 2), (2, 1)])
    # identity always allowed (fixed points unconstrained); swap 1,2 allowed.
    # The tally is by (cycle type, sign), and only the D-cycle (1 2) is
    # twisted.
    assert perms_with_all_cycles_in(D) == {((1, 1, 1), 1): 1, ((2, 1), -1): 1}
    # transpositions (13), (23) live in the complement; the 3-cycles mix
    # edges of D and Dbar and are excluded.
    assert perms_with_cycles_in_either(D) == {
        ((1, 1, 1), 1): 1,
        ((2, 1), -1): 1,
        ((2, 1), 1): 2,
    }


def _subdigraphs(D):
    """D, or its subdigraph on a drawn vertex subset, relabeled 1..k."""
    if not D.n:
        return st.just(D)
    subsets = st.sets(st.integers(1, D.n))
    return st.just(D) | subsets.map(lambda vs: oracles.subdigraph(D, vs))


def _check_tally(D):
    """Each family's tally is the oracle's, and counts only kept permutations."""
    for family, either in (
        (perms_with_all_cycles_in, False),
        (perms_with_cycles_in_either, True),
    ):
        tally = family(D)
        assert tally and all(c > 0 for c in tally.values())
        assert tally == _oracle_tally(D, either)


@given(digraphs(max_n=6), st.data())
def test_perm_families_match_filtering_oracle(D, data):
    _check_tally(data.draw(_subdigraphs(D)))


@given(digraphs(max_n=6), st.data())
def test_perm_records_carry_cycle_lengths_and_sign(D, data):
    # each key is a partition of the walked vertex count and a sign; when
    # every nontrivial cycle lies in D, each cycle is twisted by
    # (-1)^(length - 1), so the sign is sgn(sigma) = (-1)^(m - #cycles)
    G = data.draw(_subdigraphs(D))
    m = G.n
    for family in (perms_with_all_cycles_in, perms_with_cycles_in_either):
        for lam, s in family(G):
            assert sum(lam) == m and all(k > 0 for k in lam)
            assert list(lam) == sorted(lam, reverse=True)
            assert s in (1, -1)
    for lam, s in perms_with_all_cycles_in(G):
        assert s == (-1) ** (m - len(lam))


@given(digraphs(max_n=7), st.data())
def test_perm_tally_sign_flips_by_sgn_under_complement(D, data):
    # both walks keep the same permutations, one twisting the cycles of D
    # and the other those of Dbar; the two twists multiply to sgn(sigma) =
    # (-1)^(m - number of cycles), with no oracle involved
    G = data.draw(_subdigraphs(D))
    twisted = Counter({
        (lam, s * (-1) ** (G.n - len(lam))): c
        for (lam, s), c in perms_with_cycles_in_either(G).items()
    })
    assert perms_with_cycles_in_either(complement(G)) == twisted


def test_perm_records_at_zero_vertices():
    D = digraph(3, [(1, 2), (2, 3), (3, 1)])
    for G in (empty_digraph(0), oracles.subdigraph(D, ())):
        _check_tally(G)
        for family in (perms_with_all_cycles_in, perms_with_cycles_in_either):
            assert family(G) == {((), 1): 1}


@pytest.mark.parametrize("edges", [(), ((1, 2),), ((2, 1),), ((1, 2), (2, 1))])
@pytest.mark.parametrize("loops", [False, True])
def test_perm_records_on_two_vertices(edges, loops):
    # the two vertices are both fixed, or swapped as a 2-cycle if D holds
    # both edges (sign -1) or neither (Dbar, +1); loops change nothing
    def expected(either):
        two = -1 if len(edges) == 2 else 1 if either and not edges else 0
        return {((1, 1), 1): 1, **({((2,), two): 1} if two else {})}

    looped = ((1, 1), (2, 2)) if loops else ()
    D = digraph(2, edges + looped)
    # the same pattern on 2 < 4 inside a larger digraph, cut out on {2, 4}
    relabel = {1: 2, 2: 4}
    moved = [(relabel[u], relabel[v]) for u, v in edges + looped]
    G = digraph(4, moved + [(1, 3), (3, 4), (4, 1)])
    for H in (D, oracles.subdigraph(G, [4, 2])):
        assert perms_with_all_cycles_in(H) == expected(False)
        assert perms_with_cycles_in_either(H) == expected(True)
        _check_tally(H)


@pytest.mark.parametrize("n", [7, 8])
def test_perm_families_match_the_oracle_at_seven_and_eight(n):
    cases = [random_digraph(n, p, 40 + n) for p in (0.15, 0.5, 0.85)]
    for D in cases + [random_tournament(n, 40 + n)]:
        _check_tally(D)


def test_perm_tally_in_closed_form_at_the_guard_bound():
    # every permutation of [8] has its cycles in the complete digraph with
    # loops, and each nontrivial one in the complement of the empty digraph
    everything = {lam: factorial(8) // _z(lam) for lam in partitions_of(8)}
    signed = {(lam, (-1) ** (8 - len(lam))): c for lam, c in everything.items()}
    K = complete_digraph(8, loops=True)
    assert perms_with_all_cycles_in(K) == signed
    assert perms_with_cycles_in_either(K) == signed
    assert perms_with_cycles_in_either(empty_digraph(8)) == {
        (lam, 1): c for lam, c in everything.items()
    }
    # the identity alone fills the fixed-point count to 8
    assert perms_with_all_cycles_in(empty_digraph(8)) == {((1,) * 8, 1): 1}


def test_perm_families_keep_the_guard():
    with pytest.raises(GuardError):
        perms_with_cycles_in_either(empty_digraph(9))
    with pytest.raises(GuardError):
        perms_with_all_cycles_in(empty_digraph(9))


def test_vertex_subsets_out_of_range_raise():
    D = digraph(3, [(1, 2), (2, 1)])
    for call in (
        lambda: induced(D, [1, 4]),
        lambda: oracles.subdigraph(D, [0, 1]),
    ):
        with pytest.raises(ValueError, match="vertex subset out of range"):
            call()


@given(digraphs(max_n=4))
def test_perm_families_nest(D):
    # a permutation whose cycles all follow D is kept by both families,
    # with the same cycle type and sign
    inner, outer = (
        family(D) for family in (perms_with_all_cycles_in, perms_with_cycles_in_either)
    )
    assert inner <= outer


# ------------------------------------------------------------- serialization

@given(digraphs())
def test_text_and_json_roundtrip(D):
    assert digraph_from_text(digraph_to_text(D)) == D
    assert digraph_from_json_dict(digraph_to_json_dict(D)) == D


def test_text_format_tolerates_comments():
    D = digraph_from_text("# sample\n3\n1 2\n\n3 3  # loop\n")
    assert D == digraph(3, [(1, 2), (3, 3)])
    with pytest.raises(ValueError):
        digraph_from_text("")
    with pytest.raises(ValueError):
        digraph_from_text("2\n1 2 3\n")


def test_load_digraph_sniffs_format(tmp_path):
    D = digraph(3, [(1, 3), (2, 2)])
    text_path = tmp_path / "d.dg"
    text_path.write_text(digraph_to_text(D), encoding="utf-8")
    json_path = tmp_path / "d.json"
    json_path.write_text(json.dumps(digraph_to_json_dict(D)), encoding="utf-8")
    assert load_digraph(str(text_path)) == D
    assert load_digraph(str(json_path)) == D


def test_hash_is_stable_and_label_sensitive():
    D1 = digraph(3, [(1, 2), (2, 3)])
    D2 = digraph(3, [(2, 3), (1, 2)])
    D3 = digraph(3, [(2, 1), (3, 2)])
    assert digraph_hash(D1) == digraph_hash(D2)
    assert digraph_hash(D1) != digraph_hash(D3)
    assert len(digraph_hash(D1)) == 16
