from collections import Counter
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
import redeiberge.hamilton as hamilton
import redeiberge.ringmat as ringmat
from gens import digraphs
from oracles import random_acyclic_digraph
from redeiberge.digraph import (
    complement,
    complete_digraph,
    digraph,
    directed_path_digraph,
    empty_digraph,
    random_digraph,
    random_tournament,
)
from redeiberge.guards import DisagreementError, GuardError
from redeiberge.hamilton import (
    ham_cycles,
    ham_cycles_bruteforce,
    ham_detper,
    ham_dp,
    ham_paths_bruteforce,
    ham_report,
    parity_suite,
    wiseman_check,
)


# ------------------------------------------------------------------- paths

@given(digraphs(max_n=6))
def test_path_routes_match_permutation_oracle(D):
    expected = oracles.ham_paths_oracle(D)
    assert ham_detper(D) == expected
    assert ham_dp(D) == expected
    assert ham_paths_bruteforce(D) == expected


def test_detper_matches_dp_at_larger_n():
    # ham_detper's partition sum, beyond the sizes the oracle reaches
    for seed in range(20):
        D = random_digraph(9 + seed % 6, (0.4, 0.5, 0.7)[seed % 3], 900 + seed)
        assert ham_detper(D) == ham_dp(D) > 0


def test_path_conventions():
    assert ham_detper(empty_digraph(0)) == 1
    assert ham_dp(empty_digraph(0)) == 1
    assert ham_paths_bruteforce(empty_digraph(0)) == 1
    assert ham_detper(empty_digraph(1)) == 1
    assert ham_detper(digraph(1, [(1, 1)])) == 1  # the loop adds no path
    for n in range(2, 7):
        assert ham_detper(complete_digraph(n)) == factorial(n)
        assert ham_dp(empty_digraph(n)) == 0
    assert ham_dp(directed_path_digraph(5)) == 1


def test_path_guards():
    with pytest.raises(GuardError):
        ham_detper(empty_digraph(19))
    with pytest.raises(GuardError):
        ham_dp(empty_digraph(23))
    with pytest.raises(GuardError):
        ham_paths_bruteforce(empty_digraph(13))


# ------------------------------------------------------------------ cycles

@given(digraphs(max_n=6))
def test_cycle_routes_match_oracle(D):
    expected = oracles.ham_cycles_oracle(D)
    assert ham_cycles_bruteforce(D) == expected
    if D.n >= 1:
        assert ham_cycles(D, "formula_a") == expected
        assert ham_cycles(D, "formula_b") == expected


@given(digraphs(min_n=1, max_n=5))
def test_cycle_formula_a_is_anchor_independent(D):
    values = {ham_cycles(D, "formula_a", i=i) for i in range(1, D.n + 1)}
    assert len(values) == 1


def test_cycle_conventions():
    assert ham_cycles_bruteforce(empty_digraph(0)) == 0
    assert ham_cycles_bruteforce(digraph(1, [])) == 0
    assert ham_cycles_bruteforce(digraph(1, [(1, 1)])) == 1
    assert ham_cycles(digraph(1, [(1, 1)]), "formula_a") == 1
    assert ham_cycles(digraph(1, [(1, 1)]), "formula_b") == 1
    for n in range(2, 7):
        assert ham_cycles(complete_digraph(n), "formula_a") == factorial(n - 1)
    with pytest.raises(ValueError):
        ham_cycles(empty_digraph(0), "formula_a")


def test_cycle_formulas_reject_bad_arguments_before_any_table(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a principal-minor table was built")

    for name in ("principal_permanents", "principal_determinants"):
        monkeypatch.setattr(hamilton, name, no_work)
    D = complete_digraph(5)
    bad = (("bogus", 1), ("bruteforce", 1), ("formula_a", 0), ("formula_a", D.n + 1))
    for route, i in bad:
        with pytest.raises(ValueError):
            ham_cycles(D, route, i)


# ----------------------------------------------------------------- reports

def test_ham_report_structure():
    D = complete_digraph(4)
    report = ham_report(D, cycles=True)
    assert report.ham_paths == 24
    assert report.ham_cycles == 6
    assert set(report.routes) == {"detper", "dp", "bruteforce"}
    assert set(report.cycle_routes) == {"formula_a", "formula_b", "bruteforce"}
    payload = report.to_json_dict()
    assert "timings_ms" not in payload
    assert payload["ham_paths"] == 24
    timed = report.to_json_dict(include_timings=True)
    assert set(timed["timings_ms"]) == {
        "paths:detper",
        "paths:dp",
        "paths:bruteforce",
        "cycles:formula_a",
        "cycles:formula_b",
        "cycles:bruteforce",
    }


def test_ham_report_builds_each_minor_table_once(monkeypatch):
    # per A and det A are each built once, for the cycle formulas, from the
    # one list of A's cycle weights that detper also reads; detper adds
    # Abar's cycle weights and builds no det Abar table.
    D = random_digraph(8, 0.6, 4)
    calls = Counter()
    args_of = {}
    for module, name in (
        (hamilton, "principal_permanents"),
        (hamilton, "principal_determinants"),
        (hamilton, "_anchored_cycle_weights"),
        (ringmat, "_anchored_cycle_weights"),
    ):
        def counted(*args, _real=getattr(module, name), _name=name):
            calls[_name] += 1
            args_of.setdefault(_name, []).append(args)
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    report = ham_report(D, cycles=True)
    assert calls == {
        "principal_permanents": 1,
        "principal_determinants": 1,
        "_anchored_cycle_weights": 2,
    }
    assert args_of["principal_determinants"][0][0] == D.adjacency()
    assert report.ham_paths == ham_dp(D) > 0
    assert report.ham_cycles == ham_cycles_bruteforce(D) > 0


def test_shared_cycle_weights_give_the_same_minors():
    # a caller's precomputed cycle weights change nothing, and the guard
    # still applies before any work
    for seed in range(4):
        A = random_digraph(6, 0.5, seed).adjacency()
        cyc = ringmat._anchored_cycle_weights(A)
        assert ringmat.principal_permanents(A, cyc) == ringmat.principal_permanents(A)
        assert ringmat.principal_determinants(A, cyc) == ringmat.principal_determinants(A)
    big = [[0] * 19 for _ in range(19)]
    for fn in (ringmat.principal_permanents, ringmat.principal_determinants):
        with pytest.raises(GuardError):
            fn(big, [1])


def test_ham_report_runs_a_wrapper_put_on_the_module(monkeypatch):
    # a wrapper on hamilton.ham_dp (as the bench tracer puts one) is the
    # function the report runs, so a wrong value from it is caught
    calls = []

    def wrong_dp(D):
        calls.append(D.n)
        return ham_dp(D) + 1

    monkeypatch.setattr(hamilton, "ham_dp", wrong_dp)
    with pytest.raises(DisagreementError, match="paths routes disagree"):
        ham_report(complete_digraph(5), cycles=True)
    assert calls == [5]


def test_direct_calls_build_their_own_minor_tables(monkeypatch):
    # Only a ham_report shares tables between its routes: each direct
    # call builds A's cycle weights, det A and per A afresh.
    calls = Counter()
    for name in (
        "principal_permanents",
        "principal_determinants",
        "_anchored_cycle_weights",
    ):
        def counted(*args, _real=getattr(hamilton, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(hamilton, name, counted)
    D = complete_digraph(5)
    assert ham_cycles(D, "formula_a") == 24
    assert ham_cycles(D, "formula_b") == 24
    assert calls == {
        "principal_permanents": 2,
        "principal_determinants": 2,
        "_anchored_cycle_weights": 2,
    }
    assert ham_detper(D) == 120  # A's and Abar's cycle weights
    assert calls["_anchored_cycle_weights"] == 4


def test_ham_report_zero_vertices():
    report = ham_report(empty_digraph(0), cycles=True)
    assert report.ham_paths == 1
    assert report.ham_cycles == 0


@given(digraphs(max_n=5))
def test_ham_report_agrees_with_oracle(D):
    report = ham_report(D, cycles=True)
    assert report.ham_paths == oracles.ham_paths_oracle(D)
    assert report.ham_cycles == oracles.ham_cycles_oracle(D)


# ------------------------------------------------------------------- parity

@given(digraphs(max_n=5))
def test_berge_parity_on_random_digraphs(D):
    out = parity_suite(D)
    assert out["berge_ok"]
    assert out["ham_paths"] == oracles.ham_paths_oracle(D)


def test_redei_oddness_on_tournaments():
    for seed in range(40):
        T = random_tournament(seed % 7 + 1, seed)
        out = parity_suite(T)
        assert out["is_tournament"]
        assert out["redei_ok"]
    out = parity_suite(digraph(2, [(1, 2), (2, 1)]))
    assert out["redei_ok"] is None


# ------------------------------------------------------------------ acyclic

def test_wiseman_on_acyclic_digraphs():
    for seed in range(25):
        D = random_acyclic_digraph(seed % 6 + 1, 0.5, seed)
        out = wiseman_check(D)
        assert out["count"] == ham_dp(complement(D))
    with pytest.raises(ValueError):
        wiseman_check(digraph(1, [(1, 1)]))
    with pytest.raises(GuardError):
        wiseman_check(empty_digraph(9))
