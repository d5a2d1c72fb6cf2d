"""Command line interface: generator specs, subcommand payloads, exit
codes, corpus plumbing, and artifact output."""

import hashlib
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import redeiberge.cli as cli
import redeiberge.hamilton as hamilton
import redeiberge.redei as redei
import redeiberge.ringmat as ringmat
import redeiberge.walks as walks
from redeiberge.cli import (
    build_corpus,
    digraph_from_args,
    identity_suite,
    main,
    parse_generator,
    run_corpus,
    write_artifacts,
)
from redeiberge.combinat import partitions_of
from redeiberge.digraph import (
    Digraph,
    complement,
    complete_digraph,
    digraph,
    digraph_hash,
    digraph_memo,
    digraph_to_json_dict,
    digraph_to_text,
    directed_path_digraph,
    empty_digraph,
    opposite,
    per_digraph,
    random_digraph,
    random_tournament,
)
from redeiberge.guards import DisagreementError, GuardError
from redeiberge.redei import applicable_routes, u_digraph
from redeiberge.symfun import SymFun, convert, omega, to_p

import oracles

# the module; the package's `digraph` is its constructor function
digraph_module = importlib.import_module("redeiberge.digraph")

EXAMPLE3 = digraph(3, [(1, 1), (1, 3), (3, 2)])


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# --------------------------------------------------------------- generators

def test_parse_generator_fixed_families():
    assert parse_generator("empty:3", 0) == empty_digraph(3)
    assert parse_generator("complete:3", 0) == complete_digraph(3)
    assert parse_generator("complete:3,loops", 0) == complete_digraph(3, True)
    assert parse_generator("path:4", 0) == directed_path_digraph(4)
    star = parse_generator("star:2,1", 0)
    assert star.n == 3
    assert len(star.edges) > 0


def test_parse_generator_seeded_families():
    assert parse_generator("tournament:4", 7) == random_tournament(4, 7)
    assert parse_generator("random:4,0.5", 9) == random_digraph(4, 0.5, 9)
    assert parse_generator("random:4,0.5", 9) == parse_generator(
        "random:4,0.5", 9
    )


def test_parse_generator_poset_file(tmp_path):
    path = tmp_path / "p.poset"
    path.write_text("3\n# cover relations a < b\n1 2\n2 3\n")
    D = parse_generator(f"poset:{path}", 0)
    assert D.n == 3
    # a < b gives the descending edge (b, a); closure adds (3, 1).
    assert set(D.edges) == {(2, 1), (3, 2), (3, 1)}


def test_parse_generator_errors(tmp_path):
    for spec in (
        "nosuch:3",
        "random:4",
        "star:0",
        "complete:",
        "complete:3,loop",
        "complete:3,loops,x",
        "complete:3,loops,loops",
        "empty:x",
    ):
        with pytest.raises(ValueError):
            parse_generator(spec, 0)
    empty = tmp_path / "empty.poset"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError):
        parse_generator(f"poset:{empty}", 0)


def test_digraph_from_args_requires_exactly_one_source(tmp_path):
    with pytest.raises(ValueError):
        digraph_from_args(SimpleNamespace(gen=None, edges=None, seed=0))
    with pytest.raises(ValueError):
        digraph_from_args(SimpleNamespace(gen="empty:2", edges="x.dg", seed=0))
    assert digraph_from_args(
        SimpleNamespace(gen="path:3", edges=None, seed=0)
    ) == directed_path_digraph(3)
    path = tmp_path / "g.dg"
    path.write_text(digraph_to_text(EXAMPLE3))
    assert digraph_from_args(
        SimpleNamespace(gen=None, edges=str(path), seed=0)
    ) == EXAMPLE3


def test_bad_json_digraph_names_the_fault(tmp_path, capsys):
    for text, fault in (
        ('{"n": 3}', "digraph JSON lacks the key 'edges'"),
        ('{"n": 3, "edges": [[1, 2, 3]]}', "edges must be (u, v) pairs"),
    ):
        path = tmp_path / "g.json"
        path.write_text(text)
        assert main(["ham", "--edges", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {fault}")


# --------------------------------------------------------------- exit codes

def test_exit_codes(tmp_path):
    assert main(["u", "--gen", "empty:3"]) == 0
    assert main(["u"]) == 2
    assert main(["u", "--gen", "nosuch:3"]) == 2
    for p in ("1.7", "-0.5", "nan"):
        assert main(["u", "--gen", f"random:4,{p}"]) == 2
    for spec in ("complete:3,loop", "complete:3,loops,x"):
        assert main(["u", "--gen", spec]) == 2
    assert main(["u", "--gen", "empty:3", "--basis", "q"]) == 2
    assert main(["u", "--gen", "empty:3", "--routes", "bogus"]) == 2
    assert main(["u", "--gen", "empty:3", "--routes", ","]) == 2
    # a route compared with itself would make a vacuous agreement
    assert main(["u", "--gen", "empty:3", "--routes", "powersum-GS,powersum-GS"]) == 2
    assert main(["u", "--edges", "/nonexistent/file.dg"]) == 2
    # JSON labels are taken as given, never truncated to ints
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3.7, "edges": [[1.9, 2], [true, 3]]}')
    assert main(["u", "--edges", str(bad)]) == 2
    # edges that are not (u, v) pairs are bad input, not a crash
    for i, edges in enumerate(("[1]", "5")):
        path = tmp_path / f"not_pairs{i}.json"
        path.write_text(f'{{"n": 3, "edges": {edges}}}')
        for cmd in ("u", "ham"):
            assert main([cmd, "--edges", str(path)]) == 2
    assert main(["u", "--gen", "complete:9"]) == 3
    assert main(["u", "--gen", "complete:9", "--routes", "all"]) == 3
    assert main(["u", "--gen", "empty:7", "--routes", "matrix-det"]) == 3
    assert main(["verify", "--corpus", "weird"]) == 2
    assert main(["verify", "--corpus", "exhaustive:4"]) == 3
    # no identity admits n = 13, so nothing would be checked
    assert main(["verify", "--corpus", "random:13,1", "--artifacts", ""]) == 3
    # an empty corpus or no worker would check nothing either
    assert main(["verify", "--corpus", "random:5,0", "--artifacts", ""]) == 2
    assert main(["verify", "--corpus", "random:5,-2", "--artifacts", ""]) == 2
    argv = ["verify", "--corpus", "random:3,1", "--artifacts", ""]
    assert main(argv + ["--jobs", "0"]) == 2
    assert main(argv + ["--jobs", "-1"]) == 2


def test_generated_digraphs_are_guarded_before_they_are_built(monkeypatch, capsys):
    # no entry point admits n = 23, so no edge of such a digraph is built
    def no_build(*args):
        raise AssertionError("a digraph past every bound was built")

    for name in ("complete_digraph", "random_digraph"):
        monkeypatch.setattr(cli, name, no_build)
    assert main(["u", "--gen", "complete:23"]) == 3
    assert main(["verify", "--corpus", "random:23,1", "--artifacts", ""]) == 3
    err = capsys.readouterr().err
    assert err.count("guard: generator: size 23 exceeds bound 22") == 2


def test_argparse_exits_map_to_codes(capsys):
    assert main([]) == 2
    assert main(["nosuchcommand"]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


# ------------------------------------------------------------- u subcommand

def test_u_json_payload(capsys):
    code, payload = run_json(
        capsys, ["u", "--gen", "path:3", "--routes", "all", "--basis", "mtilde"]
    )
    assert code == 0
    D = directed_path_digraph(3)
    assert payload["command"] == "u"
    assert payload["agree"] is True
    assert payload["seed"] == 0
    assert payload["digraph"]["n"] == 3
    assert payload["digraph"]["hash"] == digraph_hash(D)
    assert [r["route"] for r in payload["routes"]] == applicable_routes(D)
    assert payload["value"] == convert(
        u_digraph(D), "mtilde"
    ).to_json_dict()
    assert all("elapsed_ms" not in r for r in payload["routes"])


def test_u_output_is_deterministic_and_timings_opt_in(capsys):
    argv = ["u", "--gen", "tournament:4", "--seed", "3", "--routes", "all"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
    code, payload = run_json(capsys, argv + ["--timings"])
    assert code == 0
    assert all("elapsed_ms" in r for r in payload["routes"])


# sha256 of the standard output of three default commands, and of u in
# every output basis.  A change that alters any of these outputs must say
# so and update the digest here.
_PINNED_STDOUT = {
    "verify --corpus random:5,40 --seed 22 --artifacts ''":
        "0bc2438c833ddfc1fbfd0833f6f0d1047b77410865eca5a05e54eb6be6f4420a",
    "u --routes all --gen random:6,0.4 --seed 5":
        "ef76489dd97d894cce21d0961ee4555a5e2aed06ee5c0b67e8b8b81ce043d461",
    "ham --cycles --gen random:10,0.5 --seed 1":
        "f1fce5aac4f3e9e14700b15ab3e95f92fdf9e7756535e5f4eeb4abc902bc2a74",
    # U_D in every output basis but p
    "u --gen random:8,0.5 --seed 2 --basis h":
        "dfd8d1cd3bb9a345fae62ef1c729ea964d8237bfa94b2556ab9c9a0ea8a01a85",
    "u --gen random:8,0.5 --seed 2 --basis e":
        "f0175789617f2371e0ba20444399397d633e30297515fe847eecb6d6efe8633a",
    "u --gen random:8,0.5 --seed 2 --basis s":
        "54331d37ab68bf5a43dbe3993c9ed961f9b5147bc6ccb274919e467b895e14f4",
    "u --gen random:8,0.5 --seed 2 --basis m":
        "7393a87d6a0db9c10db3e3859aa6f48b1d4926e225c6a16d0a11d53f3e8bae02",
    "u --gen random:8,0.5 --seed 2 --basis mtilde":
        "ae5bb590c5b7687c2a8ab4997be295ec277c047e2095c262bc67bcd1c8494be4",
    "u --routes all --gen random:5,0.5 --seed 3 --basis mtilde":
        "106505f1d83b2689766479781734a578741994f8accc33b66e85a18cbee561c9",
    # F-definition at its bound
    "u --routes all --gen random:7,0.5 --seed 9 --basis e":
        "0d428b06d5a918a1f42d921915f2e35c912ac53809c42472fe355539366019b9",
    # the enumerators at their bound: path-cover and powersum-GS, then
    # tournament, then acyclic-powersum and acyclic-records
    "u --routes all --gen random:8,0.5 --seed 4 --basis mtilde":
        "6a814a2e2c2768a5f0c53049cf89234f0661188c2a0ffac0a908cbd02ae9822f",
    "u --routes all --gen tournament:8 --seed 4":
        "17616c97c592c292fd697cdc573c818e31696811dbb9444b5a6d7197312c71d9",
    "u --routes all --gen star:3,3,2 --basis s":
        "eeca9d6aa5a1d32f89c5445e7b64b0dda87e39c4ea9564f3f2453cca05f5672d",
    # acyclic-records at its bound, on a digraph whose edges all descend
    "u --routes all --gen path:8":
        "c1c0bd11bf2cab85301233826acc58daf99228905419b3a8c4fd527fa4cc2668",
    # every digraph on three vertices through the identity suite
    "verify --corpus exhaustive3 --artifacts ''":
        "e12df5bbbbce035794425b26b7dc8f6ad210b6425310f2bf5084401bf860f629",
}


@pytest.mark.parametrize("command", sorted(_PINNED_STDOUT))
def test_default_outputs_are_pinned_byte_for_byte(capsys, command):
    assert main(shlex.split(command)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_STDOUT[command]


def test_u_table_format(capsys):
    assert main(["u", "--gen", "empty:3", "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "digraph n=3" in out
    assert "route powersum-GS:" in out
    assert "U_D (p):" in out
    assert "agree: n/a (one route)" in out


def test_u_with_one_route_does_not_claim_agreement(capsys):
    # one route has nothing to agree with: null, not a vacuous true
    for routes in ("default", "matrix-det"):
        code, payload = run_json(
            capsys, ["u", "--gen", "random:4,0.5", "--seed", "2", "--routes", routes]
        )
        assert code == 0
        assert payload["agree"] is None
        assert len(payload["routes"]) == 1
        assert "value" in payload
    code, payload = run_json(
        capsys,
        ["u", "--gen", "random:4,0.5", "--seed", "2", "--routes", "matrix-det,schur-JT"],
    )
    assert code == 0 and payload["agree"] is True
    assert main(["u", "--gen", "path:3", "--routes", "all", "--format", "table"]) == 0
    assert "agree: yes" in capsys.readouterr().out


def test_u_disagreement_exit(monkeypatch, capsys):
    def disagree(results):
        raise DisagreementError("stub")

    monkeypatch.setattr(cli, "routes_agree", disagree)
    code = main(["u", "--gen", "empty:2"])
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert code == 4
    assert payload["agree"] is False
    assert "value" not in payload
    assert err == "disagreement: stub\n"


def test_u_disagreement_names_the_first_differing_route(
    monkeypatch, capsys, tmp_path
):
    # as in the identity suite: matrix-det returns U_D plus p_(2,1), and
    # stderr names it against the first route at the first differing
    # partition, while stdout keeps the payload it prints on agreement
    real = redei.u_via_matrix_route
    monkeypatch.setattr(
        redei,
        "u_via_matrix_route",
        lambda D: real(D) + SymFun("p", {(2, 1): 1}),
    )
    path = tmp_path / "example3.dg"
    path.write_text(digraph_to_text(EXAMPLE3))
    code = main(["u", "--routes", "all", "--edges", str(path)])
    out, err = capsys.readouterr()
    assert code == 4
    payload = json.loads(out)
    assert payload["agree"] is False and "value" not in payload
    assert [r["route"] for r in payload["routes"]] == applicable_routes(EXAMPLE3)
    c = u_digraph(EXAMPLE3).coefficient((2, 1))
    assert err == (
        "disagreement: routes disagree: matrix-det differs from"
        f" F-definition: coefficient at (2, 1) differs, {c + 1} vs {c}\n"
    )


# ----------------------------------------------------------- ham subcommand

def test_ham_json_payload(capsys):
    code, payload = run_json(
        capsys, ["ham", "--gen", "complete:4", "--cycles"]
    )
    assert code == 0
    assert payload["command"] == "ham"
    assert payload["ham_paths"] == 24
    assert payload["ham_cycles"] == 6
    assert "timings_ms" not in payload
    code, payload = run_json(
        capsys, ["ham", "--gen", "complete:4", "--timings"]
    )
    assert code == 0
    assert "timings_ms" in payload
    assert "ham_cycles" not in payload


def test_ham_cycles_guarded_where_no_cycle_route_applies(monkeypatch, capsys):
    # ham_detper admits n = 17 but no cycle route does; the report must
    # stop before any 3^n principal-minor loop starts.
    def no_work(*args, **kwargs):
        raise AssertionError("counting began before the guard")

    for name in ("principal_permanents", "principal_determinants"):
        monkeypatch.setattr(hamilton, name, no_work)
    with pytest.raises(GuardError):
        hamilton.ham_report(empty_digraph(17), cycles=True)
    assert main(["ham", "--gen", "empty:17", "--cycles"]) == 3
    assert "guard:" in capsys.readouterr().err


def test_ham_table_format(capsys):
    assert main(
        ["ham", "--gen", "path:4", "--cycles", "--format", "table"]
    ) == 0
    out = capsys.readouterr().out
    assert "ham paths: 1" in out
    assert "ham cycles: 0" in out


# -------------------------------------------------------------------- corpus

def test_build_corpus_shapes():
    assert len(build_corpus("exhaustive:2")) == 16
    assert len(build_corpus("exhaustive3")) == 512
    items = build_corpus("random:3,6", seed=5)
    assert len(items) == 6
    assert all(D.n == 3 for D in items)
    assert items == build_corpus("random:3,6", seed=5)
    assert items != build_corpus("random:3,6", seed=6)
    with pytest.raises(GuardError):
        build_corpus("exhaustive:4")
    with pytest.raises(ValueError):
        build_corpus("sampled:3")
    for spec in ("random:5", "random:5,2,3", "random:5,x"):
        with pytest.raises(ValueError) as info:
            build_corpus(spec)
        assert str(info.value) == f"bad corpus spec {spec!r}: expected random:n,count"


def test_hooks_readoff_computes_each_hook_once(monkeypatch):
    # hooks-readoff reads the hooks off the schur-JT route's one
    # Jacobi-Trudi table, which holds every partition of 5
    calls = []
    schur_jt = redei._schur_JT

    def counted(D, lams):
        calls.append(list(lams))
        return schur_jt(D, lams)

    monkeypatch.setattr(redei, "_schur_JT", counted)
    results = identity_suite(random_digraph(5, 0.5, seed=3))
    assert results["hooks-readoff"] is None
    assert calls == [list(partitions_of(5))]
    # at n = 0 there is no hook to read off
    assert "hooks-readoff" not in identity_suite(empty_digraph(0))


def _count_everywhere(monkeypatch, original, calls, name):
    """Count calls of original under every module name that holds it."""

    def counted(*args):
        calls.setdefault(name, []).append(args)
        return original(*args)

    for module in (ringmat, hamilton, walks, redei, digraph_module):
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, counted)


def test_identity_suite_builds_each_table_once(monkeypatch):
    # One xi pair, for the schur-JT route, whose table hooks-readoff
    # reads; the two path-cycle cover tallies of verify_chow_identities
    # and none for u-from-path-cycle.  On a tournament, tournament-ones
    # reads the tournament route's U_D: u_tournament runs once, counted
    # wherever a module holds it by name.
    counts = {"xi": 0, "enumerate_path_cycle_covers": 0, "u_tournament": 0}
    for name in counts:
        original = getattr(redei, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(redei, name, counted)
        if name == "u_tournament":
            monkeypatch.setattr(cli, name, counted, raising=False)
    # The kernels behind the suite's shared tables, counted where they
    # run, not under the names the suite shares them by: the descent DP
    # re-wrapped as redei wraps it, and each Digraph by its construction.
    kernels: dict = {}
    _count_everywhere(monkeypatch, ringmat.path_counts, kernels, "path_counts")
    _count_everywhere(monkeypatch, ringmat._anchored_cycle_weights, kernels, "cycles")
    descent_dp = redei._descent_counts.__wrapped__
    monkeypatch.setattr(redei, "_descent_counts", per_digraph(
        lambda D: kernels.setdefault("descent", []).append(D) or descent_dp(D)
    ))
    check = Digraph.__post_init__
    monkeypatch.setattr(
        Digraph, "__post_init__",
        lambda G: kernels.setdefault("Digraph", []).append(G) or check(G),
    )
    D = random_digraph(5, 0.5, seed=3)
    del kernels["Digraph"]
    Dbar = complement(D)
    A, Abar = D.adjacency(), Dbar.adjacency()
    kernels.clear()
    results = identity_suite(D)
    assert all(v is None for v in results.values())
    assert counts == {"xi": 2, "enumerate_path_cycle_covers": 2, "u_tournament": 0}
    # path_counts: the xi pair, then ham_dp of D and of its complement
    assert [args[0] for args in kernels["path_counts"]] == [Abar, A, A, Abar]
    # cycle weights of D and of its complement once each, plus one
    # det(I + zXA) and one det(I + zXAbar) at each of walk-identity's
    # two points, whose matrices differ
    cycles = [args[0] for args in kernels["cycles"]]
    assert cycles[:2] == [A, Abar]
    assert len(cycles) == 6 and A not in cycles[2:] and Abar not in cycles[2:]
    assert kernels["descent"] == [D]
    # the complement, the opposite and the complement's complement, which
    # is D again; each built once however many rows ask for it
    assert Counter(kernels["Digraph"]) == Counter([Dbar, opposite(D), D])
    counts.update(dict.fromkeys(counts, 0))
    results = identity_suite(random_tournament(5, 2))
    assert results["tournament-ones"] is None
    assert all(v is None for v in results.values())
    assert counts["u_tournament"] == 1


def test_direct_calls_share_nothing(monkeypatch):
    # with no identity suite running, each call runs its kernel again
    calls: dict = {}
    _count_everywhere(monkeypatch, ringmat.path_counts, calls, "path_counts")
    D = random_digraph(5, 0.5, seed=3)
    assert hamilton.ham_dp(D) == hamilton.ham_dp(D)
    assert len(calls["path_counts"]) == 2
    assert complement(D) is not complement(D)


def test_identity_suite_drops_its_memo(monkeypatch):
    calls: dict = {}
    _count_everywhere(monkeypatch, ringmat.path_counts, calls, "path_counts")
    D = random_digraph(5, 0.5, seed=3)
    assert all(v is None for v in identity_suite(D).values())
    assert digraph_module._MEMO.get() is None
    assert len(calls.pop("path_counts")) == 4

    # a check that raises is recorded, and the next suite builds afresh
    def boom(G):
        hamilton.ham_dp(G)
        raise DisagreementError("boom")

    monkeypatch.setattr(cli, "parity_suite", boom)
    for _ in range(2):
        results = identity_suite(D)
        assert results.pop("berge-parity") == "DisagreementError: boom"
        assert all(v is None for v in results.values())
        assert digraph_module._MEMO.get() is None
        assert len(calls.pop("path_counts")) == 4

    # an exception that leaves the suite drops the memo too
    def no_scan(G):
        raise RuntimeError("admits failed")

    monkeypatch.setattr(cli, "is_acyclic", no_scan)
    with pytest.raises(RuntimeError, match="admits failed"):
        identity_suite(D)
    assert digraph_module._MEMO.get() is None


def test_fundamental_route_leaves_the_shared_descent_counts_as_they_are():
    # F-definition sums its counts in place: on a copy, since inside a
    # memo hook_coefficient and a second F-definition read the same tuple
    D = random_digraph(5, 0.5, seed=3)
    want = tuple(oracles.descent_set_counts(D))
    with digraph_memo():
        shared = redei._descent_counts(D)
        first = redei.u_via_fundamental(D)
        assert redei.u_via_fundamental(D) == first
        assert to_p(first) == u_digraph(D)
        assert redei._descent_counts(D) is shared
        assert shared == want
        assert redei.hook_coefficient(D) == [
            want[(1 << 4) - (1 << (i - 1))] for i in range(1, 6)
        ]


def test_immanant_lr_calls_immanant_once_per_submatrix(monkeypatch):
    # 31 nonempty principal submatrices of A and 31 of its complement
    calls = []
    immanant = redei.immanant
    monkeypatch.setattr(redei, "immanant", lambda M: calls.append(M) or immanant(M))
    D = random_digraph(5, 0.5, seed=3)
    assert redei.u_via_immanant_LR(D) == convert(u_digraph(D), "s")
    assert len(calls) <= 62


def test_hooks_readoff_names_a_perturbed_hook(monkeypatch):
    # Reading hook 3 off the wrong Schur coefficient, s_(2,2,1) (1) in
    # place of s_(3,1,1) (8), leaves routes-agree passing and fails
    # hooks-readoff against the descent tally, naming hook 3.
    D = random_digraph(5, 0.5, seed=3)
    hook = redei.hook_partition
    monkeypatch.setattr(
        redei, "hook_partition", lambda i, n: (2, 2, 1) if i == 3 else hook(i, n)
    )
    results = identity_suite(D)
    assert results["routes-agree"] is None
    assert results["hooks-readoff"] == (
        "DisagreementError: hook 3: determinant 1 != descent count 8"
    )


def test_identity_suite_keys_and_passes():
    results = identity_suite(EXAMPLE3)
    assert set(results) == {
        "routes-agree",
        "omega-complement",
        "opposite-invariance",
        "berge-parity",
        "hooks-readoff",
        "u-from-path-cycle",
        "chow-identities",
        "walk-identity",
    }
    assert all(v is None for v in results.values())
    T = random_tournament(3, seed=2)
    assert identity_suite(T)["tournament-ones"] is None
    tree = digraph(4, [(4, 3), (3, 2), (3, 1)])
    assert identity_suite(tree)["wiseman-acyclic"] is None


def test_run_corpus_summary():
    summary = run_corpus(build_corpus("exhaustive:2"))
    assert summary["items"] == 16
    assert summary["failed_items"] == 0
    assert summary["failures"] == []
    tally = summary["identities"]
    assert tally["routes-agree"] == {"checked": 16, "failed": 0}
    assert tally["berge-parity"]["checked"] == 16


def test_run_corpus_records_an_identity_that_raises(monkeypatch):
    # Any exception an identity raises is that identity's failure on that
    # digraph; the corpus run still finishes and tallies the others.
    def broken(*args, **kwargs):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(cli, "verify_walk_identity", broken)
    summary = run_corpus(build_corpus("random:4,3", seed=1))
    tally = summary["identities"]
    assert tally.pop("walk-identity") == {"checked": 3, "failed": 3}
    assert tally and all(v["checked"] and not v["failed"] for v in tally.values())
    assert summary["failed_items"] == 3
    for row in summary["failures"]:
        assert list(row["failures"]) == ["walk-identity"]
        assert row["failures"]["walk-identity"].startswith("ZeroDivisionError")


def test_routes_agree_failure_names_the_first_differing_route(monkeypatch):
    # matrix-det returns U_D plus p_(2,1); the failure names it against the
    # first route and the first partition, in sorted order, that differs
    real = redei.u_via_matrix_route
    monkeypatch.setattr(
        redei,
        "u_via_matrix_route",
        lambda D: real(D) + SymFun("p", {(2, 1): 1}),
    )
    routes = applicable_routes(EXAMPLE3)
    assert routes[0] == "F-definition" and "matrix-det" in routes
    c = u_digraph(EXAMPLE3).coefficient((2, 1))
    results = identity_suite(EXAMPLE3)
    assert results.pop("routes-agree") == (
        "DisagreementError: routes disagree: matrix-det differs from"
        f" F-definition: coefficient at (2, 1) differs, {c + 1} vs {c}"
    )
    # the failure holds back the identities that read U_D, and only those
    assert results == {
        "berge-parity": None,
        "chow-identities": None,
        "walk-identity": None,
    }


def test_default_route_is_named_once(monkeypatch, capsys):
    # u_digraph, `u --routes default` and the identity suite's complement
    # and opposite checks all run DEFAULT_ROUTE: set to path-cover, each
    # runs path-cover, on the digraphs it is given
    real = redei.u_via_path_covers
    seen = []
    monkeypatch.setattr(redei, "u_via_path_covers", lambda D: seen.append(D) or real(D))
    for module in (redei, cli):
        monkeypatch.setattr(module, "DEFAULT_ROUTE", "path-cover")
    assert u_digraph(EXAMPLE3, "mtilde") == real(EXAMPLE3)
    assert seen == [EXAMPLE3]
    assert main(["u", "--gen", "empty:3", "--routes", "default", "--format", "table"]) == 0
    out = capsys.readouterr().out
    assert "route path-cover:" in out and "powersum-GS" not in out
    assert seen[1:] == [empty_digraph(3)]
    del seen[:]
    results = identity_suite(EXAMPLE3)
    assert results["omega-complement"] is None
    assert results["opposite-invariance"] is None
    # the first call is routes-agree's
    assert seen == [EXAMPLE3, complement(EXAMPLE3), opposite(EXAMPLE3)]


def test_omega_complement_failure_names_the_first_differing_coefficient(monkeypatch):
    # the complement's U gains p_(2,1) + p_(3): the failure names the
    # first of the two partitions in sorted order and both coefficients
    Dbar = complement(EXAMPLE3)
    real = redei.u_via_powersum_GS
    extra = SymFun("p", {(2, 1): 1, (3,): 1})
    monkeypatch.setattr(
        redei, "u_via_powersum_GS", lambda D: real(D) + extra if D == Dbar else real(D)
    )
    c = to_p(omega(u_digraph(EXAMPLE3))).coefficient((2, 1))
    results = identity_suite(EXAMPLE3)
    assert results["routes-agree"] is None
    assert results["omega-complement"] == (
        "DisagreementError: omega(U_D) vs U of complement:"
        f" coefficient at (2, 1) differs, {c} vs {c + 1}"
    )
    assert results["opposite-invariance"] is None


def test_verify_skips_route_agreement_without_two_routes(capsys):
    # No U_D route admits n = 9, so routes-agree must not count as checked;
    # Berge parity does not use U_D and still runs.
    code, payload = run_json(
        capsys, ["verify", "--corpus", "random:9,2", "--artifacts", ""]
    )
    assert code == 0
    assert payload["identities"] == {"berge-parity": {"checked": 2, "failed": 0}}
    assert identity_suite(empty_digraph(9)) == {"berge-parity": None}


def test_identity_suite_tests_the_size_bound_before_acyclicity(monkeypatch):
    # at n = 13 no identity admits D, and no property of D is computed
    def no_scan(D):
        raise AssertionError("is_acyclic ran past every bound")

    monkeypatch.setattr(cli, "is_acyclic", no_scan)
    with pytest.raises(GuardError, match="no identity admits n = 13"):
        identity_suite(empty_digraph(13))


# The identities the suite runs on random_digraph(n, 0.5, 1),
# random_tournament(n, 2) and directed_path_digraph(n), written out rather
# than read from cli.IDENTITIES, so that a row edit that changes which
# identity runs at which n has to change them here too.
_BASE = {
    "routes-agree",
    "omega-complement",
    "opposite-invariance",
    "berge-parity",
    "hooks-readoff",
    "u-from-path-cycle",
    "chow-identities",
    "walk-identity",
}
_AT_N = {
    0: _BASE - {"hooks-readoff"},
    **dict.fromkeys(range(1, 6), _BASE),
    6: _BASE - {"chow-identities"},
    7: _BASE - {"chow-identities", "u-from-path-cycle", "walk-identity"},
    8: {"routes-agree", "omega-complement", "opposite-invariance", "berge-parity"},
    **dict.fromkeys(range(9, 13), {"berge-parity"}),
}
# family -> (generator, largest n with tournament-ones, with wiseman-acyclic)
_FAMILIES = {
    "random": (lambda n: random_digraph(n, 0.5, 1), 0, 0),
    "tournament": (lambda n: random_tournament(n, 2), 8, 3),
    "path": (directed_path_digraph, 2, 8),
}


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_identities_run_at_each_n(family):
    make, tournament_to, acyclic_to = _FAMILIES[family]
    for n in range(13):
        want = set(_AT_N[n])
        if n <= tournament_to:
            want.add("tournament-ones")
        if n <= acyclic_to:
            want.add("wiseman-acyclic")
        results = identity_suite(make(n))
        assert set(results) == want, n
        assert all(v is None for v in results.values()), n
    with pytest.raises(GuardError):
        identity_suite(make(13))


def test_identities_checked_on_every_digraph_on_three_vertices():
    tally = run_corpus(build_corpus("exhaustive:3"))["identities"]
    assert {k: v["checked"] for k, v in tally.items()} == {
        **dict.fromkeys(_BASE, 512),
        "tournament-ones": 8,
        "wiseman-acyclic": 25,
    }
    assert not any(v["failed"] for v in tally.values())


# The transitive tournament on [4] (edges j -> i for j > i) is acyclic,
# so every IDENTITIES row runs on it.
_TRANSITIVE4 = digraph(4, [(j, i) for j in range(1, 5) for i in range(1, j)])

# Row -> (module, name, fake(real)): the one function the row's check
# compares against, changed so that the row must fail.  ham_dp and chow_xi
# change on _TRANSITIVE4 alone, since other rows call them on the
# complement.
_PERTURBED = {
    "omega-complement": (cli, "omega", lambda real: lambda f: real(f) * 2),
    "opposite-invariance": (cli, "opposite", lambda real: lambda D: empty_digraph(D.n)),
    "berge-parity": (
        hamilton, "ham_dp", lambda real: lambda D: real(D) + (D == _TRANSITIVE4)
    ),
    "hooks-readoff": (
        redei, "hook_coefficient", lambda real: lambda D: [c + 1 for c in real(D)]
    ),
    "u-from-path-cycle": (cli, "u_from_chow", lambda real: lambda D: real(D) * 2),
    "chow-identities": (
        redei,
        "chow_xi",
        lambda real: lambda D, route="direct": real(D, route) * (1 + (D == _TRANSITIVE4)),
    ),
    "walk-identity": (
        walks, "_walk_counts", lambda real: lambda *args: [c + 1 for c in real(*args)]
    ),
    "tournament-ones": (cli, "powersum_to_ones", lambda real: lambda f: real(f) + 1),
    "wiseman-acyclic": (hamilton, "permanent_ryser", lambda real: lambda M: real(M) + 1),
}


@pytest.mark.parametrize("row", [name for name in cli.IDENTITIES if name != "routes-agree"])
def test_every_identity_fails_when_what_it_compares_against_changes(monkeypatch, row):
    # a row without an entry in _PERTURBED fails here with a KeyError
    module, name, fake = _PERTURBED[row]
    baseline = identity_suite(_TRANSITIVE4)
    assert baseline == dict.fromkeys(cli.IDENTITIES)
    monkeypatch.setattr(module, name, fake(getattr(module, name)))
    results = identity_suite(_TRANSITIVE4)
    assert results.pop(row).startswith("DisagreementError: ")
    assert results == {k: v for k, v in baseline.items() if k != row}


def test_identity_checks_other_than_routes_agree_return_none():
    # identity_suite adds what a check returns to the U_D the later rows
    # read; only routes-agree may return anything
    u_read: dict = {None: None}
    for name, (admits, reads, check) in cli.IDENTITIES.items():
        assert admits(_TRANSITIVE4), name
        value = check(_TRANSITIVE4, u_read[reads])
        if name == "routes-agree":
            u_read.update(value)
        else:
            assert value is None, name


def test_run_corpus_starts_no_more_workers_than_items_or_cores(monkeypatch):
    # a fake Pool records the size it is asked for and maps in-process,
    # so no test starts worker processes
    asked = []

    class FakePool:
        def __init__(self, processes):
            asked.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(x) for x in items]

    monkeypatch.setattr(cli, "Pool", FakePool)
    items = [empty_digraph(2), complete_digraph(2), directed_path_digraph(2)]
    for cores, jobs, count, want in (
        (8, 64, 3, [3]),  # capped by the items
        (2, 64, 3, [2]),  # capped by the cores
        (8, 2, 3, [2]),
        (8, 64, 1, []),  # one worker runs in-process
        (None, 64, 3, []),  # unknown core count counts as one
    ):
        asked.clear()
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
        summary = run_corpus(items[:count], jobs=jobs)
        assert asked == want
        assert summary["items"] == count and summary["failed_items"] == 0


def test_verify_json_and_jobs_determinism(capsys):
    # Pool pickles cli._suite_worker by its module's name, so main must come
    # from the module sys.modules holds now: bench/run.import_package, run
    # by bench/tests, imports the package afresh after this file imported it
    main = importlib.import_module("redeiberge.cli").main
    argv = ["verify", "--corpus", "exhaustive:2", "--artifacts", ""]
    code = main(argv + ["--jobs", "1"])
    first = capsys.readouterr().out
    assert code == 0
    code = main(argv + ["--jobs", "2"])
    second = capsys.readouterr().out
    assert code == 0
    assert first == second
    payload = json.loads(first)
    assert payload["command"] == "verify"
    assert payload["items"] == 16
    assert payload["failed_items"] == 0
    assert "jobs" not in payload


def test_verify_table_format(capsys):
    code = main(
        [
            "verify",
            "--corpus",
            "random:3,4",
            "--artifacts",
            "",
            "--format",
            "table",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "corpus random:3,4: 4 digraphs" in out
    assert "failed digraphs: 0" in out
    assert "routes-agree: 4/4 ok" in out


def test_verify_failure_writes_artifacts(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(
        cli, "identity_suite", lambda D: {"fake-check": "forced failure"}
    )
    outdir = tmp_path / "bad"
    code = main(
        [
            "verify",
            "--corpus",
            "random:2,3",
            "--artifacts",
            str(outdir),
        ]
    )
    captured = capsys.readouterr()
    assert code == 4
    payload = json.loads(captured.out)
    assert payload["failed_items"] == 3
    assert "wrote" in captured.err
    dg_files = sorted(outdir.glob("*.dg"))
    json_files = sorted(outdir.glob("*.json"))
    assert len(dg_files) >= 1
    assert len(json_files) == len(dg_files)
    record = json.loads(json_files[0].read_text())
    assert record["failures"] == {"fake-check": "forced failure"}


def test_write_artifacts_roundtrip(tmp_path):
    row = {
        "digraph": digraph_to_json_dict(EXAMPLE3),
        "checked": ["routes-agree"],
        "failures": {"routes-agree": "detail"},
    }
    written = write_artifacts([row], str(tmp_path / "art"))
    assert len(written) == 1
    stem = digraph_hash(EXAMPLE3)
    text = (tmp_path / "art" / f"{stem}.dg").read_text()
    assert text == digraph_to_text(EXAMPLE3)


# ------------------------------------------------------------- edges inputs

def test_u_from_edge_files(tmp_path, capsys):
    text_path = tmp_path / "g.dg"
    text_path.write_text(digraph_to_text(EXAMPLE3))
    json_path = tmp_path / "g.json"
    json_path.write_text(json.dumps(digraph_to_json_dict(EXAMPLE3)))
    expected = u_digraph(EXAMPLE3).to_json_dict()
    for path in (text_path, json_path):
        code, payload = run_json(capsys, ["u", "--edges", str(path)])
        assert code == 0
        assert payload["digraph"]["hash"] == digraph_hash(EXAMPLE3)
        assert payload["value"] == expected


def test_bad_edge_file_lines_are_named(tmp_path, capsys):
    for text, line in (
        ("3\n2 x\n", "bad edge line '2 x'"),
        ("3\n1 2 3\n", "bad edge line '1 2 3'"),
        ("three\n1 2\n", "bad vertex count line 'three'"),
    ):
        path = tmp_path / "bad.dg"
        path.write_text(text)
        assert main(["u", "--edges", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {line}\n"


def test_poset_generator_through_cli(tmp_path, capsys):
    path = tmp_path / "chain.poset"
    path.write_text("4\n2 1\n3 2\n4 3\n")
    code, payload = run_json(capsys, ["u", "--gen", f"poset:{path}"])
    assert code == 0
    assert payload["digraph"]["n"] == 4


# ------------------------------------------------------------------- scripts

def test_worked_example_script_runs():
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, str(root / "scripts" / "worked_example.py")],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "ham paths: 1 " in done.stdout


def test_readme_library_block_runs_and_its_reprs_hold():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1]
    block = block.split("```", 1)[0]
    namespace: dict = {}
    exec(block, namespace)
    checked = 0
    for line in block.splitlines():
        # `[name = ]expression   # repr of the expression's value`
        m = re.fullmatch(r"(?:\w+ = )?(.+?)\s+# (.+)", line)
        if m:
            assert repr(eval(m[1], namespace)) == m[2], line
            checked += 1
    assert checked == 4
