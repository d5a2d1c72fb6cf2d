"""Command line interface.

Subcommands:

  u       compute U_D for one digraph, optionally by several routes
  ham     Hamiltonian path (and optionally cycle) counts with route checks
  verify  run the identity suite over a corpus of digraphs

Exit codes: 0 success, 2 parse or input error, 3 size guard violation,
4 route disagreement or verification failure.  Output is deterministic
for a fixed configuration and seed; timing fields appear only with
--timings so that default output is byte-stable.

`verify` checks on each digraph the rows of the IDENTITIES table that
admit it; a row that reads U_D runs only once routes-agree has passed
(identity_suite states the rule).  Each row calls a library check that
raises DisagreementError naming what failed; only routes-agree returns
a value, the U_D that later rows read.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from multiprocessing import Pool

from .digraph import (
    Digraph,
    all_digraphs,
    complement,
    complete_digraph,
    digraph_from_json_dict,
    digraph_from_text,
    digraph_hash,
    digraph_to_json_dict,
    digraph_to_text,
    directed_path_digraph,
    empty_digraph,
    is_acyclic,
    load_digraph,
    opposite,
    poset_digraph,
    random_digraph,
    random_tournament,
    star_partition_digraph,
)
from .guards import DisagreementError, GuardError, guard
from .hamilton import (
    DP_BOUND,
    PARITY_BOUND,
    WISEMAN_BOUND,
    ham_dp,
    ham_report,
    parity_suite,
    wiseman_check,
)
from .redei import (
    CHOW_BOUND,
    CHOW_IDENTITIES_BOUND,
    DEFAULT_ROUTE,
    _first_difference,
    applicable_routes,
    check_hooks,
    powersum_to_ones,
    routes_agree,
    u_all_routes,
    u_from_chow,
    u_digraph,
    verify_chow_identities,
)
from .symfun import BASES, SymFun, convert, omega, to_p
from .walks import verify_walk_identity


# ------------------------------------------------------------ digraph input

def parse_generator(spec: str, seed) -> Digraph:
    kind, _, rest = spec.partition(":")
    try:
        # no entry point admits n > DP_BOUND: refuse it before building edges
        if kind in ("empty", "complete", "tournament", "random", "path"):
            guard("generator", int(rest.split(",")[0]), DP_BOUND)
        if kind == "empty":
            return empty_digraph(int(rest))
        if kind == "complete":
            n, *opts = rest.split(",")
            if opts not in ([], ["loops"]):
                raise ValueError("the only option after n is 'loops'")
            return complete_digraph(int(n), bool(opts))
        if kind == "tournament":
            return random_tournament(int(rest), seed)
        if kind == "random":
            n, p = rest.split(",")
            return random_digraph(int(n), float(p), seed)
        if kind == "star":
            sizes = [int(x) for x in rest.split(",")]
            if any(s <= 0 for s in sizes):
                raise ValueError("star block sizes must be positive")
            guard("generator", sum(sizes), DP_BOUND)
            blocks, start = [], 1
            for s in sizes:
                blocks.append(range(start, start + s))
                start += s
            return star_partition_digraph(*blocks)
        if kind == "path":
            return directed_path_digraph(int(rest))
        if kind == "poset":
            return _poset_from_file(rest)
    except GuardError:
        raise
    except (ValueError, IndexError) as exc:
        raise ValueError(f"bad generator spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown generator {kind!r}")


def _poset_from_file(path: str) -> Digraph:
    """Poset on the `n` line's [n], from `a b` lines meaning a < b."""
    with open(path, "r", encoding="utf-8") as fh:
        relations = digraph_from_text(fh.read())
    guard("generator", relations.n, DP_BOUND)
    return poset_digraph(relations.n, relations.sorted_edges())


def digraph_from_args(args) -> Digraph:
    if getattr(args, "gen", None) and getattr(args, "edges", None):
        raise ValueError("use either --gen or --edges, not both")
    if getattr(args, "gen", None):
        return parse_generator(args.gen, args.seed)
    if getattr(args, "edges", None):
        return load_digraph(args.edges)
    raise ValueError("one of --gen or --edges is required")


# ------------------------------------------------------------ identity suite

def _agreed(D: Digraph) -> dict:
    """Every applicable route's U_D by name, and "p": their common p form."""
    computed = u_all_routes(D)
    return {"p": routes_agree(computed), **{r.route: r.value for r in computed}}


def _assert_equal_p(f: SymFun, g: SymFun, label: str) -> None:
    """Raise DisagreementError naming the first p coefficient where f and g
    differ."""
    fp, gp = to_p(f), to_p(g)
    if fp.terms != gp.terms:
        raise DisagreementError(_first_difference(label, fp, gp))


def _ones(D: Digraph, u_tour: SymFun) -> None:
    got, want = powersum_to_ones(u_tour), ham_dp(complement(D))
    if got != want:
        raise DisagreementError(
            f"tournament evaluation {got} != ham of complement {want}"
        )


# Identity name -> (admits(D), the U_D it reads, check(D, u)); see
# identity_suite.  Rows look their functions up by name when called, so a
# wrapper put on a module's function (a test stub, bench/tracer.py) runs.
IDENTITIES = {
    "routes-agree": (
        lambda D: len(applicable_routes(D)) >= 2, None, lambda D, u: _agreed(D)
    ),
    "omega-complement": (
        lambda D: DEFAULT_ROUTE in applicable_routes(D),
        "p",
        lambda D, u: _assert_equal_p(
            omega(u), u_digraph(complement(D)), "omega(U_D) vs U of complement"
        ),
    ),
    "opposite-invariance": (
        lambda D: DEFAULT_ROUTE in applicable_routes(D),
        "p",
        lambda D, u: _assert_equal_p(u, u_digraph(opposite(D)), "U_D vs U of opposite"),
    ),
    "berge-parity": (lambda D: D.n <= PARITY_BOUND, None, lambda D, u: parity_suite(D)),
    "hooks-readoff": (lambda D: D.n >= 1, "schur-JT", lambda D, u: check_hooks(D, u)),
    "u-from-path-cycle": (
        lambda D: D.n <= CHOW_BOUND,
        "p",
        lambda D, u: _assert_equal_p(
            u, u_from_chow(D), "U_D vs y=0 path-cycle function"
        ),
    ),
    "chow-identities": (
        lambda D: D.n <= CHOW_IDENTITIES_BOUND,
        None,
        lambda D, u: verify_chow_identities(D),
    ),
    # checked up to n = 6 here, though verify_walk_identity admits 8
    "walk-identity": (
        lambda D: D.n <= 6,
        None,
        lambda D, u: verify_walk_identity(D, trials=2, seed=7),
    ),
    "tournament-ones": (lambda D: True, "tournament", lambda D, u: _ones(D, u)),
    "wiseman-acyclic": (
        lambda D: D.n <= WISEMAN_BOUND and is_acyclic(D),
        None,
        lambda D, u: wiseman_check(D),
    ),
}


def identity_suite(D: Digraph) -> dict:
    """Run the IDENTITIES rows in order; map name -> None (pass) or detail.

    A row runs when the U_D it reads came out and admits(D) holds; admits
    tests n against its bound before any property of D.  A row reads no U_D
    (None), "p" (the routes' common p form) or a route's result (its name);
    only routes-agree, the first row, returns these, and only if it passes.
    A row that raises is recorded as failed, its detail starting with the
    exception's type name, so one bad digraph never aborts a corpus run.
    Raises GuardError when no identity ran."""
    results: dict = {}
    u_read: dict = {None: None}
    for name, (admits, reads, check) in IDENTITIES.items():
        if reads in u_read and admits(D):
            try:
                u_read.update(check(D, u_read[reads]) or {})
                results[name] = None
            except Exception as exc:
                results[name] = f"{type(exc).__name__}: {exc}"
    if not results:
        raise GuardError(f"no identity admits n = {D.n}")
    return results


# ------------------------------------------------------------------- corpus

def build_corpus(spec: str, seed=0) -> list:
    """exhaustive3 (all 512 digraphs on [3]), exhaustive:n, or random:n,count."""
    if spec.startswith("exhaustive"):
        rest = spec[len("exhaustive"):].lstrip(":")
        n = int(rest) if rest else 3
        guard("corpus_exhaustive", n, 3)
        return list(all_digraphs(n))
    if spec.startswith("random:"):
        body = spec.split(":", 1)[1]
        n_str, count_str = body.split(",")
        n, count = int(n_str), int(count_str)
        if count < 1:
            raise ValueError(f"corpus count must be at least 1, got {count}")
        guard("generator", n, DP_BOUND)
        rng = random.Random(seed)
        densities = (0.15, 0.3, 0.5, 0.7, 0.85)
        return [
            random_digraph(n, densities[i % len(densities)], rng.randrange(2**32))
            for i in range(count)
        ]
    raise ValueError(f"unknown corpus spec {spec!r}")


def _suite_worker(payload: dict) -> dict:
    D = digraph_from_json_dict(payload)
    results = identity_suite(D)
    failures = {k: v for k, v in results.items() if v is not None}
    return {
        "digraph": payload,
        "checked": sorted(results),
        "failures": failures,
    }


def run_corpus(items, jobs: int = 1) -> dict:
    """Identity suite over a list of digraphs; summary plus failure records."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    payloads = [digraph_to_json_dict(D) for D in items]
    workers = min(jobs, len(payloads), os.cpu_count() or 1)
    if workers > 1:
        with Pool(workers) as pool:
            rows = pool.map(_suite_worker, payloads)
    else:
        rows = [_suite_worker(p) for p in payloads]
    tally: dict = {}
    failures = []
    for row in rows:
        for name in row["checked"]:
            entry = tally.setdefault(name, {"checked": 0, "failed": 0})
            entry["checked"] += 1
            if name in row["failures"]:
                entry["failed"] += 1
        if row["failures"]:
            failures.append(row)
    return {
        "items": len(items),
        "identities": {k: tally[k] for k in sorted(tally)},
        "failures": failures,
        "failed_items": len(failures),
    }


def write_artifacts(failures, directory: str) -> list:
    os.makedirs(directory, exist_ok=True)
    written = []
    for row in failures:
        D = digraph_from_json_dict(row["digraph"])
        stem = digraph_hash(D)
        dg_path = os.path.join(directory, f"{stem}.dg")
        with open(dg_path, "w", encoding="utf-8") as fh:
            fh.write(digraph_to_text(D))
        with open(
            os.path.join(directory, f"{stem}.json"), "w", encoding="utf-8"
        ) as fh:
            json.dump(row, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(dg_path)
    return written


# --------------------------------------------------------------- subcommands

def cmd_u(args) -> int:
    D = digraph_from_args(args)
    if args.basis not in BASES:
        raise ValueError(f"unknown basis {args.basis!r}")
    if args.routes == "all":
        routes = applicable_routes(D)
        if not routes:
            raise GuardError(f"no route admits n = {D.n}")
    elif args.routes == "default":
        routes = [DEFAULT_ROUTE]
    else:
        routes = [r.strip() for r in args.routes.split(",") if r.strip()]
    results = u_all_routes(D, routes)
    failure = None
    try:
        value = convert(routes_agree(results), args.basis)
    except DisagreementError as exc:
        failure = exc
    ok = failure is None
    # one route has nothing to agree with: null, not a vacuous true
    agree = None if ok and len(results) == 1 else ok
    payload = {
        "command": "u",
        "digraph": {**digraph_to_json_dict(D), "hash": digraph_hash(D)},
        "seed": args.seed,
        "agree": agree,
        "routes": [
            r.to_json_dict(include_timings=args.timings) for r in results
        ],
    }
    if ok:
        payload["value"] = value.to_json_dict()
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"digraph n={D.n} hash={payload['digraph']['hash']}")
        for r in results:
            stamp = f"  [{r.elapsed_ms:.1f} ms]" if args.timings else ""
            print(f"route {r.route}: {r.value!r}{stamp}")
        if ok:
            print(f"U_D ({args.basis}): {value!r}")
        verdict = "n/a (one route)" if agree is None else "yes" if ok else "NO"
        print(f"agree: {verdict}")
    if not ok:
        raise failure  # main reports it and exits 4
    return 0


def cmd_ham(args) -> int:
    D = digraph_from_args(args)
    report = ham_report(D, cycles=args.cycles)
    payload = report.to_json_dict(include_timings=args.timings)
    payload["command"] = "ham"
    payload["seed"] = args.seed
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"digraph n={D.n} hash={report.digraph_hash}")
        print(f"ham paths: {report.ham_paths}  (routes {report.routes})")
        if args.cycles:
            print(
                f"ham cycles: {report.ham_cycles}  (routes {report.cycle_routes})"
            )
    return 0


def cmd_verify(args) -> int:
    items = build_corpus(args.corpus, args.seed)
    summary = run_corpus(items, jobs=args.jobs)
    artifacts = []
    if summary["failures"] and args.artifacts:
        artifacts = write_artifacts(summary["failures"], args.artifacts)
    payload = {"command": "verify", "corpus": args.corpus, "seed": args.seed, **summary}
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"corpus {args.corpus}: {summary['items']} digraphs")
        for name, entry in summary["identities"].items():
            print(
                f"  {name}: {entry['checked'] - entry['failed']}/{entry['checked']} ok"
            )
        print(f"failed digraphs: {summary['failed_items']}")
    if artifacts:
        print(f"wrote {len(artifacts)} artifacts to {args.artifacts}", file=sys.stderr)
    return 4 if summary["failed_items"] else 0


# --------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="redeiberge",
        description="Exact descent symmetric functions and Hamiltonian counts of digraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input_args(p):
        p.add_argument("--gen", help="generator spec, e.g. complete:4 or random:5,0.3")
        p.add_argument("--edges", help="digraph file (text or JSON)")
        p.add_argument("--seed", type=int, default=0, help="seed for random generators")
        p.add_argument(
            "--format", choices=("json", "table"), default="json"
        )
        p.add_argument(
            "--timings", action="store_true", help="include timing fields"
        )

    pu = sub.add_parser("u", help="compute the descent symmetric function")
    add_input_args(pu)
    pu.add_argument("--basis", default="p", help="p h e s m mtilde")
    pu.add_argument(
        "--routes",
        default="default",
        help="'default', 'all', or a comma list of route names",
    )
    pu.set_defaults(func=cmd_u)

    ph = sub.add_parser("ham", help="Hamiltonian path/cycle counts")
    add_input_args(ph)
    ph.add_argument("--cycles", action="store_true", help="also count cycles")
    ph.set_defaults(func=cmd_ham)

    pv = sub.add_parser("verify", help="identity suite over a corpus")
    pv.add_argument(
        "--corpus", required=True, help="exhaustive3 or random:n,count"
    )
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--jobs", type=int, default=1)
    pv.add_argument(
        "--artifacts",
        default="verify-failures",
        help="directory for failing digraphs ('' to disable)",
    )
    pv.add_argument("--format", choices=("json", "table"), default="json")
    pv.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except GuardError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return 3
    except DisagreementError as exc:
        print(f"disagreement: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
