"""Command line interface.

Subcommands:

  u       compute U_D for one digraph, optionally by several routes
  ham     Hamiltonian path (and optionally cycle) counts with route checks
  verify  run the identity suite over a corpus of digraphs

Exit codes: 0 success, 2 parse or input error, 3 size guard violation,
4 route disagreement or verification failure.  Output is deterministic
for a fixed configuration and seed; timing fields appear only with
--timings so that default output is byte-stable.
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
    applicable_routes,
    check_hooks,
    compare_routes,
    powersum_to_ones,
    u_all_routes,
    u_from_chow,
    u_tournament,
    u_via_powersum_GS,
    verify_chow_identities,
)
from .symfun import BASES, SymFun, convert, omega, to_p
from .walks import verify_walk_identity

# The identity suite checks the walk identity only up to this n, though
# verify_walk_identity admits 8.
WALK_IDENTITY_SUITE_BOUND = 6


# ------------------------------------------------------------ digraph input

def parse_generator(spec: str, seed) -> Digraph:
    kind, _, rest = spec.partition(":")
    try:
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
            blocks, start = [], 1
            for s in sizes:
                blocks.append(range(start, start + s))
                start += s
            return star_partition_digraph(*blocks)
        if kind == "path":
            return directed_path_digraph(int(rest))
        if kind == "poset":
            return _poset_from_file(rest)
    except (ValueError, IndexError) as exc:
        raise ValueError(f"bad generator spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown generator {kind!r}")


def _poset_from_file(path: str) -> Digraph:
    """Poset on the `n` line's [n], from `a b` lines meaning a < b."""
    with open(path, "r", encoding="utf-8") as fh:
        relations = digraph_from_text(fh.read())
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

def identity_suite(D: Digraph) -> dict:
    """Run every identity the guards allow; map name -> None (pass) or detail.

    routes-agree runs only when at least two routes admit D, and the
    identities that use its U_D (hooks-readoff: the schur-JT result) only
    when it passed.  An identity that
    raises is recorded as failed, its detail starting with the exception's
    type name, so one bad digraph never aborts a corpus run.  Raises
    GuardError when no identity admits D.
    """
    results: dict = {}

    def run(name: str, fn):
        try:
            fn()
            results[name] = None
        except Exception as exc:
            results[name] = f"{type(exc).__name__}: {exc}"

    n = D.n
    routes = applicable_routes(D)
    u_ref = None  # U_D in the p basis, once routes-agree has passed
    by_route: dict = {}  # route name -> U_D, likewise

    def check_routes():
        nonlocal u_ref
        computed = u_all_routes(D)
        u_ref, why = compare_routes(computed)
        if why:
            raise DisagreementError(why)
        by_route.update((r.route, r.value) for r in computed)

    if len(routes) >= 2:
        run("routes-agree", check_routes)
        if u_ref is None:
            return results

    if u_ref is not None and "powersum-GS" in routes:
        run(
            "omega-complement",
            lambda: _assert_equal_p(
                omega(u_ref),
                u_via_powersum_GS(complement(D)),
                "omega(U_D) vs U of complement",
            ),
        )
        run(
            "opposite-invariance",
            lambda: _assert_equal_p(
                u_ref,
                u_via_powersum_GS(opposite(D)),
                "U_D vs U of opposite",
            ),
        )
    if n <= PARITY_BOUND:
        def check_parity():
            par = parity_suite(D)
            if not par["berge_ok"]:
                raise DisagreementError(f"parity violation: {par}")
            if par["is_tournament"] and not par["redei_ok"]:
                raise DisagreementError(f"tournament with even count: {par}")

        run("berge-parity", check_parity)
    if "schur-JT" in by_route and n >= 1:
        def check_hook_readoffs():
            hooks = check_hooks(D, by_route["schur-JT"])
            lo, hi = hooks[0], hooks[-1]
            if lo != ham_dp(D) or hi != ham_dp(complement(D)):
                raise DisagreementError(f"hook read-off mismatch: {lo}, {hi}")

        run("hooks-readoff", check_hook_readoffs)
    if u_ref is not None and n <= CHOW_BOUND:
        run(
            "u-from-path-cycle",
            lambda: _assert_equal_p(
                u_ref, u_from_chow(D), "U_D vs y=0 path-cycle function"
            ),
        )
    if n <= CHOW_IDENTITIES_BOUND:
        def check_chow():
            report = verify_chow_identities(D)
            if not report.ok:
                raise DisagreementError("; ".join(report.failures))

        run("chow-identities", check_chow)
    if n <= WALK_IDENTITY_SUITE_BOUND:
        def check_walks():
            report = verify_walk_identity(D, trials=2, seed=7)
            if not report.ok:
                raise DisagreementError("; ".join(report.failures))

        run("walk-identity", check_walks)
    if "tournament" in routes:
        def check_tournament_ones():
            value = powersum_to_ones(u_tournament(D))
            expected = ham_dp(complement(D))
            if value != expected:
                raise DisagreementError(
                    f"tournament evaluation {value} != ham of complement {expected}"
                )

        run("tournament-ones", check_tournament_ones)
    if is_acyclic(D) and n <= WISEMAN_BOUND:
        run("wiseman-acyclic", lambda: wiseman_check(D))
    if not results:
        raise GuardError(f"no identity admits n = {n}")
    return results


def _assert_equal_p(f: SymFun, g: SymFun, label: str) -> None:
    if to_p(f).terms != to_p(g).terms:
        raise DisagreementError(f"{label}: {to_p(f)!r} != {to_p(g)!r}")


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
        routes = ["powersum-GS"]
    else:
        routes = [r.strip() for r in args.routes.split(",") if r.strip()]
    results = u_all_routes(D, routes)
    ref, why = compare_routes(results)
    ok = why is None
    value = convert(ref, args.basis) if ok else None
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
        print(f"disagreement: {why}", file=sys.stderr)
        return 4
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
    payload = {
        "command": "verify",
        "corpus": args.corpus,
        "seed": args.seed,
        "items": summary["items"],
        "identities": summary["identities"],
        "failed_items": summary["failed_items"],
        "failures": summary["failures"],
    }
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
