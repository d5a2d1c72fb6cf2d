"""Hamiltonian path and cycle counts via determinant-permanent identities.

ham(D), the number of Hamiltonian paths, satisfies

    ham(D) = sum over S of det Abar[S] * per A[S^c]

with A the adjacency matrix, Abar its complement (loops included), and
the 0x0 determinant and permanent both 1.  Hamiltonian cycles admit two
companion expressions:

    (a)  sum over S avoiding vertex 1 of (-1)^|S| det A[S] * per A[S^c]
    (b)  (1/n) sum over all S of (-1)^|S| |S^c| det A[S] * per A[S^c]

where (a) holds with any fixed vertex in place of 1 and (b) must divide
exactly.  The path sum, grouped by vertex sets, is one sum over set
partitions of cycle weights, with no minor table; the cycle formulas
share per A and det A.  ham_dp, the full-set value of the endpoint DP
ringmat.path_counts, and DFS enumeration cross-check everything.
parity_suite checks Berge's congruence ham(D) = ham(Dbar) mod 2 and the
fact (Redei) that tournaments have an odd number of Hamiltonian paths,
wiseman_check the counts of an acyclic digraph's complement; both raise
DisagreementError on a failure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .digraph import (
    Digraph,
    complement,
    digraph_hash,
    enumerate_cycle_covers,
    is_acyclic,
    is_tournament,
)
from .guards import DisagreementError, GuardError, guard
from .ringmat import _anchored_cycle_weights, _signed_cycles, partition_sum
from .ringmat import path_counts, permanent_ryser
from .ringmat import principal_determinants, principal_permanents

# Largest n that ham_detper, ham_dp, the cycle formulas, parity_suite
# and wiseman_check admit.
DETPER_BOUND = 18
DP_BOUND = 22
CYCLE_FORMULA_BOUND = 16
PARITY_BOUND = 12
WISEMAN_BOUND = 8


def _minors(D: Digraph, kind: str, tables: dict) -> list:
    """One table of A, D's adjacency matrix, indexed by bitmask: its
    anchored cycle weights ("cyc"), per A[S] ("per") or det A[S] ("det"),
    the last two both built from "cyc".

    A table is built the first time its kind is asked for and kept in
    tables.  ham_report passes one dict to all its routes, so ham_detper
    and both cycle formulas build each table once between them.  The
    tables are shared, so callers must not mutate them.
    """
    if kind not in tables:
        A = D.adjacency()
        if kind == "cyc":
            tables[kind] = _anchored_cycle_weights(A)
        else:
            kernel = {"per": principal_permanents, "det": principal_determinants}[kind]
            tables[kind] = kernel(A, _minors(D, "cyc", tables))
    return tables[kind]


def ham_detper(D: Digraph, tables: dict | None = None) -> int:
    """Hamiltonian paths by the determinant-permanent subset formula, read
    off ringmat.partition_sum with a block B weighing cyc_A(B) +
    (-1)^(|B|-1) cyc_Abar(B), the cycles on exactly B: no det Abar table.
    A's cycle weights come from tables (see _minors), or are built and
    dropped when tables is None."""
    guard("ham_detper", D.n, DETPER_BOUND)
    cyc = _minors(D, "cyc", {} if tables is None else tables)
    # only this route reads Abar's cycle weights, so they are not kept
    bar = _signed_cycles(_anchored_cycle_weights(complement(D).adjacency()))
    return partition_sum([a + b for a, b in zip(cyc, bar)])


def ham_dp(D: Digraph) -> int:
    """Hamiltonian paths: the full-set total of ringmat.path_counts, the
    subset dynamic program over endpoints."""
    guard("ham_dp", D.n, DP_BOUND)
    return path_counts(D.adjacency())[-1]


def ham_paths_bruteforce(D: Digraph) -> int:
    """Hamiltonian paths by DFS enumeration."""
    guard("ham_bruteforce", D.n, 12)
    n = D.n
    if n == 0:
        return 1
    adj = {v: [w for w in D.out_neighbors(v) if w != v] for v in D.vertices()}
    count = 0

    def rec(v: int, visited: int, depth: int):
        nonlocal count
        if depth == n:
            count += 1
            return
        for w in adj[v]:
            bit = 1 << (w - 1)
            if not visited & bit:
                rec(w, visited | bit, depth + 1)

    for v in D.vertices():
        rec(v, 1 << (v - 1), 1)
    return count


def ham_cycles_bruteforce(D: Digraph) -> int:
    """Hamiltonian cycles by DFS from the anchor vertex 1.

    n = 0 has none; n = 1 has one exactly when the loop (1,1) is present.
    """
    guard("ham_cycles_bruteforce", D.n, 12)
    n = D.n
    if n == 0:
        return 0
    if n == 1:
        return 1 if D.has_edge(1, 1) else 0
    adj = {v: [w for w in D.out_neighbors(v) if w != v] for v in D.vertices()}
    full = (1 << n) - 1
    count = 0

    def rec(v: int, visited: int):
        nonlocal count
        if visited == full:
            if D.has_edge(v, 1):
                count += 1
            return
        for w in adj[v]:
            bit = 1 << (w - 1)
            if not visited & bit:
                rec(w, visited | bit)

    rec(1, 1)
    return count


def ham_cycles(D: Digraph, route: str = "formula_a", tables: dict | None = None) -> int:
    """Hamiltonian cycle count by formula_a or formula_b; enumeration is
    ham_cycles_bruteforce.

    formula_a excludes vertex 1 (the result is the same for any vertex);
    formula_b divides the weighted alternating sum by n and insists the
    division is exact.  Both read det A and per A from tables (see
    _minors), or build both and drop them when tables is None.
    """
    n = D.n
    guard("ham_cycles", n, CYCLE_FORMULA_BOUND)
    if n < 1:
        raise ValueError("formula routes need n >= 1")
    if route not in ("formula_a", "formula_b"):
        raise ValueError(f"unknown route {route!r}")
    tables = {} if tables is None else tables
    det_a, per_a = _minors(D, "det", tables), _minors(D, "per", tables)
    # (-1)^|S| det A[S] * per A[S^c] by S; per_a reversed is read at S^c
    terms = {
        S: (-d if S.bit_count() & 1 else d) * p
        for S, (d, p) in enumerate(zip(det_a, reversed(per_a)))
        if d
    }
    if route == "formula_a":
        return sum(t for S, t in terms.items() if not S & 1)
    total = sum(t * (n - S.bit_count()) for S, t in terms.items())
    if total % n:
        raise DisagreementError(
            f"cycle formula (b) does not divide exactly: {total} / {n}"
        )
    return total // n


# ------------------------------------------------------------------ reports

@dataclass
class HamReport:
    n: int
    digraph_hash: str
    ham_paths: int
    routes: dict
    ham_cycles: int | None = None
    cycle_routes: dict = field(default_factory=dict)
    timings_ms: dict = field(default_factory=dict)

    def to_json_dict(self, include_timings: bool = False) -> dict:
        out = {
            "n": self.n,
            "digraph": self.digraph_hash,
            "ham_paths": self.ham_paths,
            "routes": dict(sorted(self.routes.items())),
        }
        if self.ham_cycles is not None:
            out["ham_cycles"] = self.ham_cycles
            out["cycle_routes"] = dict(sorted(self.cycle_routes.items()))
        if include_timings:
            out["timings_ms"] = {
                k: round(v, 3) for k, v in sorted(self.timings_ms.items())
            }
        return out


# What ham_report runs: (kind, name, run(D, tables), the n it runs it at).
# Each run looks its function up by name when it runs, so a wrapper put
# on a module function from outside is the one the report calls.  Brute
# force stops at 8 there, below its guard, because it costs n!; formula
# (a) needs a vertex to anchor at.
_FORMULA_NS = range(1, CYCLE_FORMULA_BOUND + 1)
REPORT_ROUTES = (
    ("paths", "detper", lambda D, t: ham_detper(D, t), range(DETPER_BOUND + 1)),
    ("paths", "dp", lambda D, t: ham_dp(D), range(DP_BOUND + 1)),
    ("paths", "bruteforce", lambda D, t: ham_paths_bruteforce(D), range(9)),
    ("cycles", "formula_a", lambda D, t: ham_cycles(D, "formula_a", t), _FORMULA_NS),
    ("cycles", "formula_b", lambda D, t: ham_cycles(D, "formula_b", t), _FORMULA_NS),
    ("cycles", "bruteforce", lambda D, t: ham_cycles_bruteforce(D), range(9)),
)


def ham_report(D: Digraph, cycles: bool = False) -> HamReport:
    """Count by every route REPORT_ROUTES runs at this n and insist they agree.

    Raises GuardError before counting when fewer than two path routes, or
    (with cycles) no cycle route, run at this n.  The routes share one
    dict of principal-minor tables of D (see _minors), dropped when the
    report returns, so the timing of a shared table is charged to the
    first route that builds it.
    """
    kinds = ("paths", "cycles") if cycles else ("paths",)
    found: dict = {kind: {} for kind in kinds}
    for kind, name, run, ns in REPORT_ROUTES:
        if kind in found and D.n in ns:
            found[kind][name] = run
    if len(found["paths"]) < 2 or (cycles and not found["cycles"]):
        admitted = {kind: list(routes) for kind, routes in found.items()}
        raise GuardError(f"ham_report: too few routes admit n = {D.n}: {admitted}")
    tables: dict = {}
    agreed: dict = {}
    timings: dict = {}
    for kind, routes in found.items():
        for name, run in routes.items():
            t0 = time.perf_counter()
            routes[name] = run(D, tables)
            timings[f"{kind}:{name}"] = (time.perf_counter() - t0) * 1000
        values = set(routes.values())
        if len(values) != 1:
            raise DisagreementError(f"Hamiltonian {kind} routes disagree: {routes}")
        agreed[kind] = values.pop()
    return HamReport(
        n=D.n,
        digraph_hash=digraph_hash(D),
        ham_paths=agreed["paths"],
        routes=found["paths"],
        ham_cycles=agreed.get("cycles"),
        cycle_routes=found.get("cycles", {}),
        timings_ms=timings,
    )


# ------------------------------------------------------------------- parity

def parity_suite(D: Digraph) -> None:
    """Berge parity, ham(D) = ham(Dbar) mod 2, and for a tournament
    Redei's odd ham(D); DisagreementError names both counts."""
    guard("parity_suite", D.n, PARITY_BOUND)
    paths, paths_bar = ham_dp(D), ham_dp(complement(D))
    counts = f"ham(D) = {paths}, ham(Dbar) = {paths_bar}"
    if (paths - paths_bar) % 2:
        raise DisagreementError(f"parity violation: {counts}")
    if is_tournament(D) and paths % 2 == 0:
        raise DisagreementError(f"tournament with even count: {counts}")


def wiseman_check(D: Digraph) -> None:
    """For acyclic D: ham(Dbar) equals per(Abar) equals the number of
    cycle covers of Dbar; DisagreementError lists the four counts."""
    guard("wiseman", D.n, WISEMAN_BOUND)
    if not is_acyclic(D):
        raise ValueError("wiseman_check needs an acyclic digraph")
    Dbar = complement(D)
    values = {
        "ham_detper(complement)": ham_detper(Dbar),
        "ham_dp(complement)": ham_dp(Dbar),
        "per(adjacency(complement))": permanent_ryser(Dbar.adjacency()),
        "cycle covers of complement": sum(enumerate_cycle_covers(Dbar).values()),
    }
    if len(set(values.values())) != 1:
        raise DisagreementError(f"acyclic complement counts disagree: {values}")
