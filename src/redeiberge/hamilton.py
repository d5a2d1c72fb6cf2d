"""Hamiltonian path and cycle counts via determinant-permanent identities.

ham(D), the number of Hamiltonian paths, satisfies

    ham(D) = sum over S of det Abar[S] * per A[S^c]

with A the adjacency matrix, Abar its complement (loops included), and
the 0x0 determinant and permanent both 1.  Hamiltonian cycles admit two
companion expressions: for any fixed vertex i,

    (a)  sum over S avoiding i of (-1)^|S| det A[S] * per A[S^c]
    (b)  (1/n) sum over all S of (-1)^|S| |S^c| det A[S] * per A[S^c]

where (b) must divide exactly.  The path sum, grouped by vertex sets, is
one sum over set partitions of cycle weights, with no minor table; the
cycle formulas share per A and det A.  ham_dp, the full-set value of
the endpoint DP ringmat.path_counts, and DFS enumeration cross-check
everything; parity utilities package Berge's congruence
ham(D) = ham(Dbar) mod 2 and the fact (Redei) that tournaments have an
odd number of Hamiltonian paths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache

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


@lru_cache(maxsize=3)
def _minors(D: Digraph, kind: str) -> list:
    """One table of A, D's adjacency matrix, indexed by bitmask: its
    anchored cycle weights ("cyc"), per A[S] ("per") or det A[S] ("det"),
    the last two both built from "cyc".

    ham_detper reads "cyc" and both cycle formulas read "det" and "per"
    through _report_minors, so within one ham_report each table is built
    once.  The tables are shared, so callers must not mutate them.
    """
    if kind == "cyc":
        return _anchored_cycle_weights(D.adjacency())
    if kind == "per":
        return principal_permanents(D.adjacency(), _minors(D, "cyc"))
    if kind == "det":
        return principal_determinants(D.adjacency(), _minors(D, "cyc"))
    raise ValueError(f"unknown minor table {kind!r}")


_in_report = False  # True only while ham_report runs its routes


def _report_minors(D: Digraph, *kinds: str) -> list:
    """_minors(D, kind) for each kind, kept cached only inside ham_report
    (which empties the cache when it ends), so a direct call holds none."""
    tables = [_minors(D, kind) for kind in kinds]
    if not _in_report:
        _minors.cache_clear()
    return tables


def ham_detper(D: Digraph) -> int:
    """Hamiltonian paths by the determinant-permanent subset formula, read
    off ringmat.partition_sum with a block B weighing cyc_A(B) +
    (-1)^(|B|-1) cyc_Abar(B), the cycles on exactly B: no det Abar table."""
    guard("ham_detper", D.n, DETPER_BOUND)
    (cyc,) = _report_minors(D, "cyc")
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


def ham_cycles(D: Digraph, route: str = "formula_a", i: int = 1) -> int:
    """Hamiltonian cycle count by the requested route.

    formula_a needs a vertex i to exclude (the result is i-independent);
    formula_b divides the weighted alternating sum by n and insists the
    division is exact; bruteforce enumerates.
    """
    n = D.n
    if route == "bruteforce":
        return ham_cycles_bruteforce(D)
    guard("ham_cycles", n, CYCLE_FORMULA_BOUND)
    if n < 1:
        raise ValueError("formula routes need n >= 1")
    if route not in ("formula_a", "formula_b"):
        raise ValueError(f"unknown route {route!r}")
    if route == "formula_a" and not 1 <= i <= n:
        raise ValueError("excluded vertex out of range")
    det_a, per_a = _report_minors(D, "det", "per")
    # (-1)^|S| det A[S] * per A[S^c] by S; per_a reversed is read at S^c
    terms = {
        S: (-d if S.bit_count() & 1 else d) * p
        for S, (d, p) in enumerate(zip(det_a, reversed(per_a)))
        if d
    }
    if route == "formula_a":
        return sum(t for S, t in terms.items() if not S >> (i - 1) & 1)
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


# What ham_report runs: (kind, name, function, the n it runs it at).
# Brute force stops at 8 there, below its guard, because it costs n!;
# the cycle formulas need a vertex to anchor at.
_FORMULA_NS = range(1, CYCLE_FORMULA_BOUND + 1)
REPORT_ROUTES = (
    ("paths", "detper", ham_detper, range(DETPER_BOUND + 1)),
    ("paths", "dp", ham_dp, range(DP_BOUND + 1)),
    ("paths", "bruteforce", ham_paths_bruteforce, range(9)),
    ("cycles", "formula_a", lambda D: ham_cycles(D, "formula_a"), _FORMULA_NS),
    ("cycles", "formula_b", lambda D: ham_cycles(D, "formula_b"), _FORMULA_NS),
    ("cycles", "bruteforce", ham_cycles_bruteforce, range(9)),
)

# ham_report calls through this dict, not the rows: a wrapper put on the
# module's functions from outside (bench/tracer.py) replaces values of
# module-level dicts but not fields of a row.
_REPORT_FUNCTIONS = {f"{kind}:{name}": fn for kind, name, fn, _ in REPORT_ROUTES}


def ham_report(D: Digraph, cycles: bool = False) -> HamReport:
    """Count by every route REPORT_ROUTES runs at this n and insist they agree.

    Raises GuardError before counting when fewer than two path routes, or
    (with cycles) no cycle route, run at this n.  The routes share the
    principal-minor tables of D (see _minors), so the timing of a shared
    table is charged to the first route that builds it.
    """
    kinds = ("paths", "cycles") if cycles else ("paths",)
    found: dict = {kind: {} for kind in kinds}
    for kind, name, _, ns in REPORT_ROUTES:
        if kind in found and D.n in ns:
            found[kind][name] = None
    if len(found["paths"]) < 2 or (cycles and not found["cycles"]):
        admitted = {kind: list(names) for kind, names in found.items()}
        raise GuardError(f"ham_report: too few routes admit n = {D.n}: {admitted}")
    global _in_report
    agreed: dict = {}
    timings: dict = {}
    _in_report = True
    try:
        for kind, routes in found.items():
            for name in routes:
                t0 = time.perf_counter()
                routes[name] = _REPORT_FUNCTIONS[f"{kind}:{name}"](D)
                timings[f"{kind}:{name}"] = (time.perf_counter() - t0) * 1000
            values = set(routes.values())
            if len(values) != 1:
                raise DisagreementError(f"Hamiltonian {kind} routes disagree: {routes}")
            agreed[kind] = values.pop()
    finally:
        _in_report = False
        _minors.cache_clear()
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

def parity_suite(D: Digraph) -> dict:
    """Berge parity (always) and Redei oddness (for tournaments)."""
    guard("parity_suite", D.n, PARITY_BOUND)
    paths = ham_dp(D)
    paths_bar = ham_dp(complement(D))
    tourney = is_tournament(D)
    out = {
        "n": D.n,
        "digraph": digraph_hash(D),
        "ham_paths": paths,
        "ham_paths_complement": paths_bar,
        "berge_ok": (paths - paths_bar) % 2 == 0,
        "is_tournament": tourney,
    }
    out["redei_ok"] = (paths % 2 == 1) if tourney else None
    return out


def wiseman_check(D: Digraph) -> dict:
    """For acyclic D: ham(Dbar) equals per(Abar) equals the number of
    cycle covers of Dbar."""
    guard("wiseman", D.n, WISEMAN_BOUND)
    if not is_acyclic(D):
        raise ValueError("wiseman_check needs an acyclic digraph")
    Dbar = complement(D)
    ham_bar = ham_detper(Dbar)
    ham_bar_dp = ham_dp(Dbar)
    per_bar = permanent_ryser(Dbar.adjacency())
    covers = len(enumerate_cycle_covers(Dbar))
    values = {
        "ham_detper(complement)": ham_bar,
        "ham_dp(complement)": ham_bar_dp,
        "per(adjacency(complement))": per_bar,
        "cycle covers of complement": covers,
    }
    if len(set(values.values())) != 1:
        raise DisagreementError(f"acyclic complement counts disagree: {values}")
    return {"n": D.n, "digraph": digraph_hash(D), "count": ham_bar, "values": values}
