"""The benchmark's workloads: seeded inputs, the timed operation, its checks.

Inputs are edge lists drawn from the benchmark's own ``random.Random(seed)``,
never from the package's generators, so a change to those generators
cannot change what is measured.  They come in rounds: one digraph per
density, plus (for verify-n5) two structured digraphs.  A run stops only at
the end of a round, so every run measures the same mix of densities.

Why these three workloads:

verify-n5
    Random digraphs on 5 vertices through the full identity suite
    (``cli.run_corpus``, one job), as ``verify --corpus random:5,...``
    runs it.  n = 5 is the largest size where every route and every
    identity applies (the Chow identities stop at 5), so this is where
    the ``redei`` routes, ``ringmat.det_ring`` over ring elements, about
    1,300 small ``symfun`` products per digraph, ``walks`` and cover
    enumeration do their work; ``matrix-det`` dominates the routes.  Each
    round also holds a tournament and a digraph whose edges all descend,
    because random digraphs almost never are either, and only those run
    the ``tournament`` and ``acyclic-*`` routes and the
    ``tournament-ones`` and ``wiseman-acyclic`` identities.
u-default-n8
    Random digraphs on 8 vertices through U_D by the default route in the
    Schur basis (``u_digraph(D, "s")``, what ``u --basis s`` computes).
    n = 8 is the largest the default route admits.  Most of an op is
    ``digraph.perms_with_cycles_in_either`` walking all 8! permutations,
    of which 3-50% are kept, then one large ``symfun`` p-to-s conversion;
    ``ringmat`` is never called.  A new default route shows here, and it
    uses ``symfun`` as one big conversion rather than many small products.
ham-cycles-n14
    Random digraphs on 14 vertices through ``ham_report(D, cycles=True)``,
    what ``ham --cycles`` runs.  About 96% of an op is the 3^n
    principal-minor convolutions behind ``ham_detper`` and both cycle
    formulas; the rest is the 2^n n^2 ``ham_dp``.  ``symfun`` is never
    called, so this workload bypasses the symmetric-function layer.
    n = 14 rather than 16 because one op at n = 16 takes about 23 s.

``u --routes all`` at n = 6 is left out: ``matrix-det`` is at least 85% of
its op, the layer verify-n5 already loads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Identities the seed code's identity suite checks on every digraph with
# n <= 5; tournament-ones and wiseman-acyclic are added for tournaments
# and acyclic digraphs.  A drop is a failure, not a speed-up.
BASE_IDENTITIES = frozenset(
    {
        "routes-agree",
        "omega-complement",
        "opposite-invariance",
        "berge-parity",
        "hooks-readoff",
        "u-from-path-cycle",
        "chow-identities",
        "walk-identity",
    }
)


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


# ---------------------------------------------------------------- inputs

def random_edges(rng: random.Random, n: int, p: float) -> list:
    """Each of the n^2 ordered pairs, loops included, kept with probability p."""
    return [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if rng.random() < p]


def tournament_edges(rng: random.Random, n: int) -> list:
    return [
        (u, v) if rng.random() < 0.5 else (v, u)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
    ]


def descending_edges(rng: random.Random, n: int) -> list:
    """Acyclic: every edge goes from a larger to a smaller vertex."""
    return [(u, v) for u in range(1, n + 1) for v in range(1, u) if rng.random() < 0.5]


def is_tournament(n: int, edges) -> bool:
    es = set(edges)
    return all(u != v for u, v in es) and all(
        ((u, v) in es) != ((v, u) in es)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
    )


def is_acyclic(n: int, edges) -> bool:
    """Kahn's algorithm; a loop is a cycle."""
    indeg = [0] * (n + 1)
    succ: dict = {}
    for u, v in set(edges):
        succ.setdefault(u, []).append(v)
        indeg[v] += 1
    ready = [v for v in range(1, n + 1) if indeg[v] == 0]
    seen = 0
    while ready:
        u = ready.pop()
        seen += 1
        for v in succ.get(u, ()):
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return seen == n


def expected_identities(n: int, edges) -> frozenset:
    names = set(BASE_IDENTITIES)
    if is_tournament(n, edges):
        names.add("tournament-ones")
    if is_acyclic(n, edges):
        names.add("wiseman-acyclic")
    return frozenset(names)


# ---------------------------------------------------------------- ops and checks
#
# An op receives the package (``pkg``, with ``pkg.cli`` imported) and one
# Digraph built from the edge list.  A check receives the same and the
# op's output; it runs outside the timed region and raises CheckFailed.
# It may return the number of identities the op checked.

def op_verify(pkg, D):
    return pkg.cli.run_corpus([D], jobs=1)


def check_verify(pkg, D, summary):
    identities = summary["identities"]
    expected = expected_identities(D.n, D.edges)
    if set(identities) != expected:
        raise CheckFailed(f"identities checked {sorted(identities)}, expected {sorted(expected)}")
    failed = sorted(k for k, e in identities.items() if e["failed"] or e["checked"] != 1)
    if failed or summary["failed_items"] or summary["items"] != 1:
        raise CheckFailed(f"identities failed: {failed}; {summary['failures']}")
    return len(identities)


def op_u_default(pkg, D):
    return pkg.u_digraph(D, "s")


def check_u_default(pkg, D, value):
    """Hook read-off: [s_{1^n}] U_D = ham(D), [s_(n)] U_D = ham(complement)."""
    n = D.n
    if value.basis != "s":
        raise CheckFailed(f"basis {value.basis!r}, expected 's'")
    lo, hi = value.coefficient((1,) * n), value.coefficient((n,))
    paths, paths_bar = pkg.ham_dp(D), pkg.ham_dp(pkg.complement(D))
    if lo != paths or hi != paths_bar:
        raise CheckFailed(f"hooks {lo}, {hi}; ham_dp {paths}, {paths_bar}")
    return 0


def op_ham_cycles(pkg, D):
    return pkg.ham_report(D, cycles=True)


def check_ham_cycles(pkg, D, report):
    """At least two agreeing path routes, a cycle route, and Berge parity."""
    if len(report.routes) < 2 or not report.cycle_routes or report.ham_cycles is None:
        raise CheckFailed(f"routes {report.routes}, cycle routes {report.cycle_routes}")
    paths_bar = pkg.ham_dp(pkg.complement(D))
    if (report.ham_paths - paths_bar) % 2:
        raise CheckFailed(f"Berge parity: ham {report.ham_paths}, complement {paths_bar}")
    return 0


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    densities: tuple
    structured: bool  # add a tournament and a descending digraph to each round
    op: object
    check: object
    reference: str  # the chunk in reference.KERNELS that resembles its hot code
    # Spans this workload must record in a traced run (tests check it).
    layers: tuple

    def rounds(self, seed: int, count: int) -> tuple:
        """A warm-up edge list, then count rounds of edge lists."""
        rng = random.Random(seed)
        warmup = random_edges(rng, self.n, self.densities[0])
        rounds = []
        for _ in range(count):
            batch = [random_edges(rng, self.n, p) for p in self.densities]
            if self.structured:
                batch += [tournament_edges(rng, self.n), descending_edges(rng, self.n)]
            rounds.append(batch)
        return warmup, rounds


ROUTES = (
    "F-definition",
    "path-cover",
    "powersum-GS",
    "subset-formula",
    "matrix-det",
    "schur-JT",
    "immanant-LR",
    "acyclic-powersum",
    "acyclic-schur",
    "acyclic-records",
    "tournament",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="verify-n5",
            n=5,
            densities=(0.15, 0.3, 0.5, 0.7, 0.85),
            structured=True,
            op=op_verify,
            check=check_verify,
            reference="mixed",
            layers=(
                *(f"redei.route.{r}" for r in ROUTES),
                "redei.verify_chow_identities",
                "redei.u_from_chow",
                "redei.hook_coefficient",
                "redei.routes_agree",
                "ringmat.det_ring",
                "ringmat.matrix_series",
                "ringmat.immanant",
                "symfun.multiply",
                "symfun.to_p",
                "symfun.convert",
                "symfun.littlewood_richardson",
                "walks.verify_walk_identity",
                "walks.xi",
                "digraph.enumerate_path_cycle_covers",
                "digraph.enumerate_cycle_covers",
                "hamilton.parity_suite",
                "cli.identity_suite",
            ),
        ),
        Workload(
            name="u-default-n8",
            n=8,
            densities=(0.15, 0.3, 0.5, 0.7, 0.85),
            structured=False,
            op=op_u_default,
            check=check_u_default,
            reference="dicts",
            layers=(
                "redei.route.powersum-GS",
                "digraph.perms_with_cycles_in_either",
                "symfun.convert",
                "combinat.character",
            ),
        ),
        Workload(
            name="ham-cycles-n14",
            n=14,
            densities=(0.3, 0.5, 0.7),
            structured=False,
            op=op_ham_cycles,
            check=check_ham_cycles,
            reference="subsets",
            layers=(
                "hamilton.ham_detper",
                "hamilton.ham_cycles.formula_a",
                "hamilton.ham_cycles.formula_b",
                "hamilton.ham_dp",
                "ringmat.principal_permanents",
                "ringmat.principal_determinants",
                "ringmat._anchored_cycle_weights",
            ),
        ),
    )
}
