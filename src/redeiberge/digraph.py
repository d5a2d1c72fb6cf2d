"""Digraphs on [n] with loops, and the enumerations built on them.

A digraph is a vertex count n together with a set of directed edges in
[n] x [n]; loops are allowed, antiparallel pairs are allowed, multiple
edges are not.  Vertices are labelled 1..n everywhere.

Path-cycle covers and permutations tied to edges are counted per vertex
set.  Vertex i is bit i - 1 of a mask, and each vertex's successors form
one.  A path is grown by depth-first search from its first vertex, only
forward, and counted at each step, so each path is counted once, on its
own vertex set.  A cycle is grown from its lowest vertex i, along
successor masks cut once per i to the vertices from i up, and closed at
each step onto a vertex with an edge back to i.  Loops and fixed points
are 1-cycles.  A component's packed code, a 4-bit count per kind and
length, depends only on its kind and size, so the walks just count
components in a flat list per kind, by vertex set.  The tally of a set R
adds each component inside R through R's lowest vertex to the memoized
tally of what it leaves, by adding codes, decoded once at the end: covers
by (path partition, cycle partition), permutations by (cycle type, sign).
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .guards import guard


@dataclass(frozen=True)
class Digraph:
    n: int
    edges: frozenset

    def __post_init__(self):
        # type(...) is int, not isinstance: True and False are ints too
        if type(self.n) is not int or self.n < 0:
            raise ValueError(f"vertex count {self.n!r} is not a nonnegative int")
        n = self.n
        for e in self.edges:
            if not (
                isinstance(e, tuple) and len(e) == 2
                and type(e[0]) is int and type(e[1]) is int
                and 0 < e[0] <= n and 0 < e[1] <= n
            ):
                raise ValueError(f"edge {e!r} not inside [1, {n}]^2")

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edges

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def out_neighbors(self, u: int) -> list:
        return sorted(v for (a, v) in self.edges if a == u)

    def adjacency(self) -> list:
        """0/1 matrix A with A[i-1][j-1] = 1 iff (i, j) is an edge."""
        A = [[0] * self.n for _ in range(self.n)]
        for (u, v) in self.edges:
            A[u - 1][v - 1] = 1
        return A

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def __repr__(self) -> str:
        es = " ".join(f"{u}->{v}" for u, v in self.sorted_edges())
        return f"Digraph(n={self.n}, {es or 'no edges'})"


def digraph(n: int, edges) -> Digraph:
    """Digraph on [n] from (u, v) pairs; n and every vertex must be ints."""
    try:
        pairs = frozenset((u, v) for u, v in edges)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"edges must be (u, v) pairs: {exc}") from exc
    return Digraph(n, pairs)


# ------------------------------------------------------------------ operations

def complement(D: Digraph) -> Digraph:
    """All pairs of [n] x [n] (loops included) that are not edges of D."""
    return Digraph(D.n, frozenset(product(D.vertices(), repeat=2)) - D.edges)


def opposite(D: Digraph) -> Digraph:
    return Digraph(D.n, frozenset((v, u) for (u, v) in D.edges))


def is_acyclic(D: Digraph) -> bool:
    """No directed cycle; a loop is a cycle."""
    color = [0] * (D.n + 1)
    adj = {u: D.out_neighbors(u) for u in D.vertices()}

    def dfs(u: int) -> bool:
        color[u] = 1
        for v in adj[u]:
            if color[v] == 1 or (color[v] == 0 and dfs(v)):
                return True
        color[u] = 2
        return False

    return not any(color[u] == 0 and dfs(u) for u in D.vertices())


def is_tournament(D: Digraph) -> bool:
    """Loopless, exactly one of (u,v), (v,u) for each unordered pair."""
    if any(u == v for (u, v) in D.edges):
        return False
    for u in D.vertices():
        for v in range(u + 1, D.n + 1):
            if ((u, v) in D.edges) == ((v, u) in D.edges):
                return False
    return True


def has_only_descending_edges(D: Digraph) -> bool:
    return all(u > v for (u, v) in D.edges)


def d_descent_set(D: Digraph, word) -> frozenset:
    """Positions i with (word[i-1], word[i]) an edge of D."""
    return frozenset(
        i for i in range(1, len(word)) if D.has_edge(word[i - 1], word[i])
    )


# ----------------------------------------------------------------- generators

def empty_digraph(n: int) -> Digraph:
    return Digraph(n, frozenset())


def complete_digraph(n: int, loops: bool = False) -> Digraph:
    return Digraph(
        n,
        frozenset(
            (u, v)
            for u in range(1, n + 1)
            for v in range(1, n + 1)
            if loops or u != v
        ),
    )


def directed_path_digraph(n: int) -> Digraph:
    """Edges (i+1, i): every edge descends, the unique increasing path is 1..n."""
    return Digraph(n, frozenset((i + 1, i) for i in range(1, n)))


def star_partition_digraph(*blocks) -> Digraph:
    """Blocks V_1, ..., V_k partition [n]; edges are all of V_i x V_j for i > j."""
    blocks = [sorted(set(b)) for b in blocks]
    flat = [v for b in blocks for v in b]
    n = len(flat)
    if sorted(flat) != list(range(1, n + 1)):
        raise ValueError("blocks must partition [n]")
    edges = set()
    for i in range(len(blocks)):
        for j in range(i):
            for u in blocks[i]:
                for v in blocks[j]:
                    edges.add((u, v))
    return Digraph(n, frozenset(edges))


def poset_digraph(n: int, relations) -> Digraph:
    """Strict-order digraph of the poset generated by the given relations.

    relations contains pairs (a, b) meaning a < b; the transitive closure
    is taken and must be irreflexive.  Edges point downward: (j, i) for i < j.
    """
    below = [[False] * (n + 1) for _ in range(n + 1)]
    for a, b in relations:
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"relation ({a}, {b}) out of range")
        below[a][b] = True
    for k in range(1, n + 1):
        for a in range(1, n + 1):
            if below[a][k]:
                for b in range(1, n + 1):
                    if below[k][b]:
                        below[a][b] = True
    for a in range(1, n + 1):
        if below[a][a]:
            raise ValueError("relations generate a cycle, not a partial order")
    return Digraph(
        n,
        frozenset(
            (j, i)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if below[i][j]
        ),
    )


def _check_probability(p: float) -> None:
    if not 0 <= p <= 1:  # also rejects NaN
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")


def random_digraph(n: int, p: float, seed) -> Digraph:
    """Each of the n^2 possible edges (loops included) kept with probability p."""
    _check_probability(p)
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(1, n + 1)
        if rng.random() < p
    ]
    return Digraph(n, frozenset(edges))


def random_tournament(n: int, seed) -> Digraph:
    rng = random.Random(seed)
    edges = []
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            edges.append((u, v) if rng.random() < 0.5 else (v, u))
    return Digraph(n, frozenset(edges))


def all_digraphs(n: int):
    """All 2^(n^2) digraphs on [n], loops included; lexicographic edge masks."""
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)]
    for mask in range(1 << len(pairs)):
        yield Digraph(
            n, frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
        )


# ------------------------------------------------------------------- covers

def enumerate_path_cycle_covers(
    D: Digraph, allow_paths: bool = True, allow_cycles: bool = True
) -> Counter:
    """The covers of [n] by disjoint paths/cycles along edges of D,
    tallied by (path partition, cycle partition).

    Every vertex lies in exactly one component; singleton paths need no
    edges, so the all-singletons cover is always counted when paths are
    allowed.  The flags drop the path or the cycle kind.
    """
    m = D.n
    guard("covers", m, 8)
    succ = _successors(D)
    # a path on k vertices counts in the 4-bit field k - 1, a cycle 32 bits up
    fields = [0] + [1 << 4 * k for k in range(m)]
    kinds = []
    if allow_paths:
        kinds.append((_path_counts(m, succ), fields))
    if allow_cycles:
        loops = [s >> i & 1 for i, s in enumerate(succ)]
        kinds.append((_cycle_counts(m, succ, loops), [f << 32 for f in fields]))
    tally = Counter()
    for code, c in _tally(m, kinds).items():
        tally[_lengths(code & _LOW), _lengths(code >> 32)] += c
    return tally


def enumerate_path_covers(D: Digraph) -> Counter:
    return enumerate_path_cycle_covers(D, allow_cycles=False)


def enumerate_cycle_covers(D: Digraph) -> Counter:
    return enumerate_path_cycle_covers(D, allow_paths=False)


# ------------------------------------------------- permutations tied to edges

def perms_with_all_cycles_in(D: Digraph) -> Counter:
    """Permutations of [n] whose nontrivial cycles are cycles of D; fixed
    points are unconstrained.  Tallied by (cycle type, sign)."""
    guard("perms", D.n, 8)
    return _perms_with_cycles_along(D.n, [_successors(D)])


def perms_with_cycles_in_either(D: Digraph) -> Counter:
    """Permutations whose nontrivial cycles are each a cycle of D or of its
    complement; fixed points are unconstrained.  Tallied by (cycle type,
    sign); the sign twists only the cycles of D."""
    guard("perms", D.n, 8)
    succ = _successors(D)
    # ~s: the complement's successors; the walks read no bit past vertex n
    return _perms_with_cycles_along(D.n, [succ, [~s for s in succ]])


def _perms_with_cycles_along(m: int, succs) -> Counter:
    """The permutations of m positions whose nontrivial cycles each run
    along one of the successor masks succs, tallied by (cycle type, sign).

    A k-cycle counts in the 4-bit field k - 1, and an even cycle along
    succs[0] also adds 1 at bit 32: the parity there is that of phi, the
    sum of length - 1 over those cycles, and the sign is (-1)^phi.  Fixed
    points are the 1-cycles of succs[0], whatever the loops."""
    kinds = [(_cycle_counts(m, succ, [int(t == 0)] * m),
              [0] + [1 << 4 * k | (t == 0 and k % 2) << 32 for k in range(m)])
             for t, succ in enumerate(succs)]
    tally = Counter()
    for code, c in _tally(m, kinds).items():
        tally[_lengths(code & _LOW), -1 if code >> 32 & 1 else 1] += c
    return tally


# ------------------------------------------------- tallies by unplaced set

_LOW = (1 << 32) - 1  # covers' paths and permutations' cycles; the rest above

_BITS: list = []  # per mask on at most 8 positions, its bits as (bit, position)


def _successors(D: Digraph) -> list:
    """Per vertex u, at index u - 1, the mask with bit v - 1 set for each
    edge (u, v)."""
    if not _BITS:  # filled on first use, so that an import stays cheap
        _BITS.extend([(1 << k, k) for k in range(8) if s >> k & 1] for s in range(256))
    succ = [0] * D.n
    for u, v in D.edges:
        succ[u - 1] |= 1 << v - 1
    return succ


def _tally(m: int, kinds) -> dict:
    """The packed codes of the objects on m positions, with their counts;
    kinds holds (count, codes): count[mask] components lie on the positions
    in mask, each coded codes[k] for its k positions."""
    parts = [[] for _ in range(1 << m)]
    for count, codes in kinds:
        for mask, c in enumerate(count):
            if c:
                parts[mask].append((codes[len(_BITS[mask])], c))
    memo = [{0: 1}] + [None] * ((1 << m) - 1)
    return _tally_rest((1 << m) - 1, parts, memo) if m else memo[0]


def _tally_rest(rest, parts, memo) -> dict:
    """The tally on the unplaced positions rest, memoized: each component
    through rest's lowest position that lies inside rest, its code added
    to each code of what it leaves."""
    low = rest & -rest
    free = left = rest ^ low
    tally: dict = {}
    while True:  # left runs over the subsets of free
        found = parts[rest ^ left]
        if found:
            sub = memo[left]
            if sub is None:
                sub = _tally_rest(left, parts, memo)
            for code, c in found:
                for code2, c2 in sub.items():
                    key = code + code2
                    tally[key] = tally.get(key, 0) + c * c2
        if not left:
            memo[rest] = tally
            return tally
        left = left - 1 & free


@lru_cache(maxsize=None)  # its codes are those of the 67 partitions of 0..8
def _lengths(code: int) -> tuple:
    """The partition with as many parts k as 4-bit field k - 1 of code."""
    return tuple(k for k in range(8, 0, -1) for _ in range(code >> 4 * (k - 1) & 15))


# The walks count each component by the free positions it leaves, then
# reverse the counts; as closures they would form a reference cycle.

def _path_counts(m: int, succ) -> list:
    """count[mask]: the paths along succ on the positions in mask."""
    count = [0] * (1 << m)
    for i in range(m):
        _path(i, (1 << m) - 1 ^ 1 << i, succ, count)
    return count[::-1]


def _cycle_counts(m: int, succ, ones) -> list:
    """count[mask]: the cycles along succ on the positions in mask, with
    ones[i] cycles on i alone."""
    count = [0] * (1 << m)
    for i in range(m):
        low = 1 << i
        free = (1 << m) - 1 ^ low
        count[free] = ones[i]
        _cycle(low, i, free, [x & -low for x in succ], count)
    return count[::-1]


def _path(last, free, succ, count) -> None:
    """Stop the path at last, or extend it past last."""
    count[free] += 1
    for b, w in _BITS[succ[last] & free]:
        _path(w, free ^ b, succ, count)


def _cycle(start, last, free, succ, count) -> None:
    """Step from last to each free successor w: close the cycle if w has
    an edge back to start, and go on if w has a free successor."""
    for b, w in _BITS[succ[last] & free]:
        left = free ^ b
        s = succ[w]
        if s & start:
            count[left] += 1
        if s & left:
            _cycle(start, w, left, succ, count)


# ------------------------------------------------------------- serialization

def digraph_to_text(D: Digraph) -> str:
    lines = [str(D.n)] + [f"{u} {v}" for u, v in D.sorted_edges()]
    return "\n".join(lines) + "\n"


def digraph_from_text(text: str) -> Digraph:
    n = None
    edges = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            n = int(line)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {raw!r}")
        edges.append((int(parts[0]), int(parts[1])))
    if n is None:
        raise ValueError("missing vertex count line")
    return digraph(n, edges)


def digraph_to_json_dict(D: Digraph) -> dict:
    return {"n": D.n, "edges": [[u, v] for u, v in D.sorted_edges()]}


def digraph_from_json_dict(data: dict) -> Digraph:
    for key in ("n", "edges"):
        if key not in data:
            raise ValueError(f"digraph JSON lacks the key {key!r}")
    return digraph(data["n"], data["edges"])


def load_digraph(path: str) -> Digraph:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return digraph_from_json_dict(json.loads(text))
    return digraph_from_text(text)


def digraph_hash(D: Digraph) -> str:
    key = json.dumps(digraph_to_json_dict(D), sort_keys=True)
    return hashlib.sha256(key.encode()).hexdigest()[:16]
