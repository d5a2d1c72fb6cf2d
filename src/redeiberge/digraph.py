"""Digraphs on [n] with loops, and the enumerations built on them.

A digraph is a vertex count n together with a set of directed edges in
[n] x [n]; loops are allowed, antiparallel pairs are allowed, multiple
edges are not.  Vertices are labelled 1..n everywhere, including in
vertex subsets, which keep their original labels.

Path-cycle covers and permutations tied to edges are tallied by the set
of unplaced vertices: what is left once a component closes depends only
on that set, so it is tallied once per set, not once per cover or
permutation.  The component at the smallest unplaced vertex v is grown
by depth-first search, once per v over the vertices above it.  A cover's
component is a path, grown forward from v and then backward from v, or a
cycle closed back on v (a loop is a cycle of length 1); a permutation's
is v fixed or a cycle from v along the edges of D (or of its
complement).  Components are counted by their vertex set and a packed
code, one 4-bit count per component kind and length; the tally of a set
R adds each component inside R, through R's smallest vertex, to the
memoized tally of what it leaves, by adding codes.  The codes are
decoded once, at the end: covers come as a tally by (path partition,
cycle partition) and permutations by (cycle type, sign), all that U_D
and Chow's path-cycle functions read of them.
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
        for e in self.edges:
            if (
                not isinstance(e, tuple)
                or len(e) != 2
                or not all(type(v) is int and 1 <= v <= self.n for v in e)
            ):
                raise ValueError(f"edge {e!r} not inside [1, {self.n}]^2")

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


def _vertex_subset(D: Digraph, verts) -> list:
    """The sorted vertex subset (all of [n] when verts is None)."""
    if verts is None:
        return list(D.vertices())
    vs = sorted(set(verts))
    if not all(v in D.vertices() for v in vs):
        raise ValueError("vertex subset out of range")
    return vs


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
    D: Digraph, verts=None, allow_paths: bool = True, allow_cycles: bool = True
) -> Counter:
    """The covers of the vertex set by disjoint paths/cycles along edges of
    D, tallied by (path partition, cycle partition).

    Every vertex lies in exactly one component; singleton paths need no
    edges, so the all-singletons cover is always counted when paths are
    allowed.  The covers are tallied by the set of unplaced vertices (see
    the module docstring); the flags drop the path or the cycle branch.
    """
    vs = _vertex_subset(D, verts)
    guard("covers", len(vs), 8)
    at = {v: k for k, v in enumerate(vs)}
    # per position: out- and in-neighbours inside vs, as (bit, position)
    succ = [[(1 << at[w], at[w]) for w in D.out_neighbors(v) if w in at] for v in vs]
    pred = [[(1 << k, k) for k, u in enumerate(vs) if (u, v) in D.edges] for v in vs]
    # a path of length L counts in the 4-bit field L - 1, a cycle 32 bits up
    fields = [0] + [1 << 4 * k for k in range(len(vs))]
    ctx = (_cover_parts, succ, pred, allow_paths, allow_cycles, fields,
           [f << 32 for f in fields])
    tally = Counter()
    for code, c in _tally(len(vs), ctx).items():
        tally[_lengths(code & _LOW), _lengths(code >> 32)] += c
    return tally


def enumerate_path_covers(D: Digraph, verts=None) -> Counter:
    return enumerate_path_cycle_covers(D, verts, allow_cycles=False)


def enumerate_cycle_covers(D: Digraph, verts=None) -> Counter:
    return enumerate_path_cycle_covers(D, verts, allow_paths=False)


# ------------------------------------------------- permutations tied to edges

def perms_with_all_cycles_in(D: Digraph, verts=None) -> Counter:
    """Permutations of the vertex set whose nontrivial cycles are cycles of D.

    Fixed points are unconstrained; the permutations come tallied by
    (cycle type, sign), as `_perms_with_cycles_along` builds them."""
    vs = _vertex_subset(D, verts)
    guard("perms", len(vs), 8)
    return _perms_with_cycles_along(vs, [D.edges])


def perms_with_cycles_in_either(D: Digraph, verts=None) -> Counter:
    """Permutations whose nontrivial cycles are each a cycle of D or of its
    complement; fixed points are unconstrained.  Tallied by (cycle type,
    sign); the sign twists only the cycles of D."""
    vs = _vertex_subset(D, verts)
    guard("perms", len(vs), 8)
    return _perms_with_cycles_along(vs, [D.edges, set(product(vs, repeat=2)) - D.edges])


def _perms_with_cycles_along(vs: list, edge_sets) -> Counter:
    """The permutations of vs whose nontrivial cycles each run along the
    edges of one of edge_sets, tallied by (cycle type, sign).

    The component at the smallest unplaced vertex is that vertex fixed or
    a cycle grown from it along one edge set (see the module docstring).
    A k-cycle counts in the 4-bit field k - 1, and an even cycle along
    edge_sets[0] also adds 1 at bit 32: the parity there is that of phi,
    the sum of length - 1 over those cycles, and the sign is (-1)^phi.
    """
    fields = [0] + [1 << 4 * k for k in range(len(vs))]
    # per edge set: successors (bit, position) without loops, and the code
    # of a cycle by its length
    walks = [
        ([[(1 << j, j) for j, v in enumerate(vs) if j != i and (u, v) in edges]
          for i, u in enumerate(vs)],
         [f | (t == 0 and k % 2 == 0) << 32 for k, f in enumerate(fields)])
        for t, edges in enumerate(edge_sets)
    ]
    tally = Counter()
    for code, c in _tally(len(vs), (_perm_parts, walks)).items():
        tally[_lengths(code & _LOW), -1 if code >> 32 & 1 else 1] += c
    return tally


# ------------------------------------------------- tallies by unplaced set

# Both enumerators run through _tally.  Positions index the sorted vertex
# subset, and a set of positions is a bitmask.  ctx is (grow, ...):
# grow(i, placed, parts, ctx) counts each component through position i
# that avoids the positions in placed as parts[used, code], used adding
# the component's positions to placed and code being its packed lengths.
# The steps are module functions, not closures: closures that call each
# other form a reference cycle that would keep the memo alive until the
# cycle collector runs.

_LOW = (1 << 32) - 1  # covers' paths and permutations' cycles; the rest above


def _tally(m: int, ctx) -> dict:
    """The packed codes of the objects on m positions, with their counts."""
    memo = {0: {0: 1}}
    full = (1 << m) - 1
    return _tally_rest(full, [None] * m, memo, ctx) if m else memo[0]


def _tally_rest(rest, starts, memo, ctx) -> dict:
    """The tally on the unplaced positions rest, memoized.

    The components through rest's lowest position i are grown once per i,
    over every position from i up (starts[i] holds them as (mask, code,
    count)); those inside rest are combined with the tally of the
    positions they leave by adding codes.
    """
    low = rest & -rest
    i = low.bit_length() - 1
    parts = starts[i]
    if parts is None:
        found: dict = {}
        ctx[0](i, low - 1 | low, found, ctx)
        parts = starts[i] = [(used ^ low - 1, code, c)
                             for (used, code), c in found.items()]
    tally: dict = {}
    for mask, code, c in parts:
        if mask | rest != rest:
            continue
        left = rest ^ mask
        sub = memo.get(left)
        if sub is None:
            sub = _tally_rest(left, starts, memo, ctx)
        for code2, c2 in sub.items():
            key = code + code2
            tally[key] = tally.get(key, 0) + c * c2
    memo[rest] = tally
    return tally


@lru_cache(maxsize=None)  # its codes are those of the 67 partitions of 0..8
def _lengths(code: int) -> tuple:
    """The partition with as many parts k as 4-bit field k - 1 of code."""
    return tuple(k for k in range(8, 0, -1) for _ in range(code >> 4 * (k - 1) & 15))


def _cover_parts(i, placed, parts, ctx) -> None:
    """The paths through i, grown forward then backward, and the cycles."""
    if ctx[3]:
        _forward(i, i, placed, 1, parts, ctx)
    if ctx[4]:
        _cycle(i, i, placed, 1, ctx[1], ctx[6], parts)


def _perm_parts(i, placed, parts, ctx) -> None:
    """i fixed, and the cycles from i along each edge set."""
    parts[placed, 1] = 1
    for succ, codes in ctx[1]:
        _cycle(i, i, placed, 1, succ, codes, parts)


def _forward(first, last, used, length, parts, ctx) -> None:
    """Stop the path at last and grow it backward, or extend it past last."""
    _backward(first, used, length, parts, ctx)
    for b, w in ctx[1][last]:
        if not used & b:
            _forward(first, w, used | b, length + 1, parts, ctx)


def _backward(first, used, length, parts, ctx) -> None:
    """Finish the path at first, or extend it before first."""
    key = used, ctx[5][length]
    parts[key] = parts.get(key, 0) + 1
    for b, u in ctx[2][first]:
        if not used & b:
            _backward(u, used | b, length + 1, parts, ctx)


def _cycle(start, last, used, length, succ, codes, parts) -> None:
    """Extend the cycle from start past last, or close it back on start."""
    for b, w in succ[last]:
        if not used & b:
            _cycle(start, w, used | b, length + 1, succ, codes, parts)
        elif w == start:
            key = used, codes[length]
            parts[key] = parts.get(key, 0) + 1


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
