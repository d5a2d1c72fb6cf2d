"""Digraphs on [n] with loops, and the enumerations built on them.

A digraph is a vertex count n together with a set of directed edges in
[n] x [n]; loops are allowed, antiparallel pairs are allowed, multiple
edges are not.  Vertices are labelled 1..n everywhere, including in
vertex subsets, which keep their original labels.

Path-cycle covers and permutations tied to edges are both built one
component at a time from the smallest unplaced vertex v, so no finished
cover or permutation is built twice or rejected.  A cover's component at
v is a path, grown forward from v and then backward from v, or a cycle,
grown through unplaced vertices and closed back on v (a loop is a cycle
of length 1).  Only the component lengths are kept: the covers come as
a tally by (path partition, cycle partition), all that U_D and Chow's
path-cycle functions read of a cover.
Permutations whose nontrivial cycles all follow edges of D, or each
follow edges of D or of its complement, fix v or grow a cycle from it
(`_perms_with_cycles_along`); the last two unplaced vertices are placed
in one step, fixed and then swapped if a table of the 2-cycles (pair)
holds them.  Each comes as one record: its images, its cycle lengths and
its sign, the last two set as each cycle closes.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass
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
    allowed.  Each cover is built once, one component at a time (see
    the module docstring); the flags drop the path or the cycle branch.
    """
    vs = _vertex_subset(D, verts)
    guard("covers", len(vs), 8)
    bit = {v: 1 << k for k, v in enumerate(vs)}
    # per vertex: out- and in-neighbours inside vs, as (bit, vertex)
    succ = {v: [(bit[w], w) for w in D.out_neighbors(v) if w in bit] for v in vs}
    pred = {v: [(bit[u], u) for u in vs if (u, v) in D.edges] for v in vs}
    raw: dict = {}
    ctx = ((1 << len(vs)) - 1, vs, succ, pred, allow_paths, allow_cycles, raw)
    _cover(0, (), (), ctx)
    tally = Counter()
    for lens, c in raw.items():
        tally[tuple(tuple(sorted(k, reverse=True)) for k in lens)] += c
    return tally


# The steps of both generators are module functions, not closures: closures
# that call each other form a reference cycle that would keep `raw` or `out`
# alive until the cycle collector runs.  Here ctx is (full, vs, succ, pred,
# allow_paths, allow_cycles, raw); used is the bitmask of placed positions
# in vs; paths and cycles hold the lengths of the finished components in
# the order they were built, and raw counts the finished covers by them.

def _cover(used, paths, cycles, ctx) -> None:
    full, vs, succ, pred, allow_paths, allow_cycles, raw = ctx
    if used == full:
        key = (paths, cycles)
        raw[key] = raw.get(key, 0) + 1
        return
    low = ~used & (used + 1)
    v = vs[low.bit_length() - 1]
    if allow_paths:
        _forward(v, 1, v, used | low, paths, cycles, ctx)
    if allow_cycles:
        _cycle(v, 1, v, used | low, paths, cycles, ctx)


def _forward(first, length, last, used, paths, cycles, ctx) -> None:
    """Stop the path at last and grow it backward, or extend it past last."""
    _backward(first, length, used, paths, cycles, ctx)
    for b, w in ctx[2][last]:
        if not used & b:
            _forward(first, length + 1, w, used | b, paths, cycles, ctx)


def _backward(first, length, used, paths, cycles, ctx) -> None:
    """Finish the path at first, or extend it before first."""
    _cover(used, paths + (length,), cycles, ctx)
    for b, u in ctx[3][first]:
        if not used & b:
            _backward(u, length + 1, used | b, paths, cycles, ctx)


def _cycle(start, length, last, used, paths, cycles, ctx) -> None:
    for b, w in ctx[2][last]:
        if not used & b:
            _cycle(start, length + 1, w, used | b, paths, cycles, ctx)
        elif w == start:
            _cover(used, paths, cycles + (length,), ctx)


def enumerate_path_covers(D: Digraph, verts=None) -> Counter:
    return enumerate_path_cycle_covers(D, verts, allow_cycles=False)


def enumerate_cycle_covers(D: Digraph, verts=None) -> Counter:
    return enumerate_path_cycle_covers(D, verts, allow_paths=False)


# ------------------------------------------------- permutations tied to edges

def perms_with_all_cycles_in(D: Digraph, verts=None) -> list:
    """Permutations of the vertex set whose nontrivial cycles are cycles of D.

    Fixed points are unconstrained; one record per permutation, as
    `_perms_with_cycles_along` builds them."""
    vs = _vertex_subset(D, verts)
    guard("perms", len(vs), 8)
    return _perms_with_cycles_along(vs, [D.edges])


def perms_with_cycles_in_either(D: Digraph, verts=None) -> list:
    """Permutations whose nontrivial cycles are each a cycle of D or of its
    complement; fixed points are unconstrained.  One record per
    permutation; its sign twists only the cycles of D."""
    vs = _vertex_subset(D, verts)
    guard("perms", len(vs), 8)
    return _perms_with_cycles_along(vs, [D.edges, complement(D).edges])


def _perms_with_cycles_along(vs: list, edge_sets) -> list:
    """Records (images, lengths, sign) of the permutations of vs whose
    nontrivial cycles each run along the edges of one of edge_sets.

    The smallest unplaced vertex is either fixed or starts a cycle that
    grows through unplaced vertices along one digraph's edges and closes
    back on it; the last two, i < j, are fixed, then swapped if pair[i][j],
    the sign step of the edge set holding both i -> j and j -> i, is not 0.
    images[k] is the image of vs[k]; lengths lists the cycle lengths in
    the order of each cycle's smallest vertex, a fixed point as 1; sign is
    (-1)^phi, phi summing length - 1 over the cycles of edge_sets[0].
    """
    m = len(vs)
    if not m:
        return [((), (), 1)]
    # per edge set: the sign step per cycle vertex, successors (bit, index, image)
    succs, pair = [], [[0] * m for _ in range(m)]
    for t, edges in enumerate(edge_sets):
        step = -1 if t == 0 else 1
        succ = [[(1 << j, j, v) for j, v in enumerate(vs)
                 if j != i and (u, v) in edges] for i, u in enumerate(vs)]
        succs.append((step, succ))
        for i, row in enumerate(succ):
            for _, j, v in row:
                if (v, vs[i]) in edges:
                    pair[i][j] = step
    out: list = []
    _place(0, 1, (), ((1 << m) - 1, vs, succs, pair, list(vs), out))
    return out


# ctx is (full, vs, succs, pair, img, out); used is the bitmask of placed
# indices; img[k] is the image of vs[k] once k is placed.

def _place(used, sign, lens, ctx) -> None:
    full, vs, succs, pair, img, out = ctx
    rest = full ^ used
    i = (rest & -rest).bit_length() - 1
    img[i] = vs[i]
    rest &= rest - 1
    if not rest:
        out.append((tuple(img), lens + (1,), sign))
    elif not rest & (rest - 1):  # i and j are the last two
        j = rest.bit_length() - 1
        img[j] = vs[j]
        out.append((tuple(img), lens + (1, 1), sign))
        if pair[i][j]:
            img[i], img[j] = vs[j], vs[i]
            out.append((tuple(img), lens + (2,), sign * pair[i][j]))
    else:
        _place(full ^ rest, sign, lens + (1,), ctx)
        for step, succ in succs:
            _grow(i, i, full ^ rest, 1, sign, step, succ, lens, ctx)


def _grow(start, last, used, length, sign, step, succ, lens, ctx) -> None:
    for bit, w, image in succ[last]:
        if not used & bit:
            ctx[4][last] = image
            _grow(start, w, used | bit, length + 1, sign * step, step, succ, lens, ctx)
        elif w == start:
            ctx[4][last] = image
            if used == ctx[0]:
                ctx[5].append((tuple(ctx[4]), lens + (length,), sign))
            else:
                _place(used, sign, lens + (length,), ctx)


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
