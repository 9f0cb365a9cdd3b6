"""Cayley graphs, exact chromatic numbers, component classification,
and the constructive bridges between colorings and avoiding subgroups.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .fpgroup import DualVec, FpVec, Subgroup, chunk_slices
from .setops import VecSet

INFINITE = float("inf")

# A coloring is the color, counted from 1, of each vertex in vertex order:
# graph vertex v sits at index v, hypergraph vertex v at index v - 1.  A
# partition is a coloring in restricted-growth form, its cells numbered by
# their least vertex.
Coloring = tuple[int, ...]


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices 0..n-1 with optional self-loops."""

    n: int
    adj: tuple[frozenset[int], ...]
    self_loops: frozenset[int] = frozenset()

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        adj = [set() for _ in range(n)]
        loops = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u == v:
                loops.add(u)
            else:
                adj[u].add(v)
                adj[v].add(u)
        return cls(n, tuple(frozenset(s) for s in adj), frozenset(loops))

    def edges(self) -> list[tuple[int, int]]:
        out = [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]
        out.extend((u, u) for u in sorted(self.self_loops))
        return sorted(out)

    @property
    def has_self_loop(self) -> bool:
        return bool(self.self_loops)


@dataclass(frozen=True)
class CayleyGraph:
    """Cay(V, S): vertices V, with g ~ g' iff g - g' or g' - g lies in S."""

    vertices: VecSet
    connection: VecSet
    graph: Graph

    @property
    def has_self_loop(self) -> bool:
        return self.graph.has_self_loop


def build_cayley(V: VecSet, S: VecSet) -> CayleyGraph:
    """Build Cay(V, S) with deterministic (sorted) vertex order.

    Every vertex x is probed at x + s for each nonzero s in S and -S by
    V.positions, a binary search of V's byte keys, a chunk of vertices at a
    time: |V| * |S u -S| binary searches.  As S u -S is symmetric, row x of
    the probe matrix holds every neighbour of x, so it is x's adjacency.
    """
    if V.p != S.p or V.n != S.n:
        raise ValueError("vertex set and connection set live in different groups")
    p, n, X = V.p, V.n, V.rows()
    loops = frozenset(range(len(V))) if S.contains_zero() else frozenset()
    shifts = S.rows()[S.rows().any(axis=1)]
    D = VecSet.from_rows(p, n, np.concatenate([shifts, (p - shifts) % p])).rows()
    if not len(D):  # n = 0, or S holds no nonzero shift
        return CayleyGraph(V, S, Graph(len(V), (frozenset(),) * len(V), loops))
    adj: list[frozenset[int]] = []
    for sl in chunk_slices(len(X), len(D) * n):
        # Every entry of x + s lies in [0, 2p - 2] <= 60, so uint8 holds it,
        # and y - p wraps to 225 or more exactly when y < p: the minimum is y mod p.
        Y = X[sl, None] + D
        np.minimum(Y, Y - np.uint8(p), out=Y)
        j = V.positions(Y)
        hit = j >= 0
        cols = j[hit].tolist()
        ends = np.cumsum(hit.sum(axis=1)).tolist()
        adj.extend(frozenset(cols[a:b]) for a, b in zip([0] + ends, ends))
    return CayleyGraph(V, S, Graph(len(V), tuple(adj), loops))


def _as_graph(g: Graph | CayleyGraph) -> Graph:
    return g.graph if isinstance(g, CayleyGraph) else g


def _greedy_clique(g: Graph) -> list[int]:
    """Greedy clique, highest-degree-first with lowest-index tie break."""
    order = sorted(range(g.n), key=lambda v: (-len(g.adj[v]), v))
    clique: list[int] = []
    cands = set(range(g.n))  # the vertices adjacent to every clique member
    for v in order:
        if v in cands:
            clique.append(v)
            cands &= g.adj[v]
    return clique


def _dsatur_colorings(g: Graph, cap: int) -> Iterator[Coloring]:
    """DSATUR branch and bound (Brelaz 1979): yield proper colorings of g with
    at most cap colors, each with fewer colors than the one before.

    The search branches on the most saturated uncolored vertex, ties broken by
    higher degree, then lower index, and tries colors in ascending order, a
    vertex opening at most one new color.  The first leaf is the DSATUR
    heuristic's coloring.  After a leaf with k colors the cap drops to k - 1
    and the search backs up past the vertex that opened color k, so each later
    leaf is the first leaf of the search with that cap from the root.
    """
    n = g.n
    by_rank = sorted(range(n), key=lambda v: (len(g.adj[v]), -v))
    rank = [0] * n
    for i, v in enumerate(by_rank):
        rank[v] = i
    # key[v] = |sat[v]| * n + rank[v] for an uncolored vertex, -1 once colored:
    # the uncolored vertex to branch on is the one with the largest key.  A
    # key names its vertex, by_rank[key % n].  The heap holds -k for every key
    # k a vertex has had; an entry is live while k is still its vertex's key,
    # and dead entries are popped when they reach the top.
    key = rank[:]
    heap = [-k for k in key]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    sat: list[set[int]] = [set() for _ in range(n)]
    colors = [0] * n
    # One frame per colored vertex: the vertex, the number of colors in use
    # before it, and its neighbors whose saturation its color raised.
    stack: list[tuple[int, int, list[int]]] = []
    v, used = by_rank[-1], 0
    while True:
        c = colors[v] + 1
        top = min(used + 1, cap)
        while c <= top and c in sat[v]:
            c += 1
        if c <= top:
            colors[v], key[v] = c, -1
            touched = [u for u in g.adj[v] if key[u] >= 0 and c not in sat[u]]
            for u in touched:
                sat[u].add(c)
                key[u] += n
                push(heap, -key[u])
            stack.append((v, used, touched))
            used = max(used, c)
            while heap and key[by_rank[-heap[0] % n]] != -heap[0]:
                pop(heap)
            if heap:
                v = by_rank[-heap[0] % n]
                colors[v] = 0
                continue
            yield tuple(colors)
            cap = used - 1
        # Back up to the deepest vertex whose predecessors use at most cap colors.
        while True:
            if not stack:
                return
            v, used, touched = stack.pop()
            for u in touched:
                sat[u].discard(colors[v])
                key[u] -= n
                push(heap, -key[u])
            key[v] = len(sat[v]) * n + rank[v]
            push(heap, -key[v])
            if used <= cap:
                break
        if len(heap) > 4 * n:  # drop dead entries, so they cannot pile up
            heap = [-k for k in key if k >= 0]
            heapq.heapify(heap)


def chromatic_number_exact(
    g: Graph | CayleyGraph, max_colors: int | None = None
) -> tuple[int | float, Coloring | None]:
    """Exact chromatic number plus one optimal coloring.

    Returns (INFINITE, None) when the graph has a self-loop.  With max_colors
    set, returns (max_colors + 1, None) as a ">max_colors" marker if no
    coloring within the cap exists.  The search stops early once a coloring
    matches the size of a greedy clique.
    """
    graph = _as_graph(g)
    if graph.has_self_loop:
        return INFINITE, None
    if graph.n == 0:
        return 0, ()
    lb = max(1, len(_greedy_clique(graph)))
    if max_colors is not None and lb > max_colors:
        return max_colors + 1, None
    best = None
    for best in _dsatur_colorings(graph, graph.n if max_colors is None else max_colors):
        if max(best) <= lb:
            break
    if best is None:
        return max_colors + 1, None
    return max(best), best


def chromatic_number_bruteforce(g: Graph | CayleyGraph) -> int | float:
    """Oracle: smallest r admitting a proper coloring, by chronological
    enumeration of color assignments with no heuristics or bounds."""
    graph = _as_graph(g)
    if graph.has_self_loop:
        return INFINITE
    if graph.n == 0:
        return 0
    edges = [(u, v) for u, v in graph.edges() if u != v]
    for r in range(1, graph.n + 1):
        stack = [()]
        while stack:
            partial = stack.pop()
            v = len(partial)
            if v == graph.n:
                return r
            # Symmetry break: vertex v may only open one new color.
            cap = min(r, max(partial, default=0) + 1)
            for c in range(cap, 0, -1):
                if all(partial[u] != c for u in graph.adj[v] if u < v):
                    stack.append(partial + (c,))
    return graph.n


def components_classify(g: Graph | CayleyGraph) -> list[tuple[str, tuple[int, ...]]]:
    """Classify each connected component: singleton, single-edge, path, or other."""
    graph = _as_graph(g)
    seen = [False] * graph.n
    out: list[tuple[str, tuple[int, ...]]] = []
    for start in range(graph.n):
        if seen[start]:
            continue
        comp = [start]
        seen[start] = True
        queue = [start]
        while queue:
            v = queue.pop()
            for u in graph.adj[v]:
                if not seen[u]:
                    seen[u] = True
                    comp.append(u)
                    queue.append(u)
        comp.sort()
        out.append((_classify_component(graph, comp), tuple(comp)))
    return out


def _classify_component(graph: Graph, comp: list[int]) -> str:
    if any(v in graph.self_loops for v in comp):
        return "other(self-loop)"
    n_edges = sum(len(graph.adj[v]) for v in comp) // 2
    max_deg = max(len(graph.adj[v]) for v in comp)
    if len(comp) == 1:
        return "singleton"
    if len(comp) == 2 and n_edges == 1:
        return "single-edge"
    if max_deg <= 2:
        if n_edges == len(comp) - 1:
            return "path"
        return "other(cycle)"
    return "other(branching)"


@dataclass(frozen=True)
class Hypergraph:
    """Vertices 1..N and edges in one canonical order: the sorted tuple of
    the distinct edges, each the sorted tuple of its vertices, so equal
    hypergraphs iterate their edges alike."""

    n: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"vertex count must be >= 0, got {self.n}")
        edges = tuple(sorted({tuple(sorted(set(e))) for e in self.edges}))
        for e in edges:
            if not e or not (1 <= e[0] and e[-1] <= self.n):
                raise ValueError(f"edge {list(e)} not inside [1, {self.n}]")
        object.__setattr__(self, "edges", edges)

    @classmethod
    def from_edge_lists(cls, n: int, edges: Iterable[Iterable[int]]) -> Hypergraph:
        return cls(n, edges)


def _monochromatic(labels: np.ndarray, edges: Sequence[Sequence[int]]) -> np.ndarray:
    """The one monochromatic-edge check: per row of labels (vertex v's label in
    column v - 1), the index of the first edge whose vertices all share a
    label, or -1 if there is none."""
    first = np.full(len(labels), -1)
    if not edges:
        return first
    width = max(map(len, edges))
    # Padding an edge with its own first vertex leaves "all labels equal" as is.
    idx = np.array([[v - 1 for v in e] + [e[0] - 1] * (width - len(e)) for e in edges])
    for rows in chunk_slices(len(labels), idx.size):
        L = labels[rows][:, idx]
        mono = (L == L[:, :, :1]).all(axis=2)
        first[rows] = np.where(mono.any(axis=1), mono.argmax(axis=1), -1)
    return first


def proper_partitions(hg: Hypergraph, r: int) -> Iterator[Coloring]:
    """Every partition of [1, N] into at most r cells with no monochromatic
    edge, in restricted-growth order: backtracking on an explicit stack over
    vertex colors with new-color symmetry breaking, each edge checked once its
    last vertex has a color."""
    if any(len(e) == 1 for e in hg.edges):
        return
    by_last: dict[int, list[list[int]]] = {}
    for e in hg.edges:
        *rest, last = (v - 1 for v in e)
        by_last.setdefault(last, []).append(rest)
    colors: list[int] = []
    used = [0]  # used[v]: the largest color among colors[:v]
    c = 1  # the next color to try at vertex len(colors)
    while True:
        v = len(colors)
        if v < hg.n and c <= min(used[v] + 1, r):
            if all(any(colors[u] != c for u in rest) for rest in by_last.get(v, ())):
                colors.append(c)
                used.append(max(used[v], c))
                c = 1
            else:
                c += 1
            continue
        if v == hg.n:
            yield tuple(colors)
        if not colors:
            return
        used.pop()
        c = colors.pop() + 1


def find_proper_partition(hg: Hypergraph, r: int) -> Coloring | None:
    """The first of proper_partitions(hg, r), or None."""
    return next(proper_partitions(hg, r), None)


def hypergraph_chromatic(hg: Hypergraph) -> int:
    """Exact minimum number of cells such that no edge is monochromatic."""
    if any(len(e) == 1 for e in hg.edges):
        raise ValueError("singleton edge makes the hypergraph uncolorable")
    if not hg.edges:
        return min(hg.n, 1)
    for r in range(1, hg.n + 1):
        if find_proper_partition(hg, r) is not None:
            return r
    raise AssertionError("a hypergraph with edges of size >= 2 is N-colorable")


def hypergraph_chromatic_bruteforce(hg: Hypergraph) -> int:
    """Oracle: enumerate all color assignments outright."""
    if not hg.edges:
        return min(hg.n, 1)
    for r in range(1, hg.n + 1):
        for assignment in itertools.product(range(1, r + 1), repeat=hg.n):
            if all(len({assignment[v - 1] for v in e}) > 1 for e in hg.edges):
                return r
    raise AssertionError("unreachable for edges of size >= 2")


def coloring_to_avoiding_subgroup(coloring: Coloring, fam: Hypergraph, p: int) -> Subgroup:
    """Build the subgroup cut out by the cell-sum characters of a proper coloring.

    The annihilator sums the coordinates of each color class, classes ordered
    by their least vertex.  For p-uniform families a proper coloring
    guarantees the subgroup avoids the family's indicator vectors; edge sizes
    must at least be divisible by p.
    """
    if len(coloring) != fam.n:
        raise ValueError(f"coloring has {len(coloring)} colors for N={fam.n} vertices")
    for e in fam.edges:
        if len(e) % p != 0:
            raise ValueError(f"edge {list(e)} has size not divisible by p={p}")
    bad = _monochromatic(np.array([coloring]), fam.edges)[0]
    if bad >= 0:
        raise ValueError(f"edge {list(fam.edges[bad])} is monochromatic under the coloring")
    rows = [DualVec(p, tuple(int(c == j) for c in coloring)) for j in dict.fromkeys(coloring)]
    return Subgroup.from_dual_vectors(rows, p=p, n=fam.n)


def characters_to_coloring(rows: Sequence[Sequence[int]], N: int) -> Coloring:
    """Partition [1, N] by the joint character values on the basis vectors.

    rows are the characters' coordinates, such as an annihilator's rows; the
    key of vertex v is column v, and cells are numbered by their least vertex.
    """
    if not rows:
        raise ValueError("need at least one character")
    if any(len(row) < N for row in rows):
        raise ValueError(f"character dimension smaller than N={N}")
    label: dict[tuple[int, ...], int] = {}
    return tuple(label.setdefault(key, len(label) + 1) for _, key in zip(range(N), zip(*rows)))


def verify(witness, against) -> tuple[bool, object]:
    """Validate a coloring against a (hyper)graph or a subgroup against a set.

    Returns (True, None) or (False, counterexample): an edge (u, v) of a
    graph, the first monochromatic hypergraph edge in edge order as a
    sorted list, or a point of the set.
    """
    if isinstance(against, Hypergraph):
        if len(witness) != against.n:
            raise ValueError("coloring does not cover the vertex set")
        bad = _monochromatic(np.array([witness]), against.edges)[0]
        return (True, None) if bad < 0 else (False, list(against.edges[bad]))
    if isinstance(against, VecSet):
        if (getattr(witness, "p", None), getattr(witness, "n", None)) != (against.p, against.n):
            raise ValueError(f"witness is not a subgroup of F_{against.p}^{against.n}")
        # The first point, in set order, that the annihilator sends to 0.
        A = np.array(witness.annihilator.entries, dtype=np.int64).reshape(witness.codim, against.n)
        X = against.rows()
        first = X[~(X @ A.T % against.p).any(axis=1)][:1].tolist()
        return (False, FpVec(against.p, tuple(first[0]))) if first else (True, None)
    if isinstance(against, (Graph, CayleyGraph)):
        graph = _as_graph(against)
        if len(witness) != graph.n:
            raise ValueError("coloring does not cover the vertex set")
        # Every edge (u, v), u < v, from the neighbour arrays, checked at once.
        # The counterexample is the least in edges() order, keyed u * n + v,
        # self-loops included; no edge has a key of n * n or more.
        n = graph.n
        deg = np.fromiter(map(len, graph.adj), dtype=np.intp, count=n)
        v = np.fromiter(itertools.chain.from_iterable(graph.adj), dtype=np.intp, count=deg.sum())
        u = np.repeat(np.arange(n), deg)
        colors = np.asarray(witness)
        bad = (u < v) & (colors[u] == colors[v])
        key = min(
            int((u[bad] * n + v[bad]).min(initial=n * n)),
            min(graph.self_loops, default=n) * (n + 1),
        )
        return (True, None) if key == n * n else (False, divmod(key, n))
    raise ValueError(f"cannot verify against {type(against).__name__}")
