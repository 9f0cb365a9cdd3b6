"""Generators for the concrete sets and families the experiments target,
plus the encoding between F_2^(W*W) and finite subsets of a W x W lattice
window under symmetric difference.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .fpgroup import FpVec, chunk_slices
from .colorings import Hypergraph
from .setops import VecSet


@dataclass(frozen=True)
class LatticeWindow:
    """The W x W grid of lattice points (row, col), 1-based."""

    W: int

    def __post_init__(self):
        if self.W < 2:
            raise ValueError(f"window side must be >= 2, got {self.W}")

    def index_of(self, point: tuple[int, int]) -> int:
        """Row-major bijection b: point -> index in [1, W^2]."""
        r, c = point
        if not (1 <= r <= self.W and 1 <= c <= self.W):
            raise ValueError(f"point {point} outside the {self.W}x{self.W} window")
        return (r - 1) * self.W + c

    def point_at(self, i: int) -> tuple[int, int]:
        if not 1 <= i <= self.W * self.W:
            raise ValueError(f"index {i} outside [1, {self.W * self.W}]")
        return ((i - 1) // self.W + 1, (i - 1) % self.W + 1)


@dataclass(frozen=True)
class FinSet:
    """A finite set of lattice points inside a window; group op is symmetric
    difference."""

    W: int
    points: frozenset[tuple[int, int]]

    def __post_init__(self):
        win = LatticeWindow(self.W)
        for pt in self.points:
            win.index_of(pt)

    def __xor__(self, other: FinSet) -> FinSet:
        if self.W != other.W:
            raise ValueError("window size mismatch")
        return FinSet(self.W, self.points ^ other.points)


def weight_d_set(p: int, n: int, d: int) -> VecSet:
    """All 0/1 vectors of weight d in F_p^n: the indicator vectors e_F, |F| = d."""
    if not 0 < d <= n:
        raise ValueError(f"d={d} out of range (0, {n}]")
    # The supports, or for d > n/2 their complements flipped after, fill X a
    # chunk of rows at a time, so no index array or tuple list of all
    # C(n, d) * min(d, n - d) filled entries is ever held.
    size = min(d, n - d)
    filled = itertools.combinations(range(n), size)
    X = np.zeros((math.comb(n, d), n), dtype=np.uint8)
    for sl in chunk_slices(len(X), size):
        rows = X[sl]
        flat = itertools.chain.from_iterable(itertools.islice(filled, len(rows)))
        idx = np.fromiter(flat, dtype=np.intp, count=len(rows) * size).reshape(len(rows), size)
        rows[np.arange(len(rows))[:, None], idx] = 1
    if size < d:
        X ^= 1
    return VecSet.from_rows(p, n, X)


def e_of(F: Iterable[int], p: int, n: int) -> FpVec:
    """The indicator vector e_F = sum of e_v over v in F (1-based vertices)."""
    coords = [0] * n
    for v in F:
        if not 1 <= v <= n:
            raise ValueError(f"vertex {v} outside [1, {n}]")
        coords[v - 1] = (coords[v - 1] + 1) % p
    return FpVec(p, tuple(coords))


def family_indicator_set(fam: Hypergraph, p: int) -> VecSet:
    """{e_F : F an edge of fam} inside F_p^N."""
    # Hypergraph keeps every vertex of an edge inside [1, N], once.
    X = np.zeros((len(fam.edges), fam.n), dtype=np.uint8)
    sizes = [len(e) for e in fam.edges]
    X[np.repeat(np.arange(len(sizes)), sizes), [v - 1 for e in fam.edges for v in e]] = 1
    return VecSet.from_rows(p, fam.n, X)


def ap3_hypergraph(N: int) -> Hypergraph:
    """All 3-term arithmetic progressions {n, n+d, n+2d} inside [1, N]."""
    if N < 3:
        raise ValueError(f"N must be >= 3, got {N}")
    edges = []
    for n in range(1, N + 1):
        for d in range(1, (N - n) // 2 + 1):
            edges.append({n, n + d, n + 2 * d})
    return Hypergraph.from_edge_lists(N, edges)


def gallai_square_hypergraph(W: int) -> Hypergraph:
    """Axis-parallel square vertex sets inside a W x W window, as 4-edges on
    the row-major vertex numbering."""
    win = LatticeWindow(W)
    edges = []
    for n in range(1, W + 1):
        for m in range(1, W + 1):
            for d in range(1, W - max(n, m) + 1):
                square = [(n, m), (n + d, m), (n, m + d), (n + d, m + d)]
                edges.append({win.index_of(pt) for pt in square})
    return Hypergraph.from_edge_lists(W * W, edges)


def s_square_set(W: int) -> tuple[FinSet, ...]:
    """The same squares as gallai_square_hypergraph, as 4-point group elements."""
    win = LatticeWindow(W)
    out = []
    for e in gallai_square_hypergraph(W).edges:
        out.append(FinSet(W, frozenset(win.point_at(i) for i in e)))
    return tuple(out)


def fin_encode(x: FpVec, W: int) -> FinSet:
    """phi(x): the set of window points at the row-major support positions."""
    if x.p != 2:
        raise ValueError("encoding is defined for p = 2 only")
    if x.n > W * W:
        raise ValueError(f"support dimension {x.n} exceeds window size {W * W}")
    win = LatticeWindow(W)
    pts = frozenset(win.point_at(i + 1) for i, c in enumerate(x.coords) if c != 0)
    return FinSet(W, pts)


def fin_decode(fs: FinSet) -> FpVec:
    """Inverse of fin_encode, onto F_2^(W*W)."""
    win = LatticeWindow(fs.W)
    n = fs.W * fs.W
    coords = [0] * n
    for pt in fs.points:
        coords[win.index_of(pt) - 1] = 1
    return FpVec(2, tuple(coords))


def square_connection_set(W: int) -> VecSet:
    """The indicator vectors in F_2^(W*W) of the squares of the W x W window:
    the connection set of the square Cayley graph, S_square(W) decoded."""
    return family_indicator_set(gallai_square_hypergraph(W), 2)


def fin2_vertices(W: int) -> VecSet:
    """All 2-element subsets of the window, as weight-2 vectors in F_2^(W*W)."""
    return weight_d_set(2, W * W, 2)
