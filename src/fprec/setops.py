"""Set operators on finite subsets of F_p^n.

Difference sets, d-fold sumsets with distinct summands, and
preimage-intersection constructions.  The two kernels, distinct_differences
and distinct_sumsets, take many point sets at once and return one boolean
row per set over F_p^n in lex order (fpgroup.lex_index); difference_set and
dfold_distinct_sumset pass them one VecSet, and every VecSet is canonically
sorted and duplicate-free.
"""

from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .fpgroup import (
    FpVec,
    check_order,
    check_prime,
    chunk_slices,
    lex_coords,
    lex_index,
)


@dataclass(frozen=True, eq=False)
class VecSet:
    """A duplicate-free set of vectors of F_p^n, stored as its coordinate
    rows: one read-only (m, n) uint8 array in lex order, which is byte order
    as p <= 31, so each row is also a fixed-width byte key.

    VecSet(p, n, vectors) takes FpVec elements; VecSet.from_rows(p, n, X)
    takes an (m, n) integer array of coordinates in [0, p).  Either may hold
    repeats and come in any order.
    """

    p: int
    n: int
    vectors: InitVar[Iterable[FpVec] | np.ndarray]

    def __post_init__(self, vectors):
        check_prime(self.p)
        if isinstance(vectors, np.ndarray):
            X = vectors
            if X.ndim != 2 or X.shape[1] != self.n or X.dtype.kind not in "iu":
                raise ValueError(
                    f"rows of {X.dtype} and shape {X.shape} are not vectors of F_{self.p}^{self.n}"
                )
            if X.size and (X.min() < 0 or X.max() >= self.p):
                raise ValueError(f"row entries must lie in [0, {self.p - 1}]")
        else:
            vecs = tuple(vectors)
            for v in vecs:
                if v.p != self.p or v.n != self.n:
                    raise ValueError(
                        f"element (p={v.p}, n={v.n}) does not match set (p={self.p}, n={self.n})"
                    )
            X = np.array([v.coords for v in vecs], dtype=np.uint8).reshape(len(vecs), self.n)
        X = np.ascontiguousarray(X, dtype=np.uint8)
        if self.n == 0:
            X = X[:1].copy()  # F_p^0 has one point, the empty vector
        else:
            # A stable sort of the byte keys, then a neighbour compare.
            keys = np.sort(X.view(self._key).ravel(), kind="stable")
            new = np.ones(len(keys), dtype=bool)
            new[1:] = keys[1:] != keys[:-1]
            X = keys[new].view(np.uint8).reshape(-1, self.n)
        X.flags.writeable = False
        object.__setattr__(self, "_rows", X)

    @classmethod
    def from_rows(cls, p: int, n: int, X: np.ndarray) -> VecSet:
        """The set of the rows of X; ValueError for a shape other than
        (m, n) or an entry outside [0, p)."""
        return cls(p, n, np.asarray(X))

    @classmethod
    def empty(cls, p: int, n: int) -> VecSet:
        return cls(p, n, ())

    @classmethod
    def full(cls, p: int, n: int) -> VecSet:
        return cls.from_rows(p, n, lex_coords(p, n))

    @property
    def _key(self) -> np.dtype:
        return np.dtype((np.void, self.n))

    @cached_property
    def elements(self) -> tuple[FpVec, ...]:
        """The vectors in order, as FpVec; built on first use."""
        return tuple(FpVec(self.p, tuple(r)) for r in self._rows.tolist())

    def rows(self) -> np.ndarray:
        """The vectors' coordinates in order, one uint8 row each (read-only)."""
        return self._rows

    def positions(self, X: np.ndarray) -> np.ndarray:
        """The index in rows() of each coordinate row along the last axis of
        X, whose entries lie in [0, p), or -1 where that vector is not in the
        set: one binary search of the byte keys per row."""
        X = np.ascontiguousarray(X, dtype=np.uint8)
        if self.n == 0 or not len(self):
            return np.full(X.shape[:-1], 0 if len(self) else -1)
        keys = self._rows.view(self._key).ravel()
        probes = X.view(self._key)[..., 0]
        j = np.searchsorted(keys, probes)
        return np.where(keys[np.minimum(j, len(keys) - 1)] == probes, j, -1)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[FpVec]:
        return iter(self.elements)

    def __contains__(self, v: FpVec) -> bool:
        if (v.p, v.n) != (self.p, self.n):
            return False
        return bool(self.positions(np.array([v.coords], dtype=np.uint8))[0] >= 0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VecSet):
            return NotImplemented
        return (self.p, self.n) == (other.p, other.n) and np.array_equal(self._rows, other._rows)

    def __hash__(self) -> int:
        return hash((self.p, self.n, len(self), self._rows.tobytes()))

    def __repr__(self) -> str:
        return f"VecSet.from_rows({self.p}, {self.n}, {self._rows.tolist()})"

    def contains_zero(self) -> bool:
        return len(self) > 0 and not self._rows[0].any()

    def coord_tuples(self) -> set[tuple[int, ...]]:
        return set(map(tuple, self._rows.tolist()))


def distinct_differences(P: np.ndarray, p: int) -> np.ndarray:
    """The differences of each set's points, one sign of each pair.

    P is a (T, m, n) uint8 array of T sets of m distinct points of F_p^n.
    Row t of the (T, p^n) boolean result marks, by lex index, P[t, a] -
    P[t, b] for every a < b; the other differences b - a are their
    negations, so a subgroup meets the one exactly when it meets the other.
    The pairs are taken a chunk of positions a at a time, so memory beyond
    the result stays bounded whatever m is.
    """
    P = np.asarray(P, dtype=np.uint8)
    T, m, n = P.shape
    member = np.zeros((T, p**n), dtype=bool)
    cells = member.reshape(-1)
    offsets = np.arange(T)[:, None] * p**n
    for sl in chunk_slices(m - 1, T * m * n):
        a = np.arange(sl.start, min(sl.stop, m - 1))
        b = np.arange(sl.start + 1, m)
        # Every entry of a + p - b lies in [1, 2p - 1] <= 61, so uint8 holds it.
        D = (P[:, a, None] + np.uint8(p) - P[:, None, b]) % np.uint8(p)
        cells[offsets + lex_index(D[:, a[:, None] < b], p)] = True
    return member


def distinct_sumsets(member: np.ndarray, p: int, n: int, d: int) -> np.ndarray:
    """Sums of d mutually distinct elements of many subsets of F_p^n at once.

    member is a (B, p^n) boolean array, row b marking a subset by lex index;
    row b of the result marks that subset's d-fold distinct sumset.  A
    layered dynamic program over the elements x of the union: layer j marks
    the sums of j distinct elements among those seen so far, and x moves
    layer j - 1, shifted by x, into layer j of the rows that hold x.  All
    layers move at once from their values before x, which is the j = d..1
    order of the one-set DP.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    member = np.asarray(member, dtype=bool)
    xs = np.flatnonzero(member.any(axis=0))
    if d > len(xs):
        return np.zeros_like(member)  # fewer than d elements in every row
    U = lex_coords(p, n)
    # L[b, j]: layer j of row b, so the rows that hold x are one gather.
    L = np.zeros((member.shape[0], d + 1, member.shape[1]), dtype=bool)
    L[:, 0, 0] = True
    holders = member.T
    for sl in chunk_slices(len(xs), U.size):
        # minus[i, v]: the lex index of v - x for the i-th x of the chunk.
        minus = lex_index((U + np.uint8(p) - U[xs[sl], None]) % np.uint8(p), p)
        for t, x in enumerate(xs[sl], start=sl.start):
            j = min(d, t + 1)
            rows = holders[x].nonzero()[0]
            sub = L.take(rows, axis=0)
            sub[:, 1 : j + 1] |= sub[:, :j].take(minus[t - sl.start], axis=2)
            L[rows] = sub
    return L[:, d]


def _from_member(p: int, n: int, row: np.ndarray) -> VecSet:
    return VecSet.from_rows(p, n, lex_coords(p, n)[row])


def difference_set(A: VecSet) -> VecSet:
    """{a - a' : a, a' in A}: one set through distinct_differences."""
    check_order(A.p, A.n)
    half = distinct_differences(A.rows()[None], A.p)[0]
    negate = lex_index((A.p - lex_coords(A.p, A.n)) % A.p, A.p)
    D = half | half[negate]
    D[0] = len(A) > 0  # a - a = 0
    return _from_member(A.p, A.n, D)


def dfold_distinct_sumset(A: VecSet, d: int) -> VecSet:
    """Sums of d mutually distinct elements of A: one set through
    distinct_sumsets.  dfold_distinct_sumset_bruteforce is the reference
    implementation and the two must agree exactly."""
    check_order(A.p, A.n)
    member = np.zeros((1, A.p**A.n), dtype=bool)
    member[0, lex_index(A.rows(), A.p)] = True
    return _from_member(A.p, A.n, distinct_sumsets(member, A.p, A.n, d)[0])


def dfold_distinct_sumset_bruteforce(A: VecSet, d: int) -> VecSet:
    """Reference implementation: direct enumeration of d-element subsets."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    out = set()
    zero = FpVec.zero(A.p, A.n)
    for combo in itertools.combinations(A.elements, d):
        acc = zero
        for v in combo:
            acc = acc + v
        out.add(acc)
    return VecSet(A.p, A.n, tuple(out))


def preimage_intersect(columns: np.ndarray, S: VecSet, E: VecSet) -> VecSet:
    """{x in E : rho(x) in S}, for rho: F_p^m -> F_p^n given by its (m, n)
    table of columns, row j being rho(e_j).

    E's rows are mapped a chunk at a time, so memory beyond E and the result
    stays bounded whatever E's size.
    """
    if S.p != E.p:
        raise ValueError("modulus mismatch between S and E")
    columns = np.asarray(columns)
    if columns.shape != (E.n, S.n):
        raise ValueError(f"rho's table has shape {columns.shape}, not (m, n) = ({E.n}, {S.n})")
    # A sum of m products of entries below 256 is exact in float64.
    C = columns.astype(np.float64)
    X = E.rows()
    keep = np.empty(len(X), dtype=bool)
    for sl in chunk_slices(len(X), E.n):
        keep[sl] = S.positions(X[sl] @ C % E.p) >= 0
    return VecSet.from_rows(E.p, E.n, X[keep])
