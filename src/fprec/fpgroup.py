"""Exact arithmetic and linear algebra over F_p^n.

Vectors, matrices (homomorphisms), the dual pairing, reduced row-echelon
canonical forms, kernel bases, and canonical enumeration of finite-index
subgroups represented by annihilators, with the one vectorized scan for
subgroups that miss a set.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np


class ResourceGuardError(RuntimeError):
    """Raised when an operation would exceed its declared scale guard."""


MAX_PRIME = 31
MAX_GROUP_ORDER = 2**24
# Largest codimension level annihilator_level builds, and largest dual_rows
# table; scanning the 2^22 - 1 hyperplanes of F_2^22 against the 231
# weight-2 vectors peaks near 260 MiB.
MAX_SUBGROUPS = 2**22
# Bounds of the per-process memo of levels and dual tables (_LEVELS).  A
# table above _MEMO_ENTRY_BYTES, 2^20 int32 entries, is built afresh on every
# call, so no level near MAX_SUBGROUPS and no F_2^22 dual table is ever kept;
# the tables kept total at most _MEMO_BYTES.
_MEMO_ENTRY_BYTES = 4 * 2**20
_MEMO_BYTES = 16 * 2**20
# Largest vertex count a graph or hypergraph file may declare; the chromatic
# search is quadratic in |V|, and the header is checked before any allocation.
MAX_VERTICES = 2**16

_SMALL_PRIMES = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}


def check_prime(p: int) -> None:
    if p not in _SMALL_PRIMES:
        raise ValueError(f"p must be a prime <= {MAX_PRIME}, got {p}")


def bounded_count(bound: int, *, times=1, p=1, e=0, n=0, k=0) -> int:
    """times * p^e * C(n, k)_p, C(n, k)_1 the ordinary binomial, when it is at most bound;
    otherwise some value above bound.  Lower bounds, C(n, k)_p >= p^(k(n - k)) and >= n for
    0 < k < n, refuse first, then C(n, k)_p grows one ratio C(n, i + 1)_p / C(n, i)_p at a
    time: no integer much wider than bound is formed."""
    k = min(k, n - k)
    bits = bound.bit_length()
    count = 0 if k < 0 or times == 0 else bound + 1  # refused unless counted below
    if count and times <= bound and not (k and n > bound) and (p == 1 or e + k * (n - k) < bits):
        count = times * p**e
        for i in range(k):
            up, down = (p ** (n - i) - 1, p ** (i + 1) - 1) if p > 1 else (n - i, i + 1)
            count = count * up // down
            if count > bound:
                break
    return count


def check_bound(what: str, bound_name: str, bound: int, *, times=1, p=1, e=0, n=0, k=0) -> None:
    """The one resource guard: ResourceGuardError("{what} exceeds the {bound_name}") when
    times * p^e * C(n, k)_p, as bounded_count counts it, exceeds bound."""
    if bounded_count(bound, times=times, p=p, e=e, n=n, k=k) > bound:
        raise ResourceGuardError(f"{what} exceeds the {bound_name}")


def check_order(p: int, n: int) -> None:
    check_bound(f"p^n = {p}^{n}", "per-run bound 2^24", MAX_GROUP_ORDER, p=p, e=n)


@dataclass(frozen=True)
class FpVec:
    """An element of F_p^n: a tuple of residues mod p."""

    p: int
    coords: tuple[int, ...]

    def __post_init__(self):
        check_prime(self.p)
        object.__setattr__(self, "coords", tuple(c % self.p for c in self.coords))

    @property
    def n(self) -> int:
        return len(self.coords)

    @classmethod
    def zero(cls, p: int, n: int) -> FpVec:
        return cls(p, (0,) * n)

    @classmethod
    def basis(cls, p: int, n: int, j: int) -> FpVec:
        """The standard basis vector e_j, 1-based index."""
        if not 1 <= j <= n:
            raise ValueError(f"basis index {j} out of range [1, {n}]")
        return cls(p, tuple(1 if i == j - 1 else 0 for i in range(n)))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _check_compat(self, other: FpVec) -> None:
        if self.p != other.p or self.n != other.n:
            raise ValueError(
                f"incompatible vectors: (p={self.p}, n={self.n}) vs "
                f"(p={other.p}, n={other.n})"
            )

    def __add__(self, other: FpVec) -> FpVec:
        self._check_compat(other)
        return FpVec(self.p, tuple((a + b) % self.p for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: FpVec) -> FpVec:
        self._check_compat(other)
        return FpVec(self.p, tuple((a - b) % self.p for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> FpVec:
        return FpVec(self.p, tuple((-a) % self.p for a in self.coords))

    def __lt__(self, other: FpVec) -> bool:
        return self.coords < other.coords


# A dual vector xi induces the character x -> e(<x, xi>); same shape as FpVec.
DualVec = FpVec


@dataclass(frozen=True)
class FpMatrix:
    """A k x m matrix of residues mod p, i.e. a homomorphism F_p^m -> F_p^k."""

    p: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        check_prime(self.p)
        rows = tuple(tuple(c % self.p for c in row) for row in self.entries)
        if rows and any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("ragged matrix rows")
        object.__setattr__(self, "entries", rows)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @classmethod
    def identity(cls, p: int, n: int) -> FpMatrix:
        return cls(p, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def zero(cls, p: int, rows: int, cols: int) -> FpMatrix:
        return cls(p, tuple((0,) * cols for _ in range(rows)))

    @classmethod
    def from_rows(cls, rows: Sequence[FpVec]) -> FpMatrix:
        if not rows:
            raise ValueError("from_rows needs at least one row")
        p = rows[0].p
        for r in rows:
            rows[0]._check_compat(r)
        return cls(p, tuple(r.coords for r in rows))


def pairing(x: FpVec, xi: DualVec) -> int:
    """The character exponent <x, xi> = sum x_i xi_i mod p."""
    x._check_compat(xi)
    return sum(a * b for a, b in zip(x.coords, xi.coords)) % x.p


def hom_apply(M: FpMatrix, x: FpVec) -> FpVec:
    """Matrix-vector product mod p."""
    if M.p != x.p:
        raise ValueError("modulus mismatch")
    if M.cols != x.n:
        raise ValueError(f"matrix has {M.cols} columns but vector has dimension {x.n}")
    out = tuple(sum(a * b for a, b in zip(row, x.coords)) % M.p for row in M.entries)
    return FpVec(M.p, out)


def hom_from_basis_images(images: Sequence[FpVec]) -> FpMatrix:
    """The matrix sending e_j to images[j-1]: images form the columns."""
    if not images:
        raise ValueError("need at least one basis image")
    head = images[0]
    for v in images:
        head._check_compat(v)
    k = head.n
    rows = tuple(tuple(images[j].coords[i] for j in range(len(images))) for i in range(k))
    return FpMatrix(head.p, rows)


def rref_rank(M: FpMatrix) -> tuple[FpMatrix, int]:
    """The unique reduced row-echelon form of M over F_p, plus its rank."""
    p = M.p
    rows = [list(r) for r in M.entries]
    nrows, ncols = M.rows, M.cols
    pivot_row = 0
    for col in range(ncols):
        pr = None
        for r in range(pivot_row, nrows):
            if rows[r][col] != 0:
                pr = r
                break
        if pr is None:
            continue
        rows[pivot_row], rows[pr] = rows[pr], rows[pivot_row]
        inv = pow(rows[pivot_row][col], p - 2, p)
        rows[pivot_row] = [(inv * c) % p for c in rows[pivot_row]]
        for r in range(nrows):
            if r != pivot_row and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == nrows:
            break
    return FpMatrix(p, tuple(tuple(r) for r in rows)), pivot_row


def kernel_basis(M: FpMatrix) -> list[FpVec]:
    """A basis of {x : Mx = 0}, ordered by ascending free variable index."""
    p = M.p
    R, rank = rref_rank(M)
    ncols = M.cols
    pivots: list[int] = []
    for r in range(rank):
        for c in range(ncols):
            if R.entries[r][c] != 0:
                pivots.append(c)
                break
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [0] * ncols
        v[free] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-R.entries[r][free]) % p
        basis.append(FpVec(p, tuple(v)))
    return basis


@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def all_vectors(p: int, n: int) -> Iterator[FpVec]:
    """All elements of F_p^n in lexicographic order."""
    check_order(p, n)
    for coords in itertools.product(range(p), repeat=n):
        yield FpVec(p, coords)


# Lex indices: the position of a vector of F_p^n in lex order, the order of
# all_vectors, i.e. its coordinates read as base-p digits.  As p <= 31, a
# uint8 row holds the sum of two rows before its reduction mod p.


def _lex_weights(p: int, n: int) -> np.ndarray:
    return p ** np.arange(n - 1, -1, -1, dtype=np.int64)


def _lex_rows(idx: np.ndarray, p: int, n: int) -> np.ndarray:
    """The coordinates of the vectors of F_p^n with lex indices idx, one uint8
    row each."""
    return (idx[:, None] // _lex_weights(p, n) % p).astype(np.uint8)


def lex_coords(p: int, n: int) -> np.ndarray:
    """The coordinates of all elements of F_p^n in lex order, one uint8 row
    each: row i is the vector of lex index i."""
    check_order(p, n)
    return _lex_rows(np.arange(p**n, dtype=np.int64), p, n)


def lex_index(X: np.ndarray, p: int) -> np.ndarray:
    """The lex index of every coordinate row along the last axis of X."""
    X = np.asarray(X)
    return X @ _lex_weights(p, X.shape[-1])


def span(B: np.ndarray, p: int, coeffs: slice) -> np.ndarray:
    """The combinations sum c_i B[..., i, :] mod p of each basis in B.

    B is an (..., d, n) array of d basis rows per basis, and c runs over the
    coefficient vectors of F_p^d whose lex indices lie in coeffs, in lex
    order.  Returns uint8 rows of shape (..., m, n), m the number of c.
    """
    d = B.shape[-2]
    C = _lex_rows(np.arange(*coeffs.indices(p**d), dtype=np.int64), p, d)
    # Sums of d products of residues below 31 stay far below 2^31.
    out = np.tensordot(C.astype(np.int32), np.asarray(B, dtype=np.int32), axes=(1, -2)) % p
    return np.moveaxis(out, 0, -2).astype(np.uint8)


@dataclass(frozen=True)
class Subgroup:
    """A codimension-k subgroup of F_p^n, as the kernel of a canonical annihilator.

    The annihilator is a full-rank k x n matrix in reduced row-echelon form,
    so equal subgroups compare equal as values.
    """

    p: int
    n: int
    annihilator: FpMatrix

    def __post_init__(self):
        A = self.annihilator
        if A.p != self.p:
            raise ValueError("annihilator modulus mismatch")
        if A.rows and A.cols != self.n:
            raise ValueError("annihilator width differs from ambient dimension")
        # A full-rank RREF matrix is its own reduced form, with no zero row.
        if rref_rank(A) != (A, A.rows):
            raise ValueError("annihilator must be full-rank and in RREF; use from_dual_vectors")

    @classmethod
    def from_dual_vectors(cls, xis: Sequence[DualVec], *, p: int, n: int) -> Subgroup:
        """The subgroup cut out by the given characters (zero rows dropped)."""
        rows = [xi for xi in xis if not xi.is_zero()]
        if not rows:
            return cls.whole_group(p, n)
        R, rank = rref_rank(FpMatrix.from_rows(rows))
        return cls(p, n, FpMatrix(p, R.entries[:rank]))

    @classmethod
    def whole_group(cls, p: int, n: int) -> Subgroup:
        return cls(p, n, FpMatrix(p, ()))

    @property
    def codim(self) -> int:
        return self.annihilator.rows

    def contains(self, x: FpVec) -> bool:
        if x.p != self.p or x.n != self.n:
            raise ValueError("vector does not live in the ambient group")
        return all(
            sum(a * b for a, b in zip(row, x.coords)) % self.p == 0
            for row in self.annihilator.entries
        )

    def elements(self) -> Iterator[FpVec]:
        """All p^(n-k) elements, in lex order of their coefficients over
        kernel_basis, or over the standard basis when k = 0, spanned a chunk
        at a time."""
        p, n, d = self.p, self.n, self.n - self.codim
        check_order(p, d)
        # A zero row's kernel basis is the standard basis, in order.
        A = self.annihilator if self.codim else FpMatrix.zero(p, 1, n)
        B = np.array([v.coords for v in kernel_basis(A)], dtype=np.uint8).reshape(d, n)
        for sl in chunk_slices(p**d, n):
            for row in span(B, p, sl).tolist():
                yield FpVec(p, tuple(row))


# Entries per chunk of an array pass: small enough to stay in cache, large
# enough that numpy's per-call overhead stays a small share.
_CHUNK = 1 << 16


def chunk_slices(rows: int, row_size: int) -> Iterator[slice]:
    """Consecutive slices of range(rows), each about _CHUNK entries of row_size."""
    step = max(1, _CHUNK // max(1, row_size))
    return (slice(lo, lo + step) for lo in range(0, rows, step))


def _check_level(n: int, k: int, p: int) -> None:
    check_bound(f"C({n}, {k})_{p} subgroups", "per-level bound 2^22", MAX_SUBGROUPS, p=p, n=n, k=k)


class _ArrayMemo:
    """A memo of read-only arrays, keyed by the arguments that built them.

    Every array it returns is read-only.  One above entry_bytes is returned
    without being kept; the kept arrays total at most total_bytes, the least
    recently used evicted first.  Only a returned array is kept, so a build
    that raises raises again on the next call.
    """

    def __init__(self, entry_bytes: int, total_bytes: int):
        self.entry_bytes = entry_bytes
        self.total_bytes = total_bytes
        self.kept: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self.nbytes = 0
        self._lock = threading.Lock()

    def get(self, key: tuple, build: Callable[[], np.ndarray]) -> np.ndarray:
        with self._lock:
            if key in self.kept:
                self.kept.move_to_end(key)
                return self.kept[key]
        out = build()
        out.flags.writeable = False
        if out.nbytes <= self.entry_bytes:
            with self._lock:
                if key not in self.kept:
                    self.kept[key] = out
                    self.nbytes += out.nbytes
                    while self.nbytes > self.total_bytes:
                        self.nbytes -= self.kept.popitem(last=False)[1].nbytes
        return out


# A level depends only on (p, n, k), never on the set scanned, so every
# caller in the process shares one copy.
_LEVELS = _ArrayMemo(_MEMO_ENTRY_BYTES, _MEMO_BYTES)


def _memoized(build: Callable[..., np.ndarray]) -> Callable[..., np.ndarray]:
    """build, served from _LEVELS; its __wrapped__ attribute builds afresh."""

    @wraps(build)
    def memoized(*args: int) -> np.ndarray:
        return _LEVELS.get((build.__name__, *args), lambda: build(*args))

    return memoized


@_memoized
def dual_rows(p: int, n: int) -> np.ndarray:
    """The nonzero dual vectors of F_p^n whose leading coefficient is 1, in lex order.

    Every row of a canonical annihilator is one of them.  Returns a
    read-only int8 array of shape (C(n, 1)_p, n), memoized per process.  The
    row led by a 1 in column n - 1 - m, whose m later coordinates read t in
    base p, has index (p^m - 1)/(p - 1) + t.
    Raises ResourceGuardError, before allocating, when C(n, 1)_p exceeds
    MAX_SUBGROUPS.
    """
    _check_level(n, 1, p)
    # Row t of tails holds t in base p in columns 1..n - 1, so its first p^m
    # rows hold the tails of length m, preceded by n - m zeros.
    width = max(n - 1, 0)
    tails = np.zeros((p**width, n), dtype=np.int8)
    tails[:, n - width :] = np.indices((p,) * width, dtype=np.int8).reshape(width, p**width).T
    out = np.empty((gaussian_binomial(n, 1, p), n), dtype=np.int8)
    for m in range(n):
        first = (p**m - 1) // (p - 1)
        out[first : first + p**m] = tails[: p**m]
        out[first : first + p**m, n - 1 - m] = 1
    return out


@_memoized
def annihilator_level(p: int, n: int, k: int) -> np.ndarray:
    """All full-rank k x n RREF matrices over F_p, one per codim-k subgroup, as
    indices into dual_rows(p, n).

    Returns a read-only int32 array of shape (C(n, k)_p, k), memoized per
    process, row i of a matrix being dual_rows(p, n)[level[:, i]], in lex
    order of the matrices read row by row, the order enum_codim_subgroups
    yields.  Raises ResourceGuardError, before allocating, when C(n, k)_p
    exceeds MAX_SUBGROUPS.
    """
    _check_level(n, k, p)
    # Index of the row led by column j with a zero tail, and the values a
    # coordinate in column j adds to the index of a row led further left.
    lead = [(p ** (n - 1 - j) - 1) // (p - 1) for j in range(n)]
    digit = [np.arange(p, dtype=np.int32) * p ** (n - 1 - j) for j in range(n)]
    blocks = []
    for pivots in itertools.combinations(range(n), k):
        # Row i ranges over lead[pivot] plus any values in its free cells: the
        # non-pivot columns to the right of its pivot.  The block is the
        # product of those ranges.
        ranges = []
        for c in pivots:
            r = np.array([lead[c]], dtype=np.int32)
            for j in range(c + 1, n):
                if j not in pivots:
                    r = (r[:, None] + digit[j]).ravel()
            ranges.append(r)
        shape = [len(r) for r in ranges]
        block = np.empty(shape + [k], dtype=np.int32)
        for i, r in enumerate(ranges):
            block[..., i] = r.reshape([-1 if i == h else 1 for h in range(k)])
        blocks.append(block.reshape(math.prod(shape), k))
    level = np.concatenate(blocks)
    if k == 0:
        return level  # the one empty matrix; lexsort needs at least one key
    # Rows sort like their indices, and lexsort takes its primary key last.
    return level[np.lexsort(level.T[::-1])]


def annihilator_array(p: int, n: int, k: int) -> np.ndarray:
    """The codim-k level as an int8 array of shape (C(n, k)_p, k, n) of matrices."""
    return dual_rows(p, n)[annihilator_level(p, n, k)]


def scan_avoiding(
    rows: np.ndarray, levels: Iterable[np.ndarray], point_sets: Sequence, p: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The (annihilator, point set) pairs whose kernel misses every point of
    the set, level by level.

    Each level is an (R, k) integer index into the (T, n) table rows, such
    as annihilator_level into dual_rows: its annihilator i is the matrix
    rows[level[i]].  Levels are read lazily and in order.  Each point set is
    a sequence of coordinate tuples or an (m, n) array.  With G point sets,
    the pair (i, g) is numbered i * G + g within its level, so with one set
    a hit is an index into its level.

    Once per call the kernel builds Z[r, s], whether <r, s> = 0 mod p, for
    each table row r and point s, as bits, one byte-aligned run per set.
    Annihilator i meets point s exactly when the AND of Z over its k rows
    holds at s.  Chunks of each level are tested by gathering those rows,
    and each chunk that holds a hit yields (level, ascending array of pair
    numbers), so a consumer that stops at the first hit pays for no chunk,
    and reads no level, past it.
    """
    sizes = [len(s) for s in point_sets]
    if not sizes:
        return
    n = rows.shape[1]
    # Set g owns the bytes from starts[g] on, at least one even when empty.
    # Row n of X pairs with a constant 1 in every table row, so the padding
    # bits of each byte pair to 1 and never read as zero.
    starts = []
    width = 0
    for m in sizes:
        starts.append(width)
        width += max(1, -(-m // 8))
    X = np.zeros((n + 1, 8 * width), dtype=np.float32)
    X[n] = 1
    for b, s, m in zip(starts, point_sets, sizes):
        if m:
            X[:n, 8 * b : 8 * b + m] = np.asarray(s).T
            X[n, 8 * b : 8 * b + m] = 0
    Z = np.empty((len(rows), width), dtype=np.uint8)
    inv = np.float32(1 / p)
    for sl in chunk_slices(len(rows), 8 * width):
        # Entries of Y are integers of at most (p - 1)^2 n + 1, far below
        # 2^24, so exact in float32, and rint(Y / p) * p equals Y exactly when
        # p divides Y.
        Y = rows[sl] @ X[:n]
        Y += X[n]
        q = Y * inv
        np.rint(q, out=q)
        q *= p
        # Rows hold 8 * width bits, so packing the flat array packs each row
        # apart, and runs far faster than packbits along axis 1 on narrow rows.
        Z[sl] = np.packbits((q == Y).ravel()).reshape(-1, width)
    empty_sets = np.flatnonzero(np.array(sizes) == 0)
    for level in levels:
        k = level.shape[1]
        if k == 0:
            # The one empty matrix: the whole group misses only the empty sets.
            if len(level) and len(empty_sets):
                yield level, empty_sets
            continue
        for sl in chunk_slices(len(level), k * sum(sizes)):
            gathered = Z[level[sl].T]  # (k, rows of the chunk, width)
            meets = gathered[0]
            for r in range(1, k):
                meets &= gathered[r]
            hits = (np.bitwise_or.reduceat(meets, starts, axis=1) == 0).ravel().nonzero()[0]
            if len(hits):
                yield level, sl.start * len(sizes) + hits


def enum_codim_subgroups(p: int, n: int, k: int) -> Iterator[Subgroup]:
    """All codimension-k subgroups of F_p^n, in lex order of canonical annihilators.

    Yields each subgroup exactly once; the count is the Gaussian binomial
    coefficient C(n, k)_p.
    """
    check_prime(p)
    if not 0 <= k <= n:
        raise ValueError(f"codimension {k} out of range [0, {n}]")
    for a in annihilator_array(p, n, k):
        yield Subgroup(p, n, FpMatrix(p, a.tolist()))
