"""Set operators on finite subsets of F_p^n.

Difference sets, d-fold sumsets with distinct summands, and
preimage-intersection constructions.  All outputs are canonically sorted and duplicate-free.
The difference and sumset kernels work on sets of packed integer codes
(fpgroup.encode); difference_set and dfold_distinct_sumset wrap them for VecSet.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Collection, Iterable, Iterator

from .fpgroup import (
    FpMatrix,
    FpVec,
    all_vectors,
    decode,
    encode,
    hom_apply,
    swar_constants,
)


@dataclass(frozen=True)
class VecSet:
    """An ordered, duplicate-free set of vectors sharing (p, n)."""

    p: int
    n: int
    elements: tuple[FpVec, ...]

    def __post_init__(self):
        elems = tuple(sorted(set(self.elements)))
        for v in elems:
            if v.p != self.p or v.n != self.n:
                raise ValueError(
                    f"element (p={v.p}, n={v.n}) does not match set (p={self.p}, n={self.n})"
                )
        object.__setattr__(self, "elements", elems)

    @classmethod
    def empty(cls, p: int, n: int) -> VecSet:
        return cls(p, n, ())

    @classmethod
    def full(cls, p: int, n: int) -> VecSet:
        return cls(p, n, tuple(all_vectors(p, n)))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[FpVec]:
        return iter(self.elements)

    def __contains__(self, v: FpVec) -> bool:
        i = bisect_left(self.elements, v)
        return i < len(self.elements) and self.elements[i] == v

    def contains_zero(self) -> bool:
        return any(v.is_zero() for v in self.elements)

    def coord_tuples(self) -> set[tuple[int, ...]]:
        return {v.coords for v in self.elements}


def difference_codes(codes: Collection[int], p: int, n: int) -> set[int]:
    """{a - b : a, b in codes} on packed codes of F_p^n (fpgroup.encode).

    Every byte of a + P - b lies in [1, 2p - 1], so there is no borrow
    between bytes and one SWAR step reduces the difference mod p.
    """
    K, H, P = swar_constants(p, n)
    return {
        (t := a + P - b) - (((t + K) & H) >> 7) * p for a in codes for b in codes
    }


def sumset_codes(codes: Iterable[int], p: int, n: int, d: int) -> set[int]:
    """Sums of d mutually distinct elements of a set of packed codes of F_p^n.

    A layered dynamic program over achievable sums, so it stays feasible when
    C(|codes|, d) is large.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    K, H, _ = swar_constants(p, n)
    # layers[j] = sums of j distinct elements among the prefix processed so far
    layers: list[set[int]] = [{0}] + [set() for _ in range(d)]
    for a in codes:
        for j in range(d, 0, -1):
            layers[j].update({(t := s + a) - (((t + K) & H) >> 7) * p for s in layers[j - 1]})
    return layers[d]


def _codes(A: VecSet) -> list[int]:
    return [encode(v.coords) for v in A.elements]


def _from_codes(p: int, n: int, codes: Iterable[int]) -> VecSet:
    return VecSet(p, n, tuple(FpVec(p, decode(c, n)) for c in codes))


def difference_set(A: VecSet, distinct_only: bool = False) -> VecSet:
    """{a - a' : a, a' in A}; with distinct_only, only pairs a != a'."""
    D = difference_codes(_codes(A), A.p, A.n)
    if distinct_only:
        D.discard(0)  # a - a' = 0 exactly when a = a'
    return _from_codes(A.p, A.n, D)


def dfold_distinct_sumset(A: VecSet, d: int) -> VecSet:
    """Sums of d mutually distinct elements of A, by sumset_codes;
    dfold_distinct_sumset_bruteforce is the reference implementation and the
    two must agree exactly."""
    return _from_codes(A.p, A.n, sumset_codes(_codes(A), A.p, A.n, d))


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


def preimage_intersect(rho: FpMatrix, S: VecSet, E: VecSet) -> VecSet:
    """{x in E : rho(x) in S}."""
    if rho.p != S.p or rho.p != E.p:
        raise ValueError("modulus mismatch between rho, S and E")
    if rho.cols != E.n:
        raise ValueError(f"rho expects dimension {rho.cols}, E has dimension {E.n}")
    if rho.rows != S.n:
        raise ValueError(f"rho maps into dimension {rho.rows}, S has dimension {S.n}")
    target = S.coord_tuples()
    hits = [x for x in E.elements if hom_apply(rho, x).coords in target]
    return VecSet(E.p, E.n, tuple(hits))
