"""Set operators on finite subsets of F_p^n.

Difference sets, d-fold sumsets with distinct summands, and
preimage-intersection constructions.  All outputs are canonically sorted and duplicate-free.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

from .fpgroup import FpMatrix, FpVec, all_vectors, hom_apply


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


def difference_set(A: VecSet, distinct_only: bool = False) -> VecSet:
    """{a - a' : a, a' in A}; with distinct_only, only pairs a != a'."""
    out = set()
    for a, b in itertools.product(A.elements, repeat=2):
        if distinct_only and a == b:
            continue
        out.add(a - b)
    return VecSet(A.p, A.n, tuple(out))


def dfold_distinct_sumset(A: VecSet, d: int) -> VecSet:
    """Sums of d mutually distinct elements of A.

    Computed by a layered dynamic program over achievable sums, so it stays
    feasible when C(|A|, d) is large; dfold_distinct_sumset_bruteforce is the
    reference implementation and the two must agree exactly.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    # layer[j] = sums of j distinct elements among the prefix processed so far
    layers: list[set[tuple[int, ...]]] = [set() for _ in range(d + 1)]
    layers[0].add((0,) * A.n)
    p = A.p
    for a in A.elements:
        ac = a.coords
        for j in range(d, 0, -1):
            if not layers[j - 1]:
                continue
            step = {tuple((x + y) % p for x, y in zip(s, ac)) for s in layers[j - 1]}
            layers[j] |= step
    return VecSet(A.p, A.n, tuple(FpVec(p, s) for s in layers[d]))


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
