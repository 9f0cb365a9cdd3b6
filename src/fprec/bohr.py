"""Leveled Bohr-recurrence certification.

A set's deficiency level is the least codimension k at which some subgroup
of F_p^n has empty intersection with it; if no subgroup up to codimension
k_max avoids the set, the set is certified recurrent up to level k_max.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .fpgroup import (
    FpMatrix,
    Subgroup,
    annihilator_level,
    check_bound,
    chunk_slices,
    dual_rows,
    lex_index,
    scan_avoiding,
    span,
)
from .setops import VecSet

# Largest number of subgroup elements, C(n, k)_p * p^(n - k), that
# meets_all_subgroups_oracle spans and looks up at one level: about 1.5 s on
# one core.
MAX_ORACLE_ELEMENTS = 2**24


@dataclass(frozen=True)
class DeficiencyReport:
    """Outcome of scanning codimensions 1..k_max for an avoiding subgroup."""

    set_id: str
    p: int
    n: int
    k_max: int
    outcome: str  # "deficient" or "recurrent"
    deficient_at: int | None
    witness: Subgroup | None
    recurrent_up_to: int | None
    checked_per_level: dict[int, int] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "set_id": self.set_id,
            "p": self.p,
            "n": self.n,
            "k_max": self.k_max,
            "outcome": self.outcome,
            "deficient_at": self.deficient_at,
            "witness_annihilator": (
                [list(row) for row in self.witness.annihilator.entries]
                if self.witness is not None
                else None
            ),
            "recurrent_up_to": self.recurrent_up_to,
            "checked_per_level": {str(k): v for k, v in self.checked_per_level.items()},
        }


def bohr_deficiency(S: VecSet, k_max: int, set_id: str = "") -> DeficiencyReport:
    """Scan codimensions 1..k_max in order for the first avoiding subgroup.

    The witness, when one exists, is the lexicographically least avoiding
    subgroup at the least deficient codimension; checked_per_level[k] is its
    1-based position in that order, or C(n, k)_p for a level with none.
    """
    if not 1 <= k_max <= S.n:
        raise ValueError(f"k_max={k_max} must lie in [1, {S.n}]")
    points = S.rows()
    rows = dual_rows(S.p, S.n)
    counts: dict[int, int] = {}

    def levels():
        for k in range(1, k_max + 1):
            level = annihilator_level(S.p, S.n, k)
            counts[k] = len(level)
            yield level

    for level, hits in scan_avoiding(rows, levels(), [points], S.p):
        k, hit = level.shape[1], int(hits[0])
        counts[k] = hit + 1
        witness = Subgroup(S.p, S.n, FpMatrix(S.p, rows[level[hit]].tolist()))
        return DeficiencyReport(set_id, S.p, S.n, k_max, "deficient", k, witness, None, counts)
    return DeficiencyReport(set_id, S.p, S.n, k_max, "recurrent", None, None, k_max, counts)


def _subspace_bases(p: int, n: int, d: int) -> Iterator[np.ndarray]:
    """The RREF bases of all d-dimensional subspaces of F_p^n, as (count, d, n)
    uint8 blocks of one pivot pattern each, whose spans are about one chunk.

    Row i of a basis has a 1 in its pivot column c_i, zeros in the other
    pivot columns and left of c_i, and any residues in its free cells, the
    non-pivot columns right of c_i; each subspace has exactly one such basis.
    """
    for pivots in itertools.combinations(range(n), d):
        cells = [(i, j) for i, c in enumerate(pivots) for j in range(c + 1, n) if j not in pivots]
        rows, cols = [i for i, _ in cells], [j for _, j in cells]
        free = itertools.product(range(p), repeat=len(cells))
        for sl in chunk_slices(p ** len(cells), p**d * n):
            values = list(itertools.islice(free, sl.stop - sl.start))
            block = np.zeros((len(values), d, n), dtype=np.uint8)
            block[:, range(d), list(pivots)] = 1
            block[:, rows, cols] = values
            yield block


def meets_all_subgroups_oracle(S: VecSet, k: int) -> bool:
    """Independent oracle: span every codim-k subgroup and look up its elements.

    The subgroups come from their own enumeration, _subspace_bases, rather
    than the annihilators that bohr_deficiency scans, so the two share no
    verdict-relevant code path.  Each block of bases is spanned at once and
    its elements looked up in S's indicator row over F_p^n in lex order.
    """
    p, n = S.p, S.n
    if not 0 <= k <= n:
        raise ValueError(f"k={k} out of range [0, {n}]")
    # These two bounds hold every level to at most 2^22 subgroups.
    check_bound(f"p^n = {p}^{n}", "oracle listing bound 2^14", 2**14, p=p, e=n)
    what = f"C({n}, {k})_{p} * {p}^{n - k} subgroup elements"
    check_bound(what, "oracle bound 2^24", MAX_ORACLE_ELEMENTS, p=p, e=n - k, n=n, k=k)
    member = np.zeros(p**n, dtype=bool)
    member[lex_index(S.rows(), p)] = True
    for block in _subspace_bases(p, n, n - k):
        elements = lex_index(span(block, p, slice(None)), p)  # (bases, p^(n-k))
        if not member[elements].any(axis=1).all():
            return False
    return True
