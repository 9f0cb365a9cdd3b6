"""Leveled Bohr-recurrence certification.

A set's deficiency level is the least codimension k at which some subgroup
of F_p^n has empty intersection with it; if no subgroup up to codimension
k_max avoids the set, the set is certified recurrent up to level k_max.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .fpgroup import (
    FpMatrix,
    ResourceGuardError,
    Subgroup,
    annihilator_level,
    dual_rows,
    encode,
    enum_codim_subgroups,
    scan_avoiding,
)
from .setops import VecSet


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
    points = [v.coords for v in S.elements]
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


def meets_all_subgroups_oracle(S: VecSet, k: int) -> bool:
    """Independent oracle: materialize every codim-k subgroup as an element list.

    Uses kernel bases and explicit spans, on packed codes, rather than
    annihilator products, so it shares no verdict-relevant code path with
    bohr_deficiency.
    """
    if k > S.n:
        raise ValueError(f"k={k} exceeds ambient dimension {S.n}")
    if S.p ** S.n > 2**14:
        raise ResourceGuardError("oracle requires p^n <= 2^14 for exhaustive listing")
    S_codes = {encode(x.coords) for x in S.elements}
    for H in enum_codim_subgroups(S.p, S.n, k):
        if S_codes.isdisjoint(H.codes()):
            return False
    return True
