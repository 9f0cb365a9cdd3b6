"""Experiment drivers with reproducible JSON reporting.

Each driver returns an ExperimentReport; every witness embedded in a report
is validated before the report is emitted.  Reports serialize to
byte-identical JSON across reruns with identical inputs; they carry no
timing.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import __version__
from .bohr import bohr_deficiency
from .colorings import (
    Hypergraph,
    INFINITE,
    _monochromatic,
    build_cayley,
    chromatic_number_exact,
    components_classify,
    hypergraph_chromatic,
    verify,
)
from .families import (
    ap3_hypergraph,
    family_indicator_set,
    fin2_vertices,
    gallai_square_hypergraph,
    square_connection_set,
    weight_d_set,
)
from .fileio import digest_of_text
from .fpgroup import (
    _memoized,
    annihilator_level,
    bounded_count,
    check_bound,
    check_order,
    check_prime,
    chunk_slices,
    dual_rows,
    lex_coords,
    scan_avoiding,
)
from .setops import VecSet, distinct_differences, distinct_sumsets, preimage_intersect

SCHEMA_VERSION = 1


def _chi_json(chi) -> object:
    return "inf" if chi == INFINITE else chi


@dataclass
class ExperimentReport:
    name: str
    parameters: dict
    results: dict
    verdicts: dict[str, bool]
    input_digests: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.verdicts.values())

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "experiment": self.name,
            "parameters": self.parameters,
            "results": self.results,
            "verdicts": self.verdicts,
            "input_digests": self.input_digests,
            "ok": self.ok,
        }

    def to_json(self) -> str:
        return report_json(self.to_dict())


def report_json(doc: dict) -> str:
    """The bytes of a JSON report: sorted keys, two-space indent, one final newline."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _vecset_digest(S: VecSet) -> str:
    body = f"p={S.p} n={S.n};" + ";".join(",".join(map(str, r)) for r in S.rows().tolist())
    return digest_of_text(body)


def _hypergraph_digest(hg: Hypergraph) -> str:
    body = f"N={hg.n};" + ";".join(",".join(map(str, e)) for e in hg.edges)
    return digest_of_text(body)


def exp_s_square(W: int) -> ExperimentReport:
    """Chromatic number and component census of the square-difference Cayley
    graph on 2-element window subsets."""
    if not 2 <= W <= 8:
        raise ValueError(f"W must lie in [2, 8], got {W}")
    V = fin2_vertices(W)
    S = square_connection_set(W)
    cay = build_cayley(V, S)
    chi, coloring = chromatic_number_exact(cay)
    comps = components_classify(cay)
    histogram: dict[str, int] = {}
    for tag, _ in comps:
        histogram[tag] = histogram.get(tag, 0) + 1
    coloring_ok, _ = verify(coloring, cay) if coloring is not None else (False, None)
    verdicts = {
        "chi_is_2": chi == 2,
        "coloring_valid": coloring_ok,
        "components_in_trichotomy": all(
            tag in ("singleton", "single-edge", "path") for tag, _ in comps
        ),
    }
    results = {
        "chi": _chi_json(chi),
        "num_vertices": len(V),
        "num_edges": sum(map(len, cay.graph.adj)) // 2 + len(cay.graph.self_loops),
        "component_histogram": dict(sorted(histogram.items())),
        "coloring": list(coloring) if coloring is not None else None,
    }
    return ExperimentReport(
        "s_square",
        {"W": W},
        results,
        verdicts,
        {"vertices": _vecset_digest(V), "connection": _vecset_digest(S)},
    )


# Seeded random partitions drawn by bridge direction (a) when N > 8, where
# [1, N] has more than 5,000 set partitions: Bell(8) = 4,140, Bell(9) = 21,147.
_PARTITION_SAMPLES = 500


@_memoized
def _partition_table(N: int) -> np.ndarray:
    """Every set partition of [1, N] as a row of cell labels in restricted-growth
    form, in lex order: the order proper_partitions yields them with no edges.

    Returns a read-only int8 array of shape (Bell(N), N), memoized per
    process.  Row i of the table for N - 1 is followed, in the table for N,
    by its extensions with the labels 1..max + 1, in that order.
    """
    if N == 0:
        return np.zeros((1, 0), dtype=np.int8)
    prev = _partition_table(N - 1)
    counts = prev.max(axis=1, initial=0).astype(np.intp) + 1
    firsts = np.cumsum(counts) - counts
    out = np.empty((counts.sum(), N), dtype=np.int8)
    out[:, :-1] = np.repeat(prev, counts, axis=0)
    out[:, -1] = np.arange(len(out)) - np.repeat(firsts, counts) + 1
    return out


def _cell_masks(labels: np.ndarray) -> np.ndarray:
    """Per row of labels (counted from 1), each label's cell up to the largest
    as its bitmask, vertex v of N at bit N - v: the index of its 0/1 row in
    lex_coords(2, N).  An absent label gets mask 0, the zero row, which pairs
    to 0 with every point."""
    R, N = labels.shape
    level = np.zeros((R, int(labels.max(initial=0))), dtype=np.intp)
    np.add.at(level, (np.arange(R)[:, None], labels - 1), 1 << np.arange(N - 1, -1, -1))
    return level


def _avoiding_subgroups(E_fam: VecSet) -> tuple[list[np.ndarray], int, int]:
    """Avoiding subgroups of codim 1..k_used as their canonical annihilators,
    one (m, k, n) array per scanned level, where k_used is the last level that
    fits in _BRIDGE_BUDGET; returns (found, tested, k_used)."""
    p, n = E_fam.p, E_fam.n
    points = E_fam.rows()
    k_used = _feasible_k_max(p, n, _BRIDGE_BUDGET)
    if not k_used:
        return [], 0, 0
    rows = dual_rows(p, n)
    levels = [annihilator_level(p, n, k) for k in range(1, k_used + 1)]
    avoids = [np.zeros(len(level), dtype=bool) for level in levels]
    for level, hits in scan_avoiding(rows, levels, [points], p):
        avoids[level.shape[1] - 1][hits] = True
    found = [rows[level[a]] for level, a in zip(levels, avoids)]
    return found, sum(map(len, levels)), k_used


def _induced_violations(
    found: Sequence[np.ndarray], edges: Sequence[Sequence[int]], p: int
) -> list[str]:
    """Check the partitions that the avoiders of each level in found, an
    (m, k, N) array of k x N annihilators, induce, vertex v's cell given by
    column v: each must be proper and have at most p^k cells.

    Column v is coded as sum_r A[r, v] p^r, so two vertices share a cell
    exactly when their codes are equal.  Every level's codes, each row with
    its cap p^k, go through one monochromatic-edge pass and one sort.
    Returns one string per failure, level by level in the order of found,
    avoider by avoider.
    """
    if not found:
        return []
    codes = np.concatenate([p ** np.arange(A.shape[1]) @ A for A in found])
    caps = np.repeat([p ** A.shape[1] for A in found], [len(A) for A in found])
    first = _monochromatic(codes, edges)
    cells = 1 + (np.diff(np.sort(codes, axis=1), axis=1) != 0).sum(axis=1)
    out = []
    for i in np.flatnonzero((first >= 0) | (cells > caps)):
        if first[i] >= 0:
            out.append(
                "partition induced by avoiding subgroup has monochromatic edge "
                f"{list(edges[first[i]])}"
            )
        if cells[i] > caps[i]:
            out.append(f"induced partition has {cells[i]} cells > p^k = {caps[i]}")
    return out


def _cells(labels) -> list[list[int]]:
    """The cells of a label row as sorted vertex lists, ordered by least vertex."""
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(labels.tolist(), start=1):
        cells.setdefault(c, []).append(v)
    return sorted(cells.values())


def _check_bridge_shape(p: int, N: int) -> None:
    """The bridge's input checks, p before the N bound: bad input exits 2 even
    where N is also out of bounds."""
    if p not in (2, 3, 5):
        raise ValueError(f"p must be one of 2, 3, 5, got {p}")
    check_bound(f"N={N}", "bridge experiment bound 12", 12, times=N)


def run_bridge_roundtrip(p: int, hg: Hypergraph, *, seed: int = 0) -> ExperimentReport:
    """Exercise both directions of the coloring <-> avoiding-subgroup bridge.

    Direction (a): every proper partition of [1, N] yields the subgroup cut
    out by its cell-sum characters; for p-uniform families it must avoid the
    family's indicator vectors.  Direction (b): every avoiding codim-k
    subgroup yields a proper partition with <= p^k cells, vertex v's cell
    being given by column v of the annihilator.  For families whose edge
    sizes are divisible by p but larger than p, direction (a) avoidance is
    recorded observationally rather than asserted.

    Both directions are scans of fpgroup.scan_avoiding, one row per partition
    or avoider, and no Subgroup object is built.  In (a) a partition is a row
    of cell labels: for N <= 8 the candidates are every row of the memoized
    _partition_table(N), otherwise seeded random draws, and one _monochromatic
    pass keeps the proper ones.  A partition's cell-indicator rows, cells
    ordered by least vertex, are already the canonical annihilator of its
    subgroup (disjoint cells, each led by a 1 at its least vertex), gathered
    from lex_coords(2, N) by their bitmasks; the partitions the scan does not
    hit are those whose subgroup meets the indicator set.  In (b) one
    _induced_violations pass checks the avoiders of every scanned level, their
    labels being their columns coded as integers, sum_r A[r, v] p^r; the
    levels are 1..k, k the last that fits in _BRIDGE_BUDGET.
    """
    N, edges = hg.n, hg.edges
    _check_bridge_shape(p, N)
    for e in edges:
        if len(e) % p != 0:
            raise ValueError(f"edge {list(e)} has size not divisible by p={p}")
    uniform = all(len(e) == p for e in edges)
    chi = hypergraph_chromatic(hg)
    E_fam = family_indicator_set(hg, p)

    # Direction (a): partitions -> subgroups.
    if N <= 8:
        labels = _partition_table(N)
        sampling = "exhaustive"
    else:
        rng = random.Random(seed)
        cap = min(N, 4)
        labels = np.array(
            [[rng.randrange(1, cap + 1) for _ in range(N)] for _ in range(_PARTITION_SAMPLES)]
        )
        sampling = "sampled"
    partitions_tested = len(labels)
    # The one filter of both branches: keeps the partitions with no monochromatic edge.
    labels = labels[_monochromatic(labels, edges) < 0]
    meets = np.ones(len(labels), dtype=bool)
    for _, hits in scan_avoiding(lex_coords(2, N), [_cell_masks(labels)], [E_fam.rows()], p):
        meets[hits] = False
    violations = [
        f"uniform family: subgroup from partition {_cells(labels[i])} "
        "fails to avoid the indicator set"
        for i in np.flatnonzero(meets & uniform)
    ]
    uncertified = 0 if uniform else int(meets.sum())

    # Direction (b): avoiding subgroups -> partitions.
    found, tested, k_used = _avoiding_subgroups(E_fam)
    violations += _induced_violations(found, edges, p)

    verdicts = {"no_violations": not violations}
    results = {
        "N": N,
        "hypergraph_chi": chi,
        "uniform": uniform,
        "partition_sampling": sampling,
        "partitions_tested": partitions_tested,
        "proper_partitions": len(labels),
        "subgroups_tested": tested,
        "avoiding_subgroups": sum(map(len, found)),
        "subgroup_codim_scanned": k_used,
        "direction_a_uncertified": uncertified,
        "violations": violations,
    }
    return ExperimentReport(
        "ep_roundtrip",
        {"p": p, "seed": seed, "k_max": N},
        results,
        verdicts,
        {"hypergraph": _hypergraph_digest(hg)},
    )


def exp_ep_roundtrip(p: int, N: int, family: str, seed: int = 0) -> ExperimentReport:
    """Bridge roundtrip on a named family: all-pairs, ap3, or gallai squares."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if family not in ("all-pairs", "ap3", "gallai"):
        named = "ep-roundtrip needs --family" if family is None else f"unknown family {family!r}"
        raise ValueError(f"{named}; expected all-pairs, ap3 or gallai")
    _check_bridge_shape(p, N)
    if family == "all-pairs":
        hg = Hypergraph.from_edge_lists(N, itertools.combinations(range(1, N + 1), 2))
    elif family == "ap3":
        hg = ap3_hypergraph(N)
    else:
        W = math.isqrt(N)
        if W < 2 or W * W != N:
            raise ValueError(f"gallai family needs a square N >= 4, got {N}")
        hg = gallai_square_hypergraph(W)
    report = run_bridge_roundtrip(p, hg, seed=seed)
    report.parameters["family"] = family
    report.parameters["N"] = N
    return report


def exp_lift_transfer(
    p: int, d: int, n: int, m: int | None = None, S: VecSet | None = None, seed: int = 0
) -> ExperimentReport:
    """Pull S (default: weight min(p, n)) back through a seeded covering homomorphism
    (default m = p^n) into the weight-d slice; report deficiency levels (observational)."""
    check_prime(p)
    if d % p != 0 or d <= 2:
        raise ValueError(f"d must be > 2 and divisible by p, got d={d}, p={p}")
    check_order(p, n)
    m = p**n if m is None else m
    if m < p**n:
        raise ValueError(f"m={m} too small for a covering map; need m >= p^n = {p**n}")
    check_bound(f"C(m, d) = C({m}, {d})", "slice bound 200000", 200_000, n=m, k=d)
    check_bound(f"C(m, d) * m = C({m}, {d}) * {m}", "slice entry bound 2^25", 2**25,
                times=m, n=m, k=d)
    S = weight_d_set(p, n, min(p, n)) if S is None else S
    if S.p != p or S.n != n:
        raise ValueError("S must live in F_p^n")
    # One seeded choice and one report row per column of rho.
    check_bound(f"m = {m}", "rho column bound 2^16", 2**16, times=m)
    rng = random.Random(seed)
    order = list(range(p**n))
    rng.shuffle(order)
    columns = lex_coords(p, n)[order + [rng.choice(order) for _ in range(m - len(order))]]
    E = weight_d_set(p, m, d)
    S_lift = preimage_intersect(columns, S, E)
    # Apart from preimage_intersect: a lift point maps to the sum of its d
    # columns, looked up a chunk of lift rows at a time.
    lift = S_lift.rows()
    images = (
        columns[lift[sl].nonzero()[1].reshape(-1, d)].sum(axis=1, dtype=np.int64) % p
        for sl in chunk_slices(len(lift), m)
    )
    mapped_ok = all((S.positions(y) >= 0).all() for y in images)
    k_S = _feasible_k_max(p, n, _LEVEL_BUDGET)
    k_lift = _feasible_k_max(p, m, _LEVEL_BUDGET)
    rep_S = bohr_deficiency(S, k_S, "S") if k_S >= 1 else None
    rep_lift = bohr_deficiency(S_lift, k_lift, "S_lift") if k_lift >= 1 else None
    witnesses_ok = all(
        verify(rep.witness, T)[0]
        for rep, T in ((rep_S, S), (rep_lift, S_lift))
        if rep is not None and rep.witness is not None
    )
    results = {
        "rho_columns": columns.tolist(),
        "lift_size": len(S_lift),
        "slice_size": len(E),
        "deficiency_S": rep_S.to_dict() if rep_S else None,
        "deficiency_lift": rep_lift.to_dict() if rep_lift else None,
    }
    verdicts = {"lift_maps_into_S": mapped_ok, "deficiency_witnesses_valid": witnesses_ok}
    return ExperimentReport(
        "lift_transfer",
        {"p": p, "d": d, "n": n, "m": m, "seed": seed},
        results,
        verdicts,
        {"S": _vecset_digest(S)},
    )


# The subgroup budgets of _feasible_k_max.  They are not guards: each cuts
# the levels a report covers, and the report records the cut.
_BRIDGE_BUDGET = 100_000  # bridge direction (b)
_LEVEL_BUDGET = 50_000  # profile-scan, and lift-transfer for S and for the lift
_BOG_BUDGET = 20_000  # bog-scan


@lru_cache(maxsize=None)
def _feasible_k_max(p: int, n: int, budget: int) -> int:
    """The largest k <= n with C(n, 1)_p + ... + C(n, k)_p <= budget, each level
    counted by bounded_count, so no count much wider than budget is formed;
    memoized, as every bridge and bog-scan op asks again."""
    k = total = 0
    while k < n:
        total += bounded_count(budget, p=p, n=n, k=k + 1)
        if total > budget:
            break
        k += 1
    return k


# Memory for one block of poincare trials: their difference rows, scan
# points and pairing bits.
_POINCARE_BLOCK_BYTES = 4 * 2**20


def exp_poincare(p: int, n: int, k: int, trials: int, seed: int = 0) -> ExperimentReport:
    """Pigeonhole shadow of the difference-set recurrence theorem.

    With |E| = p^k + 1, the distinct-difference set of E must meet every
    codim-k subgroup; any failure fails the run.  The |E| = p^k arm is
    observational only.
    """
    check_prime(p)
    if not 0 <= k < n:
        raise ValueError(f"need 0 <= k < n, got k={k}, n={n}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_bound(f"p^n = {p}^{n}", "sampling bound 2^14", 2**14, p=p, e=n)
    U = lex_coords(p, n)
    rows = dual_rows(p, n)
    level = annihilator_level(p, n, k)
    rng = random.Random(seed)

    def run_arm(size: int) -> int:
        # One scan per block of trials: trial t fails when some subgroup
        # misses the differences of its distinct points, point set t of the
        # scan.  A subgroup holds x exactly when it holds -x, so one sign of
        # each difference suffices, and each set has m <= p^n - 1 points.
        # Blocks hold about _POINCARE_BLOCK_BYTES, so memory does not grow
        # with the trial count, and draw in the order of one whole-arm draw.
        # Per trial: its picks (an int object and a coordinate row each),
        # its difference row (p^n bytes), each point (n bytes) and its
        # float32 column in the scan (4(n + 1)), and m bits of Z per dual row.
        m = min(size * (size - 1) // 2, len(U) - 1)
        per_trial = size * (n + 36) + len(U) + m * (5 * n + 4) + len(rows) * (m // 8 + 1)
        block = max(1, _POINCARE_BLOCK_BYTES // per_trial)
        failures = 0
        for lo in range(0, trials, block):
            t = min(block, trials - lo)
            picks = [rng.sample(range(len(U)), size) for _ in range(t)]
            member = distinct_differences(U[picks], p)
            points = U[member.nonzero()[1]]
            ends = np.cumsum(member.sum(axis=1)).tolist()
            sets = [points[a:b] for a, b in zip([0] + ends, ends)]
            failed = np.zeros(t, dtype=bool)
            for _, hits in scan_avoiding(rows, [level], sets, p):
                failed[hits % t] = True
            failures += int(failed.sum())
        return failures

    failures = run_arm(p**k + 1)
    observational_failures = run_arm(p**k)
    verdicts = {"no_failures_at_pigeonhole_size": failures == 0}
    results = {
        "subgroups_per_trial": len(level),
        "failures": failures,
        "observational_failures_at_smaller_size": observational_failures,
        "trials": trials,
    }
    return ExperimentReport(
        "poincare",
        {"p": p, "n": n, "k": k, "trials": trials, "seed": seed},
        results,
        verdicts,
        {},
    )


def _family_set(p: int, n: int, selector: str) -> VecSet:
    if selector == "e1":
        return weight_d_set(p, n, 1)
    if selector == "e2":
        if n < 2:
            raise ValueError("e2 needs n >= 2")
        return weight_d_set(p, n, 2)
    if selector == "ep":
        if n < p:
            raise ValueError(f"ep needs n >= p = {p}")
        return weight_d_set(p, n, p)
    if selector == "ap3":
        if n < 3:
            raise ValueError("ap3 needs n >= 3")
        return family_indicator_set(ap3_hypergraph(n), p)
    raise ValueError(f"unknown set family {selector!r}")


def exp_profile_scan(
    p: int,
    family: str,
    n_range: tuple[int, int],
    k_max: int,
    r_max: int,
) -> ExperimentReport:
    """Observational sweep: deficiency level vs Cayley chromatic number."""
    check_prime(p)
    lo, hi = n_range
    if lo > hi or lo < 1:
        raise ValueError(f"bad n range {n_range}")
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    check_bound(f"p^n = {p}^{hi}", "scan bound 2^12", 2**12, p=p, e=hi)
    rows = []
    for n in range(lo, hi + 1):
        S_n = _family_set(p, n, family)
        km = min(k_max, _feasible_k_max(p, n, _LEVEL_BUDGET))
        chi, _ = chromatic_number_exact(build_cayley(VecSet.full(p, n), S_n), max_colors=r_max)
        chi_str = f">{r_max}" if chi == r_max + 1 and chi != INFINITE else _chi_json(chi)
        rep = bohr_deficiency(S_n, km, f"{family}(n={n})")
        rows.append(
            {
                "n": n,
                "set_size": len(S_n),
                "deficiency_level": rep.deficient_at,
                "recurrent_up_to": rep.recurrent_up_to,
                "k_max_used": km,
                "chi": chi_str,
            }
        )
    results = {"profile": rows}
    return ExperimentReport(
        "profile_scan",
        {"p": p, "family": family, "n_range": list(n_range), "k_max": k_max, "r_max": r_max},
        results,
        {"completed": True},
        {},
    )


# Memory for one block of bog-scan covers: their sumset layers and scan points.
_BOG_BLOCK_BYTES = 4 * 2**20


def exp_bog_scan(
    p: int,
    d: int,
    n: int,
    r: int,
    budget: int = 200,
    seed: int = 0,
) -> ExperimentReport:
    """Scan r-covers of F_p^n for the least codimension c such that some cell's
    d-fold distinct sumset contains a full codim-c subgroup (observational)."""
    check_prime(p)
    if d % p != 0 or d <= 2:
        raise ValueError(f"d must be > 2 and divisible by p, got d={d}, p={p}")
    if r < 1:
        raise ValueError("r must be >= 1")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    # Each cover's sumset DP adds every element of F_p^n to up to d >= 3 layers of up
    # to p^n sums; 2^18 of that work keeps a cover well under a second, and p^n <= 295.
    check_bound(f"({p}^{n})^2 * {d} DP steps", "sumset bound 2^18", 2**18, times=d, p=p, e=2 * n)
    U = lex_coords(p, n)
    size = len(U)
    c_max = _feasible_k_max(p, n, _BOG_BUDGET)
    rows = dual_rows(p, n)
    levels = [annihilator_level(p, n, c) for c in range(c_max + 1)]

    def least_codims(labels: np.ndarray) -> np.ndarray:
        # One row per nonempty (cover, cell): each cover's distinct labels.
        ordered = np.sort(labels, axis=1)
        first = np.ones(ordered.shape, dtype=bool)
        first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
        owner = np.nonzero(first)[0]
        sums = distinct_sumsets(labels[owner] == ordered[first][:, None], p, n, d)
        # A subgroup lies inside a sumset exactly when it misses the sumset's
        # complement in F_p^n; a sumset without 0 holds no subgroup.  Levels
        # are scanned by codimension, so a cover's first hit has its least one.
        kept = sums[:, 0]
        owner = owner[kept]
        codims = np.full(len(labels), -1)
        for level, hits in scan_avoiding(rows, levels, [U[~T] for T in sums[kept]], p):
            g = owner[hits % len(owner)]
            codims[g[codims[g] < 0]] = level.shape[1]
            if codims[owner].min() >= 0:
                break
        return codims

    if r**size <= budget:
        assignments = itertools.product(range(r), repeat=size)
        mode = "exhaustive"
    else:
        rng = random.Random(seed)
        assignments = (
            tuple(rng.randrange(r) for _ in range(size)) for _ in range(budget)
        )
        mode = "random"
    # Covers run in blocks of about _BOG_BLOCK_BYTES, so memory does not grow
    # with the budget.  Per (cell, point) of a cover: the d + 1 sumset layers
    # and the DP's two d-layer temporaries (one row per cover, as each x lies
    # in one cell of it, so counted here with room to spare), the outside
    # point (n bytes) and its float32 column in the scan (4(n + 1)), a bit of
    # Z per dual row (at most size / 8 bytes) and the labels.
    cells = min(r, size)
    block = max(1, _BOG_BLOCK_BYTES // (cells * size * (3 * d + 5 * n + size // 8 + 8)))
    records = []
    while chunk := list(itertools.islice(assignments, block)):
        records.extend(least_codims(np.array(chunk)))
    histogram: dict[str, int] = {}
    for c in records:
        key = "none" if c < 0 else str(c)
        histogram[key] = histogram.get(key, 0) + 1
    results = {
        "mode": mode,
        "covers_scanned": len(records),
        "c_max_probed": c_max,
        "least_codim_histogram": dict(sorted(histogram.items())),
    }
    return ExperimentReport(
        "bog_scan",
        {"p": p, "d": d, "n": n, "r": r, "budget": budget, "seed": seed},
        results,
        {"completed": True},
        {},
    )
