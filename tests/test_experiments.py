import hashlib
import itertools
import json
import math
import random
import time

import numpy as np
import pytest

from fprec.colorings import (
    Hypergraph,
    _monochromatic,
    characters_to_coloring,
    coloring_to_avoiding_subgroup,
    hypergraph_chromatic,
    proper_partitions,
    verify,
)
from fprec.experiments import (
    _avoiding_subgroups,
    _cell_masks,
    _feasible_k_max,
    _induced_violations,
    _partition_table,
    exp_bog_scan,
    exp_ep_roundtrip,
    exp_lift_transfer,
    exp_poincare,
    exp_profile_scan,
    exp_s_square,
    run_bridge_roundtrip,
)
from fprec.families import (
    ap3_hypergraph,
    family_indicator_set,
    gallai_square_hypergraph,
    weight_d_set,
)
from fprec import experiments, fpgroup
from fprec.cli import main
from fprec.fileio import write_hypergraph
from fprec.fpgroup import (
    FpMatrix,
    FpVec,
    ResourceGuardError,
    Subgroup,
    all_vectors,
    annihilator_array,
    enum_codim_subgroups,
    gaussian_binomial,
    lex_coords,
    scan_avoiding,
)
from fprec.setops import VecSet, dfold_distinct_sumset_bruteforce


def bog_scan_reference(p, d, n, r, budget, seed, c_max):
    """Least-codimension histogram by the definition: some subgroup's element
    set is a subset of some cell's d-fold distinct sumset."""
    universe = list(all_vectors(p, n))
    subgroups = [
        [frozenset(x.coords for x in H.elements()) for H in enum_codim_subgroups(p, n, c)]
        for c in range(c_max + 1)
    ]
    size = len(universe)
    if r**size <= budget:
        assignments = itertools.product(range(r), repeat=size)
    else:
        rng = random.Random(seed)
        assignments = (tuple(rng.randrange(r) for _ in range(size)) for _ in range(budget))
    hist = {}
    for assignment in assignments:
        cells = [VecSet(p, n, tuple(v for v, a in zip(universe, assignment) if a == j))
                 for j in range(r)]
        sums = [dfold_distinct_sumset_bruteforce(A, d).coord_tuples() for A in cells if len(A)]
        c = next((c for c in range(c_max + 1)
                  if any(elems <= T for elems in subgroups[c] for T in sums)), None)
        key = "none" if c is None else str(c)
        hist[key] = hist.get(key, 0) + 1
    return dict(sorted(hist.items()))


def poincare_reference(p, n, k, trials, seed):
    """exp_poincare's failure counts by the definitions: distinct differences
    by FpVec subtraction, and a failure when some codim-k subgroup contains
    none of them, tested with Subgroup.contains."""
    universe = list(all_vectors(p, n))
    subgroups = list(enum_codim_subgroups(p, n, k))
    rng = random.Random(seed)

    def arm(size):
        failures = 0
        for _ in range(trials):
            E = rng.sample(universe, size)
            D = {a - b for a in E for b in E if a != b}
            failures += any(not any(H.contains(x) for x in D) for H in subgroups)
        return failures

    return arm(p**k + 1), arm(p**k)


def induced_reference(rows_list, hg, p):
    """Direction (b) one avoider at a time: the partition its characters
    induce, checked with verify and against the p^k cell bound."""
    out = []
    for rows in rows_list:
        part = characters_to_coloring(rows, hg.n)
        proper, bad = verify(part, hg)
        if not proper:
            out.append(f"partition induced by avoiding subgroup has monochromatic edge {bad}")
        if max(part) > p ** len(rows):
            out.append(f"induced partition has {max(part)} cells > p^k = {p ** len(rows)}")
    return out


def bridge_reference(p, hg, seed=0, partition_samples=500, subgroup_budget=100_000):
    """run_bridge_roundtrip's results computed one partition and one subgroup
    at a time: a Subgroup per proper partition, checked with verify, and the
    avoiders found by enum_codim_subgroups and verify."""
    N = hg.n
    E_fam = family_indicator_set(hg, p)
    uniform = all(len(e) == p for e in hg.edges)
    bell = [1]
    for i in range(N):
        bell.append(sum(math.comb(i, j) * bell[j] for j in range(i + 1)))
    if bell[N] <= 5000:
        proper = list(proper_partitions(hg, N))
        tested, sampling = bell[N], "exhaustive"
    else:
        rng = random.Random(seed)
        draws = [
            tuple(rng.randrange(1, min(N, 4) + 1) for _ in range(N))
            for _ in range(partition_samples)
        ]
        proper = [part for part in draws if verify(part, hg)[0]]
        tested, sampling = partition_samples, "sampled"
    violations = []
    uncertified = 0
    for part in proper:
        cells = sorted([v for v in range(1, N + 1) if part[v - 1] == c] for c in set(part))
        H = coloring_to_avoiding_subgroup(part, hg, p)
        if H.codim > len(cells):
            violations.append(f"codim {H.codim} exceeds cell count {len(cells)}")
        if not verify(H, E_fam)[0]:
            if uniform:
                violations.append(
                    f"uniform family: subgroup from partition {cells} "
                    "fails to avoid the indicator set"
                )
            else:
                uncertified += 1
    found, scanned, k_used = [], 0, 0
    for k in range(1, N + 1):
        if scanned + gaussian_binomial(N, k, p) > subgroup_budget:
            break
        for H in enum_codim_subgroups(p, N, k):
            if verify(H, E_fam)[0]:
                found.append([list(row) for row in H.annihilator.entries])
        scanned += gaussian_binomial(N, k, p)
        k_used = k
    violations += induced_reference(found, hg, p)
    return {
        "N": N, "hypergraph_chi": hypergraph_chromatic(hg), "uniform": uniform,
        "partition_sampling": sampling, "partitions_tested": tested,
        "proper_partitions": len(proper), "subgroups_tested": scanned,
        "avoiding_subgroups": len(found), "subgroup_codim_scanned": k_used,
        "direction_a_uncertified": uncertified, "violations": violations,
    }


def random_bridge_hypergraph(rng, p, N, edge_count, uniform):
    """Edges of size p, plus (non-uniform) one edge of size 2p and further
    edges of any size divisible by p."""
    sizes = [p] if uniform else list(range(p, N + 1, p))
    edges = [] if uniform else [rng.sample(range(1, N + 1), 2 * p)]
    edges += [rng.sample(range(1, N + 1), rng.choice(sizes)) for _ in range(edge_count)]
    return Hypergraph.from_edge_lists(N, edges)


class TestSSquare:
    def test_w2_worked_instance(self):
        report = exp_s_square(2)
        assert report.ok
        assert report.results["chi"] == 2
        assert report.results["num_vertices"] == 6
        # Direct computation: the three complementary 2-subset pairs each form
        # a single-edge component (side-pair paths truncate to edges at W=2).
        assert report.results["component_histogram"] == {"single-edge": 3}

    def test_w4(self):
        report = exp_s_square(4)
        assert report.ok
        assert report.results["component_histogram"].get("other(branching)") is None

    def test_w_out_of_range(self):
        with pytest.raises(ValueError):
            exp_s_square(1)

    # sha256 of the JSON reports at W = 7 and 8 (vectors of 49 and 64
    # coordinates), recorded when build_cayley probed on packed integer
    # codes; any change to the graph, coloring or census changes them.
    @pytest.mark.parametrize("W,digest", [
        (7, "32f3ff66f63e3307c5a52dc9967e0203fb23b426e62f30a4d9e811c82597a75d"),
        (8, "84c854c443b6f3aa0975b9a012fc5b3419f78da3f4834c15dd406cd7ba52fd93"),
    ])
    def test_wide_report_digests_pinned(self, W, digest):
        report = exp_s_square(W)
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


class TestEpRoundtrip:
    def test_single_pair_family(self):
        hg = Hypergraph.from_edge_lists(2, [{1, 2}])
        report = run_bridge_roundtrip(2, hg)
        assert report.ok
        assert report.results["hypergraph_chi"] == 2
        assert report.results["avoiding_subgroups"] >= 1

    def test_ap3_p3(self):
        report = exp_ep_roundtrip(3, 4, "ap3")
        assert report.ok

    def test_gallai_w3(self):
        report = exp_ep_roundtrip(2, 9, "gallai", seed=5)
        assert report.ok
        assert report.results["uniform"] is False

    def test_wrong_edge_size(self):
        hg = Hypergraph.from_edge_lists(3, [{1, 2, 3}])
        with pytest.raises(ValueError):
            run_bridge_roundtrip(2, hg)

    def test_scale_guard(self):
        hg = Hypergraph.from_edge_lists(13, [{1, 2}])
        with pytest.raises(ResourceGuardError):
            run_bridge_roundtrip(2, hg)

    def test_shuffled_edge_lists_give_one_hypergraph(self, tmp_path):
        # The same edges, listed in shuffled order with shuffled vertices and
        # repeats, make equal hypergraphs that iterate their edges alike, so
        # verify names the same counterexample and files and reports match.
        rng = random.Random(41)
        for trial in range(300):
            p, N = rng.choice([(2, 6), (2, 8), (3, 6)])
            edges = [rng.sample(range(1, N + 1), p) for _ in range(rng.randrange(1, 12))]
            shuffled = [rng.sample(e, len(e)) for e in edges + rng.sample(edges, len(edges) // 2)]
            rng.shuffle(shuffled)
            a = Hypergraph.from_edge_lists(N, edges)
            b = Hypergraph.from_edge_lists(N, shuffled)
            assert a == b and hash(a) == hash(b) and a.edges == b.edges
            assert a.edges == tuple(sorted({tuple(sorted(e)) for e in edges}))
            for _ in range(5):
                coloring = tuple(rng.randrange(1, 3) for _ in range(N))
                assert verify(coloring, a) == verify(coloring, b)
            if trial % 10 == 0:
                write_hypergraph(a, tmp_path / "a.txt")
                write_hypergraph(b, tmp_path / "b.txt")
                assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
                assert run_bridge_roundtrip(p, a).to_json() == run_bridge_roundtrip(p, b).to_json()

    @pytest.mark.parametrize("p, hg", [
        (2, Hypergraph.from_edge_lists(5, itertools.combinations(range(1, 6), 2))),
        (3, ap3_hypergraph(6)),
    ])
    def test_k_max_above_n_scans_as_k_max_n(self, p, hg):
        # The report's k_max is N, and every level up to N fits in the budget here.
        report = run_bridge_roundtrip(p, hg)
        assert report.parameters["k_max"] == hg.n
        assert report.results["subgroup_codim_scanned"] == hg.n

    @pytest.mark.parametrize("p, hg, budget", [
        (2, Hypergraph.from_edge_lists(4, itertools.combinations(range(1, 5), 2)), 10**5),
        (3, ap3_hypergraph(5), 200),
        (2, gallai_square_hypergraph(2), 10**5),
    ])
    def test_avoiding_subgroups_are_verified_enumeration(self, p, hg, budget, monkeypatch):
        monkeypatch.setattr(experiments, "_BRIDGE_BUDGET", budget)
        E_fam = family_indicator_set(hg, p)
        found, tested, k_used = _avoiding_subgroups(E_fam)
        expected = [
            [list(row) for row in H.annihilator.entries]
            for k in range(1, k_used + 1)
            for H in enum_codim_subgroups(p, E_fam.n, k)
            if verify(H, E_fam)[0]
        ]
        assert [A.shape[1:] for A in found] == [(k, E_fam.n) for k in range(1, k_used + 1)]
        assert [a.tolist() for A in found for a in A] == expected
        assert tested == sum(gaussian_binomial(E_fam.n, k, p) for k in range(1, k_used + 1))

    # (p, N, edges, uniform, seed, subgroup_budget); N >= 9 takes the sampled
    # branch (more than 5000 set partitions).
    @pytest.mark.parametrize("p, N, m, uniform, seed, budget", [
        (2, 3, 0, True, 0, 10**5), (2, 4, 3, True, 1, 10**5), (2, 5, 6, True, 2, 10**5),
        (2, 6, 4, False, 3, 10**5), (2, 7, 8, True, 4, 3000), (2, 8, 5, False, 5, 3000),
        (3, 4, 2, True, 6, 10**5), (3, 6, 5, True, 7, 2000), (3, 6, 3, False, 8, 2000),
        (3, 8, 6, False, 9, 3300), (5, 5, 1, True, 10, 25_000), (5, 6, 3, True, 11, 4000),
        (2, 9, 7, True, 12, 3000), (2, 9, 4, False, 13, 3000), (3, 10, 6, False, 14, 2000),
        (5, 10, 2, False, 15, 2000),
    ])
    def test_bridge_matches_reference(self, p, N, m, uniform, seed, budget, monkeypatch):
        monkeypatch.setattr(experiments, "_BRIDGE_BUDGET", budget)
        hg = random_bridge_hypergraph(random.Random(seed), p, N, m, uniform)
        assert all(len(e) == p for e in hg.edges) == uniform
        report = run_bridge_roundtrip(p, hg, seed=seed)
        expected = bridge_reference(p, hg, seed=seed, subgroup_budget=budget)
        assert report.results == expected
        assert report.results["partition_sampling"] == ("exhaustive" if N <= 8 else "sampled")

    @pytest.mark.parametrize("p, hg", [
        (2, Hypergraph.from_edge_lists(5, [{1, 2}, {2, 3}, {3, 4}, {1, 5}])),
        (2, Hypergraph.from_edge_lists(6, [{1, 2, 3, 4}, {5, 6}, {2, 5}, {1, 2, 5, 6}])),
        (3, Hypergraph.from_edge_lists(6, [{1, 2, 3}, {4, 5, 6}, {1, 2, 3, 4, 5, 6}])),
    ])
    def test_induced_violations_match_reference(self, p, hg):
        # Every annihilator of levels 1 and 2, avoiding or not, so many rows
        # induce a monochromatic edge; plus k = 1 rows with more than p cells.
        edges = [sorted(e) for e in hg.edges]
        for k in (1, 2):
            A = annihilator_array(p, hg.n, k)
            got = _induced_violations([A], edges, p)
            assert got == induced_reference(A.tolist(), hg, p)
            assert any("monochromatic" in s for s in got)
        rng = np.random.default_rng(p)
        A = rng.integers(0, hg.n, size=(30, 1, hg.n), dtype=np.int8)
        got = _induced_violations([A], edges, p)
        assert got == induced_reference(A.tolist(), hg, p)
        assert any("cells > p^k" in s for s in got)

    @pytest.mark.parametrize("p, hg", [
        (2, Hypergraph.from_edge_lists(5, [{1, 2}, {2, 3}, {3, 4}, {1, 5}])),
        (2, Hypergraph.from_edge_lists(6, [{1, 2, 3, 4}, {5, 6}, {2, 5}, {1, 2, 5, 6}])),
        (3, Hypergraph.from_edge_lists(6, [{1, 2, 3}, {4, 5, 6}, {1, 2, 3, 4, 5, 6}])),
    ])
    def test_merged_induced_violations_match_reference(self, p, hg, monkeypatch):
        # Direction (b) checks every level in one call.  Each level shuffles
        # all its annihilators, many inducing a monochromatic edge, with rows
        # of up to N cells: first row in [0, N), a permutation in half of
        # them, and the other rows zero, so column codes stay distinct.  An
        # empty level sits between them.  Each row's cap is its own level's
        # p^k, and a tiny chunk makes the one pass cross chunk boundaries.
        monkeypatch.setattr(fpgroup, "_CHUNK", 7)
        edges = [sorted(e) for e in hg.edges]
        rng = np.random.default_rng(p)
        found = []
        for k in (1, 2, 3):
            wide = np.zeros((20, k, hg.n), dtype=np.int8)
            wide[:, 0] = rng.integers(0, hg.n, size=(20, hg.n))
            wide[:10, 0] = [rng.permutation(hg.n) for _ in range(10)]
            level = np.concatenate([annihilator_array(p, hg.n, k), wide])
            found.append(level[rng.permutation(len(level))])
        found.insert(2, np.zeros((0, 3, hg.n), dtype=np.int8))
        got = _induced_violations(found, edges, p)
        expected = [s for A in found for s in induced_reference(A.tolist(), hg, p)]
        assert got == expected
        assert any("monochromatic" in s for s in got)
        caps = {p**k for k in (1, 2, 3) if hg.n > p**k}
        assert caps and {int(s.rsplit("= ", 1)[1]) for s in got if "cells > p^k" in s} == caps
        assert _induced_violations([], edges, p) == []

    def test_bridge_checks_induced_partitions_once(self, monkeypatch):
        # One direction-(b) pass per op however many levels are scanned.
        calls = []
        check = experiments._induced_violations

        def counted(found, edges, p):
            calls.append(len(found))
            return check(found, edges, p)

        monkeypatch.setattr(experiments, "_induced_violations", counted)
        report = run_bridge_roundtrip(2, Hypergraph.from_edge_lists(
            5, itertools.combinations(range(1, 6), 2)))
        assert calls == [5] and report.results["subgroup_codim_scanned"] == 5

    def test_bridge_direction_a_failure_reported(self, tmp_path, capsys, monkeypatch):
        # With every cell named by the zero row, each proper partition's
        # subgroup is the whole group, which meets the indicator set.
        monkeypatch.setattr(experiments, "_cell_masks",
                            lambda labels: np.zeros((len(labels), labels.max()), dtype=np.intp))
        hg = Hypergraph.from_edge_lists(3, [(1, 2), (2, 3)])
        expected = [
            f"uniform family: subgroup from partition {cells} fails to avoid the indicator set"
            for cells in ([[1, 3], [2]], [[1], [2], [3]])
        ]
        report = run_bridge_roundtrip(2, hg)
        assert report.results["violations"] == expected
        assert report.verdicts == {"no_violations": False}
        write_hypergraph(hg, tmp_path / "h.txt")
        assert main(["bridge", "--in", str(tmp_path / "h.txt"), "--p", "2"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["violations"] == expected
        assert doc["verdicts"] == {"no_violations": False}

    @pytest.mark.parametrize("N", range(9))
    def test_partition_table_is_every_partition_in_order(self, N):
        # Direction (a)'s exhaustive candidates: every restricted-growth row,
        # in the order proper_partitions yields them when no edge constrains.
        table = _partition_table(N)
        expected = list(proper_partitions(Hypergraph(N, ()), N))
        assert table.tolist() == [list(part) for part in expected]
        bell = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
        assert table.shape == (bell[N], N) and table.dtype == np.int8
        assert not table.flags.writeable
        assert _partition_table(N) is table

    @pytest.mark.parametrize("N, sampling, tested", [(8, "exhaustive", 4140), (9, "sampled", 500)])
    def test_partitions_exhaustive_up_to_n_8(self, N, sampling, tested):
        # Bell(8) = 4,140 <= 5,000 < Bell(9) = 21,147.  partitions_tested
        # counts the candidates before the edge {1, 2} filters some out.
        results = run_bridge_roundtrip(2, Hypergraph.from_edge_lists(N, [{1, 2}])).results
        assert (results["partition_sampling"], results["partitions_tested"]) == (sampling, tested)
        assert results["proper_partitions"] < tested

    def test_monochromatic_first_edge_in_edge_order(self):
        rng = random.Random(31)
        for _ in range(20):
            N = rng.randrange(2, 9)
            hg = Hypergraph.from_edge_lists(N, [
                rng.sample(range(1, N + 1), rng.randrange(2, N + 1))
                for _ in range(rng.randrange(1, 7))
            ])
            edges = [sorted(e) for e in hg.edges]
            labels = np.array([[rng.randrange(1, 3) for _ in range(N)] for _ in range(40)])
            first = _monochromatic(labels, edges)
            for row, f in zip(labels.tolist(), first.tolist()):
                ok, bad = verify(tuple(row), hg)
                assert (f == -1) == ok
                assert ok or edges[f] == bad

    def test_kernel_meets_matches_subgroup_contains(self, monkeypatch):
        # Direction (a)'s path: a partition's subgroup meets the points exactly
        # when scan_avoiding does not hit its cell masks over lex_coords(2, N).
        # Rows with fewer cells, or a gap in their labels, are padded with mask
        # 0, the zero row; a tiny chunk makes every scan cross chunk boundaries.
        monkeypatch.setattr(fpgroup, "_CHUNK", 5)
        rng = random.Random(37)
        mixed = False
        for p in (2, 3, 5):
            for _ in range(10):
                N = rng.randrange(1, 7)
                labels = np.array([[rng.randrange(3) for _ in range(N)] for _ in range(20)]) + 1
                mixed |= len({len(set(row)) for row in labels.tolist()}) > 1
                points = [tuple(rng.randrange(p) for _ in range(N))
                          for _ in range(rng.randrange(0, 4))]
                expected = []
                for row in labels.tolist():
                    cells = [[int(c == lab) for c in row] for lab in sorted(set(row))]
                    H = Subgroup.from_dual_vectors([FpVec(p, tuple(r)) for r in cells], p=p, n=N)
                    expected.append(any(H.contains(FpVec(p, x)) for x in points))
                level = _cell_masks(labels)
                hits = {int(i) for _, a in scan_avoiding(lex_coords(2, N), [level], [points], p)
                        for i in a}
                assert [i not in hits for i in range(len(labels))] == expected
        assert mixed

    @pytest.mark.parametrize("N", range(13))
    def test_cell_masks_name_the_cell_indicator_rows(self, N):
        # Row m of lex_coords(2, N) is the 0/1 vector whose bits read m, so
        # the masks gather each label's cell-indicator row, and an absent
        # label the zero row: every partition up to N = 8, and beyond it
        # seeded draws of the labels 1, 2, 4 and 5, so 3 is always a gap.
        if N <= 8:
            labels = _partition_table(N)
        else:
            rng = random.Random(N)
            labels = np.array([[rng.choice([1, 2, 4, 5]) for _ in range(N)] for _ in range(300)])
        R, k = len(labels), int(labels.max(initial=0))
        cells = np.zeros((R, k, N), dtype=np.uint8)
        cells[np.arange(R)[:, None], labels - 1, np.arange(N)] = 1
        assert np.array_equal(lex_coords(2, N)[_cell_masks(labels)], cells)

    @pytest.mark.parametrize("N", [11, 12])
    def test_p5_bridge_scanning_no_level_needs_no_dual_table(self, N):
        # C(N, 1)_5 passes _BRIDGE_BUDGET for N >= 9, so (b) scans no level;
        # dual_rows(5, 11) has 12,207,031 rows and would trip the level guard.
        hg = Hypergraph.from_edge_lists(N, [range(1, 6), range(6, 11)])
        start = time.perf_counter()
        report = run_bridge_roundtrip(5, hg, seed=2)
        assert time.perf_counter() - start < 1
        assert report.ok and report.results["subgroup_codim_scanned"] == 0

    @pytest.mark.parametrize("p, hg", [
        (2, Hypergraph.from_edge_lists(5, itertools.combinations(range(1, 6), 2))),
        (2, gallai_square_hypergraph(2)),
        (3, ap3_hypergraph(7)),
        (2, Hypergraph.from_edge_lists(6, [{1, 2}, {3, 4, 5, 6}, {2, 3}])),
    ])
    def test_cell_indicators_are_the_canonical_annihilator(self, p, hg):
        # run_bridge_roundtrip reads a partition's subgroup off its cell
        # indicators without building it; this is why that is exact, and why
        # the subgroup's codimension is exactly the cell count.
        parts = list(proper_partitions(hg, hg.n))
        assert parts
        for part in parts:
            H = coloring_to_avoiding_subgroup(part, hg, p)
            cells = tuple(tuple(int(c == j) for c in part) for j in range(1, max(part) + 1))
            assert H.annihilator == FpMatrix(p, cells)
            assert H.codim == max(part)

    # Results recorded from the Subgroup-per-avoider driver with a separate
    # set-partition enumerator; exhaustive (all-pairs, ap3) and sampled (gallai).
    @pytest.mark.parametrize("p, hg, seed, results", [
        (2, Hypergraph.from_edge_lists(5, itertools.combinations(range(1, 6), 2)), 0, {
            "N": 5, "hypergraph_chi": 5, "uniform": True, "partition_sampling": "exhaustive",
            "partitions_tested": 52, "proper_partitions": 1, "subgroups_tested": 373,
            "avoiding_subgroups": 62, "subgroup_codim_scanned": 5,
            "direction_a_uncertified": 0, "violations": [],
        }),
        (3, ap3_hypergraph(7), 0, {
            "N": 7, "hypergraph_chi": 2, "uniform": True, "partition_sampling": "exhaustive",
            "partitions_tested": 877, "proper_partitions": 579, "subgroups_tested": 1093,
            "avoiding_subgroups": 45, "subgroup_codim_scanned": 1,
            "direction_a_uncertified": 0, "violations": [],
        }),
        (2, gallai_square_hypergraph(3), 5, {
            "N": 9, "hypergraph_chi": 2, "uniform": False, "partition_sampling": "sampled",
            "partitions_tested": 500, "proper_partitions": 460, "subgroups_tested": 43946,
            "avoiding_subgroups": 10240, "subgroup_codim_scanned": 2,
            "direction_a_uncertified": 230, "violations": [],
        }),
    ])
    def test_bridge_results_pinned(self, p, hg, seed, results):
        assert run_bridge_roundtrip(p, hg, seed=seed).results == results


class TestLiftTransfer:
    def test_worked_f2_example(self):
        S = VecSet(2, 2, (FpVec(2, (0, 0)), FpVec(2, (1, 0))))
        report = exp_lift_transfer(2, 4, 2, 4, S, seed=0)
        assert report.ok
        assert report.results["lift_size"] == 1

    def test_without_zero_empty(self):
        S = VecSet(2, 2, (FpVec(2, (1, 0)),))
        report = exp_lift_transfer(2, 4, 2, 4, S, seed=0)
        assert report.results["lift_size"] == 0

    def test_p3_random(self):
        S = weight_d_set(3, 1, 1)
        report = exp_lift_transfer(3, 3, 1, 9, S, seed=42)
        assert report.verdicts["lift_maps_into_S"]

    def test_m_too_small(self):
        with pytest.raises(ValueError):
            exp_lift_transfer(2, 4, 3, 4, weight_d_set(2, 3, 1))

    def test_d_not_divisible(self):
        with pytest.raises(ValueError):
            exp_lift_transfer(2, 3, 2, 4, weight_d_set(2, 2, 1))

    def test_lift_check_reads_every_chunk(self, monkeypatch):
        # One slice row outside the preimage joins the lift; in one-row
        # chunks it is not the first, and the check must still find it.
        real = experiments.preimage_intersect

        def with_bad_row(columns, S, E):
            lift = real(columns, S, E)
            bad = E.rows()[lift.positions(E.rows()) < 0][-1]
            assert bytes(bad) > bytes(lift.rows()[0])
            return VecSet.from_rows(E.p, E.n, np.vstack([lift.rows(), bad]))

        monkeypatch.setattr(experiments, "preimage_intersect", with_bad_row)
        monkeypatch.setattr(fpgroup, "_CHUNK", 1)
        report = exp_lift_transfer(2, 4, 3, seed=5)
        assert report.results["lift_size"] > 1
        assert report.verdicts["lift_maps_into_S"] is False


# sha256 of the JSON reports, recorded from the driver that drew rho as FpVec
# columns and checked each lift point with hom_apply; any change to a
# report's bytes changes them.  (p, d, n, m, S rows or None, seed, digest).
LIFT_TRANSFER_DIGESTS = [
    (2, 4, 3, None, None, 0, "c39e35c2dd5f7d0bc599da1fce72c4d06df6ecfe98e37a4d2c42106fd6f9cc9a"),
    (2, 4, 3, 40, None, 0, "9f5a47b7b818db4ba202fb0a9dd7c740c6ff28b699ec1694e20fcee6ec09d6c7"),
    (2, 4, 4, None, None, 0, "1d6cc0db6d0f7ffcf9bc51c6835f45aaec56bd11751c07b9bbb19c7039301c8b"),
    (3, 3, 2, 100, None, 0, "6d078b4383652e8283c965185c99bc4b4eef2a953ea830b0d532f3821f5d818b"),
    (3, 6, 2, 12, None, 7, "1b8c01fd51acaf37b12e60de32e150b37bb43ce0ea056f58142da8601415327d"),
    (5, 5, 2, None, None, 0, "ceb191a57af67a960a742e177bacea54e6bf36b6c3c562624311b297068c5641"),
    (5, 5, 1, 7, None, 2, "4668532b848f68caf4bce22d7e2411b2c4a0952b44f9e72077ba17ec25850308"),
    (2, 4, 3, 10, [[1, 1, 0], [0, 1, 1], [1, 1, 1]], 3,
     "4e0348f639abc847af0988978554fb02a600ad8452066379f940515c112dfa30"),
    (5, 5, 2, 26, [[1, 2], [3, 0], [4, 4]], 11,
     "3947348eccee7d2a696ed1a35ade629be1968a17d71e5cf40d230f97548ef50c"),
    # Images summing 258 entries of up to 2: past 255, so a uint8 sum would wrap.
    (3, 258, 2, 260, None, 0, "65a1bc357aa17e128a6a32bcb7fa7f0b741ad0777d27fcce38f99adefe097892"),
]


@pytest.mark.parametrize("p, d, n, m, S, seed, digest", LIFT_TRANSFER_DIGESTS)
def test_lift_transfer_report_digests_pinned(p, d, n, m, S, seed, digest):
    S = None if S is None else VecSet.from_rows(p, n, np.array(S))
    report = exp_lift_transfer(p, d, n, m, S, seed=seed)
    assert report.ok
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


def feasible_k_max_reference(p, n, budget):
    """The largest k with C(n, 1)_p + ... + C(n, k)_p <= budget, by exact counts."""
    k = total = 0
    while k < n and total + gaussian_binomial(n, k + 1, p) <= budget:
        total += gaussian_binomial(n, k + 1, p)
        k += 1
    return k


class TestFeasibleKMax:
    def test_matches_exact_counts(self):
        budgets = sorted({0, 1, 2, 3, 7, 100, 20_000, 50_000, 100_000, 10**9}
                         | {10**e + s for e in range(1, 9) for s in (-1, 0, 1)})
        for p in (2, 3, 5, 7, 31):
            for n in range(40):
                # Every partial sum of levels, and one either side of it.
                sums = itertools.accumulate(gaussian_binomial(n, k, p) for k in range(1, n + 1))
                edges = {s + t for s in sums if s <= 10**9 for t in (-1, 0, 1)}
                for budget in sorted(set(budgets) | edges):
                    assert _feasible_k_max(p, n, budget) == feasible_k_max_reference(p, n, budget), (
                        p, n, budget)

    def test_each_experiment_sizes_its_levels_by_its_budget(self, monkeypatch):
        # 100,000 subgroups for the bridge, 50,000 for profile-scan and each
        # lift-transfer scan, 20,000 for bog-scan.
        budgets = []
        feasible = experiments._feasible_k_max

        def recorded(p, n, budget):
            budgets.append(budget)
            return feasible(p, n, budget)

        monkeypatch.setattr(experiments, "_feasible_k_max", recorded)
        run_bridge_roundtrip(2, Hypergraph.from_edge_lists(3, [{1, 2}]))
        exp_profile_scan(2, "e1", (2, 2), 1, 2)
        exp_lift_transfer(2, 4, 2)
        exp_bog_scan(2, 4, 1, 2, budget=1)
        assert budgets == [100_000, 50_000, 50_000, 50_000, 20_000]

    def test_wide_level_is_refused_without_its_count(self):
        # C(4,000,000, 1)_31 has about six million digits; the bounded count
        # refuses it from n alone.
        start = time.perf_counter()
        assert _feasible_k_max(31, 4_000_000, 50_000) == 0
        assert time.perf_counter() - start < 0.5


class TestPoincare:
    def test_small_run_clean(self):
        report = exp_poincare(2, 4, 1, 50, seed=1)
        assert report.ok
        assert report.results["failures"] == 0

    def test_k_must_be_less_than_n(self):
        with pytest.raises(ValueError):
            exp_poincare(2, 3, 3, 10)

    @pytest.mark.parametrize("p,n,k,trials,seed", [
        (2, 3, 1, 30, 0), (2, 4, 1, 30, 1), (2, 4, 2, 20, 2), (2, 5, 2, 10, 3), (3, 2, 1, 30, 4),
        (3, 3, 1, 20, 5), (3, 3, 2, 5, 6), (5, 2, 1, 20, 7), (7, 2, 1, 10, 8), (2, 3, 0, 10, 9),
        (3, 2, 0, 10, 10), (5, 2, 0, 10, 11), (5, 3, 2, 3, 12),
    ])
    def test_failures_match_reference(self, p, n, k, trials, seed):
        results = exp_poincare(p, n, k, trials, seed=seed).results
        failures, observational = poincare_reference(p, n, k, trials, seed)
        assert results["failures"] == failures
        assert results["observational_failures_at_smaller_size"] == observational

    # Near k = n - 1, the p^k + 1 points of a trial have far more than p^n
    # ordered differences; each scanned set still holds distinct points only.
    @pytest.mark.parametrize("p,n,k,trials,seed", [(2, 7, 5, 3, 13), (3, 5, 3, 3, 14)])
    def test_k_near_n_matches_reference(self, monkeypatch, p, n, k, trials, seed):
        sizes = []

        def recorded_scan(rows, levels, sets, q):
            for s in sets:
                assert len({tuple(x) for x in s.tolist()}) == len(s)
                sizes.append(len(s))
            return scan_avoiding(rows, levels, sets, q)

        monkeypatch.setattr(experiments, "scan_avoiding", recorded_scan)
        results = exp_poincare(p, n, k, trials, seed=seed).results
        failures, observational = poincare_reference(p, n, k, trials, seed)
        assert results["failures"] == failures
        assert results["observational_failures_at_smaller_size"] == observational
        assert len(sizes) == 2 * trials and max(sizes) <= p**n - 1


    # A cap of 1 byte runs one trial per block, and 1,500 bytes 4 or 7 trials
    # of F_3^3 per block; one block at the default holds every trial.
    @pytest.mark.parametrize("cap", [1, 1_500])
    def test_blocks_of_trials_give_the_same_report(self, monkeypatch, cap):
        calls = []

        def counted_scan(*args):
            calls.append(len(args[2]))
            return scan_avoiding(*args)

        monkeypatch.setattr(experiments, "scan_avoiding", counted_scan)
        whole = exp_poincare(3, 3, 1, 23, seed=9).to_json()
        assert calls == [23, 23]
        calls.clear()
        monkeypatch.setattr(experiments, "_POINCARE_BLOCK_BYTES", cap)
        assert exp_poincare(3, 3, 1, 23, seed=9).to_json() == whole
        assert sum(calls) == 2 * 23 and len(calls) > 2


class TestProfileScan:
    def test_e1_deficiency_constant(self):
        report = exp_profile_scan(2, "e1", (2, 6), 2, 4)
        for row in report.results["profile"]:
            assert row["deficiency_level"] == 1

    def test_e2_rows(self):
        # Cay(F_2^3, weight 2) is two disjoint K4, so its chi exceeds r_max = 3.
        rows = exp_profile_scan(2, "e2", (2, 3), 1, 3).results["profile"]
        assert [(r["n"], r["set_size"], r["deficiency_level"], r["recurrent_up_to"], r["chi"])
                for r in rows] == [(2, 1, 1, None, 2), (3, 3, None, 1, ">3")]

    def test_ep_monotone_observation(self):
        report = exp_profile_scan(2, "ep", (2, 6), 3, 4)
        levels = [
            r["deficiency_level"] if r["deficiency_level"] is not None else 99
            for r in report.results["profile"]
        ]
        assert levels == sorted(levels)

    @pytest.mark.parametrize("p, n_range, sizes, chi", [
        (2, (3, 6), [1, 2, 4, 6], 2),
        (3, (3, 4), [1, 2], 3),
    ])
    def test_ap3_rows(self, p, n_range, sizes, chi):
        # The ap3 indicator sets: deficient at level 1, so the Cayley graph is finitely colorable.
        rows = exp_profile_scan(p, "ap3", n_range, 2, 6).results["profile"]
        assert [r["n"] for r in rows] == list(range(n_range[0], n_range[1] + 1))
        assert [r["set_size"] for r in rows] == sizes
        assert all(r["deficiency_level"] == 1 and r["chi"] == chi for r in rows)


class TestBogScan:
    def test_whole_group_cover(self):
        report = exp_bog_scan(3, 3, 2, 1, budget=5, seed=0)
        hist = report.results["least_codim_histogram"]
        assert hist == {"0": report.results["covers_scanned"]}

    def test_two_cell_covers(self):
        report = exp_bog_scan(3, 3, 2, 2, budget=30, seed=1)
        assert report.results["covers_scanned"] == 30

    def test_bad_d(self):
        with pytest.raises(ValueError):
            exp_bog_scan(2, 2, 3, 2)

    @pytest.mark.parametrize("p,d,n,r,budget,seed", [
        (2, 4, 2, 2, 300, 0), (2, 4, 3, 2, 20, 1), (2, 4, 3, 2, 20, 2), (3, 3, 2, 2, 20, 3),
        (2, 4, 4, 3, 20, 4), (2, 4, 5, 2, 10, 5), (2, 4, 3, 9, 10, 6), (3, 3, 2, 12, 10, 7),
    ])
    def test_histogram_matches_subset_definition(self, p, d, n, r, budget, seed):
        report = exp_bog_scan(p, d, n, r, budget=budget, seed=seed)
        c_max = report.results["c_max_probed"]
        expect = bog_scan_reference(p, d, n, r, budget, seed, c_max)
        assert report.results["least_codim_histogram"] == expect


    @pytest.fixture
    def scan_calls(self, monkeypatch):
        calls = []

        def counted_scan(*args):
            calls.append(args)
            return scan_avoiding(*args)

        monkeypatch.setattr(experiments, "scan_avoiding", counted_scan)
        return calls

    # A cap of 1 byte runs one cover per block; 15,000 bytes runs 7 covers of
    # F_2^4 in 3 cells with d = 4 per block, so 20 covers take 3 blocks.
    @pytest.mark.parametrize("cap", [1, 15_000])
    def test_blocks_of_covers_match_reference(self, monkeypatch, scan_calls, cap):
        monkeypatch.setattr(experiments, "_BOG_BLOCK_BYTES", cap)
        report = exp_bog_scan(2, 4, 4, 3, budget=20, seed=4)
        assert len(scan_calls) == (20 if cap == 1 else 3)
        expect = bog_scan_reference(2, 4, 4, 3, 20, 4, report.results["c_max_probed"])
        assert report.results["least_codim_histogram"] == expect

    def test_one_scan_per_block(self, scan_calls):
        exp_bog_scan(2, 4, 5, 2, budget=10, seed=5)
        assert len(scan_calls) == 1


# sha256 of the JSON reports, recorded from the drivers that built a VecSet
# per trial and per cover cell, and (the last two, the defaults of
# `exp poincare --k 0` and `--p 5`) from the driver that scanned each trial
# on its own; any change to a report's bytes changes them.
SAMPLING_REPORT_DIGESTS = [
    (exp_poincare, (2, 5, 2, 50, 11),
     "371ca45f3ca9dc1a505fd6fad292ff63d096ed3ca962722ec968edd9d3ffb1f9"),
    (exp_poincare, (3, 4, 1, 50, 12),
     "cb003046a7aefbb4521cb749040c83d3fbab6e9b7f69cdbd469e567a41e80d8f"),
    (exp_poincare, (5, 3, 1, 20, 13),
     "a098c329f9aac71359d1470b6a0cbc0f37244cd3090fad01d4541fff7e4c1b86"),
    (exp_bog_scan, (2, 4, 4, 3, 20, 15),
     "3f12c3ceafee6c3d0ac8e6e8fe2061d2cbba1f8376f4f9ca78794ed7c4603ba9"),
    (exp_bog_scan, (3, 6, 3, 2, 10, 16),
     "daf2af369cc1f1b72e34eadeac0d9c44a810de6a01c021cd25367c4e8d028322"),
    (exp_bog_scan, (2, 4, 2, 2, 300, 0),
     "4ea73edc070b8b11221548926401f7c57a58f53c1da9988a3611cc83857f326f"),
    (exp_poincare, (2, 4, 0, 100, 0),
     "a617e115d3580c26a1ed97fad07a8765d6f7abbc7364f6d5aab6f0aa46112a67"),
    (exp_poincare, (5, 4, 1, 100, 0),
     "49cc0b752bc48561914660ae3cbe75039de0dbf81a571d69da51ebc06885a899"),
]


@pytest.mark.parametrize("driver,args,digest", SAMPLING_REPORT_DIGESTS)
def test_sampling_report_digests_pinned(driver, args, digest):
    *params, seed = args
    report = driver(*params, seed=seed)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


class TestReportShape:
    def test_json_excludes_timing(self):
        report = exp_poincare(2, 4, 1, 5, seed=0)
        assert "wall_time" not in report.to_json()

    def test_schema_fields(self):
        doc = exp_poincare(2, 4, 1, 5, seed=0).to_dict()
        for key in ("schema_version", "tool_version", "experiment", "parameters",
                    "results", "verdicts", "input_digests", "ok"):
            assert key in doc
