import itertools
import random

import pytest

from fprec.colorings import Hypergraph, verify
from fprec.experiments import (
    _avoiding_subgroups,
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
from fprec.fpgroup import (
    FpVec,
    ResourceGuardError,
    all_vectors,
    enum_codim_subgroups,
    gaussian_binomial,
)
from fprec.setops import VecSet, dfold_distinct_sumset


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
        sums = [dfold_distinct_sumset(A, d).coord_tuples() for A in cells if len(A)]
        c = next((c for c in range(c_max + 1)
                  if any(elems <= T for elems in subgroups[c] for T in sums)), None)
        key = "none" if c is None else str(c)
        hist[key] = hist.get(key, 0) + 1
    return dict(sorted(hist.items()))


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

    @pytest.mark.parametrize("p, hg, k_max, budget", [
        (2, Hypergraph.from_edge_lists(4, itertools.combinations(range(1, 5), 2)), 4, 10**5),
        (3, ap3_hypergraph(5), 5, 200),
        (2, gallai_square_hypergraph(2), 3, 10**5),
    ])
    def test_avoiding_subgroups_are_verified_enumeration(self, p, hg, k_max, budget):
        E_fam = family_indicator_set(hg, p)
        found, tested, k_used = _avoiding_subgroups(E_fam, k_max, budget)
        expected = [
            [list(row) for row in H.annihilator.entries]
            for k in range(1, k_used + 1)
            for H in enum_codim_subgroups(p, E_fam.n, k)
            if verify(H, E_fam)[0]
        ]
        assert found == expected
        assert tested == sum(gaussian_binomial(E_fam.n, k, p) for k in range(1, k_used + 1))

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


class TestPoincare:
    def test_small_run_clean(self):
        report = exp_poincare(2, 4, 1, 50, seed=1)
        assert report.ok
        assert report.results["failures"] == 0

    def test_k_must_be_less_than_n(self):
        with pytest.raises(ValueError):
            exp_poincare(2, 3, 3, 10)


class TestProfileScan:
    def test_e1_deficiency_constant(self):
        report = exp_profile_scan(2, "e1", (2, 6), 2, 4)
        for row in report.results["profile"]:
            assert row["deficiency_level"] == 1

    def test_zero_in_set_marks_infinite(self):
        report = exp_profile_scan(2, "e2", (2, 3), 1, 3)
        assert all(r["chi"] != "inf" for r in report.results["profile"])

    def test_ep_monotone_observation(self):
        report = exp_profile_scan(2, "ep", (2, 6), 3, 4)
        levels = [
            r["deficiency_level"] if r["deficiency_level"] is not None else 99
            for r in report.results["profile"]
        ]
        assert levels == sorted(levels)


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
        (2, 4, 4, 3, 20, 4), (2, 4, 5, 2, 10, 5),
    ])
    def test_histogram_matches_subset_definition(self, p, d, n, r, budget, seed):
        report = exp_bog_scan(p, d, n, r, budget=budget, seed=seed)
        c_max = report.results["c_max_probed"]
        expect = bog_scan_reference(p, d, n, r, budget, seed, c_max)
        assert report.results["least_codim_histogram"] == expect


class TestReportShape:
    def test_json_excludes_timing(self):
        report = exp_poincare(2, 4, 1, 5, seed=0)
        assert "wall_time" not in report.to_json()
        assert report.wall_time_s > 0

    def test_schema_fields(self):
        doc = exp_poincare(2, 4, 1, 5, seed=0).to_dict()
        for key in ("schema_version", "tool_version", "experiment", "parameters",
                    "results", "verdicts", "input_digests", "ok"):
            assert key in doc
