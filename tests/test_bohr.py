import itertools
import random
import time
import tracemalloc

import numpy as np
import pytest

from fprec import bohr, fpgroup
from fprec.bohr import (
    _subspace_bases,
    bohr_deficiency,
    meets_all_subgroups_oracle,
)
from fprec.colorings import verify
from fprec.families import weight_d_set
from fprec.fpgroup import (
    FpVec,
    ResourceGuardError,
    all_vectors,
    enum_codim_subgroups,
    gaussian_binomial,
    lex_index,
    span,
)
from fprec.setops import VecSet


def vs(p, n, *coord_tuples):
    return VecSet(p, n, tuple(FpVec(p, c) for c in coord_tuples))


def random_vecset(rng, p, n, size):
    pool = list(itertools.product(range(p), repeat=n))
    return VecSet(p, n, tuple(FpVec(p, c) for c in rng.sample(pool, size)))


class TestBohrDeficiency:
    def test_zero_in_S_recurrent(self):
        S = vs(3, 3, (0, 0, 0), (1, 2, 0))
        rep = bohr_deficiency(S, 3)
        assert rep.outcome == "recurrent"
        assert rep.recurrent_up_to == 3

    def test_basis_vectors_deficient_with_parity_witness(self):
        for n in (2, 4, 6):
            rep = bohr_deficiency(weight_d_set(2, n, 1), min(n, 2))
            assert rep.outcome == "deficient"
            assert rep.deficient_at == 1
            assert rep.witness.annihilator.entries == ((1,) * n,)

    def test_weight2_recurrent_in_f2_5(self):
        rep = bohr_deficiency(weight_d_set(2, 5, 2), 2)
        assert rep.outcome == "recurrent"
        assert rep.recurrent_up_to == 2

    def test_k_max_too_big(self):
        with pytest.raises(ValueError):
            bohr_deficiency(vs(2, 3, (1, 0, 0)), 4)

    @pytest.mark.parametrize("k_max", [0, -1])
    def test_k_max_below_one_rejected(self, k_max):
        with pytest.raises(ValueError):
            bohr_deficiency(vs(2, 3, (1, 0, 0)), k_max)

    def test_empty_set_deficient_immediately(self):
        rep = bohr_deficiency(VecSet.empty(2, 3), 2)
        assert rep.deficient_at == 1
        assert rep.checked_per_level == {1: 1}
        assert rep.witness == next(enum_codim_subgroups(2, 3, 1))

    @pytest.mark.parametrize("p,n", [(2, 4), (2, 5), (3, 3), (5, 2)])
    def test_witness_and_count_match_first_avoider(self, p, n):
        # Reference: walk the enumeration and verify each subgroup in turn.
        rng = random.Random(p * 10 + n)
        for _ in range(15):
            S = random_vecset(rng, p, n, rng.randrange(1, min(p**n, 12)))
            k_max = min(n, 3)
            rep = bohr_deficiency(S, k_max)
            counts, witness = {}, None
            for k in range(1, k_max + 1):
                subs = list(enum_codim_subgroups(p, n, k))
                first = next((i for i, H in enumerate(subs) if verify(H, S)[0]), None)
                counts[k] = len(subs) if first is None else first + 1
                if first is not None:
                    witness = subs[first]
                    break
            assert rep.witness == witness
            assert rep.checked_per_level == counts

    def test_witness_avoids_set(self):
        rng = random.Random(17)
        for _ in range(20):
            S = random_vecset(rng, 2, 4, rng.randrange(1, 8))
            rep = bohr_deficiency(S, 3)
            if rep.witness is not None:
                ok, _ = verify(rep.witness, S)
                assert ok
                assert rep.witness.codim == rep.deficient_at

    def test_monotone_under_supersets(self):
        rng = random.Random(23)
        for _ in range(15):
            small = random_vecset(rng, 2, 4, 3)
            extra = random_vecset(rng, 2, 4, 6)
            big = VecSet(2, 4, small.elements + extra.elements)
            rep_small = bohr_deficiency(small, 3)
            rep_big = bohr_deficiency(big, 3)
            level_small = rep_small.deficient_at or 99
            level_big = rep_big.deficient_at or 99
            assert level_big >= level_small

    def test_level_scan_memory_bounded(self):
        # The pairing table is built in row chunks and kept as bits, so the
        # scan of 65,535 hyperplanes against 120 points stays near 3 MiB;
        # a table of whole float or bool rows would take tens of MiB.
        S = weight_d_set(2, 16, 2)
        tracemalloc.start()
        try:
            rep = bohr_deficiency(S, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.checked_per_level == {1: 65535}
        assert peak <= 8 * 2**20

    def test_builds_no_level_past_the_deficient_one(self):
        # Level 2 of F_17^5 has C(5, 2)_17 = 25,734,890 > 2^22 subgroups, so
        # building it would trip the level guard; the hyperplane x_1 = 0
        # already misses S at level 1.
        S = vs(17, 5, (1, 0, 0, 0, 0), (0, 3, 0, 0, 5))
        rep = bohr_deficiency(S, 2)
        assert rep.outcome == "deficient"
        assert rep.deficient_at == 1
        assert verify(rep.witness, S)[0]


class TestOracle:
    def test_full_group_meets_everything(self):
        S = VecSet.full(2, 3)
        for k in (1, 2):
            assert meets_all_subgroups_oracle(S, k)

    def test_single_nonzero_point_misses_a_hyperplane(self):
        S = vs(2, 3, (1, 0, 0))
        assert not meets_all_subgroups_oracle(S, 1)

    def test_agreement_with_scan(self):
        rng = random.Random(31)
        for _ in range(40):
            S = random_vecset(rng, 3, 3, rng.randrange(1, 10))
            for k in (1, 2):
                rep = bohr_deficiency(S, k)
                meets = rep.deficient_at is None or rep.deficient_at > k
                assert meets_all_subgroups_oracle(S, k) == meets

    def test_independent_of_the_scan(self, monkeypatch):
        rng = random.Random(32)
        cases = []
        for p, n in ((2, 4), (3, 3), (5, 2)):
            for _ in range(15):
                S = random_vecset(rng, p, n, rng.randrange(1, 10))
                for k in range(1, n + 1):
                    rep = bohr_deficiency(S, k)
                    cases.append((S, k, rep.deficient_at is None or rep.deficient_at > k))

        def unavailable(*args, **kwargs):
            raise AssertionError("the oracle reached the scan's code path")

        for name in ("annihilator_level", "annihilator_array", "dual_rows",
                     "enum_codim_subgroups", "scan_avoiding", "rref_rank", "Subgroup"):
            for module in (fpgroup, bohr):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, unavailable)
        for S, k, meets in cases:
            assert meets_all_subgroups_oracle(S, k) == meets

    @pytest.mark.parametrize(
        "p,n", [(p, n) for p in (2, 3, 5, 7) for n in range(8) if p**n <= 243]
    )
    def test_enumeration_lists_every_subgroup_once(self, p, n):
        for k in range(n + 1):
            d = n - k
            blocks = list(_subspace_bases(p, n, d))
            bases = np.concatenate(blocks) if blocks else np.zeros((0, d, n), dtype=np.uint8)
            subgroups = {frozenset(lex_index(span(B, p, slice(None)), p).tolist()) for B in bases}
            assert len(bases) == len(subgroups) == gaussian_binomial(n, k, p)
            assert {len(H) for H in subgroups} == {p**d}

    def test_scale_guard(self):
        with pytest.raises(ResourceGuardError):
            meets_all_subgroups_oracle(VecSet.empty(2, 20), 1)
        with pytest.raises(ResourceGuardError):
            meets_all_subgroups_oracle(VecSet.empty(2, 14), 7)

    def test_work_guard(self):
        # 2,794,155 subgroups of 1,024 elements: far past the bound, though
        # within the p^n and per-level guards.
        S = weight_d_set(2, 12, 2)
        start = time.perf_counter()
        with pytest.raises(ResourceGuardError, match="oracle bound"):
            meets_all_subgroups_oracle(S, 2)
        assert time.perf_counter() - start < 1
        # A level under the bound still runs: 10,795 subgroups of 64 elements.
        assert gaussian_binomial(8, 2, 2) * 2**6 <= bohr.MAX_ORACLE_ELEMENTS
        assert meets_all_subgroups_oracle(weight_d_set(2, 8, 2), 2)

    @pytest.mark.parametrize("k", [-1, 4])
    def test_codimension_out_of_range(self, k):
        with pytest.raises(ValueError):
            meets_all_subgroups_oracle(VecSet.full(2, 3), k)

    @pytest.mark.parametrize("p,n", [(2, 1), (2, 3), (2, 6), (3, 2), (3, 4), (5, 2), (7, 2)])
    def test_agrees_with_contains_filter(self, p, n):
        # Each subgroup's elements by filtering F_p^n through Subgroup.contains.
        universe = list(all_vectors(p, n))
        levels = [
            [{x.coords for x in universe if H.contains(x)} for H in enum_codim_subgroups(p, n, k)]
            for k in range(n + 1)
        ]
        rng = random.Random(p**n)
        for _ in range(8):
            S = random_vecset(rng, p, n, rng.randrange(0, min(p**n, 12) + 1))
            points = S.coord_tuples()
            for k, subgroups in enumerate(levels):
                meets = all(not H.isdisjoint(points) for H in subgroups)
                assert meets_all_subgroups_oracle(S, k) == meets
