import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fprec.fpgroup import FpMatrix, FpVec, decode, encode, hom_apply, hom_from_basis_images
from fprec.setops import (
    VecSet,
    dfold_distinct_sumset,
    dfold_distinct_sumset_bruteforce,
    difference_codes,
    difference_set,
    preimage_intersect,
    sumset_codes,
)


def vs(p, n, *coord_tuples):
    return VecSet(p, n, tuple(FpVec(p, c) for c in coord_tuples))


def random_vecset(rng, p, n, size):
    pool = list(itertools.product(range(p), repeat=n))
    return vs(p, n, *rng.sample(pool, size))


class TestVecSet:
    def test_sorted_dedup(self):
        A = vs(2, 2, (1, 1), (0, 1), (1, 1))
        assert [v.coords for v in A] == [(0, 1), (1, 1)]

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            VecSet(2, 2, (FpVec(3, (1, 1)),))

    @pytest.mark.parametrize("p,n", [(2, 1), (2, 4), (3, 3), (5, 2), (7, 2)])
    def test_contains_matches_linear_scan(self, p, n):
        rng = random.Random(p * 100 + n)
        pool = list(itertools.product(range(p), repeat=n))
        # Same coordinates under another p, and vectors of another n.
        foreign = [FpVec(11, c) for c in pool] + [
            FpVec(p, c + (0,)) for c in pool] + [FpVec(p, c[:-1]) for c in pool]
        for size in (0, 1, len(pool) // 2, len(pool)):
            A = random_vecset(rng, p, n, size)
            for v in [FpVec(p, c) for c in pool] + foreign:
                assert (v in A) == any(v == e for e in A.elements)


class TestDifferenceSet:
    def test_singleton_distinct(self):
        assert len(difference_set(vs(2, 2, (1, 0)), distinct_only=True)) == 0

    def test_singleton_all(self):
        D = difference_set(vs(2, 2, (1, 0)))
        assert [v.coords for v in D] == [(0, 0)]

    def test_char2_pair(self):
        D = difference_set(vs(2, 2, (0, 0), (1, 1)), distinct_only=True)
        assert [v.coords for v in D] == [(1, 1)]


class TestDfoldSumset:
    def test_needs_enough_elements(self):
        assert len(dfold_distinct_sumset(vs(2, 1, (0,)), 2)) == 0

    def test_f3_full_line(self):
        S = dfold_distinct_sumset(vs(3, 1, (0,), (1,), (2,)), 3)
        assert [v.coords for v in S] == [(0,)]

    def test_bad_d(self):
        with pytest.raises(ValueError):
            dfold_distinct_sumset(vs(2, 1, (0,)), 0)

    @given(
        st.sampled_from([(2, 3), (2, 4), (3, 2)]),
        st.integers(1, 4),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_dp_agrees_with_bruteforce(self, pn, d, rng):
        p, n = pn
        size = rng.randrange(1, min(p**n, 7) + 1)
        A = random_vecset(rng, p, n, size)
        assert dfold_distinct_sumset(A, d) == dfold_distinct_sumset_bruteforce(A, d)

    def test_order_independent(self):
        A = vs(2, 4, (1, 0, 0, 0), (0, 1, 1, 0), (1, 1, 0, 1), (0, 0, 0, 1))
        reversed_A = VecSet(2, 4, tuple(reversed(A.elements)))
        assert dfold_distinct_sumset(A, 3) == dfold_distinct_sumset(reversed_A, 3)


@st.composite
def small_vecset(draw):
    """A set of at most 8 vectors of F_p^n, n <= 8, empty and singleton sets included."""
    p = draw(st.sampled_from([2, 3, 5, 7, 31]))
    n = draw(st.integers(1, 8))
    coords = draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * n), max_size=8))
    return vs(p, n, *coords)


def codes_of(A):
    return {encode(v.coords) for v in A}


def vectors_of(codes, p, n):
    return {FpVec(p, decode(c, n)) for c in codes}


class TestCodeKernels:
    """The kernels on packed codes against the FpVec definitions."""

    @given(small_vecset(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_difference_codes_match_fpvec_subtraction(self, A, distinct_only):
        expect = {a - b for a in A for b in A if not (distinct_only and a == b)}
        D = difference_codes(codes_of(A), A.p, A.n)
        if distinct_only:
            D.discard(0)
        assert vectors_of(D, A.p, A.n) == expect
        assert set(difference_set(A, distinct_only=distinct_only)) == expect

    @given(small_vecset(), st.integers(1, 5))
    @settings(max_examples=300, deadline=None)
    def test_sumset_codes_match_bruteforce(self, A, d):
        expect = set(dfold_distinct_sumset_bruteforce(A, d))
        assert vectors_of(sumset_codes(codes_of(A), A.p, A.n, d), A.p, A.n) == expect
        assert set(dfold_distinct_sumset(A, d)) == expect

    def test_empty_and_singleton(self):
        assert difference_codes([], 5, 3) == set()
        assert sumset_codes([], 5, 3, 1) == set()
        x = encode((4, 0, 2))
        assert difference_codes([x], 5, 3) == {0}
        assert sumset_codes([x], 5, 3, 1) == {x}
        assert sumset_codes([x], 5, 3, 2) == set()

    def test_bad_d(self):
        with pytest.raises(ValueError):
            sumset_codes([1], 2, 1, 0)

    @pytest.mark.parametrize("n", [1, 8])
    def test_p31_bytes_at_p_minus_1(self, n):
        top, zero = encode((30,) * n), encode((0,) * n)
        # Subtraction: bytes of a + P - b reach 2p - 1 (30 - 0) and 1 (0 - 30).
        assert difference_codes([top, zero], 31, n) == {zero, top, encode((1,) * n)}
        # Addition: 10 + 20 = 30 in layer 2, then 30 + 30 = 60 = 2p - 2 -> 29.
        cell = [encode((10,) * n), encode((20,) * n), top]
        assert sumset_codes(cell, 31, n, 3) == {encode((29,) * n)}
        assert sumset_codes(cell, 31, n, 2) == {
            top, encode((9,) * n), encode((19,) * n)}


class TestPreimageIntersect:
    def test_identity_is_intersection(self):
        S = vs(2, 2, (1, 0), (1, 1))
        E = vs(2, 2, (1, 1), (0, 1))
        rho = FpMatrix.identity(2, 2)
        assert preimage_intersect(rho, S, E) == vs(2, 2, (1, 1))

    def test_zero_map_empty(self):
        S = vs(2, 2, (1, 0))
        E = vs(2, 2, (1, 1), (0, 1))
        assert len(preimage_intersect(FpMatrix.zero(2, 2, 2), S, E)) == 0

    def test_weight4_slice(self):
        cols = [FpVec(2, c) for c in ((0, 0), (0, 1), (1, 0), (1, 1))]
        rho = hom_from_basis_images(cols)
        E = vs(2, 4, (1, 1, 1, 1))
        with_zero = vs(2, 2, (0, 0), (1, 0))
        without_zero = vs(2, 2, (1, 0))
        assert preimage_intersect(rho, with_zero, E) == E
        assert len(preimage_intersect(rho, without_zero, E)) == 0

    def test_outputs_map_into_S(self):
        rng = random.Random(4)
        for _ in range(10):
            cols = [FpVec(3, tuple(rng.randrange(3) for _ in range(2))) for _ in range(3)]
            rho = hom_from_basis_images(cols)
            S = random_vecset(rng, 3, 2, 4)
            E = random_vecset(rng, 3, 3, 10)
            out = preimage_intersect(rho, S, E)
            assert len(out) <= len(E)
            for x in out:
                assert hom_apply(rho, x) in S

    def test_mismatch_raises(self):
        with pytest.raises(ValueError):
            preimage_intersect(FpMatrix.identity(2, 2), vs(2, 2, (1, 0)), vs(2, 3, (1, 0, 0)))
