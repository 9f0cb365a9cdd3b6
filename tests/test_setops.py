import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fprec import fpgroup
from fprec.families import weight_d_set
from fprec.fpgroup import FpMatrix, FpVec, ResourceGuardError, hom_apply, hom_from_basis_images
from fprec.setops import (
    VecSet,
    dfold_distinct_sumset,
    dfold_distinct_sumset_bruteforce,
    difference_set,
    distinct_differences,
    distinct_sumsets,
    preimage_intersect,
)


def vs(p, n, *coord_tuples):
    return VecSet(p, n, tuple(FpVec(p, c) for c in coord_tuples))


def columns_of(rho):
    """rho's (m, n) uint8 table of columns, row j being rho(e_j)."""
    return np.array(rho.entries, dtype=np.uint8).reshape(rho.rows, rho.cols).T


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


    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_from_rows_is_canonical(self, data):
        p = data.draw(st.sampled_from([2, 3, 5, 7, 31]))
        n = data.draw(st.integers(0, 12))
        vector = st.tuples(*[st.integers(0, p - 1)] * n)
        pool = data.draw(st.lists(vector, min_size=1, max_size=16))
        rows = data.draw(st.lists(st.sampled_from(pool), max_size=64))
        dtype = data.draw(st.sampled_from([np.uint8, np.int64]))
        X = np.array(rows, dtype=dtype).reshape(len(rows), n)
        A = VecSet.from_rows(p, n, X)
        B = VecSet(p, n, tuple(FpVec(p, r) for r in rows))
        assert A == B and hash(A) == hash(B)
        expected = sorted(set(rows))
        assert A.rows().dtype == np.uint8
        assert list(map(tuple, A.rows().tolist())) == expected
        assert [v.coords for v in A.elements] == expected
        assert len(A) == len(expected)
        assert A.contains_zero() == ((0,) * n in expected)
        assert not A.rows().flags.writeable and not np.shares_memory(A.rows(), X)

    @pytest.mark.parametrize("p,X", [
        (2, [[0, 2]]), (2, [[0, -1]]), (31, [[31, 0]]),  # entries outside [0, p)
        (2, [[0, 1, 0]]), (2, [0, 1]), (2, [[[0, 1]]]), (2, [[0.0, 1.0]]),  # not (m, 2) integers
    ])
    def test_from_rows_rejects(self, p, X):
        with pytest.raises(ValueError):
            VecSet.from_rows(p, 2, np.array(X))


class TestDifferenceSet:
    def test_singleton_distinct(self):
        # distinct_differences, the pairs a != a' that difference_set is built
        # from: a singleton has none.
        assert not distinct_differences(vs(2, 2, (1, 0)).rows()[None], 2).any()

    def test_singleton_all(self):
        D = difference_set(vs(2, 2, (1, 0)))
        assert [v.coords for v in D] == [(0, 0)]

    def test_char2_pair(self):
        A = vs(2, 2, (0, 0), (1, 1))
        assert vectors_of(distinct_differences(A.rows()[None], 2)[0], 2, 2) == {FpVec(2, (1, 1))}
        assert [v.coords for v in difference_set(A)] == [(0, 0), (1, 1)]


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
def small_vecsets(draw):
    """One to three sets of at most 8 vectors of one F_p^n, n <= 8 and
    p^n <= 2^16, empty and singleton sets included."""
    p = draw(st.sampled_from([2, 3, 5, 7, 31]))
    n = draw(st.integers(1, max(k for k in range(1, 9) if p**k <= 2**16)))
    point = st.tuples(*[st.integers(0, p - 1)] * n)
    return [vs(p, n, *draw(st.lists(point, max_size=8))) for _ in range(draw(st.integers(1, 3)))]


def coords_of(A):
    return np.array([v.coords for v in A], dtype=np.uint8).reshape(len(A), A.n)


def member_rows(sets):
    p, n = sets[0].p, sets[0].n
    member = np.zeros((len(sets), p**n), dtype=bool)
    for b, A in enumerate(sets):
        for v in A:
            member[b, sum(c * p ** (n - 1 - i) for i, c in enumerate(v.coords))] = True
    return member


def vectors_of(row, p, n):
    """The vectors a boolean row over F_p^n marks, entry i marking the vector
    whose base-p digits are i."""
    return {FpVec(p, tuple(i // p ** (n - 1 - j) % p for j in range(n)))
            for i in np.flatnonzero(row).tolist()}


class TestCodeKernels:
    """The two array kernels against the FpVec definitions."""

    @given(small_vecsets())
    @settings(max_examples=300, deadline=None)
    def test_distinct_differences_match_fpvec_subtraction(self, sets):
        # Sets of one size stack into one batch; positions stand in for points.
        p, n = sets[0].p, sets[0].n
        m = min(len(A) for A in sets)
        D = distinct_differences(np.stack([coords_of(A)[:m] for A in sets]), p)
        assert D.shape == (len(sets), p**n) and D.dtype == bool
        for A, row in zip(sets, D):
            E = A.elements[:m]
            pairs = itertools.combinations(range(m), 2)
            assert vectors_of(row, p, n) == {E[a] - E[b] for a, b in pairs}
        for A in sets:
            assert set(difference_set(A)) == {a - b for a in A for b in A}

    @given(small_vecsets(), st.integers(1, 5))
    @settings(max_examples=300, deadline=None)
    def test_distinct_sumsets_match_bruteforce(self, sets, d):
        p, n = sets[0].p, sets[0].n
        sums = distinct_sumsets(member_rows(sets), p, n, d)
        assert sums.shape == (len(sets), p**n)
        for A, row in zip(sets, sums):
            expect = set(dfold_distinct_sumset_bruteforce(A, d))
            assert vectors_of(row, p, n) == expect
            assert set(dfold_distinct_sumset(A, d)) == expect

    def test_empty_and_singleton(self):
        none = distinct_differences(np.zeros((2, 0, 3), dtype=np.uint8), 5)
        assert none.shape == (2, 125) and not none.any()
        assert not distinct_differences(np.array([[[4, 0, 2]]]), 5).any()
        empty = np.zeros((1, 125), dtype=bool)
        assert not distinct_sumsets(empty, 5, 3, 1).any()
        x = 4 * 25 + 2  # (4, 0, 2)
        single = empty.copy()
        single[0, x] = True
        assert np.flatnonzero(distinct_sumsets(single, 5, 3, 1)[0]).tolist() == [x]
        assert not distinct_sumsets(single, 5, 3, 2).any()

    def test_bad_d(self):
        with pytest.raises(ValueError):
            distinct_sumsets(np.ones((1, 2), dtype=bool), 2, 1, 0)

    def test_wrappers_guard_group_order(self):
        A = vs(2, 25, (1,) * 25)
        with pytest.raises(ResourceGuardError):
            difference_set(A)
        with pytest.raises(ResourceGuardError):
            dfold_distinct_sumset(A, 1)

    @pytest.mark.parametrize("n", [1, 3])
    def test_p31_bytes_at_p_minus_1(self, n):
        top, zero = (30,) * n, (0,) * n
        # Subtraction: entries of a + p - b reach 2p - 1 (30 - 0) and 1 (0 - 30).
        D = distinct_differences(np.array([[top, zero], [zero, top]], dtype=np.uint8), 31)
        assert [vectors_of(row, 31, n) for row in D] == [{FpVec(31, top)}, {FpVec(31, (1,) * n)}]
        # Addition: 10 + 20 = 30 in layer 2, then 30 + 30 = 60 = 2p - 2 -> 29.
        cell = vs(31, n, (10,) * n, (20,) * n, top)
        assert [v.coords for v in dfold_distinct_sumset(cell, 3)] == [(29,) * n]
        assert [v.coords for v in dfold_distinct_sumset(cell, 2)] == [
            (9,) * n, (19,) * n, top]


class TestPreimageIntersect:
    def test_identity_is_intersection(self):
        S = vs(2, 2, (1, 0), (1, 1))
        E = vs(2, 2, (1, 1), (0, 1))
        rho = FpMatrix.identity(2, 2)
        assert preimage_intersect(columns_of(rho), S, E) == vs(2, 2, (1, 1))

    def test_zero_map_empty(self):
        S = vs(2, 2, (1, 0))
        E = vs(2, 2, (1, 1), (0, 1))
        assert len(preimage_intersect(columns_of(FpMatrix.zero(2, 2, 2)), S, E)) == 0

    def test_weight4_slice(self):
        cols = [FpVec(2, c) for c in ((0, 0), (0, 1), (1, 0), (1, 1))]
        rho = hom_from_basis_images(cols)
        E = vs(2, 4, (1, 1, 1, 1))
        with_zero = vs(2, 2, (0, 0), (1, 0))
        without_zero = vs(2, 2, (1, 0))
        assert preimage_intersect(columns_of(rho), with_zero, E) == E
        assert len(preimage_intersect(columns_of(rho), without_zero, E)) == 0

    def test_outputs_map_into_S(self):
        rng = random.Random(4)
        for _ in range(10):
            cols = [FpVec(3, tuple(rng.randrange(3) for _ in range(2))) for _ in range(3)]
            rho = hom_from_basis_images(cols)
            S = random_vecset(rng, 3, 2, 4)
            E = random_vecset(rng, 3, 3, 10)
            out = preimage_intersect(columns_of(rho), S, E)
            assert len(out) <= len(E)
            for x in out:
                assert hom_apply(rho, x) in S

    @pytest.mark.parametrize("p,m,n,d", [(2, 6, 3, 2), (2, 8, 2, 4), (3, 6, 2, 3), (3, 5, 3, 3),
                                         (5, 4, 2, 2), (7, 3, 2, 1)])
    def test_matches_per_element_reference(self, p, m, n, d):
        rng = random.Random(f"{p}-{m}-{n}-{d}")
        for _ in range(6):
            cols = [FpVec(p, tuple(rng.randrange(p) for _ in range(n))) for _ in range(m)]
            rho = hom_from_basis_images(cols)
            S = random_vecset(rng, p, n, rng.randrange(p**n + 1))
            targets = S.coord_tuples()
            for E in (weight_d_set(p, m, d), random_vecset(rng, p, m, rng.randrange(40))):
                expected = [x for x in E.elements if hom_apply(rho, x).coords in targets]
                assert preimage_intersect(columns_of(rho), S, E) == VecSet(p, m, tuple(expected))

    def test_mismatch_raises(self):
        with pytest.raises(ValueError):
            preimage_intersect(columns_of(FpMatrix.identity(2, 2)), vs(2, 2, (1, 0)), vs(2, 3, (1, 0, 0)))

    def test_wrong_table_shape_raises(self):
        # rho: F_3^5 -> F_3^2 needs a (5, 2) table; its transpose and tables
        # one row or column off are refused.
        S = vs(3, 2, (1, 0))
        E = weight_d_set(3, 5, 3)
        table = np.ones((5, 2), dtype=np.uint8)
        assert len(preimage_intersect(table, S, E)) == 0
        for shape in ((2, 5), (4, 2), (6, 2), (5, 1), (5, 3), (10,)):
            for points in (E, VecSet.empty(3, 5)):
                with pytest.raises(ValueError):
                    preimage_intersect(np.ones(shape, dtype=np.uint8), S, points)

    def test_chunked_matches_one_chunk(self, monkeypatch):
        rng = np.random.default_rng(5)
        for p, m, n, d in ((2, 12, 3, 4), (3, 9, 2, 3), (5, 7, 2, 2)):
            table = rng.integers(0, p, (m, n)).astype(np.uint8)
            S = VecSet.from_rows(p, n, rng.integers(0, p, (p**n // 2, n)))
            E = weight_d_set(p, m, d)
            monkeypatch.setattr(fpgroup, "_CHUNK", 1 << 30)
            whole = preimage_intersect(table, S, E)
            monkeypatch.setattr(fpgroup, "_CHUNK", 7)
            assert preimage_intersect(table, S, E) == whole
            assert 0 < len(whole) < len(E)

    def test_memory_bounded_on_a_wide_slice(self):
        # E is 82,215 rows of 406 entries, 33 MB; an int64 copy of it would
        # take 267 MB, while the chunks and the result stay far smaller.
        E = weight_d_set(2, 406, 404)
        table = np.random.default_rng(0).integers(0, 2, (406, 2)).astype(np.uint8)
        tracemalloc.start()
        try:
            out = preimage_intersect(table, weight_d_set(2, 2, 2), E)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < len(out) < len(E)
        assert peak < 64 * 2**20
