import hashlib
import inspect
import itertools
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fprec import fpgroup
from fprec.fpgroup import (
    FpMatrix,
    FpVec,
    ResourceGuardError,
    Subgroup,
    all_vectors,
    annihilator_array,
    annihilator_level,
    chunk_slices,
    dual_rows,
    enum_codim_subgroups,
    gaussian_binomial,
    hom_apply,
    hom_from_basis_images,
    kernel_basis,
    lex_coords,
    lex_index,
    pairing,
    rref_rank,
    scan_avoiding,
)


def vec(p, *coords):
    return FpVec(p, coords)


class TestPairing:
    def test_mod2(self):
        assert pairing(vec(2, 1, 0, 1), vec(2, 1, 1, 1)) == 0

    def test_zero_vector(self):
        assert pairing(FpVec.zero(3, 4), vec(3, 1, 2, 0, 1)) == 0

    def test_mod3(self):
        assert pairing(vec(3, 1, 2), vec(3, 2, 2)) == 0

    def test_bilinear(self):
        rng = random.Random(5)
        for _ in range(20):
            x = vec(5, *(rng.randrange(5) for _ in range(3)))
            y = vec(5, *(rng.randrange(5) for _ in range(3)))
            xi = vec(5, *(rng.randrange(5) for _ in range(3)))
            assert pairing(x + y, xi) == (pairing(x, xi) + pairing(y, xi)) % 5


class TestHom:
    def test_identity(self):
        M = FpMatrix.identity(2, 3)
        x = vec(2, 1, 0, 1)
        assert hom_apply(M, x) == x

    def test_zero(self):
        assert hom_apply(FpMatrix.zero(3, 2, 3), vec(3, 1, 2, 1)) == FpVec.zero(3, 2)

    def test_direct(self):
        M = FpMatrix(2, ((1, 1, 0), (0, 1, 1)))
        assert hom_apply(M, vec(2, 1, 1, 1)) == vec(2, 0, 0)

    def test_from_basis_images(self):
        M = hom_from_basis_images([vec(2, 1, 0), vec(2, 1, 1)])
        assert M.entries == ((1, 1), (0, 1))

    def test_basis_images_roundtrip(self):
        rng = random.Random(1)
        images = [vec(3, *(rng.randrange(3) for _ in range(4))) for _ in range(5)]
        M = hom_from_basis_images(images)
        for j in range(5):
            assert hom_apply(M, FpVec.basis(3, 5, j + 1)) == images[j]

    def test_empty_images_raises(self):
        with pytest.raises(ValueError):
            hom_from_basis_images([])


class TestRref:
    def test_identity(self):
        I = FpMatrix.identity(2, 4)
        R, rank = rref_rank(I)
        assert R == I and rank == 4

    def test_zero(self):
        Z = FpMatrix.zero(3, 2, 3)
        R, rank = rref_rank(Z)
        assert R == Z and rank == 0

    def test_dependent_rows(self):
        R, rank = rref_rank(FpMatrix(2, ((1, 1), (1, 1))))
        assert R.entries == ((1, 1), (0, 0)) and rank == 1

    @given(
        st.sampled_from([2, 3, 5]),
        st.integers(2, 4),
        st.integers(2, 4),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_canonical_under_row_operations(self, p, k, n, rng):
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
        M = FpMatrix(p, tuple(tuple(r) for r in rows))
        # Apply random invertible row operations: swaps, scalings, additions.
        for _ in range(10):
            op = rng.randrange(3)
            i, j = rng.randrange(k), rng.randrange(k)
            if op == 0 and i != j:
                rows[i], rows[j] = rows[j], rows[i]
            elif op == 1:
                c = rng.randrange(1, p)
                rows[i] = [(c * x) % p for x in rows[i]]
            elif i != j:
                c = rng.randrange(p)
                rows[i] = [(x + c * y) % p for x, y in zip(rows[i], rows[j])]
        M2 = FpMatrix(p, tuple(tuple(r) for r in rows))
        assert rref_rank(M)[0] == rref_rank(M2)[0]


class TestKernel:
    def test_examples(self):
        assert kernel_basis(FpMatrix(2, ((1, 1),))) == [vec(2, 1, 1)]
        assert kernel_basis(FpMatrix.identity(2, 3)) == []
        assert kernel_basis(FpMatrix(3, ((1, 2),))) == [vec(3, 1, 1)]

    @given(
        st.sampled_from([2, 3]),
        st.integers(1, 3),
        st.integers(1, 4),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_consistency(self, p, k, n, rng):
        M = FpMatrix(p, tuple(tuple(rng.randrange(p) for _ in range(n)) for _ in range(k)))
        basis = kernel_basis(M)
        _, rank = rref_rank(M)
        assert len(basis) == n - rank
        for v in basis:
            assert hom_apply(M, v).is_zero()
        # Independence: stacking the basis keeps full rank.
        if basis:
            _, brank = rref_rank(FpMatrix.from_rows(basis))
            assert brank == len(basis)


class TestSubgroup:
    def test_contains_zero(self):
        H = Subgroup.from_dual_vectors([vec(2, 1, 1, 1)], p=2, n=3)
        assert H.contains(FpVec.zero(2, 3))

    def test_parity_kernel(self):
        H = Subgroup.from_dual_vectors([vec(2, 1, 1, 1)], p=2, n=3)
        assert H.contains(vec(2, 1, 1, 0))
        assert not H.contains(vec(2, 1, 0, 0))

    def test_canonical_equality(self):
        H1 = Subgroup.from_dual_vectors([vec(3, 1, 2), vec(3, 2, 1)], p=3, n=2)
        H2 = Subgroup.from_dual_vectors([vec(3, 2, 4)], p=3, n=2)
        assert H1 == H2

    def test_non_rref_annihilator_rejected(self):
        for p, n, rows in [
            (2, 2, ((0, 1), (1, 0))),  # rows out of pivot order
            (3, 3, ((0, 0, 1), (1, 2, 0))),  # rows out of pivot order
            (3, 2, ((2, 1),)),  # a pivot that is not 1
            (2, 3, ((1, 1, 0), (0, 1, 1))),  # a pivot column that is not cleared
            (2, 2, ((1, 0), (0, 0))),  # a zero row
        ]:
            with pytest.raises(ValueError):
                Subgroup(p, n, FpMatrix(p, rows))

    @pytest.mark.parametrize(
        "p,n,k",
        [(2, n, k) for n in (1, 2, 3) for k in range(4)]
        + [(3, n, k) for n in (1, 2, 3) for k in range(3)],
    )
    def test_accepts_exactly_the_canonical_annihilators(self, p, n, k):
        canonical = set()
        if k <= n:
            canonical = {tuple(map(tuple, a)) for a in annihilator_array(p, n, k).tolist()}
        for entries in itertools.product(range(p), repeat=k * n):
            rows = tuple(entries[i * n : (i + 1) * n] for i in range(k))
            if rows in canonical:
                assert Subgroup(p, n, FpMatrix(p, rows)).codim == k
            else:
                with pytest.raises(ValueError):
                    Subgroup(p, n, FpMatrix(p, rows))

    # sha256 of the reprs of the elements of every subgroup of these groups,
    # codimension 0 to n, joined in enumeration and element order.
    ELEMENTS_DIGEST = "521257c571ed6398b0321fc93148c3ce4228fa0d503ffd2737d22c58977e69fa"

    def test_element_order_is_pinned(self):
        h = hashlib.sha256()
        for p, n in [(2, 5), (3, 3), (5, 2), (2, 1), (7, 2)]:
            for k in range(n + 1):
                for H in enum_codim_subgroups(p, n, k):
                    h.update("".join(map(repr, H.elements())).encode())
        assert h.hexdigest() == self.ELEMENTS_DIGEST

    def test_elements_are_spanned_lazily(self):
        # The 2^24 coefficient rows of F_2^24 would take about 400 MiB.
        assert inspect.isgeneratorfunction(Subgroup.elements)
        tracemalloc.start()
        try:
            first = next(Subgroup.whole_group(2, 24).elements())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first == FpVec.zero(2, 24)
        assert peak < 16 * 2**20


class TestEnumeration:
    def test_counts(self):
        assert len(list(enum_codim_subgroups(2, 3, 1))) == 7
        assert len(list(enum_codim_subgroups(3, 2, 1))) == 4
        assert len(list(enum_codim_subgroups(5, 1, 0))) == 1

    def test_k_zero_is_whole_group(self):
        (H,) = enum_codim_subgroups(2, 4, 0)
        assert H == Subgroup.whole_group(2, 4)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            list(enum_codim_subgroups(2, 3, 4))

    @pytest.mark.parametrize("p,n,k", [(2, 4, 2), (3, 3, 1), (3, 3, 2), (2, 5, 3)])
    def test_count_matches_gaussian_binomial(self, p, n, k):
        subs = list(enum_codim_subgroups(p, n, k))
        assert len(subs) == gaussian_binomial(n, k, p)
        assert len(set(subs)) == len(subs)

    def test_lex_order(self):
        subs = list(enum_codim_subgroups(3, 3, 2))
        flats = [sum(H.annihilator.entries, ()) for H in subs]
        assert flats == sorted(flats)

    @pytest.mark.parametrize("p,n,k", [(2, 3, 1), (2, 3, 2), (3, 2, 1)])
    def test_matches_bruteforce_kernels(self, p, n, k):
        # Oracle: distinct kernels over all full-rank k x n matrices.
        kernels = set()
        for entries in itertools.product(range(p), repeat=k * n):
            M = FpMatrix(p, tuple(tuple(entries[i * n:(i + 1) * n]) for i in range(k)))
            if rref_rank(M)[1] != k:
                continue
            kernels.add(frozenset(x for x in all_vectors(p, n) if hom_apply(M, x).is_zero()))
        enumerated = {
            frozenset(x for x in all_vectors(p, n) if H.contains(x))
            for H in enum_codim_subgroups(p, n, k)
        }
        assert enumerated == kernels

    @pytest.mark.parametrize("p,n,k", [(2, 4, 1), (2, 4, 2), (3, 3, 2)])
    def test_subgroup_sizes(self, p, n, k):
        for H in enum_codim_subgroups(p, n, k):
            count = sum(1 for x in all_vectors(p, n) if H.contains(x))
            assert count == p ** (n - k)
            assert count == len(list(H.elements()))

    def test_hyperplanes_cover_group(self):
        # Every vector lies in some codim-1 subgroup.
        p, n = 2, 4
        hyperplanes = list(enum_codim_subgroups(p, n, 1))
        for x in all_vectors(p, n):
            assert any(H.contains(x) for H in hyperplanes)


def reference_rref_matrices(p, n, k):
    """All full-rank k x n RREF matrices over F_p, sorted; cell by cell in Python."""
    out = []
    for pivots in itertools.combinations(range(n), k):
        free_cells = [
            (i, j)
            for i in range(k)
            for j in range(n)
            if j > pivots[i] and j not in pivots
        ]
        for values in itertools.product(range(p), repeat=len(free_cells)):
            rows = [[0] * n for _ in range(k)]
            for i in range(k):
                rows[i][pivots[i]] = 1
            for (i, j), v in zip(free_cells, values):
                rows[i][j] = v
            out.append(tuple(tuple(r) for r in rows))
    return sorted(out)


class TestScanKernel:
    @pytest.mark.parametrize("p,n,k", [
        (2, 1, 0), (2, 1, 1), (2, 4, 0), (2, 4, 1), (2, 4, 2), (2, 4, 4), (2, 6, 3),
        (3, 3, 2), (3, 4, 2), (5, 3, 0), (5, 3, 1), (5, 3, 2), (5, 3, 3), (7, 2, 1),
    ])
    def test_annihilator_array_matches_reference(self, p, n, k):
        A = annihilator_array(p, n, k)
        assert A.shape == (gaussian_binomial(n, k, p), k, n)
        assert [tuple(map(tuple, a)) for a in A.tolist()] == reference_rref_matrices(p, n, k)

    @pytest.mark.parametrize("p,n,k", [(2, 5, 2), (3, 3, 1), (3, 3, 2), (5, 2, 1), (2, 4, 0)])
    def test_scan_matches_contains(self, p, n, k, monkeypatch):
        # A tiny chunk makes every scan cross chunk boundaries.
        monkeypatch.setattr(fpgroup, "_CHUNK", 5)
        rng = random.Random(p * 100 + n * 10 + k)
        pool = list(all_vectors(p, n))
        A = annihilator_array(p, n, k)
        subs = list(enum_codim_subgroups(p, n, k))
        for size in (1, 2, 3, 5):
            pts = rng.sample(pool, size)
            expect = [i for i, H in enumerate(subs) if not any(H.contains(x) for x in pts)]
            level = annihilator_level(p, n, k)
            pairs = list(scan_avoiding(dual_rows(p, n), [level], [[x.coords for x in pts]], p))
            assert all(lv is level for lv, _ in pairs)
            arrays = [hits for _, hits in pairs]
            assert [int(i) for hits in arrays for i in hits] == expect
            # One non-empty, strictly ascending array per chunk with a hit.
            chunks = list(chunk_slices(len(A), k * size))
            owners = []
            for hits in arrays:
                assert len(hits) > 0 and (np.diff(hits) > 0).all()
                owners += [j for j, c in enumerate(chunks)
                           if c.start <= hits[0] and hits[-1] < c.stop]
            assert len(owners) == len(arrays) == len(set(owners))

    @pytest.mark.parametrize("p,n,k", [(2, 4, 1), (2, 4, 2), (3, 3, 2), (5, 2, 1), (2, 4, 0)])
    def test_point_sets_number_pairs(self, p, n, k, monkeypatch):
        # Pair (i, g) is numbered i * G + g.  Empty sets are missed by every
        # subgroup, and a set of 9 points spans two bytes of the table.
        monkeypatch.setattr(fpgroup, "_CHUNK", 5)
        rng = random.Random(p * 100 + n * 10 + k)
        pool = list(all_vectors(p, n))
        sets = [rng.sample(pool, size) for size in (0, 3, 1, 9, 0, 2)]
        expect = [i * len(sets) + g
                  for i, H in enumerate(enum_codim_subgroups(p, n, k))
                  for g, pts in enumerate(sets) if not any(H.contains(x) for x in pts)]
        rows, level = dual_rows(p, n), annihilator_level(p, n, k)
        pairs = list(scan_avoiding(rows, [level], [[x.coords for x in pts] for pts in sets], p))
        assert all(lv is level for lv, _ in pairs)
        assert [int(i) for _, hits in pairs for i in hits] == expect
        assert list(scan_avoiding(rows, [level], [], p)) == []

    def test_empty_set_missed_by_every_subgroup(self):
        for k in range(4):
            A = annihilator_array(3, 3, k)
            hits = [int(i) for _, a in scan_avoiding(dual_rows(3, 3), [annihilator_level(3, 3, k)],
                                                     [[]], 3) for i in a]
            assert hits == list(range(len(A)))

    def test_whole_group_meets_any_point(self):
        assert list(scan_avoiding(dual_rows(2, 3), [annihilator_level(2, 3, 0)],
                                  [[(1, 0, 1)]], 2)) == []

    @pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (5, 2)])
    def test_levels_scan_as_separate_scans_in_order(self, p, n, monkeypatch):
        # One call over levels 0..n yields, level by level and in level
        # order, the hits of one-level scans, with pair numbers local to
        # each level.
        monkeypatch.setattr(fpgroup, "_CHUNK", 5)
        rng = random.Random(p * 10 + n)
        pool = list(all_vectors(p, n))
        rows = dual_rows(p, n)
        levels = [annihilator_level(p, n, k) for k in range(n + 1)]
        for sizes in [(0,), (1,), (3, 0, 2), (2, 5), (0, 0), (p**n - 1, 1)]:
            sets = [[x.coords for x in rng.sample(pool, m)] for m in sizes]
            got = list(scan_avoiding(rows, levels, sets, p))
            ks = [level.shape[1] for level, _ in got]
            assert ks == sorted(ks)
            for level in levels:
                expect = [int(i) for _, hits in scan_avoiding(rows, [level], sets, p)
                          for i in hits]
                assert [int(i) for lv, hits in got if lv is level for i in hits] == expect
            assert all(any(lv is level for level in levels) for lv, _ in got)

    def test_stops_without_reading_the_next_level(self):
        # A consumer that stops at the first hit never advances the levels.
        def levels():
            yield annihilator_level(2, 3, 1)
            raise AssertionError("read a level past the first hit")

        level, hits = next(scan_avoiding(dual_rows(2, 3), levels(), [[(1, 0, 0)]], 2))
        assert level.shape == (7, 1) and len(hits) > 0


class TestLevelMemo:
    @pytest.fixture
    def memo(self, monkeypatch):
        """An empty memo with the production bounds in place of the shared one."""
        memo = fpgroup._ArrayMemo(fpgroup._MEMO_ENTRY_BYTES, fpgroup._MEMO_BYTES)
        monkeypatch.setattr(fpgroup, "_LEVELS", memo)
        return memo

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_repeated_calls_equal_a_fresh_build(self, p, memo):
        for n in range(6):
            rows = dual_rows(p, n)
            assert rows is dual_rows(p, n)
            assert np.array_equal(rows, dual_rows.__wrapped__(p, n))
            for k in range(n + 1):
                level = annihilator_level(p, n, k)
                again = annihilator_level(p, n, k)
                assert again is level
                fresh = annihilator_level.__wrapped__(p, n, k)
                assert again.dtype == fresh.dtype and np.array_equal(again, fresh)

    def test_returned_tables_are_read_only(self, memo):
        # Every caller shares one copy, so none may write into it; an array
        # too large to keep is read-only as well.
        memo.entry_bytes = 100
        for table in (annihilator_level(3, 3, 1), annihilator_level(3, 3, 2), dual_rows(3, 3)):
            with pytest.raises(ValueError):
                table[0, 0] = 0

    def test_guard_raises_on_every_call(self, memo):
        # C(23, 1)_2 = 2^23 - 1 exceeds the per-level bound; nothing is kept.
        for _ in range(2):
            with pytest.raises(ResourceGuardError):
                annihilator_level(2, 23, 1)
            with pytest.raises(ResourceGuardError):
                dual_rows(2, 23)
        assert not memo.kept and memo.nbytes == 0

    def test_table_above_entry_bound_is_not_kept(self, memo):
        # Level (2, 4, 1) takes 15 * 1 * 4 = 60 bytes, level (2, 4, 2) 35 * 2 * 4.
        memo.entry_bytes = 100
        small, large = annihilator_level(2, 4, 1), annihilator_level(2, 4, 2)
        assert annihilator_level(2, 4, 1) is small
        again = annihilator_level(2, 4, 2)
        assert again is not large and np.array_equal(again, large)
        assert list(memo.kept) == [("annihilator_level", 2, 4, 1)] and memo.nbytes == 60

    def test_level_near_the_guard_is_never_kept(self):
        # A level of codim k >= 1 near MAX_SUBGROUPS rows, and the F_2^22
        # dual table, are over the entry bound by their sizes alone.
        assert fpgroup._MEMO_ENTRY_BYTES == 4 * 2**20 and fpgroup._MEMO_BYTES == 16 * 2**20
        assert (fpgroup.MAX_SUBGROUPS // 4 + 1) * 4 > fpgroup._MEMO_ENTRY_BYTES
        assert gaussian_binomial(22, 1, 2) * 4 > fpgroup._MEMO_ENTRY_BYTES
        assert gaussian_binomial(22, 1, 2) * 22 > fpgroup._MEMO_ENTRY_BYTES

    def test_kept_bytes_stay_within_budget(self, memo):
        # Both bounds scaled down 256-fold: about 1.2 MiB of distinct levels
        # and dual tables against a 64 KiB budget.
        memo.entry_bytes, memo.total_bytes = 2**14, 2**16
        shapes = [(p, n, k) for p in (2, 3, 5, 7) for n in range(11) if p**n <= 2**10
                  for k in range(n + 1) if gaussian_binomial(n, k, p) <= 2**14]
        for p, n, k in shapes:
            dual_rows(p, n)
            annihilator_level(p, n, k)
            assert memo.nbytes == sum(a.nbytes for a in memo.kept.values())
            assert memo.nbytes <= memo.total_bytes
            assert max(a.nbytes for a in memo.kept.values()) <= memo.entry_bytes
        assert ("annihilator_level", 2, 1, 0) not in memo.kept  # the budget evicted

    def test_least_recently_used_is_evicted_first(self, memo):
        # Levels (2, 4, 1) and (2, 5, 1) take 60 and 124 bytes.
        memo.total_bytes = 200
        first = annihilator_level(2, 4, 1)
        annihilator_level(2, 5, 1)
        assert annihilator_level(2, 4, 1) is first
        annihilator_level(2, 3, 1)  # 28 bytes: 212 > 200 evicts (2, 5, 1)
        assert list(memo.kept) == [("annihilator_level", 2, 4, 1), ("annihilator_level", 2, 3, 1)]
        assert memo.nbytes == 88

    def test_threads_keep_the_accounting(self, memo):
        # More threads than cores hammer a memo that evicts on most builds.
        memo.total_bytes = 4096
        shapes = [(p, n, k) for p in (2, 3) for n in range(1, 6) for k in range(n + 1)]
        errors = []

        def work(seed):
            rng = random.Random(seed)
            try:
                for _ in range(300):
                    p, n, k = rng.choice(shapes)
                    assert np.array_equal(annihilator_level(p, n, k),
                                          annihilator_level.__wrapped__(p, n, k))
            except BaseException as exc:  # reported through errors below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and errors == []
        assert memo.nbytes == sum(a.nbytes for a in memo.kept.values()) <= memo.total_bytes


class TestLexTable:
    @pytest.mark.parametrize("p,n", [(2, 0), (2, 1), (2, 5), (3, 3), (5, 2), (31, 2)])
    def test_lex_table_is_all_vectors(self, p, n):
        U = lex_coords(p, n)
        assert U.dtype == np.uint8 and U.tolist() == [list(v.coords) for v in all_vectors(p, n)]
        assert lex_index(U, p).tolist() == list(range(p**n))
        assert lex_index(U[None, ::-1], p).tolist() == [list(range(p**n - 1, -1, -1))]
        with pytest.raises(ResourceGuardError):
            lex_coords(2, 25)

    def test_lex_table_matches_lex_rows(self):
        # Every prime p <= 31 and every n >= 0 with p^n <= 2^12, n = 0 included.
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
            n = 0
            while p**n <= 2**12:
                U, ref = lex_coords(p, n), fpgroup._lex_rows(np.arange(p**n), p, n)
                assert (U.dtype, U.shape) == (ref.dtype, ref.shape), (p, n)
                assert U.flags.c_contiguous and U.tobytes() == ref.tobytes(), (p, n)
                n += 1
