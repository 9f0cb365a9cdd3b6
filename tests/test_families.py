import itertools
import math
import random

import numpy as np
import pytest

from fprec import fpgroup
from fprec.bohr import bohr_deficiency
from fprec.families import (
    FinSet,
    LatticeWindow,
    ap3_hypergraph,
    e_of,
    family_indicator_set,
    fin_decode,
    fin_encode,
    gallai_square_hypergraph,
    s_square_set,
    square_connection_set,
    weight_d_set,
)
from fprec.fpgroup import FpVec, all_vectors
from fprec.colorings import Hypergraph
from fprec.setops import VecSet


class TestWeightDSet:
    def test_counts(self):
        assert len(weight_d_set(2, 4, 2)) == 6
        assert len(weight_d_set(3, 5, 3)) == math.comb(5, 3)

    def test_all_ones(self):
        S = weight_d_set(3, 3, 3)
        assert [v.coords for v in S] == [(1, 1, 1)]

    def test_range_check(self):
        with pytest.raises(ValueError):
            weight_d_set(2, 3, 4)
        with pytest.raises(ValueError):
            weight_d_set(2, 3, 0)

    def test_parity_avoidance_when_p_does_not_divide_d(self):
        # Every weight-d vector has coordinate sum d mod p.
        for p, n, d in [(2, 5, 1), (2, 6, 3), (3, 4, 2)]:
            assert d % p != 0
            for v in weight_d_set(p, n, d):
                assert sum(v.coords) % p == d % p
            rep = bohr_deficiency(weight_d_set(p, n, d), 1)
            assert rep.deficient_at == 1

    @pytest.mark.parametrize("p", [2, 3])
    def test_chunked_fill_matches_one_index_array(self, p, monkeypatch):
        # The chunked fill gives the rows, in order, of one fancy assignment
        # over the array of every support, also where d > n/2 fills the
        # complements and flips them (d = n: one all-ones row); a tiny chunk
        # puts a boundary inside most sets.
        monkeypatch.setattr(fpgroup, "_CHUNK", 7)
        for n in range(1, 13):
            for d in range(1, n + 1):
                supports = np.array(list(itertools.combinations(range(n), d)))
                X = np.zeros((len(supports), n), dtype=np.uint8)
                X[np.arange(len(supports))[:, None], supports] = 1
                got = weight_d_set(p, n, d).rows()
                assert np.array_equal(got, VecSet.from_rows(p, n, X).rows())
                assert np.array_equal(got, X[::-1])


class TestEOf:
    def test_empty(self):
        assert e_of([], 2, 3) == FpVec.zero(2, 3)

    def test_support(self):
        assert e_of([1, 3], 2, 3).coords == (1, 0, 1)

    def test_agrees_with_weight_set(self):
        fam = Hypergraph.from_edge_lists(4, itertools.combinations(range(1, 5), 2))
        assert family_indicator_set(fam, 2) == weight_d_set(2, 4, 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            e_of([5], 2, 3)


class TestAp3:
    def test_n5(self):
        hg = ap3_hypergraph(5)
        expected = {frozenset(e) for e in [{1, 2, 3}, {2, 3, 4}, {3, 4, 5}, {1, 3, 5}]}
        assert hg.edges == tuple(sorted(tuple(sorted(e)) for e in expected))

    def test_n3(self):
        assert len(ap3_hypergraph(3).edges) == 1

    def test_count_matches_pair_scan(self):
        N = 9
        expected = {
            frozenset({n, n + d, n + 2 * d})
            for n in range(1, N + 1)
            for d in range(1, N)
            if n + 2 * d <= N
        }
        assert ap3_hypergraph(N).edges == tuple(sorted(tuple(sorted(e)) for e in expected))

    def test_too_small(self):
        with pytest.raises(ValueError):
            ap3_hypergraph(2)


class TestSquares:
    def test_w2_single_square(self):
        assert len(gallai_square_hypergraph(2).edges) == 1
        assert len(s_square_set(2)) == 1

    def test_w3_five_squares(self):
        assert len(gallai_square_hypergraph(3).edges) == 5
        assert len(s_square_set(3)) == 5

    def test_count_matches_scan(self):
        W = 5
        count = sum(
            1
            for n in range(1, W + 1)
            for m in range(1, W + 1)
            for d in range(1, W)
            if n + d <= W and m + d <= W
        )
        assert len(gallai_square_hypergraph(W).edges) == count

    def test_each_square_has_four_points(self):
        for fs in s_square_set(4):
            assert len(fs.points) == 4

    def test_hypergraph_bijection(self):
        W = 4
        win = LatticeWindow(W)
        from_edges = {
            frozenset(win.point_at(i) for i in e)
            for e in gallai_square_hypergraph(W).edges
        }
        assert from_edges == {fs.points for fs in s_square_set(W)}

    @pytest.mark.parametrize("W", range(2, 9))
    def test_connection_set_is_the_decoded_finset_route(self, W):
        # square_connection_set reads the squares off the hypergraph; decoding
        # the FinSet squares gives the same set.
        decoded = VecSet(2, W * W, tuple(fin_decode(fs) for fs in s_square_set(W)))
        assert square_connection_set(W) == decoded


class TestFinEncoding:
    def test_zero_is_empty(self):
        assert fin_encode(FpVec.zero(2, 9), 3).points == frozenset()

    def test_e1_is_corner(self):
        assert fin_encode(FpVec.basis(2, 9, 1), 3).points == frozenset({(1, 1)})

    def test_roundtrip_exhaustive_w3(self):
        W = 3
        for x in all_vectors(2, W * W):
            assert fin_decode(fin_encode(x, W)) == x

    def test_group_isomorphism_w3(self):
        W = 3
        vecs = list(all_vectors(2, W * W))
        rng = random.Random(2)
        for _ in range(200):
            x, y = rng.choice(vecs), rng.choice(vecs)
            assert fin_encode(x + y, W) == fin_encode(x, W) ^ fin_encode(y, W)

    def test_group_isomorphism_w5_random(self):
        W = 5
        rng = random.Random(6)
        for _ in range(100):
            x = FpVec(2, tuple(rng.randrange(2) for _ in range(W * W)))
            y = FpVec(2, tuple(rng.randrange(2) for _ in range(W * W)))
            assert fin_encode(x + y, W) == fin_encode(x, W) ^ fin_encode(y, W)

    def test_wrong_p(self):
        with pytest.raises(ValueError):
            fin_encode(FpVec(3, (1, 0, 0, 0)), 2)

    def test_support_outside_window(self):
        with pytest.raises(ValueError):
            fin_encode(FpVec(2, (1,) * 10), 3)

    def test_finset_outside_window(self):
        with pytest.raises(ValueError):
            FinSet(2, frozenset({(3, 1)}))
