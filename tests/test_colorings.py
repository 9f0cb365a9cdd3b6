import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fprec.colorings import (
    Graph,
    Hypergraph,
    INFINITE,
    build_cayley,
    characters_to_coloring,
    chromatic_number_bruteforce,
    chromatic_number_exact,
    coloring_to_avoiding_subgroup,
    components_classify,
    find_proper_partition,
    hypergraph_chromatic,
    hypergraph_chromatic_bruteforce,
    proper_partitions,
    verify,
)
from fprec.colorings import _dsatur_colorings, _greedy_clique
from fprec.families import (
    ap3_hypergraph,
    e_of,
    family_indicator_set,
    fin2_vertices,
    square_connection_set,
    weight_d_set,
)
from fprec.fpgroup import (
    FpVec,
    Subgroup,
    all_vectors,
    hom_apply,
    hom_from_basis_images,
    rref_rank,
)
from fprec.setops import VecSet


def vs(p, n, *coord_tuples):
    return VecSet(p, n, tuple(FpVec(p, c) for c in coord_tuples))


def random_graph(rng, n, density=0.4):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density
    ]
    return Graph.from_edges(n, edges)


class TestBuildCayley:
    def test_empty_connection_edgeless(self):
        cay = build_cayley(VecSet.full(2, 2), VecSet.empty(2, 2))
        assert cay.graph.edges() == []

    def test_single_generator_matching(self):
        cay = build_cayley(VecSet.full(2, 2), vs(2, 2, (1, 0)))
        edges = cay.graph.edges()
        assert len(edges) == 2
        assert all(len(cay.graph.adj[v]) == 1 for v in range(4))

    def test_self_loop_flag(self):
        cay = build_cayley(VecSet.full(2, 2), vs(2, 2, (0, 0)))
        assert cay.has_self_loop

    def test_edge_count_matches_pair_scan(self):
        V = fin2_vertices(3)
        S = square_connection_set(3)
        cay = build_cayley(V, S)
        conn = S.coord_tuples()
        expected = sum(
            1
            for a, b in itertools.combinations(V.elements, 2)
            if (a - b).coords in conn or (b - a).coords in conn
        )
        assert len(cay.graph.edges()) == expected

    def test_mismatch(self):
        with pytest.raises(ValueError):
            build_cayley(VecSet.full(2, 2), VecSet.empty(3, 2))


def cayley_pair_loop(V, S):
    """Reference Cay(V, S): test each vertex pair's difference against S and -S."""
    verts, p = V.elements, V.p
    conn = S.coord_tuples()
    edges = [(i, i) for i in range(len(verts))] if S.contains_zero() else []
    for i, j in itertools.combinations(range(len(verts)), 2):
        diff = tuple((a - b) % p for a, b in zip(verts[i].coords, verts[j].coords))
        if diff in conn or tuple((-x) % p for x in diff) in conn:
            edges.append((i, j))
    return Graph.from_edges(len(verts), edges)


def random_cayley_input(rng, p, n, case):
    """A random V in F_p^n (not a subgroup) and S shaped by case.

    Half the vertices are other vertices shifted by +-s, so that edges occur
    even when p^n dwarfs |V|.
    """
    def vec():
        return FpVec(p, tuple(rng.randrange(p) for _ in range(n)))

    conn = [vec() for _ in range(rng.randint(1, 5))]
    if case == "zero-in-S":
        conn.append(FpVec.zero(p, n))
    elif case == "asymmetric-S":
        conn = [s for s in conn if not s.is_zero()] or [FpVec.basis(p, n, 1)]
        conn = [s for i, s in enumerate(conn) if -s not in conn[:i]]
    elif case == "empty-S":
        conn = []
    verts = [vec() for _ in range(rng.randint(1, 8))]
    if conn:
        verts += [v + rng.choice(conn) if rng.random() < 0.5 else v - rng.choice(conn)
                  for v in verts]
    if case == "empty-V":
        verts = []
    return VecSet(p, n, tuple(verts)), VecSet(p, n, tuple(conn))


CAYLEY_ORACLE_CASES = [
    (p, case)
    for p in (2, 3, 5, 7, 31)
    for case in ("random", "zero-in-S", "asymmetric-S", "empty-S", "empty-V")
    if not (p == 2 and case == "asymmetric-S")  # -s = s over F_2
]


@pytest.mark.parametrize("p,case", CAYLEY_ORACLE_CASES)
def test_build_cayley_matches_pair_loop(p, case):
    # F_p^0 = {()}: a zero-byte key; S = {0} gives one self-loop, S = {} none.
    V0 = VecSet.empty(p, 0) if case == "empty-V" else VecSet.full(p, 0)
    S0 = VecSet(p, 0, (FpVec.zero(p, 0),)) if case == "zero-in-S" else VecSet.empty(p, 0)
    g = build_cayley(V0, S0).graph
    assert g == cayley_pair_loop(V0, S0)
    assert g.self_loops == frozenset(range(len(V0)) if S0.elements else ())
    rng = random.Random(f"{p}-{case}")
    num_edges = 0
    for n in range(1, 13):
        for _ in range(3):
            V, S = random_cayley_input(rng, p, n, case)
            g = build_cayley(V, S).graph
            assert g == cayley_pair_loop(V, S)
            num_edges += sum(len(a) for a in g.adj) // 2
            if case == "zero-in-S":
                assert g.self_loops == frozenset(range(len(V)))
            if case == "asymmetric-S":
                assert S != VecSet(p, n, tuple(-s for s in S))
            if case == "empty-S":
                assert not S.elements and g.edges() == []
            if case == "empty-V":
                assert g.n == 0
    assert (num_edges > 0) == (case not in ("empty-S", "empty-V"))


class TestChromaticNumber:
    def test_edgeless(self):
        chi, coloring = chromatic_number_exact(Graph.from_edges(4, []))
        assert chi == 1 and coloring == (1, 1, 1, 1)

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_complete_graph(self, r):
        g = Graph.from_edges(r, itertools.combinations(range(r), 2))
        chi, coloring = chromatic_number_exact(g)
        assert chi == r
        assert verify(coloring, g)[0]

    def test_four_cycle_cayley(self):
        cay = build_cayley(VecSet.full(2, 2), vs(2, 2, (1, 0), (0, 1)))
        chi, _ = chromatic_number_exact(cay)
        assert chi == 2

    def test_odd_cycle(self):
        g = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        assert chromatic_number_exact(g)[0] == 3

    def test_self_loop_infinite(self):
        g = Graph.from_edges(3, [(0, 0)])
        assert chromatic_number_exact(g) == (INFINITE, None)

    def test_square_graph_chi_2(self):
        cay = build_cayley(fin2_vertices(4), square_connection_set(4))
        chi, coloring = chromatic_number_exact(cay)
        assert chi == 2
        assert verify(coloring, cay)[0]

    def test_matches_bruteforce(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_graph(rng, rng.randrange(1, 9))
            chi, coloring = chromatic_number_exact(g)
            assert chi == chromatic_number_bruteforce(g)
            assert verify(coloring, g)[0]

    def test_max_colors_marker(self):
        g = Graph.from_edges(4, itertools.combinations(range(4), 2))
        assert chromatic_number_exact(g, max_colors=2) == (3, None)


def _dsatur_reference(g):
    """DSATUR heuristic coloring; ties break by degree, then lowest index."""
    colors = [0] * g.n
    sat = [set() for _ in range(g.n)]
    uncolored = set(range(g.n))
    while uncolored:
        v = min(uncolored, key=lambda u: (-len(sat[u]), -len(g.adj[u]), u))
        used = sat[v]
        c = 1
        while c in used:
            c += 1
        colors[v] = c
        uncolored.discard(v)
        for u in g.adj[v]:
            sat[u].add(c)
    return tuple(colors)


def _find_coloring_reference(g, r):
    """Recursive backtracking for a proper r-coloring, branching on the most
    saturated uncolored vertex and trying colors in ascending order."""
    colors = {}
    sat = [set() for _ in range(g.n)]

    def pick():
        best, key = -1, None
        for v in range(g.n):
            if v in colors:
                continue
            k = (len(sat[v]), len(g.adj[v]), -v)
            if key is None or k > key:
                key, best = k, v
        return best

    def rec(max_used):
        if len(colors) == g.n:
            return True
        v = pick()
        if len(sat[v]) >= r:
            return False
        for c in range(1, min(max_used + 1, r) + 1):
            if c in sat[v]:
                continue
            colors[v] = c
            touched = [u for u in g.adj[v] if c not in sat[u]]
            for u in touched:
                sat[u].add(c)
            if rec(max(max_used, c)):
                return True
            for u in touched:
                sat[u].discard(c)
            del colors[v]
        return False

    return tuple(colors[v] for v in range(g.n)) if rec(0) else None


def greedy_clique_reference(g):
    """_greedy_clique by testing each vertex, in its order, against every
    clique member."""
    order = sorted(range(g.n), key=lambda v: (-len(g.adj[v]), v))
    clique = []
    for v in order:
        if all(v in g.adj[u] for u in clique):
            clique.append(v)
    return clique


def chromatic_reference(g, max_colors=None):
    """Reference for chromatic_number_exact: the DSATUR heuristic, then a
    backtracking search restarted from the root for each smaller color count
    until it fails or meets the greedy clique."""
    if g.has_self_loop:
        return INFINITE, None
    if g.n == 0:
        return 0, ()
    lb = max(1, len(greedy_clique_reference(g)))
    best_coloring = _dsatur_reference(g)
    best = max(best_coloring)
    if max_colors is not None and lb > max_colors:
        return max_colors + 1, None
    while best > lb:
        target = best - 1 if max_colors is None else min(best - 1, max_colors)
        attempt = _find_coloring_reference(g, target)
        if attempt is None:
            break
        best, best_coloring = max(attempt), attempt
    if max_colors is not None and best > max_colors:
        return max_colors + 1, None
    return best, best_coloring


def leaf_sequence_reference(g, cap):
    """The leaves _dsatur_colorings(g, cap) should yield: the first coloring
    of the search with cap colors from the root, then the first with one
    color fewer than the last leaf, until none exists."""
    leaves = []
    while (coloring := _find_coloring_reference(g, cap)) is not None:
        leaves.append(coloring)
        cap = max(coloring) - 1
    return leaves


class TestChromaticMatchesReference:
    def test_leaf_sequence_matches_reference(self):
        rng = random.Random(59)
        for _ in range(300):
            g = random_graph(rng, rng.randrange(1, 13), density=rng.random())
            for cap in (g.n, 3):
                assert list(_dsatur_colorings(g, cap)) == leaf_sequence_reference(g, cap)
        g = build_cayley(VecSet.full(2, 5), weight_d_set(2, 5, 3)).graph
        leaves = list(_dsatur_colorings(g, g.n))
        assert leaves[0] == _dsatur_reference(g)
        assert leaves == leaf_sequence_reference(g, g.n)

    def test_greedy_clique_matches_membership_loop(self):
        rng = random.Random(67)
        for _ in range(2000):
            g = random_graph(rng, rng.randrange(0, 41), density=rng.random())
            assert _greedy_clique(g) == greedy_clique_reference(g)
        for p, n, d in ((2, 7, 3), (3, 4, 2)):
            g = build_cayley(VecSet.full(p, n), weight_d_set(p, n, d)).graph
            assert _greedy_clique(g) == greedy_clique_reference(g)

    def test_edgeless_20000_vertices(self):
        g = Graph.from_edges(20_000, [])
        assert chromatic_number_exact(g) == (1, (1,) * 20_000)

    def test_random_graphs(self):
        rng = random.Random(53)
        for _ in range(1000):
            g = random_graph(rng, rng.randrange(0, 15), density=rng.random())
            for max_colors in (None, 1, 2, 3, 4):
                assert chromatic_number_exact(g, max_colors) == chromatic_reference(g, max_colors)

    # The (p, n, d) weight-d bases of the benchmark's cayley workload.
    @pytest.mark.parametrize("p,n,d", [
        (2, 5, 1), (2, 6, 1), (2, 7, 1), (2, 5, 3), (2, 6, 3), (2, 7, 3),
        (3, 3, 1), (3, 3, 2), (3, 4, 1), (3, 4, 2), (3, 4, 3),
    ])
    def test_weight_d_cayley(self, p, n, d):
        g = build_cayley(VecSet.full(p, n), weight_d_set(p, n, d)).graph
        assert chromatic_number_exact(g) == chromatic_reference(g)

    @pytest.mark.parametrize("W", [2, 3, 4, 5, 6])
    def test_s_square(self, W):
        g = build_cayley(fin2_vertices(W), square_connection_set(W)).graph
        assert chromatic_number_exact(g) == chromatic_reference(g)

    def test_weight2_needs_eight_colors(self):
        g = build_cayley(VecSet.full(2, 6), weight_d_set(2, 6, 2)).graph
        chi, coloring = chromatic_number_exact(g)
        assert (chi, coloring) == chromatic_reference(g)
        assert chi == 8 and verify(coloring, g)[0]


class TestComponents:
    def test_edgeless_all_singletons(self):
        tags = [t for t, _ in components_classify(Graph.from_edges(3, []))]
        assert tags == ["singleton"] * 3

    def test_cycle_is_other(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert components_classify(g)[0][0] == "other(cycle)"

    def test_path(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert components_classify(g)[0][0] == "path"

    def test_square_graph_trichotomy(self):
        cay = build_cayley(fin2_vertices(5), square_connection_set(5))
        tags = {t for t, _ in components_classify(cay)}
        assert tags <= {"singleton", "single-edge", "path"}

    def test_relabel_invariance(self):
        rng = random.Random(13)
        for _ in range(10):
            g = random_graph(rng, 8)
            perm = list(range(8))
            rng.shuffle(perm)
            relabeled = Graph.from_edges(
                8, [(perm[u], perm[v]) for u, v in g.edges()]
            )
            hist = sorted(t for t, _ in components_classify(g))
            hist2 = sorted(t for t, _ in components_classify(relabeled))
            assert hist == hist2


class TestHypergraphChromatic:
    def test_no_edges(self):
        assert hypergraph_chromatic(Hypergraph.from_edge_lists(3, [])) == 1

    def test_no_vertices_needs_no_color(self):
        # The empty partition colors the vertex-free hypergraph, as chi does
        # the vertex-free graph.
        hg = Hypergraph.from_edge_lists(0, [])
        assert hypergraph_chromatic(hg) == hypergraph_chromatic_bruteforce(hg) == 0

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError, match="vertex count must be >= 0, got -4"):
            Hypergraph.from_edge_lists(-4, [])

    def test_single_pair(self):
        assert hypergraph_chromatic(Hypergraph.from_edge_lists(2, [{1, 2}])) == 2

    def test_singleton_edge_rejected(self):
        with pytest.raises(ValueError):
            hypergraph_chromatic(Hypergraph.from_edge_lists(2, [{1}]))

    def test_ap3_on_nine_needs_three(self):
        assert hypergraph_chromatic(ap3_hypergraph(9)) >= 3

    def test_matches_bruteforce(self):
        rng = random.Random(19)
        for _ in range(15):
            n = rng.randrange(3, 8)
            edges = [
                rng.sample(range(1, n + 1), rng.randrange(2, 4))
                for _ in range(rng.randrange(1, 6))
            ]
            hg = Hypergraph.from_edge_lists(n, edges)
            assert hypergraph_chromatic(hg) == hypergraph_chromatic_bruteforce(hg)


def restricted_growth_partitions(n, r):
    """Reference: every partition of [1, n] into at most r cells, as the
    restricted-growth strings of itertools.product, in lexicographic order."""
    for s in itertools.product(range(1, r + 1), repeat=n):
        if all(c <= max(s[:i], default=0) + 1 for i, c in enumerate(s)):
            yield s


class TestProperPartitions:
    def test_matches_filtered_restricted_growth_enumeration(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randrange(2, 7)
            r = rng.randrange(1, n + 1)
            edges = [
                rng.sample(range(1, n + 1), rng.randrange(2, min(n, 3) + 1))
                for _ in range(rng.randrange(0, 6))
            ]
            hg = Hypergraph.from_edge_lists(n, edges)
            expected = [
                part for part in restricted_growth_partitions(n, r) if verify(part, hg)[0]
            ]
            assert list(proper_partitions(hg, r)) == expected
            assert find_proper_partition(hg, r) == (expected[0] if expected else None)

    def test_singleton_edge_admits_none(self):
        hg = Hypergraph.from_edge_lists(3, [{2}, {1, 3}])
        assert list(proper_partitions(hg, 3)) == []

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_each_is_restricted_growth_bounded_and_proper(self, data):
        n = data.draw(st.integers(1, 7))
        r = data.draw(st.integers(1, n))
        edges = data.draw(st.lists(
            st.sets(st.integers(1, n), min_size=min(2, n), max_size=n), max_size=6))
        hg = Hypergraph.from_edge_lists(n, edges)
        for part in proper_partitions(hg, r):
            assert len(part) == n and part[0] == 1
            assert all(c <= max(part[:i]) + 1 for i, c in enumerate(part) if i)
            assert max(part) <= r
            assert verify(part, hg) == (True, None)


class TestBridges:
    def test_worked_pair_example(self):
        fam = Hypergraph.from_edge_lists(2, [{1, 2}])
        H = coloring_to_avoiding_subgroup((1, 2), fam, 2)
        assert H.annihilator.entries == ((1, 0), (0, 1))
        ok, _ = verify(H, family_indicator_set(fam, 2))
        assert ok

    def test_monochromatic_edge_rejected(self):
        fam = Hypergraph.from_edge_lists(2, [{1, 2}])
        with pytest.raises(ValueError, match=r"\[1, 2\]"):
            coloring_to_avoiding_subgroup((1, 1), fam, 2)

    def test_ap3_partition_yields_avoiding_subgroup(self):
        fam = ap3_hypergraph(4)
        part = find_proper_partition(fam, 2)
        assert part is not None
        H = coloring_to_avoiding_subgroup(part, fam, 3)
        ok, _ = verify(H, family_indicator_set(fam, 3))
        assert ok

    def test_characters_single_cell(self):
        part = characters_to_coloring([FpVec(2, (1, 1, 1, 1)).coords], 4)
        assert part == (1, 1, 1, 1)

    def test_characters_parity_split(self):
        part = characters_to_coloring([FpVec(2, (1, 0, 1, 0, 1, 0)).coords], 6)
        assert part == (1, 2, 1, 2, 1, 2)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_characters_equal_labels_iff_equal_columns(self, data):
        p = data.draw(st.sampled_from([2, 3, 5]))
        N = data.draw(st.integers(1, 8))
        width = data.draw(st.integers(N, N + 2))
        rows = data.draw(st.lists(
            st.lists(st.integers(0, p - 1), min_size=width, max_size=width),
            min_size=1, max_size=3))
        labels = characters_to_coloring(rows, N)
        columns = list(zip(*rows))
        assert len(labels) == N and labels[0] == 1
        assert all(c <= max(labels[:i]) + 1 for i, c in enumerate(labels) if i)
        for u, v in itertools.product(range(N), repeat=2):
            assert (labels[u] == labels[v]) == (columns[u] == columns[v])

    def test_characters_monochromatic_implies_membership(self):
        rng = random.Random(29)
        for _ in range(10):
            xis = [FpVec(3, tuple(rng.randrange(3) for _ in range(6))) for _ in range(2)]
            part = characters_to_coloring([xi.coords for xi in xis], 6)
            assert max(part) <= 9
            for F in itertools.combinations(range(1, 7), 3):
                if len({part[v - 1] for v in F}) == 1:
                    eF = e_of(F, 3, 6)
                    from fprec.fpgroup import pairing
                    assert all(pairing(eF, xi) == 0 for xi in xis)

    def test_roundtrip_small_uniform_families(self):
        # Both directions, exhaustively, for 2-uniform families on 4 vertices.
        rng = random.Random(41)
        from fprec.experiments import run_bridge_roundtrip

        for _ in range(5):
            n = 4
            all_pairs = list(itertools.combinations(range(1, n + 1), 2))
            edges = rng.sample(all_pairs, rng.randrange(1, len(all_pairs) + 1))
            hg = Hypergraph.from_edge_lists(n, edges)
            report = run_bridge_roundtrip(2, hg)
            assert report.ok, report.results["violations"]


class TestImageLemma:
    def test_inequality_small(self):
        rng = random.Random(43)
        p, m, n = 2, 3, 2
        full_rank_maps = []
        for cols in itertools.product(list(all_vectors(p, n)), repeat=m):
            M = hom_from_basis_images(list(cols))
            if rref_rank(M)[1] == n:
                full_rank_maps.append(M)
        pool = [v for v in all_vectors(p, m)]
        for _ in range(10):
            R = VecSet(p, m, tuple(rng.sample(pool, rng.randrange(1, 6))))
            chi_R, _ = chromatic_number_exact(build_cayley(VecSet.full(p, m), R))
            for rho in full_rank_maps[:20]:
                image = VecSet(p, n, tuple(hom_apply(rho, x) for x in R.elements))
                chi_img, _ = chromatic_number_exact(build_cayley(VecSet.full(p, n), image))
                assert chi_img >= chi_R


class TestVerify:
    def test_proper_cycle_coloring(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert verify((1, 2, 1, 2), g) == (True, None)

    def test_constant_coloring_fails_with_edge(self):
        g = Graph.from_edges(2, [(0, 1)])
        ok, bad = verify((1, 1), g)
        assert not ok and bad == (0, 1)

    def test_partition_against_hypergraph(self):
        hg = Hypergraph.from_edge_lists(3, [{1, 2, 3}])
        ok, bad = verify((1, 1, 1), hg)
        assert not ok and bad == [1, 2, 3]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            verify((1,), vs(2, 1, (1,)))

    def test_counterexample_matches_edge_loop(self):
        """The least monochromatic edge of sorted(edges()), self-loops
        included, as the per-edge loop found it, or (True, None)."""

        def verify_by_edge_loop(coloring, g):
            for u, v in sorted(g.edges()):
                if coloring[u] == coloring[v]:
                    return False, (u, v)
            return True, None

        rng = random.Random("verify-counterexample")
        outcomes = set()
        for _ in range(300):
            n = rng.randint(0, 24)
            g = random_graph(rng, n, rng.random())
            loops = [(v, v) for v in range(n) if rng.random() < rng.choice([0, 0.05, 0.3])]
            g = Graph.from_edges(n, g.edges() + loops)
            if not g.self_loops and rng.random() < 0.3:
                coloring = chromatic_number_exact(g)[1]
            else:
                coloring = tuple(rng.randint(1, rng.randint(1, 6)) for _ in range(n))
            got = verify(coloring, g)
            assert got == verify_by_edge_loop(coloring, g)
            assert got[1] is None or all(type(x) is int for x in got[1])
            outcomes.add((got[0], bool(got[1]) and got[1][0] == got[1][1]))
        assert outcomes == {(True, False), (False, False), (False, True)}

    @pytest.mark.parametrize("p, n", [(2, 0), (3, 0), (2, 1), (2, 4), (3, 3), (5, 2), (7, 2)])
    def test_subgroup_matches_contains_loop(self, p, n, monkeypatch):
        """verify(H, S) answers as the per-point Subgroup.contains loop: the
        first point of S, in S's order, inside H, or (True, None).  It calls
        no contains, builds at most one FpVec and not S.elements."""

        def verify_by_contains(H, S):
            for s in S.elements:
                if H.contains(s):
                    return False, s
            return True, None

        rng = random.Random(f"verify-subgroup-{p}-{n}")
        U = [FpVec(p, c) for c in itertools.product(range(p), repeat=n)]
        zero = FpVec.zero(p, n)
        outcomes = set()
        for k in range(n + 1):
            for _ in range(10):
                H = Subgroup.whole_group(p, n)
                while H.codim != k:
                    H = Subgroup.from_dual_vectors([rng.choice(U) for _ in range(k)], p=p, n=n)
                picks = rng.sample(U, rng.randint(1, len(U)))
                for case in (
                    [],
                    picks + [zero],
                    picks,
                    [x for x in picks if not H.contains(x)],
                ):
                    S = VecSet(p, n, case)
                    built = []
                    with monkeypatch.context() as m:
                        init = FpVec.__post_init__
                        m.setattr(FpVec, "__post_init__", lambda self: built.append(init(self)))
                        m.setattr(Subgroup, "contains", None)
                        got = verify(H, S)
                    assert len(built) <= 1 and "elements" not in vars(S)
                    assert got == verify_by_contains(H, S), (H, S)
                    assert got[1] is None or type(got[1]) is FpVec
                    outcomes.add(got[0])
        assert outcomes == {True, False}
