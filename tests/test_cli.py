import argparse
import contextlib
import dataclasses
import io
import json
import re
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fprec import experiments, fileio
from fprec.cli import build_parser, main
from fprec.bohr import bohr_deficiency, meets_all_subgroups_oracle
from fprec.colorings import (
    INFINITE,
    Graph,
    Hypergraph,
    build_cayley,
    chromatic_number_bruteforce,
    hypergraph_chromatic_bruteforce,
)
from fprec.families import ap3_hypergraph, fin2_vertices, square_connection_set, weight_d_set
from fprec.fileio import (
    read_graph,
    read_hypergraph,
    read_vecset,
    sha256_of_file,
    write_graph,
    write_hypergraph,
    write_vecset,
)
from fprec.fpgroup import FpVec, ResourceGuardError, Subgroup
from fprec.setops import VecSet


class TestFileFormats:
    def test_vecset_roundtrip(self, tmp_path):
        S = weight_d_set(3, 4, 2)
        path = tmp_path / "s.txt"
        write_vecset(S, path)
        assert path.read_text().splitlines()[0] == "# p=3 n=4"
        assert read_vecset(path) == S

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("make", [VecSet.full, VecSet.empty])
    def test_vecset_roundtrip_dimension_zero(self, p, make, tmp_path):
        # F_p^0 = {()}: its one point is a blank line after the header.
        S = make(p, 0)
        path = tmp_path / "s.txt"
        write_vecset(S, path)
        assert path.read_text() == f"# p={p} n=0\n" + "\n" * len(S)
        assert read_vecset(path) == S and len(read_vecset(path)) == len(S)

    def test_hypergraph_roundtrip(self, tmp_path):
        hg = ap3_hypergraph(6)
        path = tmp_path / "h.txt"
        write_hypergraph(hg, path)
        assert path.read_text().splitlines()[0] == "# N=6"
        assert read_hypergraph(path) == hg

    def test_graph_roundtrip(self, tmp_path):
        g = Graph.from_edges(4, [(0, 1), (2, 3), (1, 1)])
        path = tmp_path / "g.txt"
        write_graph(g, path)
        assert read_graph(path) == g

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_read_inverts_write(self, data):
        p = data.draw(st.sampled_from([2, 3, 5, 7]))
        n = data.draw(st.integers(1, 5))
        S = VecSet(p, n, tuple(FpVec(p, c) for c in data.draw(st.lists(
            st.tuples(*[st.integers(0, p - 1)] * n), max_size=12))))
        N = data.draw(st.integers(0, 8))
        hg = Hypergraph.from_edge_lists(N, data.draw(st.lists(
            st.sets(st.integers(1, N), min_size=1), max_size=8)) if N else [])
        gn = data.draw(st.integers(0, 8))
        g = Graph.from_edges(gn, data.draw(st.lists(
            st.tuples(st.integers(0, gn - 1), st.integers(0, gn - 1)), max_size=12))
            if gn else [])
        with tempfile.TemporaryDirectory() as tmp:
            for x, write, read in ((S, write_vecset, read_vecset),
                                   (hg, write_hypergraph, read_hypergraph),
                                   (g, write_graph, read_graph)):
                path = Path(tmp) / "x.txt"
                write(x, path)
                assert read(path) == x

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 0 1\n")
        with pytest.raises(ValueError):
            read_vecset(path)


MALFORMED = {
    "graph-edge-three-vertices": ("chi", "--graph", "# vertices=3\n0 1\n1 2 0\n", 3),
    "graph-non-integer": ("chi", "--graph", "# vertices=3\n0 1\n\n1 x\n", 4),
    "vecset-wrong-width": ("deficiency", "--in", "# p=2 n=3\n1 0 1\n1 1\n", 3),
    "vecset-non-integer": ("deficiency", "--in", "# p=2 n=3\n1 0 1.5\n", 2),
    "vecset-no-header": ("deficiency", "--in", "1 0 1\n", 1),
    "hypergraph-non-integer": ("hypergraph-chi", "--in", "# N=4\n1 2\n\n\n3 four\n", 5),
    "graph-vertex-out-of-range": ("chi", "--graph", "# vertices=3\n0 1\n1 5\n", 3),
    "hypergraph-vertex-out-of-range": ("hypergraph-chi", "--in", "# N=4\n1 2\n3 9\n", 3),
    "vecset-coordinate-out-of-range": ("deficiency", "--in", "# p=2 n=3\n3 -1 2\n", 2),
    "vecset-non-prime-p": ("chi", "--vertices", "# p=4 n=2\n", 1),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_file_exit_2_names_line(case, tmp_path, capsys):
    verb, flag, text, line = MALFORMED[case]
    path = tmp_path / "in.txt"
    path.write_text(text)
    argv = [verb, flag, str(path)] + (["--k-max", "1"] if verb == "deficiency" else [])
    if flag == "--vertices":
        argv += ["--conn", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"in.txt: line {line}:" in err


NON_INTEGERS = ("x", "1.5", "1e3", "0x1")


@st.composite
def graph_or_hypergraph_file(draw, verb):
    """The text of a graph file (verb "chi") or a hypergraph file (verb
    "hypergraph-chi") on at most 8 vertices, and the chi its report must
    give by brute force, or None when one line is bad: a wrong count (for a
    hypergraph, a one-vertex edge), a non-integer or an out-of-range value."""
    n = draw(st.integers(0, 8))
    lo, hi = (0, n - 1) if verb == "chi" else (1, n)
    vertex = st.integers(lo, hi)
    fault = draw(st.sampled_from([None, "count", "non-integer", "out-of-range"]))
    if verb == "chi":
        rows = draw(st.lists(st.lists(vertex, min_size=2, max_size=2), max_size=12)) if n else []
        chi = None if fault else chromatic_number_bruteforce(Graph.from_edges(n, rows))
        expected = "inf" if chi == INFINITE else chi
    else:
        rows = [sorted(e) for e in draw(st.lists(st.sets(vertex, min_size=2), max_size=6))
                ] if n >= 2 else []
        hg = Hypergraph.from_edge_lists(n, rows)
        expected = None if fault else hypergraph_chromatic_bruteforce(hg)
    if fault == "count":
        bad = [lo] * (1 if verb == "hypergraph-chi" else draw(st.sampled_from([1, 3])))
    elif fault == "non-integer":
        bad = [lo, draw(st.sampled_from(NON_INTEGERS))]
    elif fault == "out-of-range":
        bad = [lo, draw(st.one_of(st.integers(max_value=lo - 1), st.integers(min_value=hi + 1)))]
    if fault:
        rows.insert(draw(st.integers(0, len(rows))), bad)
    header = f"# vertices={n}" if verb == "chi" else f"# N={n}"
    return "\n".join([header] + [" ".join(map(str, row)) for row in rows]) + "\n", expected


@pytest.mark.parametrize("verb,flag", [("chi", "--graph"), ("hypergraph-chi", "--in")])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_exit_code_contract(verb, flag, data):
    text, expected = data.draw(graph_or_hypergraph_file(verb))
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "in.txt", Path(tmp) / "out.json"
        path.write_text(text)
        code = main([verb, flag, str(path), "--out", str(out)])
        assert code == (2 if expected is None else 0)
        if code == 0:
            assert json.loads(out.read_text())["chi"] == expected


@pytest.mark.parametrize("verb,flag,header", [
    ("chi", "--graph", "# vertices=100000000"),
    ("hypergraph-chi", "--in", "# N=100000000"),
    ("bridge", "--in", "# N=65537"),
])
def test_vertex_count_header_guard_exit_3(verb, flag, header, tmp_path, capsys):
    path = tmp_path / "in.txt"
    path.write_text(header + "\n")
    argv = [verb, flag, str(path)] + (["--p", "2"] if verb == "bridge" else [])
    assert main(argv) == 3
    assert "exceeds the vertex bound MAX_VERTICES = 2^16" in capsys.readouterr().err


def test_vertex_count_bound_is_inclusive(tmp_path):
    for text, n in (("# vertices=65536\n0 65535\n", 2**16), ("# vertices=65537\n", None)):
        path = tmp_path / "g.txt"
        path.write_text(text)
        if n is None:
            with pytest.raises(ResourceGuardError):
                read_graph(path)
        else:
            assert read_graph(path).n == n


@st.composite
def vecset_text(draw, p, n, fault=None, max_rows=6):
    """The text of a vector-set file over F_p^n with at most max_rows rows,
    and the set it holds; with a fault, one line is bad instead: a row of the
    wrong width, a non-integer, a coordinate out of [0, p - 1], or a header
    whose p is not a prime."""
    coord = st.integers(0, p - 1)
    rows = draw(st.lists(st.lists(coord, min_size=n, max_size=n), max_size=max_rows))
    S = VecSet(p, n, tuple(FpVec(p, tuple(r)) for r in rows))
    header_p = draw(st.sampled_from([0, 1, 4, 6, 9, 15, 33])) if fault == "non-prime" else p
    if fault in ("width", "non-integer", "out-of-range"):
        bad = draw(st.lists(coord, min_size=n, max_size=n))
        i = draw(st.integers(0, n - 1))
        if fault == "width":
            bad = bad + [0] if n == 1 or draw(st.booleans()) else bad[1:]
        elif fault == "non-integer":
            bad[i] = draw(st.sampled_from(NON_INTEGERS))
        else:
            bad[i] = draw(st.one_of(st.integers(max_value=-1), st.integers(min_value=p)))
        rows.insert(draw(st.integers(0, len(rows))), bad)
    text = "\n".join([f"# p={header_p} n={n}"] + [" ".join(map(str, r)) for r in rows]) + "\n"
    return text, S


VECSET_FAULTS = [None, "width", "non-integer", "out-of-range", "non-prime"]


def cayley_reference(V, S):
    """Cay(V, S) by testing every pair of vertices with FpVec subtraction."""
    conn = set(S) | {-s for s in S}
    verts = V.elements
    return Graph.from_edges(len(verts), [
        (i, j) for i in range(len(verts)) for j in range(i, len(verts))
        if verts[j] - verts[i] in conn])


@pytest.mark.parametrize("verb", ["deficiency", "chi", "cayley"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_vecset_exit_code_contract(verb, data):
    """A bad line in any input file exits 2; valid files exit 0 with the
    verdict of an oracle that shares no code with the verb's kernel."""
    p = data.draw(st.sampled_from([2, 3, 5]))
    n = data.draw(st.integers(1, 3))
    faults = [data.draw(st.sampled_from(VECSET_FAULTS))]
    if verb != "deficiency":
        faults.append(None)
        faults = data.draw(st.permutations(faults))
    files = [data.draw(vecset_text(p, n, f, max_rows=6 if verb == "deficiency" else 4))
             for f in faults]
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"in{i}.txt" for i in range(len(files))]
        out = Path(tmp) / "out.txt"
        for path, (text, _) in zip(paths, files):
            path.write_text(text)
        if verb == "deficiency":
            k_max = data.draw(st.integers(1, n))
            argv = ["deficiency", "--in", str(paths[0]), "--k-max", str(k_max), "--out", str(out)]
        else:
            argv = [verb, "--vertices", str(paths[0]), "--conn", str(paths[1]), "--out", str(out)]
        code = main(argv)
        if any(faults):
            assert code == 2
            return
        assert code == 0
        if verb == "deficiency":
            S = files[0][1]
            levels = [k for k in range(1, k_max + 1) if not meets_all_subgroups_oracle(S, k)]
            doc = json.loads(out.read_text())
            assert doc["deficient_at"] == (levels[0] if levels else None)
            assert doc["outcome"] == ("deficient" if levels else "recurrent")
        else:
            (_, V), (_, S) = files
            g = cayley_reference(V, S)
            if verb == "cayley":
                assert read_graph(out) == g
            else:
                chi = chromatic_number_bruteforce(g)
                assert json.loads(out.read_text())["chi"] == ("inf" if chi == INFINITE else chi)


ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


@st.composite
def vecset_spellings(draw):
    """The text of a vector-set file as people write it, and the 1-based line
    of its one fault, if any: tabs, runs of spaces, blank lines, no final
    newline, and tokens that int() reads but are not canonical decimals."""
    p = draw(st.sampled_from([2, 3, 5, 7, 31]))
    n = draw(st.integers(0, 4))
    rows = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), max_size=6))
    fault = draw(st.sampled_from([None, None, "width", "non-integer", "out-of-range", "non-prime"]))
    bad = None
    if fault in ("width", "non-integer", "out-of-range"):
        bad = draw(st.lists(st.integers(0, p - 1), min_size=n + 1, max_size=n + 1))
        if fault == "width":
            bad = bad if n <= 1 or draw(st.booleans()) else bad[2:]
        elif fault == "non-integer":
            bad[-1] = draw(st.sampled_from(NON_INTEGERS))
        else:
            bad = bad[1:] or [0]
            # p..30 are in the one-pass parse's table; the rest are not.
            far = st.sampled_from([-1, 31, 10**30, -(10**30)])
            bad[-1] = draw(st.one_of(st.integers(p, 30), far) if p < 31 else far)
        rows.insert(draw(st.integers(0, len(rows))), bad)

    plain = draw(st.booleans())

    def spell(v):
        if plain or not isinstance(v, int):
            return str(v)
        forms = [str(v), f"+{v}", f"0{v}", str(v).translate(ARABIC_INDIC)]
        return draw(st.sampled_from(forms + ["-0"] * (v == 0)))

    gap = st.sampled_from([" ", "  ", "\t", " \t "])
    # A header p that is not a prime, yet bounds every row above.
    non_primes = [q for q in (4, 6, 9, 15, 32, 33) if q > p]
    header_p = draw(st.sampled_from(non_primes)) if fault == "non-prime" else p
    lines = [f"# p={header_p} n={n}"]
    bad_line = 1 if fault == "non-prime" else None
    for row in rows:
        if n and draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", " ", "\t"])))  # a blank line, not a row
        if row is bad:
            bad_line = len(lines) + 1
        line = "".join(draw(gap) + spell(v) for v in row)
        lines.append(line.lstrip() if draw(st.booleans()) else line)
    text = "\n".join(lines) + ("\n" if draw(st.booleans()) else "")
    return text, bad_line


@given(vecset_spellings())
@settings(max_examples=300, deadline=None)
def test_vecset_parse_matches_line_loop(case):
    """read_vecset's one-pass parse gives the rows, the exit code and the
    error message of the per-line loop, which is the only source of errors."""
    text, bad_line = case
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "in.txt", Path(tmp) / "out.txt"
        path.write_text(text)
        (p, n), lines = fileio._read_header(path, ("p", "n"))
        fast = fileio._coordinate_rows(lines, n, p)
        try:
            rows = fileio._read_rows(path, lines, (0, p - 1), width=n)
        except ValueError:
            assert fast is None and bad_line not in (None, 1)
        else:
            assert bad_line in (None, 1)
            if fast is not None:
                assert fast.dtype == np.uint8 and fast.tolist() == rows

        def run():
            argv = ["cayley", "--vertices", str(path), "--conn", str(path), "--out", str(out)]
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv)
            errors = [ln for ln in err.getvalue().splitlines() if ln.startswith("error")]
            return code, errors, out.read_bytes() if code == 0 else b""

        results = [run()]
        with mock.patch.object(fileio, "_coordinate_rows", lambda lines, n, p: None):
            results.append(run())
        assert results[0] == results[1]
        code, errors, _ = results[0]
        assert code == (0 if bad_line is None else 2)
        if bad_line is not None:
            assert errors == [errors[0]] and f"in.txt: line {bad_line}: " in errors[0]


def test_vecset_parse_error_texts(tmp_path, capsys):
    # Values beyond int64 and non-canonical tokens take the per-line loop.
    cases = {
        "# p=3 n=2\n0 1\n2 1000000000000000000000000000000\n": "line 3: values must lie in [0, 2]",
        "# p=3 n=2\n+1 02\n\n\t-0  ٢ \n": None,
        "# p=3 n=2\n0 1\n1 2 0": "line 3: 3 values, expected 2",
        # A header p that is not a prime is reported before a row above p.
        **{f"# p={p} n=1\n{p + 3}\n": f"line 1: p must be a prime <= 31, got {p}\n"
           for p in (0, 1, 4)},
    }
    for text, error in cases.items():
        path = tmp_path / "v.txt"
        path.write_text(text)
        assert main(["chi", "--vertices", str(path), "--conn", str(path)]) == (2 if error else 0)
        err = capsys.readouterr().err
        assert (error in err) if error else "error" not in err
        if not error:
            assert read_vecset(path).coord_tuples() == {(1, 2), (0, 2)}


def test_graph_files_read_as_python_ints(tmp_path):
    g_path, h_path = tmp_path / "g.txt", tmp_path / "h.txt"
    g_path.write_text("# vertices=4\n0 1\n2 2\n1 3\n")
    h_path.write_text("# N=4\n1 2\n2 3 4\n")
    g, hg = read_graph(g_path), read_hypergraph(h_path)
    assert {type(v) for a in g.adj for v in a} | {type(v) for v in g.self_loops} == {int}
    assert {type(v) for e in hg.edges for v in e} == {int}
    assert json.dumps(sorted(map(sorted, hg.edges))) == "[[1, 2], [2, 3, 4]]"


def test_chi_graph_deep_search(tmp_path, capsys):
    # A 1,200-vertex path and a disjoint 5-cycle: the search is 1,205 vertices deep.
    edges = [(i, i + 1) for i in range(1199)] + [(1200 + i, 1200 + (i + 1) % 5) for i in range(5)]
    path = tmp_path / "g.txt"
    write_graph(Graph.from_edges(1205, edges), path)
    assert main(["chi", "--graph", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["chi"] == 3 and doc["coloring_valid"] is True


def test_hypergraph_chi_long_path(tmp_path, capsys):
    path = tmp_path / "h.txt"
    write_hypergraph(Hypergraph.from_edge_lists(1500, [(i, i + 1) for i in range(1, 1500)]), path)
    assert main(["hypergraph-chi", "--in", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["chi"] == 2


@pytest.fixture
def e1_file(tmp_path):
    path = tmp_path / "e1.txt"
    write_vecset(weight_d_set(2, 4, 1), path)
    return str(path)


class TestCli:
    def test_deficiency(self, e1_file, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["deficiency", "--in", e1_file, "--k-max", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["deficient_at"] == 1
        assert doc["witness_annihilator"] == [[1, 1, 1, 1]]

    def test_chi_cayley_mode(self, tmp_path, capsys):
        v = tmp_path / "v.txt"
        s = tmp_path / "s.txt"
        write_vecset(weight_d_set(2, 2, 1), v)  # just e1, e2
        write_vecset(VecSet.full(2, 2), v)
        write_vecset(weight_d_set(2, 2, 1), s)
        assert main(["chi", "--vertices", str(v), "--conn", str(s)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["chi"] == 2

    def test_hot_verbs_build_no_fpvec(self, tmp_path, monkeypatch, capsys):
        # Vector sets are read, built and scanned as uint8 rows, never as
        # one FpVec per point.
        v, s = tmp_path / "v.txt", tmp_path / "s.txt"
        write_vecset(VecSet.full(2, 6), v)
        write_vecset(weight_d_set(2, 6, 2), s)
        built = []
        init = FpVec.__post_init__
        monkeypatch.setattr(FpVec, "__post_init__", lambda self: built.append(init(self)))
        for argv in (
            ["deficiency", "--in", str(s), "--k-max", "3"],
            ["chi", "--vertices", str(v), "--conn", str(s)],
            ["exp", "s-square", "--w", "4"],
        ):
            assert main(argv) == 0
            assert len(built) == 0, argv
        FpVec(2, (1,))
        assert len(built) == 1
        capsys.readouterr()

    def test_cayley_then_chi_graph_mode(self, tmp_path, capsys):
        v = tmp_path / "v.txt"
        s = tmp_path / "s.txt"
        g = tmp_path / "g.txt"
        write_vecset(VecSet.full(2, 2), v)
        write_vecset(weight_d_set(2, 2, 1), s)
        assert main(["cayley", "--vertices", str(v), "--conn", str(s), "--out", str(g)]) == 0
        assert g.read_text().startswith("# vertices=4")
        assert main(["chi", "--graph", str(g)]) == 0
        assert json.loads(capsys.readouterr().out)["chi"] == 2

    def test_chi_graph_without_vertices(self, tmp_path, capsys):
        g = tmp_path / "g.txt"
        g.write_text("# vertices=0\n")
        assert main(["chi", "--graph", str(g)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["chi"] == 0 and doc["coloring"] == []

    @pytest.mark.parametrize("cayley", [["--vertices"], ["--conn"], ["--vertices", "--conn"]])
    def test_chi_rejects_both_input_modes(self, cayley, tmp_path, capsys):
        g = tmp_path / "g.txt"
        write_graph(Graph.from_edges(2, [(0, 1)]), g)
        v = tmp_path / "v.txt"
        write_vecset(VecSet.full(2, 1), v)
        argv = ["chi", "--graph", str(g)]
        for flag in cayley:
            argv += [flag, str(v)]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--graph alone or both --vertices and --conn" in err

    def test_no_vertices_hypergraph_chi_0(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        path.write_text("# N=0\n")
        assert main(["hypergraph-chi", "--in", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["chi"] == 0
        assert main(["bridge", "--in", str(path), "--p", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["hypergraph_chi"] == 0

    def test_hypergraph_chi(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        write_hypergraph(ap3_hypergraph(8), path)
        assert main(["hypergraph-chi", "--in", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["chi"] == 2

    def test_bridge(self, tmp_path, capsys):
        path = tmp_path / "h.txt"
        write_hypergraph(Hypergraph.from_edge_lists(3, [{1, 2}, {2, 3}]), path)
        assert main(["bridge", "--in", str(path), "--p", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True

    def test_exp_determinism(self, tmp_path, capsys):
        args = ["exp", "poincare", "--p", "2", "--n", "4", "--k", "1",
                "--trials", "10", "--seed", "3"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_exp_wall_time_on_stderr_only(self, verb_argvs, tmp_path, capsys):
        assert main(["exp", "poincare", "--trials", "5"]) == 0
        out, err = capsys.readouterr()
        assert re.fullmatch(r"# wall time: \d+\.\d{3}s\n", err)
        assert "wall" not in out and json.loads(out)["ok"] is True
        # Every verb prints its wall time once, on stderr only: the report on
        # stdout equals the one written by --out, and cayley's edge list is
        # exactly the built graph's.
        for verb, argv in verb_argvs.items():
            runs = [argv] if verb == "cayley" else [argv, argv + ["--out", str(tmp_path / "r")]]
            texts = []
            for run in runs:
                assert main(run) == 0, verb
                out, err = capsys.readouterr()
                assert re.fullmatch(r"# wall time: \d+\.\d{3}s\n", err), verb
                texts.append(out)
            if verb == "cayley":
                assert texts == [""]
                write_graph(build_cayley(read_vecset(argv[2]), read_vecset(argv[4])).graph,
                            tmp_path / "r")
                texts = [Path(argv[6]).read_text()]
            texts.append((tmp_path / "r").read_text())
            assert texts[0] == texts[-1] and "wall" not in texts[0], verb

    @pytest.mark.parametrize("argv", [
        [*exp, "--p", str(p)] for p in (1, 4, 9, 37) for exp in (
            ["exp", "poincare", "--n", "3", "--k", "1", "--trials", "5"],
            ["exp", "bog-scan", "--n", "2", "--d", str(4 * p), "--budget", "5"],
        )
    ])
    def test_sampling_drivers_reject_non_prime_p(self, argv, capsys):
        assert main(argv) == 2
        assert f"p must be a prime <= 31, got {argv[-1]}" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["0", "1", "4", "-3", "32"])
    @pytest.mark.parametrize("exp", [
        ["ep-roundtrip", "--family", "all-pairs"],
        ["ep-roundtrip", "--family", "all-pairs", "--n", "13"],
        ["lift-transfer"],
        ["poincare"],
        ["profile-scan"],
        ["bog-scan"],
    ], ids=["ep-roundtrip", "ep-roundtrip-n13", "lift-transfer", "poincare", "profile-scan",
            "bog-scan"])
    def test_experiments_validate_p_first(self, exp, p, capsys):
        # p is checked before d % p and before any bound sized by p or N.
        assert main(["exp", *exp, "--p", p]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "p must be" in err

    def test_poincare_negative_k_exit_2(self, capsys):
        assert main(["exp", "poincare", "--k", "-1", "--trials", "5"]) == 2
        assert "need 0 <= k < n, got k=-1" in capsys.readouterr().err
        assert main(["exp", "poincare", "--k", "0", "--trials", "5"]) == 0

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_bog_scan_empty_budget_exit_2(self, budget, capsys):
        # A budget that scans no cover would report a vacuous histogram.
        assert main(["exp", "bog-scan", "--p", "2", "--n", "3", "--d", "4",
                     "--budget", budget]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "budget must be >= 1" in err

    def test_bog_scan_negative_n_exit_2(self, capsys):
        assert main(["exp", "bog-scan", "--p", "2", "--n", "-1", "--d", "4"]) == 2
        assert "n must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("r_max", ["0", "-1"])
    def test_profile_scan_r_max_below_1_exit_2(self, r_max, capsys):
        # chi "> r_max" for r_max < 1 says nothing about the graph.
        assert main(["exp", "profile-scan", "--n", "3", "--r-max", r_max]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "r_max must be >= 1" in err
        assert main(["exp", "profile-scan", "--n", "3", "--r-max", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["results"]["profile"][0]["chi"] == ">1"

    def test_ep_roundtrip_without_family_names_the_families(self, capsys):
        # ep-roundtrip's --family has no default; exp_ep_roundtrip names the families.
        assert main(["exp", "ep-roundtrip"]) == 2
        assert "expected all-pairs, ap3 or gallai" in capsys.readouterr().err

    def test_ep_roundtrip_without_family_names_the_option(self, capsys):
        assert main(["exp", "ep-roundtrip"]) == 2
        assert "error: ep-roundtrip needs --family;" in capsys.readouterr().err

    @pytest.mark.parametrize("family, n", [("gallai", "-4"), ("all-pairs", "-3")])
    def test_ep_roundtrip_negative_n_exit_2(self, family, n, capsys):
        assert main(["exp", "ep-roundtrip", "--family", family, "--n", n]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"N must be >= 1, got {n}" in err

    @pytest.mark.parametrize("n", ["1", "3", "8"])
    def test_ep_roundtrip_gallai_needs_square_n_at_least_4(self, n, capsys):
        # A window side below 2 is named by N, as a non-square N is.
        assert main(["exp", "ep-roundtrip", "--p", "2", "--family", "gallai", "--n", n]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"gallai family needs a square N >= 4, got {n}" in err

    def test_lift_transfer_checks_deficiency_witnesses(self, tmp_path, monkeypatch, capsys):
        # S = {(1, 0)} is deficient at 1 (witness x_1 = 0); a witness that
        # meets S must fail the report.
        path = tmp_path / "s.txt"
        write_vecset(VecSet(2, 2, (FpVec(2, (1, 0)),)), path)
        argv = ["exp", "lift-transfer", "--p", "2", "--n", "2", "--d", "4", "--m", "4",
                "--set", str(path)]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["deficiency_S"]["witness_annihilator"] == [[1, 0]]
        assert doc["verdicts"]["deficiency_witnesses_valid"] is True

        def wrong_witness(S, k_max, set_id=""):
            rep = bohr_deficiency(S, k_max, set_id)
            return dataclasses.replace(rep, witness=Subgroup.whole_group(S.p, S.n))

        monkeypatch.setattr(experiments, "bohr_deficiency", wrong_witness)
        assert main(argv) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdicts"]["deficiency_witnesses_valid"] is False

    def test_lift_transfer_checks_the_lift_maps_into_S(self, monkeypatch, capsys):
        # A preimage that keeps the whole slice E must fail the lift check,
        # which does not go through preimage_intersect.
        monkeypatch.setattr(experiments, "preimage_intersect", lambda rho, S, E: E)
        report = experiments.exp_lift_transfer(2, 4, 3)
        assert report.results["lift_size"] == report.results["slice_size"] == 70
        assert report.verdicts["lift_maps_into_S"] is False
        assert main(["exp", "lift-transfer", "--p", "2", "--n", "3", "--d", "4"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdicts"]["lift_maps_into_S"] is False

    def test_lift_transfer_builds_no_fpvec(self, tmp_path, monkeypatch, capsys):
        # rho is a table of uint8 columns and the lift is checked as rows.
        path = tmp_path / "s.txt"
        write_vecset(VecSet.from_rows(3, 2, np.array([[1, 2], [0, 1]])), path)
        built = []
        init = FpVec.__post_init__
        monkeypatch.setattr(FpVec, "__post_init__", lambda self: built.append(init(self)))
        for argv in (
            ["exp", "lift-transfer", "--p", "2", "--n", "3", "--d", "4", "--m", "20"],
            ["exp", "lift-transfer", "--p", "3", "--n", "2", "--d", "3", "--m", "30",
             "--set", str(path)],
        ):
            assert main(argv) == 0
            assert json.loads(capsys.readouterr().out)["results"]["lift_size"] > 0
            assert len(built) == 0, argv

    def test_tsv_format(self, e1_file, capsys):
        assert main(["deficiency", "--in", e1_file, "--k-max", "1", "--format", "tsv"]) == 0
        out = capsys.readouterr().out
        assert "deficient_at\t1" in out

    def test_bad_input_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("no header\n")
        assert main(["deficiency", "--in", str(path), "--k-max", "1"]) == 2

    @pytest.mark.parametrize("k_max", ["0", "-1"])
    def test_k_max_below_one_exit_2(self, e1_file, k_max, capsys):
        assert main(["deficiency", "--in", e1_file, "--k-max", k_max]) == 2
        assert capsys.readouterr().out == ""

    def test_resource_guard_exit_3(self, capsys):
        # poincare guard: p^n above 2^14
        assert main(["exp", "poincare", "--p", "2", "--n", "20", "--k", "1",
                     "--trials", "1"]) == 3

    def test_subgroup_count_guard_exit_3(self, capsys):
        # C(14, 7)_2 ~ 1.9e15 codim-7 subgroups: refused before any allocation.
        assert main(["exp", "poincare", "--p", "2", "--n", "14", "--k", "7",
                     "--trials", "1"]) == 3
        assert "exceeds the per-level bound" in capsys.readouterr().err

    def test_bog_scan_sumset_guard_exit_3(self, capsys):
        # (31^2)^2 * 62 units of sumset DP work per cover: refused up front
        # instead of running for about an hour.
        start = time.perf_counter()
        assert main(["exp", "bog-scan", "--p", "31", "--n", "2", "--d", "62", "--r", "2",
                     "--budget", "1"]) == 3
        assert time.perf_counter() - start < 1
        assert "exceeds the sumset bound 2^18" in capsys.readouterr().err

    def test_deficiency_level_guard_exit_3(self, tmp_path, capsys):
        # Level 1 of F_2^20 (about 10^6 subgroups) is scanned; level 2, with
        # C(20, 2)_2 ~ 1.8e11 subgroups, trips the guard instead of numpy
        # failing to allocate terabytes.
        path = tmp_path / "w2.txt"
        write_vecset(weight_d_set(2, 20, 2), path)
        assert main(["deficiency", "--in", str(path), "--k-max", "2"]) == 3
        assert capsys.readouterr().out == ""

    def test_vecset_coordinate_out_of_range_message(self, tmp_path, capsys):
        path = tmp_path / "s.txt"
        path.write_text("# p=2 n=3\n1 0 1\n3 -1 2\n")
        assert main(["deficiency", "--in", str(path), "--k-max", "1"]) == 2
        assert f"{path}: line 3: values must lie in [0, 1]" in capsys.readouterr().err

    def test_reused_parser_keeps_no_flags(self, tmp_path, capsys):
        # build_parser is cached: consecutive calls share one parser, and no
        # value of one call may leak into the defaults of the next.
        assert build_parser() is build_parser()
        out = tmp_path / "r.json"
        assert main(["exp", "poincare", "--seed", "5", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["parameters"]["seed"] == 5
        assert main(["exp", "poincare"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["parameters"] == {"p": 2, "n": 4, "k": 1, "trials": 100, "seed": 0}
        with pytest.raises(SystemExit) as exc:
            main(["exp", "poincare", "--no-such-flag"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["exp", "poincare", "--seed", "x"])
        assert exc.value.code == 2
        assert main(["exp", "poincare", "--trials", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["parameters"]["seed"] == 0

    def test_exp_s_square(self, tmp_path, capsys):
        out = tmp_path / "sq.json"
        assert main(["exp", "s-square", "--w", "3", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["chi"] == 2
        assert doc["verdicts"]["components_in_trichotomy"] is True


# Each experiment's options and their defaults, as its exp_* function is called.
EXPERIMENT_OPTIONS = {
    "s-square": {"--w": 4},
    "ep-roundtrip": {"--p": 2, "--n": 4, "--family": None, "--seed": 0},
    "lift-transfer": {"--p": 2, "--n": 4, "--d": 4, "--m": None, "--set": None, "--seed": 0},
    "poincare": {"--p": 2, "--n": 4, "--k": 1, "--trials": 100, "--seed": 0},
    "profile-scan": {"--p": 2, "--n": 4, "--n-hi": None, "--family": "ep", "--k-max": 2,
                     "--r-max": 6},
    "bog-scan": {"--p": 2, "--n": 4, "--d": 4, "--r": 2, "--budget": 200, "--seed": 0},
}
ALL_OPTIONS = set().union(*EXPERIMENT_OPTIONS.values())

# Arguments with which each verb other than exp parses.
VERB_ARGS = {
    "deficiency": ["--in", "s.txt", "--k-max", "1"],
    "chi": ["--graph", "g.txt"],
    "cayley": ["--vertices", "v.txt", "--conn", "s.txt", "--out", "g.txt"],
    "hypergraph-chi": ["--in", "h.txt"],
    "bridge": ["--in", "h.txt", "--p", "2"],
}

# The parameters of each bare `fprec exp NAME` that runs, recorded when every
# experiment shared one option set.
BARE_PARAMETERS = {
    "s-square": {"W": 4},
    "lift-transfer": {"p": 2, "n": 4, "d": 4, "m": 16, "seed": 0},
    "poincare": {"p": 2, "n": 4, "k": 1, "trials": 100, "seed": 0},
    "profile-scan": {"p": 2, "family": "ep", "n_range": [4, 4], "k_max": 2, "r_max": 6},
    "bog-scan": {"p": 2, "n": 4, "d": 4, "r": 2, "budget": 200, "seed": 0},
}


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


class TestExperimentOptions:
    def test_option_table(self):
        assert sum(map(len, EXPERIMENT_OPTIONS.values())) == 28
        parsers = _subparsers(_subparsers(build_parser())["exp"])
        assert set(parsers) == set(EXPERIMENT_OPTIONS)
        for name, options in EXPERIMENT_OPTIONS.items():
            flags = {f for a in parsers[name]._actions for f in a.option_strings}
            assert flags == set(options) | {"--out", "--format", "-h", "--help"}, name
            args = build_parser().parse_args(["exp", name])
            for flag, default in options.items():
                assert getattr(args, flag[2:].replace("-", "_")) == default, (name, flag)

    @pytest.mark.parametrize("name", EXPERIMENT_OPTIONS)
    def test_other_experiments_options_exit_2(self, name, capsys):
        for flag in sorted(ALL_OPTIONS - set(EXPERIMENT_OPTIONS[name])):
            with pytest.raises(SystemExit) as exc:
                main(["exp", name, flag, "3"])
            assert exc.value.code == 2, flag
            assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err

    @pytest.mark.parametrize("name", [*EXPERIMENT_OPTIONS, *VERB_ARGS, "fprec"])
    def test_no_abbreviated_options(self, name, capsys):
        # A prefix of an option is not that option: profile-scan --k is not
        # --k-max, bridge --s is not --seed and fprec --vers is not --version.
        # Each prefix follows arguments that parse, with a value its option takes.
        words = ["exp", name] if name in EXPERIMENT_OPTIONS else [name] if name in VERB_ARGS else []
        parser = build_parser()
        for word in words:
            parser = _subparsers(parser)[word]
        flags = {f for a in parser._actions for f in a.option_strings}
        for flag in flags:
            for prefix in (flag[:i] for i in range(3, len(flag))):
                if prefix not in flags:
                    argv = [*words, *VERB_ARGS.get(name, []), prefix]
                    with pytest.raises(SystemExit) as exc:
                        build_parser().parse_args(argv + ["tsv" if flag == "--format" else "3"])
                    assert exc.value.code == 2, prefix

    def test_profile_scan_k_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["exp", "profile-scan", "--n", "3", "--k", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --k 3" in capsys.readouterr().err

    @pytest.mark.parametrize("name", BARE_PARAMETERS)
    def test_bare_experiment_parameters(self, name, capsys):
        assert main(["exp", name]) == 0
        assert json.loads(capsys.readouterr().out)["parameters"] == BARE_PARAMETERS[name]


# sha256 of the W=5 square-graph outputs, recorded from the pair-loop Cayley
# build; any change to the edges changes them.
S_SQUARE_W5_DIGESTS = {
    "cayley": "8f7d601ff41d7ce5caee59ddf17578affd7ebc70ade1f586a54f1f63291542b9",
    "exp": "8279e024c706c021c23322a478b72d295687f60ea1dee16238cff6e6254a809c",
}


def test_s_square_w5_output_digests_pinned(tmp_path):
    v, s, g, r = (tmp_path / f for f in ("v.txt", "s.txt", "g.txt", "r.json"))
    write_vecset(fin2_vertices(5), v)
    write_vecset(square_connection_set(5), s)
    assert main(["cayley", "--vertices", str(v), "--conn", str(s), "--out", str(g)]) == 0
    assert main(["exp", "s-square", "--w", "5", "--out", str(r)]) == 0
    assert {"cayley": sha256_of_file(g), "exp": sha256_of_file(r)} == S_SQUARE_W5_DIGESTS


@pytest.fixture
def verb_argvs(tmp_path):
    e1, full, hg, graph = (str(tmp_path / f) for f in ("e1.txt", "full.txt", "h.txt", "g.txt"))
    write_vecset(weight_d_set(2, 3, 1), e1)
    write_vecset(VecSet.full(2, 3), full)
    write_hypergraph(ap3_hypergraph(6), hg)
    write_graph(Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)]), graph)
    return {
        "deficiency": ["deficiency", "--in", e1, "--k-max", "2"],
        "chi-graph": ["chi", "--graph", graph],
        "chi-cayley": ["chi", "--vertices", full, "--conn", e1],
        "cayley": ["cayley", "--vertices", full, "--conn", e1, "--out", str(tmp_path / "c.txt")],
        "hypergraph-chi": ["hypergraph-chi", "--in", hg],
        "bridge": ["bridge", "--in", hg, "--p", "3"],
        "exp": ["exp", "bog-scan", "--p", "2", "--n", "3", "--budget", "5", "--seed", "1"],
    }


@pytest.mark.parametrize("verb", [
    "deficiency", "chi-graph", "chi-cayley", "cayley", "hypergraph-chi", "bridge", "exp",
])
def test_reports_byte_identical_across_reruns(verb, verb_argvs, tmp_path, capsys):
    argv = verb_argvs[verb]
    outputs = []
    for _ in range(2):
        assert main(argv) == 0
        out = capsys.readouterr().out
        if verb == "cayley":
            out = (tmp_path / "c.txt").read_text()
        outputs.append(out.encode())
    assert outputs[0] == outputs[1]
    assert outputs[0]
