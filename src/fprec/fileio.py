"""Plain-text file formats: vector sets, hypergraphs, edge lists."""

from __future__ import annotations

import hashlib
import itertools
import re
from pathlib import Path

import numpy as np

from .colorings import Graph, Hypergraph
from .fpgroup import MAX_VERTICES, check_bound, check_prime
from .setops import VecSet


def _read_header(
    path: str | Path, names: tuple[str, ...], vertex_count: str | None = None
) -> tuple[list[int], list[str], str]:
    """Read a file once and parse its '# name=<int> ...' header line: the
    header's values, the lines after it and the sha256 of the file's bytes.

    The header value named by vertex_count must not exceed MAX_VERTICES, else
    ResourceGuardError.  Errors name the file and line 1.
    """
    data = Path(path).read_bytes()
    lines = data.decode().splitlines()
    header = re.compile(r"#\s*" + r"\s+".join(rf"{k}=(\d+)" for k in names) + r"\s*$")
    m = header.match(lines[0]) if lines else None
    if not m:
        usage = " ".join(f"{k}=<{k}>" for k in names)
        raise ValueError(f"{path}: line 1: missing '# {usage}' header")
    values = [int(g) for g in m.groups()]
    if vertex_count:
        count = values[names.index(vertex_count)]
        what = f"{path}: line 1: {vertex_count}={count}"
        check_bound(what, "vertex bound MAX_VERTICES = 2^16", MAX_VERTICES, times=count)
    return values, lines[1:], hashlib.sha256(data).hexdigest()


def _read_rows(
    path: str | Path, lines: list[str], bounds: tuple[int, int], width: int | None = None
) -> list[list[int]]:
    """The integer rows of the lines after a header, one line at a time.

    Blank lines are skipped, except when width is 0: there every line is a
    row, a blank one the empty vector.  Every value must lie in the inclusive
    bounds, and every row must hold width values if width is given.  Errors
    name the file and the 1-based line.
    """
    rows = []
    for lineno, ln in enumerate(lines, start=2):
        if width != 0 and not ln.strip():
            continue
        try:
            row = list(map(int, ln.split()))
        except ValueError:
            raise ValueError(
                f"{path}: line {lineno}: non-integer token in {ln.strip()!r}"
            ) from None
        if width is not None and len(row) != width:
            raise ValueError(f"{path}: line {lineno}: {len(row)} values, expected {width}")
        if row and (min(row) < bounds[0] or max(row) > bounds[1]):
            raise ValueError(
                f"{path}: line {lineno}: values must lie in [{bounds[0]}, {bounds[1]}]"
            )
        rows.append(row)
    return rows


# The canonical decimal of every coordinate of F_p^n, p <= 31.
_DECIMALS = {str(v): v for v in range(31)}


def _coordinate_rows(lines: list[str], n: int, p: int) -> np.ndarray | None:
    """The rows of the lines after a vector-set header as one (m, n) uint8
    array, parsed in one pass; None unless every row holds n canonical
    decimals below p, so that _read_rows, the only source of error messages,
    parses the file instead."""
    rows = list(map(str.split, lines))
    if n:  # as in _read_rows, a blank line is a row only over F_p^0
        rows = list(filter(None, rows))
    if not set(map(len, rows)) <= {n}:
        return None
    try:
        X = np.fromiter(
            map(_DECIMALS.__getitem__, itertools.chain.from_iterable(rows)),
            dtype=np.uint8,
            count=len(rows) * n,
        )
    except KeyError:
        return None
    if X.size and X.max() >= p:
        return None
    return X.reshape(len(rows), n)


def write_vecset(S: VecSet, path: str | Path) -> None:
    lines = [f"# p={S.p} n={S.n}"]
    lines.extend(" ".join(map(str, r)) for r in S.rows().tolist())
    Path(path).write_text("\n".join(lines) + "\n")


# Each reader reads its file once and returns what it parsed with the sha256
# of the bytes it parsed, which reports cite as the input digest.
def read_vecset(path: str | Path) -> tuple[VecSet, str]:
    (p, n), lines, digest = _read_header(path, ("p", "n"))
    try:
        check_prime(p)
    except ValueError as exc:
        raise ValueError(f"{path}: line 1: {exc}") from None
    X = _coordinate_rows(lines, n, p)
    if X is None:
        rows = _read_rows(path, lines, (0, p - 1), width=n)
        X = np.array(rows, dtype=np.uint8).reshape(len(rows), n)
    return VecSet.from_rows(p, n, X), digest


def write_hypergraph(hg: Hypergraph, path: str | Path) -> None:
    lines = [f"# N={hg.n}"]
    lines.extend(" ".join(map(str, e)) for e in hg.edges)
    Path(path).write_text("\n".join(lines) + "\n")


def read_hypergraph(path: str | Path) -> tuple[Hypergraph, str]:
    (n,), lines, digest = _read_header(path, ("N",), vertex_count="N")
    edges = _read_rows(path, lines, (1, n))
    return Hypergraph.from_edge_lists(n, edges), digest


def write_graph(g: Graph, path: str | Path) -> None:
    lines = [f"# vertices={g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    Path(path).write_text("\n".join(lines) + "\n")


def read_graph(path: str | Path) -> tuple[Graph, str]:
    (n,), lines, digest = _read_header(path, ("vertices",), vertex_count="vertices")
    edges = _read_rows(path, lines, (0, n - 1), width=2)
    return Graph.from_edges(n, edges), digest


def sha256_of_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def digest_of_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
