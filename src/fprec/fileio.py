"""Plain-text file formats: vector sets, hypergraphs, edge lists."""

from __future__ import annotations

import hashlib
import re
from pathlib import Path
from typing import Callable

import numpy as np

from .colorings import Graph, Hypergraph
from .fpgroup import MAX_VERTICES, ResourceGuardError, check_prime
from .setops import VecSet


def _read_rows(
    path: str | Path,
    names: tuple[str, ...],
    width: Callable[..., int] | None = None,
    bounds: Callable[..., tuple[int, int]] | None = None,
    vertex_count: str | None = None,
) -> tuple[list[int], list[list[int]]]:
    """Parse a '# name=<int> ...' header line and the integer rows after it.

    Returns the header values and the rows, blank lines skipped.  width, given
    the header values, returns the required row length; bounds returns the
    inclusive range every value must lie in.  The header value named by
    vertex_count must not exceed MAX_VERTICES, else ResourceGuardError.
    Errors name the file and the 1-based line.
    """
    lines = Path(path).read_text().splitlines()
    header = re.compile(r"#\s*" + r"\s+".join(rf"{k}=(\d+)" for k in names) + r"\s*$")
    m = header.match(lines[0]) if lines else None
    if not m:
        usage = " ".join(f"{k}=<{k}>" for k in names)
        raise ValueError(f"{path}: line 1: missing '# {usage}' header")
    values = [int(g) for g in m.groups()]
    if vertex_count and (count := values[names.index(vertex_count)]) > MAX_VERTICES:
        raise ResourceGuardError(
            f"{path}: line 1: {vertex_count}={count} exceeds the vertex bound MAX_VERTICES = 2^16"
        )
    expected = width(*values) if width else None
    lo, hi = bounds(*values) if bounds else (None, None)
    rows = []
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        try:
            row = list(map(int, ln.split()))
        except ValueError:
            raise ValueError(
                f"{path}: line {lineno}: non-integer token in {ln.strip()!r}"
            ) from None
        if expected is not None and len(row) != expected:
            raise ValueError(f"{path}: line {lineno}: {len(row)} values, expected {expected}")
        if bounds and (min(row) < lo or max(row) > hi):
            raise ValueError(f"{path}: line {lineno}: values must lie in [{lo}, {hi}]")
        rows.append(row)
    return values, rows


def write_vecset(S: VecSet, path: str | Path) -> None:
    lines = [f"# p={S.p} n={S.n}"]
    lines.extend(" ".join(map(str, r)) for r in S.rows().tolist())
    Path(path).write_text("\n".join(lines) + "\n")


def read_vecset(path: str | Path) -> VecSet:
    (p, n), rows = _read_rows(
        path, ("p", "n"), width=lambda p, n: n, bounds=lambda p, n: (0, p - 1)
    )
    try:
        check_prime(p)
    except ValueError as exc:
        raise ValueError(f"{path}: line 1: {exc}") from None
    return VecSet.from_rows(p, n, np.array(rows, dtype=np.uint8).reshape(len(rows), n))


def write_hypergraph(hg: Hypergraph, path: str | Path) -> None:
    lines = [f"# N={hg.n}"]
    lines.extend(" ".join(str(v) for v in e) for e in sorted(sorted(e) for e in hg.edges))
    Path(path).write_text("\n".join(lines) + "\n")


def read_hypergraph(path: str | Path) -> Hypergraph:
    (n,), edges = _read_rows(path, ("N",), bounds=lambda n: (1, n), vertex_count="N")
    return Hypergraph.from_edge_lists(n, edges)


def write_graph(g: Graph, path: str | Path) -> None:
    lines = [f"# vertices={g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    Path(path).write_text("\n".join(lines) + "\n")


def read_graph(path: str | Path) -> Graph:
    (n,), edges = _read_rows(
        path, ("vertices",), width=lambda n: 2, bounds=lambda n: (0, n - 1), vertex_count="vertices"
    )
    return Graph.from_edges(n, edges)


def sha256_of_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def digest_of_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
