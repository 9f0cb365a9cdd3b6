"""Output checker: expected values for every op, computed by the benchmark's
own code from the generated input files and shared with fprec in nothing
but the file formats.

- deficiency: the level comes from a bitset search over dual vectors (a
  codim-<=k subgroup avoids S exactly when k characters have no common zero
  on S), the witness is paired directly against S, and every fully scanned
  level must report C(n,k)_p subgroups checked.
- chi and s-square: the Cayley graph is rebuilt from the files, the coloring
  is checked by an edge scan, and the chromatic number must equal a lower
  bound certificate (an edge, an odd cycle, or a clique through vertex 0 of
  the vertex-transitive graph).
- bridge and ep-roundtrip: the hypergraph chromatic number by exhaustive
  search, the partition and subgroup budgets by their rules, and the count
  of proper partitions by enumeration.
- poincare and bog-scan: the pigeonhole verdict, subgroup counts and cover
  counts.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np


def q_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^n."""
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def report_digest(doc: dict) -> str:
    """sha256 of the report with its wall-clock field removed."""
    body = {k: v for k, v in doc.items() if k != "wall_time_s"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def read_vecset(path: str) -> tuple[int, int, np.ndarray]:
    lines = Path(path).read_text().splitlines()
    head = dict(tok.split("=") for tok in lines[0].lstrip("#").split())
    p, n = int(head["p"]), int(head["n"])
    rows = [[int(t) for t in ln.split()] for ln in lines[1:] if ln.strip()]
    return p, n, np.array(rows, dtype=np.int64).reshape(len(rows), n)


def read_hypergraph(path: str) -> tuple[int, list[tuple[int, ...]]]:
    lines = Path(path).read_text().splitlines()
    n = int(lines[0].lstrip("#").strip().split("=")[1])
    return n, [tuple(int(t) for t in ln.split()) for ln in lines[1:] if ln.strip()]


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ----- deficiency -------------------------------------------------------------

def _projective_duals(p: int, n: int) -> np.ndarray:
    """One nonzero dual vector per line: first nonzero coordinate is 1."""
    blocks = []
    for lead in range(n):
        width = n - lead - 1
        tail = np.array(list(itertools.product(range(p), repeat=width)), dtype=np.int64)
        tail = tail.reshape(p**width, width)
        block = np.zeros((len(tail), n), dtype=np.int64)
        block[:, lead] = 1
        block[:, lead + 1:] = tail
        blocks.append(block)
    return np.concatenate(blocks)


def _none_disjoint(a: np.ndarray, b: np.ndarray) -> bool:
    """True when no row of a is disjoint from a row of b (packed bitsets)."""
    for i in range(0, len(a), 128):
        if ((a[i:i + 128, None, :] & b[None, :, :]) == 0).all(axis=2).any():
            return False
    return True


def deficiency_level(p: int, n: int, S: np.ndarray, k_max: int) -> int | None:
    """Least k <= k_max such that some codim-k subgroup misses S, else None."""
    if len(S) == 0:
        return 1
    if (S == 0).all(axis=1).any():
        return None
    zeros = (_projective_duals(p, n) @ S.T) % p == 0
    rows = np.unique(np.packbits(zeros, axis=1), axis=0)
    if (rows == 0).all(axis=1).any():
        return 1
    if k_max < 2:
        return None
    if not _none_disjoint(rows, rows):
        return 2
    if k_max < 3:
        return None
    # Only inclusion-minimal zero sets matter for a disjoint triple.
    keep = np.ones(len(rows), dtype=bool)
    for i in range(len(rows)):
        sub = ((rows[i] & ~rows) == 0).all(axis=1)
        sub[i] = False
        keep &= ~sub
    rows = rows[keep]
    for i in range(len(rows)):
        if not _none_disjoint(rows[i] & rows, rows):
            return 3
    if k_max > 3:
        raise ValueError("deficiency oracle covers k_max <= 3")
    return None


def rank_mod_p(rows: list[list[int]], p: int) -> int:
    m = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][col], p - 2, p)
        m[rank] = [(inv * x) % p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def check_deficiency(params: dict, doc: dict, cache: dict) -> list[str]:
    path, k_max = params["path"], params["k_max"]
    if (path, k_max) not in cache:
        p, n, S = read_vecset(path)
        cache[path, k_max] = (p, n, S, deficiency_level(p, n, S, k_max), _sha256(path))
    p, n, S, level, digest = cache[path, k_max]
    bad = []
    if (doc["p"], doc["n"], doc["k_max"], doc["input_digest"]) != (p, n, k_max, digest):
        bad.append("echoed p, n, k_max or input digest differ")
    top = level if level is not None else k_max
    counts = doc["checked_per_level"]
    if sorted(counts) != [str(k) for k in range(1, top + 1)]:
        bad.append(f"levels scanned {sorted(counts)} != 1..{top}")
    full_levels = range(1, top + 1) if level is None else range(1, level)
    if any(counts.get(str(k)) != q_binomial(n, k, p) for k in full_levels):
        bad.append("a fully scanned level did not check C(n,k)_p subgroups")
    if level is None:
        if (doc["outcome"], doc["deficient_at"], doc["recurrent_up_to"]) != ("recurrent", None, k_max):
            bad.append(f"expected recurrent up to {k_max}, got {doc['outcome']}")
        return bad
    if (doc["outcome"], doc["deficient_at"], doc["recurrent_up_to"]) != ("deficient", level, None):
        bad.append(f"expected deficient at {level}, got {doc['outcome']} {doc['deficient_at']}")
        return bad
    A = doc["witness_annihilator"]
    if not A or len(A) != level or any(len(r) != n for r in A) or rank_mod_p(A, p) != level:
        bad.append("witness is not a full-rank annihilator of the reported codimension")
    elif ((np.array(A, dtype=np.int64) @ S.T) % p == 0).all(axis=0).any():
        bad.append("witness subgroup meets S")
    if not 1 <= counts[str(level)] <= q_binomial(n, level, p):
        bad.append("checked count at the deficient level out of range")
    return bad


# ----- Cayley graphs ------------------------------------------------------------

def _lex_order(V: np.ndarray) -> np.ndarray:
    return V[np.lexsort(V.T[::-1])] if len(V) else V


def _cayley_adjacency(p: int, V: np.ndarray, S: np.ndarray) -> tuple[np.ndarray, bool]:
    """Adjacency of Cay(V, S) on V in lex order, and whether 0 lies in S."""
    V = _lex_order(V)
    weights = p ** np.arange(V.shape[1] - 1, -1, -1)
    codes = V @ weights
    index = {int(c): i for i, c in enumerate(codes)}
    adj = np.zeros((len(V), len(V)), dtype=bool)
    for s in np.concatenate([S, (-S) % p]):
        nb = ((V + s) % p) @ weights
        for i, c in enumerate(nb):
            j = index.get(int(c))
            if j is not None and j != i:
                adj[i, j] = adj[j, i] = True
    return adj, bool((S == 0).all(axis=1).any())


def _coloring_problems(adj: np.ndarray, coloring, chi) -> list[str]:
    if coloring is None or len(coloring) != len(adj):
        return ["coloring missing or of the wrong length"]
    c = np.array(coloring)
    bad = []
    if (adj & (c[:, None] == c[None, :])).any():
        bad.append("coloring has a monochromatic edge")
    if set(coloring) != set(range(1, chi + 1)):
        bad.append(f"coloring does not use exactly colors 1..{chi}")
    return bad


def _bipartite(adj: np.ndarray) -> bool:
    side = np.full(len(adj), -1)
    for start in range(len(adj)):
        if side[start] >= 0:
            continue
        side[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for u in np.nonzero(adj[v])[0]:
                if side[u] < 0:
                    side[u] = 1 - side[v]
                    queue.append(u)
                elif side[u] == side[v]:
                    return False
    return True


def _max_clique(cands: set[int], nbrs: list[set[int]]) -> int:
    best = 0

    def grow(size: int, pool: set[int]) -> None:
        nonlocal best
        if not pool:
            best = max(best, size)
            return
        if size + len(pool) <= best:
            return
        for v in sorted(pool):
            grow(size + 1, pool & nbrs[v])
            pool = pool - {v}
            if size + len(pool) <= best:
                return

    grow(0, cands)
    return best


def chromatic_lower_bound(adj: np.ndarray) -> int:
    """Lower bound from an edge, an odd cycle, or a clique through vertex 0
    (a clique number for a vertex-transitive graph)."""
    if not adj.any():
        return 1
    nbrs = [set(np.nonzero(row)[0].tolist()) for row in adj]
    lb = 2 if _bipartite(adj) else 3
    return max(lb, 1 + _max_clique(nbrs[0], nbrs))


def check_chi(params: dict, doc: dict, cache: dict) -> list[str]:
    key = (params["vertices"], params["conn"])
    if key not in cache:
        p, _, V = read_vecset(params["vertices"])
        _, _, S = read_vecset(params["conn"])
        adj, loop = _cayley_adjacency(p, V, S)
        cache[key] = (adj, loop, None if loop else chromatic_lower_bound(adj),
                      {"vertices": _sha256(key[0]), "connection": _sha256(key[1])})
    adj, loop, lb, digests = cache[key]
    bad = [] if doc["input_digests"] == digests else ["input digests differ"]
    if loop:
        return bad + ([] if doc["chi"] == "inf" else ["self-loop graph needs chi = inf"])
    if doc["chi"] != lb:
        bad.append(f"chi {doc['chi']} differs from the certified value {lb}")
    if doc["coloring_valid"] is not True:
        bad.append("coloring_valid is not true")
    return bad + _coloring_problems(adj, doc["coloring"], lb)


def _s_square_graph(W: int) -> tuple[int, np.ndarray]:
    """Vertices (2-subsets of the W x W window, fprec's lex order) and the
    adjacency of the square-difference Cayley graph."""
    n = W * W
    verts = _lex_order(np.array([[1 if i in pair else 0 for i in range(n)]
                                 for pair in itertools.combinations(range(n), 2)]))
    weights = 1 << np.arange(n - 1, -1, -1)
    codes = verts @ weights
    index = {int(c): i for i, c in enumerate(codes)}
    squares = []
    for r in range(W):
        for c in range(W):
            for d in range(1, W - max(r, c)):
                cells = [r * W + c, (r + d) * W + c, r * W + c + d, (r + d) * W + c + d]
                squares.append(sum(1 << (n - 1 - i) for i in cells))
    adj = np.zeros((len(verts), len(verts)), dtype=bool)
    for i, code in enumerate(codes):
        for s in squares:
            j = index.get(int(code) ^ s)
            if j is not None:
                adj[i, j] = True
    return len(verts), adj


def check_s_square(params: dict, doc: dict, cache: dict) -> list[str]:
    W = params["W"]
    if W not in cache:
        cache[W] = _s_square_graph(W)
    nv, adj = cache[W]
    res, bad = doc["results"], []
    if not doc["ok"] or not all(doc["verdicts"].values()):
        bad.append(f"verdicts not all true: {doc['verdicts']}")
    if (res["num_vertices"], res["num_edges"]) != (nv, int(adj.sum()) // 2):
        bad.append("vertex or edge count differs from the rebuilt graph")
    if res["chi"] != 2 or not adj.any():
        bad.append("chi is not the certified value 2")
    return bad + _coloring_problems(adj, res["coloring"], 2)


# ----- hypergraph bridge --------------------------------------------------------

def _bell(n: int) -> int:
    row = [1]
    for _ in range(n):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def _restricted_growth(n: int):
    def rec(prefix: list[int], top: int):
        if len(prefix) == n:
            yield prefix
            return
        for c in range(top + 2):
            yield from rec(prefix + [c], max(top, c))

    yield from rec([0], 0)


def hypergraph_chi(n: int, edges: list[tuple[int, ...]]) -> int:
    """Least r with an r-coloring of [1, n] leaving no edge monochromatic."""
    if not edges:
        return 1
    idx = [np.array(e) - 1 for e in edges]
    for r in range(1, n + 1):
        # Vertex 1 takes color 0 by symmetry.
        rest = np.array(list(itertools.product(range(r), repeat=n - 1)), dtype=np.int8)
        colors = np.concatenate([np.zeros((len(rest), 1), dtype=np.int8), rest.reshape(len(rest), n - 1)], axis=1)
        ok = np.ones(len(colors), dtype=bool)
        for e in idx:
            ok &= ~(colors[:, e] == colors[:, e[:1]]).all(axis=1)
        if ok.any():
            return r
    raise ValueError("hypergraph has a singleton edge")


def _family_edges(family: str, N: int) -> list[tuple[int, ...]]:
    if family == "all-pairs":
        return list(itertools.combinations(range(1, N + 1), 2))
    if family == "ap3":
        return [(a, a + d, a + 2 * d) for a in range(1, N + 1) for d in range(1, (N - a) // 2 + 1)]
    W = round(N ** 0.5)
    return [((r - 1) * W + c, (r + d - 1) * W + c, (r - 1) * W + c + d, (r + d - 1) * W + c + d)
            for r in range(1, W + 1) for c in range(1, W + 1) for d in range(1, W - max(r, c) + 1)]


def check_bridge(params: dict, doc: dict, cache: dict) -> list[str]:
    p, N = params["p"], params["N"]
    key = params.get("path") or (params["family"], N)
    if key not in cache:
        if "path" in params:
            _, edges = read_hypergraph(params["path"])
        else:
            edges = _family_edges(params["family"], N)
        exhaustive = _bell(N) <= 5000
        proper = None
        if exhaustive:
            proper = sum(
                all(len({rgs[v - 1] for v in e}) > 1 for e in edges) for rgs in _restricted_growth(N)
            )
        tested = k_used = 0
        for k in range(1, N + 1):
            if tested + q_binomial(N, k, p) > 100_000:
                break
            tested += q_binomial(N, k, p)
            k_used = k
        cache[key] = {
            "N": N,
            "hypergraph_chi": hypergraph_chi(N, edges),
            "partition_sampling": "exhaustive" if exhaustive else "sampled",
            "partitions_tested": _bell(N) if exhaustive else 500,
            "subgroups_tested": tested,
            "subgroup_codim_scanned": k_used,
            "violations": [],
            **({"proper_partitions": proper} if exhaustive else {}),
        }
    expect = cache[key]
    res = doc["results"]
    bad = [f"{k}: {res.get(k)!r} != {v!r}" for k, v in expect.items() if res.get(k) != v]
    if not doc["ok"] or not doc["verdicts"].get("no_violations"):
        bad.append("bridge verdict is not ok")
    return bad


# ----- sampling experiments -----------------------------------------------------

def _feasible_k(p: int, n: int, budget: int) -> int:
    k = total = 0
    while k < n and total + q_binomial(n, k + 1, p) <= budget:
        total += q_binomial(n, k + 1, p)
        k += 1
    return k


def check_poincare(params: dict, doc: dict, _cache: dict) -> list[str]:
    p, n, k = params["p"], params["n"], params["k"]
    res = doc["results"]
    expect = {"subgroups_per_trial": q_binomial(n, k, p), "failures": 0, "trials": params["trials"]}
    bad = [f"{key}: {res.get(key)!r} != {v!r}" for key, v in expect.items() if res.get(key) != v]
    if not doc["ok"]:
        bad.append("pigeonhole verdict failed")
    return bad


def check_bog_scan(params: dict, doc: dict, _cache: dict) -> list[str]:
    p, n, r, budget = params["p"], params["n"], params["r"], params["budget"]
    exhaustive = r ** (p ** n) <= budget
    res = doc["results"]
    c_max = _feasible_k(p, n, 20_000)
    expect = {
        "mode": "exhaustive" if exhaustive else "random",
        "covers_scanned": r ** (p ** n) if exhaustive else budget,
        "c_max_probed": c_max,
    }
    bad = [f"{key}: {res.get(key)!r} != {v!r}" for key, v in expect.items() if res.get(key) != v]
    hist = res.get("least_codim_histogram", {})
    if sum(hist.values()) != expect["covers_scanned"]:
        bad.append("histogram does not add up to the covers scanned")
    if not set(hist) <= {"none", *map(str, range(c_max + 1))}:
        bad.append("histogram has a codimension beyond c_max")
    if not doc["ok"]:
        bad.append("report not ok")
    return bad


CHECKS = {
    "deficiency": check_deficiency,
    "chi": check_chi,
    "s-square": check_s_square,
    "bridge": check_bridge,
    "ep-roundtrip": check_bridge,
    "poincare": check_poincare,
    "bog-scan": check_bog_scan,
}


def check(verb: str, params: dict, rc: int, doc: dict | None, cache: dict) -> list[str]:
    """Problems with one op's exit code and report; empty when correct."""
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    if doc is None:
        return ["no JSON report on stdout"]
    try:
        return CHECKS[verb](params, doc, cache.setdefault(verb, {}))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
