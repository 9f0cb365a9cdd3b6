"""Seeded op lists for the benchmark's workloads.

Every op is one ``fprec`` command line.  Input files are generated from the
workload seed with fprec's own constructors and writers (so that set-up time
includes that work), into a directory the caller owns.  The same seed gives
the same files and the same argv lists.

Costs are kept nearly independent of the seed, so that runs with different
seeds can be compared: random deficiency inputs are either linearly
independent sets (always deficient at level 1) or images of weight-d
families under a seeded invertible map (same deficiency level and the same
full-level scans as the family), and random Cayley connection sets are
images of families whose chromatic number has a cheap certificate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

from checks import rank_mod_p


@dataclass
class Op:
    verb: str
    argv: list[str]
    shape: tuple  # (p, n, k): n is the dimension or vertex count, k the scan depth or size
    params: dict = field(default_factory=dict)  # what the output checker needs


def _invertible(rng: random.Random, p: int, n: int) -> list[list[int]]:
    while True:
        t = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if rank_mod_p(t, p) == n:
            return t


def _apply(t: list[list[int]], vec: tuple[int, ...], p: int) -> tuple[int, ...]:
    return tuple(sum(a * b for a, b in zip(row, vec)) % p for row in t)


class _Writer:
    """Writes each distinct input once and hands back its path."""

    def __init__(self, workdir: Path):
        from fprec import fileio
        from fprec.colorings import Hypergraph
        from fprec.fpgroup import FpVec
        from fprec.setops import VecSet

        self.dir = workdir
        self.fileio, self.FpVec, self.VecSet, self.Hypergraph = fileio, FpVec, VecSet, Hypergraph
        self.paths: dict[str, str] = {}

    def _write(self, key: str, make) -> str:
        if key not in self.paths:
            path = self.dir / f"{key}.txt"
            make(path)
            self.paths[key] = str(path)
        return self.paths[key]

    def vecset(self, key: str, p: int, n: int, coords) -> str:
        vecs = tuple(self.FpVec(p, tuple(c)) for c in coords)
        return self._write(key, lambda path: self.fileio.write_vecset(self.VecSet(p, n, vecs), path))

    def family(self, p: int, n: int, d: int) -> str:
        from fprec.families import weight_d_set

        return self._write(f"w{p}_{n}_{d}",
                           lambda path: self.fileio.write_vecset(weight_d_set(p, n, d), path))

    def full(self, p: int, n: int) -> str:
        return self._write(f"full{p}_{n}",
                           lambda path: self.fileio.write_vecset(self.VecSet.full(p, n), path))

    def hypergraph(self, key: str, n: int, edges) -> str:
        hg = self.Hypergraph.from_edge_lists(n, edges)
        return self._write(key, lambda path: self.fileio.write_hypergraph(hg, path))


def _weight_vectors(n: int, d: int):
    from itertools import combinations

    for support in combinations(range(n), d):
        yield tuple(1 if i in support else 0 for i in range(n))


# deficiency: (p, n, d, k_max) of weight-d families, fixed content, one op each.
# Early exits at levels 1-3 and full recurrent scans; every op stays under
# about 1 s (weight-2 in F_2^9 at k=3, 20 s, is left out).
_DEF_FIXED = [
    (2, 8, 2, 3),  # deficient at 3 after 5,647 of 97,155 subgroups
    (2, 7, 2, 3),
    (2, 6, 2, 3),
    (2, 9, 2, 2),  # recurrent: full scans of levels 1 and 2
    (2, 8, 4, 2),
    (2, 7, 4, 3),
    (3, 7, 3, 2),
    (3, 6, 3, 2),
    (3, 5, 3, 2),
    (5, 5, 2, 2),
    (5, 5, 3, 2),
    (5, 5, 5, 2),
    (5, 6, 2, 2),
    (2, 9, 3, 2),
    (2, 7, 3, 3),
    (3, 6, 2, 2),
    (3, 7, 2, 2),
]
# Seeded invertible images of these families (each deciding level fits in
# one scan batch, or is scanned in full, so the cost does not depend on
# where the witness lands).
_DEF_IMAGES = [
    (2, 7, 2, 3, 2),
    (2, 6, 2, 3, 3),
    (2, 6, 4, 3, 3),
    (2, 8, 2, 2, 2),
    (2, 8, 4, 2, 1),
    (3, 6, 3, 2, 2),
    (3, 5, 3, 2, 4),
    (5, 5, 2, 2, 2),
    (5, 5, 3, 2, 2),
]
# Seeded linearly independent sets: (p, n, k_max, copies).
_DEF_INDEPENDENT = [
    (2, 5, 2, 8), (2, 6, 2, 6), (2, 7, 3, 6), (2, 8, 2, 6), (2, 9, 2, 6),
    (3, 5, 2, 6), (3, 6, 2, 6), (3, 7, 2, 6),
    (5, 5, 2, 6), (5, 6, 1, 6),
]


def deficiency(rng: random.Random, w: _Writer) -> list[Op]:
    ops = []

    def op(path, p, n, k):
        ops.append(Op("deficiency", ["deficiency", "--in", path, "--k-max", str(k)],
                      (p, n, k), {"path": path, "k_max": k}))

    for p, n, d, k in _DEF_FIXED:
        op(w.family(p, n, d), p, n, k)
    for i, (p, n, d, k, copies) in enumerate(_DEF_IMAGES):
        base = list(_weight_vectors(n, d))
        for c in range(copies):
            t = _invertible(rng, p, n)
            path = w.vecset(f"img{i}_{c}", p, n, [_apply(t, v, p) for v in base])
            op(path, p, n, k)
    for i, (p, n, k, copies) in enumerate(_DEF_INDEPENDENT):
        for c in range(copies):
            m = rng.randint(2, n)
            rows = _invertible(rng, p, n)[:m]
            op(w.vecset(f"ind{i}_{c}", p, n, rows), p, n, k)
    return ops


# cayley: connection sets whose chromatic number has a certificate the
# checker can find (bipartite, odd cycle, or a clique of that size).
_CAY_BASES = [(2, 5, 1), (2, 6, 1), (2, 7, 1), (2, 5, 3), (2, 6, 3), (2, 7, 3),
              (3, 3, 1), (3, 3, 2), (3, 4, 1), (3, 4, 2), (3, 4, 3)]
_CAY_IMAGES_PER_BASE = 7
_S_SQUARE = [(4, 9), (5, 2), (6, 1)]  # (W, copies)


def cayley(rng: random.Random, w: _Writer) -> list[Op]:
    ops = []
    for W, copies in _S_SQUARE:
        for _ in range(copies):
            ops.append(Op("s-square", ["exp", "s-square", "--w", str(W)], (2, W * W, 2), {"W": W}))
    for i, (p, n, d) in enumerate(_CAY_BASES):
        vpath = w.full(p, n)
        spath = w.family(p, n, d)
        ops.append(Op("chi", ["chi", "--vertices", vpath, "--conn", spath],
                      (p, n, d), {"vertices": vpath, "conn": spath}))
        base = list(_weight_vectors(n, d))
        for c in range(_CAY_IMAGES_PER_BASE):
            t = _invertible(rng, p, n)
            spath = w.vecset(f"conn{i}_{c}", p, n, [_apply(t, v, p) for v in base])
            ops.append(Op("chi", ["chi", "--vertices", vpath, "--conn", spath],
                          (p, n, d), {"vertices": vpath, "conn": spath}))
    return ops


# bridge: seeded random p-uniform hypergraphs (p, N, edges, copies), plus
# the named families of ep-roundtrip (family, p, N, copies).
_BRIDGE_RANDOM = [
    (2, 4, 3, 11), (2, 4, 5, 10), (2, 5, 4, 10), (2, 5, 7, 10), (2, 6, 5, 5), (2, 6, 9, 5),
    (3, 4, 2, 10), (3, 4, 3, 10), (3, 5, 3, 4), (3, 5, 6, 4), (3, 7, 4, 2), (3, 7, 8, 2),
    (2, 8, 6, 1),
]
_EP_FAMILIES = [
    ("all-pairs", 2, 4, 3), ("all-pairs", 2, 5, 3), ("ap3", 3, 5, 2), ("ap3", 3, 7, 1),
    ("gallai", 2, 4, 6), ("gallai", 2, 9, 1),
]


def bridge(rng: random.Random, w: _Writer) -> list[Op]:
    from itertools import combinations

    ops = []
    for i, (p, N, m, copies) in enumerate(_BRIDGE_RANDOM):
        pool = list(combinations(range(1, N + 1), p))
        for c in range(copies):
            edges = rng.sample(pool, m)
            path = w.hypergraph(f"hg{i}_{c}", N, edges)
            ops.append(Op("bridge", ["bridge", "--in", path, "--p", str(p)], (p, N, m),
                          {"p": p, "N": N, "path": path}))
    for family, p, N, copies in _EP_FAMILIES:
        for _ in range(copies):
            seed = rng.randrange(10**6)
            ops.append(Op("ep-roundtrip",
                          ["exp", "ep-roundtrip", "--p", str(p), "--n", str(N), "--family", family,
                           "--seed", str(seed)],
                          (p, N, family), {"p": p, "N": N, "family": family}))
    return ops


# sampling: poincare (p, n, k, trials, copies) and bog-scan (p, n, d, r, budget, copies).
_POINCARE = [
    (2, 4, 1, 50, 10), (2, 5, 1, 50, 10), (2, 6, 1, 50, 8), (3, 3, 1, 50, 10), (3, 4, 1, 50, 8),
    (5, 3, 1, 20, 8), (2, 5, 2, 50, 2), (2, 6, 2, 20, 2), (3, 4, 2, 20, 2),
]
_BOG = [
    (2, 3, 4, 2, 20, 8), (3, 2, 3, 2, 20, 8), (2, 4, 4, 2, 20, 6), (2, 4, 4, 3, 20, 6),
    (3, 3, 3, 2, 10, 6), (3, 3, 6, 2, 10, 4), (2, 5, 4, 2, 10, 2),
]


def sampling(rng: random.Random, _w: _Writer) -> list[Op]:
    ops = []
    for p, n, k, trials, copies in _POINCARE:
        for _ in range(copies):
            seed = rng.randrange(10**6)
            ops.append(Op("poincare",
                          ["exp", "poincare", "--p", str(p), "--n", str(n), "--k", str(k),
                           "--trials", str(trials), "--seed", str(seed)],
                          (p, n, k), {"p": p, "n": n, "k": k, "trials": trials}))
    for p, n, d, r, budget, copies in _BOG:
        for _ in range(copies):
            seed = rng.randrange(10**6)
            ops.append(Op("bog-scan",
                          ["exp", "bog-scan", "--p", str(p), "--n", str(n), "--d", str(d),
                           "--r", str(r), "--budget", str(budget), "--seed", str(seed)],
                          (p, n, d), {"p": p, "n": n, "r": r, "budget": budget}))
    return ops


# Each workload with the index, in its unshuffled list, of a cheap op that
# set-up runs once as the untimed warm-up.
WORKLOADS = {
    "deficiency": (deficiency, 9),  # weight-2 in F_5^5, k=2
    "cayley": (cayley, 0),  # s-square --w 4
    "bridge": (bridge, 0),  # 3 edges on N=4, p=2
    "sampling": (sampling, 0),  # poincare p=2 n=4 k=1
}


def generate(workload: str, seed: int, workdir: Path) -> tuple[list[Op], Op]:
    """The workload's op list for this seed and its warm-up op, with their
    input files written under ``workdir``.  The list order is shuffled by
    the seed."""
    rng = random.Random(f"{workload}:{seed}")
    build, warm = WORKLOADS[workload]
    ops = build(rng, _Writer(workdir))
    warmup = ops[warm]
    rng.shuffle(ops)
    return ops, warmup
