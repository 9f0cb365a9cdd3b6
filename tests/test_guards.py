"""The one resource guard, fpgroup.check_bound, and every bound routed through it."""

import itertools
import math
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fprec
from fprec import bohr, experiments, fpgroup
from fprec.bohr import meets_all_subgroups_oracle
from fprec.colorings import Hypergraph
from fprec.experiments import (
    exp_bog_scan,
    exp_ep_roundtrip,
    exp_lift_transfer,
    exp_poincare,
    exp_profile_scan,
    run_bridge_roundtrip,
)
from fprec.fileio import read_graph, read_hypergraph
from fprec.fpgroup import (
    ResourceGuardError,
    annihilator_level,
    check_bound,
    check_order,
    dual_rows,
    gaussian_binomial,
    lex_coords,
)
from fprec.setops import VecSet, difference_set


def exact_count(times, p, e, n, k):
    if not 0 <= k <= n:
        return 0
    return times * p**e * (math.comb(n, k) if p == 1 else gaussian_binomial(n, k, p))


def test_check_bound_matches_exact_count():
    # Every bound from 0 up to past the largest count, over small arguments
    # of every shape the callers use, at p = 1 (ordinary binomial) and p >= 2.
    for times, p, e, n in itertools.product(range(4), (1, 2, 3), range(4), range(7)):
        for k in range(-1, n + 2):
            count = exact_count(times, p, e, n, k)
            for bound in sorted({0, 1, 2, count - 1, count, count + 1, 2 * count} - {-1}):
                args = dict(times=times, p=p, e=e, n=n, k=k)
                if count > bound:
                    with pytest.raises(ResourceGuardError, match="^x exceeds the y bound$"):
                        check_bound("x", "y bound", bound, **args)
                else:
                    check_bound("x", "y bound", bound, **args)


@pytest.mark.parametrize("args", [
    dict(p=31, e=10**7),  # p^n of a header n = 10^7
    dict(p=31, n=2 * 10**7, k=1),  # C(n, 1)_p
    dict(p=2, n=10**6, k=5 * 10**5),  # far past the 2^22 level bound at any k
    dict(n=10**4000, k=4),  # C(m, d) with a 4001-digit m
    dict(n=2 * 10**5, k=10**5),  # a 60,000-digit binomial
    dict(times=10**4000),  # a 4001-digit vertex count
    dict(times=3, p=2, e=2 * 10**6),  # (p^n)^2 * d
])
def test_check_bound_refuses_huge_counts_without_forming_them(args):
    start = time.perf_counter()
    with pytest.raises(ResourceGuardError) as exc:
        check_bound("count", "test bound 2^24", 2**24, **args)
    assert time.perf_counter() - start < 0.1
    assert str(exc.value) == "count exceeds the test bound 2^24"


def test_slice_entry_bound_admits_every_half_slice():
    # Every slice of d <= m / 2 within the 200,000 row bound stays within the
    # 2^25 entry bound; the widest is C(107, 3) * 107 = 21,237,895.
    widest = 0
    for d in range(3, 40):
        m = 2 * d
        while math.comb(m, d) <= 200_000:
            check_bound("slice", "slice entry bound 2^25", 2**25, times=m, n=m, k=d)
            widest = max(widest, math.comb(m, d) * m)
            m += 1
    assert widest == math.comb(107, 3) * 107


class _Reached(Exception):
    """Raised in place of the work that follows a guard that passed."""


def _reach(*_args, **_kwargs):
    raise _Reached


def _graph_file(tmp_path, count):
    path = tmp_path / f"g{count}.txt"
    path.write_text(f"# vertices={count}\n")
    return path


def _hypergraph_file(tmp_path, count):
    path = tmp_path / f"h{count}.txt"
    path.write_text(f"# N={count}\n")
    return path


# Each guard: (name, call at the bound, call one past it, the attribute that
# the call at the bound reaches right after the guard, replaced by _reach).
GUARDS = [
    ("per-run p^n <= 2^24", lambda t: lex_coords(2, 24), lambda t: lex_coords(2, 25),
     (fpgroup, "_lex_rows")),
    ("per-run, difference_set", lambda t: check_order(2, 24),
     lambda t: difference_set(VecSet.empty(2, 25)), None),
    # C(22, 1)_2 = 2^22 - 1 rows; C(23, 1)_2 = 2^23 - 1.
    ("per-level, dual_rows", lambda t: fpgroup._check_level(22, 1, 2),
     lambda t: dual_rows(2, 23), None),
    # C(9, 4)_2 = 3,309,747 <= 2^22 < C(10, 4)_2 = 53,743,987.
    ("per-level, annihilator_level", lambda t: fpgroup._check_level(9, 4, 2),
     lambda t: annihilator_level(2, 10, 4), None),
    ("vertex, graph", lambda t: read_graph(_graph_file(t, 2**16)),
     lambda t: read_graph(_graph_file(t, 2**16 + 1)), None),
    ("vertex, hypergraph", lambda t: read_hypergraph(_hypergraph_file(t, 2**16)),
     lambda t: read_hypergraph(_hypergraph_file(t, 2**16 + 1)), None),
    ("oracle listing p^n <= 2^14", lambda t: meets_all_subgroups_oracle(VecSet.empty(2, 14), 0),
     lambda t: meets_all_subgroups_oracle(VecSet.empty(2, 15), 0), (bohr, "_subspace_bases")),
    # C(12, 1)_2 * 2^11 = 8,386,560 <= 2^24 < C(12, 2)_2 * 2^10.
    ("oracle elements <= 2^24", lambda t: meets_all_subgroups_oracle(VecSet.empty(2, 12), 1),
     lambda t: meets_all_subgroups_oracle(VecSet.empty(2, 12), 2), (bohr, "_subspace_bases")),
    ("sampling p^n <= 2^14", lambda t: exp_poincare(2, 14, 1, 1),
     lambda t: exp_poincare(2, 15, 1, 1), (experiments, "lex_coords")),
    ("scan p^n <= 2^12", lambda t: exp_profile_scan(2, "e1", (1, 12), 1, 1),
     lambda t: exp_profile_scan(2, "e1", (1, 13), 1, 1), (experiments, "_family_set")),
    # (2^7)^2 * 16 = 2^18 exactly; d = 18 is one step past it.
    ("sumset (p^n)^2 * d <= 2^18", lambda t: exp_bog_scan(2, 16, 7, 2, budget=1),
     lambda t: exp_bog_scan(2, 18, 7, 2, budget=1), (experiments, "lex_coords")),
    ("bridge N <= 12", lambda t: run_bridge_roundtrip(2, Hypergraph(12, [(1, 2)])),
     lambda t: run_bridge_roundtrip(2, Hypergraph(13, [(1, 2)])), (experiments, "hypergraph_chromatic")),
    ("bridge N <= 12, ep-roundtrip", lambda t: exp_ep_roundtrip(2, 12, "all-pairs"),
     lambda t: exp_ep_roundtrip(2, 13, "all-pairs"), (experiments, "run_bridge_roundtrip")),
    # C(48, 4) = 194,580 <= 200,000 < C(49, 4) = 211,876.
    ("slice C(m, d) <= 200,000", lambda t: exp_lift_transfer(2, 4, 2, 48),
     lambda t: exp_lift_transfer(2, 4, 2, 49), (experiments, "weight_d_set")),
    # With d = m - 1 there are m rows of m entries; both shapes pass the row
    # bound, and 5791^2 = 33,535,681 <= 2^25 < 5793^2.
    ("slice C(m, d) * m <= 2^25", lambda t: exp_lift_transfer(2, 5790, 2, 5791),
     lambda t: exp_lift_transfer(2, 5792, 2, 5793), (experiments, "weight_d_set")),
    # At n = 24 the default m = 2^24 passes the slice bound only with d = m.
    ("lift-transfer p^n <= 2^24", lambda t: exp_lift_transfer(2, 2**24, 24),
     lambda t: exp_lift_transfer(2, 4, 25), (experiments, "weight_d_set")),
    # With d = m the slice is one row of m entries, within both slice bounds
    # for m = 2^16 + 2 <= 2^25; only the column bound refuses it.
    ("lift-transfer m <= 2^16", lambda t: exp_lift_transfer(2, 2**16, 16),
     lambda t: exp_lift_transfer(2, 2**16 + 2, 16, 2**16 + 2), (experiments, "lex_coords")),
]


@pytest.mark.parametrize("name, at_bound, past_bound, reached", GUARDS, ids=[g[0] for g in GUARDS])
def test_guard_at_and_past_its_bound(name, at_bound, past_bound, reached, tmp_path, monkeypatch):
    if reached is not None:
        monkeypatch.setattr(*reached, _reach)
    try:
        at_bound(tmp_path)
    except ResourceGuardError:
        pytest.fail(f"{name}: the guard refused an input at its bound")
    except _Reached:
        pass
    with pytest.raises(ResourceGuardError):
        past_bound(tmp_path)


# Inputs whose scale comes from a header or a flag.  A guard must refuse each
# before anything is sized by it; past it lie seconds of big-integer work,
# counts of thousands of digits in a message, or an exhausted memory.
HEADERS = {"big": "# p=31 n=20000000", "mid": "# p=31 n=2000000", "wide": "# p=2 n=5000"}
REPRODUCERS = [
    ["deficiency", "--in", "big", "--k-max", "1"],
    ["deficiency", "--in", "mid", "--k-max", "1"],
    ["deficiency", "--in", "wide", "--k-max", "1"],
    ["exp", "poincare", "--p", "31", "--n", "3000000"],
    ["exp", "profile-scan", "--p", "31", "--n", "3000000"],
    ["exp", "lift-transfer", "--p", "31", "--n", "3000000", "--d", "31"],
    ["exp", "lift-transfer", "--p", "2", "--n", "2", "--d", "131072", "--m", "131073"],
    ["exp", "lift-transfer", "--p", "2", "--n", "2", "--d", "630", "--m", "632"],
    ["exp", "lift-transfer", "--p", "2", "--n", "24", "--d", "16777216"],
    ["exp", "lift-transfer", "--p", "31", "--n", "1", "--d", "33554431", "--m", "33554431"],
    ["exp", "ep-roundtrip", "--p", "2", "--n", "100000", "--family", "all-pairs"],
    ["exp", "ep-roundtrip", "--p", "2", "--n", "100000", "--family", "ap3"],
]


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))


@pytest.mark.parametrize("argv", REPRODUCERS, ids=[" ".join(a) for a in REPRODUCERS])
def test_scale_reproducer_exits_3_at_once(argv, tmp_path):
    # A subprocess under a 2 GiB address-space cap and a timeout, so a
    # regression fails here instead of exhausting the machine.
    for key, header in HEADERS.items():
        (tmp_path / key).write_text(header + "\n")
    env = dict(os.environ, PYTHONPATH=str(Path(fprec.__file__).parents[1]), OPENBLAS_NUM_THREADS="1")
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "fprec.cli", *argv], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=20, preexec_fn=_limit_memory,
    )
    elapsed = time.perf_counter() - start
    assert done.returncode == 3, done.stderr
    assert elapsed < 1
    assert done.stdout == "" and "bound" in done.stderr
    assert not re.search(r"\d{21}", done.stderr)
