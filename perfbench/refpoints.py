"""Re-measure the two reference points named in ROADMAP.md with the
benchmark's timer (``time.perf_counter``, one process, one thread).

    python3 perfbench/refpoints.py

Run from the root of a checkout.  It takes about a minute and about
350 MiB at its peak (the deficiency scan materializes 788,035 subgroups).
These are notes, not workloads: each is a single sample far longer than
any op.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

from fprec.bohr import bohr_deficiency  # noqa: E402
from fprec.colorings import build_cayley  # noqa: E402
from fprec.families import fin2_vertices, square_connection_set, weight_d_set  # noqa: E402


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def main() -> int:
    S = weight_d_set(2, 9, 2)
    rep, t_def = timed(lambda: bohr_deficiency(S, 3))
    V, C = fin2_vertices(8), square_connection_set(8)
    cay, t_cay = timed(lambda: build_cayley(V, C))
    print(json.dumps({
        "bohr_deficiency(weight_d_set(2, 9, 2), 3)": {
            "seconds": round(t_def, 3), "outcome": rep.outcome,
            "checked_per_level": rep.checked_per_level},
        "build_cayley(s-square, W=8)": {
            "seconds": round(t_cay, 3), "vertices": len(V),
            "edges": sum(len(a) for a in cay.graph.adj) // 2},
        "peak_rss_mib": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
