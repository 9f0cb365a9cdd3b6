"""Compare two result sets of the benchmark: the parent commit and a change.

    python3 perfbench/compare.py PARENT/results.jsonl CHANGE/results.jsonl

Each file holds the records run.py appends to ``.perfbench_work/results.jsonl``.
Runs pair up by workload and seed.  For each workload and end-to-end metric
the verdict is:

- better: the change wins at least 9 of 10 pairs (ties count for neither)
  and the gap between medians exceeds the parent's interquartile spread;
- worse: the change's median is worse than the parent's by more than the
  metric's bound in BENCHMARK.json;
- unresolved: the parent's own spread is wider than the bound, unless every
  run of the change reads better than every run of the parent;
- unchanged: otherwise.

It also counts, over the seeds both sides ran, the ops whose report bytes
(``wall_time_s`` removed) differ between the two commits, and prints, per
workload, the per-layer time deltas of the traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[tuple[str, int], dict[int, dict]]:
    """{(workload, trace): {seed: record}}; a later run of a seed replaces an earlier one."""
    runs: dict = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            runs.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = rec
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], wins: int, pairs: int,
            better: str, bound: float) -> str:
    sign = 1 if better == "lower" else -1
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if pairs and wins >= 0.9 * pairs and sign * (pm - cm) > p3 - p1:
        return "better"
    if sign * (cm - pm) > bound * abs(pm):
        return "worse"
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if (p3 - p1) > bound * abs(pm) and not all_better:
        return "unresolved"
    return "unchanged"


def values(recs: dict[int, dict], name: str) -> dict[int, float]:
    return {seed: r["result"]["metrics"][name]["value"] for seed, r in recs.items()
            if name in r["result"]["metrics"]}


def main() -> int:
    ap = argparse.ArgumentParser(description="Compare parent and change benchmark results.")
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args()
    spec = json.loads(SPEC.read_text())
    parent, change = load(args.parent), load(args.change)

    print(f"{'workload':<11} {'metric':<13} {'parent median [q1, q3]':<32} "
          f"{'change median [q1, q3]':<32} {'delta':>8} {'wins':>6}  verdict")
    for wl in [w["name"] for w in spec["workloads"]]:
        pr, cr = parent.get((wl, 0), {}), change.get((wl, 0), {})
        if not pr or not cr:
            continue
        for m in spec["end_to_end"]:
            pv, cv = values(pr, m["name"]), values(cr, m["name"])
            if not pv or not cv:
                continue
            pairs = [(pv[s], cv[s]) for s in sorted(pv.keys() & cv.keys())]
            sign = 1 if m["better"] == "lower" else -1
            wins = sum(sign * (p - c) > 0 for p, c in pairs)
            pq, cq = quartiles(list(pv.values())), quartiles(list(cv.values()))
            delta = (cq[1] - pq[1]) / pq[1] if pq[1] else float("nan")
            print(f"{wl:<11} {m['name']:<13} "
                  f"{pq[1]:>10.5g} [{pq[0]:.5g}, {pq[2]:.5g}]".ljust(57)
                  + f"{cq[1]:>10.5g} [{cq[0]:.5g}, {cq[2]:.5g}]".ljust(33)
                  + f"{delta:>+8.1%} {wins:>3}/{len(pairs):<3} "
                  + verdict(list(pv.values()), list(cv.values()), wins, len(pairs),
                            m["better"], m["bound"]))
        failed = [sum(r["result"]["failed"] for r in side.values()) for side in (pr, cr)]
        same_seed = sorted(pr.keys() & cr.keys())
        digests = [(pr[s]["info"].get("report_digests", []), cr[s]["info"].get("report_digests", []))
                   for s in same_seed]
        changed = sum(a != b for p_d, c_d in digests for a, b in zip(p_d, c_d))
        total = sum(min(len(p_d), len(c_d)) for p_d, c_d in digests)
        print(f"{wl:<11} failed ops: parent {failed[0]}, change {failed[1]}; "
              f"reports whose bytes changed: {changed} of {total}")

    timed = [m["name"] for m in spec["per_layer"] if m["unit"] == "s"]
    for wl in [w["name"] for w in spec["workloads"]]:
        pr, cr = parent.get((wl, 1), {}), change.get((wl, 1), {})
        if not pr or not cr:
            continue
        print(f"\n{wl}: per-layer seconds, traced runs (parent {len(pr)}, change {len(cr)})")
        for name in timed:
            pv, cv = values(pr, name), values(cr, name)
            if not pv or not cv:
                continue
            pm, cm = statistics.median(pv.values()), statistics.median(cv.values())
            if pm or cm:
                print(f"  {name:<50} {pm:>10.4f} -> {cm:>10.4f}  {cm - pm:>+10.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
