"""One workload run in a fresh process: set-up, timed passes, output checks.

Run by run.py with the checkout's ``src`` on PYTHONPATH; prints one JSON
object as its last line.  The op loop is closed with one client: each op is
one in-process call of ``fprec.cli.main(argv)``, the next starting when the
previous returns.  A pass runs the workload's fixed op list once; passes
repeat while another one fits in ``--seconds``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up is timed from before fprec is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from checks import check, report_digest  # noqa: E402
from layers import HOT_LAYER, TARGETS, hottest, layer_values  # noqa: E402
from tracer import Patch, Tracer  # noqa: E402


def run_op(cli, argv: list[str]) -> tuple[int | None, float, float, str, str]:
    """Exit code (None if the op raised), wall and CPU seconds, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an op that raises is a failed op, not a failed run
            rc = None
            traceback.print_exc(file=err)
        t1, c1 = time.perf_counter(), time.process_time()
    return rc, t1 - t0, c1 - c0, out.getvalue(), err.getvalue()


class Recorder:
    """Keeps the first report of each op and compares every repeat with it."""

    def __init__(self, ops):
        self.ops = ops
        self.first: dict[int, tuple] = {}
        self.runs = Counter()
        self.mismatched = Counter()
        self.problems: dict[int, list[str]] = {}

    def observe(self, i: int, rc, text: str, errtext: str) -> None:
        self.runs[i] += 1
        try:
            doc = json.loads(text) if text else None
        except ValueError:
            doc = None
        digest = report_digest(doc) if isinstance(doc, dict) else None
        if i not in self.first:
            self.first[i] = (rc, doc, digest, errtext)
        elif (rc, digest) != self.first[i][0::2]:
            self.mismatched[i] += 1

    def verify(self) -> int:
        """Checks each op's first report against its expected values; returns
        the number of failed executions."""
        cache: dict = {}
        failed = 0
        for i, (rc, doc, _digest, errtext) in self.first.items():
            op = self.ops[i]
            bad = check(op.verb, op.params, rc, doc, cache)
            if rc is None:
                bad.append(errtext.strip().splitlines()[-1] if errtext.strip() else "raised")
            # A wrong first report fails every run of the op; otherwise only
            # the repeats whose exit code or report bytes differ from it.
            failed += self.runs[i] if bad else self.mismatched[i]
            if self.mismatched[i]:
                bad.append(f"{self.mismatched[i]} repeats differ from the first report")
            if bad:
                self.problems[i] = bad
        return failed

    def with_timing(self) -> int:
        return sum(1 for _rc, doc, _d, _e in self.first.values()
                   if isinstance(doc, dict) and "wall_time_s" in doc)


def run_pass(cli, ops, rec: Recorder, tracer=None) -> tuple[list[float], list[float]]:
    lat, cpu = [], []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        rc, dt, dc, text, errtext = run_op(cli, op.argv)
        lat.append(dt)
        cpu.append(dc)
        rec.observe(i, rc, text, errtext)
    return lat, cpu


def _traced_pass(cli, ops, rec, workload):
    tr = Tracer()
    patch = Patch(tr, TARGETS)
    patch.install()
    try:
        lat, _cpu = run_pass(cli, ops, rec, tr)
    finally:
        patch.uninstall()
    vals = layer_values(tr)
    run_s = sum(lat)
    self_sum = sum(st.self for st in tr.stats.values())
    remainder = run_s - tr.stats["cli.main"].busy
    vals["trace.run_s"] = run_s
    vals["trace.self_sum_s"] = self_sum
    vals["trace.remainder_s"] = remainder
    vals["trace.additivity_error_ratio"] = abs(run_s - (self_sum + remainder)) / run_s
    hot = hottest(tr)
    vals["trace.hot_layer_ok"] = int(HOT_LAYER.get(workload, hot) == hot)
    return vals, hot, tr.spans


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    import fprec.cli as cli

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.workdir))
    try:
        ops, warmup = workloads.generate(args.workload, args.seed, workdir)
        run_op(cli, warmup.argv)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = measure(cli, ops, args, workdir)
        result["setup_s"] = setup_s
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(cli, ops, args, workdir: Path) -> dict:
    rec = Recorder(ops)
    untraced: list[tuple[list[float], list[float]]] = []
    traced: list[dict] = []
    hot_layers, spans = [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t = time.perf_counter()
        if args.trace and len(traced) < len(untraced):
            vals, hot, pass_spans = _traced_pass(cli, ops, rec, args.workload)
            traced.append(vals)
            hot_layers.append(hot)
            spans.extend((len(traced) - 1, *s) for s in pass_spans)
        else:
            untraced.append(run_pass(cli, ops, rec))
        longest = max(longest, time.perf_counter() - t)
        done = not args.trace or traced
        if done and time.perf_counter() - start + longest > args.seconds:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = rec.verify()
    attempted = sum(rec.runs.values())
    lat_all = [x for lat, _ in untraced for x in lat]
    run_s = statistics.median(sum(lat) for lat, _ in untraced)
    p90 = statistics.quantiles(lat_all, n=10)[8]
    metrics = {
        "run_s": run_s,
        "run_cpu_s": statistics.median(sum(cpu) for _, cpu in untraced),
        "op_p50_s": statistics.median(lat_all),
        "op_p90_s": p90,
        "peak_rss_mib": peak_rss_mib,
        "failed_ops_ratio": failed / attempted,
    }
    correct = failed == 0
    if args.trace:
        layer = {name: statistics.median(v[name] for v in traced) for name in traced[0]}
        layer["trace.hot_layer_ok"] = min(v["trace.hot_layer_ok"] for v in traced)
        layer["trace.untraced_run_s"] = run_s
        layer["trace.overhead_s"] = layer["trace.run_s"] - run_s
        layer["cli.reports_with_timing"] = rec.with_timing()
        # The self times must account for every traced second.
        correct = correct and all(v["trace.additivity_error_ratio"] <= 0.01 for v in traced)
        metrics = layer
        out = Path(args.workdir) / f"trace-{args.workload}-seed{args.seed}.jsonl"
        fields = ("pass", "id", "name", "start", "end", "busy", "parent", "op")
        with out.open("w") as fh:
            for s in spans:
                fh.write(json.dumps(dict(zip(fields, s))) + "\n")
    shapes = Counter(f"{op.verb}{list(op.shape)}" for op in ops)
    seen_shapes, seen_argv, shape_rep, input_rep = set(), set(), 0, 0
    for op in ops:
        key = (op.verb, op.shape)
        shape_rep += key in seen_shapes
        input_rep += tuple(op.argv) in seen_argv
        seen_shapes.add(key)
        seen_argv.add(tuple(op.argv))
    inputs = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(workdir.glob("*.txt"))}
    info = {
        "ops_per_pass": len(ops),
        "passes": len(untraced),
        "traced_passes": len(traced),
        "pass_run_s": [sum(lat) for lat, _ in untraced],
        "latency_samples": len(lat_all),
        "samples_beyond_p90": sum(x > p90 for x in lat_all),
        "failed_ops_ratio": failed / attempted,
        "reports_with_timing": rec.with_timing(),
        "shape_repeat_share": shape_rep / len(ops),
        "input_repeat_share": input_rep / len(ops),
        "shape_mix": dict(sorted(shapes.items())),
        "inputs_sha256": hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest(),
        "report_digests": [rec.first[i][2] for i in range(len(ops))],
        "input_files": inputs,
        "problems": {" ".join(ops[i].argv[:2]) + f" #{i}": p for i, p in sorted(rec.problems.items())[:10]},
    }
    if args.trace:
        info["hottest_self"] = Counter(hot_layers).most_common()
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics, "info": info}


if __name__ == "__main__":
    sys.exit(main())
