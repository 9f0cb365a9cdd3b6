"""fprec benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload deficiency --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each run starts fresh worker processes
with the checkout's ``src`` on PYTHONPATH and BLAS/OpenMP pinned to one
thread: several that only set up (for the median ``setup_s``) and one that
sets up and then measures.  With ``--trace 0`` the last line of stdout is
the JSON result with every end-to-end metric of BENCHMARK.json; with
``--trace 1`` it carries every per-layer metric instead.  Each run also
appends its full record (input digests, shape mix, sample counts) to
``.perfbench_work/results.jsonl``, which compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5  # set-ups per run, the measuring worker's included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def worker(root: Path, work: Path, args, extra: list[str], timeout: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(work), *extra]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "fprec" / "cli.py").is_file() or not spec_path.is_file():
        return fail(f"{root} is not an fprec checkout (needs src/fprec and BENCHMARK.json)")
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    if not 1 <= args.seconds <= 60:
        return fail("--seconds must lie in [1, 60]")
    work = root / ".perfbench_work"
    work.mkdir(exist_ok=True)

    try:
        setups = [worker(root, work, args, ["--setup-only"], 120)["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
        res = worker(root, work, args, [], args.seconds + 150)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        return fail(str(exc))
    setups.append(res["setup_s"])
    measured = dict(res["metrics"], setup_s=statistics.median(setups))

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        return fail(f"worker did not report {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}

    info = res["info"]
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops/pass={info['ops_per_pass']} passes={info['passes']} "
          f"traced_passes={info['traced_passes']} latency_samples={info['latency_samples']} "
          f"beyond_p90={info['samples_beyond_p90']} setup_samples={len(setups)}")
    print(f"# failed_ops_ratio {info['failed_ops_ratio']:.6f} ratio  "
          f"reports_with_timing {info['reports_with_timing']} count  "
          f"shape_repeat_share {info['shape_repeat_share']:.3f}  "
          f"input_repeat_share {info['input_repeat_share']:.3f}  inputs_sha256 {info['inputs_sha256'][:16]}")
    if args.trace:
        print(f"# hottest self time per traced pass: {info['hottest_self']}")
    for problem in info["problems"].items():
        print(f"# FAILED {problem}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    result = {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "time": time.time(), "setup_samples": setups,
              "end_to_end_extra": {k: v for k, v in res["metrics"].items() if k not in metrics},
              "info": info, "result": result}
    with (work / "results.jsonl").open("a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
