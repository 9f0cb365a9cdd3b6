"""Command-line entry point.

Verbs: deficiency, chi, cayley, hypergraph-chi, bridge, exp <name>.
Exit codes: 0 success, 2 validation failure or bad input, 3 resource guard.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from . import __version__
from .bohr import bohr_deficiency
from .colorings import INFINITE, build_cayley, chromatic_number_exact, hypergraph_chromatic, verify
from .experiments import (
    ExperimentReport,
    exp_bog_scan,
    exp_ep_roundtrip,
    exp_lift_transfer,
    exp_poincare,
    exp_profile_scan,
    exp_s_square,
    report_json,
    run_bridge_roundtrip,
)
from .fileio import (
    read_graph,
    read_hypergraph,
    read_vecset,
    sha256_of_file,
    write_graph,
)
from .fpgroup import ResourceGuardError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3


def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    else:
        rows.append((prefix, json.dumps(value)))


def _emit(doc: dict, out: str | None, fmt: str) -> None:
    if fmt == "json":
        text = report_json(doc)
    else:
        rows: list[tuple[str, str]] = []
        _flatten("", doc, rows)
        text = "".join(f"{k}\t{v}\n" for k, v in rows)
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _int(flag: str, default: int | None = None, **keywords) -> tuple[str, dict]:
    return flag, {"type": int, "default": default, **keywords}


# Options as (flag, add_argument keywords); _REPORT is every report writer's.
_REPORT = [("--out", {"help": "write the report to this path"}),
           ("--format", {"choices": ("json", "tsv"), "default": "json"})]
_IN = ("--in", {"dest": "infile", "required": True})
_P, _N, _SEED = _int("--p", 2), _int("--n", 4), _int("--seed", 0)


def _result(report: ExperimentReport) -> tuple[dict, int]:
    return report.to_dict(), EXIT_OK if report.ok else EXIT_VALIDATION


def _deficiency(a: argparse.Namespace) -> tuple[dict, int]:
    doc = bohr_deficiency(read_vecset(a.infile), a.k_max, set_id=Path(a.infile).name).to_dict()
    doc["input_digest"] = sha256_of_file(a.infile)
    return doc, EXIT_OK


def _chi(a: argparse.Namespace) -> tuple[dict, int]:
    if a.graph and not (a.vertices or a.conn):
        g = read_graph(a.graph)
        digests = {"graph": sha256_of_file(a.graph)}
    elif a.vertices and a.conn and not a.graph:
        g = build_cayley(read_vecset(a.vertices), read_vecset(a.conn))
        digests = {"vertices": sha256_of_file(a.vertices), "connection": sha256_of_file(a.conn)}
    else:
        raise ValueError("chi needs either --graph alone or both --vertices and --conn")
    chi, coloring = chromatic_number_exact(g)
    valid = verify(coloring, g)[0] if coloring is not None else None
    doc = {
        "chi": "inf" if chi == INFINITE else chi,
        "coloring": list(coloring) if coloring is not None else None,
        "coloring_valid": valid,
        "input_digests": digests,
    }
    return doc, EXIT_OK if valid in (True, None) else EXIT_VALIDATION


def _cayley(a: argparse.Namespace) -> tuple[None, int]:
    write_graph(build_cayley(read_vecset(a.vertices), read_vecset(a.conn)).graph, a.out)
    return None, EXIT_OK


def _hypergraph_chi(a: argparse.Namespace) -> tuple[dict, int]:
    hg = read_hypergraph(a.infile)
    doc = {"N": hg.n, "num_edges": len(hg.edges), "chi": hypergraph_chromatic(hg),
           "input_digest": sha256_of_file(a.infile)}
    return doc, EXIT_OK


def _bridge(a: argparse.Namespace) -> tuple[dict, int]:
    report = run_bridge_roundtrip(a.p, read_hypergraph(a.infile), seed=a.seed)
    report.input_digests["hypergraph_file"] = sha256_of_file(a.infile)
    return _result(report)


# Each verb's help, its options and its handler, which returns the report
# document (None when the verb writes its own file) and the exit code.
VERBS = {
    "deficiency": ("Bohr deficiency scan of a vector set",
                   [("--in", {"dest": "infile", "required": True, "help": "vector set file"}),
                    _int("--k-max", required=True), *_REPORT], _deficiency),
    "chi": ("exact chromatic number of a graph or Cayley graph",
            [("--graph", {"help": "edge-list file"}),
             ("--vertices", {"help": "vertex set file (Cayley mode)"}),
             ("--conn", {"help": "connection set file (Cayley mode)"}), *_REPORT], _chi),
    "cayley": ("build a Cayley graph and export its edge list",
               [(flag, {"required": True}) for flag in ("--vertices", "--conn", "--out")],
               _cayley),
    "hypergraph-chi": ("exact hypergraph chromatic number", [_IN, *_REPORT], _hypergraph_chi),
    "bridge": ("coloring/subgroup bridge roundtrip on a hypergraph",
               [_IN, _int("--p", required=True), _SEED, *_REPORT], _bridge),
}


def _lift_transfer(a: argparse.Namespace) -> ExperimentReport:
    report = exp_lift_transfer(a.p, a.d, a.n, a.m, read_vecset(a.set) if a.set else None, a.seed)
    if a.set:
        report.input_digests["S_file"] = sha256_of_file(a.set)
    return report


# Each experiment's options and its handler, which returns the experiment's
# report.  An experiment's parser accepts only its own options and _REPORT.
EXPERIMENTS = {
    "s-square": ([_int("--w", 4)], lambda a: exp_s_square(a.w)),
    "ep-roundtrip": ([_P, _N, ("--family", {}), _SEED],
                     lambda a: exp_ep_roundtrip(a.p, a.n, a.family, seed=a.seed)),
    "lift-transfer": ([_P, _N, _int("--d", 4), _int("--m"),
                       ("--set", {"help": "vector set file (lift-transfer)"}), _SEED],
                      _lift_transfer),
    "poincare": ([_P, _N, _int("--k", 1), _int("--trials", 100), _SEED],
                 lambda a: exp_poincare(a.p, a.n, a.k, a.trials, seed=a.seed)),
    "profile-scan": ([_P, _N, _int("--n-hi", help="upper end of the n range (profile-scan)"),
                      ("--family", {"default": "ep"}), _int("--k-max", 2), _int("--r-max", 6)],
                     lambda a: exp_profile_scan(
                         a.p, a.family, (a.n, a.n if a.n_hi is None else a.n_hi),
                         a.k_max, a.r_max)),
    "bog-scan": ([_P, _N, _int("--d", 4), _int("--r", 2), _int("--budget", 200), _SEED],
                 lambda a: exp_bog_scan(a.p, a.d, a.n, a.r, budget=a.budget, seed=a.seed)),
}


# Every parser of the command line: none reads a prefix of an option as the option.
_Parser = functools.partial(argparse.ArgumentParser, allow_abbrev=False)


def _add_command(subs, name: str, options: list, run, **keywords) -> None:
    s = subs.add_parser(name, **keywords)
    for flag, option in options:
        s.add_argument(flag, **option)
    s.set_defaults(run=run)


# Built once per process: repeated in-process calls of main() would
# otherwise rebuild every subparser each time.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fprec")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (help_, options, run) in VERBS.items():
        _add_command(subs, name, options, run, help=help_)
    # Added last, so that usage lines list exp after the verbs.
    exp = subs.add_parser("exp", help="run a named experiment").add_subparsers(
        dest="name", required=True, parser_class=_Parser)
    for name, (options, run) in EXPERIMENTS.items():
        _add_command(exp, name, [*options, *_REPORT], lambda a, run=run: _result(run(a)))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        doc, code = args.run(args)
        if doc is not None:
            _emit(doc, args.out, args.format)
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    # Timing goes to stderr so that reports stay byte-identical across reruns.
    print(f"# wall time: {time.perf_counter() - t0:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
