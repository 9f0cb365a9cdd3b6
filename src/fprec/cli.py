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


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", help="write the report to this path")
    sub.add_argument("--format", choices=("json", "tsv"), default="json")


def _lift_transfer(a: argparse.Namespace) -> ExperimentReport:
    report = exp_lift_transfer(a.p, a.d, a.n, a.m, read_vecset(a.set) if a.set else None, a.seed)
    if a.set:
        report.input_digests["S_file"] = sha256_of_file(a.set)
    return report


_P, _N, _SEED = ("--p", int, 2), ("--n", int, 4), ("--seed", int, 0)

# Each experiment's options, as (flag, type, default[, help]), and its handler.
# An experiment's parser accepts only its own options.
EXPERIMENTS = {
    "s-square": ([("--w", int, 4)], lambda a: exp_s_square(a.w)),
    "ep-roundtrip": ([_P, _N, ("--family", str, None), _SEED],
                     lambda a: exp_ep_roundtrip(a.p, a.n, a.family, seed=a.seed)),
    "lift-transfer": ([_P, _N, ("--d", int, 4), ("--m", int, None),
                       ("--set", str, None, "vector set file (lift-transfer)"), _SEED],
                      _lift_transfer),
    "poincare": ([_P, _N, ("--k", int, 1), ("--trials", int, 100), _SEED],
                 lambda a: exp_poincare(a.p, a.n, a.k, a.trials, seed=a.seed)),
    "profile-scan": ([_P, _N, ("--n-hi", int, None, "upper end of the n range (profile-scan)"),
                      ("--family", str, "ep"), ("--k-max", int, 2), ("--r-max", int, 6)],
                     lambda a: exp_profile_scan(
                         a.p, a.family, (a.n, a.n if a.n_hi is None else a.n_hi),
                         a.k_max, a.r_max)),
    "bog-scan": ([_P, _N, ("--d", int, 4), ("--r", int, 2), ("--budget", int, 200), _SEED],
                 lambda a: exp_bog_scan(a.p, a.d, a.n, a.r, budget=a.budget, seed=a.seed)),
}


# Every parser of the command line: none reads a prefix of an option as the option.
_Parser = functools.partial(argparse.ArgumentParser, allow_abbrev=False)


# Built once per process: repeated in-process calls of main() would
# otherwise rebuild every subparser each time.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fprec")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    s = subs.add_parser("deficiency", help="Bohr deficiency scan of a vector set")
    s.add_argument("--in", dest="infile", required=True, help="vector set file")
    s.add_argument("--k-max", type=int, required=True)
    _add_common(s)

    s = subs.add_parser("chi", help="exact chromatic number of a graph or Cayley graph")
    s.add_argument("--graph", help="edge-list file")
    s.add_argument("--vertices", help="vertex set file (Cayley mode)")
    s.add_argument("--conn", help="connection set file (Cayley mode)")
    _add_common(s)

    s = subs.add_parser("cayley", help="build a Cayley graph and export its edge list")
    s.add_argument("--vertices", required=True)
    s.add_argument("--conn", required=True)
    s.add_argument("--out", required=True)

    s = subs.add_parser("hypergraph-chi", help="exact hypergraph chromatic number")
    s.add_argument("--in", dest="infile", required=True)
    _add_common(s)

    s = subs.add_parser("bridge", help="coloring/subgroup bridge roundtrip on a hypergraph")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--seed", type=int, default=0)
    _add_common(s)

    exp = subs.add_parser("exp", help="run a named experiment").add_subparsers(
        dest="name", required=True, parser_class=_Parser)
    for name, (options, _) in EXPERIMENTS.items():
        s = exp.add_parser(name)
        for flag, kind, default, *help_ in options:
            s.add_argument(flag, type=kind, default=default, help=help_[0] if help_ else None)
        _add_common(s)

    return parser


def _run(args: argparse.Namespace) -> int:
    """Run one verb and return its exit code."""
    if args.command == "deficiency":
        S = read_vecset(args.infile)
        report = bohr_deficiency(S, args.k_max, set_id=Path(args.infile).name)
        doc = report.to_dict()
        doc["input_digest"] = sha256_of_file(args.infile)
        _emit(doc, args.out, args.format)
        return EXIT_OK

    if args.command == "chi":
        if args.graph and not (args.vertices or args.conn):
            g = read_graph(args.graph)
            digests = {"graph": sha256_of_file(args.graph)}
        elif args.vertices and args.conn and not args.graph:
            g = build_cayley(read_vecset(args.vertices), read_vecset(args.conn))
            digests = {
                "vertices": sha256_of_file(args.vertices),
                "connection": sha256_of_file(args.conn),
            }
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
        _emit(doc, args.out, args.format)
        return EXIT_OK if valid in (True, None) else EXIT_VALIDATION

    if args.command == "cayley":
        cay = build_cayley(read_vecset(args.vertices), read_vecset(args.conn))
        write_graph(cay.graph, args.out)
        return EXIT_OK

    if args.command == "hypergraph-chi":
        hg = read_hypergraph(args.infile)
        doc = {
            "N": hg.n,
            "num_edges": len(hg.edges),
            "chi": hypergraph_chromatic(hg),
            "input_digest": sha256_of_file(args.infile),
        }
        _emit(doc, args.out, args.format)
        return EXIT_OK

    if args.command == "bridge":
        hg = read_hypergraph(args.infile)
        report = run_bridge_roundtrip(args.p, hg, seed=args.seed)
        report.input_digests["hypergraph_file"] = sha256_of_file(args.infile)
    else:  # exp
        report = EXPERIMENTS[args.name][1](args)
    _emit(report.to_dict(), args.out, args.format)
    return EXIT_OK if report.ok else EXIT_VALIDATION


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        code = _run(args)
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
