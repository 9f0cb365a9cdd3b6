"""The layers the traced run wraps, and the per-layer metrics it reports.

Names follow ``<module>.<function>.<stat>``.  Which end-to-end metric each
one should move, and on which workload, is listed in README.md.
"""

from __future__ import annotations

from checks import q_binomial
from tracer import Target, Tracer

MODULES = ("cli", "fileio", "fpgroup", "bohr", "setops", "colorings", "families", "experiments")

# The function whose self time must be the largest on a workload, as the
# cProfile shares of the seed show.  Workloads not listed have no expectation.
HOT_LAYER = {
    "deficiency": "fpgroup.enum_codim_subgroups",
    "cayley": "colorings.build_cayley",
}


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _levels_started(tr: Tracer, args, kwargs, _result) -> None:
    p, n, k = (_arg(args, kwargs, i, key) for i, key in enumerate(("p", "n", "k")))
    count = q_binomial(n, k, p)
    tr.add("fpgroup.enum_codim_subgroups.materialized", count)
    if any(fr.name == "bohr.bohr_deficiency" for fr in tr._stack):
        tr.add("bohr.materialized", count)


def _deficiency_checked(tr: Tracer, _args, _kwargs, report) -> None:
    tr.add("bohr.checked", sum(report.checked_per_level.values()))


def _cayley_size(tr: Tracer, args, kwargs, cay) -> None:
    v = len(_arg(args, kwargs, 0, "V"))
    g = cay.graph
    tr.add("colorings.build_cayley.pairs", v * (v - 1) // 2)
    tr.add("colorings.build_cayley.edges", sum(len(a) for a in g.adj) // 2 + len(g.self_loops))


def _sumset_size(tr: Tracer, _args, _kwargs, result) -> None:
    tr.add("setops.dfold_distinct_sumset.out_elems", len(result))


def _t(module, attr, span=False, groups=(), post=None, name=None):
    return Target(f"fprec.{module}", attr, name or f"{module}.{attr}", span, groups, post)


_FAMILIES = ("weight_d_set", "e_of", "family_indicator_set", "ap3_hypergraph",
             "gallai_square_hypergraph", "s_square_set", "fin_encode", "fin_decode",
             "square_connection_set", "fin2_vertices")

TARGETS = [
    _t("cli", "main", span=True),
    _t("fileio", "read_vecset", span=True, groups=("fileio.read",)),
    _t("fileio", "read_hypergraph", span=True, groups=("fileio.read",)),
    _t("fileio", "read_graph", span=True, groups=("fileio.read",)),
    _t("fileio", "sha256_of_file", span=True),
    _t("fileio", "digest_of_text"),
    _t("fpgroup", "enum_codim_subgroups", span=True, post=_levels_started),
    _t("fpgroup", "Subgroup.contains"),
    _t("fpgroup", "Subgroup.elements"),
    _t("fpgroup", "rref_rank"),
    _t("bohr", "bohr_deficiency", span=True, post=_deficiency_checked),
    _t("setops", "VecSet.__post_init__", name="setops.VecSet"),
    _t("setops", "difference_set"),
    _t("setops", "dfold_distinct_sumset", post=_sumset_size),
    _t("colorings", "build_cayley", span=True, post=_cayley_size),
    _t("colorings", "verify"),
    _t("colorings", "characters_to_coloring"),
    _t("colorings", "coloring_to_avoiding_subgroup"),
    _t("colorings", "chromatic_number_exact", span=True),
    _t("colorings", "hypergraph_chromatic", span=True),
    _t("colorings", "find_proper_partition"),
    _t("colorings", "components_classify", span=True),
    *(_t("families", f) for f in _FAMILIES),
    _t("experiments", "exp_s_square", span=True),
    _t("experiments", "exp_ep_roundtrip", span=True),
    _t("experiments", "run_bridge_roundtrip", span=True),
    _t("experiments", "_avoiding_subgroups", span=True),
    _t("experiments", "exp_poincare", span=True),
    _t("experiments", "exp_bog_scan", span=True),
    _t("experiments", "ExperimentReport.to_dict"),
]

# (metric, unit, better)
PER_LAYER = [
    ("cli.main.self_s", "s", "lower"),
    ("cli.reports_with_timing", "count", "lower"),
    ("fileio.read.busy_s", "s", "lower"),
    ("fileio.sha256_of_file.busy_s", "s", "lower"),
    ("fpgroup.enum_codim_subgroups.calls", "count", "lower"),
    ("fpgroup.enum_codim_subgroups.yielded", "count", "lower"),
    ("fpgroup.enum_codim_subgroups.materialized", "count", "lower"),
    ("fpgroup.enum_codim_subgroups.busy_s", "s", "lower"),
    ("fpgroup.enum_codim_subgroups.self_s", "s", "lower"),
    ("fpgroup.Subgroup.contains.calls", "count", "lower"),
    ("fpgroup.Subgroup.contains.busy_s", "s", "lower"),
    ("fpgroup.Subgroup.elements.yielded", "count", "lower"),
    ("fpgroup.Subgroup.elements.busy_s", "s", "lower"),
    ("fpgroup.rref_rank.calls", "count", "lower"),
    ("fpgroup.rref_rank.busy_s", "s", "lower"),
    ("bohr.bohr_deficiency.calls", "count", "lower"),
    ("bohr.bohr_deficiency.busy_s", "s", "lower"),
    ("bohr.bohr_deficiency.self_s", "s", "lower"),
    ("bohr.checked", "count", "lower"),
    ("bohr.materialized", "count", "lower"),
    ("bohr.checked_per_materialized", "ratio", "higher"),
    ("setops.VecSet.constructed", "count", "lower"),
    ("setops.VecSet.busy_s", "s", "lower"),
    ("setops.difference_set.calls", "count", "lower"),
    ("setops.difference_set.busy_s", "s", "lower"),
    ("setops.dfold_distinct_sumset.calls", "count", "lower"),
    ("setops.dfold_distinct_sumset.busy_s", "s", "lower"),
    ("setops.dfold_distinct_sumset.out_elems", "count", "lower"),
    ("colorings.build_cayley.busy_s", "s", "lower"),
    ("colorings.build_cayley.self_s", "s", "lower"),
    ("colorings.build_cayley.pairs", "count", "lower"),
    ("colorings.build_cayley.edges", "count", "lower"),
    ("colorings.verify.calls", "count", "lower"),
    ("colorings.verify.busy_s", "s", "lower"),
    ("colorings.characters_to_coloring.busy_s", "s", "lower"),
    ("colorings.coloring_to_avoiding_subgroup.busy_s", "s", "lower"),
    ("colorings.chromatic_number_exact.calls", "count", "lower"),
    ("colorings.chromatic_number_exact.busy_s", "s", "lower"),
    ("colorings.hypergraph_chromatic.busy_s", "s", "lower"),
    ("colorings.find_proper_partition.calls", "count", "lower"),
    ("colorings.find_proper_partition.busy_s", "s", "lower"),
    ("colorings.components_classify.busy_s", "s", "lower"),
    ("families.busy_s", "s", "lower"),
    ("experiments.exp_s_square.self_s", "s", "lower"),
    ("experiments.exp_ep_roundtrip.self_s", "s", "lower"),
    ("experiments.run_bridge_roundtrip.self_s", "s", "lower"),
    ("experiments._avoiding_subgroups.self_s", "s", "lower"),
    ("experiments.exp_poincare.self_s", "s", "lower"),
    ("experiments.exp_bog_scan.self_s", "s", "lower"),
    ("experiments.ExperimentReport.to_dict.busy_s", "s", "lower"),
    *((f"{m}.self_s", "s", "lower") for m in MODULES),
    ("trace.run_s", "s", "lower"),
    ("trace.untraced_run_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.remainder_s", "s", "lower"),
    ("trace.additivity_error_ratio", "ratio", "lower"),
    ("trace.hot_layer_ok", "count", "higher"),
]


_STAT_ATTR = {"calls": "calls", "constructed": "calls", "yielded": "yielded",
              "busy_s": "busy", "self_s": "self"}


def layer_values(tr: Tracer) -> dict[str, float]:
    """Per-layer values of one traced pass (``trace.*`` and the
    reports-with-timing count are filled in by the caller)."""
    out: dict[str, float] = {}
    for name, _unit, _better in PER_LAYER:
        head, _, stat = name.rpartition(".")
        if head in ("families", "fileio.read"):
            out[name] = tr.group_busy.get(head, 0.0)
        elif stat not in _STAT_ATTR:
            out[name] = tr.counters.get(name, 0)
        elif head in MODULES:
            out[name] = sum(s.self for k, s in tr.stats.items() if k.split(".", 1)[0] == head)
        else:
            st = tr.stats.get(head)
            out[name] = getattr(st, _STAT_ATTR[stat]) if st is not None else 0
    base = out["bohr.materialized"]
    out["bohr.checked_per_materialized"] = out["bohr.checked"] / base if base else 0.0
    return out


def hottest(tr: Tracer) -> str:
    """The wrapped function with the largest self time."""
    return max(tr.stats, key=lambda k: tr.stats[k].self)
