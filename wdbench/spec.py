"""What the benchmark's format cannot carry.

`BENCHMARK.json` at the repository root is the only record of workload
names and reasons and of metric names, units, directions and bounds; this
module loads it.  It adds which end-to-end figure each per-layer metric
should move, and on which workload, so a change to one layer can be judged
against them, and which figures printed by name each gated metric carries.
"""

from __future__ import annotations

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

END_TO_END_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

# Figures printed by name above the result line: (unit, workload, the gated
# end-to-end metric that carries it on that workload).  throughput_per_s
# counts only the workload's item operations, so on large_model it is
# queries per second of query time and wall_s adds gen-model to it.
SUMMARY = {
    "checks_per_s": ("1/s", "sweep", "throughput_per_s"),
    "gen_model_p50_s": ("s", "large_model", "wall_s"),
    "query_p50_s": ("s", "large_model", "throughput_per_s"),
    "oracle_pairs_per_s": ("1/s", "oracle", "throughput_per_s"),
    "failed_ratio": ("ratio", None, None),
}

_SWEEP_CHECKS = (("checks_per_s", "sweep"),)
_QUERY = (("query_p50_s", "large_model"),)
_GEN = (("gen_model_p50_s", "large_model"),)
_ORACLE = (("oracle_pairs_per_s", "oracle"),)

# Per-layer metric -> the end-to-end figures it should move, on which workload.
MOVES = {
    "model.digest.calls": _SWEEP_CHECKS,
    "model.digest.s": _SWEEP_CHECKS,
    "model.validate.calls": _QUERY + _GEN,
    "model.validate.s": _QUERY + _GEN,
    "model.load.calls": _QUERY,
    "model.load.s": _QUERY,
    "model.self_s": _SWEEP_CHECKS + _QUERY + _GEN,
    "generator.gen_model.calls": _GEN,
    "generator.gen_model.self_s": _GEN,
    "generator.attempts": _GEN,
    "generator.repair_rounds": _GEN,
    "generator.raised_entries": _GEN,
    "generator.gen_rep.calls": _SWEEP_CHECKS,
    "generator.gen_rep.s": _SWEEP_CHECKS,
    "generator.self_s": _GEN + _SWEEP_CHECKS,
    "rep.rep_dual.s": _SWEEP_CHECKS,
    "rep.format_rep.s": _SWEEP_CHECKS,
    "rep.parse_rep.s": _QUERY,
    "rep.self_s": _SWEEP_CHECKS + _QUERY,
    "exponents.tensor.calls": _SWEEP_CHECKS + _QUERY,
    "exponents.tensor.s": _SWEEP_CHECKS + _QUERY,
    "exponents.kernel.calls": _SWEEP_CHECKS + _QUERY,
    "exponents.exponents_of.s": _SWEEP_CHECKS + _QUERY,
    "exponents.minimal.s": _SWEEP_CHECKS + _QUERY,
    "exponents.tensor_distinct_ratio": _SWEEP_CHECKS,
    "exponents.self_s": _SWEEP_CHECKS + _QUERY + _ORACLE,
    "bounds.checks": _SWEEP_CHECKS,
    "bounds.violations": _SWEEP_CHECKS,
    "bounds.check.self_s": _SWEEP_CHECKS,
    "bounds.serialize.s": (("wall_s", "sweep"), ("peak_rss_mib", "sweep")),
    "bounds.self_s": _SWEEP_CHECKS,
    "jordan.nilpotent_rank.calls": _ORACLE,
    "jordan.nilpotent_rank.s": _ORACLE,
    "jordan.rows_eliminated": _ORACLE,
    "jordan.block_pair_distinct_ratio": _ORACLE,
    "jordan.tensor_partition.s": _ORACLE,
    "jordan.self_s": _ORACLE,
    "maxplus.calls": (("wall_s", "sweep"),),
    "maxplus.s": (("wall_s", "sweep"),),
    "maxplus.self_s": (("wall_s", "sweep"),),
    "cli.commands": _QUERY + _ORACLE,
    "cli.self_s": _QUERY + _ORACLE,
    "trace.overhead_ratio": (),
}

# Per-layer metrics that must repeat exactly across two traced runs at one
# seed: counts and ratios of counts, never times.
EXACT = tuple(name for name, unit in PER_LAYER_UNITS.items()
              if unit == "count" or name.endswith("_distinct_ratio"))

# Counts that are zero by design on every valid run.
ZERO_EXPECTED = ("bounds.violations",)
