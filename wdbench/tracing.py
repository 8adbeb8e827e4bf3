"""Module-boundary span recorder for the traced benchmark run.

`install` replaces the boundary functions of a freshly imported wdexp with
wrappers that record one span per call: (id, parent id, name, start, end).
Every wdexp module that holds the same function object under any name gets
the same wrapper, so calls through imported names (`wdexp.bounds.
tensor_exponents`, `wdexp.cli.unramified_oracle_artin`) and through module
globals inside the defining module are recorded alike.  Nothing in wdexp
is edited; the next fresh import discards the wrappers.

A span's self time is its duration minus the time its child spans cover; a
layer's self time is the sum over the spans of its functions.  Counters for
work done (rows eliminated, checks, generator statistics) and the distinct
inputs behind the two `*_distinct_ratio` metrics are recorded at the same
boundaries.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# (module, attribute, span name).  The layer is the span name's first part.
BOUNDARIES = (
    ("model", "ModelInstance.digest", "model.digest"),
    ("model", "validate_model", "model.validate"),
    ("model", "load_model", "model.load"),
    ("model", "is_minimal_class", "model.is_minimal_class"),
    ("generator", "gen_model_with_stats", "generator.gen_model"),
    ("generator", "gen_rep", "generator.gen_rep"),
    ("rep", "parse_rep", "rep.parse_rep"),
    ("rep", "format_rep", "rep.format_rep"),
    ("rep", "rep_dual", "rep.rep_dual"),
    ("rep", "rep_dim", "rep.rep_dim"),
    ("exponents", "tensor_exponents", "exponents.tensor"),
    ("exponents", "indec_tensor_kernel", "exponents.kernel"),
    ("exponents", "exponents_of", "exponents.exponents_of"),
    ("exponents", "is_minimal_rep", "exponents.minimal"),
    ("exponents", "swan_profile", "exponents.swan_profile"),
    ("bounds", "run_sweep", "bounds.run_sweep"),
    ("bounds", "check_bound_A", "bounds.check"),
    ("bounds", "check_bound_B", "bounds.check"),
    ("bounds", "check_bound_C", "bounds.check"),
    ("bounds", "swan_bridge_gap", "bounds.swan_bridge_gap"),
    ("bounds", "results_to_json", "bounds.serialize"),
    ("jordan", "unramified_oracle_artin", "jordan.oracle"),
    ("jordan", "nilpotent_rank", "jordan.nilpotent_rank"),
    ("jordan", "tensor_partition", "jordan.tensor_partition"),
    ("jordan", "exact_rank", "jordan.exact_rank"),
    ("maxplus", "mp_vee", "maxplus.mp_vee"),
    ("maxplus", "mp_degree_weight", "maxplus.mp_degree_weight"),
    ("maxplus", "s_map", "maxplus.s_map"),
    ("maxplus", "pair_upper_bound", "maxplus.pair_upper_bound"),
    ("maxplus", "optimal_witness", "maxplus.optimal_witness"),
    ("cli", "run_command", "cli.run_command"),
)

LAYERS = ("model", "generator", "rep", "exponents", "bounds", "jordan", "maxplus", "cli")


class Recorder:
    """Spans and counters of one traced round, kept in memory."""

    def __init__(self):
        self.active = True
        self.spans: list[tuple] = []  # (id, parent id or None, name, start, end)
        self.counters: Counter = Counter()
        self.tensors: set = set()
        self.blocks: set = set()
        self._models: dict[int, object] = {}  # keeps models alive so their ids stay unique
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name, fn, before=None, after=None):
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                args = before(self, args)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if after is not None:
                after(self, args, result)
            return result

        return traced

    # -- derived metrics -----------------------------------------------------

    def totals(self, duration) -> dict[str, list]:
        """Span name -> [calls, seconds, self seconds], where duration(start,
        end) gives a span's time and self time leaves out direct children."""
        took = {sid: duration(start, end) for sid, _, _, start, end in self.spans}
        children = Counter()
        for sid, parent, _, _, _ in self.spans:
            if parent is not None:
                children[parent] += took[sid]
        out: dict[str, list] = {}
        for sid, _, name, _, _ in self.spans:
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += took[sid]
            row[2] += took[sid] - children[sid]
        return out

    def metrics(self, duration, overhead_ratio: float) -> dict[str, float]:
        totals = self.totals(duration)

        def pick(column, names):
            return sum(totals[n][column] for n in names if n in totals)

        def calls(*names):
            return pick(0, names)

        def seconds(*names):
            return pick(1, names)

        def self_seconds(*names):
            return pick(2, names)

        def layer(name):
            return [n for n in totals if n.split(".", 1)[0] == name]

        maxplus = layer("maxplus")
        tensor_calls = calls("exponents.tensor")
        block_pairs = self.counters["block_pairs"]
        out = {
            "model.digest.calls": calls("model.digest"),
            "model.digest.s": seconds("model.digest"),
            "model.validate.calls": calls("model.validate"),
            "model.validate.s": seconds("model.validate"),
            "model.load.calls": calls("model.load"),
            "model.load.s": seconds("model.load"),
            "generator.gen_model.calls": calls("generator.gen_model"),
            "generator.gen_model.self_s": self_seconds("generator.gen_model"),
            "generator.attempts": self.counters["attempts"],
            "generator.repair_rounds": self.counters["repair_rounds"],
            "generator.raised_entries": self.counters["raised_entries"],
            "generator.gen_rep.calls": calls("generator.gen_rep"),
            "generator.gen_rep.s": seconds("generator.gen_rep"),
            "rep.rep_dual.s": seconds("rep.rep_dual"),
            "rep.format_rep.s": seconds("rep.format_rep"),
            "rep.parse_rep.s": seconds("rep.parse_rep"),
            "exponents.tensor.calls": tensor_calls,
            "exponents.tensor.s": seconds("exponents.tensor"),
            "exponents.kernel.calls": calls("exponents.kernel"),
            "exponents.exponents_of.s": seconds("exponents.exponents_of"),
            "exponents.minimal.s": seconds("exponents.minimal"),
            "exponents.tensor_distinct_ratio": len(self.tensors) / tensor_calls if tensor_calls else 0.0,
            "bounds.checks": self.counters["checks"],
            "bounds.violations": self.counters["violations"],
            "bounds.check.self_s": self_seconds("bounds.check"),
            "bounds.serialize.s": seconds("bounds.serialize"),
            "jordan.nilpotent_rank.calls": calls("jordan.nilpotent_rank"),
            "jordan.nilpotent_rank.s": seconds("jordan.nilpotent_rank"),
            "jordan.rows_eliminated": self.counters["rows"],
            "jordan.block_pair_distinct_ratio": len(self.blocks) / block_pairs if block_pairs else 0.0,
            "jordan.tensor_partition.s": seconds("jordan.tensor_partition"),
            "maxplus.calls": calls(*maxplus),
            "maxplus.s": seconds(*maxplus),
            "cli.commands": calls("cli.run_command"),
            "trace.overhead_ratio": overhead_ratio,
        }
        for name in LAYERS:
            out[f"{name}.self_s"] = self_seconds(*layer(name))
        return out

    def write_spans(self, path: str):
        """One JSON array per line: id, parent id (null at the root), name,
        start and end in seconds from the first span's start."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('["id","parent","name","start_s","end_s"]\n')
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps([sid, parent, name, round(start - t0, 9), round(end - t0, 9)]))
                fh.write("\n")


# -- counters recorded at the boundaries ---------------------------------------


def _count_rows(rec, args):
    rows = list(args[0])
    rec.counters["rows"] += len(rows)
    return (rows,) + tuple(args[1:])


def _count_block_pairs(rec, args):
    a, b = args[0], args[1]
    for p in a.parts:
        for q in b.parts:
            rec.counters["block_pairs"] += 1
            rec.blocks.add((p, q))
    return args


def _count_tensor(rec, args):
    x, y, m = args[0], args[1], args[2]
    rec._models[id(m)] = m
    rec.tensors.add((id(m), frozenset((x, y))))
    return args


def _count_gen_stats(rec, args, result):
    stats = result[1]
    rec.counters["attempts"] += stats.attempts
    rec.counters["repair_rounds"] += stats.repair_rounds
    rec.counters["raised_entries"] += stats.raised_entries


def _count_check(rec, args, result):
    rec.counters["checks"] += 1
    if not result.holds and not result.precondition_failed:
        rec.counters["violations"] += 1


_HOOKS = {
    "jordan.exact_rank": (_count_rows, None),
    "jordan.nilpotent_rank": (_count_block_pairs, None),
    "exponents.tensor": (_count_tensor, None),
    "generator.gen_model": (None, _count_gen_stats),
    "bounds.check": (None, _count_check),
}


def install(rec: Recorder, wd) -> None:
    """Wrap every boundary of the wdexp modules held by namespace `wd`."""
    modules = [m for n, m in sys.modules.items() if n == "wdexp" or n.startswith("wdexp.")]
    for module, attr, name in BOUNDARIES:
        owner = getattr(wd, module)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        original = getattr(owner, attr)
        traced = rec.wrap(name, original, *_HOOKS.get(name, (None, None)))
        setattr(owner, attr, traced)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
