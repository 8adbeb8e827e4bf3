"""wdexp benchmark: one workload, one seed, one closed loop in one thread.

    python3 wdbench/run.py --workload sweep --seed 0 --seconds 25 --trace 0

It works on the `src/wdexp` next to this directory, from wherever it is
started, and writes only under `.bench_out/` there.

With --trace 0 it reports the end-to-end metrics: set-up time (median of
repeated fresh imports plus input draws), the median round time, the median
throughput and the peak resident set size.  Times are corrected for the
machine's own changes of speed (clock.py); the raw median round time is
printed alongside.  With --trace 1 every round runs twice on the same inputs,
untraced and then traced, and it reports the per-layer metrics of the first
traced round plus the tracing overhead; the first traced round's spans go
to `.bench_out/spans-<workload>.jsonl`.

Each round starts from a fresh import of wdexp, as a new `wdexp` process
would, so no module-level state carries over between rounds.  Every round's
outputs are checked outside the timed region (see workloads.py).  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines above it print the figures by name.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import types
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
MODULES = ("model", "generator", "rep", "exponents", "bounds", "jordan", "maxplus", "cli")
SETUP_REPEATS = 9

sys.path.insert(0, HERE)
import spec  # noqa: E402
import tracing  # noqa: E402
from clock import ProbeClock  # noqa: E402
from workloads import OUT_DIR, WORKLOADS, order  # noqa: E402


def fresh_import():
    """Drop every loaded wdexp module and import the package again."""
    for name in [n for n in sys.modules if n == "wdexp" or n.startswith("wdexp.")]:
        del sys.modules[name]
    importlib.import_module("wdexp")
    importlib.import_module("wdexp.cli")
    return types.SimpleNamespace(**{m: sys.modules[f"wdexp.{m}"] for m in MODULES})


def load_fingerprints(workload: str) -> list:
    try:
        with open(FINGERPRINTS, encoding="utf-8") as fh:
            return json.load(fh).get(workload, [])
    except (OSError, ValueError):
        return []


class Tally:
    """Operation counts of a run and the timed intervals of its rounds."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.rounds = []  # (items, [(kind, start, end), ...]) of each untraced round


def one_round(workload, entry, expected, tally, recorder=None):
    """Fresh import, run (traced when a recorder is given), verify.
    Returns the round output, or None when the program raised."""
    wd = fresh_import()
    if recorder is not None:
        tracing.install(recorder, wd)
    try:
        out = workload.run(wd, entry)
    except Exception as exc:  # count the failure, keep measuring
        print(f"round {entry}: {type(exc).__name__}: {exc}", file=sys.stderr)
        tally.attempted += 1
        tally.failed += 1
        return None
    finally:
        if recorder is not None:
            recorder.active = False
    try:
        attempted, failed = workload.verify(wd, entry, out, expected)
    except Exception as exc:
        print(f"round {entry} verify: {type(exc).__name__}: {exc}", file=sys.stderr)
        attempted, failed = 1, 1
    tally.attempted += attempted
    tally.failed += failed
    return out


def round_time(clock, ops, kind=None) -> float:
    """Corrected time of a round's timed operations, or of those of one kind."""
    return sum(clock.corrected(start, end) for k, start, end in ops if kind in (None, k))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "wdexp", "__init__.py")):
        print(f"error: no wdexp sources at {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload]
    expected = load_fingerprints(workload.name)

    clock = ProbeClock()
    clock.start()
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            fresh_import()
            plan = order(workload.pool_size, args.seed)
            setups.append((start, perf_counter()))

        tally = Tally()
        pairs = []  # (untraced ops, traced ops) of each traced-mode round
        first_trace = None
        start = perf_counter()
        i = 0
        while i == 0 or perf_counter() - start < args.seconds:
            entry = plan[i % len(plan)]
            want = expected[entry] if entry < len(expected) else None
            out = one_round(workload, entry, want, tally)
            if out is not None:
                tally.rounds.append((out.items, out.ops))
            if args.trace:
                rec = tracing.Recorder()
                traced = one_round(workload, entry, want, tally, rec)
                if out is not None and traced is not None:
                    pairs.append((out.ops, traced.ops))
                if first_trace is None:
                    first_trace = rec
            i += 1
    finally:
        clock.stop()

    failed_ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"workload={workload.name} seed={args.seed} trace={args.trace} rounds={len(tally.rounds)}"
          f" machine_slowdown={clock.slowdown():.3f} ({len(clock.lengths)} probes)")
    print(f"failed_ratio={failed_ratio:.6g} ratio ({tally.failed} of {tally.attempted} operations)")

    if args.trace:
        overhead = [round_time(clock, t) / round_time(clock, u) for u, t in pairs]
        raw = first_trace.metrics(clock.corrected, statistics.median(overhead) if overhead else 0.0)
        first_trace.write_spans(os.path.join(OUT_DIR, f"spans-{workload.name}.jsonl"))
        units = spec.PER_LAYER_UNITS
    else:
        if not tally.rounds:
            print("error: no round completed", file=sys.stderr)
            return 1
        raw = {
            "setup_s": statistics.median(clock.corrected(a, b) for a, b in setups),
            "wall_s": statistics.median(round_time(clock, ops) for _, ops in tally.rounds),
            "throughput_per_s": statistics.median(
                n / round_time(clock, ops, workload.item_kind) for n, ops in tally.rounds),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = spec.END_TO_END_UNITS
        print_named(workload.name, clock, tally, raw)
    metrics = {name: raw[name] for name in units}
    for name, value in metrics.items():
        print(f"{name}={value:.6g} {units[name]}")

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def print_named(workload, clock, tally, e2e):
    """The workload's own figures, and the raw (uncorrected) median round time."""
    by_kind = {}
    for _, ops in tally.rounds:
        for kind, start, end in ops:
            by_kind.setdefault(kind, []).append(clock.corrected(start, end))
    n = len(tally.rounds)
    named = {
        "sweep": {"checks_per_s": (e2e["throughput_per_s"], n)},
        "large_model": {f"{kind}_p50_s": (statistics.median(by_kind[kind]), len(by_kind[kind]))
                        for kind in ("gen_model", "query") if kind in by_kind},
        "oracle": {"oracle_pairs_per_s": (e2e["throughput_per_s"], n)},
    }[workload]
    named["raw_wall_s"] = (
        statistics.median(sum(end - start for _, start, end in ops) for _, ops in tally.rounds), n)
    for name, (value, count) in named.items():
        unit = spec.SUMMARY[name][0] if name in spec.SUMMARY else "s"
        print(f"{name}={value:.6g} {unit} (median of {count})")


if __name__ == "__main__":
    sys.exit(main())
