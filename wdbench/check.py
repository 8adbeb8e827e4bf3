"""The benchmark's check of itself.

    python3 wdbench/check.py

1. BENCHMARK.json has the contract's shape, and spec.py ties every
   per-layer metric it names, and no other, to the end-to-end figures it
   should move.
2. On each workload, an untraced run reports every end-to-end metric with
   its unit and a positive value, and its outputs are correct.
3. On each workload, two traced runs at one seed report every per-layer
   metric with its unit; every count and distinct ratio repeats exactly
   between them; and every per-layer metric that spec.py ties to the
   workload is nonzero there.
4. Known extra work added inside sweep rounds grows the corrected round
   time by the share it grows the raw time of the same rounds, within the
   spread of the raw share, both for a block of interpreter work and for a
   cache that grows through the round.
5. In a directory holding only BENCHMARK.json and wdbench/, run.py exits
   with a nonzero code and prints no result.

Prints one line per problem and exits 1 if there is any.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction

import spec

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = spec.ROOT
BENCH_DIR = os.path.basename(HERE)
SEED = 0
SECONDS = 1
RUN_TIMEOUT_S = 180
# Rounds of each kind of extra work, each run once plain and once with it.
EXTRA_PAIRS = 8
# The corrected share of the extra work may differ from the median raw share
# by the interquartile range of the raw shares of the pairs, or by this part
# of the median raw share if that is more.
EXTRA_TOLERANCE = 0.15


def check_benchmark_json(problems: list):
    doc = spec.BENCHMARK
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(doc) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(doc)} != {sorted(keys)}")
    if doc.get("paths") != [BENCH_DIR] or doc.get("command") != ["python3", f"{BENCH_DIR}/run.py"]:
        problems.append(f"paths or command do not name {BENCH_DIR}/run.py")
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    if len(set(names)) != len(names):
        problems.append("a name is used more than once")
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    if not all(0 < b <= 0.25 for b in bounds.values()):
        problems.append(f"a bound is outside (0, 0.25]: {bounds}")
    if bounds.get("setup_s") != max(bounds.values()):
        problems.append("setup_s is missing or does not have the largest bound")
    if set(spec.MOVES) != set(spec.PER_LAYER_UNITS):
        problems.append(f"spec.MOVES and BENCHMARK.json per_layer differ:"
                        f" {sorted(set(spec.MOVES) ^ set(spec.PER_LAYER_UNITS))}")


def run(workload: str, trace: int, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result


def check_result(problems, label, code, result, wanted: dict):
    if code != 0 or result is None:
        problems.append(f"{label}: exit code {code}, result {'present' if result else 'missing'}")
        return {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}"
                        f" attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(wanted):
        problems.append(f"{label}: metrics missing {sorted(set(wanted) - set(metrics))},"
                        f" extra {sorted(set(metrics) - set(wanted))}")
    for name, unit in wanted.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{label}: {name} reported as {got}, unit should be {unit}")
    return {n: m.get("value") for n, m in metrics.items()}


def applies(name, workload) -> bool:
    return name == "trace.overhead_ratio" or any(w == workload for _, w in spec.MOVES[name])


# -- known extra work -----------------------------------------------------------


def _fraction_block():
    x = Fraction(0)
    for k in range(100_000):
        x += Fraction(k % 5 + 1, k % 7 + 1)


def _add_work(wd, kind: str):
    """Make one wdexp function do a known amount of extra work on each call:
    "block" adds a block of fraction arithmetic to results_to_json, once a
    round; "cache" makes every ModelInstance.digest call add 100 entries to
    a cache that lives through the round and read 100 entries at random."""
    if kind == "block":
        owner, attr, extra = wd.bounds, "results_to_json", _fraction_block
    else:
        cache, rng = {}, random.Random(0)

        def extra():
            base = len(cache)
            for k in range(100):
                cache[base + k] = (k, base)
            for _ in range(100):
                cache.get(rng.randrange(len(cache)))

        owner, attr = wd.model.ModelInstance, "digest"
    original = getattr(owner, attr)

    def slower(*args, **kwargs):
        extra()
        return original(*args, **kwargs)

    setattr(owner, attr, slower)


def check_extra_work(problems):
    import run
    from clock import ProbeClock
    from workloads import WORKLOADS

    os.chdir(ROOT)
    sys.path.insert(0, run.SRC)
    sweep = WORKLOADS["sweep"]
    kinds = ("block", "cache")
    pairs = {kind: [] for kind in kinds}  # (plain ops, extra ops) of each pair of rounds
    clock = ProbeClock()
    clock.start()
    try:
        for kind in kinds:
            for k in range(EXTRA_PAIRS):
                ops = {}
                for extra in ((False, True) if k % 2 == 0 else (True, False)):
                    wd = run.fresh_import()
                    if extra:
                        _add_work(wd, kind)
                    ops[extra] = sweep.run(wd, k).ops
                pairs[kind].append((ops[False], ops[True]))
    finally:
        clock.stop()

    def raw(ops):
        return sum(end - start for _, start, end in ops)

    for kind, rounds in pairs.items():
        raw_shares = [raw(e) / raw(p) - 1 for p, e in rounds]
        raw_share = statistics.median(raw_shares)
        q1, _, q3 = statistics.quantiles(raw_shares, n=4)
        corrected_share = statistics.median(
            run.round_time(clock, e) / run.round_time(clock, p) for p, e in rounds) - 1
        print(f"extra work {kind}: raw time +{raw_share:.1%} (quartiles {q1:.1%}, {q3:.1%}),"
              f" corrected time +{corrected_share:.1%}", flush=True)
        if abs(corrected_share - raw_share) > max(q3 - q1, EXTRA_TOLERANCE * raw_share):
            problems.append(f"extra work {kind}: corrected time grew by {corrected_share:.1%},"
                            f" raw time by {raw_share:.1%}")


def check_bare_directory(problems):
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, BENCH_DIR),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result = run(spec.BENCHMARK["workloads"][0]["name"], 0, cwd=bare)
        if code == 0 or result is not None:
            problems.append(f"bare directory: exit code {code}, result {result}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    problems: list[str] = []
    check_benchmark_json(problems)
    for workload in (w["name"] for w in spec.BENCHMARK["workloads"]):
        values = check_result(problems, f"{workload} trace=0", *run(workload, 0),
                              spec.END_TO_END_UNITS)
        for name, value in values.items():
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append(f"{workload}: end-to-end {name}={value} is not positive")
        first, second = (
            check_result(problems, f"{workload} trace=1 ({k})", *run(workload, 1),
                         spec.PER_LAYER_UNITS)
            for k in ("first", "second"))
        for name in spec.EXACT:
            if first.get(name) != second.get(name):
                problems.append(f"{workload}: {name} differs between traced runs:"
                                f" {first.get(name)} != {second.get(name)}")
        for name in spec.MOVES:
            if applies(name, workload) and name not in spec.ZERO_EXPECTED and not first.get(name):
                problems.append(f"{workload}: {name} is zero on a workload it applies to")
        print(f"{workload}: checked", flush=True)
    check_extra_work(problems)
    check_bare_directory(problems)

    for p in problems:
        print(p)
    print(f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
