"""Command-line front end.

Exit codes: 0 on success with zero bound violations, 1 when any checked
bound fails (a report is still written), 2 on usage or validation errors.
All diagnostics go to stderr; rationals print as reduced "p/q".
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import combinations_with_replacement

from .bounds import results_to_json, run_sweep, sharpness_suite, witness_model
from .exponents import exponents_of, is_minimal_rep, tensor_exponents
from .generator import GeneratorError, GenParams, gen_model_with_stats
from .jordan import Partition, nilpotent_rank, tensor_partition, unramified_oracle_artin
from .maxplus import mp_degree_weight, mp_vee, optimal_witness, pair_upper_bound
from .model import ModelStructureError, UNRAMIFIED_ID, dump_model, load_model, validate_model
from .rationals import format_rational, parse_rational
from .rep import Indecomposable, RepSyntaxError, WDRep, parse_rep

DEFAULT_LEVELS = "0,1/2,1,2"


def _gen_params_from_args(args, seed: int) -> GenParams:
    return GenParams.from_strings(
        levels=args.levels,
        classes_per_level=args.classes_per_level,
        dims=args.dims,
        max_deg=args.max_deg,
        tree_depth=args.tree_depth,
        char_per_level=args.chars_per_level,
        seed=seed,
    )


def _add_gen_flags(sub):
    sub.add_argument("--levels", default=DEFAULT_LEVELS, help="comma-separated slope levels (p/q)")
    sub.add_argument("--classes-per-level", type=int, default=2)
    sub.add_argument("--dims", default="1,2,3,4", help="comma-separated dimension pool")
    sub.add_argument("--max-deg", type=int, default=4)
    sub.add_argument("--tree-depth", type=int, default=3)
    sub.add_argument("--chars-per-level", type=int, default=1)


def _load_validated(path):
    model = load_model(path)
    report = validate_model(model)
    if not report.ok:
        lines = "\n".join(f"  {v}" for v in report.violations)
        raise ModelStructureError(f"model file {path} violates axioms:\n{lines}")
    return model


def _report_line(rep) -> str:
    eta = "undefined" if rep.eta is None else format_rational(rep.eta)
    vs = "undefined" if rep.varsigma is None else format_rational(rep.varsigma)
    return f"dim={rep.dim} ar={rep.ar} sw={rep.sw} eta={eta} varsigma={vs}"


def _cmd_eval(args) -> int:
    model = _load_validated(args.model)
    x = parse_rep(args.expr, model)
    print(_report_line(exponents_of(x, model)))
    return 0


def _cmd_tensor(args) -> int:
    model = _load_validated(args.model)
    x = parse_rep(args.a, model)
    y = parse_rep(args.b, model)
    print(_report_line(tensor_exponents(x, y, model)))
    return 0


def _cmd_minimal(args) -> int:
    model = _load_validated(args.model)
    x = parse_rep(args.expr, model)
    ans = is_minimal_rep(x, args.mode, model)
    print(f"{args.mode}-minimal: {'true' if ans else 'false'}")
    return 0


def _cmd_gen_model(args) -> int:
    params = _gen_params_from_args(args, args.seed)
    model, stats = gen_model_with_stats(params)
    dump_model(model, args.out)
    print(f"model {model.digest()} ({len(model.classes)} classes, "
          f"{stats.repair_rounds} repair rounds) -> {args.out}")
    return 0


def _cmd_check(args) -> int:
    theorems = tuple(t.strip() for t in args.theorems.split(",") if t.strip())
    gen = _gen_params_from_args(args, args.seed)
    results, summary = run_sweep(theorems, args.models, args.pairs, gen, args.seed,
                                 args.max_terms, args.max_r)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(results_to_json(results) if args.format == "json" else summary.csv())
    for t in sorted(summary.samples):
        print(
            f"{t}: samples={summary.samples[t]} violations={summary.violations[t]} "
            f"equalities={summary.equalities[t]} "
            f"precondition_failures={summary.precondition_failures[t]}"
        )
    print(f"models={summary.models} repair_rounds={summary.repair_rounds}")
    return 1 if summary.total_violations() else 0


def _cmd_oracle(args) -> int:
    if args.max_r < 1 or args.max_terms < 1:
        raise ValueError("--max-r and --max-terms must be >= 1")
    unit = witness_model()
    reps = [
        WDRep.from_terms([(1, Indecomposable(r, UNRAMIFIED_ID)) for r in combo])
        for n in range(1, args.max_terms + 1)
        for combo in combinations_with_replacement(range(1, args.max_r + 1), n)
    ]
    mismatches = 0
    checked = 0
    for x, y in combinations_with_replacement(reps, 2):
        formula = tensor_exponents(x, y, unit).ar
        rank = unramified_oracle_artin(x, y)
        checked += 1
        if formula != rank:
            mismatches += 1
            print(f"MISMATCH: {x} (x) {y}: formula={formula} rank={rank}", file=sys.stderr)
    block_fail = 0
    for mm in range(1, args.max_r + 1):
        for nn in range(1, args.max_r + 1):
            r = nilpotent_rank(Partition((mm,)), Partition((nn,)))
            part = tensor_partition(mm, nn)
            # Clebsch-Gordan: J_m (x) J_n has blocks m+n-1, m+n-3, ..., |m-n|+1.
            clebsch_gordan = tuple(range(mm + nn - 1, abs(mm - nn), -2))
            if r != mm * nn - min(mm, nn) or part.parts != clebsch_gordan:
                block_fail += 1
                print(f"BLOCK LAW FAIL at ({mm},{nn}): rank={r} type={part.parts}", file=sys.stderr)
    print(f"oracle: {checked} tensor pairs checked, {mismatches} mismatches; "
          f"{args.max_r * args.max_r} block pairs, {block_fail} failures")
    return 1 if mismatches or block_fail else 0


def _cmd_bound(args) -> int:
    d1, d2 = args.d1, args.d2
    v1, v2 = parse_rational(args.v1), parse_rational(args.v2)
    bound = pair_upper_bound(d1, v1, d2, v2)
    w1, w2 = optimal_witness(d1, v1, d2, v2)
    _, v_prod = mp_degree_weight(mp_vee(w1, w2))
    print(f"bound={format_rational(bound)} witness=({w1}; {w2}) "
          f"witness_v={format_rational(v_prod)} equality={'true' if v_prod == bound else 'false'}")
    return 0 if v_prod <= bound else 1

def _cmd_sharpness(args) -> int:
    results = sharpness_suite()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(results_to_json(results))
    bad = 0
    for r in results:
        status = "equality" if r.equality else ("holds" if r.holds else "VIOLATED")
        if not r.holds or r.precondition_failed:
            bad += 1
        print(f"{r.theorem}: lhs={format_rational(r.lhs)} rhs={format_rational(r.rhs)} {status}")
    return 1 if bad else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wdexp")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="exponents of a representation expression")
    p.add_argument("-m", "--model", required=True)
    p.add_argument("-e", "--expr", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("tensor", help="exponents of a tensor product")
    p.add_argument("-m", "--model", required=True)
    p.add_argument("-a", required=True)
    p.add_argument("-b", required=True)
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("minimal", help="twist-minimality of a representation")
    p.add_argument("-m", "--model", required=True)
    p.add_argument("-e", "--expr", required=True)
    p.add_argument("--mode", choices=("eta", "sigma"), default="eta")
    p.set_defaults(func=_cmd_minimal)

    p = sub.add_parser("check", help="bound sweep over generated models")
    p.add_argument("--theorems", default="A,AS,B,BS,C,CS")
    p.add_argument("--models", type=int, default=20)
    p.add_argument("--pairs", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--max-terms", type=int, default=3)
    p.add_argument("--max-r", type=int, default=4)
    _add_gen_flags(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gen-model", help="generate a model instance file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", required=True)
    _add_gen_flags(p)
    p.set_defaults(func=_cmd_gen_model)

    p = sub.add_parser("oracle", help="unramified formula-vs-rank suite")
    p.add_argument("--max-r", type=int, default=6)
    p.add_argument("--max-terms", type=int, default=2)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bound", help="max-plus pair bound and optimal witness")
    p.add_argument("--d1", type=int, required=True)
    p.add_argument("--v1", required=True)
    p.add_argument("--d2", type=int, required=True)
    p.add_argument("--v2", required=True)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("sharpness", help="equality-attaining witness suite")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_sharpness)

    return parser


def run_command(argv) -> int:
    """Parse argv and run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (ModelStructureError, RepSyntaxError, GeneratorError, ValueError, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
