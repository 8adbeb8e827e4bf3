"""Command-line front end.

Exit codes: 0 on success with zero bound violations, 1 when any checked
bound fails (a report is still written), 2 on usage or validation errors.
All diagnostics go to stderr; rationals print as reduced "p/q".
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import combinations_with_replacement
from string import whitespace

from .bounds import (check_sweep_args, results_to_json, run_sweep, sharpness_suite,
                     witness_model)
from .exponents import exponents_of, is_minimal_rep, tensor_exponents
from .generator import GeneratorError, GenParams, gen_model_with_stats
from .jordan import Partition, nilpotent_rank, tensor_partition, unramified_oracle_artin
from .maxplus import pair_witness
from .model import ModelStructureError, dump_model, load_model, validate_model
from .rationals import format_rational, parse_int, parse_rational
from .rep import format_rep, parse_rep, reps

DEFAULT_LEVELS = "0,1/2,1,2"


def _gen_params_from_args(args) -> GenParams:
    return GenParams.from_strings(
        levels=args.levels,
        classes_per_level=args.classes_per_level,
        dims=args.dims,
        max_deg=args.max_deg,
        tree_depth=args.tree_depth,
        char_per_level=args.chars_per_level,
        seed=args.seed,
    )


def _check_writable(path):
    """Raise now the OSError that writing `path` later would raise, and
    leave the file system as it was."""
    existed = os.path.exists(path)
    open(path, "a", encoding="utf-8").close()
    if not existed:
        os.remove(os.path.realpath(path))  # a dangling link stays a link


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
    params = _gen_params_from_args(args)
    _check_writable(args.out)
    model, stats = gen_model_with_stats(params)
    dump_model(model, args.out)
    print(f"model {model.digest()} ({len(model.classes)} classes, "
          f"{stats.repair_rounds} repair rounds) -> {args.out}")
    return 0


def _cmd_check(args) -> int:
    theorems = tuple(t.strip(whitespace) for t in args.theorems.split(",") if t.strip(whitespace))
    gen = _gen_params_from_args(args)
    check_sweep_args(theorems, args.models, args.pairs, args.max_terms, args.max_r)
    if args.out:
        _check_writable(args.out)
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
    mismatches = checked = 0
    for x, y in combinations_with_replacement(reps(unit, args.max_terms, args.max_r), 2):
        formula = tensor_exponents(x, y, unit).ar
        rank = unramified_oracle_artin(x, y)
        checked += 1
        if formula != rank:
            mismatches += 1
            print(f"MISMATCH: {format_rep(x)} (x) {format_rep(y)}: formula={formula} rank={rank}",
                  file=sys.stderr)
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
    bound, w1, w2, v_prod = pair_witness(d1, v1, d2, v2)
    print(f"bound={format_rational(bound)} witness=({w1}; {w2}) "
          f"witness_v={format_rational(v_prod)} equality={'true' if v_prod == bound else 'false'}")
    return 0 if v_prod <= bound else 1


def _cmd_sharpness(args) -> int:
    if args.out:
        _check_writable(args.out)
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


def _int(text: str) -> int:
    """The type of every integer flag: `parse_int`, with argparse's message."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


_MODEL = (("-m", "--model"), {"required": True})
_EXPR = (("-e", "--expr"), {"required": True})
_GEN_FLAGS = (
    (("--levels",), {"default": DEFAULT_LEVELS, "help": "comma-separated slope levels (p/q)"}),
    (("--classes-per-level",), {"type": _int, "default": 2}),
    (("--dims",), {"default": "1,2,3,4", "help": "comma-separated dimension pool"}),
    (("--max-deg",), {"type": _int, "default": 4}),
    (("--tree-depth",), {"type": _int, "default": 3}),
    (("--chars-per-level",), {"type": _int, "default": 1}),
)

# name: (help, arguments as (flags, add_argument keywords), handler), in the
# order the help lists them.
_COMMANDS = {
    "eval": ("exponents of a representation expression", (_MODEL, _EXPR), _cmd_eval),
    "tensor": ("exponents of a tensor product",
               (_MODEL, (("-a",), {"required": True}), (("-b",), {"required": True})),
               _cmd_tensor),
    "minimal": ("twist-minimality of a representation",
                (_MODEL, _EXPR, (("--mode",), {"choices": ("eta", "sigma"), "default": "eta"})),
                _cmd_minimal),
    "check": ("bound sweep over generated models", (
        (("--theorems",), {"default": "A,AS,B,BS,C,CS"}),
        (("--models",), {"type": _int, "default": 20}),
        (("--pairs",), {"type": _int, "default": 20}),
        (("--seed",), {"type": _int, "default": 0}),
        (("--out",), {"default": None}),
        (("--format",), {"choices": ("json", "csv"), "default": "json"}),
        (("--max-terms",), {"type": _int, "default": 3}),
        (("--max-r",), {"type": _int, "default": 4}),
        *_GEN_FLAGS), _cmd_check),
    "gen-model": ("generate a model instance file", (
        (("--seed",), {"type": _int, "default": 0}),
        (("-o", "--out"), {"required": True}),
        *_GEN_FLAGS), _cmd_gen_model),
    "oracle": ("unramified formula-vs-rank suite", (
        (("--max-r",), {"type": _int, "default": 6}),
        (("--max-terms",), {"type": _int, "default": 2})), _cmd_oracle),
    "bound": ("max-plus pair bound and optimal witness", (
        (("--d1",), {"type": _int, "required": True}),
        (("--v1",), {"required": True}),
        (("--d2",), {"type": _int, "required": True}),
        (("--v2",), {"required": True})), _cmd_bound),
    "sharpness": ("equality-attaining witness suite", ((("--out",), {"default": None}),),
                  _cmd_sharpness),
}


def _build_parser(only=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or with `only` the top-level parser
    and that one subcommand's parser.  The metavar spells out the choices
    the full parser lists, so both print the same usage line."""
    parser = argparse.ArgumentParser(prog="wdexp")
    metavar = None if only is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, arguments, func) in _COMMANDS.items():
        if only in (None, name):
            p = sub.add_parser(name, help=help_text)
            for flags, kwargs in arguments:
                p.add_argument(*flags, **kwargs)
            p.set_defaults(func=func)
    return parser


def run_command(argv) -> int:
    """Parse argv and run one subcommand; returns the process exit code.
    An argv that starts with a subcommand's name builds only that
    subcommand's parser; any other (help, no command, an unknown one) gets
    the full parser, which prints the list of subcommands."""
    argv = list(argv)
    parser = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, GeneratorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
