"""Bound checks on concrete inputs, sharpness witnesses, and the sweep.

Each bound is stated once, as int sides (ln, ld, rn, rd, upper,
precondition_failed): lhs = ln/ld against rhs = rn/rd, with ld, rd > 0, and
the bound reads lhs <= rhs when `upper`, else lhs >= rhs.  Labels:

    A, AS           lower bound eta/varsigma(x ox y) >= max(.,.)/2,
                    valid under a minimality hypothesis on x
    B, BS           symmetric lower bound via x ox dual(x), y ox dual(y)
    B_indec, BS_irr the stronger max form for single-term inputs
    C, CS           upper bound on ar/sw(x ox y)
    C_irr, CS_irr   eta/varsigma(x ox y) <= max(eta/varsigma) for
                    irreducible inputs

A check decides its label's sides by cross-multiplying them and returns a
CheckResult that carries each side as a reduced int pair; its `lhs` and
`rhs` are `Fraction`s built when read, and the report writer formats the
ints, so no `Fraction` is made on the way from a pair to its report.

Every check reads its pair through one `PairExponents` record, so a pair
is evaluated once however many labels read it.  `LABELS` is the one table
of the labels, which the checks and the sweep read: a sweep checks its
selectors and derives its plan, the `LABELS` entries they name, once, and
`_pair_rows` emits each pair's rows from that plan.  `results_to_json`
writes a row of the shape the checks make (a `str` theorem, `bool` flags, a
non-empty `inputs` dict of `str` keys and `str` values) itself, its `inputs`
from a form kept per key tuple, and any other row as the `json.dumps` text
of its `to_json_dict()`.

Minimality preconditions are checked and failures are surfaced as distinct
results (precondition_failed=True), never skipped silently: the A-bound is
vacuous without its hypothesis and a sweep must report how many samples
satisfied it.
"""

from __future__ import annotations

import json
from dataclasses import replace
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import itemgetter
from typing import NamedTuple

from .exponents import _new, expand_kernel, rep_exponents, rep_minimality, swan_profile
from .generator import MASK64, GenParams, SplitMix64, gen_model_with_stats, gen_rep
from .maxplus import mp_vee_weight, pair_witness
from .model import MODES, UNRAMIFIED_ID, IrreducibleClass, ModelInstance, mode_index, validate_model
from .rationals import format_ratio
from .rep import WDRep, format_rep, resolve_terms


class CheckResult(NamedTuple):
    """One labeled check: lhs = ln/ld against rhs = rn/rd, each a reduced
    int pair with a positive denominator.  `lhs` and `rhs` are their exact
    values, each a `Fraction` built when read."""

    theorem: str
    ln: int
    ld: int
    rn: int
    rd: int
    holds: bool
    equality: bool
    inputs: dict
    precondition_failed: bool = False

    @property
    def lhs(self) -> Fraction:
        return Fraction(self.ln, self.ld)

    @property
    def rhs(self) -> Fraction:
        return Fraction(self.rn, self.rd)

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "lhs": format_ratio(self.ln, self.ld),
            "rhs": format_ratio(self.rn, self.rd),
            "holds": self.holds,
            "equality": self.equality,
            "precondition_failed": self.precondition_failed,
            "inputs": self.inputs,
        }


def _decide(theorem, sides, inputs):
    """The CheckResult of a label's int sides."""
    ln, ld, rn, rd, upper, precondition_failed = sides
    a, b = ln * rd, rn * ld
    g, h = gcd(ln, ld), gcd(rn, rd)
    return _new(CheckResult, (theorem, ln // g, ld // g, rn // h, rd // h,
                              a <= b if upper else a >= b, a == b, inputs, precondition_failed))


def _larger(u, v, e):
    """The larger of two reports' normalized field-e exponents, as (exponent, dim)."""
    a, b = u[e], v[e]
    return (a, u.dim) if a * v.dim >= b * u.dim else (b, v.dim)


class PairExponents:
    """What the bound checks read of a nonzero pair (x, y) in model m: a
    `RepExponents` record per side, x ox y, x ox dual(y), x's minimality
    and the report's inputs.  The checks divide by dim, so need M1's dim >= 1."""

    def __init__(self, x: WDRep, y: WDRep, m: ModelInstance):
        if x.is_zero or y.is_zero:
            raise ValueError("the bound checks need nonzero representations")
        if min(m.dim) < 1:
            raise ValueError("the bound checks need classes of positive dimension")
        self.rx, self.ry = rx, ry = rep_exponents(x, m), rep_exponents(y, m)
        self.ex, self.ey, self.x_xdual, self.y_ydual = rx.own, ry.own, rx.x_xdual, ry.x_xdual
        self.x_y = expand_kernel(rx.terms, ry.terms, m)
        self.x_ydual = expand_kernel(rx.terms, ry.dual, m)
        self.x_minimal = rep_minimality(rx.terms, m, rx.own)
        self.inputs = {"model": m.digest(), "x": format_rep(x), "y": format_rep(y)}


# Label -> (bound, mode, variant, shape), in emission order.  A's variant is None, and a
# label with a `shape`, the RepExponents field x and y both need, is its bound's max form.
LABELS = {
    "A": ("A", "eta", None, None),
    "AS": ("A", "sigma", None, None),
    "B": ("B", "eta", "sum", None),
    "B_indec": ("B", "eta", "indec_or_irr", "is_indecomposable"),
    "BS": ("B", "sigma", "sum", None),
    "BS_irr": ("B", "sigma", "indec_or_irr", "is_irreducible"),
    "C": ("C", "eta", "general", None),
    "C_irr": ("C", "eta", "irreducible", "is_irreducible"),
    "CS": ("C", "sigma", "general", None),
    "CS_irr": ("C", "sigma", "irreducible", "is_irreducible"),
}
# (bound, variant) -> its (label, shape) pairs, in the order of MODES.
_BY_VARIANT = {(b, v): tuple((label, s[3]) for mode in MODES for label, s in LABELS.items()
                             if s[:3] == (b, mode, v)) for b, _, v, _ in LABELS.values()}


def _sides(p: PairExponents, bound: str, k: int, strong: bool):
    """The int sides of a label on p, the one statement of each: `bound` is "A",
    "B" or "C", MODES[k] is its mode, and `strong` picks the max form of B and C."""
    e = 2 - k  # the ExponentReport field that mode reads: sw (2) for sigma, ar (1) for eta
    if bound == "A":
        rn, rd = _larger(p.ex, p.ey, e)
        return p.x_y[e], p.x_y.dim, rn, 2 * rd, False, not p.x_minimal[k]
    if bound == "B":
        dx, dy, t = p.x_xdual, p.y_ydual, p.x_ydual
        rn, rd = _larger(dx, dy, e) if strong else (dx[e] * dy.dim + dy[e] * dx.dim,
                                                    2 * dx.dim * dy.dim)
        return t[e], t.dim, rn, rd, False, False
    if strong:
        return (p.x_y[e], p.x_y.dim, *_larger(p.ex, p.ey, e), True, False)
    a, b = p.ex[e], p.ey[e]
    return p.x_y[e], 1, p.ey.dim * a + p.ex.dim * b - min(a, b), 1, True, False


def _check(p: PairExponents, bound: str, mode: str, variant) -> CheckResult:
    """The row on p of the `LABELS` entry that bound, mode and variant name; refuses
    an unknown variant, then an unknown mode, then a pair without its shape."""
    try:
        labels = _BY_VARIANT[bound, variant]
    except (KeyError, TypeError):  # TypeError: an unhashable variant
        raise ValueError(f"unknown variant {variant!r}") from None
    k = mode_index(mode)
    label, shape = labels[k]
    if shape is not None and not (getattr(p.rx, shape) and getattr(p.ry, shape)):
        raise ValueError(f"the {label} check needs {shape[3:]} representations")
    inputs = (dict(p.inputs, mode=mode) if variant is None else
              dict(p.inputs, mode=mode, variant=variant))
    return _decide(label, _sides(p, bound, k, shape is not None), inputs)


def check_bound_A(p: PairExponents, mode: str = "eta") -> CheckResult:
    """Lower bound: norm(x ox y) >= max(norm(x), norm(y)) / 2 when x cannot
    be lowered by any in-model character twist."""
    return _check(p, "A", mode, None)


def check_bound_B(p: PairExponents, mode: str = "eta", variant: str = "sum") -> CheckResult:
    """Symmetric lower bound on norm(x ox dual(y)).

    variant "sum": rhs is the average of the two self-dual tensor norms.
    variant "indec_or_irr": rhs is their max; requires single-term inputs
    (any Sp-length for mode eta, length 1 for mode sigma).
    """
    return _check(p, "B", mode, variant)


def check_bound_C(p: PairExponents, mode: str = "eta", variant: str = "general") -> CheckResult:
    """Upper bounds on the tensor exponent.

    variant "general": ar(x ox y) <= dim(y)ar(x) + dim(x)ar(y) - min(ar)
    (Swan exponents for mode sigma).  variant "irreducible": the normalized
    exponent of the tensor is at most the max of the factors'; requires
    irreducible (length-1 single-term) inputs.
    """
    return _check(p, "C", mode, variant)


# -- sharpness witnesses -----------------------------------------------------


def witness_model(extra_classes=(), pairing_entries=None) -> ModelInstance:
    """The unramified orbit plus `extra_classes`, with the given pairing
    entries (completed by the ModelInstance constructor, which rejects a
    pair given in both orders) and every dimension-1 class a character;
    validated.  With no arguments it is the unit model."""
    classes = [IrreducibleClass(UNRAMIFIED_ID, 1, Fraction(0), 1, UNRAMIFIED_ID, True, True)]
    classes += extra_classes
    chars = [c.id for c in classes if c.dim == 1]
    model = ModelInstance(classes, pairing_entries or {}, chars)
    report = validate_model(model)
    if not report.ok:
        raise AssertionError(f"witness model invalid: {[str(v) for v in report.violations]}")
    return model


def dim2_witness_model() -> ModelInstance:
    """Self-dual dimension-2 class of slope 1/2 with full twist degeneracy
    and self-pairing 1/4: attains equality in the A-, AS- and B-bounds."""
    cls = IrreducibleClass("w", 2, Fraction(1, 2), 2, "w", True, True)
    return witness_model([cls], {("w", "w"): Fraction(1, 4)})


def prime_dim_witness_model(ell: int) -> ModelInstance:
    """Self-dual class of prime dimension ell and slope 1 whose self-pairing
    is (1 - 1/ell): twisting the self-dual tensor slope strictly above the
    one-half floor."""
    cls = IrreducibleClass(f"p{ell}", ell, Fraction(1), 1, f"p{ell}", True, True)
    return witness_model([cls], {(f"p{ell}", f"p{ell}"): 1 - Fraction(1, ell)})


def tame_character_witness_model() -> ModelInstance:
    """Self-dual tame character (slope 0, Artin exponent 1): attains
    equality in the general C-bound against the unramified orbit."""
    cls = IrreducibleClass("t", 1, Fraction(0), 1, "t", True, False)
    return witness_model([cls], {("t", "t"): Fraction(0)})


def sharpness_suite() -> list[CheckResult]:
    """Equality-attaining checks: the dimension-2 witness for the A/AS/B
    bounds, prime-dimension witnesses for the improved self-dual slope,
    the tame character for the C-bound, and the max-plus pair witness."""
    m2 = dim2_witness_model()
    x = WDRep.from_terms([(1, 1, "w")])
    p = PairExponents(x, x, m2)
    out = [check_bound_A(p, "eta"), check_bound_A(p, "sigma"), check_bound_B(p, "eta", "sum")]

    for ell in (3, 5):
        mw = prime_dim_witness_model(ell)
        xw = WDRep.from_terms([(1, 1, f"p{ell}")])
        p = PairExponents(xw, xw, mw)
        out.append(check_bound_B(p, "sigma", "indec_or_irr"))
        out.append(check_bound_A(p, "sigma"))

    mt = tame_character_witness_model()
    xt = WDRep.from_terms([(1, 1, "t")])
    yu = WDRep.from_terms([(1, 1, UNRAMIFIED_ID)])
    out.append(check_bound_C(PairExponents(xt, yu, mt), "eta", "general"))

    d1, v1, d2, v2 = 2, Fraction(3), 1, Fraction(5)
    bound, _, _, v_prod = pair_witness(d1, v1, d2, v2)
    sides = (*v_prod.as_integer_ratio(), *bound.as_integer_ratio(), True, False)
    out.append(_decide("CS", sides,
                       {"witness": "max-plus pair", "d1": d1, "v1": "3", "d2": d2, "v2": "5"}))
    return out


# -- sweeps -------------------------------------------------------------------


# Sweep selector -> its labels, in emission order: itself and the labels it prefixes with "_".
SWEEP_FAMILIES = {f: tuple(label for label in LABELS if label.partition("_")[0] == f)
                  for f in LABELS if "_" not in f}


def _plan(theorems):
    """The `LABELS` entries (bound, mode, variant, shape) of the labels that the
    selectors name, in the order of `LABELS`; refuses an unknown selector."""
    for t in theorems:
        if t not in SWEEP_FAMILIES:
            raise ValueError(f"unknown theorem selector {t!r}")
    return [LABELS[label] for family, labels in SWEEP_FAMILIES.items() if family in theorems
            for label in labels]


def _pair_rows(plan, x: WDRep, y: WDRep, m: ModelInstance) -> list[CheckResult]:
    """The rows of a pair, one per `plan` entry whose shape both sides have, on
    one `PairExponents` record; the checks are called by module name, so
    that a wrapped check runs."""
    p = PairExponents(x, y, m)
    rx, ry = p.rx, p.ry
    return [check_bound_A(p, mode) if variant is None else
            (check_bound_B if bound == "B" else check_bound_C)(p, mode, variant)
            for bound, mode, variant, shape in plan
            if shape is None or (getattr(rx, shape) and getattr(ry, shape))]


class SweepSummary:
    """Per-theorem counts of a sweep, and its model and repair-round totals."""

    __slots__ = ("samples", "violations", "equalities", "precondition_failures", "models",
                 "repair_rounds")

    def __init__(self):
        self.samples: dict[str, int] = {}
        self.violations: dict[str, int] = {}
        self.equalities: dict[str, int] = {}
        self.precondition_failures: dict[str, int] = {}
        self.models = 0
        self.repair_rounds = 0

    def record(self, r: CheckResult):
        t = r.theorem
        if t not in self.samples:
            self.samples[t] = self.violations[t] = self.equalities[t] = 0
            self.precondition_failures[t] = 0
        if r.precondition_failed:
            self.precondition_failures[t] += 1
            return
        self.samples[t] += 1
        if not r.holds:
            self.violations[t] += 1
        if r.equality:
            self.equalities[t] += 1

    def total_violations(self) -> int:
        return sum(self.violations.values())

    def csv(self) -> str:
        lines = ["theorem,samples,violations,equalities"]
        for t in sorted(self.samples):
            lines.append(f"{t},{self.samples[t]},{self.violations[t]},{self.equalities[t]}")
        return "\n".join(lines) + "\n"


def pair_seed(base_seed: int, model_index: int, pair_index: int, side: int) -> int:
    """Deterministic derived seed for the representation draws."""
    h = SplitMix64(base_seed & MASK64)
    h.state = (h.state ^ (model_index + 1) * 0x9E3779B97F4A7C15) & MASK64
    h.state = (h.state ^ (pair_index + 1) * 0xC2B2AE3D27D4EB4F) & MASK64
    h.state = (h.state ^ (side + 1) * 0x165667B19E3779F9) & MASK64
    return h.next64()


def check_sweep_args(theorems, models: int, pairs_per_model: int, max_terms: int, max_r: int):
    """Raise ValueError unless `run_sweep` would check something with these
    arguments; return the sweep's plan, the `_plan` of its selectors."""
    if models < 1 or pairs_per_model < 1:
        raise ValueError("model and pair counts must be >= 1")
    if max_terms < 1 or max_r < 1:
        raise ValueError("max_terms and max_r must be >= 1")
    if not theorems:
        raise ValueError("select at least one theorem family")
    return _plan(theorems)


def run_sweep(theorems, models: int, pairs_per_model: int, gen: GenParams,
              seed: int, max_terms: int = 3, max_r: int = 4, sample_hook=None):
    """Generate `models` instances with seeds seed..seed+models-1, draw
    `pairs_per_model` representation pairs each, and run the selected bound
    families.  Returns (results, summary); ordering is fixed by
    (model index, pair index, label) regardless of scheduling.  When given,
    sample_hook(model, x, y) sees every drawn pair."""
    plan = check_sweep_args(theorems, models, pairs_per_model, max_terms, max_r)
    results: list[CheckResult] = []
    summary = SweepSummary()
    record = summary.record
    for mi in range(models):
        params = replace(gen, seed=seed + mi)
        model, stats = gen_model_with_stats(params)
        summary.models += 1
        summary.repair_rounds += stats.repair_rounds
        for pi in range(pairs_per_model):
            x = gen_rep(model, max_terms, max_r, pair_seed(seed, mi, pi, 0))
            y = gen_rep(model, max_terms, max_r, pair_seed(seed, mi, pi, 1))
            if sample_hook is not None:
                sample_hook(model, x, y)
            rows = _pair_rows(plan, x, y, model)
            results += rows
            for r in rows:
                record(r)
    return results, summary


def checks_for_pair(theorems, x: WDRep, y: WDRep, m: ModelInstance):
    """All applicable labeled checks for one pair, in the order of `LABELS`: the
    rows of `_pair_rows` on the plan of the selectors."""
    return _pair_rows(_plan(theorems), x, y, m)


def swan_bridge_gap(x: WDRep, y: WDRep, m: ModelInstance) -> Fraction:
    """v(S(x) vee S(y)) - sw(x ox y): nonnegative on valid models (the
    max-plus image dominates the true tensor Swan exponent).  The weight is
    summed in ints over the (L*slope, dim) pairs of `swan_profile`, so L*v
    and L*sw are ints and the gap is the one Fraction a call builds."""
    if min(m.dim) < 1 or min(m.slope) < 0:
        raise ValueError("the Swan bridge needs classes of positive dimension and slope >= 0")
    xs, ys = resolve_terms(x, m), resolve_terms(y, m)
    lv = mp_vee_weight(swan_profile(xs, m), swan_profile(ys, m))
    return Fraction(lv - m.L * expand_kernel(xs, ys, m).sw, m.L)


# One report row of `results_to_json` on the fast path: its keys in sorted
# order, indented as `json.dumps(..., indent=1)` indents a row of a list.
_ROW = ('{\n  "equality": %s,\n  "holds": %s,\n  "inputs": %s,\n  "lhs": "%s",\n'
        '  "precondition_failed": %s,\n  "rhs": "%s",\n  "theorem": %s\n }')


class _Strings(dict):
    """The JSON text of each string, encoded once per report: a pair's
    digest, x and y repeat across its rows."""

    def __missing__(self, s):
        text = self[s] = encode_basestring_ascii(s)
        return text


def _inputs_form(d):
    """The form of a dict whose keys are all strings, or None: its text with
    a %s per value, the keys in sorted order as JSON text with `%` escaped,
    a getter of its values in that order, and the types of all-string values."""
    if not d or not all(type(k) is str for k in d):
        return None
    order = sorted(d)
    text = "{\n   " + ",\n   ".join([encode_basestring_ascii(k).replace("%", "%%") + ": %s"
                                     for k in order]) + "\n  }"
    getter = itemgetter(*order) if len(order) > 1 else lambda inputs, k=order[0]: (inputs[k],)
    return text, getter, (str,) * len(order)


def results_to_json(results) -> str:
    """The text of `json.dumps([r.to_json_dict() for r in results], indent=1,
    sort_keys=True) + "\\n"`, written row by row without the pure-Python
    encoder that `indent` selects.  A row of the shape the checks make, a
    `str` theorem, `bool` flags and a non-empty `inputs` dict of `str` keys
    and `str` values, is unpacked once and its `inputs` written from the
    form that `forms` keeps per key tuple; any other row is the
    `json.dumps` text of its `to_json_dict()`."""
    strings, forms = _Strings(), {}
    rows = []
    for r in results:
        theorem, ln, ld, rn, rd, holds, equality, inputs, failed = r
        form = None
        if type(inputs) is dict:
            keys = tuple(inputs)
            form = forms.get(keys, False)
            if form is False:
                form = forms[keys] = _inputs_form(inputs)
        if (form is not None and type(theorem) is str
                and type(holds) is type(equality) is type(failed) is bool):
            template, getter, types = form
            values = getter(inputs)
            if tuple(map(type, values)) == types:
                rows.append(_ROW % (
                    "true" if equality else "false",
                    "true" if holds else "false",
                    template % tuple(map(strings.__getitem__, values)),
                    ln if ld == 1 else f"{ln}/{ld}",
                    "true" if failed else "false",
                    rn if rd == 1 else f"{rn}/{rd}",
                    strings[theorem]))
                continue
        rows.append(json.dumps(r.to_json_dict(), indent=1, sort_keys=True).replace("\n", "\n "))
    return "[\n " + ",\n ".join(rows) + "\n]\n" if rows else "[]\n"
