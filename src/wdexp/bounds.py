"""Bound checks on concrete inputs, sharpness witnesses, and the sweep.

Each check evaluates one labeled inequality exactly and returns a
CheckResult carrying both sides as rationals.  Labels:

    A, AS           lower bound eta/varsigma(x ox y) >= max(.,.)/2,
                    valid under a minimality hypothesis on x
    B, BS           symmetric lower bound via x ox dual(x), y ox dual(y)
    B_indec, BS_irr the stronger max form for single-term inputs
    C, CS           upper bound on ar/sw(x ox y)
    C_irr, CS_irr   eta/varsigma(x ox y) <= max(eta/varsigma) for
                    irreducible inputs

Every check reads its pair through one `PairExponents` record, so a pair
is evaluated once however many labels read it.  `SWEEP_FAMILIES` is the
one table of sweep selectors, their labels and where each label applies.

Minimality preconditions are checked and failures are surfaced as distinct
results (precondition_failed=True), never skipped silently: the A-bound is
vacuous without its hypothesis and a sweep must report how many samples
satisfied it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property

from .exponents import (character_twists, exponents_of, is_minimal_among, swan_profile,
                        tensor_exponents)
from .generator import MASK64, GenParams, SplitMix64, gen_model_with_stats, gen_rep
from .maxplus import mp_degree_weight, mp_vee, optimal_witness, pair_upper_bound, s_map
from .model import UNRAMIFIED_ID, IrreducibleClass, ModelInstance, validate_model
from .rationals import format_rational
from .rep import Indecomposable, WDRep, format_rep, rep_dual


@dataclass(frozen=True)
class CheckResult:
    theorem: str
    lhs: Fraction
    rhs: Fraction
    holds: bool
    equality: bool
    inputs: dict
    precondition_failed: bool = False

    def to_json_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "lhs": format_rational(self.lhs),
            "rhs": format_rational(self.rhs),
            "holds": self.holds,
            "equality": self.equality,
            "precondition_failed": self.precondition_failed,
            "inputs": self.inputs,
        }


def _result(theorem, lhs, rhs, direction, inputs, precondition_failed=False):
    lhs, rhs = Fraction(lhs), Fraction(rhs)
    holds = lhs >= rhs if direction == ">=" else lhs <= rhs
    return CheckResult(theorem, lhs, rhs, holds, lhs == rhs, inputs, precondition_failed)


class PairExponents:
    """What the bound checks read of a nonzero pair (x, y) in model m, each
    evaluated on first use and at most once; `x_ydual` is x ox dual(y)."""

    def __init__(self, x: WDRep, y: WDRep, m: ModelInstance):
        if x.is_zero or y.is_zero:
            raise ValueError("the bound checks need nonzero representations")
        self.x, self.y, self.m = x, y, m

    ex = cached_property(lambda p: exponents_of(p.x, p.m))
    ey = cached_property(lambda p: exponents_of(p.y, p.m))
    y_dual = cached_property(lambda p: rep_dual(p.y, p.m))
    x_y = cached_property(lambda p: tensor_exponents(p.x, p.y, p.m))
    x_ydual = cached_property(lambda p: tensor_exponents(p.x, p.y_dual, p.m))
    x_xdual = cached_property(lambda p: tensor_exponents(p.x, rep_dual(p.x, p.m), p.m))
    y_ydual = cached_property(lambda p: tensor_exponents(p.y, p.y_dual, p.m))
    x_twists = cached_property(lambda p: character_twists(p.x, p.m, p.ex))
    x_minimal_eta = cached_property(lambda p: is_minimal_among(p.ex, p.x_twists, "eta"))
    x_minimal_sigma = cached_property(lambda p: is_minimal_among(p.ex, p.x_twists, "sigma"))
    inputs = cached_property(
        lambda p: {"model": p.m.digest(), "x": format_rep(p.x), "y": format_rep(p.y)})


def check_bound_A(p: PairExponents, mode: str = "eta") -> CheckResult:
    """Lower bound: norm(x ox y) >= max(norm(x), norm(y)) / 2 when x cannot
    be lowered by any in-model character twist."""
    label = "A" if mode == "eta" else "AS"
    rhs = max(p.ex.normalized(mode), p.ey.normalized(mode)) / 2
    return _result(label, p.x_y.normalized(mode), rhs, ">=", dict(p.inputs, mode=mode),
                   precondition_failed=not (p.x_minimal_eta if mode == "eta" else p.x_minimal_sigma))


def check_bound_B(p: PairExponents, mode: str = "eta", variant: str = "sum") -> CheckResult:
    """Symmetric lower bound on norm(x ox dual(y)).

    variant "sum": rhs is the average of the two self-dual tensor norms.
    variant "indec_or_irr": rhs is their max; requires single-term inputs
    (any Sp-length for mode eta, length 1 for mode sigma).
    """
    if variant not in ("sum", "indec_or_irr"):
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "indec_or_irr":
        for z in (p.x, p.y):
            if not z.is_indecomposable:
                raise ValueError("the strong B-variant needs single-term representations")
            if mode == "sigma" and not z.is_irreducible:
                raise ValueError("the strong BS-variant needs irreducible representations")
        label = "B_indec" if mode == "eta" else "BS_irr"
    else:
        label = "B" if mode == "eta" else "BS"
    dx, dy = p.x_xdual.normalized(mode), p.y_ydual.normalized(mode)
    rhs = max(dx, dy) if variant == "indec_or_irr" else (dx + dy) / 2
    return _result(label, p.x_ydual.normalized(mode), rhs, ">=",
                   dict(p.inputs, mode=mode, variant=variant))


def check_bound_C(p: PairExponents, mode: str = "eta", variant: str = "general") -> CheckResult:
    """Upper bounds on the tensor exponent.

    variant "general": ar(x ox y) <= dim(y)ar(x) + dim(x)ar(y) - min(ar)
    (Swan exponents for mode sigma).  variant "irreducible": the normalized
    exponent of the tensor is at most the max of the factors'; requires
    irreducible (length-1 single-term) inputs.
    """
    if variant not in ("general", "irreducible"):
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "general":
        label = "C" if mode == "eta" else "CS"
        a, b = p.ex.exponent(mode), p.ey.exponent(mode)
        lhs = p.x_y.exponent(mode)
        rhs = p.ey.dim * a + p.ex.dim * b - min(a, b)
    else:
        if not (p.x.is_irreducible and p.y.is_irreducible):
            raise ValueError("the irreducible C-variant needs irreducible representations")
        label = "C_irr" if mode == "eta" else "CS_irr"
        lhs = p.x_y.normalized(mode)
        rhs = max(p.ex.normalized(mode), p.ey.normalized(mode))
    return _result(label, lhs, rhs, "<=", dict(p.inputs, mode=mode, variant=variant))


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
    out = []

    m2 = dim2_witness_model()
    x = WDRep.from_terms([(1, Indecomposable(1, "w"))])
    p = PairExponents(x, x, m2)
    out.append(check_bound_A(p, "eta"))
    out.append(check_bound_A(p, "sigma"))
    out.append(check_bound_B(p, "eta", "sum"))

    for ell in (3, 5):
        mw = prime_dim_witness_model(ell)
        xw = WDRep.from_terms([(1, Indecomposable(1, f"p{ell}"))])
        p = PairExponents(xw, xw, mw)
        out.append(check_bound_B(p, "sigma", "indec_or_irr"))
        out.append(check_bound_A(p, "sigma"))

    mt = tame_character_witness_model()
    xt = WDRep.from_terms([(1, Indecomposable(1, "t"))])
    yu = WDRep.from_terms([(1, Indecomposable(1, UNRAMIFIED_ID))])
    out.append(check_bound_C(PairExponents(xt, yu, mt), "eta", "general"))

    d1, v1, d2, v2 = 2, Fraction(3), 1, Fraction(5)
    w1, w2 = optimal_witness(d1, v1, d2, v2)
    _, v_prod = mp_degree_weight(mp_vee(w1, w2))
    bound = pair_upper_bound(d1, v1, d2, v2)
    out.append(
        CheckResult(
            "CS",
            v_prod,
            bound,
            v_prod <= bound,
            v_prod == bound,
            {"witness": "max-plus pair", "d1": d1, "v1": "3", "d2": d2, "v2": "5"},
        )
    )
    return out


# -- sweeps -------------------------------------------------------------------


# Sweep selector -> its labels in emission order, each with the check that
# produces it and the WDRep property both x and y need (None: every pair).
# The checks are called by their module names, so a wrapped checker is the
# one a sweep runs.
SWEEP_FAMILIES = {
    "A": (("A", lambda p: check_bound_A(p, "eta"), None),),
    "AS": (("AS", lambda p: check_bound_A(p, "sigma"), None),),
    "B": (("B", lambda p: check_bound_B(p, "eta", "sum"), None),
          ("B_indec", lambda p: check_bound_B(p, "eta", "indec_or_irr"), "is_indecomposable")),
    "BS": (("BS", lambda p: check_bound_B(p, "sigma", "sum"), None),
           ("BS_irr", lambda p: check_bound_B(p, "sigma", "indec_or_irr"), "is_irreducible")),
    "C": (("C", lambda p: check_bound_C(p, "eta", "general"), None),
          ("C_irr", lambda p: check_bound_C(p, "eta", "irreducible"), "is_irreducible")),
    "CS": (("CS", lambda p: check_bound_C(p, "sigma", "general"), None),
           ("CS_irr", lambda p: check_bound_C(p, "sigma", "irreducible"), "is_irreducible")),
}


def _require_selectors(theorems):
    for t in theorems:
        if t not in SWEEP_FAMILIES:
            raise ValueError(f"unknown theorem selector {t!r}")


@dataclass
class SweepSummary:
    samples: dict[str, int] = field(default_factory=dict)
    violations: dict[str, int] = field(default_factory=dict)
    equalities: dict[str, int] = field(default_factory=dict)
    precondition_failures: dict[str, int] = field(default_factory=dict)
    models: int = 0
    repair_rounds: int = 0

    def record(self, r: CheckResult):
        t = r.theorem
        for d in (self.samples, self.violations, self.equalities, self.precondition_failures):
            d.setdefault(t, 0)
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
    arguments."""
    if models < 1 or pairs_per_model < 1:
        raise ValueError("model and pair counts must be >= 1")
    if max_terms < 1 or max_r < 1:
        raise ValueError("max_terms and max_r must be >= 1")
    if not theorems:
        raise ValueError("select at least one theorem family")
    _require_selectors(theorems)


def run_sweep(theorems, models: int, pairs_per_model: int, gen: GenParams,
              seed: int, max_terms: int = 3, max_r: int = 4, sample_hook=None):
    """Generate `models` instances with seeds seed..seed+models-1, draw
    `pairs_per_model` representation pairs each, and run the selected bound
    families.  Returns (results, summary); ordering is fixed by
    (model index, pair index, label) regardless of scheduling.  When given,
    sample_hook(model, x, y) sees every drawn pair."""
    check_sweep_args(theorems, models, pairs_per_model, max_terms, max_r)
    results: list[CheckResult] = []
    summary = SweepSummary()
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
            for rr in checks_for_pair(theorems, x, y, model):
                results.append(rr)
                summary.record(rr)
    return results, summary


def checks_for_pair(theorems, x: WDRep, y: WDRep, m: ModelInstance):
    """All applicable labeled checks for one representation pair, in the
    order of `SWEEP_FAMILIES`, all reading one `PairExponents` record."""
    _require_selectors(theorems)
    p = PairExponents(x, y, m)
    return [check(p) for family, labels in SWEEP_FAMILIES.items() if family in theorems
            for _label, check, needs in labels
            if needs is None or (getattr(x, needs) and getattr(y, needs))]


def swan_bridge_gap(x: WDRep, y: WDRep, m: ModelInstance) -> Fraction:
    """v(S(x) vee S(y)) - sw(x ox y): nonnegative on valid models (the
    max-plus image dominates the true tensor Swan exponent)."""
    sx = s_map(swan_profile(x, m))
    sy = s_map(swan_profile(y, m))
    _, v = mp_degree_weight(mp_vee(sx, sy))
    return v - tensor_exponents(x, y, m).sw


def results_to_json(results) -> str:
    return json.dumps([r.to_json_dict() for r in results], indent=1, sort_keys=True) + "\n"
