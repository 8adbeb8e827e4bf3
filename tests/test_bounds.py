import copy
import hashlib
import json
import pickle
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import pytest

from conftest import pair, pairing, perturbations, validation_bases
from wdexp.bounds import (
    LABELS,
    SWEEP_FAMILIES,
    CheckResult,
    PairExponents,
    check_bound_A,
    check_bound_B,
    check_bound_C,
    checks_for_pair,
    dim2_witness_model,
    prime_dim_witness_model,
    results_to_json,
    run_sweep,
    sharpness_suite,
    swan_bridge_gap,
    tame_character_witness_model,
    witness_model,
)
from wdexp.exponents import (ExponentReport, class_minimality, exponents_of, indec_tensor_kernel,
                             is_minimal_rep, rep_exponents, rep_minimality, tensor_exponents)
from wdexp.generator import GenParams, SplitMix64, gen_model, gen_rep
from wdexp.jordan import Partition
from wdexp.maxplus import mp_degree_weight, mp_vee, s_map
from wdexp.model import (Frozen, FrozenValue, IrreducibleClass, ModelInstance,
                         ModelStructureError, Violation, validate_model)
from wdexp.rationals import format_rational
from wdexp.rep import WDRep, format_rep, parse_rep, rep_dual, reps, resolve_terms

ALL_FAMILIES = ("A", "AS", "B", "BS", "C", "CS")


def test_bound_A_trivial_unit(unit_model):
    x = parse_rep("Sp_1(u)", unit_model)
    r = check_bound_A(PairExponents(x, x, unit_model), "eta")
    assert r.theorem == "A" and r.holds and r.equality and not r.precondition_failed
    assert (r.lhs, r.rhs) == (0, 0)


def test_bound_A_unramified_is_stronger(zoo_model):
    x = parse_rep("Sp_2(u) + Sp_3(u)", zoo_model)
    for ytext in ("Sp_1(a)", "Sp_2(c3) + Sp_1(t)", "Sp_1(g)"):
        y = parse_rep(ytext, zoo_model)
        r = check_bound_A(PairExponents(x, y, zoo_model), "eta")
        assert r.holds and not r.precondition_failed
        full_max = max(
            exponents_of(x, zoo_model).eta, exponents_of(y, zoo_model).eta
        )
        assert r.lhs >= full_max


def test_bound_A_precondition_reported(zoo_model):
    x = parse_rep("Sp_1(t)", zoo_model)  # tame character: not eta-minimal
    p = PairExponents(x, x, zoo_model)
    r = check_bound_A(p, "eta")
    assert r.precondition_failed
    r = check_bound_A(p, "sigma")
    assert not r.precondition_failed  # but it is sigma-minimal


def test_bound_A_dim2_witness_equality():
    m = dim2_witness_model()
    x = parse_rep("Sp_1(w)", m)
    p = PairExponents(x, x, m)
    r = check_bound_A(p, "eta")
    assert r.holds and r.equality
    assert r.lhs == Fraction(3, 4) == r.rhs
    rs = check_bound_A(p, "sigma")
    assert rs.equality and rs.lhs == Fraction(1, 4)


def test_bound_A_zero_rep_rejected(unit_model):
    x = parse_rep("Sp_1(u)", unit_model)
    for pair in ((WDRep.zero(), x), (x, WDRep.zero())):
        with pytest.raises(ValueError, match="nonzero"):
            PairExponents(*pair, unit_model)


@pytest.mark.parametrize("check, variant", [
    (check_bound_A, ()),
    (check_bound_B, ("sum",)),
    (check_bound_B, ("indec_or_irr",)),
    (check_bound_C, ("general",)),
    (check_bound_C, ("irreducible",)),
    (check_bound_B, ("bogus",)),
    (check_bound_C, ("bogus",)),
])
def test_bounds_reject_unknown_mode(zoo_model, check, variant):
    """A mode other than sigma and eta raises, and so does a variant that
    the check does not have, with a valid mode."""
    x = parse_rep("Sp_1(a)", zoo_model)
    mode, message = "bogus", "mode must be one of"
    if variant == ("bogus",):
        mode, message = "eta", "unknown variant 'bogus'"
    with pytest.raises(ValueError, match=message):
        check(PairExponents(x, x, zoo_model), mode, *variant)


@pytest.mark.parametrize("check, args, message", [
    (check_bound_B, ("bogus", "bogus"), "unknown variant 'bogus'"),
    (check_bound_C, ("bogus", "bogus"), "unknown variant 'bogus'"),
    (check_bound_A, ([],), "mode must be one of"),
    (check_bound_B, ([], "sum"), "mode must be one of"),
    (check_bound_C, ({}, "irreducible"), "mode must be one of"),
    (check_bound_B, ("eta", []), r"unknown variant \[\]"),
    (check_bound_C, ("sigma", {}), r"unknown variant \{\}"),
    (check_bound_B, ([], []), r"unknown variant \[\]"),
])
def test_bounds_refuse_a_bad_variant_before_a_bad_mode(zoo_model, check, args, message):
    """An unknown variant is refused before an unknown mode, and an
    unhashable mode or variant is refused with a ValueError too."""
    x = parse_rep("Sp_1(a)", zoo_model)
    with pytest.raises(ValueError, match=message):
        check(PairExponents(x, x, zoo_model), *args)


def test_shape_guard_and_sweep_filter_agree(zoo_model):
    """A max-form label's check refuses a pair exactly when the sweep emits
    no row of that label for it."""
    xs = [parse_rep(e, zoo_model) for e in (
        "Sp_1(a)", "Sp_1(b)", "Sp_2(a)", "Sp_3(b)", "Sp_1(a) + Sp_1(b)", "2*Sp_1(a)",
        "Sp_2(a) + Sp_1(c3)")]
    checks = {"B": check_bound_B, "C": check_bound_C}
    max_forms = [label for label, (_, _, _, shape) in LABELS.items() if shape is not None]
    assert max_forms == ["B_indec", "BS_irr", "C_irr", "CS_irr"]
    seen = Counter()
    for x in xs:
        for y in xs:
            p = PairExponents(x, y, zoo_model)
            emitted = {r.theorem for r in checks_for_pair(ALL_FAMILIES, x, y, zoo_model)}
            for label in max_forms:
                bound, mode, variant, _ = LABELS[label]
                try:
                    r = checks[bound](p, mode, variant)
                except ValueError:
                    assert label not in emitted, (label, format_rep(x), format_rep(y))
                    seen[label, x.is_indecomposable, y.is_indecomposable] += 1
                else:
                    assert label in emitted and r.theorem == label
                    seen[label, "checked"] += 1
    for label in max_forms:
        # each label is checked somewhere and refuses a multi-term x; all but
        # B_indec also refuse some pair of single terms of Sp-length 2 or more
        assert seen[label, "checked"] and seen[label, False, True], label
        assert bool(seen[label, True, True]) == (label != "B_indec"), label


def test_bound_B_sum_equality_on_equal_inputs(zoo_model):
    x = parse_rep("Sp_2(a) + Sp_1(b)", zoo_model)
    r = check_bound_B(PairExponents(x, x, zoo_model), "eta", "sum")
    assert r.theorem == "B" and r.holds and r.equality


def test_bound_B_indec_variant(zoo_model):
    x = parse_rep("Sp_2(a)", zoo_model)
    y = parse_rep("Sp_1(b)", zoo_model)
    p = PairExponents(x, y, zoo_model)
    r = check_bound_B(p, "eta", "indec_or_irr")
    assert r.theorem == "B_indec" and r.holds
    with pytest.raises(ValueError):
        check_bound_B(PairExponents(parse_rep("Sp_1(a) + Sp_1(b)", zoo_model), y, zoo_model),
                      "eta", "indec_or_irr")
    with pytest.raises(ValueError):
        check_bound_B(p, "sigma", "indec_or_irr")  # needs r = 1


def test_bound_B_distinct_slopes_hit_max(zoo_model):
    x = parse_rep("Sp_1(a)", zoo_model)
    y = parse_rep("Sp_1(b)", zoo_model)
    r = check_bound_B(PairExponents(x, y, zoo_model), "sigma", "indec_or_irr")
    assert r.theorem == "BS_irr" and r.holds
    assert r.lhs == max(zoo_model.classes["a"].slope, zoo_model.classes["b"].slope)


def test_bound_C_examples(unit_model, zoo_model):
    x = parse_rep("Sp_2(u)", unit_model)
    y = parse_rep("Sp_3(u)", unit_model)
    r = check_bound_C(PairExponents(x, y, unit_model), "eta", "general")
    assert (r.lhs, r.rhs) == (4, 6) and r.holds
    # tame character against the unit orbit attains the bound
    mt = tame_character_witness_model()
    r = check_bound_C(PairExponents(parse_rep("Sp_1(t)", mt), parse_rep("Sp_1(u)", mt), mt))
    assert r.equality and r.lhs == 1
    u = parse_rep("Sp_1(u)", unit_model)
    r = check_bound_C(PairExponents(u, u, unit_model), "eta", "general")
    assert r.holds and (r.lhs, r.rhs) == (0, 0)


def test_bound_C_irreducible_variant(zoo_model):
    x = parse_rep("Sp_1(a)", zoo_model)
    y = parse_rep("Sp_1(c3)", zoo_model)
    r = check_bound_C(PairExponents(x, y, zoo_model), "eta", "irreducible")
    assert r.theorem == "C_irr" and r.holds
    with pytest.raises(ValueError):
        check_bound_C(PairExponents(parse_rep("Sp_2(a)", zoo_model), y, zoo_model), "eta",
                      "irreducible")


# The exponent dictionary for pairs of irreducible representations of
# general linear groups, kept beside the test that is its only caller.


@dataclass(frozen=True)
class GLPair:
    """Exponent data of a pair of irreducible representations of general
    linear groups: dimensions, the pair's Artin exponent, and the count d of
    unramified twists carrying one factor to the dual of the other."""

    m: int
    n: int
    ar_pair: int
    d: int = 0

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError("dimensions must be >= 1")
        if self.d < 0:
            raise ValueError("twist count must be >= 0")
        if self.d != 0 and (self.m != self.n or self.n % self.d != 0):
            raise ValueError("a nonzero twist count forces m = n and d | n")


def gl_pair_dictionary(p: GLPair) -> tuple[int, Fraction]:
    """(sw_pair, varsigma_pair) from Artin data: sw = ar - mn + d."""
    sw = p.ar_pair - p.m * p.n + p.d
    if sw < 0:
        raise ValueError(f"inconsistent pair data: sw would be {sw} < 0")
    return sw, Fraction(sw, p.m * p.n)


def gl_pair_artin_from_swan(sw_pair: int, m: int, n: int, d: int = 0) -> int:
    """Inverse direction of the dictionary: ar = sw + mn - d."""
    if sw_pair < 0:
        raise ValueError("Swan exponent must be >= 0")
    GLPair(m, n, sw_pair + m * n - d, d)
    return sw_pair + m * n - d


def test_gl_pair_dictionary():
    sw, vs = gl_pair_dictionary(GLPair(2, 2, 3, 2))
    assert (sw, vs) == (1, Fraction(1, 4))
    assert gl_pair_dictionary(GLPair(1, 1, 0, 1)) == (0, 0)
    sw, _ = gl_pair_dictionary(GLPair(3, 2, 8, 0))
    assert sw == 8 - 6
    assert gl_pair_artin_from_swan(1, 2, 2, 2) == 3
    with pytest.raises(ValueError):
        gl_pair_dictionary(GLPair(2, 2, 1, 0))  # sw would be negative
    with pytest.raises(ValueError):
        GLPair(2, 3, 5, 1)  # d != 0 forces m = n
    with pytest.raises(ValueError):
        GLPair(4, 4, 20, 3)  # d must divide n


def test_sharpness_suite_equalities():
    results = sharpness_suite()
    assert all(r.holds for r in results)
    assert not any(r.precondition_failed for r in results)
    by = {}
    for r in results:
        by.setdefault(r.theorem, []).append(r)
    # half-slope equality for the dimension-2 witness, both exponents
    assert any(r.equality and r.lhs == Fraction(3, 4) for r in by["A"])
    assert any(r.equality and r.lhs == Fraction(1, 4) for r in by["AS"])
    assert any(r.equality for r in by["B"])
    # prime-dimension witnesses: self-dual tensor slope (1 - 1/ell) * slope
    ells = sorted(r.lhs for r in by["BS_irr"])
    assert ells == [Fraction(2, 3), Fraction(4, 5)]
    assert any(r.equality and r.lhs == 1 for r in by["C"])
    assert any(r.equality and r.lhs == 10 for r in by["CS"])


def test_prime_witness_strictly_beats_half():
    for ell in (3, 5):
        m = prime_dim_witness_model(ell)
        cid = f"p{ell}"
        diag = pair(m, cid, cid)
        assert diag == (1 - Fraction(1, ell)) * m.classes[cid].slope
        assert diag > m.classes[cid].slope / 2


def test_witness_model_rejects_a_pair_given_in_both_orders():
    # neither value may win silently, whichever order they are inserted in
    w = IrreducibleClass("w", 2, Fraction(1, 2), 2, "w", True, True)
    for first, second in ((Fraction(1, 2), Fraction(3, 2)), (Fraction(3, 2), Fraction(1, 2))):
        entries = {("w", "w"): Fraction(1, 4), ("u", "w"): first, ("w", "u"): second}
        with pytest.raises(ModelStructureError, match=r"\{u,w\}"):
            witness_model([w], entries)


def test_sp_level_triple_ultrametric(zoo_model):
    # eta(S x dual T) <= max(eta(S x dual R), eta(R x dual T)) over
    # indecomposable triples
    ids = sorted(zoo_model.classes)
    m = zoo_model

    def eta_pair(r, i, s, j):
        ar, _, dim = indec_tensor_kernel(r, i, s, m.classes[j].dual, m)
        return Fraction(ar, dim)

    cases = 0
    for i in ids:
        for j in ids:
            for k in ids:
                for r, s, t in ((1, 1, 1), (2, 1, 3), (3, 2, 2)):
                    lhs = eta_pair(r, i, s, j)
                    rhs = max(eta_pair(r, i, t, k), eta_pair(t, k, s, j))
                    assert lhs <= rhs, (i, j, k, r, s, t)
                    cases += 1
    assert cases == len(ids) ** 3 * 3


def test_homogeneous_minimal_twist_formula(zoo_model):
    # for an eta-minimal eta-homogeneous x, twisting by any character gives
    # eta = max(eta(x), eta(chi))
    from conftest import is_eta_homogeneous

    rng = SplitMix64(21)
    tested = 0
    for _ in range(400):
        x = gen_rep(zoo_model, 3, 4, rng.next64())
        if not (is_eta_homogeneous(x, zoo_model) and is_minimal_rep(x, "eta", zoo_model)):
            continue
        tested += 1
        ex = exponents_of(x, zoo_model).eta
        for chi in zoo_model.characters:
            lhs = tensor_exponents(parse_rep(f"Sp_1({chi})", zoo_model), x, zoo_model).eta
            c = zoo_model.classes[chi]
            eta_chi = Fraction(0) if chi == "u" else c.slope + 1
            assert lhs == max(ex, eta_chi), (x, chi)
    assert tested >= 20


def test_swan_bridge(zoo_model):
    rng = SplitMix64(22)
    for _ in range(200):
        x = gen_rep(zoo_model, 3, 4, rng.next64())
        y = gen_rep(zoo_model, 3, 4, rng.next64())
        assert swan_bridge_gap(x, y, zoo_model) >= 0


def test_swan_bridge_gaps_are_pinned():
    # sha256 of the gap of every pair a fixed sweep draws, one reduced
    # rational a line, recorded before MaxPlusElem stopped converting keys
    # that are already Fractions.
    samples = []
    run_sweep(ALL_FAMILIES, 4, 25, GenParams.from_strings("0,1/2,1,2"), seed=0,
              sample_hook=lambda m, x, y: samples.append((m, x, y)))
    assert len(samples) == 100
    text = "".join(format_rational(swan_bridge_gap(x, y, m)) + "\n" for m, x, y in samples)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "499603ede32253120946eb4d6cc107216f3656060f978a0b6d6374df28034c09")


def _bridge_gap_reference(x, y, m):
    """v(S(x) vee S(y)) - sw(x ox y) through MaxPlusElem: the s_map image of
    each (dim, slope) constituent, read from the model's classes rather than
    its integer tables, then mp_vee and mp_degree_weight."""
    def image(z):
        return s_map([(k * r * m.classes[cls].dim, m.classes[cls].slope)
                      for k, r, cls in z.terms])
    _, v = mp_degree_weight(mp_vee(image(x), image(y)))
    return v - tensor_exponents(x, y, m).sw


def test_swan_bridge_matches_the_max_plus_reference(zoo_model, census_counterexample):
    # 200 zoo pairs, a 4 x 25 sweep, and every pair of one- and two-term,
    # Sp-length <= 2 representations of the census model and the witnesses
    rng = SplitMix64(23)
    cases = [(zoo_model, gen_rep(zoo_model, 3, 4, rng.next64()),
              gen_rep(zoo_model, 3, 4, rng.next64())) for _ in range(200)]
    run_sweep(ALL_FAMILIES, 4, 25, GenParams.from_strings("0,1/2,1,2"), seed=1,
              sample_hook=lambda m, x, y: cases.append((m, x, y)))
    for m in (census_counterexample, dim2_witness_model(), prime_dim_witness_model(3),
              prime_dim_witness_model(5), tame_character_witness_model()):
        xs = reps(m, 2, 2)
        cases += [(m, x, y) for x in xs for y in xs]
    assert len(cases) == 200 + 100 + 27 ** 2 + 4 * 14 ** 2
    kinds = Counter()
    for m, x, y in cases:
        gap = swan_bridge_gap(x, y, m)
        assert type(gap) is Fraction
        assert gap == _bridge_gap_reference(x, y, m), (format_rep(x), format_rep(y))
        kinds[(gap > 0, m.L > 1)] += 1
    # zero gaps and many positive ones on models with L > 1, where a gap
    # left unscaled would read L times too large
    assert kinds == {(True, True): 857, (False, True): 760, (False, False): 196}


def test_swan_bridge_resolves_each_term_once(monkeypatch, zoo_model):
    # The profiles and the tensor read the same resolved terms: x and y go
    # through one `resolve_terms` call each, and no term is looked up on
    # its own through ModelInstance.at.
    import wdexp.bounds as bounds

    at, resolve, calls = ModelInstance.at, bounds.resolve_terms, []
    monkeypatch.setattr(ModelInstance, "at", lambda m, i: calls.append(("at", i)) or at(m, i))
    monkeypatch.setattr(bounds, "resolve_terms", lambda z, m: calls.extend(
        ("resolve", cls) for _, _, cls in z.terms) or resolve(z, m))
    rng = SplitMix64(24)
    for _ in range(50):
        x = gen_rep(zoo_model, 3, 4, rng.next64())
        y = gen_rep(zoo_model, 3, 4, rng.next64())
        calls.clear()
        swan_bridge_gap(x, y, zoo_model)
        assert calls == [("resolve", cls) for z in (x, y) for _, _, cls in z.terms], (x, y)


def test_swan_bridge_rejects_a_class_of_dim_below_1_or_negative_slope(zoo_model):
    classes = [zoo_model.classes[i] for i in zoo_model.ids]
    a = zoo_model.at("a")
    x = parse_rep("Sp_1(a)", zoo_model)
    for bad in (classes[a]._replace(dim=0), classes[a]._replace(dim=-2),
                classes[a]._replace(slope=-classes[a].slope)):
        m = ModelInstance(classes[:a] + [bad] + classes[a + 1:], pairing(zoo_model),
                          zoo_model.characters)
        with pytest.raises(ValueError):
            swan_bridge_gap(x, x, m)


def test_records_are_immutable_tuples_with_named_fields():
    inputs = {"x": "Sp_1(u)", "mode": "eta"}
    r = CheckResult("AS", 1, 3, 1, 2, False, False, inputs)
    assert (r.theorem, r.lhs, r.rhs, r.holds, r.equality, r.inputs, r.precondition_failed) == (
        "AS", Fraction(1, 3), Fraction(1, 2), False, False, inputs, False)
    assert r == CheckResult(theorem="AS", ln=1, ld=3, rn=1, rd=2, holds=False,
                            equality=False, inputs=dict(inputs), precondition_failed=False)
    assert r != CheckResult("AS", 1, 3, 1, 2, False, False, inputs, True)
    with pytest.raises(AttributeError):
        r.holds = True
    assert r.holds is False
    doc = r.to_json_dict()
    assert list(doc) == ["theorem", "lhs", "rhs", "holds", "equality", "precondition_failed",
                         "inputs"]
    assert doc == {"theorem": "AS", "lhs": "1/3", "rhs": "1/2", "holds": False,
                   "equality": False, "precondition_failed": False, "inputs": inputs}
    rep = ExponentReport(4, 7, 3)
    assert (rep.dim, rep.ar, rep.sw) == (4, 7, 3)
    assert rep == ExponentReport(dim=4, ar=7, sw=3) != ExponentReport(4, 7, 2)
    with pytest.raises(AttributeError):
        rep.ar = 0
    assert rep.ar == 7
    assert (rep.eta, rep.varsigma) == (Fraction(7, 4), Fraction(3, 4))
    assert ExponentReport(0, 0, 0).eta is None is ExponentReport(0, 0, 0).varsigma
    v = Violation("M6", ("a", "c", "b"), Fraction(1), Fraction(1, 2))
    assert Violation._fields == ("axiom", "witness", "lhs", "rhs")
    assert (v.axiom, v.witness, v.lhs, v.rhs) == ("M6", ("a", "c", "b"), 1, Fraction(1, 2))
    assert v == Violation(axiom="M6", witness=("a", "c", "b"), lhs=Fraction(1), rhs=Fraction(1, 2))
    assert v != Violation("M6", ("c", "a", "b"), Fraction(1), Fraction(1, 2))
    assert str(v) == "M6[a,c,b]: lhs=1 rhs=1/2"
    with pytest.raises(AttributeError):
        v.lhs = Fraction(0)
    assert v.lhs == 1
    c = IrreducibleClass("w", 2, Fraction(1, 2), 2, "w")
    assert IrreducibleClass._fields == ("id", "dim", "slope", "deg", "dual", "minimal_sigma",
                                        "minimal_eta")
    assert (c.id, c.dim, c.slope, c.deg, c.dual, c.minimal_sigma, c.minimal_eta) == (
        "w", 2, Fraction(1, 2), 2, "w", False, False)
    flagged = c._replace(minimal_sigma=True, minimal_eta=True)
    assert flagged == IrreducibleClass(id="w", dim=2, slope=Fraction(1, 2), deg=2, dual="w",
                                       minimal_sigma=True, minimal_eta=True)
    assert flagged != c == IrreducibleClass("w", 2, Fraction(1, 2), 2, "w", False, False)
    with pytest.raises(AttributeError):
        c.dim = 3
    assert c.dim == 2


@pytest.mark.parametrize("cls, field, a, b", [
    (WDRep, "terms", ((1, 2, "a"), (2, 1, "u")), ((1, 2, "a"),)),
    (Partition, "parts", (3, 1, 1), (3, 2)),
])
def test_value_types_compare_by_value_and_are_immutable(cls, field, a, b):
    x, y, z = cls(a), cls(tuple(list(a))), cls(b)
    assert x is not y and getattr(x, field) == a
    assert x == y and hash(x) == hash(y) and not x != y
    assert x != z and not x == z and len({x, y, z}) == 2
    assert x != a and a != x and x != (a,)
    assert repr(x) == f"{cls.__name__}({field}={a!r})"
    assert copy.copy(x) == copy.deepcopy(x) == pickle.loads(pickle.dumps(x)) == x
    for attempt in (lambda: setattr(x, field, b), lambda: delattr(x, field),
                    lambda: setattr(x, "other", b)):
        with pytest.raises(AttributeError):
            attempt()
    assert getattr(x, field) == a and x == y


def test_frozen_types_state_one_rule(zoo_model):
    """WDRep, Partition and ModelInstance take their guard from Frozen, and
    the two value types their identity from FrozenValue: the messages name
    the class, no instance has a __dict__, and a WDRep is never equal to a
    Partition over the same tuple."""
    rep, part = WDRep((3, 1)), Partition((3, 1))
    for obj, field in ((rep, "terms"), (part, "parts"), (zoo_model, "S")):
        name = type(obj).__name__
        assert isinstance(obj, Frozen) and not hasattr(obj, "__dict__")
        assert not {"__setattr__", "__delattr__"} & set(vars(type(obj)))
        for verb, attr, attempt in (("set", field, lambda: setattr(obj, field, ())),
                                    ("delete", field, lambda: delattr(obj, field)),
                                    ("set", "other", lambda: setattr(obj, "other", ()))):
            with pytest.raises(AttributeError) as err:
                attempt()
            assert err.value.args == (f"{name} is immutable: cannot {verb} {attr!r}",)
    for cls in (WDRep, Partition):
        assert issubclass(cls, FrozenValue)
        assert not {"__eq__", "__hash__", "__repr__", "__reduce__"} & set(vars(cls))
    assert rep != part and part != rep and not rep == part
    assert hash(rep) == hash(part) == hash(((3, 1),)) and len({rep, part}) == 2


def test_checks_for_pair_labels(zoo_model):
    x = parse_rep("Sp_1(a)", zoo_model)
    y = parse_rep("Sp_1(b)", zoo_model)
    every = ["A", "AS", "B", "B_indec", "BS", "BS_irr", "C", "C_irr", "CS", "CS_irr"]
    # labels come out in the table's fixed order, whatever the selector order
    for theorems in (ALL_FAMILIES, ALL_FAMILIES[::-1]):
        assert [r.theorem for r in checks_for_pair(theorems, x, y, zoo_model)] == every
    assert [label for labels in SWEEP_FAMILIES.values() for label in labels] == every
    assert list(LABELS) == every and list(SWEEP_FAMILIES) == list(ALL_FAMILIES)
    x2 = parse_rep("Sp_2(a) + Sp_1(b)", zoo_model)
    assert [r.theorem for r in checks_for_pair(("C", "B"), x2, y, zoo_model)] == ["B", "C"]


def test_small_sweep_clean():
    gen = GenParams.from_strings("0,1/2,1,2", seed=0)
    results, summary = run_sweep(ALL_FAMILIES, 3, 10, gen, seed=0)
    assert summary.total_violations() == 0
    assert summary.models == 3
    assert summary.samples["B"] == 30
    # results are reproducible
    results2, _ = run_sweep(ALL_FAMILIES, 3, 10, gen, seed=0)
    assert [r.to_json_dict() for r in results] == [r.to_json_dict() for r in results2]


def test_sweep_output_is_pinned():
    # sha256 of the JSON report and the CSV summary of a fixed sweep,
    # recorded before the bound checks shared one evaluation per pair.
    gen = GenParams.from_strings("0,1/2,1,2")
    results, summary = run_sweep(ALL_FAMILIES, 4, 25, gen, seed=0)
    assert len(results) == 618
    assert hashlib.sha256(results_to_json(results).encode()).hexdigest() == (
        "466b989cedf3a41aa6ce85fd09d2ffbb9897fd6fba02ca5ab028aab861bae54a")
    assert hashlib.sha256(summary.csv().encode()).hexdigest() == (
        "061d9cac08dd40b74a71d200304195367062b9dbcbcbc3d13f1e4cce3c169197")


@pytest.mark.parametrize("theorems, rows, report, csv", [
    (("C",), 102, "d139d0929de72e7cd887102166664b8682ad7c91064310a03379e5ceebb506bd",
     "fa552388524b4e0fde83376f075b2bdfac8f42adef7aca4d974b8ffb7772015e"),
    (("CS", "B"), 214, "25277ee8562caf8801a76cd389944dbde41e25617a40eb43310383abc897288d",
     "5787bd464a5400099c1ae35a49937a7a9c1952d2811b6597dfc487b43b015323"),
])
def test_subset_sweep_output_is_pinned(theorems, rows, report, csv):
    # A sweep of some families reads only part of each pair's record; its
    # report and summary are those recorded while the record was lazy.
    results, summary = run_sweep(theorems, 4, 25, GenParams.from_strings("0,1/2,1,2"), seed=0)
    assert len(results) == rows
    assert hashlib.sha256(results_to_json(results).encode()).hexdigest() == report
    assert hashlib.sha256(summary.csv().encode()).hexdigest() == csv


def _dumps_report(results):
    return json.dumps([r.to_json_dict() for r in results], indent=1, sort_keys=True) + "\n"


def test_report_writer_matches_json_dumps():
    # results_to_json writes each row itself; its bytes must be those of
    # json.dumps on the rows' dicts.
    gen = GenParams.from_strings("0,1/2,1,2")
    for entry in range(6):
        results, _ = run_sweep(ALL_FAMILIES, 10, 50, gen, seed=entry * 10)
        assert results_to_json(results) == _dumps_report(results), entry
    suite = sharpness_suite()
    assert {type(v) for r in suite for v in r.inputs.values()} == {int, str}
    assert results_to_json(suite) == _dumps_report(suite)
    assert results_to_json([]) == _dumps_report([]) == "[]\n"


def test_report_writer_matches_json_dumps_on_odd_rows():
    odd = [
        CheckResult("A\u00e9", -3, 4, 2, 1, True, False, {
            "x": "Sp_1(\u00e9)", "quote": 'say "hi"', "back": "a\\b", "ctrl": "\t\x07\x00\ud800",
            "wide": "\U0001d53d", "empty": {}, "list": [1, "\u3000", {"z": [], "a": None}],
            "deep": {"k": {"j": 1.5, "i": [[]]}}, "": "x", "flag": True, "none": None}),
        CheckResult("\U0001d53d", 0, 1, 1, 3, 1, 0, {}, precondition_failed=None),
        CheckResult("C", 1, 1, 1, 1, True, True, ["not", "a", "dict"]),
        CheckResult("C", 1, 1, 1, 1, True, True, {2: "int keys", 1: False}),
        CheckResult("C", 1, 1, 1, 1, True, True, {"b": [{"c": {}}], "a": ""},
                    precondition_failed="?"),
    ]
    assert results_to_json(odd) == _dumps_report(odd)
    for r in odd:
        assert results_to_json([r]) == _dumps_report([r])
    mixed = [CheckResult("C", 1, 1, 1, 1, True, True, {"a": 1, 2: "b"})]
    for write in (_dumps_report, results_to_json):
        with pytest.raises(TypeError):
            write(mixed)


def test_report_writer_calls_json_dumps_only_off_the_fast_path(monkeypatch):
    # Every row a sweep makes takes the writer's fast path; of the sharpness
    # suite, only the max-plus row, with int d1 and d2, is written whole by
    # json.dumps, in one call.
    import wdexp.bounds as bounds

    results, _ = run_sweep(ALL_FAMILIES, 10, 50, GenParams.from_strings("0,1/2,1,2"), seed=0)
    suite = sharpness_suite()
    calls, dumps = [], json.dumps

    def counting_dumps(obj, *args, **kwargs):
        calls.append(obj)
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(bounds.json, "dumps", counting_dumps)
    results_to_json(results)
    assert len(results) > 1000 and calls == []
    results_to_json(suite)
    assert suite[-1].inputs["witness"] == "max-plus pair"
    assert calls == [suite[-1].to_json_dict()]


def test_report_writer_forms_match_json_dumps():
    # The writer keeps one form per key tuple of `inputs`: keys that hold a
    # `%` must not be read as format directives, a key tuple first seen with
    # string values must still write any other value as json.dumps does, and
    # one key set in two insertion orders writes its keys sorted either way.
    class Text(str):
        pass

    def row(inputs):
        return CheckResult("C", 1, 2, 3, 1, True, False, inputs)

    odd_values = (7, True, None, ["l", 1], Text("sub"), {"z": "%s"})
    rows = [row({"model": "d", "x": "Sp_1(u)", "y": "Sp_2(u)"})]
    rows += [row({"model": "d", "x": v, "y": "Sp_2(u)"}) for v in odd_values]
    rows += [row({"y": "b", "model": "d", "x": "a"}), row({"x": "a", "y": "b", "model": "d"})]
    rows += [row({"%s": "a", "100%": "b", "%%": "c"}), row({"%%": 1, "%s": "%d", "100%": "%s"})]
    rows += [row({"only": "%s"}), row({"only": False}), row({"x": "%s %%s %"})]
    for r in rows:
        assert results_to_json([r]) == _dumps_report([r]), r.inputs
    assert results_to_json(rows) == _dumps_report(rows)
    assert results_to_json(rows[::-1]) == _dumps_report(rows[::-1])


def test_sweep_evaluates_each_pair_once(monkeypatch):
    # Every label of a pair reads one evaluation: one digest, two printed
    # expressions and, per pair, one resolution of x and of y and the
    # kernel loop over the four two-sided products, the unit twists of x
    # and y and the other character twists of x, which with its unit twist
    # decide its minimality.  No twist of y, no dual WDRep and no public
    # tensor call.
    import wdexp.bounds as bounds
    import wdexp.exponents as exponents
    import wdexp.rep as rep
    from wdexp.model import ModelInstance

    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for module, name in ((exponents, "tensor_exponents"), (rep, "rep_dual"),
                         (bounds, "format_rep")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    monkeypatch.setattr(ModelInstance, "digest", counting("digest", ModelInstance.digest))
    pairs, kernel, resolve = [], exponents.expand_kernel, exponents.resolve_terms

    def hook(m, x, y):
        pairs.append((m, resolve(x, m), resolve(y, m), Counter()))

    def counting_resolve(x, m):
        pairs[-1][3]["resolutions"] += 1
        return resolve(x, m)

    for module in (bounds, exponents, rep):
        monkeypatch.setattr(module, "resolve_terms", counting_resolve)

    def counting_kernel(xs, ys, m):
        _, x, y, seen = pairs[-1]
        seen["all"] += 1
        twist = len(xs) == 1 and xs[0][:2] == (1, 1) and xs[0][2] in m.chars
        seen["y twists"] += twist and xs[0][2] != m.at("u") and ys == y != x and xs not in (x, y)
        return kernel(xs, ys, m)

    for module in (bounds, exponents):
        monkeypatch.setattr(module, "expand_kernel", counting_kernel)
    models, n = 4, 100
    run_sweep(ALL_FAMILIES, models, n // models, GenParams.from_strings("0,1/2,1,2"), seed=0,
              sample_hook=hook)
    assert len(pairs) == n and len({id(m) for m, *_ in pairs}) == models
    for m, _, _, seen in pairs:
        assert seen["all"] <= 4 + 2 + len(m.characters) - 1
        assert seen["y twists"] == 0
        assert seen["resolutions"] <= 2
    assert calls["tensor_exponents"] == calls["rep_dual"] == 0
    assert calls["format_rep"] <= 2 * n
    assert calls["digest"] <= n


def test_sweep_rejects_unknown_selector():
    gen = GenParams.from_strings("1", seed=0)
    with pytest.raises(ValueError, match="unknown theorem selector"):
        run_sweep(("Z",), 1, 1, gen, seed=0)
    m = gen_model(gen)
    x = gen_rep(m, 3, 4, 1)
    for theorems in (("Z",), ("C", "Z")):
        with pytest.raises(ValueError, match="unknown theorem selector 'Z'"):
            checks_for_pair(theorems, x, x, m)
    # a sweep that would check nothing is rejected before generating a model
    for args in (((), 1, 1), (("C",), 0, 1), (("C",), 1, 0)):
        with pytest.raises(ValueError):
            run_sweep(*args, gen, seed=0)
    for max_terms, max_r in ((0, 4), (3, 0)):
        with pytest.raises(ValueError):
            run_sweep(("C",), 1, 1, gen, seed=0, max_terms=max_terms, max_r=max_r)


def test_summary_csv_shape():
    gen = GenParams.from_strings("0,1,2", seed=3)
    _, summary = run_sweep(("C",), 2, 5, gen, seed=3)
    lines = summary.csv().strip().splitlines()
    assert lines[0] == "theorem,samples,violations,equalities"
    assert any(line.startswith("C,") for line in lines[1:])


def test_sp_level_triple_ultrametric_generated():
    m = gen_model(GenParams.from_strings("0,1/2,1,2", seed=5))
    ids = sorted(m.classes)

    def eta_pair(r, i, s, j):
        ar, _, dim = indec_tensor_kernel(r, i, s, m.classes[j].dual, m)
        return Fraction(ar, dim)

    rng = SplitMix64(31)
    for _ in range(600):
        i, j, k = (ids[rng.below(len(ids))] for _ in range(3))
        r, s, t = (1 + rng.below(4) for _ in range(3))
        lhs = eta_pair(r, i, s, j)
        rhs = max(eta_pair(r, i, t, k), eta_pair(t, k, s, j))
        assert lhs <= rhs, (i, j, k, r, s, t)


# Reference decisions: the Fraction formulas the checks used before they
# compared ints, reading the exponents straight from wdexp.exponents rather
# than through a PairExponents record.

SIGMA_LABELS = ("AS", "BS", "BS_irr", "CS", "CS_irr")


def _exponent(e, mode) -> int:
    return e.ar if mode == "eta" else e.sw


def _normalized(e, mode) -> Fraction:
    if e.dim == 0:
        raise ValueError("normalized exponent undefined for the zero representation")
    return Fraction(_exponent(e, mode), e.dim)


def reference_check(label, x, y, m):
    """(theorem, lhs, rhs, holds, equality, precondition_failed) of `label`
    on (x, y) in m, decided on Fractions."""
    mode = "sigma" if label in SIGMA_LABELS else "eta"
    ex, ey, xy = exponents_of(x, m), exponents_of(y, m), tensor_exponents(x, y, m)
    precondition_failed = False
    if label in ("A", "AS"):
        lhs = _normalized(xy, mode)
        rhs = max(_normalized(ex, mode), _normalized(ey, mode)) / 2
        precondition_failed = not is_minimal_rep(x, mode, m)
    elif label[0] == "B":
        dx = _normalized(tensor_exponents(x, rep_dual(x, m), m), mode)
        dy = _normalized(tensor_exponents(y, rep_dual(y, m), m), mode)
        lhs = _normalized(tensor_exponents(x, rep_dual(y, m), m), mode)
        rhs = (dx + dy) / 2 if label in ("B", "BS") else max(dx, dy)
    elif label in ("C", "CS"):
        a, b = _exponent(ex, mode), _exponent(ey, mode)
        lhs, rhs = Fraction(_exponent(xy, mode)), Fraction(ey.dim * a + ex.dim * b - min(a, b))
    else:
        lhs = _normalized(xy, mode)
        rhs = max(_normalized(ex, mode), _normalized(ey, mode))
    holds = lhs <= rhs if label[0] == "C" else lhs >= rhs
    return label, lhs, rhs, holds, lhs == rhs, precondition_failed


def _reference_rows(x, y, m):
    return [reference_check(label, x, y, m) for label, (_, _, _, shape) in LABELS.items()
            if shape is None or (getattr(x, shape) and getattr(y, shape))]


def _differential_cases(census_model):
    """(model, x, y) from a generated sweep, from the perturbations of the
    validation bases (drawn pairs and pairs of irreducibles), and every
    pair of two-term, length-2 representations of the census model."""
    cases = []
    run_sweep(ALL_FAMILIES, 3, 20, GenParams.from_strings("0,1/2,1,2"), seed=7,
              sample_hook=lambda m, x, y: cases.append((m, x, y)))
    for n, base in enumerate(validation_bases()):
        for k, m in enumerate([base] + perturbations(base, random.Random(n))):
            rng = SplitMix64(1000 * n + k)
            irr = reps(m, 1, 1)
            for _ in range(10):
                cases.append((m, gen_rep(m, 2, 2, rng.next64()), gen_rep(m, 2, 2, rng.next64())))
                cases.append((m, irr[rng.below(len(irr))], irr[rng.below(len(irr))]))
    xs = reps(census_model, 2, 2)
    cases += [(census_model, x, y) for x in xs for y in xs]
    return cases


def test_integer_decisions_match_the_fraction_reference(census_counterexample):
    # Every label, on models the checks accept, gives the rows the Fraction
    # formulas give, and the cases make every label fail somewhere, so the
    # failing side of each comparison is compared too.
    fails, holds, equalities, refused = Counter(), Counter(), Counter(), Counter()
    for m, x, y in _differential_cases(census_counterexample):
        if min(m.dim) < 1:
            with pytest.raises(ValueError, match="positive dimension"):
                checks_for_pair(ALL_FAMILIES, x, y, m)
            refused["dim"] += 1
            continue
        try:
            want = _reference_rows(x, y, m)
        except ValueError:
            with pytest.raises(ValueError, match="is not an integer"):
                checks_for_pair(ALL_FAMILIES, x, y, m)
            refused["sw"] += 1
            continue
        got = checks_for_pair(ALL_FAMILIES, x, y, m)
        assert [(r.theorem, r.lhs, r.rhs, r.holds, r.equality, r.precondition_failed)
                for r in got] == want, (m.digest(), format_rep(x), format_rep(y))
        assert all(type(v) is Fraction for r in got for v in (r.lhs, r.rhs))
        for label, _, _, ok, equal, _ in want:
            (holds if ok else fails)[label] += 1
            equalities[label] += equal
    every = list(LABELS)
    assert sorted(fails) == sorted(holds) == sorted(every)
    assert all(equalities[label] and equalities[label] < holds[label] for label in every)
    assert refused["dim"] and refused["sw"]


def _outcome(fn):
    """repr of fn()'s value as a tuple, or its exception's type and message."""
    try:
        return repr(tuple(fn()))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def test_kernel_evaluations_are_pinned(census_counterexample):
    # sha256 of the pair's tensors, x's exponents and x's minimality over
    # the differential cases, one line a case, recorded before the kernel
    # read resolved terms; and every PairExponents field against the
    # public functions.  A field may raise an error of another field of
    # its pair, as one representation's exponents and x ox dual(x) are
    # evaluated together.
    lines, fields = [], Counter()
    for m, x, y in _differential_cases(census_counterexample):
        public = {
            "x_y": lambda: tensor_exponents(x, y, m),
            "x_ydual": lambda: tensor_exponents(x, rep_dual(y, m), m),
            "ex": lambda: exponents_of(x, m),
            "x_minimal": lambda: rep_minimality(resolve_terms(x, m), m, exponents_of(x, m)),
            "ey": lambda: exponents_of(y, m),
            "x_xdual": lambda: tensor_exponents(x, rep_dual(x, m), m),
            "y_ydual": lambda: tensor_exponents(y, rep_dual(y, m), m),
        }
        want = {name: _outcome(fn) for name, fn in public.items()}
        lines.append(" | ".join(list(want.values())[:4]) + "\n")
        if min(m.dim) < 1:
            continue
        errors = {v for v in want.values() if not v.startswith("(")}
        for name in public:
            got = _outcome(lambda: getattr(PairExponents(x, y, m), name))
            assert got == want[name] or got in errors, (name, format_rep(x), format_rep(y))
            fields[got == want[name]] += 1
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == (
        "51d5acf95c3c82cb10f33f66dda2329ec0e4941cd63d77251cbcea5c40f4fc73")
    assert fields[True] > 30000, fields


def test_record_duals_are_the_resolved_rep_dual(census_counterexample):
    # A record's dual terms are those of rep_dual, a normalized WDRep, in
    # the same order, and its shape flags are the WDRep's, on every
    # representation of the differential cases whose record can be built.
    terms = Counter()
    for m, x, y in _differential_cases(census_counterexample):
        for z in (x, y):
            try:
                record = rep_exponents(z, m)
            except ValueError:
                continue
            assert record.dual == resolve_terms(rep_dual(z, m), m), format_rep(z)
            assert (record.is_indecomposable, record.is_irreducible) == (
                z.is_indecomposable, z.is_irreducible), format_rep(z)
            terms[min(len(z.terms), 2)] += 1
    assert terms[1] > 1000 and terms[2] > 2500, terms


def test_census_counterexample_fails_AS_with_its_precondition_met(census_counterexample):
    m = census_counterexample
    assert validate_model(m).ok
    sigma, eta = class_minimality(m)
    assert [(i, m.classes[i].minimal_sigma, m.classes[i].minimal_eta) for i in m.ids] == list(
        zip(m.ids, sigma, eta))
    x = parse_rep("Sp_1(c1) + Sp_1(u)", m)
    y = parse_rep("Sp_1(c1)", m)
    rows = {r.theorem: r for r in checks_for_pair(ALL_FAMILIES, x, y, m)}
    r = rows.pop("AS")
    assert (r.lhs, r.rhs, r.holds, r.equality, r.precondition_failed) == (
        Fraction(1, 3), Fraction(1, 2), False, False, False)
    assert all(r.holds for r in rows.values())


def test_rows_and_reports_build_no_fraction(monkeypatch):
    # A row carries its sides as reduced int pairs; lhs and rhs are built
    # from them when read, and only then.
    import wdexp.bounds as bounds

    made = Counter()

    class Counted(Fraction):
        def __new__(cls, *args, **kwargs):
            made[len(args)] += 1
            return Fraction(*args, **kwargs)

    gen = GenParams.from_strings("0,1/2,1,2")
    samples = []
    run_sweep(ALL_FAMILIES, 3, 20, gen, seed=5,
              sample_hook=lambda m, x, y: samples.append((m, x, y)))
    monkeypatch.setattr(bounds, "Fraction", Counted)
    rows = [r for m, x, y in samples for r in checks_for_pair(ALL_FAMILIES, x, y, m)]
    text = results_to_json(rows)
    assert not made
    assert text == _dumps_report(rows)
    assert all((r.ln, r.ld) == r.lhs.as_integer_ratio() and (r.rn, r.rd) == r.rhs.as_integer_ratio()
               for r in rows)
    assert made[2] == 2 * len(rows)
