import hashlib
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import pytest

from wdexp.bounds import (
    SWEEP_FAMILIES,
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
from wdexp.exponents import indec_tensor_kernel
from wdexp.generator import GenParams, SplitMix64, gen_model, gen_rep
from wdexp.model import IrreducibleClass, ModelStructureError
from wdexp.rep import WDRep, parse_rep

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
        from wdexp.exponents import exponents_of

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
])
def test_bounds_reject_unknown_mode(zoo_model, check, variant):
    x = parse_rep("Sp_1(a)", zoo_model)
    with pytest.raises(ValueError, match="mode must be one of"):
        check(PairExponents(x, x, zoo_model), "bogus", *variant)


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
    assert r.lhs == max(zoo_model.cls("a").slope, zoo_model.cls("b").slope)


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
        diag = m.pair(cid, cid)
        assert diag == (1 - Fraction(1, ell)) * m.cls(cid).slope
        assert diag > m.cls(cid).slope / 2


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
        ar, _, dim = indec_tensor_kernel(r, i, s, m.cls(j).dual, m)
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
    from wdexp.exponents import exponents_of, is_minimal_rep, tensor_exponents

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
            c = zoo_model.cls(chi)
            eta_chi = Fraction(0) if chi == "u" else c.slope + 1
            assert lhs == max(ex, eta_chi), (x, chi)
    assert tested >= 20


def test_swan_bridge(zoo_model):
    rng = SplitMix64(22)
    for _ in range(200):
        x = gen_rep(zoo_model, 3, 4, rng.next64())
        y = gen_rep(zoo_model, 3, 4, rng.next64())
        assert swan_bridge_gap(x, y, zoo_model) >= 0


def test_checks_for_pair_labels(zoo_model):
    x = parse_rep("Sp_1(a)", zoo_model)
    y = parse_rep("Sp_1(b)", zoo_model)
    every = ["A", "AS", "B", "B_indec", "BS", "BS_irr", "C", "C_irr", "CS", "CS_irr"]
    # labels come out in the table's fixed order, whatever the selector order
    for theorems in (ALL_FAMILIES, ALL_FAMILIES[::-1]):
        assert [r.theorem for r in checks_for_pair(theorems, x, y, zoo_model)] == every
    assert [label for labels in SWEEP_FAMILIES.values() for label, _, _ in labels] == every
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


def test_sweep_evaluates_each_pair_once(monkeypatch):
    # Every label of a pair reads one evaluation: four distinct tensors,
    # the exponents and minimality of x and y, one digest and two printed
    # expressions.  Both minimality modes read one list of the twists of x,
    # whose twist by the unramified orbit is the exponents of x.
    import wdexp.bounds as bounds
    import wdexp.exponents as exponents
    from wdexp.model import ModelInstance

    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in ("tensor_exponents", "exponents_of", "character_twists", "rep_dual", "format_rep"):
        monkeypatch.setattr(bounds, name, counting(name, getattr(bounds, name)))
    monkeypatch.setattr(ModelInstance, "digest", counting("digest", ModelInstance.digest))
    twists, twist = Counter(), exponents._twist

    def counting_twist(chi, x, m):
        twists[m] += 1
        return twist(chi, x, m)

    monkeypatch.setattr(exponents, "_twist", counting_twist)
    models, pairs = 4, 25
    run_sweep(ALL_FAMILIES, models, pairs, GenParams.from_strings("0,1/2,1,2"), seed=0)
    n = models * pairs
    assert len(twists) == models
    for m, count in twists.items():
        assert count <= pairs * (len(m.characters) + 1)
    assert calls["tensor_exponents"] <= 4 * n
    assert calls["exponents_of"] <= 2 * n
    assert calls["character_twists"] <= n
    assert calls["rep_dual"] <= 2 * n
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
        ar, _, dim = indec_tensor_kernel(r, i, s, m.cls(j).dual, m)
        return Fraction(ar, dim)

    rng = SplitMix64(31)
    for _ in range(600):
        i, j, k = (ids[rng.below(len(ids))] for _ in range(3))
        r, s, t = (1 + rng.below(4) for _ in range(3))
        lhs = eta_pair(r, i, s, j)
        rhs = max(eta_pair(r, i, t, k), eta_pair(t, k, s, j))
        assert lhs <= rhs, (i, j, k, r, s, t)
