import random
from fractions import Fraction

import pytest

from conftest import dualized, is_eta_homogeneous, pairing, perturbations, validation_bases
from wdexp.exponents import (
    exponents_of,
    indec_tensor_kernel,
    is_minimal_rep,
    rep_minimality,
    swan_profile,
    tensor_exponents,
)
from wdexp.generator import GenParams, SplitMix64, gen_model, gen_rep
from wdexp.model import MODES, UNRAMIFIED_ID, ModelInstance, ModelStructureError, is_minimal_class
from wdexp.rep import WDRep, format_rep, parse_rep, rep_dual, resolve_terms


def twist(chi, x, m):
    """Exponents of (character chi) tensor x."""
    return tensor_exponents(parse_rep(f"Sp_1({chi})", m), x, m)


def test_unramified_special_values(unit_model):
    r = exponents_of(parse_rep("Sp_3(u)", unit_model), unit_model)
    assert (r.ar, r.sw) == (2, 0)
    assert r.eta == Fraction(2, 3)


def test_ramified_sp_scaling(zoo_model):
    # dim 2, slope 1/2: Sp_2 doubles the irreducible Artin exponent 3
    r = exponents_of(parse_rep("Sp_2(a)", zoo_model), zoo_model)
    assert (r.sw, r.ar) == (2, 6)
    assert r.eta == Fraction(3, 2)


def test_zero_rep_exponents(unit_model):
    r = exponents_of(WDRep.zero(), unit_model)
    assert (r.dim, r.ar, r.sw) == (0, 0, 0)
    assert r.eta is None and r.varsigma is None


def test_additivity(zoo_model):
    x = parse_rep("Sp_2(a) + Sp_1(b)", zoo_model)
    y = parse_rep("Sp_3(c3)", zoo_model)
    rx, ry = exponents_of(x, zoo_model), exponents_of(y, zoo_model)
    rxy = exponents_of(x + y, zoo_model)
    assert rxy.ar == rx.ar + ry.ar
    assert rxy.sw == rx.sw + ry.sw


def test_kernel_unramified_pair(unit_model):
    assert indec_tensor_kernel(2, "u", 3, "u", unit_model) == (4, 0, 6)
    assert indec_tensor_kernel(1, "u", 1, "u", unit_model) == (0, 0, 1)


def test_kernel_self_dual_degenerate(zoo_model):
    # dim 2, deg 2, self-pairing 1/4: sw 1, ar 3
    ar, sw, dim = indec_tensor_kernel(1, "a", 1, "a", zoo_model)
    assert (ar, sw, dim) == (3, 1, 4)
    assert Fraction(ar, dim) == Fraction(3, 4)


def test_kernel_rejects_bad_lengths(unit_model):
    with pytest.raises(ValueError):
        indec_tensor_kernel(0, "u", 1, "u", unit_model)


def test_tensor_matches_kernel_examples(zoo_model, unit_model):
    t = tensor_exponents(parse_rep("Sp_2(u)", unit_model), parse_rep("Sp_3(u)", unit_model), unit_model)
    assert t.ar == 4 and t.eta == Fraction(2, 3)
    t = tensor_exponents(parse_rep("Sp_1(a)", zoo_model), parse_rep("Sp_1(a)", zoo_model), zoo_model)
    assert t.ar == 3
    t = tensor_exponents(parse_rep("Sp_2(a)", zoo_model), WDRep.zero(), zoo_model)
    assert (t.dim, t.ar, t.sw) == (0, 0, 0)


def test_tensor_bilinear_and_symmetric(zoo_model):
    rng = SplitMix64(11)
    for _ in range(25):
        x = gen_rep(zoo_model, 3, 4, rng.next64())
        y = gen_rep(zoo_model, 3, 4, rng.next64())
        z = gen_rep(zoo_model, 2, 3, rng.next64())
        txy = tensor_exponents(x, y, zoo_model)
        tyx = tensor_exponents(y, x, zoo_model)
        assert (txy.ar, txy.sw, txy.dim) == (tyx.ar, tyx.sw, tyx.dim)
        t_sum = tensor_exponents(x, y + z, zoo_model)
        t_split = tensor_exponents(x, y, zoo_model), tensor_exponents(x, z, zoo_model)
        assert t_sum.ar == t_split[0].ar + t_split[1].ar
        assert t_sum.sw == t_split[0].sw + t_split[1].sw


def test_tensor_duality_invariance(zoo_model):
    rng = SplitMix64(12)
    for _ in range(25):
        x = gen_rep(zoo_model, 3, 4, rng.next64())
        y = gen_rep(zoo_model, 3, 4, rng.next64())
        t = tensor_exponents(x, y, zoo_model)
        td = tensor_exponents(rep_dual(x, zoo_model), rep_dual(y, zoo_model), zoo_model)
        assert (t.ar, t.sw) == (td.ar, td.sw)


@pytest.mark.parametrize("seed", range(10))
def test_tensor_laws_on_generated_models(seed):
    # the laws above on generated models, whose fractional slopes make the
    # integer tables scale by L > 1
    m = gen_model(GenParams.from_strings("0,1/2,1,2", seed=seed))
    assert m.L > 1
    rng = SplitMix64(100 + seed)
    for _ in range(20):
        x, y, z = (gen_rep(m, 3, 4, rng.next64()) for _ in range(3))
        for _, r, i in x.terms:
            for _, s, j in y.terms:
                assert (indec_tensor_kernel(r, i, s, j, m)
                        == indec_tensor_kernel(s, j, r, i, m))
        txy, txz = tensor_exponents(x, y, m), tensor_exponents(x, z, m)
        assert tensor_exponents(y, x, m) == txy
        t_sum = tensor_exponents(x, y + z, m)
        assert (t_sum.dim, t_sum.ar, t_sum.sw) == (txy.dim + txz.dim, txy.ar + txz.ar,
                                                   txy.sw + txz.sw)
        assert tensor_exponents(rep_dual(x, m), rep_dual(y, m), m) == txy


@pytest.mark.parametrize("seed", range(10))
def test_rep_laws_on_generated_models(seed):
    # printing round-trips, and dualizing every class of the model leaves
    # the exponents of x alone and turns x (x) y into x* (x) y*
    m = gen_model(GenParams.from_strings("0,1/2,1,2", seed=seed))
    md = dualized(m)
    rng = SplitMix64(200 + seed)
    for _ in range(20):
        x, y = (gen_rep(m, 3, 4, rng.next64()) for _ in range(2))
        for z in (x, x + y + x):
            assert parse_rep(format_rep(z), m) == z
        assert exponents_of(x, md) == exponents_of(x, m)
        assert tensor_exponents(x, y, md) == tensor_exponents(rep_dual(x, m), rep_dual(y, m), m)


def test_twisted_artin_by_unit_is_artin(zoo_model):
    rng = SplitMix64(13)
    for _ in range(20):
        x = gen_rep(zoo_model, 3, 4, rng.next64())
        assert twist("u", x, zoo_model).ar == exponents_of(x, zoo_model).ar


def test_twisted_artin_dominant_character(zoo_model):
    # slope-2 character against the slope-1/2 class: max rule binds
    x = parse_rep("Sp_1(a)", zoo_model)
    assert twist("g", x, zoo_model).ar == 2 * (2 + 1)


def test_twisted_artin_inverse_orbit(zoo_model):
    # twisting the slope-2 character by its dual lands in the unramified orbit
    x = parse_rep("Sp_1(g)", zoo_model)
    assert twist("gd", x, zoo_model).ar == 0
    assert twist("gd", parse_rep("Sp_3(g)", zoo_model), zoo_model).ar == 2


def test_minimality_of_reps(zoo_model):
    assert is_minimal_rep(parse_rep("Sp_2(u) + Sp_3(u)", zoo_model), "eta", zoo_model)
    assert not is_minimal_rep(parse_rep("Sp_1(t)", zoo_model), "eta", zoo_model)
    assert is_minimal_rep(parse_rep("Sp_1(t)", zoo_model), "sigma", zoo_model)
    # sum of eta-minimal-flagged classes at one slope level
    assert is_minimal_rep(parse_rep("Sp_1(a) + 2*Sp_3(a)", zoo_model), "eta", zoo_model)
    with pytest.raises(ValueError):
        is_minimal_rep(WDRep.zero(), "eta", zoo_model)
    with pytest.raises(ValueError, match="mode must be one of"):
        is_minimal_rep(parse_rep("Sp_1(a)", zoo_model), "bogus", zoo_model)


def reference_minimality(x, m):
    """(sigma, eta) of x from the twist by every id in m.characters, `u`
    included, each computed as tensor_exponents(Sp_1(chi), x) and compared
    with the twist by `u`."""
    def twist_by(chi):
        return tensor_exponents(WDRep(((1, 1, chi),)), x, m)

    own = twist_by(UNRAMIFIED_ID)
    twists = [twist_by(chi) for chi in m.characters]
    return all(t.sw >= own.sw for t in twists), all(t.ar >= own.ar for t in twists)


def _outcome(f):
    """f()'s value, or the type of the ValueError it raises."""
    try:
        return f()
    except ValueError as exc:
        return type(exc)


def test_rep_minimality_matches_reference(zoo_model, census_counterexample):
    # drawn representations over valid, generated, perturbed and unit-less
    # models: both modes agree with the reference, and where it raises the
    # code raises the same exception type
    census = census_counterexample
    no_unit = ModelInstance([census.classes[i] for i in ("c0", "c1")],
                            {k: v for k, v in pairing(census).items() if UNRAMIFIED_ID not in k},
                            ["c0"])
    bases = [zoo_model, census] + [
        gen_model(GenParams.from_strings("0,1/2,1,2", classes_per_level=cpl, seed=seed))
        for cpl in (2, 5) for seed in (0, 1)]
    models = bases + [p for n, b in enumerate(bases) for p in perturbations(b, random.Random(n))]
    rng = SplitMix64(17)
    seen = set()
    for m in models + [no_unit]:
        for _ in range(12):
            x = gen_rep(m, 3, 4, rng.next64())
            expected = _outcome(lambda: reference_minimality(x, m))
            got = _outcome(lambda: rep_minimality(resolve_terms(x, m), m, exponents_of(x, m)))
            assert got == expected
            for k, mode in enumerate(MODES):
                want = expected if isinstance(expected, type) else expected[k]
                assert _outcome(lambda: is_minimal_rep(x, mode, m)) == want, (format_rep(x), mode)
            seen.add(expected)
    assert seen == {(True, True), (True, False), (False, True), (False, False), ValueError,
                    ModelStructureError}


def test_minimal_rep_agrees_with_validator_on_classes():
    # the flags the validator checks against `is_minimal_rep` of Sp_1(i), on
    # valid and perturbed models alike, wherever the latter is defined
    cases = 0
    for n, base in enumerate(validation_bases()):
        for m in [base] + perturbations(base, random.Random(n)):
            for i in m.ids:
                x = parse_rep(f"Sp_1({i})", m)
                for mode in MODES:
                    try:
                        expected = is_minimal_rep(x, mode, m)
                    except ValueError:
                        continue
                    assert is_minimal_class(i, mode, m) == expected, (n, i, mode)
                    cases += 1
    assert cases == 4820


def test_exponents_of_single_term_closed_form(zoo_model, generated_model):
    # ar(Sp_r(u)) = r-1; ar(Sp_r(i)) = r*dim*(slope+1) otherwise; sw = r*dim*slope
    for m in (zoo_model, generated_model):
        for i, c in m.classes.items():
            for r in range(1, 7):
                e = exponents_of(parse_rep(f"Sp_{r}({i})", m), m)
                ar = r - 1 if i == UNRAMIFIED_ID else r * c.dim * (c.slope + 1)
                assert (e.dim, e.ar, e.sw) == (r * c.dim, ar, r * c.dim * c.slope), (i, r)


def test_length_one_kernel_identity(zoo_model):
    # the Sp-length correction: eta(Sp_r(i) x Sp_s(dual j)) - eta(i x dual j)
    # equals deg * (1 - 1/max(r,s)) / (dim_i * dim_j) when j is an
    # unramified twist of i, and 0 otherwise.
    ids = sorted(zoo_model.classes)
    for i in ids:
        for j in ids:
            jd = zoo_model.classes[j].dual
            m_ij = zoo_model.classes[i].dim * zoo_model.classes[j].dim
            for r in range(1, 5):
                for s in range(1, r + 1):
                    ar, _, dim = indec_tensor_kernel(r, i, s, jd, zoo_model)
                    ar1, _, dim1 = indec_tensor_kernel(1, i, 1, jd, zoo_model)
                    gap = Fraction(ar, dim) - Fraction(ar1, dim1)
                    d = zoo_model.classes[i].deg if i == j else 0
                    assert gap == d * (1 - Fraction(1, r)) / m_ij, (i, j, r, s)


def test_unramified_factor_does_not_move_eta(zoo_model):
    # purely unramified x against y with no unramified term
    x = parse_rep("Sp_2(u) + 2*Sp_3(u)", zoo_model)
    for ytext in ("Sp_1(a)", "Sp_2(b) + Sp_1(c3)", "Sp_1(g) + Sp_4(t)"):
        y = parse_rep(ytext, zoo_model)
        t = tensor_exponents(x, y, zoo_model)
        assert t.eta == exponents_of(y, zoo_model).eta


def test_indecomposable_upper_bound(zoo_model):
    # eta of a tensor of indecomposables never exceeds the larger factor eta
    ids = sorted(zoo_model.classes)
    for i in ids:
        for j in ids:
            for r in range(1, 4):
                for s in range(1, 4):
                    ar, _, dim = indec_tensor_kernel(r, i, s, j, zoo_model)
                    ei = exponents_of(parse_rep(f"Sp_{r}({i})", zoo_model), zoo_model).eta
                    ej = exponents_of(parse_rep(f"Sp_{s}({j})", zoo_model), zoo_model).eta
                    assert Fraction(ar, dim) <= max(ei, ej)


def test_eta_homogeneous(zoo_model):
    assert is_eta_homogeneous(parse_rep("Sp_2(u) + Sp_5(u)", zoo_model), zoo_model)
    assert is_eta_homogeneous(parse_rep("Sp_1(g) + Sp_2(gd) + Sp_1(c3)", zoo_model), zoo_model)
    assert not is_eta_homogeneous(parse_rep("Sp_1(u) + Sp_1(t)", zoo_model), zoo_model)
    assert not is_eta_homogeneous(parse_rep("Sp_1(a) + Sp_1(b)", zoo_model), zoo_model)


def test_swan_profile(zoo_model):
    x = parse_rep("2*Sp_3(a) + Sp_1(g)", zoo_model)
    prof = swan_profile(resolve_terms(x, zoo_model), zoo_model)
    # (L*slope, dim) in ints: slopes 1/2 and 2 at the zoo model's L = 12
    assert zoo_model.L == 12
    assert sorted(prof) == [(6, 12), (24, 1)]
    assert all(type(ls) is int and type(d) is int for ls, d in prof)
