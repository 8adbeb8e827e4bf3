from fractions import Fraction

import pytest

from conftest import is_eta_homogeneous
from wdexp.exponents import (
    exponents_of,
    indec_tensor_kernel,
    is_minimal_rep,
    swan_profile,
    tensor_exponents,
)
from wdexp.generator import GenParams, SplitMix64, gen_model, gen_rep
from wdexp.model import MODES, UNRAMIFIED_ID, is_minimal_class
from wdexp.rep import WDRep, parse_rep


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
    from wdexp.rep import rep_dual

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
    from wdexp.rep import rep_dual

    m = gen_model(GenParams.from_strings("0,1/2,1,2", seed=seed))
    assert m.L > 1
    rng = SplitMix64(100 + seed)
    for _ in range(20):
        x, y, z = (gen_rep(m, 3, 4, rng.next64()) for _ in range(3))
        for _, ix in x.terms:
            for _, iy in y.terms:
                assert (indec_tensor_kernel(ix.r, ix.cls, iy.r, iy.cls, m)
                        == indec_tensor_kernel(iy.r, iy.cls, ix.r, ix.cls, m))
        txy, txz = tensor_exponents(x, y, m), tensor_exponents(x, z, m)
        assert tensor_exponents(y, x, m) == txy
        t_sum = tensor_exponents(x, y + z, m)
        assert (t_sum.dim, t_sum.ar, t_sum.sw) == (txy.dim + txz.dim, txy.ar + txz.ar,
                                                   txy.sw + txz.sw)
        assert tensor_exponents(rep_dual(x, m), rep_dual(y, m), m) == txy


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


def test_minimal_rep_agrees_with_validator_on_classes(zoo_model):
    # the kernel path against the validator's own definition, per class
    models = [zoo_model] + [gen_model(GenParams.from_strings("0,1/2,1,2", seed=s))
                            for s in range(10)]
    cases = 0
    for m in models:
        for i in sorted(m.classes):
            x = parse_rep(f"Sp_1({i})", m)
            for mode in MODES:
                assert is_minimal_rep(x, mode, m) == is_minimal_class(i, mode, m), (i, mode)
                cases += 1
    assert cases > 200


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
            jd = zoo_model.cls(j).dual
            m_ij = zoo_model.cls(i).dim * zoo_model.cls(j).dim
            for r in range(1, 5):
                for s in range(1, r + 1):
                    ar, _, dim = indec_tensor_kernel(r, i, s, jd, zoo_model)
                    ar1, _, dim1 = indec_tensor_kernel(1, i, 1, jd, zoo_model)
                    gap = Fraction(ar, dim) - Fraction(ar1, dim1)
                    d = zoo_model.cls(i).deg if i == j else 0
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
    prof = swan_profile(x, zoo_model)
    assert sorted(prof) == [(1, Fraction(2)), (12, Fraction(1, 2))]
