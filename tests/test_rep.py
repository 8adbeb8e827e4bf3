import pytest

from wdexp.exponents import exponents_of
from wdexp.rep import (
    Indecomposable,
    RepSyntaxError,
    WDRep,
    format_rep,
    parse_rep,
    rep_dim,
    rep_dual,
)


def test_parse_single_term(unit_model):
    x = parse_rep("Sp_3(u)", unit_model)
    assert x.terms == ((1, Indecomposable(3, "u")),)


def test_parse_merges_equal_terms(zoo_model):
    x = parse_rep("2*Sp_2(a) + Sp_2(a)", zoo_model)
    assert x.terms == ((3, Indecomposable(2, "a")),)


def test_parse_zero(unit_model):
    assert parse_rep("0", unit_model).is_zero
    assert parse_rep(" 0 ", unit_model).is_zero


def test_whitespace_insensitive(zoo_model):
    a = parse_rep("Sp_2(a)+3*Sp_1(b)", zoo_model)
    b = parse_rep("  Sp_2( a ) +  3 * Sp_1( b )  ", zoo_model)
    assert a == b


def test_canonical_order(zoo_model):
    x = parse_rep("Sp_2(b) + Sp_1(a) + Sp_3(a)", zoo_model)
    assert format_rep(x) == "Sp_1(a) + Sp_3(a) + Sp_2(b)"
    assert [(ind.cls, ind.r) for _, ind in x.terms] == [("a", 1), ("a", 3), ("b", 2)]


def test_printer_parser_round_trip(zoo_model):
    for text in ("0", "Sp_1(u)", "2*Sp_2(a) + Sp_1(t)", "Sp_1(g) + Sp_1(gd) + 4*Sp_3(c3)"):
        x = parse_rep(text, zoo_model)
        assert parse_rep(format_rep(x), zoo_model) == x


def test_syntax_errors_carry_position(unit_model):
    with pytest.raises(RepSyntaxError) as exc:
        parse_rep("Sp_2(u) + ", unit_model)
    assert exc.value.position == 10
    with pytest.raises(RepSyntaxError):
        parse_rep("Sp_x(u)", unit_model)
    with pytest.raises(RepSyntaxError):
        parse_rep("", unit_model)
    with pytest.raises(RepSyntaxError):
        parse_rep("Sp_2(u) ! Sp_3(u)", unit_model)
    with pytest.raises(RepSyntaxError):
        parse_rep("0*Sp_2(u)", unit_model)
    # multiplicities are ASCII digits, as slopes are (the name token already
    # keeps Sp-lengths ASCII)
    for text in ("\u0662*Sp_1(u)", "\uff12*Sp_1(u)"):
        with pytest.raises(RepSyntaxError):
            parse_rep(text, unit_model)


def test_unknown_class_and_bad_length(unit_model):
    with pytest.raises(RepSyntaxError):
        parse_rep("Sp_2(nope)", unit_model)
    with pytest.raises(RepSyntaxError):
        parse_rep("Sp_0(u)", unit_model)


def test_dual_unramified_fixed(unit_model):
    x = parse_rep("Sp_3(u)", unit_model)
    assert rep_dual(x, unit_model) == x


def test_dual_swaps_pair(zoo_model):
    x = parse_rep("Sp_2(g)", zoo_model)
    assert format_rep(rep_dual(x, zoo_model)) == "Sp_2(gd)"


def test_dual_is_involution(zoo_model):
    for text in ("Sp_2(g) + Sp_1(a)", "3*Sp_4(c3) + Sp_1(gd) + Sp_2(u)"):
        x = parse_rep(text, zoo_model)
        assert rep_dual(rep_dual(x, zoo_model), zoo_model) == x


def test_dual_preserves_exponents(zoo_model):
    for text in ("Sp_2(g)", "Sp_1(a) + Sp_2(b)", "Sp_3(c3) + 2*Sp_1(gd)"):
        x = parse_rep(text, zoo_model)
        y = rep_dual(x, zoo_model)
        rx, ry = exponents_of(x, zoo_model), exponents_of(y, zoo_model)
        assert (rx.dim, rx.ar, rx.sw) == (ry.dim, ry.ar, ry.sw)


def test_dim(zoo_model):
    x = parse_rep("Sp_2(a) + 2*Sp_3(c3)", zoo_model)
    assert rep_dim(x, zoo_model) == 2 * 2 + 2 * 3 * 3


def test_zero_multiplicity_rejected():
    with pytest.raises(ValueError):
        WDRep.from_terms([(0, Indecomposable(1, "u"))])
    with pytest.raises(ValueError):
        Indecomposable(0, "u")
