from fractions import Fraction

import pytest

from wdexp.generator import SplitMix64
from wdexp.maxplus import (
    MaxPlusElem,
    mp_degree_weight,
    mp_vee,
    mp_vee_weight,
    optimal_witness,
    pair_upper_bound,
    s_map,
)


def elem(*pairs):
    return MaxPlusElem([(Fraction(a), c) for a, c in pairs])


def in_positive_cone(e: MaxPlusElem) -> bool:
    """Whether e lies in A+: every key and every coefficient is >= 0."""
    return all(a >= 0 and c >= 0 for a, c in e.coeffs.items())


def test_generator_rule():
    assert mp_vee(elem((1, 1)), elem((2, 1))) == elem((2, 1))


def test_zero_absorbs():
    z = MaxPlusElem.zero()
    x = elem((0, 1), (3, 2))
    assert mp_vee(z, x) == z
    assert mp_vee(x, z) == z


def test_bi_additive_expansion():
    got = mp_vee(elem((0, 1), (3, 1)), elem((5, 1)))
    assert got == elem((5, 2))


def test_canonical_form_drops_zeros():
    x = elem((1, 2), (1, -2), (0, 3))
    assert x == elem((0, 3))
    assert repr(x) == "3[0]"
    assert repr(elem((Fraction(1, 2), 1), (0, 2))) == "2[0] + [1/2]"


def test_keys_and_coefficients_take_one_canonical_form():
    want = {Fraction(1, 2): 3, Fraction(2): 1}
    for coeffs in (
        [(Fraction(1, 2), 3), (Fraction(2), 1)],
        [("1/2", 3), (2, 1)],
        [(Fraction(2, 4), 2), ("1/2", True), (2, True), (7, False)],
        {"1/2": 3, Fraction(2): 1},
        [(Fraction(1, 2), 3), ("3", 4), (2, 1), (3, -4)],
    ):
        e = MaxPlusElem(coeffs)
        assert e.coeffs == want
        assert all(type(a) is Fraction for a in e.coeffs)
        assert all(type(c) is int for c in e.coeffs.values())
    # a sum that cancels drops its key, and a later term can bring it back
    assert MaxPlusElem([(1, 2), ("1", -2)]).coeffs == {}
    assert MaxPlusElem([(1, 2), (0, 1), (Fraction(1), -2)]).coeffs == {Fraction(0): 1}
    assert MaxPlusElem([(1, 2), (1, -2), (1, 5)]).coeffs == {Fraction(1): 5}
    assert MaxPlusElem([(1, True), (1, -1)]) == MaxPlusElem.zero()
    assert not elem((3, 1)) + elem((3, -1))
    e = s_map([(True, "1/2"), (2, 0)])
    assert e.coeffs == {Fraction(1, 2): 1, Fraction(0): 2}
    assert all(type(c) is int for c in e.coeffs.values())


def test_degree_weight_examples():
    assert mp_degree_weight(elem((Fraction(5, 7), 1))) == (1, Fraction(5, 7))
    assert mp_degree_weight(MaxPlusElem.zero()) == (0, 0)
    assert mp_degree_weight(elem((Fraction(1, 2), 2), (0, 3))) == (5, 1)


def test_ring_laws_random():
    rng = SplitMix64(5)

    def rand_elem():
        n = 1 + rng.below(4)
        return MaxPlusElem(
            [(Fraction(rng.below(13) - 3, 6), rng.below(7) - 3) for _ in range(n)]
        )

    for _ in range(200):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert mp_vee(x, y) == mp_vee(y, x)
        assert mp_vee(mp_vee(x, y), z) == mp_vee(x, mp_vee(y, z))
        assert mp_vee(x + y, z) == mp_vee(x, z) + mp_vee(y, z)
        dx, vx = mp_degree_weight(x)
        dy, vy = mp_degree_weight(y)
        ds, vs = mp_degree_weight(x + y)
        assert (ds, vs) == (dx + dy, vx + vy)
        dv, _ = mp_degree_weight(mp_vee(x, y))
        assert dv == dx * dy


def test_vee_weight_is_the_weight_of_the_vee_product():
    # v(x vee y) read off the (key, coefficient) pairs of x and y: with the
    # Fraction keys of a MaxPlusElem, with int keys (repeated keys and zero
    # coefficients included, as MaxPlusElem canonicalizes them) and with
    # zero elements on either side.
    rng = SplitMix64(8)
    zero = MaxPlusElem.zero()
    empties = 0
    for _ in range(300):
        xs, ys = ([(rng.below(13) - 3, rng.below(7) - 3) for _ in range(rng.below(4))]
                  for _ in range(2))
        empties += not xs or not ys
        x, y = (MaxPlusElem([(Fraction(a, 6), c) for a, c in zs]) for zs in (xs, ys))
        assert mp_vee_weight(x.coeffs.items(), y.coeffs.items()) == mp_degree_weight(mp_vee(x, y))[1]
        lv = mp_vee_weight(xs, ys)
        assert type(lv) is int
        assert lv == mp_degree_weight(mp_vee(MaxPlusElem(xs), MaxPlusElem(ys)))[1]
        for z in (x, zero):
            assert mp_vee_weight(z.coeffs.items(), zero.coeffs.items()) == 0
            assert mp_vee_weight(zero.coeffs.items(), z.coeffs.items()) == 0
    assert empties > 0
    assert mp_vee_weight([(2, 3)], [(5, 1), (1, 2)]) == 3 * 5 + 6 * 2


def test_s_map():
    e = s_map([(2, Fraction(1, 2)), (3, Fraction(0))])
    assert e == elem((Fraction(1, 2), 2), (0, 3))
    d, v = mp_degree_weight(e)
    assert (d, v) == (5, 1)
    assert in_positive_cone(e)
    assert s_map([(1, Fraction(0))]) == elem((0, 1))
    with pytest.raises(ValueError):
        s_map([(2, Fraction(-1, 2))])
    with pytest.raises(ValueError):
        s_map([(0, Fraction(1))])


def test_pair_upper_bound_values():
    assert pair_upper_bound(1, Fraction(3), 1, Fraction(5)) == 5
    assert pair_upper_bound(3, 0, 7, 0) == 0
    assert pair_upper_bound(2, Fraction(3), 1, Fraction(5)) == 10
    with pytest.raises(ValueError):
        pair_upper_bound(0, 1, 1, 1)
    with pytest.raises(ValueError):
        pair_upper_bound(1, -1, 1, 1)


def test_optimal_witness_examples():
    w1, w2 = optimal_witness(2, Fraction(3), 1, Fraction(5))
    assert w1 == elem((0, 1), (3, 1))
    assert w2 == elem((5, 1))
    _, v = mp_degree_weight(mp_vee(w1, w2))
    assert v == 10

    w1, w2 = optimal_witness(1, Fraction(2, 3), 1, Fraction(7, 5))
    assert (w1, w2) == (elem((Fraction(2, 3), 1)), elem((Fraction(7, 5), 1)))

    w1, w2 = optimal_witness(4, 0, 4, 0)
    _, v = mp_degree_weight(mp_vee(w1, w2))
    assert v == 0 == pair_upper_bound(4, 0, 4, 0)


def test_optimal_witness_attains_bound_random():
    rng = SplitMix64(6)
    for _ in range(300):
        d1, d2 = 1 + rng.below(6), 1 + rng.below(6)
        v1 = Fraction(rng.below(72), 12)
        v2 = Fraction(rng.below(72), 12)
        w1, w2 = optimal_witness(d1, v1, d2, v2)
        dd1, vv1 = mp_degree_weight(w1)
        dd2, vv2 = mp_degree_weight(w2)
        assert (dd1, vv1, dd2, vv2) == (d1, v1, d2, v2)
        assert in_positive_cone(w1) and in_positive_cone(w2)
        _, v = mp_degree_weight(mp_vee(w1, w2))
        assert v == pair_upper_bound(d1, v1, d2, v2)


def test_cone_bound_random():
    rng = SplitMix64(7)

    def cone_elem():
        n = 1 + rng.below(6)
        e = MaxPlusElem(
            [(Fraction(rng.below(73), 12), 1 + rng.below(5)) for _ in range(n)]
        )
        assert in_positive_cone(e)
        return e

    for _ in range(2000):
        x, y = cone_elem(), cone_elem()
        dx, vx = mp_degree_weight(x)
        dy, vy = mp_degree_weight(y)
        _, v = mp_degree_weight(mp_vee(x, y))
        assert v <= dy * vx + dx * vy - min(vx, vy)
