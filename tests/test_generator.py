import hashlib
import itertools
import math
from fractions import Fraction

import pytest

import wdexp.generator
from conftest import pair
from wdexp.generator import (
    GenParams,
    GeneratorError,
    SplitMix64,
    gen_model,
    gen_model_with_stats,
    gen_rep,
)
from wdexp.model import (UNRAMIFIED_ID, IrreducibleClass, ModelInstance, is_minimal_class,
                         validate_model)
from wdexp.rep import rep_dim


def test_splitmix_reference_stream():
    # first outputs for seed 0 (standard splitmix64 constants)
    rng = SplitMix64(0)
    first = [rng.next64() for _ in range(3)]
    assert first == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix_below_needs_a_positive_bound():
    rng = SplitMix64(0)
    for n in (0, -1):
        with pytest.raises(ValueError, match="positive bound"):
            rng.below(n)
    assert rng.next64() == 0xE220A8397B1DCDAF  # a rejected call draws nothing


def test_gen_params_validation():
    with pytest.raises(ValueError):
        GenParams(slope_levels=())
    with pytest.raises(ValueError):
        GenParams(slope_levels=(Fraction(1), Fraction(1)))
    with pytest.raises(ValueError):
        GenParams(slope_levels=(Fraction(-1),))
    with pytest.raises(ValueError):
        GenParams(slope_levels=(Fraction(1),), classes_per_level=0)
    with pytest.raises(ValueError):
        GenParams(slope_levels=(Fraction(1),), dim_pool=())


def test_infeasible_dimension_pool_fails_loudly():
    params = GenParams(slope_levels=(Fraction(1, 3),), dim_pool=(2, 4))
    with pytest.raises(GeneratorError):
        gen_model(params)


def test_a_model_validation_rejects_is_a_generator_error(monkeypatch):
    # One attempt and no retry: a model that fails validation names its
    # violations in the error.
    bad = ModelInstance([IrreducibleClass(UNRAMIFIED_ID, 1, Fraction(0), 1, UNRAMIFIED_ID, True, True),
                         IrreducibleClass("a", 2, Fraction(1, 3), 1, "a")],
                        {("a", "a"): Fraction(1, 3)}, [UNRAMIFIED_ID])
    violations = validate_model(bad).violations
    assert violations
    calls = []
    monkeypatch.setattr(wdexp.generator, "_attempt", lambda *args: calls.append(args) or bad)
    with pytest.raises(GeneratorError, match="fails validation") as info:
        gen_model_with_stats(GenParams.from_strings("0,1"))
    assert len(calls) == 1
    assert str(violations[0]) in str(info.value)


def test_generated_models_are_valid(gen_params):
    for seed in range(8):
        m = gen_model(GenParams.from_strings("0,1/2,1,2", seed=seed))
        report = validate_model(m)
        assert report.ok, (seed, [str(v) for v in report.violations])


def test_determinism_same_seed(gen_params):
    a = gen_model(gen_params)
    b = gen_model(gen_params)
    assert a.to_json() == b.to_json()
    assert a.digest() == b.digest()


def test_different_seeds_differ():
    a = gen_model(GenParams.from_strings("0,1/2,1,2", seed=1))
    b = gen_model(GenParams.from_strings("0,1/2,1,2", seed=2))
    assert a.digest() != b.digest()


def test_minimal_params_give_unit_plus_one_class():
    m = gen_model(GenParams(slope_levels=(Fraction(0),), classes_per_level=1, dim_pool=(2,)))
    assert set(m.classes) == {UNRAMIFIED_ID, "L0c0"}
    assert pair(m, "L0c0", UNRAMIFIED_ID) == m.classes["L0c0"].slope


def test_characters_cover_positive_levels(generated_model):
    # every positive slope carried by a class is matched by a character at
    # that slope when integral, or at the next integer above otherwise
    slopes = {c.slope for c in generated_model.classes.values() if c.slope > 0}
    char_slopes = {
        generated_model.classes[ch].slope for ch in generated_model.characters
    }
    for s in slopes:
        target = s if s.denominator == 1 else Fraction(math.ceil(s))
        assert target in char_slopes, (s, sorted(char_slopes))


def test_generated_flags_match_recomputation(generated_model):
    for cid, c in generated_model.classes.items():
        assert c.minimal_sigma == is_minimal_class(cid, "sigma", generated_model)
        assert c.minimal_eta == is_minimal_class(cid, "eta", generated_model)


def test_pairing_floor_against_character_minimum(generated_model):
    # generated pairings sit at or above half the twist-minimized slope
    m = generated_model
    ids = sorted(m.classes)
    min_slope = {
        i: min(pair(m, chi, i) for chi in m.characters) for i in ids
    }
    for a in ids:
        for b in ids:
            assert pair(m, a, b) >= max(min_slope[a], min_slope[b]) / 2, (a, b)


def test_gen_rep_zero_terms(generated_model):
    assert gen_rep(generated_model, 0, 5, 1).is_zero


@pytest.mark.parametrize("max_terms, max_r", [(-1, 5), (1, 0), (2, -1)])
def test_gen_rep_rejects_bad_bounds(generated_model, max_terms, max_r):
    with pytest.raises(ValueError, match="max_terms >= 0 and max_r >= 1"):
        gen_rep(generated_model, max_terms, max_r, 1)


def test_gen_rep_deterministic_and_bounded(generated_model):
    a = gen_rep(generated_model, 3, 4, 123)
    b = gen_rep(generated_model, 3, 4, 123)
    assert a == b
    assert not a.is_zero
    total_terms = sum(k for k, _, _ in a.terms)
    assert 1 <= total_terms <= 3
    assert all(1 <= r <= 4 for _, r, _ in a.terms)
    assert rep_dim(a, generated_model) > 0


def test_gen_rep_covers_every_class(generated_model):
    seen = set()
    for seed in range(10_000):
        seen.update(cls for _, _, cls in gen_rep(generated_model, 3, 4, seed).terms)
        if seen == set(generated_model.classes):
            break
    assert seen == set(generated_model.classes)


def test_stats_reported(gen_params):
    _, stats = gen_model_with_stats(gen_params)
    assert stats.attempts == 1
    assert stats.repair_rounds >= 0


def test_distinct_slopes_forced_to_max(generated_model):
    m = generated_model
    ids = sorted(m.classes)
    for a in ids:
        for b in ids:
            if m.classes[a].slope != m.classes[b].slope:
                assert pair(m, a, b) == max(m.classes[a].slope, m.classes[b].slope)


def test_unit_class_minimal_in_generated(generated_model):
    assert is_minimal_class(UNRAMIFIED_ID, "eta", generated_model)
    assert is_minimal_class(UNRAMIFIED_ID, "sigma", generated_model)


def _pin_grid():
    """Fractional and integer levels, shallow and deep trees, one and three
    characters per level, three seeds, and one 83-class model."""
    grid = [GenParams.from_strings(levels, classes_per_level=cpl, tree_depth=depth,
                                   char_per_level=chars, seed=seed)
            for levels, cpl, depth, chars, seed in itertools.product(
                ("0,1/3,2/3,1,3/2", "0,1/2,1,2", "1/3,2/3", "0", "2"),
                (1, 2, 5), (1, 6), (1, 3), range(3))]
    grid.append(GenParams.from_strings("0,1/2,1,2", classes_per_level=20))
    return grid


# sha256 of one "digest attempts repair_rounds raised_entries" line per grid
# point: a change to the generator that moves a model or its statistics
# moves this value.
GENERATOR_GRID_SHA256 = "e58139aa300d3db4105d869ea72c54699ede91239936e7f8af57e1cd0b2e7c56"


def test_generator_grid_is_pinned():
    h = hashlib.sha256()
    for p in _pin_grid():
        m, s = gen_model_with_stats(p)
        h.update(f"{m.digest()} {s.attempts} {s.repair_rounds} {s.raised_entries}\n".encode())
    assert h.hexdigest() == GENERATOR_GRID_SHA256


def test_one_pairing_completion_per_repair_round(monkeypatch):
    # every round builds one model, which completes the pairing; the round
    # that raises nothing is the model whose flags are read, and the
    # flagged model is one more build per attempt
    calls = 0
    real = wdexp.generator.ModelInstance

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(wdexp.generator, "ModelInstance", counting)
    rounds = 0
    for p in _pin_grid()[::7]:
        calls = 0
        _, stats = gen_model_with_stats(p)
        assert calls == stats.repair_rounds + 2 * stats.attempts, p
        rounds += stats.repair_rounds
    assert rounds > 0
