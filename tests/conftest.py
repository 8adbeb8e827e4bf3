from fractions import Fraction

import pytest

from wdexp.exponents import indec_tensor_kernel
from wdexp.generator import GenParams, gen_model
from wdexp.model import UNRAMIFIED_ID, ModelInstance, model_from_json_dict


@pytest.fixture(scope="session")
def unit_model():
    """Just the unramified orbit."""
    return model_from_json_dict(
        {
            "classes": [
                {"id": "u", "dim": 1, "slope": "0", "deg": 1, "dual": "u",
                 "flags": ["minimal_sigma", "minimal_eta"]},
            ],
            "pairing": [],
            "characters": ["u"],
        }
    )


ZOO_DOC = {
    # u: unramified orbit; t: tame character; g/gd: ramified character dual
    # pair at slope 2; a: self-dual dim-2 class at slope 1/2 with full twist
    # degeneracy (the half-slope equality witness); b: self-dual dim-2 class
    # at slope 1; c3: self-dual dim-3 class at slope 2, not minimal (the
    # character g sits at pairing slope 1 < 2).
    "classes": [
        {"id": "u", "dim": 1, "slope": "0", "deg": 1, "dual": "u",
         "flags": ["minimal_sigma", "minimal_eta"]},
        {"id": "t", "dim": 1, "slope": "0", "deg": 1, "dual": "t",
         "flags": ["minimal_sigma"]},
        {"id": "g", "dim": 1, "slope": "2", "deg": 1, "dual": "gd", "flags": []},
        {"id": "gd", "dim": 1, "slope": "2", "deg": 1, "dual": "g", "flags": []},
        {"id": "a", "dim": 2, "slope": "1/2", "deg": 2, "dual": "a",
         "flags": ["minimal_sigma", "minimal_eta"]},
        {"id": "b", "dim": 2, "slope": "1", "deg": 1, "dual": "b",
         "flags": ["minimal_sigma", "minimal_eta"]},
        {"id": "c3", "dim": 3, "slope": "2", "deg": 3, "dual": "c3", "flags": []},
    ],
    # Only entries not forced by the unit row or the max rule.
    "pairing": [
        {"i": "u", "j": "t", "slope": "0"},
        {"i": "t", "j": "t", "slope": "0"},
        {"i": "a", "j": "a", "slope": "1/4"},
        {"i": "b", "j": "b", "slope": "1/2"},
        {"i": "g", "j": "g", "slope": "1"},
        {"i": "gd", "j": "gd", "slope": "1"},
        {"i": "g", "j": "gd", "slope": "0"},
        {"i": "g", "j": "c3", "slope": "1"},
        {"i": "gd", "j": "c3", "slope": "1"},
        {"i": "c3", "j": "c3", "slope": "2/3"},
    ],
    "characters": ["u", "t", "g", "gd"],
}


@pytest.fixture(scope="session")
def zoo_model():
    """Hand-built valid model covering tame, ramified-dual-pair,
    fractional-slope, and non-minimal classes."""
    return model_from_json_dict(ZOO_DOC)


CENSUS_COUNTEREXAMPLE_DOC = {
    # The smallest model of the small-model census on which a bound fails
    # although M1-M8 accept it: u; a self-dual character c0 of slope 1 with
    # s(c0,c0) = 0; a self-dual c1 (dim 2, slope 1, deg 1) with
    # s(c0,c1) = 1/2 and s(c1,c1) = 0.  The flags are those that
    # `class_minimality` gives.  AS fails on x = Sp_1(c1) + Sp_1(u),
    # y = Sp_1(c1), with x sigma-minimal.  The generator's floor,
    # 2*s(i,j) >= max(ms(i), ms(j)) with ms(c) the least s(chi,c) over the
    # characters chi, fails at i = j = c1: 0 < ms(c1) = 1/2.
    "classes": [
        {"id": "u", "dim": 1, "slope": "0", "deg": 1, "dual": "u",
         "flags": ["minimal_sigma", "minimal_eta"]},
        {"id": "c0", "dim": 1, "slope": "1", "deg": 1, "dual": "c0", "flags": []},
        {"id": "c1", "dim": 2, "slope": "1", "deg": 1, "dual": "c1", "flags": []},
    ],
    "pairing": [
        {"i": "c0", "j": "c0", "slope": "0"},
        {"i": "c0", "j": "c1", "slope": "1/2"},
        {"i": "c1", "j": "c1", "slope": "0"},
    ],
    "characters": ["u", "c0"],
}


@pytest.fixture(scope="session")
def census_counterexample():
    """A model M1-M8 accept on which the AS-bound fails."""
    return model_from_json_dict(CENSUS_COUNTEREXAMPLE_DOC)


@pytest.fixture(scope="session")
def gen_params():
    return GenParams.from_strings("0,1/2,1,2", seed=0)


@pytest.fixture(scope="session")
def generated_model(gen_params):
    return gen_model(gen_params)


def frac(s) -> Fraction:
    from wdexp.rationals import parse_rational

    return parse_rational(s)


def is_eta_homogeneous(x, m) -> bool:
    """All irreducible constituents of x share one normalized Artin
    exponent: 0 for unramified constituents and slope_i + 1 for a ramified
    class i, read off the twist of Sp_1(i) by Sp_1(u)."""
    if x.is_zero:
        raise ValueError("homogeneity is undefined for the zero representation")
    values = set()
    for _, _, cls in x.terms:
        ar, _sw, dim = indec_tensor_kernel(1, UNRAMIFIED_ID, 1, cls, m)
        values.add(Fraction(ar, dim))
    return len(values) == 1


def labels(report) -> set[str]:
    """The axiom names of a validation report's violations."""
    return {v.axiom for v in report.violations}


def pair(m, i, j) -> Fraction:
    """s(i,j) of model m, read off its integer table."""
    return Fraction(m.S[m.at(i)][m.at(j)], m.L)


def pairing(m) -> dict:
    """{(i, j): s(i,j)} of model m over sorted id pairs, in sorted order."""
    ids, L = m.ids, m.L
    return {(i, ids[b]): Fraction(row[b], L)
            for a, (i, row) in enumerate(zip(ids, m.S)) for b in range(a, len(ids))}


def dualized(m):
    """The model with every class replaced by its dual: class data is
    dual-invariant apart from the dual pointer, so each pairing entry
    {i,j} is re-sourced from {dual(i),dual(j)}."""
    c = m.classes
    entries = {(i, j): pair(m, c[i].dual, c[j].dual) for (i, j), _ in pairing(m).items()}
    return ModelInstance(m.classes.values(), entries, m.characters)


def perturbations(m, rng):
    """Single-entry and single-class perturbations of the valid model `m`:
    entries moved to other table values, to negative or finer values, and
    classes with dim 0 or negative, a slope with a new denominator, a deg
    that does not divide dim, flipped flags, or a changed character list."""
    classes = [m.classes[i] for i in sorted(m.classes)]
    entries = pairing(m)
    values = sorted(set(entries.values()))
    keys = sorted(entries)
    out = []
    for k in range(20):
        key = rng.choice(keys)
        old = entries[key]
        new = (rng.choice(values), old + Fraction(1, 3), old - Fraction(1, 2), old / 2,
               Fraction(0))[k % 5]
        out.append(ModelInstance(classes, {**entries, key: new}, m.characters))
    changes = (
        lambda c: c._replace(dim=0),
        lambda c: c._replace(dim=-c.dim),
        lambda c: c._replace(dim=c.dim + 1),
        lambda c: c._replace(slope=c.slope + Fraction(1, 7)),
        lambda c: c._replace(slope=2 * c.slope),
        lambda c: c._replace(deg=0),
        lambda c: c._replace(deg=c.dim + 1),
        lambda c: c._replace(minimal_sigma=not c.minimal_sigma),
        lambda c: c._replace(minimal_eta=not c.minimal_eta),
        lambda c: c._replace(minimal_sigma=not c.minimal_sigma, minimal_eta=not c.minimal_eta),
    )
    for k in range(12):
        a = rng.randrange(len(classes))
        changed = classes[:a] + [changes[k % len(changes)](classes[a])] + classes[a + 1:]
        out.append(ModelInstance(changed, pairing(m), m.characters))
    dropped = rng.choice([ch for ch in m.characters if ch != "u"])
    added = rng.choice([c.id for c in classes if c.id not in m.characters])
    out.append(ModelInstance(classes, pairing(m), [ch for ch in m.characters if ch != dropped]))
    out.append(ModelInstance(classes, pairing(m), list(m.characters) + [added]))
    return out


def validation_bases():
    """The zoo model and five generated ones, whose `perturbations` the
    pinned validation reports cover."""
    bases = [model_from_json_dict(ZOO_DOC)]
    bases += [gen_model(GenParams.from_strings("0,1/2,1,2", classes_per_level=cpl, seed=seed))
              for cpl, seed in ((2, 0), (2, 1), (2, 2), (3, 3), (3, 4))]
    return bases
