import copy
import hashlib
import json
import math
import pickle
import random
from fractions import Fraction
from itertools import chain, product

import pytest

from conftest import ZOO_DOC, dualized, pair, pairing, perturbations, validation_bases
from wdexp.exponents import indec_tensor_kernel, kernel_row
from wdexp.model import (
    MODES,
    IrreducibleClass,
    ModelInstance,
    ModelStructureError,
    is_minimal_class,
    load_model,
    dump_model,
    model_from_json_dict,
    Violation,
    _subdominant_ultrametric,
    validate_model,
)
from wdexp.rationals import format_rational, parse_int, parse_rational


def test_rational_round_trip():
    for text in ("0", "2", "-3", "3/4", "-1/2", "10/4"):
        q = parse_rational(text)
        assert parse_rational(format_rational(q)) == q
    assert format_rational(Fraction(10, 4)) == "5/2"
    for junk in ("x/y", "1/0", "3/00", "x", "", "0_1", "1_0", "2_0/2_0", "\u0661", "\uff11",
                 "\x1f1", "1/2\x1c"):
        with pytest.raises(ValueError):
            parse_rational(junk)
    # integers from outside follow the same spelling rule
    for text, value in (("7", 7), (" 7 ", 7), ("-1", -1), ("+3", 3), ("007", 7), (5, 5)):
        assert parse_int(text) == value
    for junk in ("1_0", "\u0663", "\uff12", "1/2", "x", "", "\u20037"):
        with pytest.raises(ValueError):
            parse_int(junk)


def test_unit_only_model_is_valid(unit_model):
    report = validate_model(unit_model)
    assert report.ok
    assert report.violations == []


def test_zoo_model_is_valid(zoo_model):
    report = validate_model(zoo_model)
    assert report.ok, [str(v) for v in report.violations]


def _small_doc(**overrides):
    doc = {
        "classes": [
            {"id": "u", "dim": 1, "slope": "0", "deg": 1, "dual": "u",
             "flags": ["minimal_sigma", "minimal_eta"]},
            {"id": "i", "dim": 1, "slope": "1", "deg": 1, "dual": "j", "flags": []},
            {"id": "j", "dim": 1, "slope": "1", "deg": 1, "dual": "i", "flags": []},
            {"id": "k", "dim": 1, "slope": "2", "deg": 1, "dual": "k", "flags": []},
        ],
        "pairing": [
            {"i": "i", "j": "j", "slope": "0"},
            {"i": "i", "j": "i", "slope": "1"},
            {"i": "j", "j": "j", "slope": "1"},
            {"i": "k", "j": "k", "slope": "0"},
        ],
        "characters": ["u", "i", "j", "k"],
    }
    doc.update(overrides)
    return doc


def test_max_rule_violation_reported():
    # slopes 1 and 2 differ, so the pairing is forced to 2; 3/2 breaks M3.
    doc = _small_doc()
    doc["pairing"].append({"i": "i", "j": "k", "slope": "3/2"})
    report = validate_model(model_from_json_dict(doc))
    assert not report.ok
    assert "M3" in report.labels()
    v = [v for v in report.violations if v.axiom == "M3"][0]
    assert v.lhs == Fraction(3, 2) and v.rhs == 2


def test_diagonal_minimality_violation_reported():
    # self pairing above a cross pairing breaks M5.
    doc = {
        "classes": [
            {"id": "u", "dim": 1, "slope": "0", "deg": 1, "dual": "u",
             "flags": ["minimal_sigma", "minimal_eta"]},
            {"id": "p", "dim": 2, "slope": "1", "deg": 1, "dual": "p", "flags": []},
            {"id": "q", "dim": 2, "slope": "1", "deg": 1, "dual": "q", "flags": []},
        ],
        "pairing": [
            {"i": "p", "j": "p", "slope": "1/2"},
            {"i": "q", "j": "q", "slope": "1/2"},
            {"i": "p", "j": "q", "slope": "1/4"},
        ],
        "characters": ["u"],
    }
    report = validate_model(model_from_json_dict(doc))
    assert "M5" in report.labels()


# Three self-dual classes at one slope with s(a,c) = 1 above s(a,b) =
# s(b,c) = 1/2: M1-M5 hold, and D(a,c) = D(c,a) = 1 > max(1/2, 1/2) through b.
M6_DOC = {
    "classes": [{"id": i, "dim": d, "slope": sl, "deg": 1, "dual": i,
                 "flags": ["minimal_sigma", "minimal_eta"]}
                for i, d, sl in (("u", 1, "0"), ("a", 2, "1"), ("b", 2, "1"), ("c", 2, "1"))],
    "pairing": [{"i": i, "j": j, "slope": sl} for i, j, sl in (
        ("a", "a", "1/2"), ("b", "b", "1/2"), ("c", "c", "1/2"),
        ("a", "b", "1/2"), ("b", "c", "1/2"), ("a", "c", "1"))],
    "characters": ["u"],
}


def test_ultrametric_violation_reported():
    report = validate_model(model_from_json_dict(M6_DOC))
    assert report.violations == [
        Violation("M6", ("a", "c", "b"), Fraction(1), Fraction(1, 2)),
        Violation("M6", ("c", "a", "b"), Fraction(1), Fraction(1, 2)),
    ]


def test_character_self_pairing_enforced():
    doc = _small_doc()
    doc["pairing"][0] = {"i": "i", "j": "j", "slope": "1"}  # dual chars must cancel
    report = validate_model(model_from_json_dict(doc))
    assert "char_self_pairing" in report.labels()


def test_flag_reverification_both_directions():
    # k is genuinely sigma-minimal here (slope 0 twists cannot reach it),
    # wait: k has slope 2 and s(k, dual k) = 0 < 2, so it is not minimal.
    doc = _small_doc()
    for c in doc["classes"]:
        if c["id"] == "k":
            c["flags"] = ["minimal_sigma"]
    report = validate_model(model_from_json_dict(doc))
    assert "flag_sigma" in report.labels() or "M7" in report.labels()


def test_structural_errors_raise():
    doc = _small_doc()
    doc["classes"][1]["dual"] = "nope"
    with pytest.raises(ModelStructureError):
        model_from_json_dict(doc)

    doc = _small_doc()
    doc["classes"][1]["dual"] = "i"  # j still points at i: not an involution
    with pytest.raises(ModelStructureError):
        model_from_json_dict(doc)

    with pytest.raises(ModelStructureError):
        ModelInstance(
            [
                IrreducibleClass("u", 1, Fraction(0), 1, "u"),
                IrreducibleClass("u", 1, Fraction(0), 1, "u"),
            ],
            {("u", "u"): Fraction(0)},
            ["u"],
        )

    # one pair given in both orders, in either insertion order: neither
    # value may win silently
    classes = [IrreducibleClass("u", 1, Fraction(0), 1, "u"),
               IrreducibleClass("a", 2, Fraction(1, 2), 1, "a")]
    for first, second in ((Fraction(1, 2), Fraction(3, 2)), (Fraction(3, 2), Fraction(1, 2))):
        entries = {("u", "u"): Fraction(0), ("u", "a"): first, ("a", "u"): second,
                   ("a", "a"): Fraction(1, 2)}
        with pytest.raises(ModelStructureError, match=r"\{a,u\}"):
            ModelInstance(classes, entries, ["u"])


def test_ambiguous_omission_is_an_error():
    doc = _small_doc()
    doc["pairing"] = [e for e in doc["pairing"] if {e["i"], e["j"]} != {"i", "j"}]
    with pytest.raises(ModelStructureError):
        model_from_json_dict(doc)


def test_forced_entries_reconstructed(zoo_model):
    # the zoo document omits every unit-row and max-rule entry
    assert pair(zoo_model, "u", "c3") == Fraction(2)
    assert pair(zoo_model, "a", "b") == Fraction(1)
    assert pair(zoo_model, "t", "g") == Fraction(2)


def test_json_round_trip(zoo_model, tmp_path):
    path = tmp_path / "zoo.json"
    dump_model(zoo_model, path)
    again = load_model(path)
    assert again.to_json() == zoo_model.to_json()
    assert again.digest() == zoo_model.digest()


def test_dualized_model_validates_identically(zoo_model):
    assert validate_model(dualized(zoo_model)).ok == validate_model(zoo_model).ok
    # and on an invalid model the violation labels agree
    doc = _small_doc()
    doc["pairing"].append({"i": "i", "j": "k", "slope": "3/2"})
    m = model_from_json_dict(doc)
    assert validate_model(m).labels() == validate_model(dualized(m)).labels()


def test_is_minimal_class_modes(zoo_model):
    assert is_minimal_class("u", "sigma", zoo_model)
    assert is_minimal_class("u", "eta", zoo_model)
    # tame character: sigma-minimal but not eta-minimal
    assert is_minimal_class("t", "sigma", zoo_model)
    assert not is_minimal_class("t", "eta", zoo_model)
    # ramified character: neither (its dual twist cancels it)
    assert not is_minimal_class("g", "sigma", zoo_model)
    assert not is_minimal_class("g", "eta", zoo_model)
    # fractional-slope class: minimal in both modes (no character can match
    # its slope, and unequal slopes force the max rule)
    assert is_minimal_class("a", "sigma", zoo_model)
    assert is_minimal_class("a", "eta", zoo_model)
    # c3 is blocked by the slope-2 character pair at pairing slope 1
    assert not is_minimal_class("c3", "sigma", zoo_model)
    with pytest.raises(ValueError):
        is_minimal_class("a", "bogus", zoo_model)
    with pytest.raises(ModelStructureError):
        is_minimal_class("nope", "eta", zoo_model)


def test_validator_is_deterministic(zoo_model):
    r1 = validate_model(zoo_model)
    r2 = validate_model(zoo_model)
    assert [str(v) for v in r1.violations] == [str(v) for v in r2.violations]


# A model without the unramified orbit u: a character a and a class b, both
# carrying flags, and valid but for unit_class.  With no u there is no
# twist-minimality rule to check the flags against.
NO_UNIT_DOC = {
    "classes": [
        {"id": "a", "dim": 1, "slope": "0", "deg": 1, "dual": "a", "flags": ["minimal_sigma"]},
        {"id": "b", "dim": 2, "slope": "1", "deg": 1, "dual": "b",
         "flags": ["minimal_sigma", "minimal_eta"]},
    ],
    "pairing": [{"i": "a", "j": "a", "slope": "0"}, {"i": "b", "j": "b", "slope": "1/2"}],
    "characters": ["a"],
}


def test_missing_unit_class_reported():
    m = model_from_json_dict(NO_UNIT_DOC)
    assert [str(v) for v in validate_model(m).violations] == ["unit_class[u]: lhs=0 rhs=1"]
    for i in m.ids:
        for mode in MODES:
            with pytest.raises(ModelStructureError, match="unknown class id 'u'"):
                is_minimal_class(i, mode, m)


def test_character_set_must_be_all_dim1():
    doc = _small_doc()
    doc["characters"] = ["u", "i", "j"]  # k missing
    report = validate_model(model_from_json_dict(doc))
    assert "character_set" in report.labels()


def test_malformed_documents_raise_structure_errors():
    # A non-object document, a non-list section, and a missing or mistyped
    # required key are ill-formed, never a KeyError or TypeError.
    bad = [[], "model", 3, {"classes": {}}, {"classes": [], "pairing": None},
           {"classes": [], "characters": "u"}, {"classes": [], "characters": [[]]}]
    for key in ("id", "dim", "slope", "deg", "dual"):
        doc = _small_doc()
        del doc["classes"][1][key]
        bad.append(doc)
        doc = _small_doc()
        doc["classes"][1][key] = None if key != "dim" else True
        bad.append(doc)
    for key in ("i", "j", "slope"):
        doc = _small_doc()
        del doc["pairing"][0][key]
        bad.append(doc)
    doc = _small_doc()
    doc["classes"][1]["flags"] = None
    bad.append(doc)
    doc = _small_doc()
    doc["pairing"][0] = "i,j"
    bad.append(doc)
    # a flag the format does not define, or one that is not a string
    for flag in ("minimal_Sigma", 1, None, ["minimal_eta"]):
        doc = _small_doc()
        doc["classes"][1]["flags"] = [flag]
        bad.append(doc)
    # a repeated pairing entry (either order) or character id is ambiguous,
    # never "the last one wins"
    doc = _small_doc()
    doc["pairing"].append({"i": "i", "j": "i", "slope": "2"})
    bad.append(doc)
    doc = _small_doc()
    doc["pairing"].append({"i": "j", "j": "i", "slope": "0"})
    bad.append(doc)
    doc = _small_doc()
    doc["characters"].append("u")
    bad.append(doc)
    for doc in bad:
        with pytest.raises(ModelStructureError):
            model_from_json_dict(doc)
    doc = _small_doc()
    doc["classes"][1]["slope"] = "1/0"
    with pytest.raises(ValueError):
        model_from_json_dict(doc)


def test_constructor_is_the_completion_rule(zoo_model):
    from wdexp.generator import GenParams, gen_model

    models = [zoo_model] + [gen_model(GenParams.from_strings("0,1/2,1,2", seed=seed))
                            for seed in range(10)]
    for m in models:
        classes = list(m.classes.values())
        slope = {i: c.slope for i, c in m.classes.items()}
        # every entry the unit row or the max rule forces is left out
        sparse = {(i, j): v for (i, j), v in pairing(m).items()
                  if "u" not in (i, j) and slope[i] == slope[j]}
        assert len(sparse) < len(pairing(m))
        for entries in (sparse, pairing(m)):
            built = ModelInstance(classes, entries, m.characters)
            assert pairing(built) == pairing(m)
            assert list(pairing(built)) == list(pairing(m))
            assert built.digest() == m.digest()
    classes = list(zoo_model.classes.values())
    given = pairing(zoo_model)
    with pytest.raises(ModelStructureError, match=r"^pairing names unknown id in \{a,nope\}$"):
        ModelInstance(classes, {**given, ("a", "nope"): Fraction(1)}, zoo_model.characters)
    del given["a", "a"]  # equal slopes: not forced
    with pytest.raises(ModelStructureError, match=r"^pairing entry \{a,a\} omitted but not "
                                                  r"forced by the unit row or the max rule$"):
        ModelInstance(classes, given, zoo_model.characters)


def test_loading_ignores_entry_order_and_orientation():
    from wdexp.generator import GenParams, gen_model

    m = gen_model(GenParams.from_strings("0,1/2,1,2", classes_per_level=20))
    assert len(m.ids) == 83
    doc = json.loads(m.to_json())
    slope = {c["id"]: c["slope"] for c in doc["classes"]}
    # every entry the unit row or the max rule forces is dropped
    kept = [e for e in doc["pairing"] if "u" not in (e["i"], e["j"])
            and slope[e["i"]] == slope[e["j"]]]
    rng = random.Random(24)
    rng.shuffle(kept)
    for e in kept[::2]:
        e["i"], e["j"] = e["j"], e["i"]
    assert len(kept) < len(doc["pairing"])
    assert model_from_json_dict({**doc, "pairing": kept}).digest() == m.digest()
    # A pair repeated in reverse order, then a malformed entry: the repeat
    # comes first in entry order, so it is the defect named.
    k = next(k for k, e in enumerate(kept) if e["i"] != e["j"])
    e = kept[k]
    repeat = {"i": e["j"], "j": e["i"], "slope": e["slope"]}
    for bad in ({"i": "u", "j": "u", "slope": 1.5}, {"i": "u", "slope": "0"},
                {"i": "u", "j": "u", "slope": "1/0"}, ["u", "u", "0"]):
        pairing = kept[:k + 5] + [repeat] + kept[k + 5:k + 9] + [bad] + kept[k + 9:]
        with pytest.raises(ModelStructureError,
                           match=rf"^pairing entry {k + 5} repeats the pair "
                                 rf"\{{{repeat['i']},{repeat['j']}\}}$"):
            model_from_json_dict({**doc, "pairing": pairing})


def test_constructor_ignores_value_identity():
    # Equal slopes as one shared object, as distinct objects, or as ints
    # where they are integral, build the same tables and file.
    for m in validation_bases():
        classes, entries = list(m.classes.values()), pairing(m)
        shared = {}
        variants = (
            {key: shared.setdefault(v, v) for key, v in entries.items()},
            {key: Fraction(v.numerator, v.denominator) for key, v in entries.items()},
            {key: v.numerator if v.denominator == 1 else v for key, v in entries.items()},
        )
        assert len({id(v) for v in variants[0].values()}) == len(set(entries.values()))
        assert len({id(v) for v in variants[1].values()}) == len(entries)
        for given in variants:
            built = ModelInstance(classes, given, m.characters)
            assert (built.S, built.L, built.slope) == (m.S, m.L, m.slope)
            assert built.digest() == m.digest()


# The zoo model with the character pair g, gd given slope -1: the only
# pinned report with slope_nonneg lines, recorded before the type
# invariants were first tested on whole tables.
NEGATIVE_SLOPE_REPORT = """\
slope_nonneg[g]: lhs=-1 rhs=0
slope_nonneg[gd]: lhs=-1 rhs=0
M1[g,u]: lhs=-1 rhs=0
M1[gd,u]: lhs=-1 rhs=0
M3[c3,g]: lhs=1 rhs=2
M3[c3,gd]: lhs=1 rhs=2
M3[g,g]: lhs=1 rhs=-1
M3[g,gd]: lhs=0 rhs=-1
M3[g,u]: lhs=-1 rhs=0
M3[gd,gd]: lhs=1 rhs=-1
M3[gd,u]: lhs=-1 rhs=0
M5[g,u]: lhs=0 rhs=-1
M5[gd,u]: lhs=0 rhs=-1
M5[u,g]: lhs=0 rhs=-1
M5[u,gd]: lhs=0 rhs=-1
M6[a,c3,g]: lhs=2 rhs=1
M6[a,c3,gd]: lhs=2 rhs=1
M6[b,c3,g]: lhs=2 rhs=1
M6[b,c3,gd]: lhs=2 rhs=1
M6[c3,a,g]: lhs=2 rhs=1
M6[c3,a,gd]: lhs=2 rhs=1
M6[c3,b,g]: lhs=2 rhs=1
M6[c3,b,gd]: lhs=2 rhs=1
M6[c3,t,g]: lhs=2 rhs=1
M6[c3,t,gd]: lhs=2 rhs=1
M6[c3,u,g]: lhs=2 rhs=1
M6[c3,u,gd]: lhs=2 rhs=1
M6[g,g,u]: lhs=0 rhs=-1
M6[g,gd,a]: lhs=1 rhs=1/2
M6[g,gd,t]: lhs=1 rhs=0
M6[g,gd,u]: lhs=1 rhs=-1
M6[gd,g,a]: lhs=1 rhs=1/2
M6[gd,g,t]: lhs=1 rhs=0
M6[gd,g,u]: lhs=1 rhs=-1
M6[gd,gd,u]: lhs=0 rhs=-1
M6[t,c3,g]: lhs=2 rhs=1
M6[t,c3,gd]: lhs=2 rhs=1
M6[u,c3,g]: lhs=2 rhs=1
M6[u,c3,gd]: lhs=2 rhs=1
M6[u,u,g]: lhs=0 rhs=-1
M6[u,u,gd]: lhs=0 rhs=-1
flag_sigma[g]: lhs=0 rhs=1
flag_eta[g]: lhs=0 rhs=1
flag_sigma[gd]: lhs=0 rhs=1
flag_eta[gd]: lhs=0 rhs=1
flag_sigma[u]: lhs=1 rhs=0
"""


def test_negative_slope_report_is_pinned():
    doc = copy.deepcopy(ZOO_DOC)
    for c in doc["classes"]:
        if c["id"] in ("g", "gd"):
            c["slope"] = "-1"
    report = validate_model(model_from_json_dict(doc))
    assert "".join(f"{v}\n" for v in report.violations) == NEGATIVE_SLOPE_REPORT


def test_model_instance_is_immutable(zoo_model):
    with pytest.raises(TypeError):
        zoo_model.classes["x"] = zoo_model.classes["u"]
    with pytest.raises(TypeError):
        del zoo_model.classes["u"]
    for name in ("classes", "characters", "ids", "index", "dim", "deg", "dual", "chars", "L",
                 "slope", "S"):
        with pytest.raises(AttributeError):
            setattr(zoo_model, name, getattr(zoo_model, name))
        with pytest.raises(AttributeError):
            delattr(zoo_model, name)
    with pytest.raises(AttributeError):
        zoo_model.extra = 1
    with pytest.raises(TypeError):
        zoo_model.index["u"] = 1
    for table in (zoo_model.ids, zoo_model.dim, zoo_model.deg, zoo_model.dual, zoo_model.chars,
                  zoo_model.slope, zoo_model.S, zoo_model.S[0]):
        with pytest.raises(TypeError):
            table[0] = table[0]
    assert validate_model(zoo_model).ok


def test_model_instance_copies_and_pickles(zoo_model):
    # copy, deepcopy and pickle rebuild a model from its file text: the
    # copy has every table of the original and is as immutable.
    from wdexp.generator import GenParams, gen_model

    large = gen_model(GenParams.from_strings("0,1/2,1,2", classes_per_level=20))
    assert len(large.ids) == 83
    for m in (zoo_model, large):
        for c in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert type(c) is ModelInstance and c is not m
            assert (c.digest(), c.L, c.S, c.ids, dict(c.classes), c.characters) == (
                m.digest(), m.L, m.S, m.ids, dict(m.classes), m.characters)
            with pytest.raises(AttributeError, match="immutable"):
                c.S = m.S


# Model files and report rows carry these digests, so a change to how a
# model is built must leave them where they are.
PINNED_DIGESTS = {
    "dim2": "b8ad471e2d3b6c990af70cf73d70a4a719336c2fd8337e198a9fbb05bf30053d",
    "prime3": "dc3487a02d46320ad3a9ca70df856b63c833ffa42bca7c4b4221e0551ebdea4f",
    "prime5": "0050fd228fe9040f164e73d26d7c24401b6cf10e632ae971ec1ab9e2db39db44",
    "tame": "5e117e4a037ca9a7f7a0b894dea86df8a7164d36242e44ad4194e08e3978b429",
    "unit": "8c1c443cb7bdd2a23ee71e28a169adab8b79cf47d584641a967d43623dc04640",
    "gen0": "e2b6e1666208d80e51e69b79a37d2682cb578dc14b0f9246b9b09546ffb94f50",
    "gen1": "88c9ebefd07275723e5e6abae9442602aedda44e87f8c75ba8acffece10e973d",
    "gen2": "08d800f0c567421d23413ef9c1e02a4dd5f88ee1ae11f409d0cf0c70fbf1726f",
}


def test_pinned_digests(unit_model):
    from wdexp.bounds import (
        dim2_witness_model,
        prime_dim_witness_model,
        tame_character_witness_model,
        witness_model,
    )
    from wdexp.generator import GenParams, gen_model

    got = {
        "dim2": dim2_witness_model().digest(),
        "prime3": prime_dim_witness_model(3).digest(),
        "prime5": prime_dim_witness_model(5).digest(),
        "tame": tame_character_witness_model().digest(),
        "unit": witness_model().digest(),
    }
    for seed in range(3):
        got[f"gen{seed}"] = gen_model(GenParams.from_strings("0,1/2,1,2", seed=seed)).digest()
    assert got == PINNED_DIGESTS
    assert unit_model.digest() == PINNED_DIGESTS["unit"]


def test_digest_is_computed_once(monkeypatch):
    from wdexp.bounds import run_sweep
    from wdexp.generator import GenParams, gen_model

    m = gen_model(GenParams.from_strings("0,1/2,1,2", seed=4))
    assert m.digest() == hashlib.sha256(m.to_json().encode()).hexdigest()
    assert m.digest() is m.digest()
    assert m.to_json() is m.to_json()
    serialized, to_json = [], ModelInstance.to_json

    def counting_to_json(self):
        serialized.append(self)
        return to_json(self)

    monkeypatch.setattr(ModelInstance, "to_json", counting_to_json)
    results, _ = run_sweep(("A", "C"), 2, 10, GenParams.from_strings("0,1/2,1,2"), seed=0)
    assert len({r.inputs["model"] for r in results}) == 2
    assert len(serialized) == 2 and serialized[0] is not serialized[1]


def _reference_json(m):
    """The model file's text as the writer made it from the `pairing` helper:
    a Fraction per cell, each formatted on its own, then the same dump."""
    classes = [{"id": c.id, "dim": c.dim, "slope": format_rational(c.slope), "deg": c.deg,
                "dual": c.dual,
                "flags": ["minimal_sigma"] * c.minimal_sigma + ["minimal_eta"] * c.minimal_eta}
               for c in map(m.classes.get, sorted(m.classes))]
    entries = [{"i": i, "j": j, "slope": format_rational(v)} for (i, j), v in pairing(m).items()]
    doc = {"classes": classes, "pairing": entries, "characters": sorted(m.characters)}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.fixture(scope="module")
def model_corpus(zoo_model):
    """287 models: the witness models, and the zoo model and five generated
    ones, each with its perturbations and axiom breaks."""
    from wdexp.bounds import (
        dim2_witness_model,
        prime_dim_witness_model,
        tame_character_witness_model,
        witness_model,
    )
    from wdexp.generator import GenParams, gen_model

    models = [dim2_witness_model(), prime_dim_witness_model(3), prime_dim_witness_model(5),
              tame_character_witness_model(), witness_model()]
    bases = [zoo_model] + [gen_model(GenParams.from_strings("0,1/2,1,2", classes_per_level=cpl))
                           for cpl in (2, 3, 4, 5, 20)]
    for n, m in enumerate(bases):
        models += [m] + perturbations(m, random.Random(n)) + _axiom_breaks(m, random.Random(n))
    return models


def test_writer_matches_the_pairing_view(model_corpus):
    for m in model_corpus:
        assert m.to_json() == _reference_json(m)
    assert len(model_corpus) == 287
    assert any(min(chain(*m.S)) < 0 for m in model_corpus)  # negative entries
    assert any(min(m.dim) < 1 for m in model_corpus)  # changed dims
    assert len({m.L for m in model_corpus}) > 3  # off-grid entries and slopes


def test_writer_makes_one_fraction_per_value(monkeypatch):
    import wdexp.model as model_module
    from wdexp.generator import GenParams, gen_model

    m = gen_model(GenParams.from_strings("0,1/2,1,2", classes_per_level=20))
    made = []

    def counting_fraction(*args):
        made.append(args)
        return Fraction(*args)

    monkeypatch.setattr(model_module, "Fraction", counting_fraction)
    m.to_json()
    assert len(made) == len({*m.slope, *chain(*m.S)}) == 5


def test_writer_escapes_ids_as_json_dumps_does(tmp_path):
    # é and U+2028 are written as \u escapes, as ensure_ascii writes them
    odd = ("caf\u00e9", "a\u2028b", 'q"', "back\\slash", "bell\x07")
    for ids in [(i,) for i in odd] + [odd]:
        classes = [IrreducibleClass("u", 1, Fraction(0), 1, "u", True, True)]
        classes += [IrreducibleClass(i, 2, Fraction(1, 2), 1, i) for i in ids]
        entries = {(i, j): Fraction(1, 2) for i in ids for j in ids if i <= j}
        m = ModelInstance(classes, entries, ["u"])
        assert m.to_json() == _reference_json(m)
        assert m.to_json().isascii()
        dump_model(m, tmp_path / "m.json")
        assert load_model(tmp_path / "m.json").digest() == m.digest()


def _reference_completion(classes, entries):
    """(L, S) as the constructor's per-cell loop completed the table: the
    given entries, then each omitted cell a <= b in row-major order from
    the unit row or the max rule.  Returns the message naming the first
    cell that neither forces instead."""
    by_id = {c.id: c for c in classes}
    ids = sorted(by_id)
    index = {i: a for a, i in enumerate(ids)}
    L = math.lcm(*(c.slope.denominator for c in classes), *(v.denominator for v in entries.values()))
    slope = [by_id[i].slope.numerator * (L // by_id[i].slope.denominator) for i in ids]
    n = len(ids)
    S = [[None] * n for _ in range(n)]
    for (i, j), v in entries.items():
        a, b = index[i], index[j]
        S[a][b] = S[b][a] = v.numerator * (L // v.denominator)
    u = index.get("u")
    for a, row in enumerate(S):
        for b in range(a, n):
            if row[b] is not None:
                continue
            if u in (a, b):
                row[b] = S[b][a] = slope[b if a == u else a]
            elif slope[a] != slope[b]:
                row[b] = S[b][a] = max(slope[a], slope[b])
            else:
                return (f"pairing entry {{{ids[a]},{ids[b]}}} omitted "
                        "but not forced by the unit row or the max rule")
    return L, tuple(map(tuple, S))


def _completion_oddities(m):
    """`m` with u at a nonzero slope, with its classes above slope 0 at
    negative slopes, and with u renamed so that no class is u."""
    c = m.classes
    entries = pairing(m)
    half = [x._replace(slope=Fraction(1, 2)) if x.id == "u" else x for x in c.values()]
    negative = [x._replace(slope=-x.slope - 1) if x.slope else x for x in c.values()]
    name = {"u": "u0"}.get
    nounit = [x._replace(id=name(x.id, x.id), dual=name(x.dual, x.dual)) for x in c.values()]
    renamed = {tuple(sorted((name(i, i), name(j, j)))): v for (i, j), v in entries.items()}
    chars = [name(ch, ch) for ch in m.characters]
    return [(half, entries, m.characters), (negative, entries, m.characters),
            (nounit, renamed, chars)]


def test_row_completion_matches_the_per_cell_loop(zoo_model, model_corpus):
    from wdexp.generator import GenParams, gen_model

    cases = [(list(m.classes.values()), pairing(m), m.characters) for m in model_corpus]
    for m in [zoo_model] + [gen_model(GenParams.from_strings("0,1/2,1,2", classes_per_level=cpl))
                            for cpl in (2, 5)]:
        cases += _completion_oddities(m)
    rng = random.Random(25)
    raised = 0
    for classes, entries, characters in cases:
        slope = {c.id: (c.slope.numerator, c.slope.denominator) for c in classes}
        forced = [k for k in entries if "u" in k or slope[k[0]] != slope[k[1]]]
        free = sorted(entries.keys() - set(forced))
        half = {k for k in forced if rng.random() < 0.5}
        for dropped in (set(forced), half, half | {*rng.sample(free, min(len(free), 3))}):
            sparse = {k: v for k, v in entries.items() if k not in dropped}
            expected = _reference_completion(classes, sparse)
            if isinstance(expected, str):
                with pytest.raises(ModelStructureError) as error:
                    ModelInstance(classes, sparse, characters)
                assert str(error.value) == expected
                raised += 1
                continue
            built = ModelInstance(classes, sparse, characters)
            assert (built.L, built.S) == expected
    assert len(cases) == 296 and raised == 295  # one case has no unforced entry


# -- M6: the O(n^2) check against the triple loop it stands in for ---------

# Labels recorded before and after the M6 block of validate_model.
_AFTER_M6 = ("M7", "M8", "flag_sigma", "flag_eta")


def _reference_m6(m):
    """M6 as the triple loop over all (i, j, k) checks it, in that order.
    The loop compares the ranks of the entries among the table's values,
    which order them as the entries themselves do, but as ints."""
    ids = sorted(m.classes)
    value = sorted({pair(m, i, m.classes[j].dual) for i in ids for j in ids})
    rank = {v: r for r, v in enumerate(value)}
    dist = {(i, j): rank[pair(m, i, m.classes[j].dual)] for i in ids for j in ids}
    out = []
    for i in ids:
        for j in ids:
            dij = dist[i, j]
            for k in ids:
                bound = max(dist[i, k], dist[k, j])
                if dij > bound:
                    out.append(Violation("M6", (i, j, k), value[dij], value[bound]))
    return out


def _reference_violations(m, report):
    """`report` with its M6 violations replaced by the triple loop's."""
    before = [v for v in report.violations if v.axiom not in ("M6",) + _AFTER_M6]
    after = [v for v in report.violations if v.axiom in _AFTER_M6]
    return before + _reference_m6(m) + after


def _perturbed(m, rng, with_dual_image):
    """`m` with one pairing entry moved to another value of the table; with
    `with_dual_image`, the entry {dual i, dual j} moves with it, so M4 still
    holds and the O(n^2) check rather than the M4 gate decides M6."""
    entries = pairing(m)
    values = sorted(set(entries.values()))
    (i, j), old = rng.choice(sorted(entries.items()))
    new = rng.choice([v for v in values if v != old] or [old + 1])
    entries[i, j] = new
    if with_dual_image:
        di, dj = m.classes[i].dual, m.classes[j].dual
        entries[min(di, dj), max(di, dj)] = new
    return ModelInstance(m.classes.values(), entries, m.characters)


@pytest.mark.parametrize("cpl", range(2, 6))
def test_m6_check_matches_triple_loop(cpl):
    from wdexp.generator import GenParams, gen_model

    seen = set()
    for seed in range(30):
        m = gen_model(GenParams.from_strings("0,1/2,1,2", classes_per_level=cpl, seed=seed))
        rng = random.Random(1000 * cpl + seed)
        for model in [m] + [_perturbed(m, rng, k % 2 == 1) for k in range(6)]:
            report = validate_model(model)
            assert report.violations == _reference_violations(model, report)
            seen.add(("M6" in report.labels(), bool(report.labels() & {"M4", "M5"})))
    # perturbations reach M6 violations both with M4 and M5 holding (the
    # O(n^2) check says no) and with one of them failing (the gate)
    assert (True, False) in seen and (True, True) in seen


def test_m6_gate_falls_back_when_m4_or_m5_fails():
    flags = ["minimal_sigma", "minimal_eta"]
    # a and ad are duals with s(a,a) != s(ad,ad): M4 fails, and D(ad,a) = 1
    # exceeds max(D(ad,c), D(c,a)) = 1/2.
    m4 = model_from_json_dict({
        "classes": [{"id": i, "dim": d, "slope": sl, "deg": 1, "dual": du, "flags": flags}
                    for i, d, sl, du in (("u", 1, "0", "u"), ("a", 2, "1", "ad"),
                                         ("ad", 2, "1", "a"), ("c", 2, "1", "c"))],
        "pairing": [{"i": i, "j": j, "slope": sl} for i, j, sl in (
            ("a", "a", "1/2"), ("ad", "ad", "1"), ("a", "ad", "1/2"),
            ("a", "c", "1/2"), ("ad", "c", "1/2"), ("c", "c", "1/2"))],
        "characters": ["u"],
    })
    # s(a,a) = 1/2 above s(a,b) = 1/4: M5 fails, and with it the diagonal
    # triples (a,a,b) and (b,b,a) of M6, which the spanning tree never sees.
    m5_doc = dict(M6_DOC, classes=[c for c in M6_DOC["classes"] if c["id"] != "c"],
                  pairing=[{"i": "a", "j": "a", "slope": "1/2"},
                           {"i": "b", "j": "b", "slope": "1/2"},
                           {"i": "a", "j": "b", "slope": "1/4"}])
    m5 = model_from_json_dict(m5_doc)
    for model, gate, witnesses in ((m4, "M4", [("ad", "a", "c")]),
                                   (m5, "M5", [("a", "a", "b"), ("b", "b", "a")])):
        report = validate_model(model)
        assert gate in report.labels()
        assert [v.witness for v in report.violations if v.axiom == "M6"] == witnesses
        assert report.violations == _reference_violations(model, report)


def test_large_generated_model_validates():
    from time import perf_counter

    from wdexp.generator import GenParams, gen_model

    m = gen_model(GenParams.from_strings("0,1/2,1,2", classes_per_level=40))
    assert len(m.classes) == 163
    start = perf_counter()
    fresh = ModelInstance(m.classes.values(), pairing(m), m.characters)
    assert validate_model(fresh).ok
    assert perf_counter() - start < 0.3


# -- row tests: same reports as plain per-cell loops -----------------------


def _reference_cells(m):
    """M1-M5 as plain loops over every cell, in the validator's order, on
    the rationals that `pair` and the classes give."""
    ids, c = sorted(m.classes), m.classes
    out = {"M1": [], "M2": [], "M3": [], "M4": [], "M5": []}
    if "u" in c:
        out["M2"] = [Violation("M2", ("u", i), pair(m, "u", i), c[i].slope)
                     for i in ids if pair(m, "u", i) != c[i].slope]
    for a, i in enumerate(ids):
        for j in ids[a:]:
            s, dims = pair(m, i, j), c[i].dim * c[j].dim
            if s < 0:
                out["M1"].append(Violation("M1", (i, j), s, Fraction(0)))
            elif (dims * s).denominator != 1:
                out["M1"].append(Violation("M1", (i, j), dims * s, Fraction(0)))
            hi = max(c[i].slope, c[j].slope)
            if s > hi or (c[i].slope != c[j].slope and s != hi):
                out["M3"].append(Violation("M3", (i, j), s, hi))
            image = pair(m, c[i].dual, c[j].dual)
            if s != image:
                out["M4"].append(Violation("M4", (i, j), s, image))
    for i in ids:
        diag = pair(m, i, c[i].dual)
        for k in ids:
            if diag > pair(m, i, k):
                out["M5"].append(Violation("M5", (i, k), diag, pair(m, i, k)))
    return out


def _per_cell_report(m, report):
    """`report` with M1-M6 replaced by the plain loops' violations."""
    ref = _reference_cells(m)
    kept = [v for v in report.violations if v.axiom not in ("M1", "M2", "M3", "M4", "M5", "M6")]
    before = [v for v in kept if v.axiom not in _AFTER_M6]
    return (before + ref["M1"] + ref["M2"] + ref["M3"] + ref["M4"] + ref["M5"]
            + _reference_m6(m) + [v for v in kept if v.axiom in _AFTER_M6])


def _axiom_breaks(m, rng):
    """`m` with an entry made negative, raised above the max rule or moved
    off the grid of L, with and without its dual image {dual i, dual j},
    for a random entry and for s(i,i) of a class that is not self-dual; and
    with one self-pairing s(i, dual i) = D(i,i) raised to the largest entry
    of its row."""
    classes, entries = list(m.classes.values()), pairing(m)
    picks = [rng.choice(sorted(entries))]
    paired = [i for i in m.ids if m.classes[i].dual != i]
    if paired:
        picks.append((rng.choice(paired),) * 2)
    out = []
    for (i, j), with_dual_image in product(picks, (False, True)):
        di, dj = sorted((m.classes[i].dual, m.classes[j].dual))
        hi = max(m.classes[i].slope, m.classes[j].slope)
        for new in (-Fraction(1, 2), hi + Fraction(1, 2), entries[i, j] + Fraction(1, 7)):
            changed = {**entries, (i, j): new}
            if with_dual_image:
                changed[di, dj] = new
            out.append(ModelInstance(classes, changed, m.characters))
    i = rng.choice([i for i in m.ids if len({pair(m, i, k) for k in m.ids}) > 1])
    top = max(pair(m, i, k) for k in m.ids)
    out.append(ModelInstance(classes, {**entries, tuple(sorted((i, m.classes[i].dual))): top},
                             m.characters))
    return out


def test_row_tests_match_per_cell_loops():
    from wdexp.generator import GenParams, gen_model

    seen = set()
    for cpl in (2, 3, 4):
        for seed in range(4):
            m = gen_model(GenParams.from_strings("0,1/2,1,2", classes_per_level=cpl, seed=seed))
            for model in [m] + _axiom_breaks(m, random.Random(100 * cpl + seed)):
                report = validate_model(model)
                assert report.violations == _per_cell_report(model, report)
                seen |= {v.axiom for v in report.violations}
                seen |= {"M6 diagonal" for v in report.violations
                         if v.axiom == "M6" and v.witness[0] == v.witness[1]}
    assert {"M1", "M2", "M3", "M4", "M5", "M6", "M6 diagonal"} <= seen


# -- the integer view: same reports as the rational comparisons ------------


def _validation_lines():
    for n, m in enumerate(validation_bases()):
        for k, model in enumerate(perturbations(m, random.Random(n))):
            yield f"-- {n}.{k}"
            for v in validate_model(model).violations:
                yield str(v)


def test_validation_reports_are_pinned():
    # sha256 of every violation line over about 200 perturbations, recorded
    # when the validator still compared Fractions read through the pairing,
    # and re-recorded when the class flags moved onto the kernel rows of
    # `class_minimality`, which changed only flag_* lines.
    lines = list(_validation_lines())
    assert sum(line.startswith("-- ") for line in lines) == 204
    assert hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest() == (
        "12bf10e7a4420a993c7b93121318d8afc95898e25eef5ff9355cbfe098877ae1")


def test_integer_view_holds_the_pairing(zoo_model):
    from wdexp.generator import GenParams, gen_model

    models = [zoo_model] + [gen_model(GenParams.from_strings("0,1/2,1,2", seed=seed))
                            for seed in range(10)]
    for m in models:
        assert m.ids == tuple(sorted(m.classes))
        for a, i in enumerate(m.ids):
            c = m.classes[i]
            assert m.index[i] == m.at(i) == a
            assert (m.dim[a], m.deg[a], m.ids[m.dual[a]]) == (c.dim, c.deg, c.dual)
            assert Fraction(m.slope[a], m.L) == c.slope
        assert len(pairing(m)) == len(m.ids) * (len(m.ids) + 1) // 2
        for (i, j), value in pairing(m).items():
            assert i <= j
            assert Fraction(m.S[m.at(i)][m.at(j)], m.L) == Fraction(m.S[m.at(j)][m.at(i)], m.L) == value
        assert tuple(m.ids[c] for c in m.chars) == m.characters
    with pytest.raises(ModelStructureError, match="unknown class id 'nope'"):
        zoo_model.at("nope")


# -- M8 on the kernel's rows -----------------------------------------------


def _rational_kernel(m, i, j):
    """(ar, dim) of Sp_1(i) tensor Sp_1(j) from the pairing's rationals and
    the classes: ar = sw + dim - (deg_i if j is the dual of i); None where
    sw = dim*s(i,j) is not an integer."""
    ci, cj = m.classes[i], m.classes[j]
    dim = ci.dim * cj.dim
    sw = dim * pair(m, i, j)
    if sw.denominator != 1:
        return None
    return sw + dim - (ci.deg if j == ci.dual else 0), dim


def _reference_m8(m):
    """M8 as the per-cell loop over `indec_tensor_kernel`, in order."""
    out = []
    for i in m.ids:
        ci = m.classes[i]
        if not ci.minimal_eta or ci.dim < 1:
            continue
        for j in m.ids:
            if m.classes[j].dim < 1:
                continue
            try:
                ar, _sw, dim = indec_tensor_kernel(1, i, 1, j, m)
            except ValueError:
                continue
            top = max(Fraction(0) if k == "u" else m.classes[k].slope + 1 for k in (i, j))
            if Fraction(ar, dim) < top / 2:
                out.append(Violation("M8", (i, j), Fraction(ar, dim), top / 2))
    return out


def test_kernel_row_matches_the_kernel_on_every_cell():
    # Dropping the kernel's deg*min(r,s) term, in `indec_tensor_kernel` or
    # in `kernel_row` (each adds up its own Artin exponents), must fail this
    # test: either makes the row and the kernel differ on the dual cells.
    from wdexp.generator import GenParams, gen_model

    seen = set()
    for cpl in range(2, 6):
        for seed in range(3):
            m = gen_model(GenParams.from_strings("0,1/2,1,2", classes_per_level=cpl, seed=seed))
            for model in [m] + perturbations(m, random.Random(10 * cpl + seed)):
                for a, i in enumerate(model.ids):
                    lar, lsw, dims = kernel_row(a, model)
                    for b, j in enumerate(model.ids):
                        ref = _rational_kernel(model, i, j)
                        if lsw[b] % model.L:
                            assert ref is None
                            assert lsw[b] == model.L * dims[b] * pair(model, i, j)
                            with pytest.raises(ValueError, match="is not an integer"):
                                indec_tensor_kernel(1, i, 1, j, model)
                            seen.add("raises")
                            continue
                        ar, sw, dim = indec_tensor_kernel(1, i, 1, j, model)
                        assert (lar[b], lsw[b], dims[b]) == (model.L * ar, model.L * sw, dim)
                        assert ref == (ar, dim)
                        seen.add("dual" if j == model.classes[i].dual else "other")
                report = validate_model(model)
                m8 = [v for v in report.violations if v.axiom == "M8"]
                assert m8 == _reference_m8(model)
                seen |= {"M8"} if m8 else set()
    assert seen == {"raises", "dual", "other", "M8"}


def test_m8_dual_cells_of_negative_deg_and_duals_of_dim_0():
    # `perturbations` sets deg to 0 or dim + 1 only.  Here one eta-minimal
    # class at a time gets deg -1 or -dim, which puts the floor of its dual
    # cell below the shared one, with that cell's entry swept across both
    # floors in steps of 1/(dim*dim_dual); or its dual gets dim 0, a cell
    # M8 skips.
    from wdexp.generator import GenParams, gen_model

    dual_reports = 0
    for cpl, seed in ((2, 0), (3, 1)):
        m = gen_model(GenParams.from_strings("0,1/2,1,2", classes_per_level=cpl, seed=seed))
        classes, entries = [m.classes[i] for i in m.ids], pairing(m)
        for c in classes:
            if not c.minimal_eta:
                continue
            a, d, key = m.at(c.id), m.at(c.dual), tuple(sorted((c.id, c.dual)))
            k = c.dim * classes[d].dim
            variants = [(d, classes[d]._replace(dim=0), {})]
            variants += [(a, c._replace(deg=deg), {key: Fraction(t, k)})
                         for deg in sorted({-1, -c.dim}) for t in range(-k - 1, k + 1)]
            for b, changed, entry in variants:
                model = ModelInstance(classes[:b] + [changed] + classes[b + 1:],
                                      {**entries, **entry}, m.characters)
                m8 = [v for v in validate_model(model).violations if v.axiom == "M8"]
                assert m8 == _reference_m8(model)
                dual_reports += sum(v.witness == (c.id, c.dual) for v in m8)
    assert dual_reports


# -- the subdominant ultrametric against the minimax closure ---------------


def _minimax_closure(W):
    """Floyd-Warshall with (min, max): the least largest weight over all
    paths, off the diagonal."""
    n = len(W)
    U = [list(row) for row in W]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = max(U[i][k], U[k][j])
                if via < U[i][j]:
                    U[i][j] = via
    return [[None if i == j else U[i][j] for j in range(n)] for i in range(n)]


def test_subdominant_ultrametric_is_the_minimax_closure():
    from wdexp.generator import GenParams, gen_model

    matrices = []
    for cpl in range(2, 6):
        for seed in range(3):
            m = gen_model(GenParams.from_strings("0,1/2,1,2", classes_per_level=cpl, seed=seed))
            for model in [m] + [_perturbed(m, random.Random(seed), True) for _ in range(2)]:
                D = [[model.S[a][model.dual[b]] for b in range(len(model.ids))]
                     for a in range(len(model.ids))]
                matrices.append([[min(x, y) for x, y in zip(row, col)]
                                 for row, col in zip(D, zip(*D))])
    rng = random.Random(0)
    for n in list(range(13)) + [30]:
        for _ in range(20):
            # few values, so many ties
            A = [[rng.randrange(-1, 3) for _ in range(n)] for _ in range(n)]
            matrices.append([[min(A[i][j], A[j][i]) for j in range(n)] for i in range(n)])
    assert {len(W) for W in matrices} >= {0, 1, 2}
    for W in matrices:
        U = _subdominant_ultrametric(W)
        n = len(W)
        assert [[None if a == b else U[a][b] for b in range(n)] for a in range(n)] == (
            _minimax_closure(W))
