"""Abstract model of irreducible twist-orbit classes and their tensor slopes.

A model instance holds a finite set of irreducible classes (unramified-twist
orbits of irreducible Weil representations, keyed by opaque ids), a symmetric
table of tensor slopes s(i,j) = slope of class_i tensor class_j, and the list
of dimension-1 classes (the in-model character set).  The distinguished id
"u" is reserved for the unramified-character orbit.

`validate_model` checks the axiom set M1-M8 plus the structural type
invariants and reports every violation with an explicit witness.  Structural
defects (unresolvable ids, a dual map that is not an involution, missing
pairing entries) raise `ModelStructureError` instead: they make the axiom
checks meaningless rather than false.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

from .rationals import format_rational, parse_rational

UNRAMIFIED_ID = "u"

MODES = ("sigma", "eta")


class ModelStructureError(ValueError):
    """Ill-formed model: ids do not resolve, dual is not an involution, etc."""


@dataclass(frozen=True)
class IrreducibleClass:
    """One unramified-twist orbit of irreducibles.

    dim       -- dimension m >= 1
    slope     -- Swan slope, a rational >= 0 with m*slope an integer
    deg       -- twist degeneracy: number of unramified characters fixing
                 the orbit under twisting; divides dim
    dual      -- id of the contragredient orbit
    minimal_sigma / minimal_eta -- minimality flags, asserted by whoever
                 built the model and re-verified against the in-model
                 character set by the validator
    """

    id: str
    dim: int
    slope: Fraction
    deg: int
    dual: str
    minimal_sigma: bool = False
    minimal_eta: bool = False

    @property
    def swan(self) -> Fraction:
        return self.dim * self.slope


def _pair_key(i: str, j: str) -> tuple[str, str]:
    return (i, j) if i <= j else (j, i)


class PairingTable:
    """Symmetric map from unordered class-id pairs {i,j} to tensor slopes."""

    def __init__(self, entries):
        self._d = {_pair_key(i, j): Fraction(v) for (i, j), v in entries.items()}

    def get(self, i: str, j: str) -> Fraction:
        try:
            return self._d[_pair_key(i, j)]
        except KeyError:
            raise ModelStructureError(f"missing pairing entry for {{{i},{j}}}") from None

    def has(self, i: str, j: str) -> bool:
        return _pair_key(i, j) in self._d

    def items(self):
        return sorted(self._d.items())

    def __eq__(self, other):
        return isinstance(other, PairingTable) and self._d == other._d


def complete_pairing(classes, entries) -> PairingTable:
    """The pairing table over `classes` holding `entries` ({(i, j): slope})
    and every omitted entry that M2 (unit row: s(u,i) = slope_i) or M3
    (distinct slopes: s(i,j) = the larger slope) forces.

    An omitted entry between two classes of equal slope is ambiguous, and an
    entry naming an unknown id is ill-formed: both raise ModelStructureError.
    """
    by_id = {c.id: c for c in classes}
    table = {}
    for (i, j), v in entries.items():
        if i not in by_id or j not in by_id:
            raise ModelStructureError(f"pairing names unknown id in {{{i},{j}}}")
        table[_pair_key(i, j)] = v
    ids = sorted(by_id)
    for a, i in enumerate(ids):
        for j in ids[a:]:
            if (i, j) in table:
                continue
            if i == UNRAMIFIED_ID or j == UNRAMIFIED_ID:
                table[i, j] = by_id[j if i == UNRAMIFIED_ID else i].slope
            elif by_id[i].slope != by_id[j].slope:
                table[i, j] = max(by_id[i].slope, by_id[j].slope)
            else:
                raise ModelStructureError(
                    f"pairing entry {{{i},{j}}} omitted but not forced by the unit row or the max rule"
                )
    return PairingTable(table)


class ModelInstance:
    """Immutable bundle of classes, pairing, characters: `classes` is a
    read-only mapping from id to class, and no attribute can be rebound.
    Immutability is what lets `digest()` serialize the model only once."""

    __slots__ = ("classes", "pairing", "characters", "_digest")

    def __init__(self, classes, pairing: PairingTable, characters):
        by_id: dict[str, IrreducibleClass] = {}
        for c in classes:
            if c.id in by_id:
                raise ModelStructureError(f"duplicate class id {c.id!r}")
            by_id[c.id] = c
        object.__setattr__(self, "classes", MappingProxyType(by_id))
        object.__setattr__(self, "pairing", pairing)
        object.__setattr__(self, "characters", tuple(characters))
        object.__setattr__(self, "_digest", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"ModelInstance is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"ModelInstance is immutable: cannot delete {name!r}")

    # -- lookups ---------------------------------------------------------

    def cls(self, i: str) -> IrreducibleClass:
        try:
            return self.classes[i]
        except KeyError:
            raise ModelStructureError(f"unknown class id {i!r}") from None

    def dual(self, i: str) -> str:
        return self.cls(i).dual

    def dim(self, i: str) -> int:
        return self.cls(i).dim

    def slope(self, i: str) -> Fraction:
        return self.cls(i).slope

    def deg(self, i: str) -> int:
        return self.cls(i).deg

    def pair(self, i: str, j: str) -> Fraction:
        self.cls(i), self.cls(j)
        return self.pairing.get(i, j)

    # -- structure -------------------------------------------------------

    def structural_check(self):
        """Raise ModelStructureError unless ids resolve, dual is an
        involution and every pairing entry is present."""
        ids = set(self.classes)
        for c in self.classes.values():
            if c.dual not in ids:
                raise ModelStructureError(f"dual of {c.id!r} is unknown id {c.dual!r}")
        for c in self.classes.values():
            if self.classes[c.dual].dual != c.id:
                raise ModelStructureError(f"dual map is not an involution at {c.id!r}")
        for i in ids:
            for j in ids:
                if not self.pairing.has(i, j):
                    raise ModelStructureError(f"missing pairing entry for {{{i},{j}}}")
        for ch in self.characters:
            if ch not in ids:
                raise ModelStructureError(f"character list names unknown id {ch!r}")

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        classes = []
        for i in sorted(self.classes):
            c = self.classes[i]
            flags = []
            if c.minimal_sigma:
                flags.append("minimal_sigma")
            if c.minimal_eta:
                flags.append("minimal_eta")
            classes.append(
                {
                    "id": c.id,
                    "dim": c.dim,
                    "slope": format_rational(c.slope),
                    "deg": c.deg,
                    "dual": c.dual,
                    "flags": flags,
                }
            )
        pairing = [
            {"i": i, "j": j, "slope": format_rational(v)}
            for (i, j), v in self.pairing.items()
        ]
        return {"classes": classes, "pairing": pairing, "characters": sorted(self.characters)}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    def digest(self) -> str:
        """sha256 of `to_json()`, computed on the first call and kept."""
        if self._digest is None:
            object.__setattr__(self, "_digest", hashlib.sha256(self.to_json().encode()).hexdigest())
        return self._digest


def dualized(m: ModelInstance) -> ModelInstance:
    """The model with every class replaced by its dual.

    Class data is dual-invariant apart from the dual pointer itself, so the
    effect is to re-source each pairing entry {i,j} from {dual(i),dual(j)}.
    """
    entries = {}
    for (i, j), _ in m.pairing.items():
        entries[_pair_key(i, j)] = m.pairing.get(m.dual(i), m.dual(j))
    return ModelInstance(m.classes.values(), PairingTable(entries), m.characters)


# -- validation -----------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: tuple[str, ...]
    lhs: Fraction
    rhs: Fraction

    def __str__(self):
        ids = ",".join(self.witness)
        return f"{self.axiom}[{ids}]: lhs={format_rational(self.lhs)} rhs={format_rational(self.rhs)}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, axiom, witness, lhs, rhs):
        self.violations.append(Violation(axiom, tuple(witness), Fraction(lhs), Fraction(rhs)))

    def labels(self) -> set[str]:
        return {v.axiom for v in self.violations}


def is_minimal_class(i: str, mode: str, m: ModelInstance) -> bool:
    """Whether twisting by any in-model character can lower the exponent.

    mode "sigma": every character chi satisfies dim_i * s(chi,i) >= sw_i.
    mode "eta":   every character chi satisfies ar(chi ox sigma_i) >= ar_i,
    where the twisted Artin exponent is dim_i*(s(chi,i)+1) except that it is
    0 when dim_i = 1 and chi is the dual orbit (the twist lands in the
    unramified orbit).  Minimality is relative to the model's character set.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    c = m.cls(i)
    if mode == "sigma":
        sw = c.swan
        return all(c.dim * m.pair(chi, i) >= sw for chi in m.characters)
    ar_i = class_artin(i, m)
    for chi in m.characters:
        if c.dim == 1 and chi == c.dual:
            twisted = Fraction(0)
        else:
            twisted = c.dim * (m.pair(chi, i) + 1)
        if twisted < ar_i:
            return False
    return True


def class_artin(i: str, m: ModelInstance) -> Fraction:
    """Artin exponent of a single class: 0 for the unramified orbit,
    dim*(slope+1) otherwise."""
    if i == UNRAMIFIED_ID:
        return Fraction(0)
    c = m.cls(i)
    return c.dim * (c.slope + 1)


def class_eta(i: str, m: ModelInstance) -> Fraction:
    return class_artin(i, m) / m.dim(i)


def _is_ultrametric(ids, dist) -> bool:
    """Whether the symmetric matrix `dist` over `ids` is an ultrametric off
    the diagonal: dist[i, j] <= max(dist[i, k], dist[k, j]) for distinct
    i, j, k.  O(n^2).

    Such a matrix is an ultrametric exactly when it equals its subdominant
    ultrametric: the largest entry on the path from i to j in a minimum
    spanning tree (Gower & Ross 1969, single linkage).  Prim's algorithm
    builds the tree, and a walk from each id gives those path maxima.  The
    walks compare every ordered pair of distinct ids, so True is sound even
    for a matrix that is not symmetric.
    """
    if not ids:
        return True
    best = {j: dist[ids[0], j] for j in ids[1:]}  # cheapest edge into the tree
    via = dict.fromkeys(ids[1:], ids[0])
    tree = {i: [] for i in ids}
    while best:
        j = min(best, key=best.__getitem__)
        w = best.pop(j)
        i = via.pop(j)
        tree[i].append((j, w))
        tree[j].append((i, w))
        for k, bk in best.items():
            if dist[j, k] < bk:
                best[k], via[k] = dist[j, k], j
    for root in ids:
        stack = [(j, root, w) for j, w in tree[root]]
        while stack:
            j, parent, path_max = stack.pop()
            if dist[root, j] != path_max:
                return False
            stack.extend((k, j, max(path_max, w)) for k, w in tree[j] if k != parent)
    return True


def validate_model(m: ModelInstance) -> ValidationReport:
    """Exhaustively check M1-M8 and the type invariants.

    Deterministic; every failed check is recorded with witness ids and both
    sides of the failed comparison.  Structural problems raise instead.

    M6 is checked in O(n^2) when M4 and M5 hold: a minimum spanning tree of
    D(i,j) = s(i, dual j) shows whether D is an ultrametric.  When M4 or M5
    failed, or D is not an ultrametric, the O(n^3) loop over all triples
    runs and records every witness (i, j, k) in order.
    """
    from .exponents import indec_tensor_kernel  # deferred: exponents imports model

    m.structural_check()
    rep = ValidationReport()
    ids = sorted(m.classes)

    # Type invariants on classes.
    for i in ids:
        c = m.classes[i]
        if c.dim < 1:
            rep.add("dim_positive", (i,), c.dim, 1)
        if c.deg < 1:
            rep.add("deg_positive", (i,), c.deg, 1)
        if c.slope < 0:
            rep.add("slope_nonneg", (i,), c.slope, 0)
        if c.dim >= 1 and (c.dim * c.slope).denominator != 1:
            rep.add("slope_integral", (i,), c.dim * c.slope, 0)
        if c.deg >= 1 and c.dim % c.deg != 0:
            rep.add("deg_divides_dim", (i,), c.dim % c.deg, 0)
        if c.dim == 1 and c.deg != 1:
            rep.add("char_deg", (i,), c.deg, 1)
        d = m.classes[c.dual]
        if (d.dim, d.slope, d.deg) != (c.dim, c.slope, c.deg):
            rep.add("dual_preserves_data", (i, c.dual), Fraction(d.dim), Fraction(c.dim))

    # The distinguished unramified orbit.
    if UNRAMIFIED_ID not in m.classes:
        rep.add("unit_class", (UNRAMIFIED_ID,), 0, 1)
    else:
        u = m.classes[UNRAMIFIED_ID]
        if u.dim != 1 or u.slope != 0 or u.dual != UNRAMIFIED_ID:
            rep.add("unit_class", (UNRAMIFIED_ID,), u.dim * (u.slope + 1), 1)

    # Character list: exactly the dim-1 classes, u included.
    chars = set(m.characters)
    dim1 = {i for i in ids if m.classes[i].dim == 1}
    if chars != dim1 or (UNRAMIFIED_ID in m.classes and UNRAMIFIED_ID not in chars):
        rep.add("character_set", tuple(sorted(chars.symmetric_difference(dim1))), len(chars), len(dim1))

    # A character orbit tensored with its dual is unramified: slope 0.
    for i in ids:
        c = m.classes[i]
        if c.dim == 1 and m.pair(i, c.dual) != 0:
            rep.add("char_self_pairing", (i, c.dual), m.pair(i, c.dual), 0)

    # M1 integrality, and non-negativity of entries.
    for (i, j), s in m.pairing.items():
        if s < 0:
            rep.add("M1", (i, j), s, 0)
        elif (m.dim(i) * m.dim(j) * s).denominator != 1:
            rep.add("M1", (i, j), m.dim(i) * m.dim(j) * s, 0)

    # M2 unit row.
    if UNRAMIFIED_ID in m.classes:
        for i in ids:
            if m.pair(UNRAMIFIED_ID, i) != m.slope(i):
                rep.add("M2", (UNRAMIFIED_ID, i), m.pair(UNRAMIFIED_ID, i), m.slope(i))

    # M3 max rule.
    for a, i in enumerate(ids):
        for j in ids[a:]:
            s = m.pair(i, j)
            hi = max(m.slope(i), m.slope(j))
            if s > hi:
                rep.add("M3", (i, j), s, hi)
            elif m.slope(i) != m.slope(j) and s != hi:
                rep.add("M3", (i, j), s, hi)

    # M4 dual symmetry.
    for a, i in enumerate(ids):
        for j in ids[a:]:
            if m.pair(i, j) != m.pair(m.dual(i), m.dual(j)):
                rep.add("M4", (i, j), m.pair(i, j), m.pair(m.dual(i), m.dual(j)))

    # M5 diagonal minimality.
    for i in ids:
        diag = m.pair(i, m.dual(i))
        for k in ids:
            if diag > m.pair(i, k):
                rep.add("M5", (i, k), diag, m.pair(i, k))

    # M6 ultrametric on D(i,j) = s(i, dual j).  With M4, D is symmetric:
    # D(j,i) = s(dual i, j) = s(i, dual j).  With M5, D(i,i) <= D(i,k) for
    # every k, so only triples of three distinct ids can fail.  Then the
    # O(n^2) check decides, and the triple loop that lists the witnesses
    # runs only when M4 or M5 failed or that check found D not ultrametric.
    dist = {(i, j): m.pair(i, m.dual(j)) for i in ids for j in ids}
    if rep.labels() & {"M4", "M5"} or not _is_ultrametric(ids, dist):
        for i in ids:
            for j in ids:
                dij = dist[i, j]
                for k in ids:
                    bound = max(dist[i, k], dist[k, j])
                    if dij > bound:
                        rep.add("M6", (i, j, k), dij, bound)

    # M7 minimal self-pairing.
    for i in ids:
        c = m.classes[i]
        if c.minimal_sigma and m.pair(i, c.dual) < c.slope / 2:
            rep.add("M7", (i,), m.pair(i, c.dual), c.slope / 2)

    # M8 irreducible-level lower bound for eta-minimal classes.  The kernel
    # needs integral Swan exponents and both sides divide by dimensions; when
    # M1 or dim_positive already failed, that violation is on record and the
    # M8 comparison is skipped.
    for i in ids:
        if not m.classes[i].minimal_eta or m.classes[i].dim < 1:
            continue
        eta_i = class_eta(i, m)
        for j in ids:
            if m.classes[j].dim < 1:
                continue
            try:
                ar, _sw, dim = indec_tensor_kernel(1, i, 1, j, m)
            except ValueError:
                continue
            lhs = Fraction(ar, dim)
            rhs = max(eta_i, class_eta(j, m)) / 2
            if lhs < rhs:
                rep.add("M8", (i, j), lhs, rhs)

    # Flags re-verified against the character set, both directions.
    for i in ids:
        c = m.classes[i]
        for mode, flag in (("sigma", c.minimal_sigma), ("eta", c.minimal_eta)):
            actual = is_minimal_class(i, mode, m)
            if flag != actual:
                rep.add(f"flag_{mode}", (i,), int(flag), int(actual))

    return rep


# -- model files ----------------------------------------------------------


def _require_list(doc: dict, key: str, default=None) -> list:
    value = doc.get(key, default)
    if not isinstance(value, list):
        raise ModelStructureError(f"{key!r} must be a list, got {type(value).__name__}")
    return value


# Required keys of class and pairing entries, with their JSON types.
_FIELD_TYPES = {"id": str, "dim": int, "slope": (str, int), "deg": int, "dual": str,
                "i": str, "j": str}


def _require_fields(entry, keys, where: str) -> list:
    if not isinstance(entry, dict):
        raise ModelStructureError(f"{where} must be an object, got {type(entry).__name__}")
    values = []
    for key in keys:
        value = entry.get(key)
        if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES[key]):
            raise ModelStructureError(f"{where}: {key!r} is missing or has the wrong type")
        values.append(value)
    return values


def model_from_json_dict(doc: dict) -> ModelInstance:
    """Build a ModelInstance from the JSON document format.

    Omitted pairing entries are filled in by `complete_pairing`.  A document
    that is not an object, a `classes`, `pairing`, `characters` or `flags`
    value that is not a list, a required key that is missing or has the
    wrong type, two pairing entries for the same unordered pair and a
    repeated character id all raise ModelStructureError.
    """
    if not isinstance(doc, dict):
        raise ModelStructureError(f"a model document must be an object, got {type(doc).__name__}")
    classes = []
    for k, c in enumerate(_require_list(doc, "classes")):
        cid, dim, slope, deg, dual = _require_fields(
            c, ("id", "dim", "slope", "deg", "dual"), f"class {k}")
        flags = _require_list(c, "flags", [])
        classes.append(IrreducibleClass(cid, dim, parse_rational(slope), deg, dual,
                                        "minimal_sigma" in flags, "minimal_eta" in flags))
    entries = {}
    for k, e in enumerate(_require_list(doc, "pairing", [])):
        i, j, slope = _require_fields(e, ("i", "j", "slope"), f"pairing entry {k}")
        if _pair_key(i, j) in entries:
            raise ModelStructureError(f"pairing entry {k} repeats the pair {{{i},{j}}}")
        entries[_pair_key(i, j)] = parse_rational(slope)
    characters = _require_list(doc, "characters", [])
    if not all(isinstance(ch, str) for ch in characters):
        raise ModelStructureError("'characters' must list class ids")
    if len(set(characters)) != len(characters):
        raise ModelStructureError("'characters' lists a class id twice")
    model = ModelInstance(classes, complete_pairing(classes, entries), characters)
    model.structural_check()
    return model


def load_model(path) -> ModelInstance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ModelStructureError(f"model file {path} nests too deeply") from None
    return model_from_json_dict(doc)


def dump_model(m: ModelInstance, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(m.to_json())
