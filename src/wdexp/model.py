"""Abstract model of irreducible twist-orbit classes and their tensor slopes.

A model instance holds a finite set of irreducible classes (unramified-twist
orbits of irreducible Weil representations, keyed by opaque ids), a symmetric
table of tensor slopes s(i,j) = slope of class_i tensor class_j, and the list
of dimension-1 classes (the in-model character set).  The distinguished id
"u" is reserved for the unramified-character orbit.

`validate_model` checks the axiom set M1-M8 plus the structural type
invariants and reports every violation with an explicit witness.  It checks
the class flags against `exponents.class_minimality`, the one
twist-minimality rule, which `is_minimal_class` looks up.  Structural
defects (unresolvable ids, a dual map that is not an involution, repeated
pairing entries, an omitted entry that nothing forces) make `ModelInstance`
raise `ModelStructureError` when the model is built: they make the axiom
checks meaningless rather than false.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from itertools import chain, compress, repeat
from operator import ge, gt, le, lt, mod, ne, or_
from types import MappingProxyType
from typing import NamedTuple

from .rationals import format_rational, parse_rational

UNRAMIFIED_ID = "u"

MODES = ("sigma", "eta")

# The class flags of a model file, in the order they are written.
_FLAGS = ("minimal_sigma", "minimal_eta")


class ModelStructureError(ValueError):
    """Ill-formed model: ids do not resolve, dual is not an involution, etc."""


class IrreducibleClass(NamedTuple):
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


class ModelInstance:
    """Immutable model: classes, pairing and characters, with the integer
    tables the validator, the kernel and minimality read, built once here.

    The constructor is the one pairing-completion rule.  `entries` maps id
    pairs (i, j) to slopes; every entry it omits must be forced, by M2 (the
    unit row: s(u,i) = slope_i) or by M3 (distinct slopes: s(i,j) = the
    larger slope).  An omitted entry between two classes of equal slope is
    ambiguous.

    Class a is the a-th id in sorted order (`ids`, with `index` mapping id
    to a), and `dim`, `deg`, `dual` (an index) and `slope` are tuples over
    a; `chars` lists the indices of the characters.  L is the lcm of the
    denominators of every slope and pairing entry, so `slope[a]` = L*slope
    and `S[a][b]` = L*s(i,j) are exact ints for any input; S is the
    model's only copy of the pairing.  `classes` maps id to class and is
    read-only.  No attribute can be rebound, which is what lets `to_json()`
    make the file's text from S once and keep it, and `digest()` hash that
    one text.

    Construction raises ModelStructureError, in this order, unless every
    pairing entry names known ids, no pair is given in both orders, every
    omitted entry is forced, class ids are distinct, duals resolve, dual is
    an involution and every character resolves.
    """

    __slots__ = ("classes", "characters", "ids", "index", "dim", "deg", "dual",
                 "chars", "L", "slope", "S", "_json", "_digest")

    def __init__(self, classes, entries, characters):
        # The order of the checks fixes which defect a message names.
        classes = list(classes)
        by_id = {c.id: c for c in classes}
        ids = tuple(sorted(by_id))
        index = {i: a for a, i in enumerate(ids)}
        ordered = [by_id[i] for i in ids]
        values = entries.values()  # each distinct value object is scaled once
        distinct = dict(zip(map(id, values), values))
        L = math.lcm(*{c.slope.denominator for c in ordered},
                     *{v.denominator for v in distinct.values()})
        scaled = {k: v.numerator * (L // v.denominator) for k, v in distinct.items()}
        slope = tuple(c.slope.numerator * (L // c.slope.denominator) for c in ordered)
        n = len(ids)
        S = [[None] * n for _ in range(n)]
        try:
            for (i, j), v in entries.items():
                a, b = index[i], index[j]
                S[a][b] = S[b][a] = scaled[id(v)]
        except KeyError:
            raise ModelStructureError(f"pairing names unknown id in {{{i},{j}}}") from None
        # A pair given in both orders fills one cell a <= b for two entries.
        filled = sum(n - a - row[a:].count(None) for a, row in enumerate(S))
        if filled < len(entries):
            i, j = min(k for k in entries if k[0] < k[1] and k[::-1] in entries)
            raise ModelStructureError(f"pairing gives the pair {{{i},{j}}} twice")
        u = index.get(UNRAMIFIED_ID)
        if filled < n * (n + 1) // 2:
            # A row with a gap takes the forced values of its slope's row:
            # the unit row's value in column u (row u is `slope` itself), the
            # larger slope where the slopes differ, None where they are equal.
            # The forced values are symmetric, so a gap left below the
            # diagonal would have raised at its mirror in an earlier row.
            forced = {}
            for a, row in enumerate(S):
                if None not in row:
                    continue
                f = slope if a == u else forced.get(slope[a])
                if f is None:
                    sa = slope[a]
                    f = forced[sa] = [None if sb == sa else max(sa, sb) for sb in slope]
                    if u is not None:
                        f[u] = sa
                row[:] = [x if x is not None else y for x, y in zip(row, f)]
                if None in row:
                    b = row.index(None)
                    raise ModelStructureError(f"pairing entry {{{ids[a]},{ids[b]}}} omitted "
                                              "but not forced by the unit row or the max rule")
        seen = set()
        for c in classes:
            if c.id in seen:
                raise ModelStructureError(f"duplicate class id {c.id!r}")
            seen.add(c.id)
        for c in by_id.values():
            if c.dual not in by_id:
                raise ModelStructureError(f"dual of {c.id!r} is unknown id {c.dual!r}")
        for c in by_id.values():
            if by_id[c.dual].dual != c.id:
                raise ModelStructureError(f"dual map is not an involution at {c.id!r}")
        characters = tuple(characters)
        for ch in characters:
            if ch not in index:
                raise ModelStructureError(f"character list names unknown id {ch!r}")
        for name, value in (
            ("classes", MappingProxyType(by_id)),
            ("characters", characters),
            ("index", MappingProxyType(index)),
            ("ids", ids),
            ("dim", tuple(c.dim for c in ordered)),
            ("deg", tuple(c.deg for c in ordered)),
            ("dual", tuple(index[c.dual] for c in ordered)),
            ("chars", tuple(index[ch] for ch in characters)),
            ("L", L),
            ("slope", slope),
            ("S", tuple(map(tuple, S))),
            ("_json", None),
            ("_digest", None),
        ):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"ModelInstance is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"ModelInstance is immutable: cannot delete {name!r}")

    def __reduce__(self):  # copy and pickle rebuild the model from its file text
        doc = json.loads(self.to_json())
        return model_from_json_dict, ({**doc, "characters": list(self.characters)},)

    # -- lookups ---------------------------------------------------------

    def at(self, i: str) -> int:
        """The index of class i in `ids`."""
        try:
            return self.index[i]
        except KeyError:
            raise ModelStructureError(f"unknown class id {i!r}") from None

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        """The model file's text, made on the first call and kept: the text
        of `json.dumps(doc, sort_keys=True, separators=(",", ":"))`, where
        doc holds the classes, the pairing cells a <= b in row-major order
        and the sorted characters.  The classes and characters go through
        `json.dumps`; each pairing row is joined from pieces made once each,
        the quoted ids and the quoted text of each distinct value."""
        if self._json is None:
            ids, L, S = self.ids, self.L, self.S
            text = {v: format_rational(Fraction(v, L)) for v in {*self.slope, *chain(*S)}}
            classes = [{"id": i, "dim": c.dim, "slope": text[sl], "deg": c.deg, "dual": c.dual,
                        "flags": [f for f in _FLAGS if getattr(c, f)]}
                       for i, c, sl in zip(ids, map(self.classes.__getitem__, ids), self.slope)]
            head = json.dumps({"characters": sorted(self.characters), "classes": classes},
                              sort_keys=True, separators=(",", ":"))
            quoted = {v: json.dumps(t) for v, t in text.items()}
            qid = list(map(json.dumps, ids))
            rows = [",".join([f'{{"i":{qi},"j":{qj},"slope":{quoted[v]}}}'
                              for qj, v in zip(qid[a:], row[a:])])
                    for a, (qi, row) in enumerate(zip(qid, S))]
            object.__setattr__(self, "_json", f'{head[:-1]},"pairing":[{",".join(rows)}]}}\n')
        return self._json

    def digest(self) -> str:
        """sha256 of `to_json()`, computed on the first call and kept."""
        if self._digest is None:
            object.__setattr__(self, "_digest", hashlib.sha256(self.to_json().encode()).hexdigest())
        return self._digest


# -- validation -----------------------------------------------------------


class Violation(NamedTuple):
    axiom: str
    witness: tuple[str, ...]
    lhs: Fraction
    rhs: Fraction

    def __str__(self):
        ids = ",".join(self.witness)
        return f"{self.axiom}[{ids}]: lhs={format_rational(self.lhs)} rhs={format_rational(self.rhs)}"


class ValidationReport:
    __slots__ = ("violations",)

    def __init__(self, violations=None):
        self.violations: list[Violation] = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, axiom, witness, lhs, rhs):
        self.violations.append(Violation(axiom, tuple(witness), Fraction(lhs), Fraction(rhs)))

    def labels(self) -> set[str]:
        return {v.axiom for v in self.violations}


def is_minimal_class(i: str, mode: str, m: ModelInstance) -> bool:
    """Whether no in-model character twist of Sp_1(i) lowers its Swan
    exponent (mode "sigma") or its Artin exponent (mode "eta"): a lookup
    into `exponents.class_minimality`, which raises ModelStructureError
    when m has no unramified orbit."""
    from .exponents import class_minimality  # deferred: exponents imports model

    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    a = m.at(i)
    return class_minimality(m)[MODES.index(mode)][a]


def _subdominant_ultrametric(W) -> list[list[int]]:
    """U[a][b], a != b: the least over all a-b paths of the largest
    symmetric weight W on the path, which is the largest weight on the a-b
    path of a minimum spanning tree (Gower & Ross 1969).  Prim's algorithm
    hangs each new vertex b from p by weight w, so U[b][c] = max(U[p][c], w)
    for every c already in the tree.  The diagonal is left None.  O(n^2)."""
    n = len(W)
    U = [[None] * n for _ in range(n)]
    if not n:
        return U
    best, via = list(W[0]), [0] * n  # cheapest edge into the tree
    tree, rest = [0], list(range(1, n))
    while rest:
        b = min(rest, key=best.__getitem__)
        rest.remove(b)
        p, w = via[b], best[b]
        Ub, Up = U[b], U[p]
        for c in tree:
            Ub[c] = U[c][b] = w if c == p or Up[c] < w else Up[c]
        tree.append(b)
        Wb = W[b]
        for c in rest:
            if Wb[c] < best[c]:
                best[c], via[c] = Wb[c], b
    return U


def validate_model(m: ModelInstance) -> ValidationReport:
    """Exhaustively check M1-M8 and the type invariants.

    Deterministic; every failed check is recorded with witness ids and both
    sides of the failed comparison.  Structural problems raise instead.
    The comparisons are between the exact ints of the model's integer
    tables (`ModelInstance.S`, `slope`, ...), and a violation reports
    Fraction(S, L).

    M1-M5 and M8 state each rule once, as a C-level row test (of the unit
    row for M2); a failing row reports the cells that fail it taken cell by
    cell.  The type invariants, M7 and the flag check are one test per
    class, on the int tables.  M6 has one path.  Let U be the
    subdominant ultrametric of min(D, D^T), D(i,j) = s(i, dual j), which
    Prim's algorithm builds in O(n^2).  Any two-step path i-k-j has a
    largest weight of at least U(i,j), so an off-diagonal pair with
    D(i,j) <= U(i,j) has no witness k.  Row i of D is row i of S permuted,
    so every max(D(i,k), D(k,j)) is at least the least entry of that row,
    and the diagonal D(i,i) can have a witness only where M5 fails.  The
    loop over k runs only on those pairs, and only where
    D(i,j) > min_k max(D(i,k), D(k,j)), that is, where a witness exists.
    On a valid model that is O(n^2); the worst case, many pairs with
    witnesses, is still O(n^3).
    """
    from .exponents import class_minimality  # deferred: exponents imports model

    rep = ValidationReport()
    ids, S, L, slope, dim, deg, dual = m.ids, m.S, m.L, m.slope, m.dim, m.deg, m.dual
    n = len(ids)
    classes = [m.classes[i] for i in ids]

    def q(x):
        return Fraction(x, L)

    # Type invariants, one scan of the int tables, class by class.
    for a, i in enumerate(ids):
        d, g, sl = dim[a], deg[a], slope[a]
        if d < 1:
            rep.add("dim_positive", (i,), d, 1)
        if g < 1:
            rep.add("deg_positive", (i,), g, 1)
        if sl < 0:
            rep.add("slope_nonneg", (i,), q(sl), 0)
        if d >= 1 and d * sl % L:
            rep.add("slope_integral", (i,), q(d * sl), 0)
        if g >= 1 and d % g:
            rep.add("deg_divides_dim", (i,), d % g, 0)
        if d == 1 and g != 1:
            rep.add("char_deg", (i,), g, 1)
        b = dual[a]
        if (dim[b], slope[b], deg[b]) != (d, sl, g):
            rep.add("dual_preserves_data", (i, ids[b]), dim[b], d)

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
    for a in range(n):
        if dim[a] == 1 and S[a][dual[a]] != 0:
            rep.add("char_self_pairing", (ids[a], ids[dual[a]]), q(S[a][dual[a]]), 0)

    # M1-M5: a row that fails its test reports the cells that fail it, by
    # one `compress` scan over the same operands, in column order.
    lows = [min(row) for row in S]  # the least entry of each row
    least = min(lows, default=0)

    # M1 integrality, and non-negativity of entries.  dim_a * dim_b * S[a][b]
    # is a multiple of L exactly when S[a][b] is a multiple of
    # L / gcd(L, dim_a * dim_b); the rows of one dim share these steps.
    steps = {}
    for a in range(n):
        if dim[a] not in steps:
            steps[dim[a]] = tuple(L // math.gcd(L, dim[a] * d) for d in dim)
        tail, step = S[a][a:], steps[dim[a]][a:]
        if (least >= 0 or min(tail) >= 0) and not any(map(mod, tail, step)):
            continue
        for b in compress(range(a, n), (s < 0 or s % t for s, t in zip(tail, step))):
            s = S[a][b]
            rep.add("M1", (ids[a], ids[b]), q(s if s < 0 else dim[a] * dim[b] * s), 0)

    # M2 unit row.
    if UNRAMIFIED_ID in m.classes:
        unit_row = S[m.index[UNRAMIFIED_ID]]
        for a in compress(range(n), map(ne, unit_row, slope)):
            rep.add("M2", (UNRAMIFIED_ID, ids[a]), q(unit_row[a]), q(slope[a]))

    # M3 max rule: lo <= S[a][b] <= hi, where hi is the larger slope and lo
    # is hi if the slopes differ and the table's least entry if they are
    # equal.  The rows of one slope share hi and lo.
    bands = {}
    for a in range(n):
        if slope[a] not in bands:
            his = tuple(map(max, repeat(slope[a]), slope))
            bands[slope[a]] = his, tuple(least if sb == slope[a] else h for sb, h in zip(slope, his))
        his, los = bands[slope[a]]
        tail, lo, hi = S[a][a:], los[a:], his[a:]
        if all(map(le, lo, tail)) and all(map(le, tail, hi)):
            continue
        for b in compress(range(a, n), map(or_, map(gt, lo, tail), map(gt, tail, hi))):
            rep.add("M3", (ids[a], ids[b]), q(S[a][b]), q(his[b]))

    # M4 dual symmetry, on D(i,j) = s(i, dual j): S[a][b] = D[dual a][b].
    # S is symmetric, so column b of D is row dual b of S.
    Dt = [S[d] for d in dual]
    D = list(zip(*Dt))
    for a in range(n):
        tail, image = S[a][a:], D[dual[a]][a:]
        if tail == image:
            continue
        for b in compress(range(a, n), map(ne, tail, image)):
            rep.add("M4", (ids[a], ids[b]), q(S[a][b]), q(D[dual[a]][b]))

    # M5 diagonal minimality.
    for a in range(n):
        diag = S[a][dual[a]]
        if diag <= lows[a]:
            continue
        for k in compress(range(n), map(gt, repeat(diag), S[a])):
            rep.add("M5", (ids[a], ids[k]), q(diag), q(S[a][k]))

    # M6 ultrametric on D: witnesses (i, j, k) in order.  A row scan finds
    # the b with D(a,b) > U(a,b), and of those only a pair with
    # D(a,b) > min_k max(D(a,k), D(k,b)) has a witness.  Row a of D is row a
    # of S permuted by dual, so that minimum is at least lows[a], and with
    # U(a,a) = lows[a] the scan takes the diagonal only where M5 fails.
    W = D if D == Dt else [[x if x < y else y for x, y in zip(row, col)]
                           for row, col in zip(D, Dt)]  # min(D, D^T)
    U = _subdominant_ultrametric(W)
    for a in range(n):
        Da, Ua = D[a], U[a]
        Ua[a] = lows[a]
        for b in compress(range(n), map(gt, Da, Ua)):
            dab, Db = Da[b], Dt[b]
            if dab <= min(map(max, Da, Db)):
                continue
            for k in range(n):
                bound = max(Da[k], Db[k])
                if dab > bound:
                    rep.add("M6", (ids[a], ids[b], ids[k]), q(dab), q(bound))

    # M7 minimal self-pairing.
    for a, c in enumerate(classes):
        if c.minimal_sigma and 2 * S[a][dual[a]] < slope[a]:
            rep.add("M7", (ids[a],), q(S[a][dual[a]]), c.slope / 2)

    # M8 irreducible-level lower bound for eta-minimal classes i:
    # ar/dim >= max(eta_i, eta_j)/2, eta = slope + 1 (0 for u), stated once
    # as a floor on each cell of row i of S, with top = L*max(...).  For
    # k = dim_i*dim_j >= 1, L*ar = k*(S + L), less L*deg_i on the dual cell:
    # the floor is ceil(top/2) - L, shared by the rows of one eta, and on the
    # dual cell the least S with 2*(k*(S + L) - L*deg_i) >= k*top.  Cells
    # where dim_j < 1 or dim*S/L is not an integer are not reported:
    # dim_positive or M1 is on record there.
    eta = [0 if i == UNRAMIFIED_ID else sl + L for i, sl in zip(ids, slope)]
    tops = {}
    for a, i in enumerate(ids):
        if not classes[a].minimal_eta or dim[a] < 1:
            continue
        if eta[a] not in tops:
            top = tuple(map(max, repeat(eta[a]), eta))
            tops[eta[a]] = top, [(t + 1) // 2 - L for t in top]
        top, floors = tops[eta[a]]
        row, d, k = S[a], dual[a], dim[a] * dim[dual[a]]
        if k >= 1:
            floors = floors.copy()
            floors[d] = (k * top[d] + 2 * L * deg[a] + 2 * k - 1) // (2 * k) - L
        if all(map(ge, row, floors)):
            continue
        for b in compress(range(n), map(lt, row, floors)):
            kb = dim[a] * dim[b]
            if dim[b] >= 1 and not kb * row[b] % L:
                lar = kb * (row[b] + L) - (L * deg[a] if b == d else 0)
                rep.add("M8", (i, ids[b]), Fraction(lar, L * kb), Fraction(top[b], 2 * L))

    # Flags re-verified against the character set, both directions.  Without
    # u there is no rule to compare them with, and unit_class is on record.
    if UNRAMIFIED_ID in m.classes:
        for i, c, *actual in zip(ids, classes, *class_minimality(m)):
            for mode, flag, is_min in zip(MODES, (c.minimal_sigma, c.minimal_eta), actual):
                if flag != is_min:
                    rep.add(f"flag_{mode}", (i,), int(flag), int(is_min))

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


class _ParsedSlopes(dict):
    """Slope text to Fraction; each distinct text is parsed on its first
    lookup, so a document's few slope values are parsed once each."""

    def __missing__(self, text):
        value = self[text] = parse_rational(text)
        return value


def model_from_json_dict(doc: dict) -> ModelInstance:
    """Build a ModelInstance from the JSON document format.

    Omitted pairing entries are filled in by the ModelInstance constructor,
    which rejects an omission that nothing forces.  A document
    that is not an object, a `classes`, `pairing`, `characters` or `flags`
    value that is not a list, a required key that is missing or has the
    wrong type, a flag other than "minimal_sigma" and "minimal_eta", two
    pairing entries for the same unordered pair and a repeated character
    id all raise ModelStructureError, as do the structural defects the
    ModelInstance constructor rejects.
    """
    if not isinstance(doc, dict):
        raise ModelStructureError(f"a model document must be an object, got {type(doc).__name__}")
    # Bools never reach this dict: True == 1 would find the entry of 1.
    parsed = _ParsedSlopes()
    classes = []
    for k, c in enumerate(_require_list(doc, "classes")):
        cid, dim, slope, deg, dual = _require_fields(
            c, ("id", "dim", "slope", "deg", "dual"), f"class {k}")
        flags = _require_list(c, "flags", [])
        for flag in flags:
            if flag not in _FLAGS:
                raise ModelStructureError(f"class {k}: unknown flag {flag!r}")
        classes.append(IrreducibleClass(cid, dim, parsed[slope], deg, dual,
                                        "minimal_sigma" in flags, "minimal_eta" in flags))
    pairing = _require_list(doc, "pairing", [])
    entries = {}
    try:  # entries of exact JSON types: one pass, and one count for repeated pairs
        for e in pairing:
            if type(e) is not dict:
                break
            i, j, slope = e.get("i"), e.get("j"), e.get("slope")
            if not (type(i) is type(j) is str and (type(slope) is str or type(slope) is int)):
                break
            entries[(i, j) if i <= j else (j, i)] = parsed[slope]
    except ValueError:  # a slope that does not parse
        pass
    if len(entries) < len(pairing):  # rerun the checks in entry order: name the first defect
        entries = {}
        for k, e in enumerate(pairing):
            i, j, slope = _require_fields(e, ("i", "j", "slope"), f"pairing entry {k}")
            key = (i, j) if i <= j else (j, i)
            if key in entries:
                raise ModelStructureError(f"pairing entry {k} repeats the pair {{{i},{j}}}")
            entries[key] = parsed[slope]
    characters = _require_list(doc, "characters", [])
    if not all(isinstance(ch, str) for ch in characters):
        raise ModelStructureError("'characters' must list class ids")
    if len(set(characters)) != len(characters):
        raise ModelStructureError("'characters' lists a class id twice")
    return ModelInstance(classes, entries, characters)


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
