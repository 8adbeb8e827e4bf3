"""Abstract model of irreducible twist-orbit classes and their tensor slopes.

A model instance holds a finite set of irreducible classes (unramified-twist
orbits of irreducible Weil representations, keyed by opaque ids), a symmetric
table of tensor slopes s(i,j) = slope of class_i tensor class_j, and the list
of dimension-1 classes (the in-model character set).  The distinguished id
"u" is reserved for the unramified-character orbit.

`validate_model` checks the axiom set M1-M8 plus the structural type
invariants and reports every violation with an explicit witness.  Structural
defects (unresolvable ids, a dual map that is not an involution, repeated
pairing entries, an omitted entry that nothing forces) make `ModelInstance`
raise `ModelStructureError` when the model is built: they make the axiom
checks meaningless rather than false.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, repeat
from operator import gt, le, mod, mul, neg
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
    and `S[a][b]` = L*s(i,j) are exact ints for any input.  `classes` maps
    id to class and `pairing`, derived from S and L, maps each sorted id
    pair to its slope in sorted order; both are read-only.  No attribute
    can be rebound, which is what lets `digest()` serialize the model only
    once.

    Construction raises ModelStructureError, in this order, unless every
    pairing entry names known ids, no pair is given in both orders, every
    omitted entry is forced, class ids are distinct, duals resolve, dual is
    an involution and every character resolves.
    """

    __slots__ = ("classes", "characters", "ids", "index", "dim", "deg", "dual",
                 "chars", "L", "slope", "S", "_digest")

    def __init__(self, classes, entries, characters):
        # The order of the checks fixes which defect a message names.
        classes = list(classes)
        by_id = {c.id: c for c in classes}
        ids = tuple(sorted(by_id))
        index = {i: a for a, i in enumerate(ids)}
        given = {}
        for (i, j), v in entries.items():
            a, b = index.get(i), index.get(j)
            if a is None or b is None:
                raise ModelStructureError(f"pairing names unknown id in {{{i},{j}}}")
            given[(a, b) if a <= b else (b, a)] = v
        if len(given) < len(entries):
            i, j = min(k for k in entries if k[0] < k[1] and k[::-1] in entries)
            raise ModelStructureError(f"pairing gives the pair {{{i},{j}}} twice")
        ordered = [by_id[i] for i in ids]
        L = math.lcm(*{c.slope.denominator for c in ordered},
                     *{v.denominator for v in given.values()})
        slope = tuple(c.slope.numerator * (L // c.slope.denominator) for c in ordered)
        n = len(ids)
        S = [[None] * n for _ in range(n)]
        for (a, b), v in given.items():
            S[a][b] = S[b][a] = v.numerator * (L // v.denominator)
        u = index.get(UNRAMIFIED_ID)
        # The keys of `given` are distinct pairs a <= b, so the table has a
        # gap only when there are fewer of them than its n(n+1)/2 cells.
        if len(given) < n * (n + 1) // 2:
            for a, row in enumerate(S):
                for b in range(a, n):
                    if row[b] is not None:
                        continue
                    if u in (a, b):
                        row[b] = S[b][a] = slope[b if a == u else a]
                    elif slope[a] != slope[b]:
                        row[b] = S[b][a] = max(slope[a], slope[b])
                    else:
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
            ("_digest", None),
        ):
            object.__setattr__(self, name, value)

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

    def at(self, i: str) -> int:
        """The index of class i in `ids`."""
        try:
            return self.index[i]
        except KeyError:
            raise ModelStructureError(f"unknown class id {i!r}") from None

    def pair(self, i: str, j: str) -> Fraction:
        return Fraction(self.S[self.at(i)][self.at(j)], self.L)

    @property
    def pairing(self):
        """Read-only {(i, j): s(i,j)} over sorted id pairs, in sorted order,
        made from S on each call."""
        ids, L = self.ids, self.L
        return MappingProxyType({(i, ids[b]): Fraction(row[b], L)
                                 for a, (i, row) in enumerate(zip(ids, self.S))
                                 for b in range(a, len(ids))})

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
    where ar_i is 0 for the unramified orbit and dim_i*(slope_i+1) otherwise,
    and the twisted Artin exponent is dim_i*(s(chi,i)+1) except that it is
    0 when dim_i = 1 and chi is the dual orbit (the twist lands in the
    unramified orbit).  Minimality is relative to the model's character set.
    Both sides are compared times L, and never divided by dim_i.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    a = m.at(i)
    dim, L, S = m.dim[a], m.L, m.S
    if mode == "sigma":
        sw = dim * m.slope[a]
        return all(dim * S[chi][a] >= sw for chi in m.chars)
    ar = 0 if i == UNRAMIFIED_ID else dim * (m.slope[a] + L)
    for chi in m.chars:
        twisted = 0 if dim == 1 and chi == m.dual[a] else dim * (S[chi][a] + L)
        if twisted < ar:
            return False
    return True


def _subdominant_ultrametric(W, diagonal=None) -> list[tuple]:
    """U[a][b], a != b: the least over all a-b paths of the largest
    symmetric weight W on the path (Gower & Ross 1969); U[a][a] is
    `diagonal`.  Prim's algorithm joins v_1, ..., v_{n-1} to the tree of
    v_0 by edges of weight w_1, ..., w_{n-1}.  For s < k <= t, a path from
    v_s to v_t leaves {v_0, ..., v_{k-1}} by an edge of weight >= w_k, and
    the tree's path is no heavier, so U(v_s, v_t) = max(w_{s+1}, ..., w_t):
    the running maxima of the weights in Prim's order.  O(n^2)."""
    n = len(W)
    if not n:
        return []
    order, weights = [0], []
    best, rest = list(W[0]), list(range(1, n))  # cheapest edge into the tree
    while rest:
        b = min(rest, key=best.__getitem__)
        rest.remove(b)
        order.append(b)
        weights.append(best[b])
        Wb = W[b]
        for c in rest:
            if Wb[c] < best[c]:
                best[c] = Wb[c]
    # Row s in Prim's order, in two halves: below[s] lists U(v_s, v_t) for
    # t < s and falls with t; above[s] lists it for t > s and rises.
    # below[s] is below[s-1] with its entries under w_s raised to w_s and
    # w_s appended; above[s] is above[s+1] with its entries under w_{s+1}
    # raised and w_{s+1} put in front.  The raised entries are a run at one
    # end, found by bisection.
    below = [[]]
    for s, w in enumerate(weights, 1):
        j = bisect_left(below[-1], -w, key=neg)
        below.append(below[-1][:j] + [w] * (s - j))
    above = [[]]
    for w in reversed(weights):
        k = bisect_left(above[-1], w)
        above.append([w] * (k + 1) + above[-1][k:])
    above.reverse()
    P = [lo + [diagonal] + hi for lo, hi in zip(below, above)]
    # U[a][b] = P[pos a][pos b]: permute the rows, transpose (P is
    # symmetric) and permute the rows again.
    pos = [0] * n
    for s, v in enumerate(order):
        pos[v] = s
    T = list(zip(*[P[s] for s in pos]))
    return [T[s] for s in pos]


def validate_model(m: ModelInstance) -> ValidationReport:
    """Exhaustively check M1-M8 and the type invariants.

    Deterministic; every failed check is recorded with witness ids and both
    sides of the failed comparison.  Structural problems raise instead.
    The comparisons are between the exact ints of the model's integer
    tables (`ModelInstance.S`, `slope`, ...), and a violation reports
    Fraction(S, L).

    M1, M3, M4, M5 and M8 first test each row as a whole, and only a row
    that fails runs the loop over its cells; M8's row is the kernel's
    (`kernel_row`).  M6 has one path.  Let U be
    the subdominant ultrametric of min(D, D^T), D(i,j) = s(i, dual j).
    Any two-step path i-k-j has a largest weight of at least U(i,j), so an
    off-diagonal pair with D(i,j) <= U(i,j) has no witness k.  The loop
    over k runs only on the diagonal and on the pairs with D(i,j) > U(i,j),
    and only where D(i,j) > min_k max(D(i,k), D(k,j)), that is, where a
    witness exists.  On a valid model that is O(n^2); the worst case, many
    pairs with witnesses, is still O(n^3).
    """
    from .exponents import kernel_row  # deferred: exponents imports model

    rep = ValidationReport()
    ids, S, L, slope, dim, dual = m.ids, m.S, m.L, m.slope, m.dim, m.dual
    n = len(ids)
    classes = [m.classes[i] for i in ids]

    def q(x):
        return Fraction(x, L)

    # Type invariants on classes.
    for i, c in zip(ids, classes):
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
    for a in range(n):
        if dim[a] == 1 and S[a][dual[a]] != 0:
            rep.add("char_self_pairing", (ids[a], ids[dual[a]]), q(S[a][dual[a]]), 0)

    # Each loop below first tests a whole row with C-level scans; the test
    # passes exactly when the row's cells pass, and a row that fails it runs
    # the per-cell loop, so violations come in the order of the full loops.
    lows = [min(row) for row in S]  # the least entry of each row
    least = min(lows, default=0)

    # M1 integrality, and non-negativity of entries.  dim_a * dim_b * S[a][b]
    # is a multiple of L exactly when S[a][b] is a multiple of
    # L / gcd(L, dim_a * dim_b); the rows of one dim share these steps.
    steps = {}
    for a in range(n):
        if dim[a] not in steps:
            steps[dim[a]] = tuple(L // math.gcd(L, dim[a] * d) for d in dim)
        tail = S[a][a:]
        if (least >= 0 or min(tail) >= 0) and not any(map(mod, tail, steps[dim[a]][a:])):
            continue
        for b in range(a, n):
            if S[a][b] < 0:
                rep.add("M1", (ids[a], ids[b]), q(S[a][b]), 0)
            elif dim[a] * dim[b] * S[a][b] % L:
                rep.add("M1", (ids[a], ids[b]), q(dim[a] * dim[b] * S[a][b]), 0)

    # M2 unit row.
    if UNRAMIFIED_ID in m.classes:
        unit_row = S[m.index[UNRAMIFIED_ID]]
        for a in range(n):
            if unit_row[a] != slope[a]:
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
        tail = S[a][a:]
        if all(map(le, los[a:], tail)) and all(map(le, tail, his[a:])):
            continue
        for b in range(a, n):
            hi = max(slope[a], slope[b])
            if S[a][b] > hi or (slope[a] != slope[b] and S[a][b] != hi):
                rep.add("M3", (ids[a], ids[b]), q(S[a][b]), q(hi))

    # M4 dual symmetry, on D(i,j) = s(i, dual j): S[a][b] = D[dual a][b].
    # S is symmetric, so column b of D is row dual b of S.
    Dt = [S[d] for d in dual]
    D = list(zip(*Dt))
    for a in range(n):
        if S[a][a:] == D[dual[a]][a:]:
            continue
        for b in range(a, n):
            if S[a][b] != S[dual[a]][dual[b]]:
                rep.add("M4", (ids[a], ids[b]), q(S[a][b]), q(S[dual[a]][dual[b]]))

    # M5 diagonal minimality.
    for a in range(n):
        diag = S[a][dual[a]]
        if diag <= lows[a]:
            continue
        for k in range(n):
            if diag > S[a][k]:
                rep.add("M5", (ids[a], ids[k]), q(diag), q(S[a][k]))

    # M6 ultrametric on D: witnesses (i, j, k) in order.  A row scan finds
    # the diagonal and the b with D(a,b) > U(a,b), and of those only a pair
    # with D(a,b) > min_k max(D(a,k), D(k,b)) has a witness.  That minimum
    # is at least min_k D(a,k), the least entry of row a of S, which decides
    # the diagonal when M5 holds.
    W = D if D == Dt else [[x if x < y else y for x, y in zip(row, col)]
                           for row, col in zip(D, Dt)]  # min(D, D^T)
    # U's diagonal is below every entry, so the scan takes the diagonal.
    U = _subdominant_ultrametric(W, least - 1)
    for a in range(n):
        Da = D[a]
        for b in compress(range(n), map(gt, Da, U[a])):
            dab, Db = Da[b], Dt[b]
            if dab <= lows[a] or dab <= min(map(max, Da, Db)):
                continue
            for k in range(n):
                bound = max(Da[k], Db[k])
                if dab > bound:
                    rep.add("M6", (ids[a], ids[b], ids[k]), q(dab), q(bound))

    # M7 minimal self-pairing.
    for a, c in enumerate(classes):
        if c.minimal_sigma and 2 * S[a][dual[a]] < slope[a]:
            rep.add("M7", (ids[a],), q(S[a][dual[a]]), c.slope / 2)

    # M8 irreducible-level lower bound for eta-minimal classes:
    # ar/dim >= max(eta_i, eta_j)/2, with eta = slope + 1 (0 for u) times L,
    # compared as 2*(L*ar) >= dim*max(...) on the kernel's row of class i.
    # The kernel needs integral Swan exponents and both sides divide by
    # dimensions; when M1 or dim_positive already failed, that violation is
    # on record and the M8 comparison is skipped.  The rows of one eta share
    # their maxima, and a row whose every cell passes skips the loop.
    eta = [0 if i == UNRAMIFIED_ID else sl + L for i, sl in zip(ids, slope)]
    tops = {}
    for a, i in enumerate(ids):
        if not classes[a].minimal_eta or dim[a] < 1:
            continue
        if eta[a] not in tops:
            tops[eta[a]] = tuple(map(max, repeat(eta[a]), eta))
        top = tops[eta[a]]
        lar, dims, rest = kernel_row(a, m)
        if all(map(le, map(mul, dims, top), map(mul, lar, repeat(2)))):
            continue
        for b, j in enumerate(ids):
            if dim[b] >= 1 and not rest[b] and 2 * lar[b] < dims[b] * top[b]:
                rep.add("M8", (i, j), Fraction(lar[b], L * dims[b]), Fraction(top[b], 2 * L))

    # Flags re-verified against the character set, both directions.
    for i, c in zip(ids, classes):
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


_FLAGS = ("minimal_sigma", "minimal_eta")


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
    entries = {}
    for k, e in enumerate(_require_list(doc, "pairing", [])):
        # The checks of _require_fields, made inline; only an entry that
        # fails them goes through it, which raises with its message.
        if isinstance(e, dict):
            i, j, slope = e.get("i"), e.get("j"), e.get("slope")
        if not (isinstance(e, dict) and isinstance(i, str) and isinstance(j, str)
                and isinstance(slope, (str, int)) and not isinstance(slope, bool)):
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
