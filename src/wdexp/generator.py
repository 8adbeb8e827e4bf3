"""Seeded generation of valid model instances and random representations.

The pairing is built per slope level as a laminar hierarchy (an ultrametric
tree) over that level's classes and characters, with the dual involution
realized as a tree automorphism: dual pairs are sibling leaves, everything
else is self-dual.  Distances D(a,b) are least-common-ancestor heights,
leaves carry self-distances below their parent, and the pairing is read off
as s(a,b) = D(a, dual(b)).  Heights are ints in [0, g*lam], in units of 1/g
on the level's grid (g the squared gcd of its dimensions), and become
`Fraction` in one place: each repair round maps the distinct distances of
a level's tree to `Fraction(d, g)` and reads the within-level entries
given to `ModelInstance` from that map, so the cost does not grow with g.
Its constructor forces cross-level pairs to the max slope.

A repair pass then raises heights until every entry satisfies

    s(a,b) >= max(min_slope(a), min_slope(b)) / 2

where min_slope(i) is the smallest pairing slope between i and any in-model
character (the best twist can do).  This floor is what the bound theorems
force on orbit data reachable by twisting; the bare axiom set does not imply
it for free entries, and without it sweeps over decomposable minimal
representations can manufacture counterexamples that no genuine family of
representations realizes.  Each repair round builds a model from the entries
read off the trees and reads each class's floor, ceil(g*min_slope/2) grid
units, off its integer table, then walks each tree bottom-up, raising every
leaf to its floor and every node to its children's values: a node's floor
is the largest floor under it, so it is met once the leaves under it are.
Raising heights keeps the tree laminar, so the ultrametric and
dual-symmetry axioms survive repair.  The round that raises nothing has
already built the final model.

Flags are computed last, directly from that model, so the validator's
re-verification holds by construction.

The PRNG is splitmix64 with fixed reduction rules: identical parameters and
seed reproduce identical models on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .model import (
    UNRAMIFIED_ID,
    IrreducibleClass,
    ModelInstance,
    is_minimal_class,
    validate_model,
)
from .rationals import parse_int, parse_rational
from .rep import Indecomposable, WDRep


class GeneratorError(RuntimeError):
    pass


MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 stream; the reduction below(n) is next64() % n."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next64() % n

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def shuffle(self, items: list):
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


@dataclass(frozen=True)
class GenParams:
    slope_levels: tuple[Fraction, ...]
    classes_per_level: int = 2
    dim_pool: tuple[int, ...] = (1, 2, 3, 4)
    max_deg: int = 4
    tree_depth: int = 3
    char_per_level: int = 1
    seed: int = 0

    def __post_init__(self):
        levels = tuple(Fraction(v) for v in self.slope_levels)
        object.__setattr__(self, "slope_levels", levels)
        object.__setattr__(self, "dim_pool", tuple(int(d) for d in self.dim_pool))
        if not levels:
            raise ValueError("need at least one slope level")
        if len(set(levels)) != len(levels):
            raise ValueError("slope levels must be distinct")
        if any(v < 0 for v in levels):
            raise ValueError("slope levels must be >= 0")
        if min(self.classes_per_level, self.char_per_level, self.tree_depth, self.max_deg) < 1:
            raise ValueError("all counts must be >= 1")
        if not self.dim_pool or any(d < 1 for d in self.dim_pool):
            raise ValueError("dimension pool must contain integers >= 1")

    @staticmethod
    def from_strings(levels: str, classes_per_level=2, dims="1,2,3,4", max_deg=4,
                     tree_depth=3, char_per_level=1, seed=0) -> "GenParams":
        return GenParams(
            slope_levels=tuple(parse_rational(t) for t in levels.split(",") if t.strip()),
            classes_per_level=parse_int(classes_per_level),
            dim_pool=tuple(parse_int(t) for t in str(dims).split(",") if t.strip()),
            max_deg=parse_int(max_deg),
            tree_depth=parse_int(tree_depth),
            char_per_level=parse_int(char_per_level),
            seed=parse_int(seed),
        )


@dataclass
class GenStats:
    attempts: int = 0
    repair_rounds: int = 0
    raised_entries: int = 0


# -- tree machinery ----------------------------------------------------------


@dataclass
class _Leaf:
    id: str
    self_value: int


@dataclass
class _Node:
    height: int
    children: list


def _build_tree(rng, units, hi, depth) -> _Node:
    """Random laminar hierarchy with heights in [0, hi]; each unit is a
    list of leaf descriptors (singleton for self-dual orbits, two ids for a
    dual pair)."""
    h = rng.below(hi + 1)
    node = _Node(h, [])
    if len(units) == 1 or depth <= 0:
        groups = [[u] for u in units]
    else:
        k = 2 + rng.below(min(3, len(units) - 1))
        pool = list(units)
        rng.shuffle(pool)
        groups = [[] for _ in range(k)]
        for idx, u in enumerate(pool):
            groups[idx % k].append(u)
        groups = [grp for grp in groups if grp]
    for grp in groups:
        if len(grp) == 1:
            node.children.append(_expand_unit(rng, grp[0], h))
        else:
            node.children.append(_build_tree(rng, grp, h, depth - 1))
    return node


def _expand_unit(rng, unit, hi):
    """A self-dual orbit becomes a leaf; a dual pair becomes a pair node
    whose height is the orbit's self-pairing slope."""
    ids, is_char = unit
    if len(ids) == 1:
        return _Leaf(ids[0], 0 if is_char else rng.below(hi + 1))
    h = rng.below(hi + 1)
    sv = 0 if is_char else rng.below(h + 1)
    return _Node(h, [_Leaf(ids[0], sv), _Leaf(ids[1], sv)])


def _tree_distances(root: _Node) -> dict[tuple[str, str], int]:
    """D(a,b) = LCA height for distinct leaves, self_value on the diagonal."""
    dist: dict[tuple[str, str], int] = {}

    def visit(node):
        if isinstance(node, _Leaf):
            dist[(node.id, node.id)] = node.self_value
            return [node.id]
        mine = []
        child_sets = [visit(c) for c in node.children]
        for a_idx in range(len(child_sets)):
            for b_idx in range(a_idx + 1, len(child_sets)):
                for a in child_sets[a_idx]:
                    for b in child_sets[b_idx]:
                        dist[(a, b)] = node.height
                        dist[(b, a)] = node.height
        for cs in child_sets:
            mine.extend(cs)
        return mine

    visit(root)
    return dist


def _enforce_floors(root: _Node, floor: dict[str, int]) -> int:
    """Raise each leaf self-value to its floor and each node height to its
    children's values, bottom-up.  A node then sits at or above every
    raised leaf under it, so it meets its own floor, the largest floor
    under it, with no walk over its leaves.  Returns the number of raised
    values."""
    raised = 0

    def visit(node) -> int:
        nonlocal raised
        if isinstance(node, _Leaf):
            if node.self_value < floor[node.id]:
                node.self_value = floor[node.id]
                raised += 1
            return node.self_value
        target = max(node.height, *(visit(c) for c in node.children))
        if target > node.height:
            node.height = target
            raised += 1
        return node.height

    visit(root)
    return raised


# -- model assembly ----------------------------------------------------------


def _char_level(level: Fraction) -> int:
    """Characters carry integer slopes (dimension-1 integrality), so a
    fractional level is covered by the next integer up."""
    return max(1, math.ceil(level))


def _attempt(p: GenParams, rng: SplitMix64, stats: GenStats) -> ModelInstance:
    levels = sorted(p.slope_levels)

    # Class slots per level, dimensions filtered by integrality.
    slots: list[tuple[str, int, Fraction]] = []
    for li, lam in enumerate(levels):
        feasible = sorted(m for m in set(p.dim_pool) if (m * lam).denominator == 1)
        if not feasible:
            raise GeneratorError(
                f"no dimension in pool {p.dim_pool} gives an integer Swan exponent at slope {lam}"
            )
        for k in range(p.classes_per_level):
            slots.append((f"L{li}c{k}", rng.choice(feasible), lam))

    # Dedicated characters: one batch per positive level, at the level if it
    # is an integer and at the next integer otherwise.
    char_levels = sorted({_char_level(lam) for lam in levels if lam > 0})
    for ci, cl in enumerate(char_levels):
        for k in range(p.char_per_level):
            slots.append((f"X{ci}n{k}", 1, Fraction(cl)))

    # Dual structure: pair up same-(slope, dim) slots at random, u stays out.
    groups: dict[tuple[Fraction, int], list[str]] = {}
    for cid, dim, lam in slots:
        groups.setdefault((lam, dim), []).append(cid)
    dual: dict[str, str] = {UNRAMIFIED_ID: UNRAMIFIED_ID}
    for key in sorted(groups):
        ids = groups[key]
        rng.shuffle(ids)
        i = 0
        while i < len(ids):
            if i + 1 < len(ids) and rng.below(2) == 1:
                dual[ids[i]] = ids[i + 1]
                dual[ids[i + 1]] = ids[i]
                i += 2
            else:
                dual[ids[i]] = ids[i]
                i += 1

    dims = {cid: dim for cid, dim, _ in slots}
    dims[UNRAMIFIED_ID] = 1
    slopes = {cid: lam for cid, _, lam in slots}
    slopes[UNRAMIFIED_ID] = Fraction(0)

    # Twist degeneracy per orbit (shared by duals); characters get 1.
    deg: dict[str, int] = {UNRAMIFIED_ID: 1}
    for cid in sorted(dims):
        if cid in deg:
            continue
        m = dims[cid]
        divisors = [d for d in range(1, min(m, p.max_deg) + 1) if m % d == 0]
        d = rng.choice(divisors)
        deg[cid] = d
        deg[dual[cid]] = d

    # One ultrametric tree per slope value present, in units of 1/g: every
    # dim m at the level makes m*lam an int, so g*lam is one too.
    by_slope: dict[Fraction, list[str]] = {}
    for cid in sorted(dims):
        by_slope.setdefault(slopes[cid], []).append(cid)
    trees: list[tuple[list[str], _Node, int]] = []
    for lam in sorted(by_slope):
        ids = by_slope[lam]
        units = []
        seen = set()
        for cid in ids:
            if cid in seen:
                continue
            orbit = [cid] if dual[cid] == cid else [cid, dual[cid]]
            seen.update(orbit)
            units.append((orbit, dims[cid] == 1))
        g = math.gcd(*(dims[c] for c in ids)) ** 2
        trees.append((ids, _build_tree(rng, units, int(lam * g), p.tree_depth), g))

    classes = [IrreducibleClass(cid, dims[cid], slopes[cid], deg[cid], dual[cid])
               for cid in sorted(dims)]
    chars = sorted(c for c in dims if dims[c] == 1)

    # Repair: iterate the twist-minimized-slope floor to a fixed point.  The
    # round that raises nothing leaves `bare` as the model, flags unset.
    for _round in range(100):
        entries = {}  # s(a,b) = D(a, dual b) within each level
        for ids, tree, g in trees:
            dist = _tree_distances(tree)
            value = {d: Fraction(d, g) for d in set(dist.values())}
            for a_idx, a in enumerate(ids):
                for b in ids[a_idx:]:
                    d = dist[(a, dual[b])]
                    if dist[(dual[a], b)] != d:
                        raise GeneratorError("dual involution is not a tree isometry")
                    entries[a, b] = value[d]
        bare = ModelInstance(classes, entries, chars)
        # least[c] = L * min_slope(c); its floor on a level's grid is
        # ceil(g * min_slope(c) / 2), at most ceil(g * lam / 2) as u is a character.
        least = dict(zip(bare.ids, map(min, zip(*(bare.S[chi] for chi in bare.chars)))))
        changed = sum(_enforce_floors(tree, {c: -(-least[c] * g // (2 * bare.L)) for c in ids})
                      for ids, tree, g in trees)
        if changed == 0:
            break
        stats.repair_rounds += 1
        stats.raised_entries += changed
    else:
        raise GeneratorError("pairing repair did not converge in 100 rounds")

    flagged = [
        replace(c, minimal_sigma=is_minimal_class(c.id, "sigma", bare),
                minimal_eta=is_minimal_class(c.id, "eta", bare))
        for c in classes
    ]
    return ModelInstance(flagged, entries, chars)


def gen_model_with_stats(p: GenParams) -> tuple[ModelInstance, GenStats]:
    rng = SplitMix64(p.seed)
    stats = GenStats()
    last = None
    for _ in range(100):
        stats.attempts += 1
        model = _attempt(p, rng, stats)
        report = validate_model(model)
        if report.ok:
            return model, stats
        last = report
    details = "; ".join(str(v) for v in last.violations[:5]) if last else "none"
    raise GeneratorError(f"could not generate a valid model in 100 attempts: {details}")


def gen_model(p: GenParams) -> ModelInstance:
    """Deterministic: identical params and seed give identical instances."""
    return gen_model_with_stats(p)[0]


def gen_rep(m: ModelInstance, max_terms: int, max_r: int, seed: int) -> WDRep:
    """Uniform draw of at most max_terms indecomposables with Sp-length at
    most max_r; the zero representation only when max_terms = 0."""
    if max_terms < 0 or (max_terms > 0 and max_r < 1):
        raise ValueError("need max_terms >= 0 and max_r >= 1")
    if max_terms == 0:
        return WDRep.zero()
    rng = SplitMix64(seed)
    n = 1 + rng.below(max_terms)
    terms = []
    for _ in range(n):
        r = 1 + rng.below(max_r)
        terms.append((1, Indecomposable(r, rng.choice(m.ids))))
    return WDRep.from_terms(terms)
