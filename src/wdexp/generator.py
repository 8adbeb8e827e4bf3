"""Seeded generation of valid model instances and random representations.

The pairing is built per slope level as a laminar hierarchy (an ultrametric
tree) over that level's classes and characters, with the dual involution
realized as a tree automorphism: dual pairs are sibling leaves, everything
else is self-dual.  Distances D(a,b) are least-common-ancestor heights,
leaves carry self-distances below their parent, and the pairing is read off
as s(a,b) = D(a, dual(b)).  Heights are ints in [0, g*lam], in units of 1/g
on the level's grid (g the squared gcd of its dimensions), and become
`Fraction` in one place: the distinct distances of a level's tree map to
`Fraction(d, g)`, and the within-level entries given to `ModelInstance`
are read from that map once, so the cost does not grow with g.  Its
constructor forces cross-level pairs to the max slope.

Before that read, each tree's distances are raised once, so that every
entry satisfies

    s(a,b) >= max(min_slope(a), min_slope(b)) / 2

where min_slope(c) is the smallest pairing slope between c and any in-model
character (the best twist can do).  This floor is what the bound theorems
force on orbit data reachable by twisting; the bare axiom set does not imply
it for free entries, and without it sweeps over decomposable minimal
representations can manufacture counterexamples that no genuine family of
representations realizes.  The floor of c is read off the distances its
level's tree was drawn with, with hi = g*lam: ceil(min(hi, D(chi, dual c)
over the level's characters chi) / 2) grid units, as u pairs with c at c's
slope (M2) and the other levels' characters at a larger one (M3).  A second
bottom-up walk of the same tree gives the raised distances: a leaf's value
is its self-value raised to its floor, a node's is the largest of its
height and its children's values, so a node meets its floor, the largest
under it, and D(a,b) is the value of the LCA.  A tree is drawn once and
then only read.  The values still never increase down the tree, so they
form a laminar hierarchy too, and the ultrametric and dual-symmetry axioms
hold for the raised distances.

One raise is exact, because it moves no min_slope.  Heights never increase
down a tree: `_build_tree` and `_expand_unit` draw each child at most its
parent's height, and the raised values keep that.  No value exceeds hi, so
a min_slope of hi stays put.  Otherwise let N be the node (or the character
leaf, at 0) whose height D(chi, dual c) gives min_slope(c).  Dual pairs are
sibling leaves, so every leaf x under N has its dual under N too, and
min_slope(x) <= D(chi, dual x) <= height(N); so floor(x) <= height(N).  N's
value is then its height, and min_slope(c) is where it was: the raised
distances meet the floors read off them, and floors read off the raised
distances would raise nothing.

Flags are computed last, by `exponents.class_minimality` on the bare model
built from those entries, the rule the validator re-verifies them with, so
the re-verification holds by construction.  The flagged model is built from
the same entries.  One attempt makes a model, with no retry, and a model
`validate_model` rejects is a fault of the construction: a GeneratorError.

The PRNG is splitmix64 with fixed reduction rules: identical parameters and
seed reproduce identical models on any platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from string import whitespace

from .exponents import class_minimality
from .model import UNRAMIFIED_ID, IrreducibleClass, ModelInstance, validate_model
from .rationals import parse_int, parse_rational
from .rep import WDRep


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
    """Generator parameters, validated on construction.  The package's one
    dataclass: `dataclasses.replace(params, seed=...)` is how a sweep, and
    any caller, derives the parameters of its next model."""

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
            slope_levels=tuple(parse_rational(t) for t in levels.split(",") if t.strip(whitespace)),
            classes_per_level=parse_int(classes_per_level),
            dim_pool=tuple(parse_int(t) for t in str(dims).split(",") if t.strip(whitespace)),
            max_deg=parse_int(max_deg),
            tree_depth=parse_int(tree_depth),
            char_per_level=parse_int(char_per_level),
            seed=parse_int(seed),
        )


class GenStats:
    __slots__ = ("raised_entries",)
    attempts = 1  # one attempt per model; the benchmark's trace reads it

    def __init__(self):
        self.raised_entries = 0

    @property
    def repair_rounds(self) -> int:
        """1 when the one raise raised anything, else 0."""
        return int(self.raised_entries > 0)


# -- tree machinery ----------------------------------------------------------


class _Leaf:
    __slots__ = ("id", "self_value")

    def __init__(self, id: str, self_value: int):
        self.id = id
        self.self_value = self_value


class _Node:
    __slots__ = ("height", "children")

    def __init__(self, height: int, children: list):
        self.height = height
        self.children = children


def _build_tree(rng, units, hi, depth) -> _Node:
    """Random laminar hierarchy with heights in [0, hi]; each unit is a
    list of leaf descriptors (singleton for self-dual orbits, two ids for a
    dual pair)."""
    h = rng.below(hi + 1)
    if len(units) == 1 or depth <= 0:
        groups = [[u] for u in units]
    else:
        k = 2 + rng.below(min(3, len(units) - 1))
        pool = list(units)
        rng.shuffle(pool)
        groups = [pool[i::k] for i in range(k)]  # k <= len(units): none empty
    return _Node(h, [_expand_unit(rng, grp[0], h) if len(grp) == 1
                     else _build_tree(rng, grp, h, depth - 1) for grp in groups])


def _expand_unit(rng, unit, hi):
    """A self-dual orbit becomes a leaf; a dual pair becomes a pair node
    whose height is the orbit's self-pairing slope."""
    ids, is_char = unit
    if len(ids) == 1:
        return _Leaf(ids[0], 0 if is_char else rng.below(hi + 1))
    h = rng.below(hi + 1)
    sv = 0 if is_char else rng.below(h + 1)
    return _Node(h, [_Leaf(ids[0], sv), _Leaf(ids[1], sv)])


def _tree_distances(root: _Node, floor: dict[str, int]) -> tuple[dict[tuple[str, str], int], int]:
    """The tree's distances raised to `floor`, in one bottom-up walk that
    only reads the tree.  A leaf's value is max(self_value, its floor; 0
    for an id `floor` lacks), and a node's is max(height, its children's
    values), so it meets the largest floor under it.  D(a,b) is the value
    of the LCA of distinct leaves a and b, and the leaf's value on the
    diagonal.  Returns D and the number of values the floors raised."""
    dist: dict[tuple[str, str], int] = {}
    raised = 0

    def visit(node) -> tuple[int, list[str]]:
        nonlocal raised
        if isinstance(node, _Leaf):
            value = max(node.self_value, floor.get(node.id, 0))
            raised += value > node.self_value
            dist[(node.id, node.id)] = value
            return value, [node.id]
        visited = [visit(c) for c in node.children]
        value = max(node.height, *(v for v, _ in visited))
        raised += value > node.height
        for a_idx in range(len(visited)):
            for b_idx in range(a_idx + 1, len(visited)):
                for a in visited[a_idx][1]:
                    for b in visited[b_idx][1]:
                        dist[(a, b)] = value
                        dist[(b, a)] = value
        return value, [leaf for _, leaves in visited for leaf in leaves]

    visit(root)
    return dist, raised


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
    # dim m at the level makes m*lam an int, so hi = g*lam is one too.  Each
    # tree is walked twice, for the drawn distances the floors are read from
    # and for the distances raised to them; s(a,b) = D(a, dual b) is read
    # from the second.
    by_slope: dict[Fraction, list[str]] = {}
    for cid in sorted(dims):
        by_slope.setdefault(slopes[cid], []).append(cid)
    entries = {}
    for lam in sorted(by_slope):
        ids = by_slope[lam]
        # ids is sorted and a dual sits at its class's level: one unit per
        # orbit, at its smaller id.
        units = [([c] if dual[c] == c else [c, dual[c]], dims[c] == 1)
                 for c in ids if dual[c] >= c]
        g = math.gcd(*(dims[c] for c in ids)) ** 2
        hi = int(lam * g)
        tree = _build_tree(rng, units, hi, p.tree_depth)
        drawn, _ = _tree_distances(tree, {})
        level_chars = [c for c in ids if dims[c] == 1]
        dist, raised = _tree_distances(tree, {
            c: -(-min([hi, *(drawn[chi, dual[c]] for chi in level_chars)]) // 2) for c in ids})
        stats.raised_entries += raised
        value = {d: Fraction(d, g) for d in set(dist.values())}
        for a_idx, a in enumerate(ids):
            for b in ids[a_idx:]:
                d = dist[(a, dual[b])]
                if dist[(dual[a], b)] != d:
                    raise GeneratorError("dual involution is not a tree isometry")
                entries[a, b] = value[d]

    classes = [IrreducibleClass(cid, dims[cid], slopes[cid], deg[cid], dual[cid])
               for cid in sorted(dims)]
    chars = sorted(c for c in dims if dims[c] == 1)
    bare = ModelInstance(classes, entries, chars)
    # `classes` is in sorted id order, as the flags are.
    flagged = [c._replace(minimal_sigma=s, minimal_eta=e)
               for c, s, e in zip(classes, *class_minimality(bare))]
    return ModelInstance(flagged, entries, chars)


def gen_model_with_stats(p: GenParams) -> tuple[ModelInstance, GenStats]:
    """One attempt, checked by `validate_model`; raises its first five violations."""
    stats = GenStats()
    model = _attempt(p, SplitMix64(p.seed), stats)
    report = validate_model(model)
    if not report.ok:
        details = "; ".join(str(v) for v in report.violations[:5])
        raise GeneratorError(f"generated model fails validation: {details}")
    return model, stats


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
        terms.append((1, r, rng.choice(m.ids)))
    return WDRep.from_terms(terms)
