"""The small-model census: every model of `u` plus k classes over a grid of
shapes, in one fixed order.  Tests import it; pytest does not collect it.

- A shape is a triple (dim, slope, deg) with dim in `dims`, slope in
  `slopes`, dim*slope an integer and deg dividing dim.  The default grid,
  dims 1-3 and slopes 0, 1/2, ..., 2, has 19 shapes.
- A model is `u` plus k classes c0, c1, ..., one per shape of a multiset of
  k shapes (unordered, with repetition, in `combinations_with_replacement`
  order).  Each class is self-dual, or two classes of equal shape are each
  other's dual: every involution that pairs only classes of equal shape.
- Each entry s(i,j) between two of the k classes of equal slope runs over
  the M1 grid n/(dim_i*dim_j) in [0, slope], cells a <= b in row-major
  order, each from 0 up.  Every other entry is left to the
  `ModelInstance` constructor, which forces it.
- The characters are `u` and the classes of dim 1.  The flags are
  `class_minimality` of the model built without flags, read through its
  `index`: `u` sorts last, so they are not in list order.

Each table is one `ModelInstance`; `validate_model` decides which of them
are models.  With k = 2 the order of the shapes is part of the definition:
reading them as an ordered pair gives more tables and more valid models.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product

from wdexp.exponents import class_minimality
from wdexp.model import UNRAMIFIED_ID, IrreducibleClass, ModelInstance

DIMS = (1, 2, 3)
SLOPES = tuple(Fraction(n, 2) for n in range(5))


def shapes(dims=DIMS, slopes=SLOPES):
    """(dim, slope, deg) triples of the grid, ordered by dim, slope, deg."""
    return [(d, s, g) for d in dims for s in slopes if (d * s).denominator == 1
            for g in range(1, d + 1) if d % g == 0]


def _duals(combo, rest):
    """Every involution of the positions `rest` that pairs only equal
    shapes, as a position -> dual position dict; the first position is
    self-dual first, then paired with each later one of its shape."""
    if not rest:
        yield {}
        return
    a, later = rest[0], rest[1:]
    for dual in _duals(combo, later):
        yield {a: a, **dual}
    for b in later:
        if combo[b] == combo[a]:
            for dual in _duals(combo, [c for c in later if c != b]):
                yield {a: b, b: a, **dual}


def census_models(k, dims=DIMS, slopes=SLOPES):
    """Yield every table of the census with k classes beside `u`, flagged,
    as a `ModelInstance`, in the order of the module docstring."""
    unit = IrreducibleClass(UNRAMIFIED_ID, 1, Fraction(0), 1, UNRAMIFIED_ID)
    ids = [f"c{n}" for n in range(k)]
    for combo in combinations_with_replacement(shapes(dims, slopes), k):
        cells = [(a, b) for a in range(k) for b in range(a, k) if combo[a][1] == combo[b][1]]
        grids = [[Fraction(n, combo[a][0] * combo[b][0])
                  for n in range(int(combo[a][1] * combo[a][0] * combo[b][0]) + 1)]
                 for a, b in cells]
        chars = [UNRAMIFIED_ID] + [i for i, (d, _, _) in zip(ids, combo) if d == 1]
        for dual in _duals(combo, list(range(k))):
            classes = [unit] + [IrreducibleClass(ids[a], d, s, g, ids[dual[a]])
                                for a, (d, s, g) in enumerate(combo)]
            for values in product(*grids):
                entries = {(ids[a], ids[b]): v for (a, b), v in zip(cells, values)}
                bare = ModelInstance(classes, entries, chars)
                sigma, eta = class_minimality(bare)
                flagged = [c._replace(minimal_sigma=sigma[bare.index[c.id]],
                                      minimal_eta=eta[bare.index[c.id]]) for c in classes]
                yield ModelInstance(flagged, entries, chars)
