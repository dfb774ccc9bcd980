"""Finite rational-valued ultrametric spaces and their ball combinatorics.

Distances enter and leave as exact `fractions.Fraction` values.  Since an
ultrametric only ever compares distances, validation works on their integer
ranks (:class:`RankCodec`), an exact order isomorphism built once per space;
every equality test is exact and no float is used.  A space is a labelled
symmetric matrix; the haloed and avoidant predicates quantify over the
closed balls of the space at the radii of a finite range set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Optional

from .errors import PreconditionError, StructureError

ZERO = Fraction(0)


@dataclass(frozen=True)
class RangeSet:
    """Finite strictly-ascending set of nonnegative rationals containing 0."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.values or self.values[0] != ZERO:
            raise StructureError("range set must contain 0 as its first element")
        for a, b in zip(self.values, self.values[1:]):
            if not a < b:
                raise StructureError("range set values must be strictly ascending")

    @classmethod
    def of(cls, values) -> "RangeSet":
        """Build from any iterable of rationals; 0 is added, duplicates dropped."""
        vals = sorted({Fraction(v) for v in values} | {ZERO})
        if vals[0] < 0:
            raise StructureError("range set values must be nonnegative")
        return cls(tuple(vals))

    def nonzero(self) -> tuple[Fraction, ...]:
        return self.values[1:]

    def __contains__(self, value) -> bool:
        return value in self.values

    def __iter__(self):
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def intersection(self, other: "RangeSet") -> "RangeSet":
        return RangeSet.of(set(self.values) & set(other.values))


class RankCodec:
    """The sorted distinct values of a distance matrix, 0 included, coded by
    their positions 0, 1, ...: an exact order isomorphism, so comparing two
    codes is comparing two values, at the cost of an int compare.

    `rank` is the matrix with every entry replaced by its code.  Values are
    keyed by their reduced (numerator, denominator) pair, which is equal
    exactly when the values are and is much cheaper to hash than a Fraction;
    so "1/2" and "2/4" share a code.  `values[c]` decodes code c to one of
    the original Fraction objects.
    """

    __slots__ = ("values", "code", "rank")

    def __init__(self, values: tuple[Fraction, ...], keyed_rows):
        self.values = values
        self.code = {v.as_integer_ratio(): c for c, v in enumerate(values)}
        get = self.code.__getitem__
        self.rank = tuple(tuple(map(get, row)) for row in keyed_rows)

    @classmethod
    def of(cls, dist) -> "RankCodec":
        keyed = [[v.as_integer_ratio() for v in row] for row in dist]
        by_key = {(0, 1): ZERO}
        for krow, row in zip(keyed, dist):
            by_key.update(zip(krow, row))
        return cls(tuple(sorted(by_key.values())), keyed)

    def encode(self, value) -> int:
        return self.code[value.as_integer_ratio()]

    def widened(self, extra: Iterable[Fraction]) -> "RankCodec":
        """This codec with the extra values added.  Codes shift, so the rank
        matrix is recoded; returns self when every extra value is known."""
        new = [v for v in extra if v.as_integer_ratio() not in self.code]
        if not new:
            return self
        keys = [v.as_integer_ratio() for v in self.values]
        return RankCodec(
            tuple(sorted({*self.values, *new})),
            (map(keys.__getitem__, row) for row in self.rank),
        )


@dataclass(frozen=True)
class FiniteUltrametricSpace:
    """Labelled point set with an exact symmetric distance matrix.

    Construction checks structure only (shape, distinct labels); the metric
    axioms are checked by :func:`validate_ultrametric`, which reports every
    violation instead of raising.
    """

    labels: tuple[str, ...]
    dist: tuple[tuple[Fraction, ...], ...]
    range: Optional[RangeSet] = None

    def __post_init__(self):
        # Label -> row lookup; not a dataclass field, so ==, hash and the
        # lru_cache keys see only labels, dist and range.
        object.__setattr__(
            self, "_index", {l: i for i, l in enumerate(self.labels)}
        )
        n = len(self.labels)
        if len(self._index) != n:
            raise StructureError("labels must be distinct")
        if len(self.dist) != n or any(len(row) != n for row in self.dist):
            raise StructureError(
                "distance matrix dimensions do not match the label count"
            )

    @classmethod
    def of(cls, labels, rows, range_set: Optional[RangeSet] = None):
        dist = tuple(tuple(Fraction(v) for v in row) for row in rows)
        return cls(tuple(labels), dist, range_set)

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown label: {label!r}") from None

    def d(self, x: str, y: str) -> Fraction:
        return self.dist[self.index(x)][self.index(y)]

    @cached_property
    def codec(self) -> RankCodec:
        """The distances coded by rank, built on first use and kept; like
        `_index` it is not a field, so ==, hash and the lru_cache keys see
        only labels, dist and range."""
        return RankCodec.of(self.dist)

    def restrict(self, labels) -> "FiniteUltrametricSpace":
        """Subspace on the given labels, keeping canonical matrix order."""
        idx = [self.index(l) for l in labels]
        rows = tuple(tuple(self.dist[i][j] for j in idx) for i in idx)
        return FiniteUltrametricSpace(tuple(labels), rows, self.range)


@dataclass(frozen=True)
class HaloWitness:
    """An equidistant subset of a closed ball: points pairwise at `radius`."""

    center: str
    radius: Fraction
    points: tuple[str, ...]


@dataclass(frozen=True)
class Violation:
    kind: str  # diagonal | positivity | symmetry | triangle | range
    where: tuple[str, ...]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]


def _subdominant(rank) -> list[list[int]]:
    """The single-linkage (subdominant) ultrametric of a symmetric matrix:
    for each pair, the least possible largest edge on a path joining them.

    Prim's algorithm grows a minimum spanning tree from point 0.  When v
    joins through parent p by an edge of weight w, its value to each tree
    point u is max(w, value(p, u)), so the whole matrix costs O(n^2).  It
    never exceeds the matrix, and equals it off the diagonal exactly when
    the strong triangle inequality holds on every triple of distinct points
    (Gower & Ross 1969; Carlsson & Memoli, JMLR 2010).
    """
    n = len(rank)
    sub = [[0] * n for _ in range(n)]
    if not n:
        return sub
    key = list(rank[0])
    parent = [0] * n
    tree = [0]
    outside = set(range(1, n))
    while outside:
        v = min(outside, key=key.__getitem__)
        outside.remove(v)
        w, row, via = key[v], sub[v], sub[parent[v]]
        for u in tree:  # via[parent] is still 0, the least code
            row[u] = sub[u][v] = w if w > via[u] else via[u]
        tree.append(v)
        rv = rank[v]
        for u in outside:
            if rv[u] < key[u]:
                key[u] = rv[u]
                parent[u] = v
    return sub


def validate_ultrametric(space: FiniteUltrametricSpace) -> ValidationReport:
    """Check every metric axiom and report all violating pairs/triples.

    Strong triangle violations are reported as (x, y, z) where
    d(x,y) > max(d(x,z), d(z,y)).

    Every check compares the integer codes of `space.codec`.  A symmetric
    matrix is compared with its single-linkage ultrametric in O(n^2); a
    triangle violation (x, y, z) forces that ultrametric below d(x, y), so
    only the pairs where it falls short are scanned for z.  An asymmetric
    matrix takes the full O(n^3) triple scan.
    """
    n = len(space)
    labels = space.labels
    codec = space.codec
    rank = codec.rank
    zero = codec.encode(ZERO)
    bad: list[Violation] = []
    for i in range(n):
        if rank[i][i] != zero:
            bad.append(Violation("diagonal", (labels[i],)))
    symmetric = True
    for i, j in itertools.combinations(range(n), 2):
        if rank[i][j] != rank[j][i]:
            symmetric = False
            bad.append(Violation("symmetry", (labels[i], labels[j])))
        if rank[i][j] <= zero:
            bad.append(Violation("positivity", (labels[i], labels[j])))
    sub = _subdominant(rank) if symmetric else None
    for i, j in itertools.combinations(range(n), 2):
        rij, ri = rank[i][j], rank[i]
        if sub is not None and rij <= sub[i][j]:
            continue
        for k in range(n):
            if k == i or k == j:
                continue
            if rij > max(ri[k], rank[k][j]):
                bad.append(Violation("triangle", (labels[i], labels[j], labels[k])))
    if space.range is not None:
        allowed = {codec.code.get(v.as_integer_ratio()) for v in space.range}
        for i, j in itertools.combinations(range(n), 2):
            if rank[i][j] not in allowed:
                bad.append(Violation("range", (labels[i], labels[j])))
    return ValidationReport(ok=not bad, violations=tuple(bad))


def closed_ball(
    space: FiniteUltrametricSpace, center: str, radius: Fraction
) -> tuple[str, ...]:
    """Labels within distance `radius` of `center`, in canonical order."""
    if radius < 0:
        raise PreconditionError("radius must be nonnegative")
    c = space.index(center)
    return tuple(
        l for i, l in enumerate(space.labels) if space.dist[c][i] <= radius
    )


def ball_partition(
    space: FiniteUltrametricSpace, radius: Fraction, strict: bool = False
) -> tuple[tuple[str, ...], ...]:
    """Partition labels by d < radius (strict) or d <= radius.

    Blocks are equivalence classes; transitivity holds for ultrametrics and
    is re-asserted here, so a non-ultrametric input raises.
    """
    if strict and radius <= 0:
        raise PreconditionError("strict partition requires radius > 0")
    if radius < 0:
        raise PreconditionError("radius must be nonnegative")
    n = len(space)
    related = (
        (lambda a, b: space.dist[a][b] < radius)
        if strict
        else (lambda a, b: space.dist[a][b] <= radius)
    )
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in itertools.combinations(range(n), 2):
        if related(i, j):
            parent[find(i)] = find(j)
    blocks: dict[int, list[int]] = {}
    for i in range(n):
        blocks.setdefault(find(i), []).append(i)
    ordered = sorted(blocks.values(), key=lambda b: b[0])
    for block in ordered:
        for a, b in itertools.combinations(block, 2):
            if not related(a, b):
                raise PreconditionError(
                    "relation is not transitive; the space is not an ultrametric"
                )
    return tuple(tuple(space.labels[i] for i in block) for block in ordered)


def _strict_blocks_in_ball(
    space: FiniteUltrametricSpace, center_idx: int, radius: Fraction
) -> list[list[int]]:
    """Classes of d < radius restricted to the closed ball B(center, radius)."""
    ball = [
        i for i in range(len(space)) if space.dist[center_idx][i] <= radius
    ]
    blocks: list[list[int]] = []
    for i in ball:
        for block in blocks:
            if space.dist[block[0]][i] < radius:
                block.append(i)
                break
        else:
            blocks.append([i])
    return blocks


def is_haloed(
    space: FiniteUltrametricSpace, range_set: RangeSet, n: int
):
    """Does every ball B(a, r), r in the range set, hold an r-equidistant
    set of size >= n?

    The maximum equidistant size inside B(a, r) equals the number of
    d < r classes in the ball (one representative per class), so the search
    is polynomial.  Returns (True, {(a, r): HaloWitness}) or
    (False, (a, r)) for the first failing pair.
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    witnesses: dict[tuple[str, Fraction], HaloWitness] = {}
    for a_idx, a in enumerate(space.labels):
        for r in range_set.nonzero():
            blocks = _strict_blocks_in_ball(space, a_idx, r)
            if len(blocks) < n:
                return False, (a, r)
            reps = tuple(space.labels[b[0]] for b in blocks[:n])
            witnesses[(a, r)] = HaloWitness(center=a, radius=r, points=reps)
    return True, witnesses


@lru_cache(maxsize=None)
def _avoidant_profile(space: FiniteUltrametricSpace, range_set: RangeSet):
    """Smallest constraint set with no equidistant avoider, by brute force.

    Returns (size, (a, r, labels)) for a minimum-cardinality subset A of some
    ball B(a, r) such that no p in the ball has d(x, p) = r for all x in A,
    or None when every subset of every ball is avoidable.
    """
    n_pts = len(space)
    per_ball = []
    for a_idx, a in enumerate(space.labels):
        for r in range_set.nonzero():
            ball = [i for i in range(n_pts) if space.dist[a_idx][i] <= r]
            eq = {
                p: {x for x in ball if space.dist[p][x] == r} for p in ball
            }
            per_ball.append((a, r, ball, eq))
    max_size = max((len(b[2]) for b in per_ball), default=0)
    for size in range(0, max_size + 1):
        for a, r, ball, eq in per_ball:
            for subset in itertools.combinations(ball, size):
                need = set(subset)
                if not any(need <= eq[p] for p in ball):
                    labels = tuple(space.labels[i] for i in subset)
                    return size, (a, r, labels)
    return None


def is_avoidant(
    space: FiniteUltrametricSpace, range_set: RangeSet, n: int
):
    """Can every subset A (|A| < n) of every ball B(a, r) be avoided, i.e.
    does some p in the ball satisfy d(x, p) = r for all x in A?

    Exhaustive over subsets.  Returns (True, None) or
    (False, (a, r, A)) with a counterexample of size < n.
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    profile = _avoidant_profile(space, range_set)
    if profile is None or profile[0] >= n:
        return True, None
    return False, profile[1]


def distance_set(space: FiniteUltrametricSpace) -> RangeSet:
    """All pairwise distances of the space, as a range set (0 included)."""
    vals = {ZERO}
    for row in space.dist:
        vals.update(row)
    return RangeSet.of(vals)
