"""Isometric embedding of finite ultrametric spaces into the model.

The engine is a constructive one-point extension: given an isometric image
of Y and prescribed distances to a new point, an avoidant witness inside the
smallest prescribed ball realizes all of them at once.  Iterating embeds any
finite space exactly.  The extension only compares distances, so inside one
call it runs on the integer codes of the space's `RankCodec`; Fractions come
back only in the returned points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .errors import InternalCheckError, PreconditionError
from .model import ORIGIN, UrysohnPoint
from .spaces import (
    FiniteUltrametricSpace,
    RankCodec,
    RangeSet,
    validate_ultrametric,
)


@dataclass(frozen=True)
class ExtensionProblem:
    """A space over Y + {theta} together with an isometric image of Y."""

    base: FiniteUltrametricSpace
    theta: str
    phi: tuple[tuple[str, UrysohnPoint], ...]

    @classmethod
    def of(cls, base, theta, phi_mapping):
        order = [l for l in base.labels if l != theta]
        if set(phi_mapping) != set(order):
            raise PreconditionError("phi must be defined exactly on Y")
        return cls(base, theta, tuple((l, phi_mapping[l]) for l in order))

    def phi_map(self) -> dict[str, UrysohnPoint]:
        return dict(self.phi)

    def validate(self) -> None:
        self._coded()

    def _coded(self):
        """Check the problem; return its codec, the coded distances from
        theta and the coded images of Y, both in `phi` order."""
        base = self.base
        if self.theta not in base.labels:
            raise PreconditionError("theta is not a label of the base space")
        ys = [l for l in base.labels if l != self.theta]
        if not ys:
            raise PreconditionError("Y must be nonempty")
        phi = self.phi_map()
        if set(phi) != set(ys):
            raise PreconditionError("phi must be defined exactly on Y")
        if not validate_ultrametric(base).ok:
            raise PreconditionError("base space is not a valid ultrametric space")
        codec = base.codec.widened(c for p in phi.values() for c in p.support())
        rank = codec.rank
        coded = {y: (base.index(y), _encode(codec, p)) for y, p in phi.items()}
        for y1, y2 in itertools.combinations(ys, 2):
            (i, p1), (j, p2) = coded[y1], coded[y2]
            if _delta(p1, p2) != rank[i][j]:
                raise PreconditionError(f"phi is not isometric on ({y1}, {y2})")
        row = rank[base.index(self.theta)]
        order = [coded[y] for y, _ in self.phi]
        return codec, [row[i] for i, _ in order], [p for _, p in order]


# Inside one call, a point is coded as a tuple of (code, value) pairs with
# codes strictly descending, the codes taken from a RankCodec that holds
# every distance and coordinate in play.  Code 0 is the value 0.


def _encode(codec: RankCodec, p: UrysohnPoint):
    return tuple((codec.encode(c), v) for c, v in p.coords)


def _decode(codec: RankCodec, p) -> UrysohnPoint:
    return UrysohnPoint(tuple((codec.values[c], v) for c, v in p))


def _delta(f, g) -> int:
    """`model.delta` on coded points: the largest code where they differ."""
    for a, b in zip(f, g):
        if a != b:
            return a[0] if a[0] > b[0] else b[0]
    if len(f) == len(g):
        return 0
    return (f if len(f) > len(g) else g)[min(len(f), len(g))][0]


def _witness(a, r: int, points):
    """`model.avoidant_witness` on coded points, with the same checks."""
    for x in points:
        if _delta(a, x) > r:
            raise PreconditionError("constraint point outside the closed ball")
    excluded = {next((v for c, v in x if c == r), 0) for x in points}
    k = next(k for k in itertools.count() if k not in excluded)
    above = tuple(cv for cv in a if cv[0] > r)
    witness = above + ((r, k),) if k else above
    for x in points:
        if _delta(x, witness) != r:
            raise InternalCheckError("avoidant witness failed its distance check")
    if _delta(a, witness) > r:
        raise InternalCheckError("avoidant witness left the ball")
    return witness


def _extend(row, images):
    """The coded point at distance row[k] from each coded images[k].

    Take r = min row, q the first image at distance r, A the images within
    r of q, and return the avoidant witness of (q, r, A).  The caller
    guarantees a valid ultrametric behind `row` and an isometric `images`;
    the result is still re-checked against every prescribed distance.
    """
    r = min(row)
    q = images[row.index(r)]
    t = _witness(q, r, [p for p in images if _delta(p, q) <= r])
    for k, (p, e) in enumerate(zip(images, row)):
        if _delta(p, t) != e:
            raise InternalCheckError(
                f"extension failed to realize the distance to point {k}"
            )
    return t


def extend_one_point(problem: ExtensionProblem) -> UrysohnPoint:
    """Realize prescribed distances e(y, theta) by a single model point.

    Take r = min e(y, theta), q the first minimizer in canonical label
    order, A = phi(Y) restricted to B(phi(q), r), and return the avoidant
    witness of (phi(q), r, A).  The postcondition
    delta(phi(y), t) = e(y, theta) is re-checked on every call.  All of it
    compares integer codes; the result is decoded once.
    """
    codec, row, images = problem._coded()
    return _decode(codec, _extend(row, images))


def embed_space(
    space: FiniteUltrametricSpace, basepoint: Optional[UrysohnPoint] = None
) -> dict[str, UrysohnPoint]:
    """Exact isometric embedding, label by label in canonical order.

    The first label maps to `basepoint` (default: the empty map); each later
    label is placed by a one-point extension of the embedded prefix.  The
    whole space is validated once, in O(n^2) when it is an ultrametric;
    every prefix is then a valid extension problem.  The extensions, their
    postconditions and the final all-pairs isometry check make O(n^2)
    comparisons of coded points; the images are decoded once at the end.
    """
    report = validate_ultrametric(space)
    if not report.ok:
        raise PreconditionError("space is not a valid ultrametric space")
    if not space.labels:
        return {}
    base = basepoint if basepoint is not None else ORIGIN
    codec = space.codec.widened(base.support())
    rank = codec.rank
    images = [_encode(codec, base)]
    for i in range(1, len(space)):
        images.append(_extend(rank[i][:i], images))
    for (i, x), (j, y) in itertools.combinations(enumerate(images), 2):
        if _delta(x, y) != rank[i][j]:
            raise InternalCheckError("embedding failed to preserve a distance")
    return {l: _decode(codec, p) for l, p in zip(space.labels, images)}


def _valid_extensions(dsub, rvals, size):
    """All vectors e with (Y, d) + theta ultrametric, by backtracking.

    A partial assignment survives iff for every placed pair the two largest
    of (e_i, e_j, d_ij) coincide; infeasible vectors are pruned, not counted.
    """
    e = [None] * size

    def rec(i):
        if i == size:
            yield tuple(e)
            return
        for v in rvals:
            ok = True
            for j in range(i):
                dij = dsub[i][j]
                ej = e[j]
                if (
                    v > max(ej, dij)
                    or ej > max(v, dij)
                    or dij > max(v, ej)
                ):
                    ok = False
                    break
            if ok:
                e[i] = v
                yield from rec(i + 1)

    yield from rec(0)


@lru_cache(maxsize=None)
def _injectivity_profile(space: FiniteUltrametricSpace, range_set: RangeSet):
    """Smallest |Y| admitting an unrealizable one-point extension.

    Scans subsets Y of the space in increasing size and, for each, every
    range-valued ultrametric distance vector to a new point; a vector fails
    when no point of the space realizes it.  Returns
    (size, (labels, vector)) for the first failure, else None.
    """
    n_pts = len(space)
    dist = space.dist
    rvals = range_set.nonzero()
    for size in range(1, n_pts + 1):
        for subset in itertools.combinations(range(n_pts), size):
            dsub = [[dist[a][b] for b in subset] for a in subset]
            for evec in _valid_extensions(dsub, rvals, size):
                realized = any(
                    all(dist[t][subset[j]] == evec[j] for j in range(size))
                    for t in range(n_pts)
                )
                if not realized:
                    labels = tuple(space.labels[i] for i in subset)
                    return size, (labels, evec)
    return None


def check_one_point_injectivity(
    space: FiniteUltrametricSpace, range_set: RangeSet, n: int
):
    """Do all one-point range-valued extensions of subspaces with at most
    n - 1 points have realizers inside the space?  Exhaustive and exact.

    Returns (True, None) or (False, (labels, vector)) with an unrealizable
    configuration of size < n.
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    profile = _injectivity_profile(space, range_set)
    if profile is None or profile[0] > n - 1:
        return True, None
    return False, profile[1]
