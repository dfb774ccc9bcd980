"""Isometric embedding of finite ultrametric spaces into the model.

The engine is a constructive one-point extension: given an isometric image
of Y and prescribed distances to a new point, an avoidant witness inside the
smallest prescribed ball realizes all of them at once.  Iterating embeds any
finite space exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .errors import InternalCheckError, PreconditionError
from .model import ORIGIN, UrysohnPoint, avoidant_witness, delta
from .spaces import FiniteUltrametricSpace, RangeSet, validate_ultrametric


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
        if self.theta not in self.base.labels:
            raise PreconditionError("theta is not a label of the base space")
        ys = [l for l in self.base.labels if l != self.theta]
        if not ys:
            raise PreconditionError("Y must be nonempty")
        phi = self.phi_map()
        if set(phi) != set(ys):
            raise PreconditionError("phi must be defined exactly on Y")
        if not validate_ultrametric(self.base).ok:
            raise PreconditionError("base space is not a valid ultrametric space")
        for y1, y2 in itertools.combinations(ys, 2):
            if delta(phi[y1], phi[y2]) != self.base.d(y1, y2):
                raise PreconditionError(f"phi is not isometric on ({y1}, {y2})")


def _extend(row, images, indices) -> UrysohnPoint:
    """The point at distance row[j] from each images[k], j = indices[k].

    The caller guarantees a valid ultrametric behind `row` and an isometric
    `images`; the result is still re-checked against every prescribed
    distance.
    """
    pairs = list(zip(indices, images))
    r = min(row[j] for j, _ in pairs)
    q = next(p for j, p in pairs if row[j] == r)
    constraints = [p for p in images if delta(p, q) <= r]
    t = avoidant_witness(q, r, constraints)
    for j, p in pairs:
        if delta(p, t) != row[j]:
            raise InternalCheckError(
                f"extension failed to realize the distance to point {j}"
            )
    return t


def extend_one_point(problem: ExtensionProblem) -> UrysohnPoint:
    """Realize prescribed distances e(y, theta) by a single model point.

    Take r = min e(y, theta), q the first minimizer in canonical label
    order, A = phi(Y) restricted to B(phi(q), r), and return the avoidant
    witness of (phi(q), r, A).  The postcondition
    delta(phi(y), t) = e(y, theta) is re-checked on every call.
    """
    problem.validate()
    base = problem.base
    return _extend(
        base.dist[base.index(problem.theta)],
        [p for _, p in problem.phi],
        [base.index(y) for y, _ in problem.phi],
    )


def embed_space(
    space: FiniteUltrametricSpace, basepoint: Optional[UrysohnPoint] = None
) -> dict[str, UrysohnPoint]:
    """Exact isometric embedding, label by label in canonical order.

    The first label maps to `basepoint` (default: the empty map); each later
    label is placed by a one-point extension of the embedded prefix.  The
    whole space is validated once, in O(n^2) when it is an ultrametric;
    every prefix is then a valid extension problem, so the loop needs only
    the O(n^2) `delta` calls of the extensions and their postconditions.
    """
    report = validate_ultrametric(space)
    if not report.ok:
        raise PreconditionError("space is not a valid ultrametric space")
    if not space.labels:
        return {}
    images = [basepoint if basepoint is not None else ORIGIN]
    for i in range(1, len(space)):
        images.append(_extend(space.dist[i], images, range(i)))
    for (i, x), (j, y) in itertools.combinations(enumerate(images), 2):
        if delta(x, y) != space.dist[i][j]:
            raise InternalCheckError("embedding failed to preserve a distance")
    return dict(zip(space.labels, images))


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
