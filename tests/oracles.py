"""Independent brute-force oracles used to cross-check the library.

Everything here is written the dumb way on purpose: exhaustive subset
scans and direct definitional checks, no reuse of the library's clever
counting arguments.
"""

from fractions import Fraction
from itertools import combinations

from urysohn import (
    ORIGIN,
    ExtensionProblem,
    FiniteUltrametricSpace,
    RangeSet,
    extend_one_point,
)


def triangle_violations(space: FiniteUltrametricSpace):
    """Every ordered triple (x, y, z) with d(x,y) > max(d(x,z), d(z,y))."""
    out = []
    labels = space.labels
    for x in labels:
        for y in labels:
            for z in labels:
                if space.d(x, y) > max(space.d(x, z), space.d(z, y)):
                    out.append((x, y, z))
    return out


def ball(space, center, radius):
    return {x for x in space.labels if space.d(center, x) <= radius}


def oracle_is_haloed(space, range_set: RangeSet, n: int) -> bool:
    """Exhaustive search for an r-equidistant subset of size n in every ball."""
    for a in space.labels:
        for r in range_set.nonzero():
            members = sorted(ball(space, a, r))
            found = n == 0
            for size in (n,):
                for subset in combinations(members, min(size, len(members))):
                    if len(subset) < size:
                        continue
                    if all(
                        space.d(x, y) == r for x, y in combinations(subset, 2)
                    ):
                        found = True
                        break
            if not found:
                return False
    return True


def oracle_is_avoidant(space, range_set: RangeSet, n: int) -> bool:
    """Exhaustive scan of all subsets A with |A| < n in every ball."""
    for a in space.labels:
        for r in range_set.nonzero():
            members = sorted(ball(space, a, r))
            for size in range(0, n):
                for subset in combinations(members, min(size, len(members))):
                    if len(subset) < size:
                        continue
                    if not any(
                        all(space.d(x, p) == r for x in subset) for p in members
                    ):
                        return False
    return True


def threshold_components(space, radius, strict):
    """Connected components of the graph joining points at distance < r
    (strict) or <= r; an independent check of ball_partition."""
    labels = list(space.labels)
    adj = {x: set() for x in labels}
    for x, y in combinations(labels, 2):
        close = space.d(x, y) < radius if strict else space.d(x, y) <= radius
        if close:
            adj[x].add(y)
            adj[y].add(x)
    seen, comps = set(), []
    for x in labels:
        if x in seen:
            continue
        stack, comp = [x], set()
        while stack:
            v = stack.pop()
            if v in comp:
                continue
            comp.add(v)
            stack.extend(adj[v] - comp)
        seen |= comp
        comps.append(frozenset(comp))
    return set(comps)


def embed_by_extension(space: FiniteUltrametricSpace, basepoint=ORIGIN):
    """Embedding by the definition: each label is a fresh, fully validated
    one-point extension problem over the subspace of the labels before it."""
    labels = space.labels
    if not labels:
        return {}
    images = {labels[0]: basepoint}
    for i, label in enumerate(labels[1:], start=1):
        sub = space.restrict(labels[: i + 1])
        images[label] = extend_one_point(ExtensionProblem.of(sub, label, images))
    return images
