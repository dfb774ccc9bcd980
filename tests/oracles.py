"""Independent brute-force oracles used to cross-check the library.

Everything here is written the dumb way on purpose: exhaustive subset
scans and direct definitional checks, no reuse of the library's clever
counting arguments.
"""

from fractions import Fraction
from itertools import combinations

from urysohn import (
    ORIGIN,
    FiniteUltrametricSpace,
    RangeSet,
    avoidant_witness,
    delta,
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
    """Embedding by the definition, on Fractions: each label goes to the
    avoidant witness of (phi(q), r, A), where r is its least distance to
    the labels before it, q the first of them at distance r, and A the
    images so far inside the closed ball B(phi(q), r)."""
    labels = space.labels
    if not labels:
        return {}
    images = {labels[0]: basepoint}
    for i, label in enumerate(labels[1:], start=1):
        before = labels[:i]
        r = min(space.d(y, label) for y in before)
        q = images[next(y for y in before if space.d(y, label) == r)]
        ball = [images[y] for y in before if delta(images[y], q) <= r]
        images[label] = avoidant_witness(q, r, ball)
    return images


def plain_space_from_json(doc) -> FiniteUltrametricSpace:
    """A space document read with one `Fraction(str)` call per entry."""
    return FiniteUltrametricSpace(
        tuple(doc["labels"]),
        tuple(tuple(Fraction(v) for v in row) for row in doc["dist"]),
    )


def validation_report(space: FiniteUltrametricSpace):
    """Every metric axiom violation as (kind, labels), by the definitions
    on Fractions, in the order `validate_ultrametric` lists them."""
    labels, n = space.labels, len(space)
    d = space.dist
    out = [("diagonal", (labels[i],)) for i in range(n) if d[i][i] != 0]
    for i, j in combinations(range(n), 2):
        if d[i][j] != d[j][i]:
            out.append(("symmetry", (labels[i], labels[j])))
        if d[i][j] <= 0:
            out.append(("positivity", (labels[i], labels[j])))
    for i, j in combinations(range(n), 2):
        for k in range(n):
            if k not in (i, j) and d[i][j] > max(d[i][k], d[k][j]):
                out.append(("triangle", (labels[i], labels[j], labels[k])))
    if space.range is not None:
        for i, j in combinations(range(n), 2):
            if d[i][j] not in space.range.values:
                out.append(("range", (labels[i], labels[j])))
    return out
