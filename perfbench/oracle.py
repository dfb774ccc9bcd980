"""Output checks for every benchmark request.

Each check works on plain JSON values (points as {"coord": value} dicts,
rationals as Fractions or strings) with its own distance function, so no
check calls the library it is checking.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def point(doc: dict) -> dict:
    """Point JSON with its coordinates read as Fractions."""
    return {Fraction(c): v for c, v in doc.items()}


def distance(p: dict, q: dict) -> Fraction:
    """Largest coordinate at which two maps (as from ``point``) differ."""
    return max(
        (c for c in p.keys() | q.keys() if p.get(c, 0) != q.get(c, 0)),
        default=Fraction(0),
    )


def delta(p: dict, q: dict) -> Fraction:
    """``distance`` of two point JSON documents."""
    return distance(point(p), point(q))


def embedding_ok(labels, dist, images: dict) -> bool:
    """The images realise every pairwise distance of the space exactly."""
    if set(images) != set(labels):
        return False
    pts = [point(images[l]) for l in labels]
    return all(
        distance(pts[i], pts[j]) == dist[i][j]
        for i, j in combinations(range(len(labels)), 2)
    )


def planted_violations_ok(labels, pair, violations) -> bool:
    """The report lists exactly the n - 2 triangle triples on the raised pair."""
    x, y = pair
    expected = {("triangle", (x, y, z)) for z in labels if z not in pair}
    got = [(kind, tuple(where)) for kind, where in violations]
    return len(got) == len(expected) and set(got) == expected


def extension_ok(labels, dist, theta: str, phi: dict, point: dict) -> bool:
    """The new point sits at the prescribed distance from every image."""
    t = labels.index(theta)
    return all(
        delta(phi[l], point) == dist[i][t] for i, l in enumerate(labels) if i != t
    )


def hausdorff_candidates(e: list, f: list) -> set:
    """{0} and every pairwise distance of the union: where the value must lie.

    Sorted by their (coordinate, value) lists, highest coordinate first, the
    points are in depth-first order of their tree, and in that order every
    pairwise distance is the largest of the neighbour distances between the
    two points.  So the neighbour distances are all the distances, found in
    O(m log m) instead of O(m^2).
    """
    pts = sorted({tuple(sorted(point(p).items(), reverse=True)) for p in e + f})
    return {Fraction(0)} | {distance(dict(a), dict(b)) for a, b in zip(pts, pts[1:])}


def searches_ok(answers, equilateral_size=None) -> bool:
    """answers[n-1] = (haloed, avoidant, injective) for n = 1..len(answers).

    The three predicates agree for every n; for an m-point equilateral space
    all three hold exactly when n <= m.
    """
    for n, (h, a, j) in enumerate(answers, start=1):
        if not h == a == j:
            return False
        if equilateral_size is not None and h != (n <= equilateral_size):
            return False
    return True


def heirs_ok(expected_nodes: int, endpoints: list, pairs, distances) -> bool:
    """Node count matches the closed form, endpoints are distinct, and every
    sampled chain distance equals the distance of the two endpoints."""
    if len(endpoints) != expected_nodes:
        return False
    if len({tuple(sorted(p.items())) for p in endpoints}) != expected_nodes:
        return False
    return all(
        d == delta(endpoints[i], endpoints[j]) for (i, j), d in zip(pairs, distances)
    )


def petal_cover_ok(originals: list, images: list) -> bool:
    """The re-embedding is isometric and lands in the piece of the subset's
    own distance set."""
    allowed = hausdorff_candidates(originals, [])
    if any(c not in allowed for img in images for c in point(img)):
        return False
    orig = [point(p) for p in originals]
    imgs = [point(p) for p in images]
    return all(
        distance(imgs[a], imgs[b]) == distance(orig[a], orig[b])
        for a, b in combinations(range(len(originals)), 2)
    )
