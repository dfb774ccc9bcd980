"""Seeded input generator for the benchmark.

Everything here is written against the documented JSON formats only and
imports nothing from ``urysohn``, so a change to the library cannot change
what a workload sends it.  Every document is a plain dict/list of strings
and ints, as a user would write it to a file.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

TWELFTHS = tuple(Fraction(k, 12) for k in range(1, 25))


def fmt(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def stream(seed: int, name: str, index: int) -> random.Random:
    """An independent, reproducible random stream per (seed, name, index)."""
    return random.Random(f"{seed}:{name}:{index}")


class Tree:
    """A random ultrametric on n leaves, built by agglomerative merges.

    ``paths[i]`` lists (height, child index) for every merge above leaf i,
    lowest first; the distance of two leaves is the height of their first
    common merge.  The paths give an isometric image in the model that does
    not depend on the library's embedding.
    """

    def __init__(self, rng: random.Random, n: int, prefix="p"):
        self.labels = [f"{prefix}{i}" for i in range(n)]
        self.paths: list[list[tuple[Fraction, int]]] = [[] for _ in range(n)]
        self.dist = [[Fraction(0)] * n for _ in range(n)]
        clusters = [[i] for i in range(n)]
        heights = sorted(rng.sample(TWELFTHS, rng.randint(4, 10)))
        for level, h in enumerate(heights):
            if len(clusters) == 1:
                break
            last = level == len(heights) - 1
            c = len(clusters)
            groups = 1 if last else rng.randint(max(1, c // 3), c - 1)
            rng.shuffle(clusters)
            cuts = sorted(rng.sample(range(1, c), groups - 1))
            merged = []
            for lo, hi in zip([0] + cuts, cuts + [c]):
                group = clusters[lo:hi]
                for k, child in enumerate(group):
                    for leaf in child:
                        self.paths[leaf].append((h, k))
                for a, b in _pairs(group):
                    for i in a:
                        for j in b:
                            self.dist[i][j] = self.dist[j][i] = h
                merged.append([leaf for child in group for leaf in child])
            clusters = merged

    def diameter(self) -> Fraction:
        return max((max(row) for row in self.dist), default=Fraction(0))

    def image(self, i: int) -> dict[str, int]:
        """Point JSON of leaf i: value k at each merge height (0 omitted)."""
        return {fmt(h): k for h, k in reversed(self.paths[i]) if k}

    def space_doc(self) -> dict:
        return {
            "labels": list(self.labels),
            "dist": [[fmt(v) for v in row] for row in self.dist],
        }


def _pairs(group):
    for x in range(len(group)):
        for y in range(x + 1, len(group)):
            yield group[x], group[y]


def corrupt(rng: random.Random, tree: Tree) -> tuple[dict, tuple[str, str]]:
    """Space document with one pair raised above the diameter.

    Exactly the n - 2 triples (x, y, z) on the raised pair {x, y} then break
    the strong triangle inequality; nothing else does.
    """
    doc = tree.space_doc()
    i, j = sorted(rng.sample(range(len(tree.labels)), 2))
    raised = fmt(tree.diameter() + Fraction(rng.randint(1, 12), 12))
    doc["dist"][i][j] = doc["dist"][j][i] = raised
    return doc, (tree.labels[i], tree.labels[j])


def extension_doc(rng: random.Random, tree: Tree) -> tuple[dict, str]:
    """One-point extension problem: the whole space, a random theta, and the
    tree image of every other label."""
    t = rng.randrange(len(tree.labels))
    theta = tree.labels[t]
    phi = {l: tree.image(i) for i, l in enumerate(tree.labels) if i != t}
    return {"space": tree.space_doc(), "theta": theta, "phi": phi}, theta


def point(rng: random.Random, coords, max_support=4) -> dict[str, int]:
    """Up to ``max_support`` coordinates from ``coords``, values 1..5."""
    chosen = rng.sample(coords, rng.randint(0, max_support))
    return {fmt(c): rng.randint(1, 5) for c in sorted(chosen, reverse=True)}


def small_subset(rng: random.Random, m: int) -> list[dict[str, int]]:
    """At most m points over the twelfths: shared coordinates, few radii."""
    return _distinct([point(rng, TWELFTHS) for _ in range(m)])


def large_pair(rng: random.Random, m: int) -> tuple[list, list]:
    """Two m-point subsets over distinct random rationals.

    F keeps most of E, moves a fifth of its points at their lowest
    coordinate and replaces a tenth by new points, so almost every pairwise
    distance of the union is a distinct candidate radius.
    """
    pool = sorted(
        {Fraction(rng.randrange(1, 10**6), rng.randrange(1, 10**4)) for _ in range(4 * m)}
    )
    e = _distinct([point(rng, pool, max_support=5) for _ in range(m)])
    f = []
    for p in e:
        roll = rng.random()
        if roll < 0.2 and p:
            moved = dict(p)
            moved[min(moved, key=Fraction)] += 1
            f.append(moved)
        elif roll >= 0.3:
            f.append(dict(p))
    f.extend(point(rng, pool, max_support=5) for _ in range(m - len(f)))
    return e, _distinct(f)


def _distinct(points: list[dict]) -> list[dict]:
    seen, out = set(), []
    for p in points:
        key = tuple(sorted(p.items()))
        if key not in seen:
            seen.add(key)
            out.append(p)
    return out


def range_doc(rng: random.Random, size: int) -> list[str]:
    return [fmt(v) for v in sorted(rng.sample(TWELFTHS, size))]


def heir_count(range_size: int, depth: int, branching: int) -> int:
    """Nodes of the truncated heir tree: every chain of L strictly decreasing
    radii (C(k, L) of them) carries branching**L seed choices."""
    return sum(comb(range_size, L) * branching**L for L in range(depth + 1))


def equilateral_doc(rng: random.Random, m: int, tag: str) -> dict:
    """m points pairwise at one random rational distance; labels carry the
    tag so that no two requests share a space."""
    d = fmt(Fraction(rng.randrange(1, 10**6), rng.randrange(1, 10**6)))
    labels = [f"{tag}_{i}" for i in range(m)]
    return {
        "labels": labels,
        "dist": [["0" if i == j else d for j in range(m)] for i in range(m)],
    }
