"""JSON interchange for spaces, points, subsets, and heir trees.

Rationals travel as strings: integers ("2"), fractions ("3/4") or decimals
("0.75").  Exponent notation ("1e3") is rejected, because expanding an
exponent costs time and memory that grow with its value, not with the
length of the token.  Points travel as objects mapping the coordinate string
to a positive integer value.  Parsing raises ParseError on malformed or
inconsistent input, keeping exit-code discipline simple for the CLI.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Mapping

from .errors import ParseError, StructureError
from .spaces import FiniteUltrametricSpace, RangeSet
from .model import ORIGIN, UrysohnPoint, seed_point
from .hyperspace import FiniteSubset
from .embedding import ExtensionProblem
from .petals import HeirTree, HeirNode, Inheritance


def parse_rational(text: Any) -> Fraction:
    """Parse "p/q", integer or decimal strings (ints accepted too), without
    exponents; must be >= 0."""
    try:
        if isinstance(text, bool):
            raise ValueError("booleans are not rationals")
        if isinstance(text, str) and ("e" in text or "E" in text):
            raise ValueError("exponent notation is not accepted")
        value = Fraction(text) if isinstance(text, (int, str)) else None
        if value is None:
            raise ValueError(f"cannot read a rational from {type(text).__name__}")
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational {text!r}: {exc}") from exc
    if value < 0:
        raise ParseError(f"negative rational {text!r} not allowed here")
    return value


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# ---------------------------------------------------------------- spaces


def space_from_json(doc: Mapping[str, Any]) -> FiniteUltrametricSpace:
    """Parse a space document.  Each distinct string token is parsed once
    per document, so equal tokens share one Fraction."""
    try:
        labels = tuple(str(l) for l in doc["labels"])
        rows = doc["dist"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"space document needs 'labels' and 'dist': {exc}") from exc
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise ParseError("'dist' must be a list of rows")
    memo: dict[str, Fraction] = {}

    def rational(token):
        if not isinstance(token, str):
            return parse_rational(token)
        value = memo.get(token)
        if value is None:
            value = memo[token] = parse_rational(token)
        return value

    dist = tuple(tuple(map(rational, row)) for row in rows)
    range_set = None
    if doc.get("range") is not None:
        range_set = range_set_from_json(doc["range"])
    try:
        return FiniteUltrametricSpace(labels, dist, range_set)
    except StructureError as exc:
        raise ParseError(str(exc)) from exc


def space_to_json(space: FiniteUltrametricSpace) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "labels": list(space.labels),
        "dist": [[format_rational(v) for v in row] for row in space.dist],
    }
    if space.range is not None:
        doc["range"] = range_set_to_json(space.range)
    return doc


def range_set_from_json(values: Any) -> RangeSet:
    if not isinstance(values, list):
        raise ParseError("range must be a list of rationals")
    try:
        return RangeSet.of(parse_rational(v) for v in values)
    except StructureError as exc:
        raise ParseError(str(exc)) from exc


def range_set_to_json(s: RangeSet) -> list[str]:
    return [format_rational(v) for v in s.values]


# ---------------------------------------------------------------- points


def point_from_json(doc: Any) -> UrysohnPoint:
    if not isinstance(doc, Mapping):
        raise ParseError("point must be an object of coordinate -> value")
    coords = []
    for key, raw in doc.items():
        coord = parse_rational(key)
        if coord <= 0:
            raise ParseError(f"coordinate {key!r} must be positive")
        if not isinstance(raw, int) or isinstance(raw, bool):
            raise ParseError(f"value at {key!r} must be an integer")
        if raw <= 0:
            raise ParseError(f"value at {key!r} must be positive (omit zeros)")
        coords.append((coord, raw))
    seen = {c for c, _ in coords}
    if len(seen) != len(coords):
        raise ParseError("duplicate coordinates in point")
    return UrysohnPoint.of(coords)


def point_to_json(p: UrysohnPoint) -> dict[str, int]:
    return {format_rational(c): v for c, v in p.coords}


def subset_from_json(doc: Any) -> FiniteSubset:
    if not isinstance(doc, list) or not doc:
        raise ParseError("subset must be a nonempty array of points")
    return FiniteSubset.of(point_from_json(p) for p in doc)


def subset_to_json(e: FiniteSubset) -> list[dict[str, int]]:
    return [point_to_json(p) for p in e.points]


# ------------------------------------------------------ extension problems


def extension_problem_from_json(doc: Mapping[str, Any]) -> ExtensionProblem:
    try:
        base = space_from_json(doc["space"])
        theta = str(doc["theta"])
        phi_doc = doc["phi"]
    except (KeyError, TypeError) as exc:
        raise ParseError(
            f"extension document needs 'space', 'theta', 'phi': {exc}"
        ) from exc
    if not isinstance(phi_doc, Mapping):
        raise ParseError("'phi' must map labels to points")
    phi = {str(l): point_from_json(p) for l, p in phi_doc.items()}
    expected = set(base.labels) - {theta}
    if set(phi) != expected:
        raise ParseError("'phi' must cover exactly the labels other than theta")
    return ExtensionProblem.of(base, theta, phi)


def extension_problem_to_json(problem: ExtensionProblem) -> dict[str, Any]:
    return {
        "space": space_to_json(problem.base),
        "theta": problem.theta,
        "phi": {label: point_to_json(p) for label, p in problem.phi},
    }


# ------------------------------------------------------------- heir trees


def heir_tree_to_json(tree: HeirTree) -> dict[str, Any]:
    return {
        "range": range_set_to_json(tree.range),
        "depth": tree.depth,
        "branching": tree.branching,
        "nodes": [
            {
                "point": point_to_json(n.point),
                "parent": n.parent,
                "radius": None if n.radius is None else format_rational(n.radius),
                "seed_index": n.seed_index,
            }
            for n in tree.nodes
        ],
    }


def heir_tree_from_json(doc: Mapping[str, Any]) -> HeirTree:
    try:
        range_set = range_set_from_json(doc["range"])
        depth = int(doc["depth"])
        branching = int(doc["branching"])
        raw_nodes = doc["nodes"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"heir tree document malformed: {exc}") from exc
    if not isinstance(raw_nodes, list):
        raise ParseError("'nodes' must be a list")
    nodes: list[HeirNode] = []
    for raw in raw_nodes:
        if not isinstance(raw, Mapping):
            raise ParseError("each heir tree node must be an object")
        point = point_from_json(raw.get("point"))
        parent = raw.get("parent")
        radius = raw.get("radius")
        radius = None if radius is None else parse_rational(radius)
        seed_index = raw.get("seed_index")
        if parent is None:
            if point != ORIGIN:
                raise ParseError("a root node must be the empty map")
            if radius is not None or seed_index is not None:
                raise ParseError("a root node has no radius or seed index")
            inh = Inheritance((point,), ())
        else:
            if (
                not isinstance(parent, int)
                or isinstance(parent, bool)
                or not 0 <= parent < len(nodes)
            ):
                raise ParseError("node parent must index an earlier node")
            if radius is None or seed_index is None:
                raise ParseError("non-root nodes need a radius and seed index")
            if radius == 0 or radius not in range_set:
                raise ParseError(f"radius {radius} is not a nonzero range value")
            if (
                not isinstance(seed_index, int)
                or isinstance(seed_index, bool)
                or seed_index < 0
            ):
                raise ParseError("seed_index must be a nonnegative integer")
            up = nodes[parent]
            if up.radius is not None and not radius < up.radius:
                raise ParseError("radii must strictly decrease from parent to child")
            if point != seed_point(up.point, radius, seed_index):
                raise ParseError("node point is not the seed point of its parent")
            if point == up.point:
                raise ParseError("node point coincides with its parent")
            inh = Inheritance(
                up.inheritance.points + (point,), up.inheritance.radii + (radius,)
            )
        nodes.append(
            HeirNode(
                point=point,
                inheritance=inh,
                parent=parent,
                radius=radius,
                seed_index=seed_index,
            )
        )
    return HeirTree(
        range=range_set, depth=depth, branching=branching, nodes=tuple(nodes)
    )
