import random
from fractions import Fraction as F

import pytest

from urysohn import ParseError, RangeSet, UrysohnPoint
from urysohn.gen import random_point, random_subset, random_ultrametric_space
from urysohn.petals import generate_heirs
from urysohn.serialization import (
    extension_problem_from_json,
    extension_problem_to_json,
    format_rational,
    heir_tree_from_json,
    heir_tree_to_json,
    parse_rational,
    point_from_json,
    point_to_json,
    range_set_from_json,
    range_set_to_json,
    space_from_json,
    space_to_json,
    subset_from_json,
    subset_to_json,
)
from urysohn.embedding import ExtensionProblem, embed_space


def test_rational_round_trip():
    for v in (F(0), F(3, 4), F(7), F(22, 12)):
        assert parse_rational(format_rational(v)) == v
    assert format_rational(F(2, 4)) == "1/2"
    assert parse_rational("3") == 3
    assert parse_rational(5) == 5


def test_rational_rejects_garbage():
    for bad in ("-1/2", "a", "1/0", None, 1.5, True):
        with pytest.raises(ParseError):
            parse_rational(bad)


def test_point_round_trip_and_rejects_zero_values():
    p = UrysohnPoint.of({F(1): 2, F(1, 4): 1})
    assert point_from_json(point_to_json(p)) == p
    with pytest.raises(ParseError):
        point_from_json({"1": 0})
    with pytest.raises(ParseError):
        point_from_json({"0": 1})
    with pytest.raises(ParseError):
        point_from_json({"1": "2"})
    with pytest.raises(ParseError):
        point_from_json({"1/2": 1, "2/4": 1})


def test_space_round_trip():
    rng = random.Random(97)
    space = random_ultrametric_space(rng, 6)
    assert space_from_json(space_to_json(space)) == space


def test_space_parse_errors():
    with pytest.raises(ParseError):
        space_from_json({"labels": ["a"]})
    with pytest.raises(ParseError):
        space_from_json({"labels": ["a", "a"], "dist": [["0"]]})


def test_range_set_round_trip():
    s = RangeSet.of([F(1, 2), F(1)])
    assert range_set_from_json(range_set_to_json(s)) == s


def test_subset_round_trip():
    rng = random.Random(101)
    e = random_subset(rng, 5)
    assert subset_from_json(subset_to_json(e)) == e
    with pytest.raises(ParseError):
        subset_from_json([])


def test_extension_problem_round_trip():
    rng = random.Random(103)
    space = random_ultrametric_space(rng, 5)
    theta = space.labels[-1]
    sub = space.restrict(list(space.labels[:-1]))
    problem = ExtensionProblem.of(space, theta, embed_space(sub))
    doc = extension_problem_to_json(problem)
    assert extension_problem_from_json(doc) == problem


def test_heir_tree_round_trip():
    tree = generate_heirs(RangeSet.of([F(1), F(1, 2)]), 2, 2)
    doc = heir_tree_to_json(tree)
    assert heir_tree_from_json(doc) == tree


@pytest.mark.parametrize("node", [1, "node", [], None])
def test_heir_tree_rejects_non_object_node(node):
    doc = heir_tree_to_json(generate_heirs(RangeSet.of([F(1)]), 1, 1))
    doc["nodes"].append(node)
    with pytest.raises(ParseError):
        heir_tree_from_json(doc)


@pytest.mark.parametrize("nodes", [5, "nodes", {"point": {}}, None])
def test_heir_tree_rejects_non_list_nodes(nodes):
    doc = heir_tree_to_json(generate_heirs(RangeSet.of([F(1)]), 1, 1))
    doc["nodes"] = nodes
    with pytest.raises(ParseError):
        heir_tree_from_json(doc)
