import random
from fractions import Fraction as F

import pytest

from urysohn import ParseError, RangeSet, UrysohnPoint
from urysohn.gen import random_point, random_subset, random_ultrametric_space
from urysohn.petals import generate_heirs, validate_inheritance
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

from oracles import plain_space_from_json


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


def test_rational_rejects_exponent_notation():
    # Fraction("1e1000000000") would expand the exponent for minutes.
    assert parse_rational("0.25") == F(1, 4)
    for bad in ("1e1000000000", "1E3", "2.5e-3", "1e0"):
        with pytest.raises(ParseError):
            parse_rational(bad)
    doc = {"labels": ["a", "b"], "dist": [["0", "1e1000000000"], ["1", "0"]]}
    with pytest.raises(ParseError):
        space_from_json(doc)


def _near_equal_doc(rng, n):
    """A matrix of distinct-spelled rationals with 12-digit denominators:
    neighbours differ by 1/q^2 or less, and some values recur under other
    spellings (scaled fractions, decimals)."""
    q = rng.randrange(10**11, 10**12)
    base = [F(rng.randrange(1, 3 * q), q) for _ in range(4)]
    pool = []
    for v in base:
        pool += [v, v + F(1, q * q), v - F(1, q * (q + 1))]
    spellings = []
    for v in pool:
        k = rng.randint(2, 9)
        spellings += [
            format_rational(v),
            f"{v.numerator * k}/{v.denominator * k}",
        ]
    spellings += ["0.5", "1/2", "2/4", "1", "3"]
    dist = [[rng.choice(spellings) for _ in range(n)] for _ in range(n)]
    return {"labels": [f"x{i}" for i in range(n)], "dist": dist}


def test_memoised_parse_matches_plain_fraction_parser():
    rng = random.Random(61)
    for _ in range(40):
        doc = _near_equal_doc(rng, rng.randint(1, 9))
        got = space_from_json(doc)
        plain = plain_space_from_json(doc)
        assert got == plain
        assert repr(got.dist) == repr(plain.dist)
        # the codec is an order isomorphism onto 0..m-1
        entries = [v for row in plain.dist for v in row]
        codes = [c for row in got.codec.rank for c in row]
        by_value = sorted(zip(entries, codes))
        for (a, ca), (b, cb) in zip(by_value, by_value[1:]):
            assert (a < b) == (ca < cb) and (a == b) == (ca == cb)
        assert list(got.codec.values) == sorted({F(0), *entries})


def test_equivalent_spellings_share_one_code():
    doc = {
        "labels": ["a", "b", "c", "d"],
        "dist": [
            ["0", "1/2", "2/4", "0.5"],
            ["1/2", "0", "0.50", "1/2"],
            ["2/4", "0.50", "0", "4/8"],
            ["0.5", "1/2", "4/8", "0"],
        ],
    }
    space = space_from_json(doc)
    codec = space.codec
    assert codec.values == (F(0), F(1, 2))
    assert {c for row in codec.rank for c in row} == {0, 1}
    assert codec.encode(F(2, 4)) == 1


@pytest.mark.parametrize("token", [True, False, None, 1.5, [1], {"1": 1}])
def test_space_rejects_non_rational_tokens(token):
    # "1" is parsed (and memoised) first; True hashes like 1 and must still
    # be rejected, as must unhashable tokens.
    doc = {"labels": ["a", "b"], "dist": [["0", "1"], ["1", token]]}
    with pytest.raises(ParseError):
        space_from_json(doc)


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
    for rs, depth, branching in (([1, 2], 1, 1), ([F(1, 3), 1, 2], 3, 2)):
        tree = generate_heirs(RangeSet.of(rs), depth, branching)
        parsed = heir_tree_from_json(heir_tree_to_json(tree))
        assert parsed == tree
        for node in parsed.nodes:
            assert validate_inheritance(node.inheritance, parsed.range).ok


def _heir_doc():
    """Root, then child 1 = seed (root, 2, 1), grandchild 2 = seed (1, 1, 2)."""
    return heir_tree_to_json(generate_heirs(RangeSet.of([1, 2]), 2, 1))


@pytest.mark.parametrize(
    "node",
    [
        # the inconsistent node: radius 7 outside the range {0, 1, 2}
        {"point": {"5": 3}, "parent": 0, "radius": "7", "seed_index": 3},
        {"point": {"2": 3}, "parent": 0, "radius": "0", "seed_index": 3},
        {"point": {"2": 3}, "parent": 0, "radius": "2", "seed_index": -3},
        {"point": {"2": 3}, "parent": 0, "radius": "2", "seed_index": "3"},
        {"point": {"2": 3}, "parent": 0, "radius": "2", "seed_index": 3.0},
        {"point": {"2": 1}, "parent": 0, "radius": "2", "seed_index": True},
        {"point": {"2": 4}, "parent": 0, "radius": "2", "seed_index": 3},
        {"point": {"1": 3}, "parent": 0, "radius": "2", "seed_index": 3},
        {"point": {"2": 1, "1": 1}, "parent": 1, "radius": "2", "seed_index": 1},
        {"point": {"2": 1}, "parent": 1, "radius": "1", "seed_index": 0},
        {"point": {"1": 3}, "parent": None, "radius": None, "seed_index": None},
        {"point": {}, "parent": None, "radius": "1", "seed_index": None},
        {"point": {"2": 3}, "parent": True, "radius": "2", "seed_index": 3},
    ],
)
def test_heir_tree_rejects_inconsistent_node(node):
    doc = _heir_doc()
    assert heir_tree_from_json(doc).nodes[-1].radius == 1
    ok = dict(node, point={"2": 3}, parent=0, radius="2", seed_index=3)
    doc["nodes"].append(ok)
    heir_tree_from_json(doc)
    doc["nodes"][-1] = node
    with pytest.raises(ParseError):
        heir_tree_from_json(doc)


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
