import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from urysohn import (
    FiniteUltrametricSpace,
    PreconditionError,
    RangeSet,
    StructureError,
    ball_partition,
    closed_ball,
    distance_set,
    is_avoidant,
    is_haloed,
    validate_ultrametric,
)
from urysohn.gen import random_ultrametric_space

from oracles import (
    oracle_is_avoidant,
    oracle_is_haloed,
    threshold_components,
    triangle_violations,
    validation_report,
)


def equilateral(n, d=F(1)):
    labels = tuple(f"x{i}" for i in range(n))
    rows = tuple(
        tuple(F(0) if i == j else F(d) for j in range(n)) for i in range(n)
    )
    return FiniteUltrametricSpace(labels, rows)


def test_range_set_requires_zero_and_order():
    with pytest.raises(StructureError):
        RangeSet((F(1),))
    with pytest.raises(StructureError):
        RangeSet((F(0), F(1), F(1)))
    s = RangeSet.of([F(1), F(1, 2)])
    assert s.values == (F(0), F(1, 2), F(1))


def test_validate_two_point_space_ok():
    assert validate_ultrametric(equilateral(2)).ok


def test_validate_reports_triangle_violation():
    rows = (
        (F(0), F(1), F(3)),
        (F(1), F(0), F(1)),
        (F(3), F(1), F(0)),
    )
    space = FiniteUltrametricSpace(("a", "b", "c"), rows)
    report = validate_ultrametric(space)
    assert not report.ok
    triangles = {v.where for v in report.violations if v.kind == "triangle"}
    assert ("a", "c", "b") in triangles


def _random_matrix(rng, n, kind):
    """An n x n matrix of one kind: valid, corrupted in one pair, random,
    asymmetric, or valid with a zero off-diagonal pair."""
    if kind in ("valid", "corrupted", "zero"):
        rows = [list(r) for r in random_ultrametric_space(rng, n).dist]
    else:
        rows = [[F(0)] * n for _ in range(n)]
        for i, j in combinations(range(n), 2):
            rows[i][j] = rows[j][i] = F(rng.randint(1, 4), rng.randint(1, 4))
    if n >= 2 and kind != "valid":
        i, j = rng.sample(range(n), 2)
        if kind == "corrupted":
            rows[i][j] = rows[j][i] = F(rng.randint(1, 30), 12)
        elif kind == "zero":
            rows[i][j] = rows[j][i] = F(0)
        elif kind == "asymmetric":
            rows[i][j] = F(rng.randint(0, 5), 2)
    return rows


def test_validate_matches_exhaustive_triple_scan():
    # Valid inputs take the single-linkage fast path; the other kinds fall
    # back to the full scan.  Both must list exactly the oracle's triples.
    rng = random.Random(7)
    kinds = ("valid", "corrupted", "random", "asymmetric", "zero")
    for trial in range(250):
        n = rng.randint(1, 12)
        kind = kinds[trial % len(kinds)]
        rows = _random_matrix(rng, n, kind)
        space = FiniteUltrametricSpace(
            tuple(f"x{i}" for i in range(n)),
            tuple(tuple(r) for r in rows),
        )
        report = validate_ultrametric(space)
        expected = [
            t
            for t in triangle_violations(space)
            if space.index(t[0]) < space.index(t[1])
        ]
        got = [v.where for v in report.violations if v.kind == "triangle"]
        assert got == expected
        if kind in ("valid", "random"):
            assert report.ok == (not expected)


def test_validate_report_matches_definitions():
    # Several pairs raised or lowered (raised ones make the subdominant
    # ultrametric fall short of the matrix in many pairs at once), plus now
    # and then an asymmetric entry, a bad diagonal, a zero pair or a range
    # set; the whole report must equal the definitional one, list for list.
    rng = random.Random(67)
    for trial in range(200):
        n = rng.randint(1, 12)
        space = random_ultrametric_space(rng, n)
        rows = [list(r) for r in space.dist]
        for _ in range(rng.randint(0, 4) if n >= 2 else 0):
            i, j = rng.sample(range(n), 2)
            v = rows[i][j] * rng.choice((F(1, 3), F(1, 2), F(3, 2), 2, 5))
            rows[i][j] = rows[j][i] = v
        if n >= 2 and trial % 7 == 0:
            i, j = rng.sample(range(n), 2)
            rows[i][j] += F(1, 12)
        if trial % 11 == 0:
            i = rng.randrange(n)
            rows[i][i] = F(1, 4)
        if n >= 2 and trial % 13 == 0:
            i, j = rng.sample(range(n), 2)
            rows[i][j] = rows[j][i] = F(0)
        rs = RangeSet.of(F(k, 12) for k in range(1, 13)) if trial % 5 == 0 else None
        bent = FiniteUltrametricSpace(
            space.labels, tuple(tuple(r) for r in rows), rs
        )
        report = validate_ultrametric(bent)
        got = [(v.kind, v.where) for v in report.violations]
        assert got == validation_report(bent)
        assert report.ok == (not got)


def test_closed_ball_radius_zero_and_diameter():
    space = equilateral(3)
    assert closed_ball(space, "x0", F(0)) == ("x0",)
    assert set(closed_ball(space, "x0", F(2))) == set(space.labels)
    assert closed_ball(space, "x0", F(1, 2)) == ("x0",)


def test_closed_ball_center_independence():
    rng = random.Random(11)
    space = random_ultrametric_space(rng, 7)
    r = F(1, 2)
    for a in space.labels:
        members = closed_ball(space, a, r)
        for q in members:
            assert closed_ball(space, q, r) == members


def test_ball_partition_matches_threshold_graph():
    rng = random.Random(13)
    for _ in range(20):
        space = random_ultrametric_space(rng, 6)
        for r in (F(1, 4), F(1, 2), F(1), F(3)):
            for strict in (True, False):
                blocks = {frozenset(b) for b in ball_partition(space, r, strict)}
                assert blocks == threshold_components(space, r, strict)


def test_ball_partition_strict_equilateral_is_discrete():
    space = equilateral(3)
    blocks = ball_partition(space, F(1), strict=True)
    assert sorted(len(b) for b in blocks) == [1, 1, 1]


def test_ball_partition_rejects_strict_zero_radius():
    with pytest.raises(PreconditionError):
        ball_partition(equilateral(2), F(0), strict=True)


def test_is_haloed_equilateral():
    space = equilateral(3)
    r = RangeSet.of([F(1)])
    ok, witness = is_haloed(space, r, 3)
    assert ok and witness is not None
    ok, failing = is_haloed(space, r, 4)
    assert not ok and failing is not None


def test_haloed_and_avoidant_match_brute_force():
    rng = random.Random(17)
    for _ in range(30):
        space = random_ultrametric_space(rng, rng.randint(1, 6))
        r = distance_set(space)
        for n in range(1, len(space) + 2):
            assert is_haloed(space, r, n)[0] == oracle_is_haloed(space, r, n)
            assert is_avoidant(space, r, n)[0] == oracle_is_avoidant(space, r, n)


def test_avoidant_one_point_space_vacuous():
    space = equilateral(1)
    assert is_avoidant(space, RangeSet.of([F(1)]), 1)[0]


def test_avoidant_equilateral_thresholds():
    # With n+1 points pairwise at distance 1, one can always avoid any n-1
    # of them; with only n points the same holds, and the first failure is
    # at n+1 constraints allowed (i.e. parameter n+1).
    for n in (2, 3, 4):
        big = equilateral(n + 1)
        r = RangeSet.of([F(1)])
        assert is_avoidant(big, r, n)[0]
        small = equilateral(n)
        assert is_avoidant(small, r, n)[0] == oracle_is_avoidant(small, r, n)
        assert not is_avoidant(small, r, n + 1)[0]


def test_monotonicity_in_n():
    rng = random.Random(19)
    for _ in range(20):
        space = random_ultrametric_space(rng, 6)
        r = distance_set(space)
        halo = [is_haloed(space, r, n)[0] for n in range(1, 8)]
        avoid = [is_avoidant(space, r, n)[0] for n in range(1, 8)]
        for seq in (halo, avoid):
            assert all(a or not b for a, b in zip(seq, seq[1:]))


def test_distance_set():
    assert distance_set(equilateral(1)).values == (F(0),)
    assert distance_set(equilateral(3)).values == (F(0), F(1))
    rng = random.Random(23)
    space = random_ultrametric_space(rng, 6)
    expected = {F(0)} | {v for row in space.dist for v in row}
    assert set(distance_set(space).values) == expected


def test_unknown_label_raises():
    with pytest.raises(KeyError):
        equilateral(2).index("nope")
