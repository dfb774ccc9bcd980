import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from urysohn import (
    ExtensionProblem,
    FiniteUltrametricSpace,
    ORIGIN,
    PreconditionError,
    RangeSet,
    UrysohnPoint,
    check_one_point_injectivity,
    delta,
    distance_set,
    embed_space,
    extend_one_point,
    is_avoidant,
    is_haloed,
)
from urysohn.gen import random_ultrametric_space

from oracles import embed_by_extension


def problem(rows, labels, theta, phi):
    base = FiniteUltrametricSpace(
        tuple(labels), tuple(tuple(F(v) for v in row) for row in rows)
    )
    return ExtensionProblem.of(base, theta, phi)


def test_extend_single_constraint():
    p = problem([[0, 1], [1, 0]], ["y1", "theta"], "theta", {"y1": ORIGIN})
    assert extend_one_point(p) == UrysohnPoint.of({F(1): 1})


def test_extend_two_constraints():
    p = problem(
        [[0, 1, F(1, 2)], [1, 0, 1], [F(1, 2), 1, 0]],
        ["y1", "y2", "theta"],
        "theta",
        {"y1": ORIGIN, "y2": UrysohnPoint.of({F(1): 1})},
    )
    t = extend_one_point(p)
    assert t == UrysohnPoint.of({F(1, 2): 1})
    assert delta(ORIGIN, t) == F(1, 2)
    assert delta(UrysohnPoint.of({F(1): 1}), t) == 1


def test_extend_rejects_non_isometric_phi():
    with pytest.raises(PreconditionError):
        p = problem(
            [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
            ["y1", "y2", "theta"],
            "theta",
            {"y1": ORIGIN, "y2": ORIGIN},
        )
        extend_one_point(p)


def test_extend_random_sub_embeddings():
    rng = random.Random(31)
    for _ in range(40):
        space = random_ultrametric_space(rng, 6)
        images = embed_space(space)
        theta = space.labels[-1]
        phi = {l: images[l] for l in space.labels[:-1]}
        t = extend_one_point(ExtensionProblem.of(space, theta, phi))
        for y in space.labels[:-1]:
            assert delta(phi[y], t) == space.d(y, theta)


def test_embed_one_point_space():
    space = FiniteUltrametricSpace(("p1",), ((F(0),),))
    assert embed_space(space) == {"p1": ORIGIN}


def test_embed_equilateral():
    space = FiniteUltrametricSpace(
        ("a", "b", "c"),
        tuple(
            tuple(F(0) if i == j else F(1) for j in range(3)) for i in range(3)
        ),
    )
    images = embed_space(space)
    for x, y in combinations("abc", 2):
        assert delta(images[x], images[y]) == 1


def test_embed_preserves_random_matrices():
    rng = random.Random(37)
    for _ in range(40):
        space = random_ultrametric_space(rng, rng.randint(1, 8))
        images = embed_space(space)
        for x in space.labels:
            for y in space.labels:
                assert delta(images[x], images[y]) == space.d(x, y)


def test_embed_respects_basepoint():
    rng = random.Random(41)
    space = random_ultrametric_space(rng, 5)
    base = UrysohnPoint.of({F(7, 2): 3})
    images = embed_space(space, basepoint=base)
    assert images[space.labels[0]] == base


def test_embed_matches_prefix_extension_oracle():
    # The oracle extends by the definition on Fractions; the library runs on
    # int codes.  The second basepoint has coordinates between and above the
    # spaces' distances (twelfths up to 2), so its codes interleave theirs.
    rng = random.Random(53)
    spaces = [random_ultrametric_space(rng, rng.randint(1, 10)) for _ in range(60)]
    spaces += [random_ultrametric_space(rng, rng.randint(23, 27)) for _ in range(3)]
    for space in spaces:
        assert repr(embed_space(space)) == repr(embed_by_extension(space))
    bases = (
        UrysohnPoint.of({F(7, 2): 3}),
        UrysohnPoint.of({F(3): 4, F(13, 24): 1, F(1, 2): 2, F(5, 24): 2}),
    )
    for base in bases:
        for space in spaces[:20] + spaces[-1:]:
            got = embed_space(space, base)
            assert repr(got) == repr(embed_by_extension(space, base))


def test_extend_with_interleaved_phi_matches_oracle():
    # phi images carry coordinates that are not distances of the space, so
    # extend_one_point widens the codec; the answer must not move.
    rng = random.Random(59)
    base = UrysohnPoint.of({F(3): 4, F(13, 24): 1, F(5, 24): 2})
    for _ in range(30):
        space = random_ultrametric_space(rng, rng.randint(2, 9))
        expected = embed_by_extension(space, base)
        theta = space.labels[-1]
        phi = {l: expected[l] for l in space.labels[:-1]}
        t = extend_one_point(ExtensionProblem.of(space, theta, phi))
        assert repr(t) == repr(expected[theta])


def test_problem_rejects_phi_outside_y():
    rows = [[0, 1], [1, 0]]
    for phi in ({"y1": ORIGIN, "theta": ORIGIN}, {"y1": ORIGIN, "zz": ORIGIN}):
        with pytest.raises(PreconditionError):
            problem(rows, ["y1", "theta"], "theta", phi)


def test_embed_rejects_invalid_space():
    rows = ((F(0), F(1), F(3)), (F(1), F(0), F(1)), (F(3), F(1), F(0)))
    with pytest.raises(PreconditionError):
        embed_space(FiniteUltrametricSpace(("a", "b", "c"), rows))


def test_injectivity_one_point_space():
    space = FiniteUltrametricSpace(("p",), ((F(0),),))
    ok, failing = check_one_point_injectivity(space, RangeSet.of([F(1)]), 2)
    assert not ok and failing is not None


def test_three_way_agreement():
    rng = random.Random(43)
    for _ in range(40):
        space = random_ultrametric_space(rng, rng.randint(1, 6))
        r = distance_set(space)
        for n in range(1, len(space) + 2):
            h = is_haloed(space, r, n)[0]
            a = is_avoidant(space, r, n)[0]
            j = check_one_point_injectivity(space, r, n)[0]
            assert h == a == j


def test_model_extension_never_fails():
    # embed a space, then extend to one extra point: always succeeds
    rng = random.Random(47)
    for _ in range(20):
        space = random_ultrametric_space(rng, 6)
        prefix = list(space.labels[:-1])
        sub = space.restrict(prefix)
        images = embed_space(sub)
        t = extend_one_point(
            ExtensionProblem.of(space, space.labels[-1], images)
        )
        for y in prefix:
            assert delta(images[y], t) == space.d(y, space.labels[-1])
