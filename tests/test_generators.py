"""Generators: encodings, end witnesses, thin-end refusals."""

import random

import pytest

from coarsecops import (
    NoThickEndWitnessError,
    UnsupportedGeneratorError,
    make_generator,
    precompute_tables,
)
from test_graphs import random_vertex


def test_unknown_generator_rejected():
    with pytest.raises(UnsupportedGeneratorError):
        make_generator("hexgrid")


@pytest.mark.parametrize("name", ["grid", "line", "ladder", "tree3", "tree4"])
def test_encode_decode_roundtrip(name):
    g, _ = make_generator(name)
    rng = random.Random(99)
    for _ in range(200):
        v = random_vertex(name, rng)
        assert g.decode(g.encode(v)) == v


def test_grid_encoding_format():
    g, _ = make_generator("grid")
    assert g.encode((3, -4)) == "(3,-4)"
    assert g.decode("(-7,0)") == (-7, 0)


def test_tree_encoding_format():
    g, _ = make_generator("tree3")
    assert g.encode(()) == ""
    assert g.encode((2, 0, 1)) == "201"
    assert g.decode("10") == (1, 0)


# the first three name no vertex; the others spell a vertex in a form
# that `encode` never writes, and were once read as that vertex
@pytest.mark.parametrize(
    "name, text",
    [
        ("ladder", "(3,2)"),
        ("tree3", "3"),
        ("tree3", "02"),
        ("grid", "1,2"),
        ("grid", "((1, 2))"),
        ("line", " 7 "),
    ],
)
def test_decode_refuses_non_vertices(name, text):
    g, _ = make_generator(name)
    with pytest.raises(ValueError):
        g.decode(text)


# JSON values that are not strings: true and 5.9 were once read as line
# vertices 1 and 5, and a list as a tree vertex
@pytest.mark.parametrize("name, value", [("line", True), ("line", 5.9), ("tree3", [0, 1])])
def test_decode_refuses_non_strings(name, value):
    g, _ = make_generator(name)
    with pytest.raises(TypeError):
        g.decode(value)


def test_grid_family_shape():
    g, rays = make_generator("grid")
    family = rays(14)
    assert len(family) == 15
    assert [ray(0) for ray in family] == [(j, 0) for j in range(-7, 8)]
    # b(1+1) = 13, so (1, 1, 1) asks for these 14 rays
    assert precompute_tables(g, rays, 1, 1, 1).reach == 7


def test_grid_family_two_rays_need_radius_one():
    # b(0)+1 = 2 disjoint rays cannot both start in B(0)
    g, rays = make_generator("grid")
    assert len(rays(2)) == 3
    assert precompute_tables(g, rays, 1, 0, 0).reach == 1


# (k, s_c, rho) asks for k*b(s_c+rho)+1 rays: 6, 27 and 40 here
@pytest.mark.parametrize("setting, r0", [((1, 0, 1), 3), ((2, 1, 1), 13), ((3, 1, 1), 20)])
def test_grid_r0_is_the_farthest_source(setting, r0):
    g, rays = make_generator("grid")
    t = precompute_tables(g, rays, *setting)
    assert t.reach == r0 == max(g.distance(g.origin, ray(0)) for ray in t.family)


def test_grid_family_disjoint_and_monotone_to_200():
    _, rays = make_generator("grid")
    family = rays(14)
    prefixes = [{ray(t) for t in range(200 + 1)} for ray in family]
    for i in range(len(prefixes)):
        for j in range(i + 1, len(prefixes)):
            assert not (prefixes[i] & prefixes[j])
    for ray in family:
        d0 = abs(ray(0)[0]) + abs(ray(0)[1])
        assert d0 <= 7
        for t in range(101):
            v = ray(t)
            assert abs(v[0]) + abs(v[1]) == d0 + t  # Manhattan oracle


THIN_END_REFUSALS = {
    "line": "line: each end contains a single ray",
    "ladder": "ladder: the witnessed end has degree 2",
    "tree3": "tree3: every end is thin of degree 1",
    "tree4": "tree4: every end is thin of degree 1",
}


@pytest.mark.parametrize(
    "name,limit", [("line", 1), ("ladder", 2), ("tree3", 1), ("tree4", 1)]
)
def test_thin_generators_cap_their_families(name, limit):
    _, rays = make_generator(name)
    assert len(rays(limit)) == limit
    with pytest.raises(ValueError, match="count must be >= 1"):
        rays(0)
    refusal = f"{THIN_END_REFUSALS[name]}, cannot supply {limit + 1} disjoint rays"
    with pytest.raises(NoThickEndWitnessError) as err:
        rays(limit + 1)
    assert str(err.value) == refusal


def test_ladder_family_is_disjoint_same_end():
    g, rays = make_generator("ladder")
    family = rays(2)
    # one rail ray starts at the origin, the second one rung away
    assert max(g.distance(g.origin, ray(0)) for ray in rays(1)) == 0
    assert precompute_tables(g, rays, 1, 0, 0).reach == 1
    a, b = family
    assert not ({a(t) for t in range(100 + 1)} & {b(t) for t in range(100 + 1)})
    for ray in family:
        for t in range(0, 50, 5):
            n, r = ray(t)
            assert g.distance((0, 0), (n, r)) == g.distance((0, 0), ray(0)) + t


def test_tree_degrees():
    for d in (3, 4):
        g, _ = make_generator(f"tree{d}")
        assert len(g.neighbors(())) == d
        assert len(g.neighbors((0, 1))) == d
