"""Generators: encodings, ray-system witnesses, thin-end refusals."""

import random

import pytest

from coarsecops import NoThickEndWitnessError, UnsupportedGeneratorError, make_generator
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
    _, rays = make_generator("grid")
    r0, family = rays.disjoint_family(14)
    assert r0 == 7
    assert len(family) == 15
    assert [ray.source for ray in family] == [(j, 0) for j in range(-7, 8)]


def test_grid_family_two_rays_need_radius_one():
    # b(0)+1 = 2 disjoint rays cannot both start in B(0)
    _, rays = make_generator("grid")
    r0, family = rays.disjoint_family(2)
    assert r0 == 1 and len(family) == 3


def test_grid_family_disjoint_and_monotone_to_200():
    g, rays = make_generator("grid")
    r0, family = rays.disjoint_family(14)
    prefixes = [set(ray.prefix(200)) for ray in family]
    for i in range(len(prefixes)):
        for j in range(i + 1, len(prefixes)):
            assert not (prefixes[i] & prefixes[j])
    for ray in family:
        assert abs(ray.source[0]) + abs(ray.source[1]) <= r0
        d0 = abs(ray.source[0]) + abs(ray.source[1])
        for t in range(101):
            v = ray.step(t)
            assert abs(v[0]) + abs(v[1]) == d0 + t  # Manhattan oracle


def test_grid_outward_ray_axis_choice():
    _, rays = make_generator("grid")
    assert rays.outward_ray((5, 2)).step(3) == (8, 2)  # larger |x|: along x
    assert rays.outward_ray((-5, 2)).step(3) == (-8, 2)  # away from origin
    assert rays.outward_ray((2, -5)).step(3) == (2, -8)  # larger |y|: along y
    assert rays.outward_ray((3, 3)).step(2) == (5, 3)  # tie goes to the x-axis
    assert rays.outward_ray((0, 0)).step(4) == (4, 0)


def test_grid_outward_ray_monotone_everywhere():
    g, rays = make_generator("grid")
    rng = random.Random(7)
    for _ in range(100):
        v = (rng.randint(-20, 20), rng.randint(-20, 20))
        ray = rays.outward_ray(v)
        d0 = abs(v[0]) + abs(v[1])
        for t in range(0, 101, 20):
            w = ray.step(t)
            assert abs(w[0]) + abs(w[1]) == d0 + t


def test_grid_outward_tail_avoids_inner_ball():
    # consequence of monotonicity: the ray never meets B(d(v0, v) - 1)
    g, rays = make_generator("grid")
    v = (4, -9)
    ray = rays.outward_ray(v)
    for t in range(50):
        w = ray.step(t)
        assert abs(w[0]) + abs(w[1]) > 12


@pytest.mark.parametrize(
    "name,limit", [("line", 1), ("ladder", 2), ("tree3", 1), ("tree4", 1)]
)
def test_thin_generators_cap_their_families(name, limit):
    _, rays = make_generator(name)
    r0, family = rays.disjoint_family(limit)
    assert len(family) >= limit
    with pytest.raises(NoThickEndWitnessError):
        rays.disjoint_family(limit + 1)


def test_ladder_family_is_disjoint_same_end():
    g, rays = make_generator("ladder")
    r0, family = rays.disjoint_family(2)
    assert r0 == 1
    a, b = family
    assert not (set(a.prefix(100)) & set(b.prefix(100)))
    for ray in family:
        for t in range(0, 50, 5):
            n, r = ray.step(t)
            assert g.distance((0, 0), (n, r)) == g.distance((0, 0), ray.source) + t


def test_outward_rays_are_partial_on_thin_generators():
    _, line_rays = make_generator("line")
    assert line_rays.outward_ray(-3) is None
    assert line_rays.outward_ray(3).step(2) == 5
    _, ladder_rays = make_generator("ladder")
    assert ladder_rays.outward_ray((-2, 1)) is None
    assert ladder_rays.outward_ray((2, 1)).step(2) == (4, 1)
    _, tree_rays = make_generator("tree3")
    assert tree_rays.outward_ray((1,)) is None
    assert tree_rays.outward_ray((0, 0)).step(2) == (0, 0, 0, 0)


def test_tree_degrees():
    for d in (3, 4):
        g, _ = make_generator(f"tree{d}")
        assert len(g.neighbors(())) == d
        assert len(g.neighbors((0, 1))) == d
