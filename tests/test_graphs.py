"""Graph kernel: distances, balls, spheres, ray crossings, annulus search."""

import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

import bruteforce as bf
from coarsecops import (
    BrokenWitnessError,
    DisconnectedAnnulusError,
    RayContractError,
    SearchBudgetExceeded,
    annulus_connect_radius,
    annulus_path,
    make_generator,
    ray_cross,
)
from coarsecops.graphs import Ray

ORIGIN = (0, 0)


def up_ray(j):
    return Ray(source=(j, 0), step=lambda t: (j, t))


# -- distance ------------------------------------------------------------------


def test_distance_identity(grid_oracle):
    assert grid_oracle.distance(ORIGIN, ORIGIN) == 0


def test_distance_is_manhattan_on_grid(grid_oracle):
    assert grid_oracle.distance(ORIGIN, (3, 4)) == 7


def test_distance_along_tree_ray():
    g, rays = make_generator("tree3")
    spine = rays.disjoint_family(1)[1][0]
    assert g.distance((), spine.step(5)) == 5


grid_b30 = st.tuples(st.integers(-15, 15), st.integers(-15, 15)).filter(
    lambda v: abs(v[0]) + abs(v[1]) <= 30
)


@settings(max_examples=40, deadline=None)
@given(grid_b30, grid_b30, grid_b30)
def test_distance_symmetry_and_triangle(u, v, w):
    g, _ = make_generator("grid")
    duv, dvu = g.distance(u, v), g.distance(v, u)
    assert duv == dvu
    assert duv <= g.distance(u, w) + g.distance(w, v)


@settings(max_examples=60, deadline=None)
@given(grid_b30, grid_b30)
def test_grid_distance_equals_manhattan(u, v):
    g, _ = make_generator("grid")
    assert g.distance(u, v) == abs(u[0] - v[0]) + abs(u[1] - v[1])


@st.composite
def tree_vertex(draw, d=3, max_depth=7):
    depth = draw(st.integers(0, max_depth))
    if depth == 0:
        return ()
    head = draw(st.integers(0, d - 1))
    rest = [draw(st.integers(0, d - 2)) for _ in range(depth - 1)]
    return (head, *rest)


@settings(max_examples=60, deadline=None)
@given(tree_vertex(), tree_vertex())
def test_tree_distance_formula(u, v):
    g, _ = make_generator("tree3")
    assert g.distance(u, v) == bf.tree_distance(u, v)


def test_distance_at_most(grid_oracle):
    assert grid_oracle.distance_at_most(ORIGIN, (1, 1), 2) == 2
    assert grid_oracle.distance_at_most(ORIGIN, (1, 1), 1) is None
    assert grid_oracle.distance_at_most(ORIGIN, ORIGIN, 0) == 0


@pytest.mark.parametrize("name", ["grid", "line", "ladder", "tree3", "tree4"])
def test_metric_agrees_with_bruteforce_bfs(name):
    # The closed-form metric replaces a search, so it must equal the BFS
    # distance on every pair of a ball around the origin, at both limits
    # of distance_at_most.
    g, _ = make_generator(name)
    r = 3 if name.startswith("tree") else 6
    ball = sorted(bf.bfs_ball(g.neighbors, g.origin, r))
    for u in ball:
        dist = bf.bfs_distances(g.neighbors, u, 2 * r)
        for v in ball:
            d = dist[v]
            assert g.distance(u, v) == d, (u, v)
            assert g.distance_at_most(u, v, d) == d, (u, v)
            assert g.distance_at_most(u, v, d - 1) is None, (u, v)


# Every search, the two annulus searches included, charges its own
# expansions to the budget.
BUDGET_QUERIES = {
    "ball": lambda g: g.ball(ORIGIN, 40),
    "sphere": lambda g: g.sphere(ORIGIN, 40),
    "ball_size": lambda g: g.ball_size(40),
    "annulus_connect_radius": lambda g: annulus_connect_radius(
        g, sorted(bf.bfs_sphere(g.neighbors, ORIGIN, 20)), 19
    ),
    "annulus_path": lambda g: annulus_path(
        g, (20, 0), (-20, 0), 19, 21, lambda v: True
    ),
}


@pytest.mark.parametrize("query", BUDGET_QUERIES.values(), ids=BUDGET_QUERIES.keys())
def test_search_budget_exceeded(query):
    g, _ = make_generator("grid")
    g.expansion_budget = 50
    with pytest.raises(SearchBudgetExceeded):
        query(g)


# -- balls and spheres ----------------------------------------------------------


def test_ball_radius_zero(grid_oracle):
    assert grid_oracle.ball(ORIGIN, 0) == {ORIGIN}


def test_ball_radius_one(grid_oracle):
    assert len(grid_oracle.ball(ORIGIN, 1)) == 5


def test_ball_radius_two_vs_bruteforce(grid_oracle):
    expected = bf.bfs_ball(grid_oracle.neighbors, ORIGIN, 2)
    assert len(expected) == 13 == bf.grid_ball_size(2)
    assert grid_oracle.ball(ORIGIN, 2) == expected


def test_sphere_examples(grid_oracle):
    assert grid_oracle.sphere(ORIGIN, 0) == {ORIGIN}
    expected = bf.bfs_sphere(grid_oracle.neighbors, ORIGIN, 2)
    assert len(expected) == 8
    assert grid_oracle.sphere(ORIGIN, 2) == expected


def test_tree_sphere_depth_two():
    g, _ = make_generator("tree3")
    expected = bf.bfs_sphere(g.neighbors, (), 2)
    assert len(expected) == 6  # 3 children, 2 grandchildren each
    assert g.sphere((), 2) == expected


def test_ball_size_examples(grid_oracle):
    assert grid_oracle.ball_size(1) == 5
    assert grid_oracle.ball_size(19) == 761 == bf.grid_ball_size(19)
    line, _ = make_generator("line")
    assert line.ball_size(4) == 9


def test_ball_size_closed_form_small_range(grid_oracle):
    for r in range(0, 31):
        cold, _ = make_generator("grid")
        assert cold.ball_size(r) == bf.grid_ball_size(r)
    grid_oracle.sphere(ORIGIN, 40)  # warm: a cached sphere far beyond r changes nothing
    for r in range(0, 31):
        assert grid_oracle.ball_size(r) == bf.grid_ball_size(r)


def test_ball_size_monotone(grid_oracle):
    sizes = [grid_oracle.ball_size(r) for r in range(15)]
    assert sizes == sorted(sizes)


# -- ray_cross -------------------------------------------------------------------


def test_ray_cross_examples(grid_oracle):
    assert ray_cross(grid_oracle, up_ray(3), 8) == (3, 5)
    assert ray_cross(grid_oracle, up_ray(0), 0) == (0, 0)
    crossed = ray_cross(grid_oracle, up_ray(-7), 8)
    assert crossed == (-7, 1)
    # confirm by stepping the ray until the sphere is hit
    walked = next(
        up_ray(-7).step(t)
        for t in range(20)
        if grid_oracle.distance(ORIGIN, up_ray(-7).step(t)) == 8
    )
    assert walked == crossed


def test_ray_cross_rejects_non_monotone(grid_oracle):
    zigzag = Ray(source=(0, 0), step=lambda t: (0, t % 2))
    with pytest.raises(RayContractError):
        ray_cross(grid_oracle, zigzag, 4)


def test_ray_cross_rejects_source_outside(grid_oracle):
    with pytest.raises(ValueError):
        ray_cross(grid_oracle, up_ray(5), 3)


# -- annulus connectivity ----------------------------------------------------------


def test_annulus_connect_radius_sphere(grid_oracle):
    sphere8 = grid_oracle.sphere(ORIGIN, 8)
    # brute-force: S(8) alone is disconnected, S(8) u S(9) is connected
    assert not bf.all_in_one_component(grid_oracle.neighbors, set(sphere8), sphere8)
    union = set(sphere8) | set(grid_oracle.sphere(ORIGIN, 9))
    assert bf.all_in_one_component(grid_oracle.neighbors, union, sphere8)
    assert annulus_connect_radius(grid_oracle, sphere8, 7) == 9


def test_annulus_connect_radius_singleton(grid_oracle):
    assert annulus_connect_radius(grid_oracle, [(8, 0)], 7) == 8


def test_annulus_connect_radius_line_never_connects():
    g, _ = make_generator("line")
    with pytest.raises(BrokenWitnessError):
        annulus_connect_radius(g, [8, -8], 7)


def test_annulus_connect_radius_validates_inputs(grid_oracle):
    with pytest.raises(ValueError):
        annulus_connect_radius(grid_oracle, [], 7)
    with pytest.raises(ValueError):
        annulus_connect_radius(grid_oracle, [(5, 0)], 7)  # not on S(8)


def brute_connect_radius(g, targets, r_lo, max_radius):
    """Smallest R in r_lo+1..max_radius whose annulus joins all targets, else None."""
    dist = bf.bfs_distances(g.neighbors, g.origin, max_radius)
    for radius in range(r_lo + 1, max_radius + 1):
        annulus = {v for v, d in dist.items() if r_lo < d <= radius}
        if bf.all_in_one_component(g.neighbors, annulus, targets):
            return radius
    return None


@pytest.mark.parametrize("name", ["grid", "ladder"])
@pytest.mark.parametrize("r_lo", range(9))
def test_annulus_connect_radius_vs_bruteforce(name, r_lo):
    probe, _ = make_generator(name)
    sphere = sorted(probe.sphere(probe.origin, r_lo + 1))
    rng = random.Random(r_lo)
    subsets = [sphere] + [rng.sample(sphere, rng.randint(1, len(sphere))) for _ in range(3)]
    max_radius = r_lo + 64  # annulus_connect_radius's default cap
    for targets in subsets:
        expected = brute_connect_radius(probe, targets, r_lo, max_radius)
        for warm in (False, True):
            g, _ = make_generator(name)
            if warm:  # a cached sphere far beyond the answer changes nothing
                g.sphere(g.origin, max_radius + 5)
            if expected is None:
                with pytest.raises(BrokenWitnessError):
                    annulus_connect_radius(g, targets, r_lo)
            else:
                assert annulus_connect_radius(g, targets, r_lo) == expected


# -- annulus paths -----------------------------------------------------------------


def test_annulus_path_point(grid_oracle):
    assert annulus_path(grid_oracle, (9, 0), (9, 0), 7, 9, lambda v: True) == [
        (9, 0)
    ]


def annulus_members(g, r_lo, r_hi):
    out = set()
    for r in range(r_lo + 1, r_hi + 1):
        out |= set(g.sphere(ORIGIN, r))
    return out


def brute_shortest_len(g, members, p, q):
    dist = {p: 0}
    frontier = [p]
    while frontier and q not in dist:
        nxt = []
        for v in frontier:
            for u in g.neighbors(v):
                if u in members and u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist[q]


def test_annulus_path_quarter_turn(grid_oracle):
    p, q = (8, 0), (0, 8)
    path = annulus_path(grid_oracle, p, q, 7, 9, lambda v: True)
    assert path[0] == p and path[-1] == q
    assert len(path) - 1 >= 8
    for v in path:
        assert 7 < grid_oracle.distance(ORIGIN, v) <= 9
    members = annulus_members(grid_oracle, 7, 9)
    assert len(path) - 1 == brute_shortest_len(grid_oracle, members, p, q) == 16


def test_annulus_path_with_predicate_lower_half(grid_oracle):
    # Forbid the upper half (y > 0) so the path must round the bottom.
    p, q = (8, 0), (-8, 0)
    allowed = lambda v: v[1] <= 0
    path = annulus_path(grid_oracle, p, q, 7, 9, allowed)
    assert path[0] == p and path[-1] == q
    assert all(v[1] <= 0 for v in path)
    for v in path:
        assert 7 < grid_oracle.distance(ORIGIN, v) <= 9
    members = {v for v in annulus_members(grid_oracle, 7, 9) if v[1] <= 0}
    assert len(path) - 1 == brute_shortest_len(grid_oracle, members, p, q)


def test_annulus_path_deterministic():
    runs = []
    for _ in range(2):
        g, _ = make_generator("grid")  # fresh caches each time
        runs.append(annulus_path(g, (8, 0), (-8, 0), 7, 9, lambda v: v[1] <= 0))
    assert runs[0] == runs[1]


def test_annulus_path_disconnected(grid_oracle):
    p, q = (8, 0), (-8, 0)
    with pytest.raises(DisconnectedAnnulusError):
        annulus_path(grid_oracle, p, q, 7, 9, lambda v: v in (p, q))


def test_annulus_path_rejects_outsiders(grid_oracle):
    with pytest.raises(ValueError):
        annulus_path(grid_oracle, (5, 0), (8, 0), 7, 9, lambda v: True)
    with pytest.raises(ValueError):
        annulus_path(grid_oracle, (8, 0), (0, 8), 7, 9, lambda v: v == (8, 0))


# -- generator-level invariants ------------------------------------------------------


def random_vertex(name, rng):
    if name == "grid":
        return (rng.randint(-50, 50), rng.randint(-50, 50))
    if name == "line":
        return rng.randint(-100, 100)
    if name == "ladder":
        return (rng.randint(-100, 100), rng.randint(0, 1))
    depth = rng.randint(0, 10)
    d = int(name[4:])
    if depth == 0:
        return ()
    return (rng.randint(0, d - 1), *(rng.randint(0, d - 2) for _ in range(depth - 1)))


@pytest.mark.parametrize("name", ["grid", "line", "ladder", "tree3", "tree4"])
def test_adjacency_symmetric_and_degree_bounded(name):
    g, _ = make_generator(name)
    rng = random.Random(20260811)
    for _ in range(10_000):
        v = random_vertex(name, rng)
        nbrs = g.neighbors(v)
        assert len(nbrs) == len(set(nbrs)) <= g.degree_bound
        assert v not in nbrs
        assert list(nbrs) == sorted(nbrs)
        for u in nbrs:
            assert v in g.neighbors(u)


@pytest.mark.parametrize("name", ["grid", "line", "ladder", "tree3", "tree4"])
def test_ball_sphere_against_bruteforce(name):
    g, _ = make_generator(name)
    for r in range(0, 5):
        assert g.ball(g.origin, r) == bf.bfs_ball(g.neighbors, g.origin, r)
        assert g.sphere(g.origin, r) == bf.bfs_sphere(g.neighbors, g.origin, r)
    stream = islice(g.spheres(g.origin), 5)
    assert list(stream) == [bf.bfs_sphere(g.neighbors, g.origin, r) for r in range(5)]
