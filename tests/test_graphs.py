"""Graph kernel: distances, balls, spheres, ray crossings, annulus search."""

import gc
import random
import weakref
from itertools import count, islice

import pytest
from hypothesis import given, settings, strategies as st

import bruteforce as bf
from coarsecops import (
    BrokenWitnessError,
    DisconnectedAnnulusError,
    SearchBudgetExceeded,
    annulus_connect_radius,
    annulus_path,
    make_generator,
    ray_cross,
)
from coarsecops.graphs import BALL_CACHE_ENTRIES

ORIGIN = (0, 0)


def up_ray(j):
    return lambda t: (j, t)


def band(g, r_lo):
    """The origin's (radius, sphere) stream from S(r_lo+1) on."""
    return islice(enumerate(g.spheres(g.origin)), r_lo + 1, None)


# -- distance ------------------------------------------------------------------


def test_distance_identity(grid_oracle):
    assert grid_oracle.distance(ORIGIN, ORIGIN) == 0


def test_distance_is_manhattan_on_grid(grid_oracle):
    assert grid_oracle.distance(ORIGIN, (3, 4)) == 7


def test_distance_along_tree_ray():
    g, rays = make_generator("tree3")
    spine = rays(1)[0]
    assert g.distance((), spine(5)) == 5


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
    # its band comes from brute-force spheres, so only its own expansions count
    "annulus_connect_radius": lambda g: annulus_connect_radius(
        g,
        sorted(bf.bfs_sphere(g.neighbors, ORIGIN, 20)),
        ((d, frozenset(bf.bfs_sphere(g.neighbors, ORIGIN, d))) for d in count(20)),
    ),
    "annulus_path": lambda g: annulus_path(g, (20, 0), (-20, 0), 19, 21),
}


@pytest.mark.parametrize("query", BUDGET_QUERIES.values(), ids=BUDGET_QUERIES.keys())
def test_search_budget_exceeded(query):
    g, _ = make_generator("grid")
    g.expansion_budget = 50
    with pytest.raises(SearchBudgetExceeded):
        query(g)


def test_sphere_budget_trips_before_a_sphere_past_it(grid_oracle):
    # A huge radius ends in SearchBudgetExceeded before `sphere_at` is
    # asked for a sphere beyond the first ball larger than the budget:
    # with budget 50, |B(4)| = 41 and |B(5)| = 61, so S(5) at most.  A
    # sphere is one `sphere_at` call: S(5) is built alone, and S(6) and
    # S(10**9) are refused before any sphere is built.
    g = grid_oracle
    g.expansion_budget = 50
    trip = next(r for r in count() if bf.grid_ball_size(r) > g.expansion_budget)
    asked = []
    sphere_at = g.sphere_at

    def recording(c, r):
        # refuse before building: a sphere past the trip may be huge
        assert r <= trip, f"sphere_at asked for S({r}), past S({trip})"
        asked.append(r)
        return sphere_at(c, r)

    g.sphere_at = recording
    assert g.sphere(ORIGIN, trip) == bf.bfs_sphere(g.neighbors, ORIGIN, trip)
    assert trip == 5 and asked == [5]
    for r in (trip + 1, 10**9):
        with pytest.raises(SearchBudgetExceeded, match=rf"S\({r}\) around \(0, 0\) refused"):
            g.sphere(ORIGIN, r)
    assert asked == [5]


@pytest.mark.parametrize("name", ["grid", "line", "ladder", "tree3", "tree4"])
def test_huge_radius_is_refused_by_the_closed_form(name):
    # sphere, ball and ball_size at radius 10**9 are refused by b alone,
    # evaluated at no radius past twice the first whose ball is over the
    # budget: tree4's b at 10**9 alone would not finish.
    g, _ = make_generator(name)
    g.expansion_budget = 10_000
    b = g.ball_size_at
    trip = next(r for r in count() if b(r) > g.expansion_budget)
    seen = []
    g.ball_size_at = lambda r: seen.append(r) or b(r)
    queries = (g.sphere, g.ball, lambda c, r: g.ball_size(r))
    for query in queries:
        with pytest.raises(SearchBudgetExceeded):
            query(g.origin, 10**9)
    assert seen and max(seen) <= 2 * trip, (trip, max(seen))


# -- balls and spheres ----------------------------------------------------------


def test_ball_radius_zero(grid_oracle):
    assert grid_oracle.ball(ORIGIN, 0) == {ORIGIN}


@pytest.mark.parametrize("name", ["grid", "line", "ladder", "tree3", "tree4"])
def test_ball_radius_zero_is_the_center_on_every_generator(name):
    g, _ = make_generator(name)
    rng = random.Random(7)
    for v in [g.origin] + [random_vertex(name, rng) for _ in range(50)]:
        assert g.ball(v, 0) == {v}


def test_radius_zero_balls_take_no_cache_slot(grid_oracle):
    """B(c, 0) is built without the cache, so 300 distinct radius-0 balls
    (more than the cache holds) evict no cached ball."""
    b = grid_oracle.ball((3, 4), 1)
    for i in range(300):
        assert grid_oracle.ball((i, -i), 0) == {(i, -i)}
    assert grid_oracle.ball((3, 4), 1) is b


def test_a_dropped_oracle_is_freed_without_the_cyclic_gc():
    """Neither the decode memo nor the ball cache refers back to the
    oracle, so reference counting alone frees it."""
    gc.disable()
    try:
        g, _ = make_generator("grid")
        ref = weakref.ref(g)
        assert list(map(g.decode, ["(1,2)", "(1,2)", "(0,0)"])) == [(1, 2), (1, 2), (0, 0)]
        g.ball((1, 2), 2)
        del g, _
        assert ref() is None
    finally:
        gc.enable()


def test_the_ball_cache_holds_its_bound_and_evicts_the_oldest(grid_oracle):
    # A repeated key is the same object, with no second build.  One key
    # past the bound evicts the first key and no other, so the cache holds
    # exactly BALL_CACHE_ENTRIES balls; the evicted ball is rebuilt equal
    # but as a new object.
    g = grid_oracle
    built = []
    ball_at = g.ball_at
    g.ball_at = lambda c, r: built.append((c, r)) or ball_at(c, r)
    keys = [((i, 0), 1 + i % 3) for i in range(BALL_CACHE_ENTRIES + 1)]
    balls = [g.ball(*key) for key in keys]
    assert built == keys
    assert all(g.ball(*key) is b for key, b in zip(keys[1:], balls[1:]))
    assert built == keys
    again = g.ball(*keys[0])
    assert again == balls[0] and again is not balls[0]
    assert built == keys + keys[:1]


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
    grid_oracle.ball(ORIGIN, 40)  # warm: a cached ball far beyond r changes nothing
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
        up_ray(-7)(t)
        for t in range(20)
        if grid_oracle.distance(ORIGIN, up_ray(-7)(t)) == 8
    )
    assert walked == crossed


def test_ray_cross_rejects_non_monotone(grid_oracle):
    def zigzag(t):
        return (0, t % 2)

    with pytest.raises(BrokenWitnessError, match="not monotone"):
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
    assert annulus_connect_radius(grid_oracle, sphere8, band(grid_oracle, 7)) == 9


def test_annulus_connect_radius_singleton(grid_oracle):
    assert annulus_connect_radius(grid_oracle, [(8, 0)], band(grid_oracle, 7)) == 8


def test_annulus_connect_radius_line_never_connects():
    g, _ = make_generator("line")
    with pytest.raises(BrokenWitnessError):
        annulus_connect_radius(g, [8, -8], band(g, 7))


def test_annulus_connect_radius_validates_inputs(grid_oracle):
    with pytest.raises(ValueError):
        annulus_connect_radius(grid_oracle, [], band(grid_oracle, 7))
    with pytest.raises(ValueError):
        annulus_connect_radius(grid_oracle, [(5, 0)], band(grid_oracle, 7))  # not on S(8)


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
            if warm:  # a cached ball far beyond the answer changes nothing
                g.ball(g.origin, max_radius + 5)
            if expected is None:
                with pytest.raises(BrokenWitnessError):
                    annulus_connect_radius(g, targets, band(g, r_lo))
            else:
                assert annulus_connect_radius(g, targets, band(g, r_lo)) == expected


def test_annulus_connect_radius_ignores_target_order():
    pick, mix = random.Random(0), random.Random(1)
    outcomes = set()
    for name in ("grid", "ladder"):
        g, _ = make_generator(name)
        sphere = sorted(g.sphere(g.origin, 8))
        for targets in [pick.sample(sphere, pick.randint(2, len(sphere))) for _ in range(4)]:
            orders = [sorted(targets), sorted(targets, reverse=True)]
            orders.append(mix.sample(targets, len(targets)))
            found = set()
            for order in orders:
                try:
                    found.add(annulus_connect_radius(g, order, band(g, 7)))
                except BrokenWitnessError:  # the ladder's two sides never join
                    found.add(None)
            assert len(found) == 1, (name, targets, found)
            outcomes |= found
    assert outcomes == {9, None}


def test_annulus_connect_radius_grows_from_the_first_target(grid_oracle):
    # X's order picks only the start: from the middle of an arc of S(8)
    # the search reaches both ends sooner than from one end, where it
    # also spreads the long way round the sphere.
    g = grid_oracle
    arc = [(j, 8 - abs(j)) for j in (0, -1, 1, -2, 2, -3, 3)]
    expanded = []
    neighbors = g.neighbors
    g.neighbors = lambda v: expanded.append(v) or neighbors(v)
    assert annulus_connect_radius(g, arc, band(g, 7)) == 9
    from_middle = expanded[:]
    expanded.clear()
    assert annulus_connect_radius(g, sorted(arc), band(g, 7)) == 9
    assert from_middle[0] == (0, 8) and expanded[0] == (-3, 5)
    assert len(from_middle) < len(expanded)


def test_annulus_connect_radius_reads_the_band_up_to_r(grid_oracle):
    # precompute shares one sphere stream with the search, so the search
    # must leave it at S(R + 1)
    stream = band(grid_oracle, 7)
    assert annulus_connect_radius(grid_oracle, grid_oracle.sphere(ORIGIN, 8), stream) == 9
    assert next(stream) == (10, grid_oracle.sphere(ORIGIN, 10))


# -- annulus paths -----------------------------------------------------------------


def test_annulus_path_point(grid_oracle):
    assert annulus_path(grid_oracle, (9, 0), (9, 0), 7, 9) == [(9, 0)]


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
    path = annulus_path(grid_oracle, p, q, 7, 9)
    assert path[0] == p and path[-1] == q
    assert len(path) - 1 >= 8
    for v in path:
        assert 7 < grid_oracle.distance(ORIGIN, v) <= 9
    members = annulus_members(grid_oracle, 7, 9)
    assert len(path) - 1 == brute_shortest_len(grid_oracle, members, p, q) == 16


def test_annulus_path_deterministic():
    runs = []
    for _ in range(2):
        g, _ = make_generator("grid")  # fresh caches each time
        runs.append(annulus_path(g, (8, 0), (-8, 0), 7, 9))
    assert runs[0] == runs[1]


def test_annulus_path_disconnected():
    # The line's annulus 7 < |x| <= 9 is two pieces, {8, 9} and {-8, -9}.
    line, _ = make_generator("line")
    with pytest.raises(DisconnectedAnnulusError):
        annulus_path(line, 8, -8, 7, 9)


def test_annulus_path_rejects_outsiders(grid_oracle):
    with pytest.raises(ValueError):
        annulus_path(grid_oracle, (5, 0), (8, 0), 7, 9)


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


DEGREE = {"grid": 4, "line": 2, "ladder": 3, "tree3": 3, "tree4": 4}


@pytest.mark.parametrize("name", list(DEGREE))
def test_adjacency_symmetric_and_degree_bounded(name):
    g, _ = make_generator(name)
    rng = random.Random(20260811)
    for _ in range(10_000):
        v = random_vertex(name, rng)
        nbrs = g.neighbors(v)
        assert len(nbrs) == len(set(nbrs)) == DEGREE[name]
        assert v not in nbrs
        assert list(nbrs) == sorted(nbrs)
        for u in nbrs:
            assert v in g.neighbors(u)


# Centers for the sphere agreement test: the origin, off-origin vertices
# with negative coordinates, both ladder rails, tree words of depth 3.
SPHERE_CENTERS = {
    "grid": [(0, 0), (-3, 5), (-7, -2), (4, -9)],
    "line": [0, -5, 13],
    "ladder": [(0, 0), (0, 1), (-4, 1), (6, 0)],
    "tree3": [(), (0, 1, 0), (2, 0, 1)],
    "tree4": [(), (3, 2, 0), (1, 0, 2)],
}


@pytest.mark.parametrize("name", ["grid", "line", "ladder", "tree3", "tree4"])
def test_ball_sphere_against_bruteforce(name):
    # Spheres and ball sizes come from the generator's closed forms, so
    # each sphere must equal the brute-force BFS sphere, each ball the BFS
    # ball, and each b(r) the BFS ball's size.
    g, _ = make_generator(name)
    # the grid builds spheres from radius 16 on by another route
    max_r = {"grid": 20, "tree3": 5, "tree4": 5}.get(name, 12)
    for c in SPHERE_CENTERS[name]:
        dist = bf.bfs_distances(g.neighbors, c, max_r)
        spheres = [{v for v, d in dist.items() if d == r} for r in range(max_r + 1)]
        for r, sphere in enumerate(spheres):
            assert g.sphere_at(c, r) == sphere == g.sphere(c, r), (c, r)
            ball = {v for v, d in dist.items() if d <= r}
            assert g.ball(c, r) == ball and g.ball_size(r) == len(ball), (c, r)
        assert list(islice(g.spheres(c), max_r + 1)) == spheres

