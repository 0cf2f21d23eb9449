"""Evasion strategy: precomputed tables, safety maps, havens, relocations."""

import json
import random
import tracemalloc
from dataclasses import replace
from itertools import islice

import pytest

import bruteforce as bf
from coarsecops import (
    BaselineCops,
    BrokenWitnessError,
    CopStrategyConfig,
    GraphOracle,
    ImpossibleStateError,
    NegotiationError,
    NoThickEndWitnessError,
    SearchBudgetExceeded,
    find_haven,
    make_generator,
    negotiate,
    open_annulus_index,
    plan_move,
    precompute_tables,
    run_match,
    safety_map,
)
import coarsecops.haven as haven_mod
from coarsecops.engine import GameState, trace_lines
from coarsecops.haven import HavenRobber, ray_unsafe
from coarsecops.lab import config_from_dict, run_experiment

ORIGIN = (0, 0)


def manhattan(u, v=ORIGIN):
    return abs(u[0] - v[0]) + abs(u[1] - v[1])


# -- precompute ----------------------------------------------------------------


def test_tables_grid_k1_sc1_rho1(grid_tables_111):
    g, rays, t = grid_tables_111
    assert t.n_annuli == 6  # k*b(rho)+1 = 1*5+1
    assert t.radii == (7, 9, 11, 13, 15, 17, 19)
    assert t.s_r == 761
    assert t.reach == 7
    assert t.containment == 19
    assert len(t.family) == 15


def test_tables_grid_k5_sc3_rho2(grid):
    # The ladder at deep scale: 66 annuli of width 2 from R_0 = 153.
    g, rays = grid
    t = precompute_tables(g, rays, 5, 3, 2)
    assert t.radii == tuple(range(153, 286, 2))
    assert t.s_r == bf.grid_ball_size(285) == 163021


def test_tables_k5_sc3_rho2_against_bruteforce(grid):
    # deep's constants from one brute-force BFS to R_N + 1 = 286, which
    # reads the grid's second sphere form (radius 16 on): the stream, s_r,
    # the sources, and the minimality of all 66 radii with the whole of
    # S(R_i + 1) as targets (stronger than the family crossings that
    # precompute joins, and still true on the grid).
    g, rays = grid
    t = precompute_tables(g, rays, 5, 3, 2)
    top = t.containment + 1
    spheres = [set() for _ in range(top + 1)]
    for v, d in bf.bfs_distances(g.neighbors, ORIGIN, top).items():
        spheres[d].add(v)
    assert list(islice(g.spheres(ORIGIN), top + 1)) == spheres
    assert t.s_r == sum(map(len, spheres[:top])) == 163_021
    inner = set().union(*spheres[: t.reach + 1])
    assert all(ray(0) in inner for ray in t.family)
    for r_lo, r_hi in zip(t.radii, t.radii[1:]):
        targets = spheres[r_lo + 1]
        annulus = set().union(*spheres[r_lo + 1 : r_hi + 1])
        assert bf.all_in_one_component(g.neighbors, annulus, targets), r_lo
        narrower = annulus - spheres[r_hi]
        assert not bf.all_in_one_component(g.neighbors, narrower, targets), r_lo


def test_annulus_targets_are_the_family_crossings(grid, monkeypatch):
    # Each annulus joins only the family's crossings of S(R_i + 1), and
    # its search starts from the crossing of the ray nearest the origin.
    g, rays = grid
    search = haven_mod.annulus_connect_radius
    seen = []

    def recording(g, X, band):
        seen.append(list(X))
        return search(g, X, band)

    monkeypatch.setattr(haven_mod, "annulus_connect_radius", recording)
    t = precompute_tables(g, rays, 2, 1, 1)
    assert t.radii == tuple(range(13, 36, 2))
    assert len(seen) == t.n_annuli
    nearest = min(t.family, key=lambda ray: manhattan(ray(0)))
    for r_lo, targets in zip(t.radii, seen):
        crossings = {ray(r_lo + 1 - manhattan(ray(0))) for ray in t.family}
        assert len(targets) == len(t.family) and set(targets) == crossings
        assert targets[0] == nearest(r_lo + 1 - manhattan(nearest(0)))


def test_precompute_holds_spheres_not_the_ball(grid):
    # Precompute streams the origin's spheres; holding B(R_N) whole
    # (b(70) = 9,941 vertices here) took about 1.1 MB.
    g, rays = grid
    tracemalloc.start()
    try:
        precompute_tables(g, rays, 3, 2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def test_tables_fail_when_the_component_ends_before_r_n(grid):
    # Cut the grid to the diamond |x| + |y| <= 11: the ladder 7, 9, 11 of
    # (1, 1, 1) then needs S(12), which the component does not have.
    # Spheres come from the generator's closed form and annuli are searched
    # over `neighbors`, so both are cut.
    g, rays = grid

    def inside(v):
        return abs(v[0]) + abs(v[1]) <= 11

    neighbors, sphere_at = g.neighbors, g.sphere_at
    g.neighbors = lambda v: tuple(filter(inside, neighbors(v)))
    g.sphere_at = lambda c, r: frozenset(filter(inside, sphere_at(c, r)))
    with pytest.raises(BrokenWitnessError, match="ends at radius 11"):
        precompute_tables(g, rays, 1, 1, 1)


def _spheres_miss_last_source(g, f):
    # The metric puts the source (13, 0) on S(13), the spheres as cut here
    # on none: the fault a source check up to R_0 catches.
    sphere_at = g.sphere_at
    g.sphere_at = lambda c, r: sphere_at(c, r) - {f[-1](0)}
    return f


# Family edits for grid (2, 1, 1), whose 27 family rays rise from (j, 0),
# |j| <= 13 = R_0.  The first three are accepted by a check of the
# sources alone; each breaks the disjoint-ray counting bound before R_N = 35.
# The last cuts the oracle's spheres instead.  Each edit takes the oracle
# and the family and returns the family.
BROKEN_FAMILIES = {
    "duplicate": (lambda g, f: f[:-1] + [f[0]], r"meet on S\(13\)"),
    "turns_back": (
        lambda g, f: f[:-1] + [lambda t: (13, t if t < 18 else 34 - t)],
        r"\(13, 16\) is its crossing of S\(31\)",
    ),
    # the ray from (0, 0) steps onto column 1 at (1, 15), on the ray from (1, 0)
    "bends": (
        lambda g, f: f[:13]
        + [lambda t: (0, t) if t < 16 else (1, t - 1)]
        + f[14:],
        r"meet on S\(16\)",
    ),
    "source_outside": (_spheres_miss_last_source, r"\(13, 0\) is on no sphere up to S\(13\)"),
}


@pytest.mark.parametrize("edit, match", BROKEN_FAMILIES.values(), ids=BROKEN_FAMILIES.keys())
def test_tables_fail_on_a_broken_family(grid, edit, match):
    g, rays = grid
    assert precompute_tables(g, rays, 2, 1, 1).radii == tuple(range(13, 36, 2))
    with pytest.raises(BrokenWitnessError, match=match):
        precompute_tables(g, lambda count: edit(g, rays(count)), 2, 1, 1)


def test_tables_take_r0_from_the_farthest_source(grid):
    # A source at distance 14 is no fault: R_0 follows it.
    g, rays = grid
    def far(t):
        return (14, t)

    t = precompute_tables(g, lambda count: rays(count)[:-1] + [far], 2, 1, 1)
    assert t.reach == 14 and t.family[-1] is far


def test_tables_radii_confirmed_by_connectivity_oracle(grid_tables_111):
    # Each R_{i+1} must be the least radius connecting all of S(R_i + 1)
    # inside the annulus; checked with an independent BFS component oracle.
    g, rays, t = grid_tables_111
    for i in range(t.n_annuli):
        r_lo, r_hi = t.radii[i], t.radii[i + 1]
        crossers = bf.bfs_sphere(g.neighbors, ORIGIN, r_lo + 1)
        dist = bf.bfs_distances(g.neighbors, ORIGIN, r_hi + 1)
        annulus = {v for v, d in dist.items() if r_lo < d <= r_hi}
        assert bf.all_in_one_component(g.neighbors, annulus, crossers)
        smaller = {v for v, d in dist.items() if r_lo < d <= r_hi - 1}
        assert not bf.all_in_one_component(g.neighbors, smaller, crossers)


def test_tables_speed_is_exact_outer_ball_size(grid_tables_111):
    g, _, t = grid_tables_111
    assert t.s_r == len(bf.bfs_ball(g.neighbors, ORIGIN, t.radii[-1]))


def test_tables_zero_speed_zero_radius():
    # b(0)+1 = 2 disjoint rays need two sources, so R_0 = 1, and N = 2.
    g, rays = make_generator("grid")
    t = precompute_tables(g, rays, 1, 0, 0)
    assert t.radii[0] == 1
    assert t.n_annuli == 2
    assert len(t.family) == 3
    assert t.s_r == g.ball_size(t.radii[-1])


@pytest.mark.parametrize("name", ["line", "ladder", "tree3"])
def test_tables_thin_end_generators_fail(name):
    g, rays = make_generator(name)
    with pytest.raises(NoThickEndWitnessError):
        precompute_tables(g, rays, 1, 1, 1)


@pytest.mark.parametrize(
    "budget, k, refused",
    # Budget 10,000 at k = 10: the witness's 131 sources put R_0 at 65
    # and R_N at 65 + 51 or more, and b(116) = 27,145 is over the budget.
    # The default budget at k = 240: R_0 = 1560 and N = 1201.
    [(10_000, 10, 116), (GraphOracle.expansion_budget, 240, 2761)],
)
def test_an_over_budget_setting_is_refused_before_any_sphere(budget, k, refused):
    g, rays = make_generator("grid")
    g.expansion_budget = budget

    def sphere_at(c, r):
        raise AssertionError(f"S({r}) read")

    g.sphere_at = sphere_at
    with pytest.raises(SearchBudgetExceeded, match=rf"S\({refused}\) around \(0, 0\) refused"):
        precompute_tables(g, rays, k, 1, 1)


def test_tables_monotone_in_margins():
    g, rays = make_generator("grid")
    base = precompute_tables(g, rays, 1, 1, 1)
    for s_c, rho in ((1, 2), (2, 1), (2, 2)):
        bigger = precompute_tables(g, rays, 1, s_c, rho)
        assert bigger.radii[0] >= base.radii[0]
        assert bigger.s_r >= base.s_r
    fatter = precompute_tables(g, rays, 2, 1, 1)
    assert fatter.radii[0] >= base.radii[0] and fatter.s_r >= base.s_r


def _commit(robber, k, s_c, rho):
    committed = {"variant": "weak", "k": k, "v0": ORIGIN, "s_c": s_c, "rho": rho}
    s_r = robber.commit("s_r", committed)
    return s_r, robber.commit("R", {**committed, "s_r": s_r})


def test_haven_robbers_share_memoized_tables():
    memo = {}
    first = HavenRobber(*make_generator("grid"), memo=memo)
    second = HavenRobber(*make_generator("grid"), memo=memo)
    assert _commit(first, 1, 1, 1) == _commit(second, 1, 1, 1)
    assert second.tables is first.tables
    other = HavenRobber(*make_generator("grid"), memo=memo)
    _commit(other, 1, 1, 2)
    assert other.tables is not first.tables and other.tables.rho == 2
    assert set(memo) == {("grid", 1, 1, 1), ("grid", 1, 1, 2)}
    # the shared tables are those a fresh oracle computes
    fresh = precompute_tables(*make_generator("grid"), 1, 1, 1)
    assert first.tables.radii == fresh.radii and first.tables.s_r == fresh.s_r
    assert [r(0) for r in first.tables.family] == [r(0) for r in fresh.family]


def test_failed_precompute_is_memoized_without_its_traceback():
    """The second robber of a failing setting raises the same error
    without asking the witness again; the memo holds no traceback."""
    g, rays = make_generator("line")
    calls = []

    def witness(n):
        calls.append(n)
        return rays(n)

    memo = {}
    errors = []
    for _ in range(2):
        robber = HavenRobber(g, witness, memo=memo)
        with pytest.raises(NoThickEndWitnessError) as info:
            _commit(robber, 2, 1, 1)
        errors.append(info.value)
    assert len(calls) == 1
    assert str(errors[1]) == str(errors[0])
    (stored,) = memo.values()
    assert type(stored) is NoThickEndWitnessError and str(stored) == str(errors[0])
    assert stored.__traceback__ is None and stored.__context__ is None


def test_haven_robber_refuses_a_ball_off_the_origin():
    # The radii are measured from the origin, so a reach committed for any
    # other v0 would let the robber play a match it never visits.
    g, rays = make_generator("grid")
    cops = BaselineCops(g, CopStrategyConfig(kind="stationary"), 1, 1)
    with pytest.raises(NegotiationError, match="v0=\\(50, 0\\)"):
        negotiate(
            "weak", cops.commit, HavenRobber(g, rays).commit,
            k=1, v0=(50, 0), horizon=20, visit_quota=10,
        )


# -- safety maps ------------------------------------------------------------------


def test_safety_map_sizes(grid_tables_111):
    g, _, t = grid_tables_111
    closed = safety_map(g, t, [(10, 0)])
    assert len(closed) == 5  # b(rho) = b(1)
    assert closed == bf.bfs_ball(g.neighbors, (10, 0), 1)


def test_safety_map_zero_margins():
    g, rays = make_generator("grid")
    t = precompute_tables(g, rays, 1, 0, 0)
    closed = safety_map(g, t, [(4, 4), (-2, 0)])
    assert closed == {(4, 4), (-2, 0)}
    assert safety_map(g, t, []) == frozenset()


def test_safety_map_coincident_cops_collapse(grid_tables_111):
    g, _, t = grid_tables_111
    closed = safety_map(g, t, [(3, 3), (3, 3)])
    assert closed == bf.bfs_ball(g.neighbors, (3, 3), 1)


def test_safety_map_counting_bounds(grid_tables_111):
    g, _, t = grid_tables_111
    rng = random.Random(5)
    for _ in range(50):
        cops = [(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(3)]
        closed = safety_map(g, t, cops)
        assert closed == set().union(*(bf.bfs_ball(g.neighbors, c, t.rho) for c in cops))
        assert len(closed) <= 3 * g.ball_size(t.rho)


# -- havens ------------------------------------------------------------------------


def test_find_haven_no_cops(grid_tables_111):
    g, _, t = grid_tables_111
    ray = find_haven(g, t, [])
    assert ray(0) == (-7, 0) and ray is t.family[0]


def test_find_haven_skips_center_blocked_rays(grid_tables_111):
    g, _, t = grid_tables_111
    assert find_haven(g, t, [(0, 5)])(0) == (-7, 0)
    # independent check: rays |j| <= 2 are hit, |j| >= 3 are clean
    unsafe = bf.bfs_ball(g.neighbors, (0, 5), 2)
    for j in range(-7, 8):
        hit = any((j, y) in unsafe for y in range(0, 40))
        assert hit == (abs(j) <= 2)


def test_find_haven_exhaustion_asserts(grid_tables_111):
    g, _, t = grid_tables_111
    crippled = replace(t, family=tuple(r for r in t.family if r(0)[0] in (0, 1, 2)))
    with pytest.raises(ImpossibleStateError):
        find_haven(g, crippled, [(0, 5)])


def test_find_haven_result_is_fully_safe(grid_tables_111):
    # The returned ray is safe, and every family ray before it meets the
    # brute-force union of the cops' (s_c+rho)-balls: family order decides
    # which haven is taken.
    g, _, t = grid_tables_111
    rng = random.Random(13)
    placements = [
        [(rng.randint(-40, 40), rng.randint(-40, 40)) for _ in range(2)] for _ in range(100)
    ]
    # One cop within s_c+rho of the first ray, the other on one of the
    # first eight: the first ray is always skipped, often more.
    placements += [
        [t.family[rng.randrange(i)](rng.randint(0, 30)) for i in (3, 8)] for _ in range(100)
    ]
    skipping = 0
    for cops in placements:
        ray = find_haven(g, t, cops)
        for step_t in range(0, 80):
            w = ray(step_t)
            assert all(manhattan(w, c) > t.s_c + t.rho for c in cops)
        skipped = t.family[: t.family.index(ray)]
        assert all(_unsafe_by_balls(g, t, r, cops) for r in skipped), cops
        skipping += bool(skipped)
    assert skipping > len(placements) // 2


def _unsafe_by_balls(g, t, ray, cops):
    """Some step 0..max(0, horizon - d0) of `ray` in a brute-force
    (s_c+rho)-ball around a cop, horizon = max d(origin, c) + s_c + rho."""
    reach = t.s_c + t.rho
    horizon = max((manhattan(c) + reach for c in cops), default=-1)
    unsafe = set().union(*(bf.bfs_ball(g.neighbors, c, reach) for c in cops))
    d0 = manhattan(ray(0))
    return any(ray(s) in unsafe for s in range(max(0, horizon - d0) + 1))


@pytest.mark.parametrize("setting", [(1, 1, 1), (2, 2, 1), (2, 1, 0)])
def test_ray_unsafe_agrees_with_the_ball_union(setting):
    g, rays = make_generator("grid")
    t = precompute_tables(g, rays, *setting)
    reach = t.s_c + t.rho
    rng = random.Random(sum(setting))
    # Explicit sets: none; a cop on the first ray 10 steps up (its window
    # starts past step 0); a cop one step inside the first ray's source
    # (closer to the origin than the source); a cop at the origin.
    j = t.family[0](0)[0]
    cop_sets = [[], [(j, 10)], [(j + 1, 0)], [(0, 0)]]
    cop_sets += [random_cops_in_ball(rng, 2 * t.containment, t.k) for _ in range(25)]
    late = inner = 0
    for cops in cop_sets:
        for ray in t.family:
            d0 = manhattan(ray(0))
            expected = _unsafe_by_balls(g, t, ray, cops)
            assert ray_unsafe(g, t, ray, cops) == expected, (ray(0), cops)
            late += expected and any(manhattan(c) - d0 > reach for c in cops)
            inner += expected and any(manhattan(c) < d0 for c in cops)
    assert late and inner
    first = t.family[0]
    assert not ray_unsafe(g, t, first, [])
    assert ray_unsafe(g, t, first, [(j, 10)])
    assert ray_unsafe(g, t, first, [(j + 1, 0)])


# -- open annuli ---------------------------------------------------------------------


def test_open_annulus_no_cops(grid_tables_111):
    g, _, t = grid_tables_111
    assert open_annulus_index(g, t, safety_map(g, t, [])) == 1


def test_open_annulus_skips_contaminated(grid_tables_111):
    g, _, t = grid_tables_111
    # cop at (9,0), rho=1: closed vertices at distances 8..10 touch the
    # annuli covering 8..9 and 10..11, so the first clean index is 3.
    closed = bf.bfs_ball(g.neighbors, (9, 0), 1)
    assert {manhattan(v) for v in closed} == {8, 9, 10}
    assert open_annulus_index(g, t, safety_map(g, t, [(9, 0)])) == 3


def test_open_annulus_far_cop(grid_tables_111):
    g, _, t = grid_tables_111
    assert open_annulus_index(g, t, safety_map(g, t, [(100, 100)])) == 1


def test_open_annulus_respects_counting_bound(grid_tables_111):
    g, _, t = grid_tables_111
    rng = random.Random(23)
    for _ in range(200):
        cops = [(rng.randint(-25, 25), rng.randint(-25, 25))]
        i = open_annulus_index(g, t, safety_map(g, t, cops))
        assert 1 <= i <= t.n_annuli
        closed = bf.bfs_ball(g.neighbors, cops[0], t.rho)
        lo, hi = t.radii[i - 1], t.radii[i]
        assert all(not (lo < manhattan(v) <= hi) for v in closed)


# -- relocation paths ---------------------------------------------------------------


def _haven_ray(t, v):
    """The family ray whose source is v: the ray a robber standing on v
    plays, found by scanning the family."""
    (ray,) = [ray for ray in t.family if ray(0) == v]
    return ray


def test_plan_move_stays_when_still_haven(grid_tables_111):
    g, _, t = grid_tables_111
    routes = {}
    for cops in ([], [(0, 5)]):
        route = plan_move(g, t, t.family[0], cops, routes)
        assert type(route) is list and route == [(-7, 0)]
        assert _haven_ray(t, route[-1]) is t.family[0]
    assert routes == {}  # a stay builds no route


def _force_haven_flip(monkeypatch):
    # Synthetic cop view: every family ray except j=7 is unsafe, nothing
    # is closed, so the haven flips -7 -> +7 through the first annulus.
    # No cop placement gives that view, so both tests are patched.
    monkeypatch.setattr(haven_mod, "ray_unsafe", lambda g, t, ray, cops: ray(0) != (7, 0))
    monkeypatch.setattr(haven_mod, "safety_map", lambda *a: frozenset())


def test_plan_move_forced_relocation(grid_tables_111, monkeypatch):
    g, _, t = grid_tables_111
    _force_haven_flip(monkeypatch)
    routes = {}
    path = plan_move(g, t, t.family[0], [(0, -60)], routes)
    assert type(path) is list and path[0] == (-7, 0) and path[-1] == (7, 0)
    assert _haven_ray(t, path[-1]) is t.family[14]
    assert (-7, 1) in path and (7, 1) in path  # sphere crossings at S(8)
    assert len(path) - 1 <= t.s_r
    assert len(set(path)) == len(path)
    interior = path[1:-1]
    assert all(7 < manhattan(v) <= 9 for v in interior)  # inside B(9) \ B(7)
    assert routes == {((-7, 0), (7, 0), 1): path}


def test_plan_move_rechecks_a_cached_route_against_the_closed_set(
    grid_tables_111, monkeypatch
):
    g, _, t = grid_tables_111
    _force_haven_flip(monkeypatch)
    at = t.family[0]
    routes = {}
    route = plan_move(g, t, at, [(0, -60)], routes)
    # Close an interior vertex of the cached route.  It lies in annulus 1,
    # so the real open_annulus_index would move on to annulus 2; pin it to
    # 1 so that only the closed set changes and (v, w, i) is a cache hit.
    monkeypatch.setattr(haven_mod, "safety_map", lambda *a: frozenset([route[5]]))
    monkeypatch.setattr(haven_mod, "open_annulus_index", lambda *a: 1)
    with pytest.raises(ImpossibleStateError, match="is not open"):
        plan_move(g, t, at, [(0, -60)], routes)
    assert list(routes) == [((-7, 0), (7, 0), 1)]


def test_plan_move_rejects_a_route_that_is_not_simple(grid_tables_111, monkeypatch):
    g, _, t = grid_tables_111
    _force_haven_flip(monkeypatch)
    real = haven_mod.annulus_path

    def back_step(*args):
        p = real(*args)
        return p[:2] + p[:2] + p[2:]  # same ends, one step out and back

    monkeypatch.setattr(haven_mod, "annulus_path", back_step)
    routes = {}
    with pytest.raises(ImpossibleStateError, match="not simple"):
        plan_move(g, t, t.family[0], [(0, -60)], routes)
    assert routes == {}


def test_plan_move_builds_a_safety_map_only_to_relocate(grid_tables_111, monkeypatch):
    g, _, t = grid_tables_111
    calls = []
    real = haven_mod.safety_map
    monkeypatch.setattr(haven_mod, "safety_map", lambda *a: calls.append(a) or real(*a))
    at = t.family[0]
    routes = {}
    assert plan_move(g, t, at, [(0, 5)], routes) == [(-7, 0)]
    assert plan_move(g, t, at, [], routes) == [(-7, 0)]
    assert calls == []
    # (-7, 12) is within s_c+rho = 2 of steps 10..14 of the j=-7 ray and of
    # the j=-6 and j=-5 rays, but closes nothing inside the first annulus.
    path = plan_move(g, t, at, [(-7, 12)], routes)
    assert path[0] == (-7, 0) and path[-1] == (-4, 0)
    assert _haven_ray(t, path[-1]) is t.family[3]
    assert len(calls) == 1


def test_plan_move_asserts_on_cheating_cops(grid_tables_111):
    # A cop sitting on the old ray makes the up-segment non-open, which the
    # proof's preconditions exclude; plan_move must refuse, not play on.
    g, _, t = grid_tables_111
    with pytest.raises(ImpossibleStateError):
        plan_move(g, t, t.family[0], [(-7, 3)], {})


def test_robber_off_every_haven_is_an_impossible_state(grid_tables_111):
    # The robber reads its ray from the vertex it stands on; a vertex that
    # is no family source is a state the strategy never reaches.
    g, rays, t = grid_tables_111
    robber = HavenRobber(g, rays, memo={("grid", 1, 1, 1): t})
    _commit(robber, 1, 1, 1)
    assert set(robber.havens) == {ray(0) for ray in t.family}
    v = robber.place(g, None, [(0, 5)])
    assert robber.step(g, None, GameState(round=1, cops=((0, 5),), robber=v)) == [v]
    off = GameState(round=1, cops=((0, 5),), robber=(100, 100))
    with pytest.raises(ImpossibleStateError, match=r"\(100, 100\) stands on no haven"):
        robber.step(g, None, off)


def test_robber_off_every_haven_ends_as_an_aborted_row(tmp_path, monkeypatch):
    monkeypatch.setattr(HavenRobber, "place", lambda self, g, params, cops: (100, 100))
    config = config_from_dict(
        {"generator": "grid", "k": 1, "s_c": 1, "rho": 1, "horizon": 5, "visit_quota": 1,
         "cops": {"kind": "stationary"}}
    )
    result = run_experiment(config, output_root=tmp_path, workers=1)
    (row,) = result.rows
    assert row["outcome"] == "aborted" and result.exit_code == 2
    assert row["error"] == "ImpossibleStateError: robber at (100, 100) stands on no haven"


class _NeverHits(dict):
    """A route memo that stores nothing, so every relocation rebuilds."""

    def __setitem__(self, key, value):
        pass


def test_route_memo_is_exact_and_lives_for_one_match(monkeypatch):
    # The slowest acceptance-sweep cell: greedy cops relocate the robber
    # on most of its 200 rounds.
    built = []
    real = haven_mod.annulus_path
    monkeypatch.setattr(haven_mod, "annulus_path", lambda *a: built.append(a) or real(*a))

    def play(fresh_routes):
        g, rays = make_generator("grid")
        cops = BaselineCops(g, CopStrategyConfig(kind="greedy"), 2, 1)
        robber = HavenRobber(g, rays)
        assert robber.routes == {}
        params = negotiate(
            "weak", cops.commit, robber.commit, k=3, v0=ORIGIN, horizon=200, visit_quota=100
        )
        robber.routes = fresh_routes
        built.clear()
        _, trace = run_match(g, params, cops, robber)
        return list(trace_lines(g, trace)), robber.routes, len(built)

    lines, routes, builds = play({})
    rebuilt_lines, _, rebuilds = play(_NeverHits())
    assert lines == rebuilt_lines
    assert builds == len(routes) < rebuilds
    assert rebuilds == sum(len(json.loads(line).get("robber_path", ())) > 1 for line in lines)


def test_choose_start_examples(grid_tables_111):
    # the robber starts on the haven `find_haven` picks
    g, _, t = grid_tables_111
    assert find_haven(g, t, [])(0) == (-7, 0)
    assert find_haven(g, t, [(40, 40), (0, -50)])(0) == (-7, 0)
    assert find_haven(g, t, [(0, 5)])(0) == (-7, 0)


# -- randomized haven sweep (scaled-down; the full one is in acceptance) -------------


def random_cops_in_ball(rng, radius, k):
    cops = []
    while len(cops) < k:
        v = (rng.randint(-radius, radius), rng.randint(-radius, radius))
        if manhattan(v) <= radius:
            cops.append(v)
    return cops


@pytest.mark.parametrize("k", [1, 2, 3])
def test_haven_and_annulus_sweep(k):
    g, rays = make_generator("grid")
    t = precompute_tables(g, rays, k, 1, 1)
    rng = random.Random(1000 + k)
    for _ in range(100):
        cops = random_cops_in_ball(rng, 2 * t.containment, k)
        assert manhattan(find_haven(g, t, cops)(0)) <= t.radii[0]
        i = open_annulus_index(g, t, safety_map(g, t, cops))
        assert i <= k * g.ball_size(t.rho) + 1
