"""Cop baselines: legality, determinism, pursuit behavior, stations."""

import random

import pytest

from coarsecops import (
    ConfigError,
    GameParams,
    GameState,
    greedy_step,
    make_generator,
    perimeter_stations,
)
from coarsecops.baselines import BaselineCops, CopStrategyConfig


def params(k=1, s_c=1, rho=1, reach=7, s_r=761):
    return GameParams(
        variant="weak",
        k=k,
        s_c=s_c,
        rho=rho,
        s_r=s_r,
        reach=reach,
        v0=(0, 0),
        horizon=100,
        visit_quota=50,
    )


@pytest.fixture
def grid():
    return make_generator("grid")[0]


def test_greedy_straight_line_approach(grid):
    state = GameState(round=1, cops=((0, 0),), robber=(5, 0))
    assert greedy_step(grid, params(s_c=2), state) == [(2, 0)]


def test_greedy_stays_on_top_of_robber(grid):
    state = GameState(round=1, cops=((3, 3),), robber=(3, 3))
    assert greedy_step(grid, params(s_c=1), state) == [(3, 3)]


def test_greedy_tie_breaks_to_least_vertex(grid):
    state = GameState(round=1, cops=((0, 0),), robber=(3, 3))
    # oracle: enumerate B(1) and take the (distance, vertex) argmin
    best = min(
        sorted(grid.ball((0, 0), 1)),
        key=lambda c: (abs(c[0] - 3) + abs(c[1] - 3), c),
    )
    assert best == (0, 1)
    assert greedy_step(grid, params(s_c=1), state) == [best]


def test_greedy_strictly_decreases_distance(grid):
    rng = random.Random(3)
    for _ in range(50):
        cop = (rng.randint(-10, 10), rng.randint(-10, 10))
        robber = (rng.randint(-10, 10), rng.randint(-10, 10))
        if cop == robber:
            continue
        state = GameState(round=1, cops=(cop,), robber=robber)
        (new,) = greedy_step(grid, params(s_c=1), state)
        assert grid.distance(new, robber) < grid.distance(cop, robber)
        assert grid.distance(cop, new) <= 1


def test_random_strategy_is_seed_deterministic(grid):
    def roll(seed, rounds=20):
        cops = BaselineCops(grid, CopStrategyConfig(kind="random", seed=seed), 2, 1)
        state = GameState(round=0, cops=((0, 0),), robber=(9, 9))
        seen = []
        for _ in range(rounds):
            nxt = tuple(cops.step(grid, params(s_c=2), state))
            seen.append(nxt)
            state.cops = nxt
        return seen

    assert roll(42) == roll(42)
    assert roll(42) != roll(43)


def test_random_moves_are_legal(grid):
    cops = BaselineCops(grid, CopStrategyConfig(kind="random", seed=1), 2, 1)
    state = GameState(round=0, cops=((0, 0), (5, 5)), robber=(9, 9))
    for _ in range(30):
        nxt = cops.step(grid, params(k=2, s_c=2), state)
        for old, new in zip(state.cops, nxt):
            assert grid.distance(old, new) <= 2
        state.cops = tuple(nxt)


def test_perimeter_stations_axis_corners(grid):
    assert perimeter_stations(grid, (0, 0), 8, 4) == [(8, 0), (0, 8), (-8, 0), (0, -8)]
    assert perimeter_stations(grid, (0, 0), 8, 1) == [(8, 0)]


def test_perimeter_cop_marches_then_rides_the_band(grid):
    cops = BaselineCops(grid, CopStrategyConfig(kind="perimeter", perimeter_radius=8), 2, 1)
    state = GameState(round=0, cops=((-20, 0),), robber=(0, 20))
    p = params(s_c=2, reach=7)
    reached = False
    for _ in range(30):
        nxt = cops.step(grid, p, state)
        for old, new in zip(state.cops, nxt):
            assert grid.distance(old, new) <= 2
        state.cops = tuple(nxt)
        reached = reached or state.cops[0] == (8, 0)
        if reached:  # once stationed, it never leaves the band around S(8)
            assert abs(grid.distance((0, 0), state.cops[0]) - 8) <= 1
    assert reached
    # robber's nearest approach is (0,8); the shadow closes in on it
    assert grid.distance(state.cops[0], (0, 8)) <= 2


def test_perimeter_cop_shadows_after_arrival(grid):
    cops = BaselineCops(grid, CopStrategyConfig(kind="perimeter", perimeter_radius=8), 1, 1)
    p = params(s_c=1, reach=7)
    state = GameState(round=0, cops=((8, 0),), robber=(3, 5))
    nxt = cops.step(grid, p, state)
    assert grid.distance(state.cops[0], nxt[0]) <= 1  # slides, never jumps


def test_default_perimeter_radius_is_reach_plus_one(grid):
    cops = BaselineCops(grid, CopStrategyConfig(kind="perimeter"), 1, 1)
    assert cops._perimeter_radius(params(reach=7)) == 8


def test_placement_defaults_and_overrides(grid):
    p = params(k=2)
    default = BaselineCops(grid, CopStrategyConfig(kind="stationary"), 1, 1)
    assert default.place(grid, p) == ((0, 0), (0, 0))
    explicit = BaselineCops(
        grid, CopStrategyConfig(kind="stationary", start=((4, 0), (0, 4))), 1, 1
    )
    assert explicit.place(grid, p) == ((4, 0), (0, 4))
    with pytest.raises(ConfigError):
        explicit.place(grid, params(k=3))


def test_config_from_dict_validates():
    grid, _ = make_generator("grid")
    with pytest.raises(ConfigError):
        CopStrategyConfig.from_dict({"kind": "psychic"}, grid)
    cfg = CopStrategyConfig.from_dict(
        {"kind": "stationary", "start": ["(40,40)"]}, grid
    )
    assert cfg.start == ((40, 40),)


def test_stationary_never_moves(grid):
    cops = BaselineCops(grid, CopStrategyConfig(kind="stationary"), 1, 1)
    state = GameState(round=0, cops=((7, -2),), robber=(0, 0))
    assert cops.step(grid, params(), state) == [(7, -2)]
