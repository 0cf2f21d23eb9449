"""Adversarial cop strategies: heuristics that stress the robber's invariants.

None of these claims optimal play -- on the arenas where the evasion
strategy applies, no finite cop team has a winning strategy at all.  Their
job is to probe the engine and the robber from different directions:
stationary (control), greedy (direct pursuit), random (seeded noise), and
perimeter (camping on the sphere the robber must keep revisiting).
"""

import math
import random
from dataclasses import dataclass, fields

from .engine import GameParams, GameState
from .errors import ConfigError
from .graphs import GraphOracle, Vertex

COP_KINDS = ("stationary", "greedy", "random", "perimeter")


@dataclass(frozen=True)
class CopStrategyConfig:
    kind: str
    seed: int = 0
    perimeter_radius: int | None = None
    start: tuple | None = None  # explicit initial cop vertices; default all at v0

    @classmethod
    def from_dict(cls, d: dict, g: GraphOracle) -> "CopStrategyConfig":
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown cop entry keys {sorted(unknown)}")
        kind = d.get("kind")
        if kind not in COP_KINDS:
            raise ConfigError(f"unknown cop strategy {kind!r} (expected {COP_KINDS})")
        start = d.get("start")
        if start is not None:
            if type(start) is not list:
                raise ConfigError(f"start must be a list of vertex strings, got {start!r}")
            start = tuple(g.decode(s) for s in start)
        radius = d.get("perimeter_radius")
        if radius is not None and (type(radius) is not int or radius < 0):
            raise ConfigError(f"perimeter_radius must be an int >= 0, got {radius!r}")
        seed = d.get("seed", 0)
        if type(seed) is not int:
            raise ConfigError(f"seed must be an int, got {seed!r}")
        return cls(
            kind=kind,
            seed=seed,
            perimeter_radius=radius,
            start=start,
        )


def greedy_step(g: GraphOracle, params: GameParams, state: GameState) -> list:
    """Each cop jumps to the reachable vertex closest to the robber.

    Candidates are the cop's s_c-ball; ties resolve to the least vertex.
    """
    return [_toward(g, cop, state.robber, params.s_c) for cop in state.cops]


def _grid_angle_stations(g: GraphOracle, v0: Vertex, radius: int, k: int) -> list:
    """k stations at equal angular spacing on S(radius, v0); on the grid the
    k=4 case lands exactly on the diamond's axis corners."""
    sphere = sorted(g.sphere(v0, radius))
    x0, y0 = v0
    tau = 2 * math.pi

    def angle(v):
        a = math.atan2(v[1] - y0, v[0] - x0)
        return a % tau

    stations = []
    for j in range(k):
        target = tau * j / k
        stations.append(
            min(
                sphere,
                key=lambda v: (min(abs(angle(v) - target), tau - abs(angle(v) - target)), v),
            )
        )
    return stations


def _spread_stations(g: GraphOracle, v0: Vertex, radius: int, k: int) -> list:
    sphere = sorted(g.sphere(v0, radius))
    return [sphere[(j * len(sphere)) // k] for j in range(k)]


def perimeter_stations(g: GraphOracle, v0: Vertex, radius: int, k: int) -> list:
    if g.name == "grid":
        return _grid_angle_stations(g, v0, radius, k)
    return _spread_stations(g, v0, radius, k)


def _toward(g: GraphOracle, cop: Vertex, target: Vertex, s_c: int) -> Vertex:
    return min(g.ball(cop, s_c), key=lambda c: (g.distance(target, c), c))


def _nearest_on_sphere(g: GraphOracle, sphere: frozenset, v: Vertex) -> Vertex:
    """Least sphere vertex at minimal distance from v."""
    return min(sphere, key=lambda s: (g.distance(v, s), s))


def perimeter_step(
    g: GraphOracle,
    params: GameParams,
    state: GameState,
    perimeter_radius: int,
    stations: list,
    arrived: list,
    shadow: Vertex,
) -> list:
    """March each cop to its station, then shadow the robber along the sphere.

    A stationed cop retargets every round to `shadow`, the sphere vertex
    nearest the robber, and slides toward it greedily within s_c,
    restricted to the band of width one around the sphere so it rounds the
    perimeter instead of cutting through the ball.  `arrived` is the per-cop
    flag list, mutated in place across rounds.
    """
    out = []
    for j, cop in enumerate(state.cops):
        if not arrived[j]:
            if cop == stations[j]:
                arrived[j] = True
            else:
                out.append(_toward(g, cop, stations[j], params.s_c))
                continue
        band = [
            c
            for c in g.ball(cop, params.s_c)
            if abs(g.distance(params.v0, c) - perimeter_radius) <= 1
        ]
        out.append(min(band, key=lambda c: (g.distance(shadow, c), c)))
    return out


class BaselineCops:
    """Cop player that commits configured (s_c, rho) and moves per `kind`."""

    def __init__(self, g: GraphOracle, config: CopStrategyConfig, s_c: int, rho: int):
        if config.kind not in COP_KINDS:
            raise ConfigError(f"unknown cop strategy {config.kind!r}")
        self.g = g
        self.config = config
        self.s_c = s_c
        self.rho = rho
        self._rng = random.Random(config.seed)
        self._stations: list | None = None
        self._arrived: list | None = None
        self._sphere: frozenset | None = None  # the perimeter S(radius, v0)
        self._shadow: tuple | None = None  # last (robber vertex, its shadow)

    def commit(self, fieldname: str, committed) -> int:
        if fieldname == "s_c":
            return self.s_c
        if fieldname == "rho":
            return self.rho
        raise ConfigError(f"cop player cannot commit {fieldname!r}")

    def place(self, g: GraphOracle, params: GameParams) -> tuple:
        if self.config.start is not None:
            if len(self.config.start) != params.k:
                raise ConfigError(
                    f"{len(self.config.start)} start positions for k={params.k} cops"
                )
            return tuple(self.config.start)
        return (params.v0,) * params.k

    def _perimeter_radius(self, params: GameParams) -> int:
        if self.config.perimeter_radius is not None:
            return self.config.perimeter_radius
        return params.reach + 1  # camp just outside the ball the robber revisits

    def step(self, g: GraphOracle, params: GameParams, state: GameState) -> list:
        kind = self.config.kind
        if kind == "stationary":
            return list(state.cops)
        if kind == "greedy":
            return greedy_step(g, params, state)
        if kind == "random":
            out = []
            for cop in state.cops:
                candidates = sorted(g.ball(cop, params.s_c))
                out.append(candidates[self._rng.randrange(len(candidates))])
            return out
        radius = self._perimeter_radius(params)
        if self._stations is None:
            self._stations = perimeter_stations(g, params.v0, radius, params.k)
            self._arrived = [False] * params.k
            self._sphere = g.sphere(params.v0, radius)
        # The robber mostly stays put, so its shadow is mostly the last one.
        if self._shadow is None or self._shadow[0] != state.robber:
            shadow = _nearest_on_sphere(g, self._sphere, state.robber)
            self._shadow = (state.robber, shadow)
        return perimeter_step(
            g, params, state, radius, self._stations, self._arrived, self._shadow[1]
        )

