"""Lazily generated locally finite graphs with ball/sphere/distance queries.

A graph is given by a neighbor oracle (vertex -> sorted tuple of vertices)
and an exact metric (the generator's closed-form graph distance); nothing
is ever materialized beyond what breadth-first searches touch.  Distance
queries are answered by the metric alone.  Balls and spheres come from
`GraphOracle.spheres`, a BFS that yields one sphere at a time and holds
two; the annulus searches are breadth-first searches whose membership
test is the metric.  Vertices are opaque hashable encodings with a total
order, so every search in this module is deterministic: neighbor lists
are expanded in the order the generator returns them (ascending), queues
are FIFO, and ties are broken by least vertex.

Every shipped graph is vertex-transitive, so `ball_size` counts b(r)
around the origin.  End structure is never computed; each generator ships
a RaySystem witness (disjoint monotone ray families plus outward rays),
anchored at the origin, that the evasion strategy consumes as trusted data.
"""

from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Any, Callable, Iterable, Iterator

from .errors import (
    BrokenWitnessError,
    DisconnectedAnnulusError,
    RayContractError,
    SearchBudgetExceeded,
)

Vertex = Any

DEFAULT_CACHE_CENTERS = 256


@dataclass(eq=False, frozen=True)
class Ray:
    """One-sided infinite path, given by its vertex-at-index function.

    ``step(0)`` is the source.  A monotone ray gains exactly one unit of
    distance to the oracle's origin per step, so it crosses each sphere
    around the origin exactly once and never re-enters a ball it has left.
    """

    source: Vertex
    step: Callable[[int], Vertex] = field(repr=False)

    def prefix(self, length: int) -> list:
        """Vertices step(0..length) inclusive."""
        return [self.step(t) for t in range(length + 1)]


@dataclass(eq=False, frozen=True)
class RaySystem:
    """Per-generator witness for one fixed end of the graph.

    ``disjoint_family(count)`` returns ``(R0, rays)`` with at least
    ``count`` pairwise vertex-disjoint monotone rays whose sources all lie
    in the ball of radius R0 around the oracle's origin; it raises
    NoThickEndWitnessError when the witnessed end cannot supply that many.
    ``outward_ray(v)`` returns a monotone ray from v that stays in the
    witnessed end, or None where no such ray is known (partial function).
    Pairwise connectability of the produced rays outside any ball is a
    construction guarantee of the generator, not verified at runtime.
    """

    disjoint_family: Callable[[int], tuple]
    outward_ray: Callable[[Vertex], Ray | None]


def _charge(g: "GraphOracle", spent: int, start: Vertex) -> None:
    """Raise SearchBudgetExceeded once a search from `start` has expanded
    more than g.expansion_budget vertices."""
    if spent > g.expansion_budget:
        raise SearchBudgetExceeded(
            f"{g.name}: search around {start!r} expanded more than "
            f"{g.expansion_budget} vertices; misconfigured generator or unbounded query"
        )


class GraphOracle:
    """A locally finite graph presented as a neighbor function.

    ``metric(u, v)`` must equal the BFS distance between u and v over
    ``neighbors``; the generator derives it in closed form.  Immutable
    after construction apart from a bounded cache of finished balls and
    spheres and a memo of the vertex strings it has decoded, which never
    change observable answers and live and die with the oracle; an oracle
    may therefore be shared across sequential workers, or rebuilt per
    worker with identical behavior.  A per-search vertex-expansion budget
    turns any single runaway search into SearchBudgetExceeded.
    """

    expansion_budget = 10_000_000

    def __init__(
        self,
        name: str,
        neighbors: Callable[[Vertex], tuple],
        metric: Callable[[Vertex, Vertex], int],
        degree_bound: int,
        origin: Vertex,
        encode: Callable[[Vertex], str],
        decode: Callable[[str], Vertex],
    ):
        self.name = name
        self.neighbors = neighbors
        self.metric = metric
        self.degree_bound = degree_bound
        self.origin = origin
        self.encode = encode
        self._parse = decode
        self._decoded: dict = {}
        self._cache: OrderedDict = OrderedDict()

    def decode(self, s: str) -> Vertex:
        """The vertex that `s` names: TypeError unless `s` is a str,
        ValueError unless it names a vertex in the form `encode` writes.
        Each distinct string is parsed once per oracle."""
        if type(s) is not str:
            raise TypeError(f"a vertex string must be a str, got {s!r}")
        v = self._decoded.get(s)
        if v is None:
            v = self._parse(s)
            if self.encode(v) != s:
                raise ValueError(f"{s!r} is not the canonical string of a {self.name} vertex")
            self._decoded[s] = v
        return v

    # -- queries -----------------------------------------------------------

    def distance(self, u: Vertex, v: Vertex) -> int:
        """Geodesic distance, from the generator's exact metric; no search."""
        return self.metric(u, v)

    def distance_at_most(self, u: Vertex, v: Vertex, limit: int) -> int | None:
        """distance(u, v) if it is <= limit, else None."""
        d = self.metric(u, v)
        return d if d <= limit else None

    def spheres(self, c: Vertex) -> Iterator[frozenset]:
        """Yield S(0, c), S(1, c), ... until the component is exhausted.

        Holds two spheres at a time: the graph is undirected, so
        S(d+1) = N(S(d)) \\ (S(d) | S(d-1)).  S(d) is expanded only when
        S(d+1) is asked for, and each expansion is charged to the budget.
        """
        neighbors = self.neighbors
        prev, cur = frozenset(), frozenset((c,))
        spent = 0
        while cur:
            yield cur
            spent += len(cur)
            _charge(self, spent, c)
            nxt = set(chain.from_iterable(map(neighbors, cur)))
            nxt -= cur
            nxt -= prev
            prev, cur = cur, frozenset(nxt)

    def ball(self, c: Vertex, r: int) -> frozenset:
        """All vertices at distance <= r from c."""
        return self._cached(c, r, "ball")

    def sphere(self, c: Vertex, r: int) -> frozenset:
        """All vertices at distance exactly r from c."""
        return self._cached(c, r, "sphere")

    def _cached(self, c: Vertex, r: int, kind: str) -> frozenset:
        """The ball or sphere (c, r) from an LRU keyed (center, radius, kind),
        built from the sphere stream on a miss."""
        key = (c, r, kind)
        hit = self._cache.get(key)
        if hit is not None:
            self._cache.move_to_end(key)
            return hit
        if r < 0:
            raise ValueError("radius must be >= 0")
        if kind == "ball":
            hit = frozenset().union(*islice(self.spheres(c), r + 1))
        else:
            hit = next(islice(self.spheres(c), r, None), frozenset())
        self._cache[key] = hit
        if len(self._cache) > DEFAULT_CACHE_CENTERS:
            self._cache.popitem(last=False)
        return hit

    def ball_size(self, r: int) -> int:
        """b(r) = |B(r)|, counted around the origin; the graph is
        vertex-transitive, so every r-ball has this size."""
        return sum(map(len, islice(self.spheres(self.origin), r + 1)))


def ray_cross(g: GraphOracle, ray: Ray, r: int) -> Vertex:
    """The unique vertex where a monotone ray crosses S(r) around the origin.

    For a monotone ray from a source at distance d0 <= r that vertex is
    step(r - d0); when that vertex is not on S(r) the ray is not
    monotone and RayContractError is raised.
    """
    d0 = g.distance(g.origin, ray.source)
    if d0 > r:
        raise ValueError(f"ray source at distance {d0} > sphere radius {r}")
    v = ray.step(r - d0)
    if g.distance_at_most(g.origin, v, r) != r:
        raise RayContractError(
            f"{g.name}: ray from {ray.source!r} is not monotone: "
            f"step {r - d0} is {v!r}, not on S({r})"
        )
    return v


def annulus_connect_radius(g: GraphOracle, X: Iterable, r_lo: int) -> int:
    """Smallest R >= r_lo+1 putting all of X in one component of
    B(R) \\ B(r_lo), both balls around the origin.

    X must be a nonempty subset of S(r_lo+1).  R grows one unit at a
    time, re-testing connectivity by BFS restricted to the annulus; the
    growth cap r_lo + 64 turns a never-connecting X into a
    BrokenWitnessError, since the generator's end witness promised it.
    """
    targets = sorted(X)
    if not targets:
        raise ValueError("X must be nonempty")
    for v in targets:
        if g.distance(g.origin, v) != r_lo + 1:
            raise ValueError(f"{v!r} not on S({r_lo + 1}) around {g.origin!r}")
    max_radius = r_lo + 64
    for radius in range(r_lo + 1, max_radius + 1):
        if _annulus_connected(g, targets, r_lo, radius):
            return radius
    raise BrokenWitnessError(
        f"{g.name}: {len(targets)} vertices on S({r_lo + 1}) not connected "
        f"within B({max_radius}) \\ B({r_lo}); end witness broken"
    )


def _annulus_connected(g, targets, r_lo, r_hi):
    """BFS from the least target inside the annulus; do we reach them all?

    Membership r_lo < d(origin, v) <= r_hi is read from the metric, once per
    vertex looked at (`seen` also holds the rejected ones); the search
    charges its own expansions to the budget.
    """
    start = targets[0]
    seen = {start}
    queue = [start]
    remaining = set(targets) - seen
    spent = 0
    metric = g.metric
    root = g.origin
    while queue and remaining:
        spent += len(queue)
        _charge(g, spent, start)
        nxt = []
        for v in queue:
            for u in g.neighbors(v):
                if u in seen:
                    continue
                seen.add(u)
                if r_lo < metric(root, u) <= r_hi:
                    remaining.discard(u)
                    nxt.append(u)
        queue = nxt
    return not remaining


def annulus_path(
    g: GraphOracle,
    p: Vertex,
    q: Vertex,
    r_lo: int,
    r_hi: int,
    allowed: Callable[[Vertex], bool],
) -> list:
    """Shortest p-q path through {v : r_lo < d(origin, v) <= r_hi, allowed(v)}.

    Returns the full vertex list including both endpoints (so p == q gives
    the single-vertex, length-zero path).  Deterministic: sorted neighbor
    expansion, FIFO queue, first-discoverer parents.
    """

    origin = g.origin

    def admissible(v):
        return r_lo < g.metric(origin, v) <= r_hi and allowed(v)

    for name, v in (("p", p), ("q", q)):
        if not admissible(v):
            raise ValueError(f"{name}={v!r} not admissible in the annulus")
    if p == q:
        return [p]
    parent = {p: None}
    queue = [p]
    spent = 0
    while queue:
        spent += len(queue)
        _charge(g, spent, p)
        nxt = []
        for v in queue:
            for u in g.neighbors(v):
                if u in parent or not admissible(u):
                    continue
                parent[u] = v
                if u == q:
                    path = [u]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                nxt.append(u)
        queue = nxt
    raise DisconnectedAnnulusError(
        f"{g.name}: no allowed path {p!r} -> {q!r} in B({r_hi}) \\ B({r_lo})"
    )
