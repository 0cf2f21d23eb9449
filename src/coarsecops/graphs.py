"""Lazily generated locally finite graphs with ball/sphere/distance queries.

A graph is given by a neighbor oracle (vertex -> sorted tuple of vertices)
and an exact metric (the generator's closed-form graph distance); nothing
is ever materialized beyond what breadth-first searches touch.  Distance
queries are answered by the metric alone; balls, spheres and the annulus
searches are breadth-first searches over the neighbor oracle.  Vertices are
opaque hashable encodings with a total order, so every search in this
module is deterministic: neighbor lists are expanded in the order the
generator returns them (ascending), queues are FIFO, and ties are broken
by least vertex.

Every shipped graph is vertex-transitive, so `ball_size` counts b(r)
around the origin.  End structure is never computed; each generator ships
a RaySystem witness (disjoint monotone ray families plus outward rays),
anchored at the origin, that the evasion strategy consumes as trusted data.
"""

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from .errors import (
    AnnulusGrowthError,
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


class _LayeredBfs:
    """Breadth-first layers (spheres) around one center, grown on demand."""

    __slots__ = ("dist", "layers", "spent")

    def __init__(self, center: Vertex):
        self.dist: dict = {center: 0}
        self.layers: list[list] = [[center]]
        self.spent = 0

    def grow(self, oracle: "GraphOracle") -> bool:
        """Expand one more layer; False once the component is exhausted."""
        frontier = self.layers[-1]
        if not frontier:
            return False
        self.spent += len(frontier)
        if self.spent > oracle.expansion_budget:
            raise SearchBudgetExceeded(
                f"{oracle.name}: search around {self.layers[0][0]!r} expanded more "
                f"than {oracle.expansion_budget} vertices; misconfigured generator "
                "or unbounded query"
            )
        depth = len(self.layers)
        nxt = []
        dist = self.dist
        for v in frontier:
            for u in oracle.neighbors(v):
                if u not in dist:
                    dist[u] = depth
                    nxt.append(u)
        self.layers.append(nxt)
        return bool(nxt)

    def grow_to(self, oracle: "GraphOracle", r: int) -> "_LayeredBfs":
        """Grow until layers 0..r exist or the component is exhausted."""
        while len(self.layers) <= r and self.grow(oracle):
            pass
        return self


class GraphOracle:
    """A locally finite graph presented as a neighbor function.

    ``metric(u, v)`` must equal the BFS distance between u and v over
    ``neighbors``; the generator derives it in closed form.  Immutable
    after construction apart from internal BFS memoization, which only
    caches results and never changes observable answers; an oracle may
    therefore be shared across sequential workers, or rebuilt per worker
    with identical behavior.  A per-search vertex-expansion budget turns
    any single runaway search into SearchBudgetExceeded.
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
        self.decode = decode
        self._bfs: OrderedDict = OrderedDict()

    # -- internals ---------------------------------------------------------

    def _layers(self, center: Vertex) -> _LayeredBfs:
        bfs = self._bfs.get(center)
        if bfs is None:
            bfs = _LayeredBfs(center)
            self._bfs[center] = bfs
            if len(self._bfs) > DEFAULT_CACHE_CENTERS:
                self._bfs.popitem(last=False)
        else:
            self._bfs.move_to_end(center)
        return bfs

    # -- queries -----------------------------------------------------------

    def distance(self, u: Vertex, v: Vertex) -> int:
        """Geodesic distance, from the generator's exact metric; no search."""
        return self.metric(u, v)

    def distance_at_most(self, u: Vertex, v: Vertex, limit: int) -> int | None:
        """distance(u, v) if it is <= limit, else None."""
        d = self.metric(u, v)
        return d if d <= limit else None

    def ball(self, c: Vertex, r: int) -> frozenset:
        """All vertices at distance <= r from c."""
        if r < 0:
            raise ValueError("radius must be >= 0")
        out = []
        for layer in self._layers(c).grow_to(self, r).layers[: r + 1]:
            out.extend(layer)
        return frozenset(out)

    def sphere(self, c: Vertex, r: int) -> frozenset:
        """All vertices at distance exactly r from c."""
        if r < 0:
            raise ValueError("radius must be >= 0")
        layers = self._layers(c).grow_to(self, r).layers
        return frozenset(layers[r]) if r < len(layers) else frozenset()

    def ball_size(self, r: int) -> int:
        """b(r) = |B(r)|, counted around the origin; the graph is
        vertex-transitive, so every r-ball has this size."""
        layers = self._layers(self.origin).grow_to(self, r).layers
        return sum(len(layer) for layer in layers[: r + 1])


def ray_cross(g: GraphOracle, ray: Ray, root: Vertex, r: int) -> Vertex:
    """The unique vertex where a monotone ray crosses the sphere S(r, root).

    For a monotone ray from a source at distance d0 <= r that vertex is
    step(r - d0); when that vertex is not on S(r, root) the ray is not
    monotone and RayContractError is raised.
    """
    d0 = g.distance(root, ray.source)
    if d0 > r:
        raise ValueError(f"ray source at distance {d0} > sphere radius {r}")
    v = ray.step(r - d0)
    if g.distance_at_most(root, v, r) != r:
        raise RayContractError(
            f"{g.name}: ray from {ray.source!r} is not monotone: "
            f"step {r - d0} is {v!r}, not on S({r})"
        )
    return v


def annulus_connect_radius(
    g: GraphOracle,
    root: Vertex,
    X: Iterable,
    r_lo: int,
    max_radius: int | None = None,
) -> int:
    """Smallest R >= r_lo+1 putting all of X in one component of
    B(R, root) \\ B(r_lo, root).

    X must be a nonempty subset of S(r_lo+1, root).  R grows one unit at a
    time, re-testing connectivity by BFS restricted to the annulus; the
    growth cap (default r_lo + 64) turns a never-connecting X into an
    AnnulusGrowthError, which means the generator's end witness is broken.
    """
    targets = sorted(X)
    if not targets:
        raise ValueError("X must be nonempty")
    sphere = g.sphere(root, r_lo + 1)
    for v in targets:
        if v not in sphere:
            raise ValueError(f"{v!r} not on S({r_lo + 1}) around {root!r}")
    if max_radius is None:
        max_radius = r_lo + 64
    for radius in range(r_lo + 1, max_radius + 1):
        root_dist = g._layers(root).grow_to(g, radius).dist
        if _annulus_connected(g, targets, root_dist, r_lo, radius):
            return radius
    raise AnnulusGrowthError(
        f"{g.name}: {len(targets)} vertices on S({r_lo + 1}) not connected "
        f"within B({max_radius}) \\ B({r_lo}); end witness broken"
    )


def _annulus_connected(g, targets, root_dist, r_lo, r_hi):
    """BFS from the least target inside the annulus; do we reach them all?

    Touches only vertices of B(r_hi), already grown under the per-search
    budget, so it needs no accounting of its own.
    """
    start = targets[0]
    seen = {start}
    queue = [start]
    remaining = set(targets) - seen
    while queue and remaining:
        nxt = []
        for v in queue:
            for u in g.neighbors(v):
                if u in seen:
                    continue
                d = root_dist.get(u)
                if d is None or d <= r_lo or d > r_hi:
                    continue
                seen.add(u)
                remaining.discard(u)
                nxt.append(u)
        queue = nxt
    return not remaining


def annulus_path(
    g: GraphOracle,
    root: Vertex,
    p: Vertex,
    q: Vertex,
    r_lo: int,
    r_hi: int,
    allowed: Callable[[Vertex], bool],
) -> list:
    """Shortest p-q path through {v : r_lo < d(root, v) <= r_hi, allowed(v)}.

    Returns the full vertex list including both endpoints (so p == q gives
    the single-vertex, length-zero path).  Deterministic: sorted neighbor
    expansion, FIFO queue, first-discoverer parents.
    """
    root_dist = g._layers(root).grow_to(g, r_hi).dist

    def admissible(v):
        d = root_dist.get(v)
        return d is not None and r_lo < d <= r_hi and allowed(v)

    for name, v in (("p", p), ("q", q)):
        if not admissible(v):
            raise ValueError(f"{name}={v!r} not admissible in the annulus")
    if p == q:
        return [p]
    parent = {p: None}
    queue = [p]
    while queue:
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
