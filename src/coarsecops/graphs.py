"""Lazily generated locally finite graphs with ball/sphere/distance queries.

A graph is given by a neighbor oracle (vertex -> sorted tuple of vertices)
and four closed forms from its generator: an exact metric, which answers
every distance query, the sphere S(c, r), the ball B(c, r) and the ball
size b(r).  A sphere is one `sphere_at` call, a ball one `ball_at` call,
and `spheres` yields spheres one at a time; each is first refused by b
alone if a BFS would reach it only past the expansion budget.
`annulus_connect_radius` tests annulus membership against spheres read
from such a stream, and `annulus_path` against the metric, admitting
every vertex of the annulus (its caller picks an annulus that holds no
closed vertex); both walk `neighbors`, so annulus connectivity comes from
real edges.
Vertices are opaque hashable encodings with a total order, so every
search in this module is deterministic: neighbor lists are expanded in
the order the generator returns them (ascending), queues are FIFO, and
each search starts from a vertex its caller names.

Every shipped graph is vertex-transitive, so `ball_size` counts b(r)
around the origin.  End structure is never computed; each generator ships
an end witness, a function from a count to at least that many disjoint
monotone rays (see `generators`).  A ray is nothing but its step
function t -> vertex, so ray(0) is its source; the evasion strategy
checks the family rays on every sphere up to the radius it uses, and
`annulus_connect_radius` joins their crossings.
"""

from itertools import count, islice
from typing import Any, Callable, Collection, Iterable, Iterator

from .errors import (
    BrokenWitnessError,
    DisconnectedAnnulusError,
    SearchBudgetExceeded,
)

Vertex = Any

# Balls the oracle keeps, counted in (center, radius) entries.
BALL_CACHE_ENTRIES = 256

# A one-sided infinite path, t -> its vertex at step t; ray(0) is its
# source.  A monotone ray gains exactly one unit of distance to the
# oracle's origin per step, so it crosses each sphere around the origin
# exactly once and never re-enters a ball it has left.
Ray = Callable[[int], Vertex]


def _charge(g: "GraphOracle", spent: int, start: Vertex) -> None:
    """Raise SearchBudgetExceeded once a search from `start` has expanded
    more than g.expansion_budget vertices."""
    if spent > g.expansion_budget:
        raise SearchBudgetExceeded(
            f"{g.name}: search around {start!r} expanded more than "
            f"{g.expansion_budget} vertices; misconfigured generator or unbounded query"
        )


class Memo(dict):
    """`memo[x]` is `f(x)`, computed on the first lookup of `x`; a repeated
    `x` is one C-level dict hit."""

    __slots__ = ("f",)

    def __init__(self, f):
        self.f = f

    def __missing__(self, x):
        value = self[x] = self.f(x)
        return value


def _canonical_parser(name: str, parse: Callable, encode: Callable) -> Callable:
    """`parse`, refusing a non-str (TypeError) and any string but the one
    `encode` writes for the vertex it names (ValueError)."""

    def parse_canonical(s):
        if type(s) is not str:
            raise TypeError(f"a vertex string must be a str, got {s!r}")
        v = parse(s)
        if encode(v) != s:
            raise ValueError(f"{s!r} is not the canonical string of a {name} vertex")
        return v

    return parse_canonical


class GraphOracle:
    """A locally finite graph presented as a neighbor function.

    ``metric(u, v)``, ``sphere_at(c, r)``, ``ball_at(c, r)`` and
    ``ball_size_at(r)`` are the generator's closed forms of the BFS
    distance over ``neighbors``, of the vertices at BFS distance r and at
    most r from c, and of |B(r)|.

    ``decode(s)`` is the vertex that the string ``s`` names: TypeError
    unless ``s`` is a str (for a list or dict, the dict lookup's own
    "unhashable type"), ValueError unless it is the string ``encode``
    writes for that vertex.  It is the ``__getitem__`` of a `Memo`, so
    each distinct string is parsed once per oracle and a repeated one is
    a dict hit; callers decode with ``map(g.decode, ...)``.

    Immutable after construction apart from that memo and a cache of at
    most `BALL_CACHE_ENTRIES` finished balls, which never change
    observable answers and live and die with the oracle.  Neither refers
    back to it (the closed forms are the generator's functions, not
    methods of the oracle), so reference counting alone frees a dropped
    oracle, without waiting for the cyclic GC.  An oracle may therefore be
    shared across sequential workers, or rebuilt per worker with identical
    behavior.  A per-search vertex-expansion budget turns any single
    runaway search into SearchBudgetExceeded.
    """

    expansion_budget = 10_000_000

    def __init__(
        self,
        name: str,
        neighbors: Callable[[Vertex], tuple],
        metric: Callable[[Vertex, Vertex], int],
        sphere_at: Callable[[Vertex, int], frozenset],
        ball_at: Callable[[Vertex, int], frozenset],
        ball_size_at: Callable[[int], int],
        origin: Vertex,
        encode: Callable[[Vertex], str],
        decode: Callable[[str], Vertex],
    ):
        self.name = name
        self.neighbors = neighbors
        self.metric = metric
        self.sphere_at = sphere_at
        self.ball_at = ball_at
        self.ball_size_at = ball_size_at
        self.origin = origin
        self.encode = encode
        self.decode: Callable[[str], Vertex] = Memo(
            _canonical_parser(name, decode, encode)
        ).__getitem__
        self._balls: dict = {}  # (center, radius) -> ball, oldest first

    # -- queries -----------------------------------------------------------

    def distance(self, u: Vertex, v: Vertex) -> int:
        """Geodesic distance, from the generator's exact metric; no search."""
        return self.metric(u, v)

    def distance_at_most(self, u: Vertex, v: Vertex, limit: int) -> int | None:
        """distance(u, v) if it is <= limit, else None."""
        d = self.metric(u, v)
        return d if d <= limit else None

    def spheres(self, c: Vertex) -> Iterator[frozenset]:
        """Yield S(0, c), S(1, c), ... from the generator's closed form,
        until a sphere is empty (the component is exhausted).

        Holds one sphere at a time, and refuses each before building it.
        """
        for r in count():
            self._refuse(c, r)
            cur = self.sphere_at(c, r)
            if not cur:
                return
            yield cur

    def ball(self, c: Vertex, r: int) -> frozenset:
        """All vertices at distance <= r from c.  B(c, 0) is {c} on every
        graph and skips the cache; a larger ball is one `ball_at` call,
        kept in a dict keyed (center, radius) that drops its oldest entry
        once it holds more than `BALL_CACHE_ENTRIES`."""
        if r == 0:
            return frozenset((c,))
        key = (c, r)
        balls = self._balls
        hit = balls.get(key)
        if hit is None:
            self._refuse(c, r)
            hit = balls[key] = self.ball_at(c, r)
            if len(balls) > BALL_CACHE_ENTRIES:
                del balls[next(iter(balls))]
        return hit

    def sphere(self, c: Vertex, r: int) -> frozenset:
        """All vertices at distance exactly r from c; not cached."""
        self._refuse(c, r)
        return self.sphere_at(c, r)

    def ball_size(self, r: int) -> int:
        """b(r) = |B(r)|, from the generator's closed form; the graph is
        vertex-transitive, so every r-ball has this size."""
        self._refuse(self.origin, r)
        return self.ball_size_at(r)

    def _refuse(self, c: Vertex, r: int) -> None:
        """Refuse S(r, c) if r < 0, or if a BFS would expand b(r-1) > budget
        vertices to reach it; b(1), b(2), b(4), ... below r-1 are tried
        first, so b is never evaluated past twice the least r with b(r) > budget."""
        if r < 0:
            raise ValueError("radius must be >= 0")
        b, budget = self.ball_size_at, self.expansion_budget
        p = 1
        while p < r - 1 and b(p) <= budget:
            p *= 2
        if r and b(min(p, r - 1)) > budget:
            raise SearchBudgetExceeded(
                f"{self.name}: S({r}) around {c!r} refused before any search: "
                f"reaching it takes a BFS past the budget of {budget} vertices; "
                "misconfigured generator or unbounded query"
            )


def ray_cross(g: GraphOracle, ray: Ray, r: int) -> Vertex:
    """The unique vertex where a monotone ray crosses S(r) around the origin.

    For a monotone ray whose source ray(0) is at distance d0 <= r that
    vertex is ray(r - d0); when that vertex is not on S(r) the ray is not
    monotone and BrokenWitnessError is raised.
    """
    d0 = g.distance(g.origin, ray(0))
    if d0 > r:
        raise ValueError(f"ray source at distance {d0} > sphere radius {r}")
    v = ray(r - d0)
    if g.distance_at_most(g.origin, v, r) != r:
        raise BrokenWitnessError(
            f"{g.name}: ray from {ray(0)!r} is not monotone: "
            f"step {r - d0} is {v!r}, not on S({r})"
        )
    return v


def annulus_connect_radius(g: GraphOracle, X: Collection, band: Iterable[tuple]) -> int:
    """Smallest R >= r_lo+1 putting all of X in one component of
    B(R) \\ B(r_lo), both balls around the origin.

    `band` yields the origin's spheres from S(r_lo+1) on as (radius,
    sphere) pairs, such as a slice of `enumerate(g.spheres(g.origin))`.
    The search reads S(r_lo+1), ..., S(R) from it and no further, so a
    caller that shares the stream resumes at S(R+1).  X must be a nonempty
    subset of S(r_lo+1).  Annulus membership is membership in the spheres
    read so far; the metric is never called.  The component of X's first
    vertex grows one sphere at a time: once S(R) is read, a BFS resumes
    from the reached vertices of S(R-1), the only ones with neighbors in
    S(R), so a vertex is expanded at most twice; each expansion is charged
    to the budget.  R depends on the set X only; X's order decides only
    where the search starts, and so how far it spreads before the last
    target is reached (a start amid the targets reaches them soonest).
    The growth cap r_lo + 64 turns a never-connecting X into a
    BrokenWitnessError, since the generator's end witness promised it.
    """
    targets = set(X)
    if not targets:
        raise ValueError("X must be nonempty")
    start = next(iter(X))
    left = len(targets) - 1  # targets not reached yet
    unreached = None  # vertices of S(r_lo+1) | ... | S(R) not reached yet
    rim = {start}  # reached vertices of the outermost sphere read
    spent = 0
    budget = g.expansion_budget
    neighbors = g.neighbors
    for radius, sphere in islice(band, 64):
        if unreached is None:
            r_lo = radius - 1
            stray = targets - sphere
            if stray:
                raise ValueError(f"{min(stray)!r} not on S({radius}) around {g.origin!r}")
            if not left:
                return radius
            unreached = set(sphere)
            unreached.discard(start)
        else:
            unreached |= sphere
        queue = list(rim)
        for v in queue:  # FIFO: the loop reads what the body appends
            spent += 1
            if spent > budget:
                _charge(g, spent, start)
            for u in neighbors(v):
                if u in unreached:
                    unreached.remove(u)
                    queue.append(u)
                    if u in targets:
                        left -= 1
                        if not left:
                            return radius
        rim = sphere - unreached
    if unreached is None:
        raise ValueError("band yields no sphere")
    raise BrokenWitnessError(
        f"{g.name}: {len(targets)} vertices on S({r_lo + 1}) not connected "
        f"within B({r_lo + 64}) \\ B({r_lo}); end witness broken"
    )


def annulus_path(g: GraphOracle, p: Vertex, q: Vertex, r_lo: int, r_hi: int) -> list:
    """Shortest p-q path through the annulus {v : r_lo < d(origin, v) <= r_hi}.

    Returns the full vertex list including both endpoints (so p == q gives
    the single-vertex, length-zero path).  Every vertex of the annulus is
    admitted: the evasion strategy calls this only on an annulus that
    holds no closed vertex, and checks the path it gets.  Deterministic:
    sorted neighbor expansion, FIFO queue, first-discoverer parents.
    """

    origin = g.origin

    def admissible(v):
        return r_lo < g.metric(origin, v) <= r_hi

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
        f"{g.name}: no path {p!r} -> {q!r} in B({r_hi}) \\ B({r_lo})"
    )
