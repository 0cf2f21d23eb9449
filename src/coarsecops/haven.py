"""The evading robber: precomputed radii plus perpetual relocation to havens.

Against k cops of speed s_c and capture radius rho on a graph with a
thick-end witness, the robber fixes everything before the match:

  * a family of at least k*b(s_c+rho)+1 pairwise disjoint monotone rays
    starting inside B(R_0), R_0 being the distance of the farthest source
    -- each cop can blanket at most b(s_c+rho) vertices, so disjointness
    leaves at least one family ray fully safe at all times;
  * radii R_0 < R_1 < ... < R_N with N = k*b(rho)+1, where R_{i+1} makes
    the family's crossings of S(R_i + 1) mutually connected inside the
    annulus B(R_{i+1}) \\ B(R_i) -- each cop can close at most b(rho)
    vertices, so at least one of the N annuli is always fully open, and
    the robber only ever walks around it between two family crossings;
  * speed s_r = b(R_N): any simple path inside B(R_N) fits in it.

A vertex is *open* if every cop is farther than rho, *safe* if farther
than s_c+rho; safe vertices stay open through one cop move.  A ray is
its step function t -> vertex; a *haven* is the source ray(0) of a family
ray whose vertices are all safe, and the robber stands on one after every
turn, so the vertex it stands on names its ray.  Each turn it either
stays (its ray is still safe) or walks: up its old ray to the open
annulus, around the annulus, and down the new haven's ray.  The walk is a
simple path, hence within the speed budget: the ray parts meet the
annulus part only at its ends, the two rays are disjoint, and the annulus
part is a shortest path.  One test, `ray_unsafe`, tells a safe ray from
an unsafe one: it measures each cop against the few ray steps at a
matching distance from the origin, and decides both whether the robber
stays and which ray is the next haven (`find_haven`).  The turn builds
the cops' rho-balls (the closed set, `safety_map`) only when the robber
relocates, to pick the open annulus.  The walk depends on nothing but
(old haven, new haven, open annulus), so the robber builds each such
route once, and checks its endpoints, its simplicity, its length and its
containment in B(R_N) once; every turn that takes the route still tests
each of its vertices against the current closed set.  The routes live
and die with the robber, that is with one match.  Every end-of-turn
vertex is a haven source in B(R_0), so the ball B(R_0, v0) is visited
every single round.  All radii are measured from the oracle's origin, so
the robber commits R only for v0 = origin.
"""

from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Callable

from .engine import GameParams, GameState, closed_set
from .errors import (
    BrokenWitnessError,
    CoarseCopsError,
    DisconnectedAnnulusError,
    ImpossibleStateError,
    NegotiationError,
    NoThickEndWitnessError,
)
from .graphs import (
    GraphOracle,
    Ray,
    Vertex,
    annulus_connect_radius,
    annulus_path,
    ray_cross,
)


@dataclass(frozen=True)
class StrategyTables:
    """Everything the robber precomputes from (k, s_c, rho)."""

    k: int
    s_c: int
    rho: int
    radii: tuple  # (R_0, ..., R_N), strictly increasing; N = k*b(rho)+1
    family: tuple  # >= k*b(s_c+rho)+1 disjoint monotone rays from B(R_0)
    s_r: int  # b(R_N)

    @property
    def n_annuli(self) -> int:
        """N, the number of annuli."""
        return len(self.radii) - 1

    @property
    def reach(self) -> int:
        """The R the robber declares: R_0."""
        return self.radii[0]

    @property
    def containment(self) -> int:
        """R_N -- no robber move ever leaves B(R_N)."""
        return self.radii[-1]


def precompute_tables(
    g: GraphOracle, witness: Callable[[int], list], k: int, s_c: int, rho: int
) -> StrategyTables:
    """Build the ray family, the radius ladder and the speed.

    Every radius is measured from the oracle's origin, and b(n) is
    `g.ball_size(n)`.  The family is `witness(k*b(s_c+rho)+1)`, and R_0
    is the distance of its farthest source.  Each R_{i+1} is the least
    radius that joins the family's crossings of S(R_i + 1) inside
    B(R_{i+1}) \\ B(R_i): the robber only ever walks around an annulus
    between two family rays, so no other vertex of the sphere needs to be
    reached.  Thin-end generators fail here with NoThickEndWitnessError;
    a witness whose family's crossings never connect, whose family rays
    turn back or meet before R_N, a source that no sphere up to S(R_0)
    holds, or a component that ends before R_N, fails with
    BrokenWitnessError.  A setting whose pass would read a sphere past the
    search budget fails with SearchBudgetExceeded before any sphere is
    read: the pass reads up to S(R_N), and R_N >= R_0 + N.
    """
    if k < 1 or s_c < 0 or rho < 0:
        raise ValueError("need k >= 1, s_c >= 0, rho >= 0")
    need = k * g.ball_size(s_c + rho) + 1
    family = witness(need)
    if len(family) < need:
        raise NoThickEndWitnessError(
            f"{g.name}: the end witness returned {len(family)} rays, need {need}"
        )
    r0 = max(g.metric(g.origin, ray(0)) for ray in family)
    n = k * g.ball_size(rho) + 1
    g.ball_size(r0 + n)
    # One pass over the origin's spheres, each built once: `_checked`
    # holds the family rays to every sphere of the pass and hands over
    # their crossings, which are each annulus's targets on S(R_i + 1); the
    # annulus search reads S(R_i + 1), ..., S(R_{i+1}) from the same pass.
    # Every source lies in B(R_0) and the family has at least 2 rays, so
    # no target list is empty.
    stream = _checked(g, family, r0, g.spheres(g.origin))
    radii = [r0]
    for d, sphere, crossings in stream:
        if d == radii[-1] + 1:
            band = chain([(d, sphere)], ((r, s) for r, s, _ in stream))
            radii.append(annulus_connect_radius(g, crossings, band))
            if len(radii) > n:
                break
    else:  # the last sphere read is the last annulus's outer one, if any
        end = radii[-1] if len(radii) > 1 else d
        raise BrokenWitnessError(f"{g.name}: the component ends at radius {end}, before R_{n}")
    return StrategyTables(
        k=k,
        s_c=s_c,
        rho=rho,
        radii=tuple(radii),
        family=tuple(family),
        s_r=g.ball_size(radii[-1]),
    )


def _checked(g: GraphOracle, family, r0: int, spheres):
    """(d, S(d), crossings) triples of a sphere stream, checking the
    family rays against S(d) as the triple is taken.

    A ray starts on the sphere that holds its source, which must be one
    of S(0..r0), r0 being the metric's distance of the farthest source.
    From there it must cross each sphere S(d) at its step d - d0, and no
    two rays may cross one sphere at the same vertex.  Rays that
    are monotone and distinct on every sphere are pairwise disjoint, as
    far as the stream is read.  `crossings` lists the started rays'
    crossings of S(d) in the order the rays started, so the ray whose
    source is nearest the origin comes first.  Holds only the current
    sphere's crossings; any breach raises BrokenWitnessError.
    """
    source = {ray: ray(0) for ray in family}  # evaluated once, not per sphere
    waiting = list(family)  # rays whose source is not reached yet
    started = []  # (ray, d0) per started ray
    for d, sphere in enumerate(spheres):
        if waiting:
            started += [(ray, d) for ray in waiting if source[ray] in sphere]
            waiting = [ray for ray in waiting if source[ray] not in sphere]
            if d == r0 and waiting:
                raise BrokenWitnessError(
                    f"{g.name}: family source {source[waiting[0]]!r} "
                    f"is on no sphere up to S({r0})"
                )
        crossings = [ray(d - d0) for ray, d0 in started]
        if len(set(crossings)) < len(crossings):
            raise BrokenWitnessError(f"{g.name}: two family rays meet on S({d})")
        if not sphere.issuperset(crossings):
            raise BrokenWitnessError(
                f"{g.name}: a family ray is not monotone: "
                f"{min(set(crossings) - sphere)!r} is its crossing of S({d}) but not on it"
            )
        yield d, sphere, crossings


def safety_map(g: GraphOracle, tables: StrategyTables, cops) -> set:
    """The capture rule's closed set (`engine.closed_set`): the union of
    the cops' rho-balls, whose vertices capture right now.

    `plan_move` calls this only once `ray_unsafe` has found the old ray
    unsafe; a turn in which the robber stays builds no ball.
    """
    return closed_set(g, tables.rho, cops)


def ray_unsafe(g: GraphOracle, tables: StrategyTables, ray: Ray, cops) -> bool:
    """Is some vertex of the monotone ray within s_c+rho of a cop?

    Step t lies at distance d0+t from the origin, so by the triangle
    inequality it is within s_c+rho of cop c only if
    |d(origin, c) - d0 - t| <= s_c+rho.  Each cop is therefore measured
    against at most 2(s_c+rho)+1 steps, and the test stops at the first
    hit.  With the generator's exact metric this is the answer that
    walking the whole ray against the union of the cops' (s_c+rho)-balls
    would give, without building a ball.
    """
    reach = tables.s_c + tables.rho
    metric = g.metric
    origin = g.origin
    d0 = metric(origin, ray(0))
    for c in cops:
        lag = metric(origin, c) - d0
        for t in range(max(0, lag - reach), lag + reach + 1):
            if metric(c, ray(t)) <= reach:
                return True
    return False


def find_haven(g: GraphOracle, tables: StrategyTables, cops) -> Ray:
    """The first family ray, in family order, that `ray_unsafe` finds
    safe; its source is the haven.

    Existence for <= k cops is the disjoint-ray counting bound; running
    out of rays is an engine assertion failure, not a game outcome.
    """
    for ray in tables.family:
        if not ray_unsafe(g, tables, ray, cops):
            return ray
    raise ImpossibleStateError(
        f"all {len(tables.family)} family rays unsafe for {len(cops)} cops; "
        "contradicts the disjoint-ray counting bound"
    )


def open_annulus_index(g: GraphOracle, tables: StrategyTables, closed) -> int:
    """Least i in 1..N whose annulus B(R_i) \\ B(R_{i-1}) has no closed vertex.

    The closed set has at most k*b(rho) vertices and there are k*b(rho)+1
    pairwise disjoint annuli, so some index must qualify.
    """
    radii = tables.radii
    contaminated = set()
    for u in closed:
        d = g.distance(g.origin, u)
        if radii[0] < d <= radii[-1]:
            contaminated.add(bisect_left(radii, d))  # radii[i-1] < d <= radii[i]
    for i in range(1, tables.n_annuli + 1):
        if i not in contaminated:
            return i
    raise ImpossibleStateError(
        f"all {tables.n_annuli} annuli contain closed vertices; "
        "contradicts the open-annulus counting bound"
    )


def plan_move(
    g: GraphOracle, tables: StrategyTables, old_ray: Ray, cops_after_move, routes: dict
) -> list:
    """Path for one robber turn, starting at the old haven v = old_ray(0).

    `old_ray` is the robber's ray from before the cops' move, so it is
    entirely open now even where it stopped being safe.  If `ray_unsafe`
    finds it still safe the robber stays (the single-vertex path [v]), and
    no ball is built.  Otherwise `find_haven` picks the new ray, whose
    source w is the new haven, the closed set (`safety_map`) picks the
    open annulus i, and the move is the route from v to w through annulus
    i: old ray up to the annulus, around it, new ray down to the new haven
    -- a simple path (see `_build_route`), so of length at most s_r,
    inside B(R_N).  That route depends on nothing but (v, w, i), so
    `routes` holds each one built so far under that key, and the route and
    its checks run once per key.  Every turn still tests each route vertex
    against the current closed set.  Any violation of those guarantees
    raises ImpossibleStateError, because the precomputed counting bounds
    exclude it.
    """
    if not ray_unsafe(g, tables, old_ray, cops_after_move):
        return [old_ray(0)]  # still a haven

    new_ray = find_haven(g, tables, cops_after_move)
    closed = safety_map(g, tables, cops_after_move)
    i = open_annulus_index(g, tables, closed)
    key = (old_ray(0), new_ray(0), i)
    route = routes.get(key)
    if route is None:
        route = routes[key] = _build_route(g, tables, old_ray, new_ray, i)
    for u in route:
        if u in closed:
            raise ImpossibleStateError(f"relocation path vertex {u!r} is not open")
    return route


def _build_route(g: GraphOracle, tables: StrategyTables, old_ray, new_ray, i: int) -> list:
    """The relocation route from haven old_ray(0) to haven new_ray(0)
    through annulus i, checked for its endpoints, simplicity, its length
    and its containment in B(R_N).

    The route is simple by construction: `up` lies in B(R_{i-1}) but for
    its last vertex p and `around` lies in the annulus, so they share only
    p, as `down` and `around` share only q; `up` and `down` lie on two
    family rays, which `_checked` proved disjoint up to R_N; and
    `annulus_path` returns a shortest path.
    """
    r_cross = tables.radii[i - 1] + 1
    p = ray_cross(g, old_ray, r_cross)
    q = ray_cross(g, new_ray, r_cross)
    up = [old_ray(t) for t in range(r_cross - g.distance(g.origin, old_ray(0)) + 1)]
    down = [new_ray(t) for t in range(r_cross - g.distance(g.origin, new_ray(0)), -1, -1)]
    try:
        around = annulus_path(g, p, q, tables.radii[i - 1], tables.radii[i])
    except DisconnectedAnnulusError as exc:
        raise ImpossibleStateError(
            f"open annulus {i} failed to connect {p!r} to {q!r}: {exc}"
        ) from exc
    path = up + around[1:] + down[1:]

    if path[0] != old_ray(0) or path[-1] != new_ray(0):
        raise ImpossibleStateError("relocation path lost an endpoint")
    if len(set(path)) != len(path):
        raise ImpossibleStateError("relocation path is not simple")
    if len(path) - 1 > tables.s_r:
        raise ImpossibleStateError(
            f"relocation path length {len(path) - 1} exceeds s_r={tables.s_r}"
        )
    for u in path:
        if g.distance(g.origin, u) > tables.containment:
            raise ImpossibleStateError(f"relocation path left B({tables.containment})")
    return path


class HavenRobber:
    """Robber player wired for the engine: weak-variant negotiation plus
    per-turn haven relocation.

    `memo`, when given, maps (generator, k, s_c, rho) to tables already
    computed for that setting; the tables hold no oracle state, so robbers
    on fresh oracles of one generator may share them.  A failed precompute
    is stored as a copy of its error, without traceback, so the next
    robber raises the same error without repeating the precompute.

    `routes` is the robber's own memo of relocation routes, keyed (old
    haven, new haven, open annulus index) as `plan_move` fills it.  A
    route is valid only for the tables it was built from, so unlike the
    tables it is never shared: it lives and dies with the robber, which
    plays one match.  Each turn the robber looks up its ray by the haven
    it stands on, `state.robber`, in `havens`, built when it commits s_r.
    """

    def __init__(
        self, g: GraphOracle, witness: Callable[[int], list], memo: dict | None = None
    ):
        self.g = g
        self.witness = witness
        self.memo = memo
        self.tables: StrategyTables | None = None
        self.routes: dict = {}  # (v, w, i) -> path
        self.havens: dict = {}  # family source -> its ray

    def commit(self, fieldname: str, committed) -> int:
        if fieldname == "s_r":
            if "rho" not in committed or "s_c" not in committed:
                raise NegotiationError(
                    "haven strategy needs s_c and rho before committing s_r "
                    "(weak game only)"
                )
            setting = (committed["k"], committed["s_c"], committed["rho"])
            memo = self.memo if self.memo is not None else {}
            key = (self.g.name, *setting)
            found = memo.get(key)
            if found is None:
                try:
                    found = memo[key] = precompute_tables(self.g, self.witness, *setting)
                except CoarseCopsError as exc:
                    memo[key] = type(exc)(*exc.args)  # never raised: holds no frame
                    raise
            if isinstance(found, CoarseCopsError):
                raise type(found)(*found.args)
            self.tables = found
            self.havens = {ray(0): ray for ray in self.tables.family}
            return self.tables.s_r
        if fieldname == "R":
            if self.tables is None:
                raise NegotiationError("R requested before s_r was committed")
            if committed["v0"] != self.g.origin:
                raise NegotiationError(
                    f"haven strategy keeps to B(R, {self.g.origin!r}), "
                    f"not to the ball around v0={committed['v0']!r}"
                )
            return self.tables.reach
        raise NegotiationError(f"haven robber cannot commit {fieldname!r}")

    def place(self, g: GraphOracle, params: GameParams, cops) -> Vertex:
        # the initial robber vertex is the current haven (cops are placed)
        return find_haven(g, self.tables, cops)(0)

    def step(self, g: GraphOracle, params: GameParams, state: GameState) -> list:
        ray = self.havens.get(state.robber)
        if ray is None:
            raise ImpossibleStateError(f"robber at {state.robber!r} stands on no haven")
        return plan_move(g, self.tables, ray, state.cops, self.routes)
