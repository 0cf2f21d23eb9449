"""The evading robber: precomputed radii plus perpetual relocation to havens.

Against k cops of speed s_c and capture radius rho on a graph with a
thick-end witness, the robber fixes everything before the match:

  * a family of at least k*b(s_c+rho)+1 pairwise disjoint monotone rays
    starting inside B(R_0) -- each cop can blanket at most b(s_c+rho)
    vertices, so disjointness leaves at least one family ray fully safe
    at all times;
  * radii R_0 < R_1 < ... < R_N with N = k*b(rho)+1, where R_{i+1} makes
    the ray-bearing vertices of S(R_i + 1) mutually connected inside the
    annulus B(R_{i+1}) \\ B(R_i) -- each cop can close at most b(rho)
    vertices, so at least one of the N annuli is always fully open;
  * speed s_r = b(R_N): any simple path inside B(R_N) fits in it.

A vertex is *open* if every cop is farther than rho, *safe* if farther
than s_c+rho; safe vertices stay open through one cop move.  A *haven* is
the source of a family ray whose vertices are all safe.  Each turn the
robber either stays (its ray is still safe) or walks: up its old ray to
the open annulus, around the annulus, and down the new haven's ray --
erasing cycles so the move is a simple path, hence within the speed
budget.  Every end-of-turn vertex is a haven source in B(R_0), so the
ball B(R_0, v0) is visited every single round.  All radii are measured
from the oracle's origin, so the robber commits R only for v0 = origin.
"""

from bisect import bisect_left
from dataclasses import dataclass

from .engine import GameParams, GameState
from .errors import (
    BrokenWitnessError,
    DisconnectedAnnulusError,
    ImpossibleStateError,
    NegotiationError,
    NoThickEndWitnessError,
)
from .graphs import (
    GraphOracle,
    Ray,
    RaySystem,
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
    n_annuli: int  # N = k*b(rho)+1
    radii: tuple  # (R_0, ..., R_N), strictly increasing
    family: tuple  # >= k*b(s_c+rho)+1 disjoint monotone rays from B(R_0)
    s_r: int  # b(R_N)

    @property
    def reach(self) -> int:
        """The R the robber declares: R_0."""
        return self.radii[0]

    @property
    def containment(self) -> int:
        """R_N -- no robber move ever leaves B(R_N)."""
        return self.radii[-1]


@dataclass(frozen=True)
class SafetyMap:
    """Per-turn classification of vertices against a cop snapshot.

    unsafe  = union of B(s_c+rho, cop): vertices a cop could close next move
    closed  = union of B(rho, cop): vertices that capture right now
    Safe vertices (not unsafe) are open and stay open through one cop move.
    """

    cops: tuple
    unsafe: frozenset
    closed: frozenset

    def is_open(self, v) -> bool:
        return v not in self.closed


def precompute_tables(
    g: GraphOracle, rays: RaySystem, k: int, s_c: int, rho: int
) -> StrategyTables:
    """Build the ray family, the radius ladder and the speed.

    Every radius is measured from the oracle's origin, and b(n) is
    `g.ball_size(n)`.  Thin-end generators fail here with
    NoThickEndWitnessError; a witness whose annuli never connect, or a
    component that ends before R_N, fails with BrokenWitnessError.
    """
    if k < 1 or s_c < 0 or rho < 0:
        raise ValueError("need k >= 1, s_c >= 0, rho >= 0")
    need = k * g.ball_size(s_c + rho) + 1
    r0, family = rays.disjoint_family(need)
    if len(family) < need:
        raise NoThickEndWitnessError(
            f"{g.name}: ray system returned {len(family)} rays, need {need}"
        )
    for ray in family:
        if g.distance(g.origin, ray.source) > r0:
            raise BrokenWitnessError(
                f"{g.name}: family source {ray.source!r} outside B({r0})"
            )
    n = k * g.ball_size(rho) + 1
    # One pass over the origin's spheres (a g.sphere or g.ball_size call
    # here would restart the BFS at every step): S(R_i + 1) gives the
    # crossers of each annulus, and the sizes of S(0..R_N) sum to b(R_N).
    radii = [r0]
    s_r = 0
    for d, sphere in enumerate(g.spheres(g.origin)):
        s_r += len(sphere)
        if d == radii[-1] + 1:
            crossers = [v for v in sorted(sphere) if rays.outward_ray(v) is not None]
            if not crossers:
                raise BrokenWitnessError(f"{g.name}: no outward rays cross S({d})")
            radii.append(annulus_connect_radius(g, crossers, radii[-1]))
        if d == radii[-1] and len(radii) > n:
            break
    else:
        raise BrokenWitnessError(f"{g.name}: the component ends at radius {d}, before R_{n}")
    return StrategyTables(
        k=k,
        s_c=s_c,
        rho=rho,
        n_annuli=n,
        radii=tuple(radii),
        family=tuple(family),
        s_r=s_r,
    )


def safety_map(g: GraphOracle, tables: StrategyTables, cops) -> SafetyMap:
    """Union the cops' rho- and (s_c+rho)-balls."""
    unsafe: set = set()
    closed: set = set()
    for c in cops:
        unsafe |= g.ball(c, tables.s_c + tables.rho)
        closed |= g.ball(c, tables.rho)
    return SafetyMap(cops=tuple(cops), unsafe=frozenset(unsafe), closed=frozenset(closed))


def _unsafe_horizon(g: GraphOracle, tables: StrategyTables, cops) -> int:
    """Root-distance beyond which no vertex can be unsafe.

    Every unsafe vertex is within s_c+rho of a cop, hence within
    max_cop d(root, cop) + s_c + rho of the root.  A monotone ray past
    that distance never re-enters any unsafe ball.
    """
    if not cops:
        return -1
    far = max(g.distance(g.origin, c) for c in cops)
    return far + tables.s_c + tables.rho


def _ray_meets(g, tables, ray: Ray, vertices: frozenset, horizon: int) -> bool:
    """Does the monotone ray hit `vertices` within the root-distance horizon?"""
    d0 = g.distance(g.origin, ray.source)
    for t in range(max(0, horizon - d0) + 1):
        if ray.step(t) in vertices:
            return True
    return False


def find_haven(g: GraphOracle, tables: StrategyTables, smap: SafetyMap):
    """First family ray (in family order) with no unsafe vertex.

    Existence for <= k cops is the disjoint-ray counting bound; running
    out of rays is an engine assertion failure, not a game outcome.
    """
    horizon = _unsafe_horizon(g, tables, smap.cops)
    for ray in tables.family:
        if not _ray_meets(g, tables, ray, smap.unsafe, horizon):
            return ray.source, ray
    raise ImpossibleStateError(
        f"all {len(tables.family)} family rays unsafe for {len(smap.cops)} cops; "
        "contradicts the disjoint-ray counting bound"
    )


def open_annulus_index(g: GraphOracle, tables: StrategyTables, smap: SafetyMap) -> int:
    """Least i in 1..N whose annulus B(R_i) \\ B(R_{i-1}) has no closed vertex.

    The closed set has at most k*b(rho) vertices and there are k*b(rho)+1
    pairwise disjoint annuli, so some index must qualify.
    """
    radii = tables.radii
    contaminated = set()
    for u in smap.closed:
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


def erase_cycles(walk: list) -> list:
    """Loop-erase a walk into a simple path with the same endpoints.

    Revisiting a vertex truncates the walk back to its first visit, which
    removes cycles and backtracking subpaths and never lengthens the walk.
    """
    pos: dict = {}
    out: list = []
    for v in walk:
        if v in pos:
            for dropped in out[pos[v] + 1 :]:
                del pos[dropped]
            del out[pos[v] + 1 :]
        else:
            pos[v] = len(out)
            out.append(v)
    return out


def plan_move(g: GraphOracle, tables: StrategyTables, previous, cops_after_move) -> list:
    """Path for one robber turn, as a vertex list starting at the old haven.

    `previous` is the (haven, ray) pair from before the cops' move, so the
    old ray is entirely open now even where it stopped being safe.  If it
    is in fact still safe the robber stays (single-vertex path).  Otherwise
    the move is: old ray up to the open annulus, around the annulus, new
    ray down to the new haven -- cycles erased, every vertex open, length
    at most s_r.  Any violation of those guarantees raises
    ImpossibleStateError, because the precomputed counting bounds exclude it.
    """
    v, old_ray = previous
    smap = safety_map(g, tables, cops_after_move)
    horizon = _unsafe_horizon(g, tables, smap.cops)
    if not _ray_meets(g, tables, old_ray, smap.unsafe, horizon):
        return [v]  # still a haven

    w, new_ray = find_haven(g, tables, smap)
    i = open_annulus_index(g, tables, smap)
    r_cross = tables.radii[i - 1] + 1
    p = ray_cross(g, old_ray, r_cross)
    q = ray_cross(g, new_ray, r_cross)
    up = old_ray.prefix(r_cross - g.distance(g.origin, v))
    down = new_ray.prefix(r_cross - g.distance(g.origin, w))
    down.reverse()  # q .. w
    try:
        around = annulus_path(
            g, p, q, tables.radii[i - 1], tables.radii[i], smap.is_open
        )
    except DisconnectedAnnulusError as exc:
        raise ImpossibleStateError(
            f"open annulus {i} failed to connect {p!r} to {q!r}: {exc}"
        ) from exc
    path = erase_cycles(up + around[1:] + down[1:])

    if path[0] != v or path[-1] != w:
        raise ImpossibleStateError("relocation path lost an endpoint")
    if len(path) - 1 > tables.s_r:
        raise ImpossibleStateError(
            f"relocation path length {len(path) - 1} exceeds s_r={tables.s_r}"
        )
    for u in path:
        if not smap.is_open(u):
            raise ImpossibleStateError(f"relocation path vertex {u!r} is not open")
        if g.distance(g.origin, u) > tables.containment:
            raise ImpossibleStateError(f"relocation path left B({tables.containment})")
    return path


def choose_start(g: GraphOracle, tables: StrategyTables, cop_positions) -> Vertex:
    """Initial robber vertex: the current haven (cops are already placed)."""
    return find_haven(g, tables, safety_map(g, tables, cop_positions))[0]


class HavenRobber:
    """Robber player wired for the engine: weak-variant negotiation plus
    per-turn haven relocation.

    `memo`, when given, maps (generator, k, s_c, rho) to tables already
    computed for that setting; the tables hold no oracle state, so robbers
    on fresh oracles of one generator may share them.  A failed precompute
    is not stored and raises again for the next robber.
    """

    def __init__(self, g: GraphOracle, rays: RaySystem, memo: dict | None = None):
        self.g = g
        self.rays = rays
        self.memo = memo
        self.tables: StrategyTables | None = None
        self._at: tuple | None = None  # (haven vertex, its ray)

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
            if key not in memo:
                memo[key] = precompute_tables(self.g, self.rays, *setting)
            self.tables = memo[key]
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

    def _ray_of(self, source: Vertex) -> Ray:
        for ray in self.tables.family:
            if ray.source == source:
                return ray
        raise ImpossibleStateError(f"{source!r} is not a family ray source")

    def place(self, g: GraphOracle, params: GameParams, cops) -> Vertex:
        start = choose_start(g, self.tables, cops)
        self._at = (start, self._ray_of(start))
        return start

    def step(self, g: GraphOracle, params: GameParams, state: GameState) -> list:
        path = plan_move(g, self.tables, self._at, state.cops)
        if path[-1] != self._at[0]:
            self._at = (path[-1], self._ray_of(path[-1]))
        return path
