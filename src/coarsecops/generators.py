"""Shipped graph generators: square grid, line, ladder, d-regular trees.

Each generator is a (GraphOracle, witness) pair.  The witness stands for
one fixed end of the graph: ``witness(count)`` returns at least ``count``
pairwise vertex-disjoint monotone rays of that end, each a bare function
t -> vertex whose value at 0 is its source, and raises
NoThickEndWitnessError when the end cannot hold that many.  The rays are
the whole witness: `precompute_tables` takes R_0 as the farthest source
from the origin, checks the rays' monotonicity and disjointness up to the
radius R_N it uses, and joins their crossings of each S(R_i + 1) inside
the annulus B(R_{i+1}) \\ B(R_i); that the rays stay connectable beyond
R_N is a construction guarantee of the generator, not checked at run
time.  The grid has one thick end and is the arena where the evasion
strategy works; line, ladder and trees have only thin ends and exist to
exercise the failure modes.

Vertex encodings (also used in trace files):
  grid    -- integer pair ``(x, y)``, encoded ``"(x,y)"``
  line    -- integer ``n``, encoded ``"n"``
  ladder  -- integer-plus-rail-bit ``(n, r)`` with r in {0,1}, encoded ``"(n,r)"``
  tree{d} -- root-to-vertex child-index word, encoded as a digit string
             (root is the empty string)

Each generator's parser refuses a string that names no vertex of the
graph; an oracle's `decode` runs it and also refuses any string but the
one `encode` writes, so each vertex has one canonical string.  Neighbor
lists are returned in ascending vertex order; the kernel's annulus
searches inherit their determinism from that.  Each generator also gives
the kernel four closed forms: the metric, which answers every distance
query; the sphere S(c, r) and the ball B(c, r), each built in one call
(the grid shifts a table of B(0, r) for r <= 3, the line and ladder take
ranges along their rails, and a tree unions its own spheres); and b(r),
which gives |B(r)| and refuses an over-budget query before it is built.
None searches; `tests/bruteforce.py` keeps their BFS checks.
"""

from itertools import chain, product
from typing import Callable

from .errors import NoThickEndWitnessError, UnsupportedGeneratorError
from .graphs import GraphOracle, Ray

GENERATORS = ("grid", "line", "ladder", "tree3", "tree4")


def make_generator(name: str) -> tuple[GraphOracle, Callable[[int], list[Ray]]]:
    """Build the oracle and end witness for a generator id."""
    if name == "grid":
        return _make_grid()
    if name == "line":
        return _make_line()
    if name == "ladder":
        return _make_ladder()
    if name in ("tree3", "tree4"):
        return _make_tree(int(name[4:]))
    raise UnsupportedGeneratorError(
        f"unknown generator {name!r} (expected one of {', '.join(GENERATORS)})"
    )


def _encode_pair(v) -> str:
    return f"({v[0]},{v[1]})"


def _decode_pair(s: str):
    a, b = s.strip("()").split(",")
    return (int(a), int(b))


def _thin_end(rays: list, refusal: str):
    """Witness of an end that holds no more than `rays`; a larger count
    is refused with `refusal`."""

    def witness(count: int) -> list:
        if count < 1:
            raise ValueError("count must be >= 1")
        if count > len(rays):
            raise NoThickEndWitnessError(f"{refusal}, cannot supply {count} disjoint rays")
        return rays[:count]

    return witness


# -- square grid Z^2 ---------------------------------------------------------


def _grid_neighbors(v):
    x, y = v
    return ((x - 1, y), (x, y - 1), (x, y + 1), (x + 1, y))


def _grid_metric(u, v):
    return abs(u[0] - v[0]) + abs(u[1] - v[1])


def _grid_sphere(c, r):
    # the diamond |dx| + |dy| = r: one side of r vertices per quadrant,
    # each side two zipped ranges
    if r == 0:
        return frozenset((c,))
    x, y = c
    return frozenset(
        chain(
            zip(range(x, x + r), range(y + r, y, -1)),
            zip(range(x + r, x, -1), range(y, y - r, -1)),
            zip(range(x, x - r, -1), range(y - r, y)),
            zip(range(x - r, x), range(y, y + r)),
        )
    )


def _diamond(x, y, r):
    # the vertices within r of (x, y), column by column
    return [(x + i, y + j) for i in range(-r, r + 1) for j in range(abs(i) - r, r - abs(i) + 1)]


# B(0, r) for r <= 3, the cops' jumps and capture balls up to s_c = 3 and
# rho = 2; a shifted table builds a ball in about 60% of `_diamond`'s time
_GRID_BALLS = [_diamond(0, 0, r) for r in range(4)]


def _grid_ball(c, r):
    x, y = c
    if r < len(_GRID_BALLS):
        return frozenset([(x + i, y + j) for i, j in _GRID_BALLS[r]])
    return frozenset(_diamond(x, y, r))


def _grid_witness(count: int) -> list:
    # Vertical up-rays from (j, 0), |j| <= m, with the smallest m giving
    # at least `count` rays; their sources fill B(m) on the x-axis.
    if count < 1:
        raise ValueError("count must be >= 1")
    m = count // 2  # smallest m with 2m+1 >= count
    return [lambda t, j=j: (j, t) for j in range(-m, m + 1)]


def _make_grid():
    g = GraphOracle(
        name="grid",
        neighbors=_grid_neighbors,
        metric=_grid_metric,
        sphere_at=_grid_sphere,
        ball_at=_grid_ball,
        ball_size_at=lambda r: 2 * r * (r + 1) + 1,
        origin=(0, 0),
        encode=_encode_pair,
        decode=_decode_pair,
    )
    return g, _grid_witness


# -- line Z ------------------------------------------------------------------


def _line_neighbors(v):
    return (v - 1, v + 1)


def _line_metric(u, v):
    return abs(u - v)


def _line_sphere(c, r):
    return frozenset((c - r, c + r))


def _line_ball(c, r):
    return frozenset(range(c - r, c + r + 1))


def _make_line():
    g = GraphOracle(
        name="line",
        neighbors=_line_neighbors,
        metric=_line_metric,
        sphere_at=_line_sphere,
        ball_at=_line_ball,
        ball_size_at=lambda r: 2 * r + 1,
        origin=0,
        encode=str,
        decode=int,
    )
    return g, _thin_end([lambda t: t], "line: each end contains a single ray")


# -- ladder Z x {0,1} --------------------------------------------------------


def _decode_rung(s: str):
    n, r = _decode_pair(s)
    if r not in (0, 1):
        raise ValueError(f"{s!r} is not a ladder vertex")
    return (n, r)


def _ladder_neighbors(v):
    n, r = v
    return tuple(sorted(((n - 1, r), (n, 1 - r), (n + 1, r))))


def _ladder_metric(u, v):
    return abs(u[0] - v[0]) + (u[1] != v[1])


def _ladder_sphere(c, r):
    # r steps along the own rail, or r-1 along the rail and one rung
    if r == 0:
        return frozenset((c,))
    n, s = c
    return frozenset(((n - r, s), (n + r, s), (n - r + 1, 1 - s), (n + r - 1, 1 - s)))


def _ladder_ball(c, r):
    # up to r steps along the own rail, up to r-1 along the other
    n, s = c
    own = [(m, s) for m in range(n - r, n + r + 1)]
    return frozenset(own + [(m, 1 - s) for m in range(n - r + 1, n + r)])


def _make_ladder():
    g = GraphOracle(
        name="ladder",
        neighbors=_ladder_neighbors,
        metric=_ladder_metric,
        sphere_at=_ladder_sphere,
        ball_at=_ladder_ball,
        ball_size_at=lambda r: 4 * r or 1,
        origin=(0, 0),
        encode=_encode_pair,
        decode=_decode_rung,
    )
    rails = [lambda t, r=r: (t, r) for r in (0, 1)]
    return g, _thin_end(rails, "ladder: the witnessed end has degree 2")


# -- d-regular tree ----------------------------------------------------------


def _tree_neighbors_fn(d: int):
    def neighbors(v):
        if v == ():
            return tuple((j,) for j in range(d))
        out = [v[:-1]]
        out.extend(v + (j,) for j in range(d - 1))
        return tuple(sorted(out))

    return neighbors


def _tree_metric(u, v):
    # A vertex's parent drops the last letter of its word, so the path
    # climbs from each end to the longest common prefix.
    common = 0
    for a, b in zip(u, v):
        if a != b:
            break
        common += 1
    return len(u) + len(v) - 2 * common


def _tree_sphere_fn(d: int):
    def sphere_at(c, r):
        # Climb j steps to an ancestor, then descend r-j steps, leaving the
        # ancestor by any child but the one on the way back to c.
        out = set()
        for j in range(min(r, len(c)) + 1):
            top = c[: len(c) - j]
            if j == r:
                out.add(top)
                continue
            first = range(d if top == () else d - 1)
            if j:
                first = [i for i in first if i != c[len(c) - j]]
            out.update(top + w for w in product(first, *[range(d - 1)] * (r - j - 1)))
        return frozenset(out)

    return sphere_at


def _tree_decode_fn(d: int):
    def decode(s: str):
        v = tuple(int(ch) for ch in s)
        # the root has d children, every other vertex d-1
        if v and (v[0] >= d or any(c >= d - 1 for c in v[1:])):
            raise ValueError(f"{s!r} is not a tree{d} vertex")
        return v

    return decode


def _make_tree(d: int):
    sphere_at = _tree_sphere_fn(d)
    g = GraphOracle(
        name=f"tree{d}",
        neighbors=_tree_neighbors_fn(d),
        metric=_tree_metric,
        sphere_at=sphere_at,
        ball_at=lambda c, r: frozenset().union(*(sphere_at(c, i) for i in range(r + 1))),
        ball_size_at=lambda r: 1 + d * ((d - 1) ** r - 1) // (d - 2),
        origin=(),
        encode=lambda v: "".join(str(c) for c in v),
        decode=_tree_decode_fn(d),
    )
    return g, _thin_end([lambda t: (0,) * t], f"tree{d}: every end is thin of degree 1")
