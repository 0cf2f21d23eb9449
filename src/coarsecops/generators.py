"""Shipped graph generators: square grid, line, ladder, d-regular trees.

Each generator is a (GraphOracle, RaySystem) pair.  The grid has one thick
end and is the arena where the evasion strategy works; line, ladder and
trees have only thin ends and exist to exercise the failure modes.

Vertex encodings (also used in trace files):
  grid    -- integer pair ``(x, y)``, encoded ``"(x,y)"``
  line    -- integer ``n``, encoded ``"n"``
  ladder  -- integer-plus-rail-bit ``(n, r)`` with r in {0,1}, encoded ``"(n,r)"``
  tree{d} -- root-to-vertex child-index word, encoded as a digit string
             (root is the empty string)

Each generator's parser refuses a string that names no vertex of the
graph; `GraphOracle.decode` runs it and also refuses any string but the
one `encode` writes, so each vertex has one canonical string.  Neighbor
lists are returned in ascending vertex order; all searches in the kernel
inherit their determinism from that.  Each generator also gives the
kernel its graph distance in closed form, which answers every distance
query without a search.
"""

from .errors import NoThickEndWitnessError, UnsupportedGeneratorError
from .graphs import GraphOracle, Ray, RaySystem

GENERATORS = ("grid", "line", "ladder", "tree3", "tree4")


def make_generator(name: str) -> tuple[GraphOracle, RaySystem]:
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


# -- square grid Z^2 ---------------------------------------------------------


def _grid_neighbors(v):
    x, y = v
    return ((x - 1, y), (x, y - 1), (x, y + 1), (x + 1, y))


def _grid_metric(u, v):
    return abs(u[0] - v[0]) + abs(u[1] - v[1])


def _grid_vertical_ray(j: int) -> Ray:
    return Ray(source=(j, 0), step=lambda t, j=j: (j, t))


def _grid_family(count: int):
    # Vertical up-rays from (j, 0), |j| <= m, with the smallest m giving
    # at least `count` rays; their sources fill B(m) on the x-axis.
    if count < 1:
        raise ValueError("count must be >= 1")
    m = count // 2  # smallest m with 2m+1 >= count
    rays = [_grid_vertical_ray(j) for j in range(-m, m + 1)]
    return m, rays


def _grid_outward_ray(v) -> Ray:
    # Extend along the axis of the larger absolute coordinate, away from
    # the origin; x-axis on ties.  Monotone for every vertex.
    x, y = v
    if abs(x) >= abs(y):
        sx = 1 if x >= 0 else -1
        return Ray(source=v, step=lambda t, x=x, y=y, sx=sx: (x + sx * t, y))
    sy = 1 if y >= 0 else -1
    return Ray(source=v, step=lambda t, x=x, y=y, sy=sy: (x, y + sy * t))


def _make_grid():
    g = GraphOracle(
        name="grid",
        neighbors=_grid_neighbors,
        metric=_grid_metric,
        degree_bound=4,
        origin=(0, 0),
        encode=_encode_pair,
        decode=_decode_pair,
    )
    return g, RaySystem(disjoint_family=_grid_family, outward_ray=_grid_outward_ray)


# -- line Z ------------------------------------------------------------------


def _line_neighbors(v):
    return (v - 1, v + 1)


def _line_metric(u, v):
    return abs(u - v)


def _make_line():
    positive = Ray(source=0, step=lambda t: t)

    def family(count: int):
        if count < 1:
            raise ValueError("count must be >= 1")
        if count > 1:
            raise NoThickEndWitnessError(
                f"line: each end contains a single ray, cannot supply {count} disjoint rays"
            )
        return 0, [positive]

    def outward(v):
        if v < 0:
            return None  # heads into the other end
        return Ray(source=v, step=lambda t, v=v: v + t)

    g = GraphOracle(
        name="line",
        neighbors=_line_neighbors,
        metric=_line_metric,
        degree_bound=2,
        origin=0,
        encode=str,
        decode=int,
    )
    return g, RaySystem(disjoint_family=family, outward_ray=outward)


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


def _make_ladder():
    def rail_ray(n, r):
        return Ray(source=(n, r), step=lambda t, n=n, r=r: (n + t, r))

    def family(count: int):
        if count < 1:
            raise ValueError("count must be >= 1")
        if count > 2:
            raise NoThickEndWitnessError(
                f"ladder: the witnessed end has degree 2, cannot supply {count} disjoint rays"
            )
        rays = [rail_ray(0, 0), rail_ray(0, 1)][:count]
        return (0 if count == 1 else 1), rays

    def outward(v):
        n, r = v
        if n < 0:
            return None  # heads into the other end
        return rail_ray(n, r)

    g = GraphOracle(
        name="ladder",
        neighbors=_ladder_neighbors,
        metric=_ladder_metric,
        degree_bound=3,
        origin=(0, 0),
        encode=_encode_pair,
        decode=_decode_rung,
    )
    return g, RaySystem(disjoint_family=family, outward_ray=outward)


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


def _tree_decode_fn(d: int):
    def decode(s: str):
        v = tuple(int(ch) for ch in s)
        # the root has d children, every other vertex d-1
        if v and (v[0] >= d or any(c >= d - 1 for c in v[1:])):
            raise ValueError(f"{s!r} is not a tree{d} vertex")
        return v

    return decode


def _make_tree(d: int):
    def spine_ray(v):
        return Ray(source=v, step=lambda t, v=v: v + (0,) * t)

    def family(count: int):
        if count < 1:
            raise ValueError("count must be >= 1")
        if count > 1:
            raise NoThickEndWitnessError(
                f"tree{d}: every end is thin of degree 1, cannot supply {count} disjoint rays"
            )
        return 0, [spine_ray(())]

    def outward(v):
        if any(c != 0 for c in v):
            return None  # only the all-zero spine stays in the witnessed end
        return spine_ray(v)

    g = GraphOracle(
        name=f"tree{d}",
        neighbors=_tree_neighbors_fn(d),
        metric=_tree_metric,
        degree_bound=d,
        origin=(),
        encode=lambda v: "".join(str(c) for c in v),
        decode=_tree_decode_fn(d),
    )
    return g, RaySystem(disjoint_family=family, outward_ray=outward)
