"""Polygon domains, boundary charts, meshes, and piecewise-affine straightening.

The boundary of every domain here is a simple CCW polygon.  Boundary portions
that are graphs ``y = psi(x)`` over an interval carry a `LipschitzChart`, which
is what the vertical-straightening construction consumes: the collar between
the graph and a horizontal base line is flattened by a piecewise-affine map
with explicit per-piece Jacobians, exact at mesh nodes, so discrete energy and
boundary forms transport exactly.
"""

from __future__ import annotations

import io
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from ._mesher import DIAMETER_FACTOR, MAX_INSERTIONS, MeshingError, triangulate_polygon

__all__ = [
    "GeometryError",
    "MeshingError",
    "PolygonDomain",
    "LipschitzChart",
    "TriangleMesh",
    "StraighteningMap",
    "make_domain",
    "triangulate",
    "build_straightening",
    "build_matched_meshes",
]


class GeometryError(ValueError):
    """Invalid polygon, chart, or straightening input."""


# ---------------------------------------------------------------------------
# charts


@dataclass(frozen=True)
class LipschitzChart:
    """Piecewise-linear boundary graph ``y = psi(x)`` over ``[xs[0], xs[-1]]``.

    ``xs`` is strictly increasing; the domain interior lies below the graph.
    ``segment_ids`` maps each chart piece ``[xs[i], xs[i+1]]`` to the index of
    the polygon segment realizing it (the polygon may traverse the graph in
    either direction).
    """

    xs: np.ndarray
    values: np.ndarray
    segment_ids: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        ids = np.asarray(self.segment_ids, dtype=np.int64)
        if xs.ndim != 1 or xs.size < 2 or vals.shape != xs.shape:
            raise GeometryError("chart needs matching 1-d xs and values")
        if not (np.diff(xs) > 0).all():
            raise GeometryError("chart xs must be strictly increasing")
        if ids.shape != (xs.size - 1,):
            raise GeometryError("chart needs one segment id per piece")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "segment_ids", ids)

    def __call__(self, x):
        return np.interp(x, self.xs, self.values)


# ---------------------------------------------------------------------------
# domains


@dataclass
class PolygonDomain:
    """Simple CCW polygon with optional boundary charts.

    ``vertices`` has shape (k, 2); segment ``i`` runs from vertex ``i`` to
    vertex ``i+1`` (cyclically).
    """

    vertices: np.ndarray
    name: str = "polygon"
    charts: list = field(default_factory=list)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise GeometryError("polygon needs at least 3 planar vertices")
        if np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1).min() < 1e-14:
            raise GeometryError("polygon has repeated consecutive vertices")
        area2 = _signed_area2(v)
        if area2 < 0:
            v = v[::-1].copy()
            area2 = -area2
        if area2 < 1e-14:
            raise GeometryError("polygon is degenerate (zero area)")
        _check_simple(v)
        self.vertices = v

    # -- derived quantities --------------------------------------------------

    @property
    def n_segments(self) -> int:
        return len(self.vertices)

    def segment_points(self):
        """Pairs (p, q) for each boundary segment, CCW."""
        return self.vertices, np.roll(self.vertices, -1, axis=0)

    def segment_lengths(self) -> np.ndarray:
        p, q = self.segment_points()
        return np.linalg.norm(q - p, axis=1)

    def segment_normals(self) -> np.ndarray:
        """Outward unit normals (interior is left of CCW travel)."""
        p, q = self.segment_points()
        d = q - p
        n = np.stack([d[:, 1], -d[:, 0]], axis=1)
        return n / np.linalg.norm(n, axis=1)[:, None]

    @property
    def perimeter(self) -> float:
        return float(self.segment_lengths().sum())

    @property
    def area(self) -> float:
        return 0.5 * _signed_area2(self.vertices)

    @property
    def diameter(self) -> float:
        v = self.vertices
        # hull-free pairwise max is fine at catalog sizes (<= a few thousand)
        d2 = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=2)
        return float(np.sqrt(d2.max()))

    def contains(self, points) -> np.ndarray:
        """Crossing-number interior test, vectorized over query points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        v = self.vertices
        x1, y1 = v[:, 0], v[:, 1]
        x2 = np.roll(x1, -1)
        y2 = np.roll(y1, -1)
        px = pts[:, 0][:, None]
        py = pts[:, 1][:, None]
        cond = (y1 > py) != (y2 > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
        inside = np.sum(cond & (px < xint), axis=1) % 2 == 1
        return inside

    def scaled(self, factor: float) -> "PolygonDomain":
        return PolygonDomain(self.vertices * factor, name=self.name)


def _signed_area2(v: np.ndarray) -> float:
    x, y = v[:, 0], v[:, 1]
    return float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _check_simple(v: np.ndarray):
    """Reject self-intersecting polygons (vectorized segment-pair test)."""
    n = len(v)
    p = v
    q = np.roll(v, -1, axis=0)
    d = q - p
    # orientation of point r relative to segment i: cross(d_i, r - p_i)
    for i in range(n):
        js = np.arange(i + 2, n if i > 0 else n - 1)
        if js.size == 0:
            continue
        def cross2(u, w):
            return u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0]

        o1 = cross2(d[i], p[js] - p[i])
        o2 = cross2(d[i], q[js] - p[i])
        o3 = cross2(d[js], p[i] - p[js])
        o4 = cross2(d[js], q[i] - p[js])
        crossing = (o1 * o2 < 0) & (o3 * o4 < 0)
        if crossing.any():
            raise GeometryError("polygon is self-intersecting")


# ---------------------------------------------------------------------------
# catalog


def _not_finite(v) -> bool:
    """A boolean (a config's ``yes``), or a number that is not finite."""
    try:
        return isinstance(v, bool) or isinstance(v, numbers.Real) and not math.isfinite(v)
    except OverflowError:  # an int beyond float range
        return True


def catalog_call(kind: str, table: dict, error: type, name, params: dict):
    """Build the entry ``name`` (case-insensitive, ``_`` as ``-``) of a catalog
    ``table`` from ``params``.  An unknown entry, a boolean or non-finite
    parameter (list entries included), and a parameter the entry rejects
    (unknown, missing, of the wrong type or too short) raise ``error``
    naming the entry."""
    key = str(name).strip().lower().replace("_", "-")
    if key not in table:
        raise error(f"unknown {kind} {name!r}; catalog: {sorted(table)}")
    for pname, value in params.items():
        if any(map(_not_finite, value if isinstance(value, (list, tuple)) else [value])):
            raise error(f"{kind} {key!r}: {pname} must be a finite number (got {value!r})")
    try:
        return table[key](**params)
    except error:
        raise
    except (TypeError, ValueError, IndexError) as exc:
        raise error(f"{kind} {key!r}: {exc}") from exc


def _count(domain: str, key: str, value) -> int:
    """``value`` as a count; a float, which ``int`` truncates, is an error."""
    if not isinstance(value, (int, np.integer)):
        raise GeometryError(f"{domain} needs an integer {key} (got {value!r})")
    return int(value)


def _length(domain: str, key: str, value) -> float:
    """``value`` as a length: a negative one would reflect the domain."""
    if not float(value) > 0:
        raise GeometryError(f"{domain} needs a positive {key} (got {value!r})")
    return float(value)


def _regular_ngon(n: int = 64, radius: float = 1.0) -> PolygonDomain:
    n, r = _count("regular-ngon", "n", n), _length("regular-ngon", "radius", radius)
    if n < 3:
        raise GeometryError("regular-ngon needs n >= 3")
    ang = 2.0 * np.pi * np.arange(n) / n
    verts = r * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return PolygonDomain(verts, "regular-ngon")


def _square(side: float = 1.0) -> PolygonDomain:
    s = _length("square", "side", side)
    verts = np.array([[0.0, 0.0], [s, 0.0], [s, s], [0.0, s]])
    dom = PolygonDomain(verts, "square")
    # Flat chart along the top side (segment 2 runs right-to-left).
    dom.charts.append(
        LipschitzChart(np.array([0.0, s]), np.array([s, s]), np.array([2]))
    )
    return dom


def _lshape(size: float = 1.0, notch: float = 0.5) -> PolygonDomain:
    s = _length("lshape", "size", size)
    c = float(notch) * s
    if not 0 < c < s:
        raise GeometryError("lshape notch must satisfy 0 < notch < 1")
    verts = np.array(
        [[0, 0], [s, 0], [s, c], [c, c], [c, s], [0, s]], dtype=float
    )
    return PolygonDomain(verts, "lshape")


def _sawtooth_square(teeth: int = 8, slope: float = 1.0) -> PolygonDomain:
    """Unit square whose top side is a triangle wave of the given slope."""
    m, s = _count("sawtooth-square", "teeth", teeth), float(slope)
    if m < 1 or s <= 0:
        raise GeometryError("sawtooth-square needs teeth >= 1 and slope > 0")
    half = 0.5 / m
    xs = [0.0]
    ys = [1.0]
    for i in range(m):
        xs.extend([i / m + half, (i + 1) / m])
        ys.extend([1.0 + s * half, 1.0])
    verts = [[0.0, 0.0], [1.0, 0.0]]
    # top traversed right-to-left to keep the polygon CCW
    verts.extend([[x, y] for x, y in zip(reversed(xs), reversed(ys))])
    dom = PolygonDomain(np.array(verts), "sawtooth-square")
    # Chart pieces map to polygon segments: segment j runs vertex j -> j+1.
    # Vertices 2 .. 2 + 2m are the top, in decreasing x, so the chart piece
    # [xs[i], xs[i+1]] is polygon segment (2 + 2m - 1 - i).
    npieces = 2 * m
    seg_ids = np.array([2 + npieces - 1 - i for i in range(npieces)])
    dom.charts.append(LipschitzChart(np.array(xs), np.array(ys), seg_ids))
    return dom


def _koch_prefractal(level: int = 2, side: float = 1.0) -> PolygonDomain:
    """Von Koch snowflake prefractal, outward bumps, CCW."""
    lv = _count("koch-prefractal", "level", level)
    if not 0 <= lv <= 4:
        raise GeometryError("koch-prefractal level must be 0..4")
    s = _length("koch-prefractal", "side", side)
    pts = np.array([[0.0, 0.0], [s, 0.0], [0.5 * s, s * math.sqrt(3) / 2]])
    cos60, sin60 = 0.5, math.sqrt(3) / 2
    for _ in range(lv):
        nxt = []
        for i in range(len(pts)):
            p = pts[i]
            q = pts[(i + 1) % len(pts)]
            d = (q - p) / 3.0
            a = p + d
            b = p + 2.0 * d
            # rotate d by -60 degrees: outward of a CCW traversal
            tip = a + np.array([cos60 * d[0] + sin60 * d[1], -sin60 * d[0] + cos60 * d[1]])
            nxt.extend([p, a, tip, b])
        pts = np.array(nxt)
    return PolygonDomain(pts, "koch-prefractal")


_DOMAINS = {
    "regular-ngon": _regular_ngon,
    "square": _square,
    "lshape": _lshape,
    "sawtooth-square": _sawtooth_square,
    "koch-prefractal": _koch_prefractal,
}


def make_domain(name: str, **params) -> PolygonDomain:
    """Build a catalog domain: regular-ngon, square, lshape, sawtooth-square,
    koch-prefractal.  An unknown, boolean, non-finite or ill-typed parameter
    raises ``GeometryError`` naming the domain."""
    return catalog_call("domain", _DOMAINS, GeometryError, name, params)


# ---------------------------------------------------------------------------
# meshes


@dataclass
class TriangleMesh:
    """Conforming triangle mesh of a polygon.

    ``boundary_edges[k] = (u, v)`` is directed so the interior lies to its
    left; ``boundary_parent[k]`` is the polygon segment realizing it and
    ``boundary_normals[k]`` its outward unit normal.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_parent: np.ndarray
    boundary_normals: np.ndarray
    h: float

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def boundary_nodes(self) -> np.ndarray:
        return np.unique(self.boundary_edges)

    def triangle_areas(self) -> np.ndarray:
        p = self.nodes
        t = self.triangles
        d1 = p[t[:, 1]] - p[t[:, 0]]
        d2 = p[t[:, 2]] - p[t[:, 0]]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def edge_lengths(self) -> np.ndarray:
        p = self.nodes
        t = self.triangles
        return np.stack(
            [
                np.linalg.norm(p[t[:, 1]] - p[t[:, 0]], axis=1),
                np.linalg.norm(p[t[:, 2]] - p[t[:, 1]], axis=1),
                np.linalg.norm(p[t[:, 0]] - p[t[:, 2]], axis=1),
            ],
            axis=1,
        )

    def min_angle(self) -> float:
        ls = self.edge_lengths()
        out = np.inf
        for i in range(3):
            la = ls[:, i]
            lb = ls[:, (i + 1) % 3]
            lc = ls[:, (i + 2) % 3]
            cosv = np.clip((lb**2 + lc**2 - la**2) / (2 * lb * lc), -1, 1)
            out = min(out, float(np.degrees(np.arccos(cosv)).min()))
        return out

    def boundary_edge_lengths(self) -> np.ndarray:
        e = self.boundary_edges
        return np.linalg.norm(self.nodes[e[:, 1]] - self.nodes[e[:, 0]], axis=1)

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        out = io.StringIO()
        out.write("steklovlab-mesh 1\n")
        out.write(f"h {self.h:.17g}\n")
        out.write(f"nodes {self.n_nodes}\n")
        for x, y in self.nodes:
            out.write(f"{x:.17g} {y:.17g}\n")
        out.write(f"triangles {len(self.triangles)}\n")
        for a, b, c in self.triangles:
            out.write(f"{a} {b} {c}\n")
        out.write(f"boundary {len(self.boundary_edges)}\n")
        for (u, v), parent, (nx, ny) in zip(
            self.boundary_edges, self.boundary_parent, self.boundary_normals
        ):
            out.write(f"{u} {v} {parent} {nx:.17g} {ny:.17g}\n")
        return out.getvalue()


def triangulate(domain: PolygonDomain, h: float) -> TriangleMesh:
    """Quality constrained-Delaunay mesh with max element diameter <= 1.5 h and,
    where input angles are 60 degrees or more, no angle below ``MIN_ANGLE_DEG``."""
    raw = triangulate_polygon(domain.vertices, h)
    edges = np.array([(u, v) for (u, v, _) in raw["boundary"]], dtype=np.int64)
    parents = np.array([p for (_, _, p) in raw["boundary"]], dtype=np.int64)
    normals = domain.segment_normals()[parents]
    mesh = TriangleMesh(
        raw["points"], raw["triangles"], edges, parents, normals, float(h)
    )
    if raw["max_edge"] > DIAMETER_FACTOR * h * (1 + 1e-12):
        raise MeshingError(f"max element diameter exceeds {DIAMETER_FACTOR} h")
    return mesh


# ---------------------------------------------------------------------------
# straightening

# The two triangles of a grid cell, as (column, row) offsets of their corners
# from the cell's lower-left node: half 0 lies below the diagonal from the
# lower-left to the upper-right node, half 1 above it.
_CELL_SPLIT = np.array([[[0, 0], [1, 0], [1, 1]], [[0, 0], [1, 1], [0, 1]]])


def _cell_triangles(grid: np.ndarray) -> np.ndarray:
    """Both triangles of every cell of a node grid, as ``[triangle, corner, ...]``.

    ``grid`` holds node ids or positions indexed ``[column, row, ...]``.  The
    triangles come in (column, row, half) order: half s of cell (i, j) is
    triangle ``2 (i·rows + j) + s``, with ``rows`` cells per column.
    """
    ncol, nrow = grid.shape[0] - 1, grid.shape[1] - 1
    i = np.arange(ncol)[:, None, None, None] + _CELL_SPLIT[..., 0]
    j = np.arange(nrow)[None, :, None, None] + _CELL_SPLIT[..., 1]
    return grid[i, j].reshape(2 * ncol * nrow, 3, *grid.shape[2:])


@dataclass
class StraighteningMap:
    """Piecewise-affine flattening of a graph collar over one structured grid.

    The collar is the region between the chart graph and the horizontal base
    line ``y = base``.  Its grid has a node column at each of the ``stations``
    with ``levels + 1`` nodes per column (`nodes`), both at most the mesh size
    ``h`` apart in the source: there, level j sits the fraction j/levels of the local collar
    thickness above the base line; in the image, at height ``base + j/levels``,
    so the collar maps onto the rectangle ``[x0, x1] x [base, base + 1]``.
    Every grid cell splits into two triangles as ``_CELL_SPLIT`` says, and the
    map is affine on each of these pieces: half s of cell (i, j) is piece
    ``2 (i·levels + j) + s``, ``jacobians[k]`` is the constant 2x2 Jacobian
    on piece k and ``dets[k]`` its determinant.  Outside the collar the map
    is the identity; the glue along the base line is continuous.
    """

    domain: PolygonDomain
    chart: LipschitzChart
    base: float
    stations: np.ndarray
    levels: int
    h: float
    jacobians: np.ndarray = field(init=False)
    dets: np.ndarray = field(init=False)

    def __post_init__(self):
        # On each piece, image = J (source - corner 0) + image corner 0; the
        # edge vectors from corner 0 are the columns of dpre and dpost.
        dpre, dpost = (
            np.stack([t[:, 1] - t[:, 0], t[:, 2] - t[:, 0]], axis=2)
            for t in map(_cell_triangles, self.nodes())
        )
        self.jacobians = dpost @ np.linalg.inv(dpre)
        self.dets = np.linalg.det(self.jacobians)

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """Source and image positions of the collar nodes, each indexed
        ``[station, level, xy]``; level 0 is the base line."""
        frac = np.arange(self.levels + 1) / self.levels
        thick = self.chart(self.stations) - self.base
        x = np.broadcast_to(self.stations[:, None], (self.stations.size, self.levels + 1))
        pre = np.stack([x, self.base + frac[None, :] * thick[:, None]], axis=2)
        post = np.stack([x, np.broadcast_to(self.base + frac, x.shape)], axis=2)
        return pre, post

    def pull(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Source position and piece of each image-coordinate point.

        Points off the collar keep their position and get piece -1.  Image
        cells are axis-aligned rectangles, so a point's cell follows from its
        coordinates and its half from the side of the cell diagonal it is on.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        x, y = pts[:, 0], pts[:, 1]
        src = pts.copy()
        piece = np.full(len(pts), -1, dtype=np.int64)
        hit = (
            (x >= self.stations[0] - 1e-12)
            & (x <= self.stations[-1] + 1e-12)
            & (y > self.base + 1e-14)
            & (y <= self.base + 1.0 + 1e-12)
        )
        if not hit.any():
            return src, piece
        xi, yi = x[hit], y[hit]
        cols = np.searchsorted(self.stations, xi, side="right") - 1
        cols = np.clip(cols, 0, self.stations.size - 2)
        rows = np.floor((yi - self.base) * self.levels).astype(np.int64)
        rows = np.clip(rows, 0, self.levels - 1)
        pre, post = self.nodes()
        lo, hi = post[cols, rows], post[cols + 1, rows + 1]
        above = (yi - lo[:, 1]) * (hi[:, 0] - lo[:, 0]) > (xi - lo[:, 0]) * (hi[:, 1] - lo[:, 1])
        piece[hit] = 2 * (cols * self.levels + rows) + above
        inv = np.linalg.inv(self.jacobians)[piece[hit]]
        src[hit] = np.einsum("kij,kj->ki", inv, pts[hit] - lo) + pre[cols, rows]
        return src, piece


def _check_budget(nodes: float, h: float) -> None:
    """Refuse a grid of more nodes than the mesher may insert; the count grows as 1/h²."""
    if not nodes <= MAX_INSERTIONS:
        raise MeshingError(f"h = {h:g} needs {nodes:.3g} nodes, over the budget {MAX_INSERTIONS}")


def build_straightening(domain: PolygonDomain, collar_depth: float, h: float) -> StraighteningMap:
    """Construct the collar-flattening map of the domain's first chart at mesh size ``h``.

    The base line sits ``collar_depth`` below the lowest point of the graph,
    and the collar must stay inside the domain, which is checked.  Each chart
    piece splits into ⌈width/h⌉ equal columns and the collar into
    ⌈largest collar thickness/h⌉ levels, so no vertical or horizontal side of
    a source cell is longer than h.  A domain without a chart raises
    ``GeometryError``; a grid over the mesher's node budget raises
    ``MeshingError`` before it is allocated.
    """
    if not domain.charts:
        raise GeometryError(f"domain {domain.name!r} has no chart to straighten")
    if not (collar_depth > 0 and h > 0):
        raise GeometryError("collar depth and mesh size h must be positive")
    chart = domain.charts[0]
    base = float(chart.values.min()) - float(collar_depth)
    with np.errstate(over="ignore"):  # a tiny h gives inf columns, which the budget refuses
        pieces = np.maximum(1, np.ceil(np.diff(chart.xs) / h - 1e-12))
    levels = max(1, np.ceil((float(chart.values.max()) - base) / h - 1e-12))
    _check_budget(float(pieces.sum() + 1) * float(levels + 1), h)

    # column index to x, piecewise linear: chart piece i spans columns knots[i..i+1]
    knots = np.concatenate([[0], np.cumsum(pieces)])
    stations = np.interp(np.arange(knots[-1] + 1), knots, chart.xs)
    if (chart(stations) - base <= 0).any():
        raise GeometryError("collar base must stay strictly below the graph")

    # The collar rectangle footprint must stay inside the domain: sample a
    # safety grid strictly inside and check membership.
    gx = 0.5 * (stations[:-1] + stations[1:])
    probe = np.stack([gx, np.full_like(gx, base + 1e-9)], axis=1)
    if not domain.contains(probe).all():
        raise GeometryError("collar of this depth leaves the domain")

    return StraighteningMap(domain, chart, base, stations, int(levels), float(h))


def build_matched_meshes(smap: StraighteningMap) -> tuple[TriangleMesh, TriangleMesh]:
    """Node-matched meshes of the source domain and its straightened image at ``smap.h``.

    Requires the chart to span a full horizontal side of the domain over a
    rectangular remainder: the two polygon vertices off the chart are the
    bottom corners below the chart's ends (the catalog square and sawtooth
    domains qualify).  Both meshes are one structured grid: a lower grid of
    spacing at most h fills the remainder up to the base line, and the
    collar nodes of ``smap.nodes()`` stand on its top row.  Every cell splits
    as ``_CELL_SPLIT`` says, so the collar triangles are the straightening
    pieces in piece order.  The source mesh takes the source node positions,
    the image mesh the image positions (the lower grid is the same in both),
    and the connectivity is identical.  A grid over the mesher's node budget
    raises ``MeshingError`` before it is allocated.
    """
    dom, chart, h = smap.domain, smap.chart, smap.h
    x0, x1 = chart.xs[0], chart.xs[-1]

    # With k0 the bottom-left corner (the chart's first piece ends at k0 - 1), the bottom
    # is segment k0, the right side k0 + 1, the left side k0 - 1; the chart covers the rest.
    n = dom.n_segments
    k0 = (chart.segment_ids[0] + 2) % n
    sides = (k0 + np.arange(-1, 2)) % n
    yb = float(dom.vertices[k0, 1])
    if not (
        np.array_equal(np.sort(np.concatenate([chart.segment_ids, sides])), np.arange(n))
        and np.allclose(dom.vertices[sides[1:]], [[x0, yb], [x1, yb]], rtol=0, atol=1e-12)
        and yb < smap.base
    ):
        raise GeometryError(
            "matched meshing needs a full-width chart over a rectangular remainder"
        )
    stations = smap.stations
    nx = stations.size
    rows = np.ceil((smap.base - yb) / h - 1e-12)
    _check_budget(nx * (rows + 1 + smap.levels), h)
    nrow_lower = max(1, int(rows))
    ys_lower = yb + (smap.base - yb) * np.arange(nrow_lower + 1) / nrow_lower

    # Node ids: the lower grid column by column, then collar levels 1..levels
    # column by column; collar level 0 is the lower grid's top row.
    lower = np.arange(nx * (nrow_lower + 1)).reshape(nx, nrow_lower + 1)
    collar = np.hstack([lower[:, -1:], lower.size + np.arange(nx * smap.levels).reshape(nx, -1)])
    lower_xy = np.stack(
        [np.broadcast_to(stations[:, None], lower.shape), np.broadcast_to(ys_lower, lower.shape)],
        axis=2,
    ).reshape(-1, 2)
    pre, post = (np.vstack([lower_xy, xy[:, 1:].reshape(-1, 2)]) for xy in smap.nodes())
    tris = np.vstack([_cell_triangles(lower), _cell_triangles(collar)])

    # boundary edges, interior on the left: bottom, right side, the graph
    # right to left, left side
    g = np.hstack([lower, collar[:, 1:]])
    bottom = np.stack([g[:-1, 0], g[1:, 0]], axis=1)
    right = np.stack([g[-1, :-1], g[-1, 1:]], axis=1)
    graph = np.stack([g[:0:-1, -1], g[-2::-1, -1]], axis=1)
    left = np.stack([g[0, :0:-1], g[0, -2::-1]], axis=1)
    edges = np.vstack([bottom, right, graph, left])
    mids = 0.5 * (stations[1:] + stations[:-1])
    parents = np.concatenate(
        [
            np.full(len(bottom), sides[1]),
            np.full(len(right), sides[2]),
            chart.segment_ids[np.searchsorted(chart.xs, mids[::-1]) - 1],
            np.full(len(left), sides[0]),
        ]
    )
    normals_pre = dom.segment_normals()[parents]

    mesh_pre = TriangleMesh(pre, tris, edges, parents, normals_pre, h)

    d_post = post[edges[:, 1]] - post[edges[:, 0]]
    normals_post = np.stack([d_post[:, 1], -d_post[:, 0]], axis=1)
    normals_post /= np.linalg.norm(normals_post, axis=1)[:, None]
    mesh_post = TriangleMesh(post, tris.copy(), edges.copy(), parents.copy(), normals_post, h)
    return mesh_pre, mesh_post
