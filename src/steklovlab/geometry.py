"""Polygon domains, meshes, and piecewise-affine straightening.

The boundary of every domain here is a simple CCW polygon.  A domain whose top
is a graph ``y = psi(x)`` over a rectangle can be straightened: the collar
between the graph and a horizontal base line is flattened by a piecewise-affine
map with explicit per-piece Jacobians, exact at mesh nodes, so discrete energy
and boundary forms transport exactly.
"""

from __future__ import annotations

import io
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._mesher import DIAMETER_FACTOR, MAX_INSERTIONS, MeshingError, triangulate_polygon

__all__ = [
    "GeometryError",
    "MeshingError",
    "PolygonDomain",
    "TriangleMesh",
    "StraighteningMap",
    "make_domain",
    "triangulate",
    "build_straightening",
]


class GeometryError(ValueError):
    """Invalid polygon or straightening input."""


# ---------------------------------------------------------------------------
# domains


@dataclass
class PolygonDomain:
    """Simple CCW polygon.

    ``vertices`` has shape (k, 2); segment ``i`` runs from vertex ``i`` to
    vertex ``i+1`` (cyclically).  The span must lie in [2^-200, 2^200], where
    no product of up to four lengths leaves the normal doubles, so a domain
    scaled by a power of two meshes and solves to the scaled result exactly.
    An edge below 1e-14 span is a repeated vertex, and an area below
    1e-14 span² / 2 is degenerate.
    """

    vertices: np.ndarray
    name: str = "polygon"

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise GeometryError("polygon needs at least 3 planar vertices")
        if not np.isfinite(v).all():
            raise GeometryError("polygon vertices must be finite")
        self.vertices = v
        span = self.span
        if not 2.0**-200 <= span <= 2.0**200:
            raise GeometryError(f"polygon span {span:g} is outside [2^-200, 2^200]")
        if np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1).min() < 1e-14 * span:
            raise GeometryError("polygon has repeated consecutive vertices")
        area2 = _signed_area2(v)
        if area2 < 0:
            v = v[::-1].copy()
            area2 = -area2
        if area2 < 1e-14 * span * span:
            raise GeometryError("polygon is degenerate (zero area)")
        _check_simple(v)
        self.vertices = v

    # -- derived quantities --------------------------------------------------

    @property
    def n_segments(self) -> int:
        return len(self.vertices)

    @property
    def span(self) -> float:
        """The larger side of the bounding box."""
        return float(np.ptp(self.vertices, axis=0).max())

    def segment_points(self):
        """Pairs (p, q) for each boundary segment, CCW."""
        return self.vertices, np.roll(self.vertices, -1, axis=0)

    def segment_nodes(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Points at the fractions ``t`` of every segment, segment by segment,
        and the segment id of each point."""
        p, q = self.segment_points()
        t = np.asarray(t, dtype=float)[None, :, None]
        pts = p[:, None, :] + t * (q - p)[:, None, :]
        return pts.reshape(-1, 2), np.repeat(np.arange(self.n_segments), t.size)

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


def _signed_area2(v: np.ndarray) -> float:
    x, y = v[:, 0], v[:, 1]
    return float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _check_simple(v: np.ndarray):
    """Reject a polygon two of whose non-adjacent edges share a point: a
    crossing, a vertex on another edge, or collinear edges that overlap
    (vectorized segment-pair test)."""
    n = len(v)
    p = v
    q = np.roll(v, -1, axis=0)
    d = q - p
    lo, hi = np.minimum(p, q), np.maximum(p, q)
    # orientation of point r relative to segment i: cross(d_i, r - p_i)
    for i in range(n):
        js = np.arange(i + 2, n if i > 0 else n - 1)
        # only an edge whose bounding box meets edge i's can share a point with
        # it; for collinear edges, that decides
        js = js[(lo[js] <= hi[i]).all(axis=1) & (lo[i] <= hi[js]).all(axis=1)]
        if js.size == 0:
            continue
        def cross2(u, w):
            return u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0]

        o1 = cross2(d[i], p[js] - p[i])
        o2 = cross2(d[i], q[js] - p[i])
        o3 = cross2(d[js], p[i] - p[js])
        o4 = cross2(d[js], q[i] - p[js])
        # each edge reaches the other's line; signs, not products, which
        # underflow to 0 for nearly collinear points
        if ((np.sign(o1) * np.sign(o2) <= 0) & (np.sign(o3) * np.sign(o4) <= 0)).any():
            raise GeometryError("polygon is self-intersecting or touches itself")


# ---------------------------------------------------------------------------
# catalog


def _not_finite(v) -> bool:
    """A boolean (a config's ``yes``), or a number that is not finite."""
    try:
        return isinstance(v, bool) or isinstance(v, numbers.Real) and not math.isfinite(v)
    except OverflowError:  # an int beyond float range
        return True


def _shown(value) -> str:
    """``repr(value)``, with the middle of a long one (a 400-digit integer) cut out."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:16]}...{text[-8:]} ({len(text)} characters)"


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
            raise error(f"{kind} {key!r}: {pname} must be a finite number (got {_shown(value)})")
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
    return PolygonDomain(verts, "square")


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
    return PolygonDomain(np.array(verts), "sawtooth-square")


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
    left; ``boundary_parent[k]`` is the polygon segment realizing it.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_parent: np.ndarray
    h: float

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

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
        """The mesh as text: a ``steklovlab-mesh 2`` header, then h, the
        nodes, the triangles, and ``u v parent`` per boundary edge."""
        out = io.StringIO()
        out.write("steklovlab-mesh 2\n")
        out.write(f"h {self.h:.17g}\n")
        out.write(f"nodes {self.n_nodes}\n")
        for x, y in self.nodes:
            out.write(f"{x:.17g} {y:.17g}\n")
        out.write(f"triangles {len(self.triangles)}\n")
        for a, b, c in self.triangles:
            out.write(f"{a} {b} {c}\n")
        out.write(f"boundary {len(self.boundary_edges)}\n")
        for (u, v), parent in zip(self.boundary_edges, self.boundary_parent):
            out.write(f"{u} {v} {parent}\n")
        return out.getvalue()


def triangulate(domain: PolygonDomain, h: float) -> TriangleMesh:
    """Quality constrained-Delaunay mesh with longest element edge <= 1.5 h and,
    where input angles are 60 degrees or more, no angle below ``MIN_ANGLE_DEG``."""
    return TriangleMesh(*triangulate_polygon(domain.vertices, h), float(h))


# ---------------------------------------------------------------------------
# straightening

# The two triangles of a grid cell, as (column, row) offsets of their corners
# from the cell's lower-left node: half 0 lies below the diagonal from the
# lower-left to the upper-right node, half 1 above it.
_CELL_SPLIT = np.array([[[0, 0], [1, 0], [1, 1]], [[0, 0], [1, 1], [0, 1]]])


def _cell_triangles(grid: np.ndarray) -> np.ndarray:
    """Both triangles of every cell of a node-id grid indexed ``[column, row]``.

    The triangles come in (column, row, half) order: half s of cell (i, j) is
    triangle ``2 (i·rows + j) + s``, with ``rows`` cells per column.
    """
    ncol, nrow = grid.shape[0] - 1, grid.shape[1] - 1
    i = np.arange(ncol)[:, None, None, None] + _CELL_SPLIT[..., 0]
    j = np.arange(nrow)[None, :, None, None] + _CELL_SPLIT[..., 1]
    return grid[i, j].reshape(2 * ncol * nrow, 3)


@dataclass
class StraighteningMap:
    """Piecewise-affine flattening of a graph collar, with its node-matched meshes.

    The collar is the region between the domain's top graph and the
    horizontal base line ``y = base``.  ``source`` and ``image`` are one
    structured grid with the same node numbering and triangles: a lower grid
    fills the rectangle below the base line, and the collar grid has a node
    column at each of the ``stations`` with ``levels + 1`` nodes per column,
    level 0 being the lower grid's top row.  In the source, level j sits
    j/levels of the local collar thickness above the base line; in the image,
    j/levels of the graph width w = x1 - x0, so the collar maps onto the box
    ``[x0, x1] x (base, base + w]``; the lower grid is the same in both.
    Every grid cell splits into two triangles as ``_CELL_SPLIT`` says, and the
    map is affine on each collar triangle: half s of collar cell (i, j) is
    piece k = ``2 (i·levels + j) + s``, mesh triangle ``first + k``.
    ``jacobians[k]`` is the constant 2x2 Jacobian on piece k and ``dets[k]``
    its determinant, both computed on first use.  Outside the collar the map
    is the identity; the glue along the base line is continuous.
    """

    source: TriangleMesh
    image: TriangleMesh
    base: float
    stations: np.ndarray
    levels: int

    @property
    def first(self) -> int:
        """Mesh index of the first collar triangle, piece 0."""
        return len(self.source.triangles) - 2 * (self.stations.size - 1) * self.levels

    @cached_property
    def jacobians(self) -> np.ndarray:
        # On each piece, image = J (source - corner 0) + image corner 0; the
        # edge vectors from corner 0 are the columns of dpre and dpost.
        dpre, dpost = (
            np.stack([t[:, 1] - t[:, 0], t[:, 2] - t[:, 0]], axis=2)
            for t in (m.nodes[m.triangles[self.first :]] for m in (self.source, self.image))
        )
        return dpost @ np.linalg.inv(dpre)

    @cached_property
    def dets(self) -> np.ndarray:
        return np.linalg.det(self.jacobians)

    def pull(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Source position and piece of each image-coordinate point.

        Points off the image box keep their position and get piece -1.  Image
        cells are axis-aligned rectangles, so a point's cell follows from its
        coordinates and its half from the side of the cell diagonal it is on.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        x, y = pts[:, 0], pts[:, 1]
        src = pts.copy()
        piece = np.full(len(pts), -1, dtype=np.int64)
        x0, x1 = self.stations[0], self.stations[-1]
        width = x1 - x0
        hit = (x >= x0) & (x <= x1) & (y > self.base) & (y <= self.base + width)
        if not hit.any():
            return src, piece
        xi, yi = x[hit], y[hit]
        cols = np.searchsorted(self.stations, xi, side="right") - 1
        cols = np.clip(cols, 0, self.stations.size - 2)
        rows = np.floor((yi - self.base) / width * self.levels).astype(np.int64)
        rows = np.clip(rows, 0, self.levels - 1)
        # half 0 of the cell: its lower-left, lower-right and upper-right corners
        corners = self.image.triangles[self.first + 2 * (cols * self.levels + rows)]
        lo, hi = self.image.nodes[corners[:, 0]], self.image.nodes[corners[:, 2]]
        above = (yi - lo[:, 1]) * (hi[:, 0] - lo[:, 0]) > (xi - lo[:, 0]) * (hi[:, 1] - lo[:, 1])
        piece[hit] = 2 * (cols * self.levels + rows) + above
        inv = np.linalg.inv(self.jacobians)[piece[hit]]
        src[hit] = np.einsum("kij,kj->ki", inv, pts[hit] - lo) + self.source.nodes[corners[:, 0]]
        return src, piece


COLLAR_DEPTH = 0.25  # base line below the graph's lowest point, in graph widths


def _collar_columns(xs, ys, base, pieces):
    """Column knots of the graph pieces, the station of each column edge and
    the collar thickness there: graph piece i spans columns knots[i..i+1]."""
    knots = np.concatenate([[0], np.cumsum(pieces)])
    stations = np.interp(np.arange(knots[-1] + 1), knots, xs)
    return knots, stations, np.interp(stations, xs, ys) - base


def _longest_collar_edges(stations, thick, base, levels):
    """Longest source-mesh edge in each collar column, measured as
    ``TriangleMesh.edge_lengths`` measures it.  Vertical sides are at most h
    by construction; the others cross the column."""
    y = base + np.arange(levels + 1) / levels * thick[:, None]
    dx2 = np.diff(stations)[:, None] ** 2
    dy = np.hstack([np.diff(y, axis=0), y[1:, 1:] - y[:-1, :-1]])
    return np.sqrt(dx2 + dy * dy).max(axis=1)


def _column_width_within(bound, slope, depth):
    """Widest column on a graph piece of the given slope whose cells keep
    every edge within ``bound`` when one collar level is at most ``depth``
    thick.  A cell's rising edges climb at most ``depth`` plus the slope's
    rise when the piece goes up to the right, and the slope's rise when it
    goes down; solve dx² + (depth + s⁺dx)² = bound² and cap the slanted sides
    at dx√(1 + s²) = bound."""
    up = np.maximum(slope, 0.0)
    diagonal = (np.sqrt(bound**2 * (1 + up**2) - depth**2) - up * depth) / (1 + up**2)
    return np.minimum(diagonal, bound / np.sqrt(1 + slope**2))


def build_straightening(domain: PolygonDomain, h: float) -> StraighteningMap:
    """The collar-flattening map of the domain's top graph at mesh size ``h``,
    with its node-matched source and image meshes.

    The domain must be a graph over a rectangle.  Its CCW vertices from the
    bottom-left corner k0 (the lowest, then leftmost) are the bottom-right
    corner and then the graph from right to left, and the graph's ends stand
    exactly above the bottom corners; graph piece i, counted left to right,
    is polygon segment (k0 + n - 2 - i) mod n.  The base line sits
    ``COLLAR_DEPTH`` graph widths below the lowest point of the graph and
    strictly above the bottom side, so the collar lies inside the domain.
    Each graph piece splits into ⌈width/h⌉ equal columns, the collar into
    ⌈largest collar thickness/h⌉ levels and the rectangle below it into
    ⌈its height/h⌉ rows, so no vertical side of a source cell is longer than
    h.  A cell's other sides follow the graph's slope, so on a steep piece
    they can pass the mesher's bound of ``DIAMETER_FACTOR``·h; each piece
    whose cells do gets the columns that bring every edge within it, and no
    other piece changes.  A domain of another shape raises ``GeometryError``;
    a grid over the mesher's node budget, before or after that refinement,
    raises ``MeshingError`` before it is allocated.
    """
    if not 0 < h < math.inf:  # False for NaN too
        raise GeometryError("mesh size h must be finite and positive")
    v, n = domain.vertices, domain.n_segments
    k0 = int(np.lexsort((v[:, 0], v[:, 1]))[0])
    xs, ys = v[(k0 - 1 - np.arange(n - 2)) % n].T
    (xb, yb), (xr, yr) = v[k0], v[(k0 + 1) % n]
    width = xs[-1] - xs[0]
    base = float(ys.min()) - COLLAR_DEPTH * width
    corners = np.array_equal([xb, xr, yr], [xs[0], xs[-1], yb])
    if not (n >= 4 and (np.diff(xs) > 0).all() and corners and yb < base):
        raise GeometryError(
            f"domain {domain.name!r} is not a graph over a rectangular remainder below its collar"
        )

    def check_budget():
        nodes = (float(pieces.sum()) + 1) * float(rows + 1 + levels)
        if not nodes <= MAX_INSERTIONS:
            raise MeshingError(
                f"h = {h:g} needs {nodes:.3g} nodes, over the budget {MAX_INSERTIONS}"
            )

    with np.errstate(over="ignore"):  # a tiny h gives inf counts, which the budget refuses
        pieces = np.maximum(1, np.ceil(np.diff(xs) / h - 1e-12))
        levels = max(1, np.ceil((float(ys.max()) - base) / h - 1e-12))
        rows = max(1, np.ceil((base - yb) / h - 1e-12))
        check_budget()
    pieces, levels, rows = pieces.astype(np.int64), int(levels), int(rows)
    knots, stations, thick = _collar_columns(xs, ys, base, pieces)
    if (thick <= 0).any():
        raise GeometryError("collar base must stay strictly below the graph")

    bound = DIAMETER_FACTOR * h
    longest = _longest_collar_edges(stations, thick, base, levels)
    long = np.maximum.reduceat(longest, knots[:-1]) > bound
    if long.any():
        run = np.diff(xs)[long]
        depth = np.maximum(thick[knots[:-1]], thick[knots[1:]])[long] / levels
        fit = _column_width_within(bound, np.diff(ys)[long] / run, depth)
        pieces[long] = np.maximum(pieces[long], np.floor(run / fit) + 1)
        check_budget()
        knots, stations, thick = _collar_columns(xs, ys, base, pieces)
    nx = stations.size

    # Node ids: the lower grid column by column, then collar levels 1..levels
    # column by column; collar level 0 is the lower grid's top row, at base.
    lower = np.arange(nx * (rows + 1)).reshape(nx, rows + 1)
    collar = np.hstack([lower[:, -1:], lower.size + np.arange(nx * levels).reshape(nx, -1)])
    g = np.hstack([lower, collar[:, 1:]])
    lower_y = yb + (base - yb) * np.arange(rows + 1) / rows
    lower_y[-1] = base
    frac = np.arange(1, levels + 1) / levels
    pre, post = np.empty((g.size, 2)), np.empty((g.size, 2))
    for xy, collar_y in ((pre, base + frac * thick[:, None]), (post, base + frac * width)):
        xy[g, 0] = stations[:, None]
        xy[lower, 1] = lower_y
        xy[collar[:, 1:], 1] = collar_y
    tris = np.vstack([_cell_triangles(lower), _cell_triangles(collar)])

    # boundary edges, interior on the left: bottom, right side, the graph
    # right to left, left side
    bottom = np.stack([g[:-1, 0], g[1:, 0]], axis=1)
    right = np.stack([g[-1, :-1], g[-1, 1:]], axis=1)
    graph = np.stack([g[:0:-1, -1], g[-2::-1, -1]], axis=1)
    left = np.stack([g[0, :0:-1], g[0, -2::-1]], axis=1)
    edges = np.vstack([bottom, right, graph, left])
    piece_ids = (k0 - 2 - np.arange(len(pieces))) % n
    parents = np.concatenate(
        [
            np.full(len(bottom), k0),
            np.full(len(right), (k0 + 1) % n),
            np.repeat(piece_ids, pieces)[::-1],
            np.full(len(left), (k0 - 1) % n),
        ]
    )
    source = TriangleMesh(pre, tris, edges, parents, float(h))
    image = TriangleMesh(post, tris.copy(), edges.copy(), parents.copy(), float(h))
    return StraighteningMap(source, image, base, stations, levels)
