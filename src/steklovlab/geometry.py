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
from dataclasses import dataclass, field

import numpy as np

from ._mesher import DIAMETER_FACTOR, MeshingError, triangulate_polygon

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

    @property
    def slopes(self) -> np.ndarray:
        return np.diff(self.values) / np.diff(self.xs)

    @property
    def lipschitz_bound(self) -> float:
        return float(np.abs(self.slopes).max())

    def __call__(self, x):
        return np.interp(x, self.xs, self.values)

    def piece_of(self, x) -> np.ndarray:
        """Index of the chart piece containing x (right-closed on the last)."""
        idx = np.searchsorted(self.xs, np.asarray(x, dtype=float), side="right") - 1
        return np.clip(idx, 0, self.xs.size - 2)


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
    params: dict = field(default_factory=dict)
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

    def scaled(self, factor: float, center=None) -> "PolygonDomain":
        c = np.zeros(2) if center is None else np.asarray(center, dtype=float)
        return PolygonDomain(
            (self.vertices - c) * factor + c,
            name=self.name,
            params={**self.params, "scaled_by": factor},
        )

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        out = io.StringIO()
        out.write(f"steklovlab-domain 1 {self.name}\n")
        out.write(f"vertices {len(self.vertices)}\n")
        for x, y in self.vertices:
            out.write(f"{x:.17g} {y:.17g}\n")
        return out.getvalue()

    @staticmethod
    def from_text(text: str) -> "PolygonDomain":
        lines = text.strip().splitlines()
        head = lines[0].split()
        if head[:2] != ["steklovlab-domain", "1"]:
            raise GeometryError("not a steklovlab domain file")
        count = int(lines[1].split()[1])
        verts = [tuple(map(float, lines[2 + i].split())) for i in range(count)]
        return PolygonDomain(np.array(verts), name=head[2] if len(head) > 2 else "polygon")


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


def _regular_ngon(n: int = 64, radius: float = 1.0) -> PolygonDomain:
    if n < 3:
        raise GeometryError("regular-ngon needs n >= 3")
    ang = 2.0 * np.pi * np.arange(n) / n
    verts = radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return PolygonDomain(verts, "regular-ngon", {"n": n, "radius": radius})


def _square(side: float = 1.0) -> PolygonDomain:
    s = float(side)
    verts = np.array([[0.0, 0.0], [s, 0.0], [s, s], [0.0, s]])
    dom = PolygonDomain(verts, "square", {"side": side})
    # Flat chart along the top side (segment 2 runs right-to-left).
    dom.charts.append(
        LipschitzChart(np.array([0.0, s]), np.array([s, s]), np.array([2]))
    )
    return dom


def _lshape(size: float = 1.0, notch: float = 0.5) -> PolygonDomain:
    s, c = float(size), float(notch) * float(size)
    if not 0 < c < s:
        raise GeometryError("lshape notch must satisfy 0 < notch < 1")
    verts = np.array(
        [[0, 0], [s, 0], [s, c], [c, c], [c, s], [0, s]], dtype=float
    )
    return PolygonDomain(verts, "lshape", {"size": size, "notch": notch})


def _sawtooth_square(teeth: int = 8, slope: float = 1.0) -> PolygonDomain:
    """Unit square whose top side is a triangle wave of the given slope."""
    m, s = int(teeth), float(slope)
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
    dom = PolygonDomain(np.array(verts), "sawtooth-square", {"teeth": m, "slope": s})
    # Chart pieces map to polygon segments: segment j runs vertex j -> j+1.
    # Vertices 2 .. 2 + 2m are the top, in decreasing x, so the chart piece
    # [xs[i], xs[i+1]] is polygon segment (2 + 2m - 1 - i).
    npieces = 2 * m
    seg_ids = np.array([2 + npieces - 1 - i for i in range(npieces)])
    dom.charts.append(LipschitzChart(np.array(xs), np.array(ys), seg_ids))
    return dom


def _koch_prefractal(level: int = 2, side: float = 1.0) -> PolygonDomain:
    """Von Koch snowflake prefractal, outward bumps, CCW."""
    lv = int(level)
    if not 0 <= lv <= 4:
        raise GeometryError("koch-prefractal level must be 0..4")
    s = float(side)
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
    return PolygonDomain(pts, "koch-prefractal", {"level": lv, "side": s})


_CATALOG = {
    "regular-ngon": _regular_ngon,
    "square": _square,
    "lshape": _lshape,
    "sawtooth-square": _sawtooth_square,
    "koch-prefractal": _koch_prefractal,
}


def make_domain(name: str, **params) -> PolygonDomain:
    """Build a catalog domain: regular-ngon, square, lshape, sawtooth-square,
    koch-prefractal.  An unknown parameter or one of the wrong type raises
    ``GeometryError`` naming the domain."""
    key = name.strip().lower().replace("_", "-")
    if key not in _CATALOG:
        raise GeometryError(
            f"unknown domain {name!r}; catalog: {sorted(_CATALOG)}"
        )
    try:
        return _CATALOG[key](**params)
    except GeometryError:
        raise
    except (TypeError, ValueError) as exc:
        raise GeometryError(f"domain {key!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# meshes


@dataclass
class TriangleMesh:
    """Conforming triangle mesh of a polygon.

    ``boundary_edges[k] = (u, v)`` is directed so the interior lies to its
    left; ``boundary_parent[k]`` is the polygon segment realizing it and
    ``boundary_normals[k]`` its outward unit normal.  ``collar_piece`` tags
    each triangle with the straightening piece containing it (-1 outside any
    collar); plain meshes carry all -1.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_parent: np.ndarray
    boundary_normals: np.ndarray
    h: float
    collar_piece: np.ndarray | None = None

    def __post_init__(self):
        if self.collar_piece is None:
            self.collar_piece = np.full(len(self.triangles), -1, dtype=np.int64)

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

    @staticmethod
    def from_text(text: str) -> "TriangleMesh":
        lines = text.strip().splitlines()
        if lines[0].split() != ["steklovlab-mesh", "1"]:
            raise GeometryError("not a steklovlab mesh file")
        pos = 1
        h = float(lines[pos].split()[1])
        pos += 1
        nn = int(lines[pos].split()[1])
        pos += 1
        nodes = np.array(
            [list(map(float, lines[pos + i].split())) for i in range(nn)]
        )
        pos += nn
        nt = int(lines[pos].split()[1])
        pos += 1
        tris = np.array(
            [list(map(int, lines[pos + i].split())) for i in range(nt)],
            dtype=np.int64,
        )
        pos += nt
        nb = int(lines[pos].split()[1])
        pos += 1
        edges = np.empty((nb, 2), dtype=np.int64)
        parents = np.empty(nb, dtype=np.int64)
        normals = np.empty((nb, 2))
        for i in range(nb):
            parts = lines[pos + i].split()
            edges[i] = (int(parts[0]), int(parts[1]))
            parents[i] = int(parts[2])
            normals[i] = (float(parts[3]), float(parts[4]))
        return TriangleMesh(nodes, tris, edges, parents, normals, h)


def triangulate(domain: PolygonDomain, h: float, *, min_angle_deg: float = 20.0) -> TriangleMesh:
    """Quality constrained-Delaunay mesh with max element diameter <= 1.5 h."""
    raw = triangulate_polygon(
        domain.vertices, h, min_angle_deg=min_angle_deg
    )
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


@dataclass
class StraighteningMap:
    """Piecewise-affine flattening of a graph collar.

    The collar is the region between the chart graph and the horizontal base
    line ``y = base``; it maps onto the rectangle ``[x0, x1] x [base, base+1]``
    by vertical normalization, realized as affine maps on a tensor grid of
    triangles (``stations`` columns by ``levels`` rows, two triangles per
    cell).  Outside the collar the map is the identity; the glue along the
    base line is continuous.

    ``pieces_pre``/``pieces_post`` hold the triangle vertex coordinates in
    source and image coordinates; ``jacobians[k]`` is the constant 2x2 Jacobian
    of the map on piece ``k`` and ``dets[k]`` its determinant.
    """

    domain: PolygonDomain
    chart: LipschitzChart
    collar_depth: float
    base: float
    stations: np.ndarray
    levels: int
    pieces_pre: np.ndarray
    pieces_post: np.ndarray
    jacobians: np.ndarray
    dets: np.ndarray

    # -- evaluation -------------------------------------------------------

    def _column_of(self, x):
        idx = np.searchsorted(self.stations, x, side="right") - 1
        return np.clip(idx, 0, self.stations.size - 2)

    def piece_of_source_points(self, points) -> np.ndarray:
        """Piece index containing each source-coordinate point (-1 outside).

        In source coordinates the row boundaries within a column interpolate
        linearly between the station thicknesses, so a point's cell follows
        from its fractional height; the in-cell triangle is decided against
        the lower-left/upper-right diagonal.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        x, y = pts[:, 0], pts[:, 1]
        out = np.full(len(pts), -1, dtype=np.int64)
        cols = self._column_of(x)
        s0 = self.stations[cols]
        s1 = self.stations[cols + 1]
        t = (x - s0) / (s1 - s0)
        local_thick = (1 - t) * self._thick[cols] + t * self._thick[cols + 1]
        frac = (y - self.base) / local_thick
        inside = (
            (x >= self.stations[0] - 1e-12)
            & (x <= self.stations[-1] + 1e-12)
            & (frac > 1e-14)
            & (frac <= 1 + 1e-12)
        )
        if not inside.any():
            return out
        rows = np.clip((frac[inside] * self.levels).astype(np.int64), 0, self.levels - 1)
        k0 = 2 * (cols[inside] * self.levels + rows)
        q0 = self.pieces_pre[k0, 0]
        q2 = self.pieces_pre[k0, 2]
        d = q2 - q0
        rel_x = x[inside] - q0[:, 0]
        rel_y = y[inside] - q0[:, 1]
        lower = d[:, 0] * rel_y - d[:, 1] * rel_x <= 0
        out[inside] = k0 + np.where(lower, 0, 1)
        return out

    def _affine(self, pts, pieces, src, dst, jac):
        pts = np.atleast_2d(np.asarray(pts, dtype=float)).copy()
        hit = pieces >= 0
        if hit.any():
            k = pieces[hit]
            rel = pts[hit] - src[k, 0]
            pts[hit] = np.einsum("kij,kj->ki", jac[k], rel) + dst[k, 0]
        return pts

    def apply(self, points) -> np.ndarray:
        """Forward map (flatten the collar); identity outside it."""
        pieces = self.piece_of_source_points(points)
        return self._affine(points, pieces, self.pieces_pre, self.pieces_post, self.jacobians)

    def apply_inverse(self, points) -> np.ndarray:
        pieces = self.piece_of_image_points(points)
        inv = np.linalg.inv(self.jacobians)
        return self._affine(points, pieces, self.pieces_post, self.pieces_pre, inv)

    def piece_of_image_points(self, points) -> np.ndarray:
        """Piece index containing each image-coordinate point (-1 outside)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        x, y = pts[:, 0], pts[:, 1]
        out = np.full(len(pts), -1, dtype=np.int64)
        inside = (
            (x >= self.stations[0] - 1e-12)
            & (x <= self.stations[-1] + 1e-12)
            & (y > self.base + 1e-14)
            & (y <= self.base + 1.0 + 1e-12)
        )
        if not inside.any():
            return out
        xi = x[inside]
        yi = y[inside]
        cols = self._column_of(xi)
        rows = np.clip(
            np.floor((yi - self.base) * self.levels).astype(np.int64),
            0,
            self.levels - 1,
        )
        # cell-local diagonal test: cell image corners are axis-aligned
        x0 = self.stations[cols]
        x1 = self.stations[cols + 1]
        y0 = self.base + rows / self.levels
        y1 = self.base + (rows + 1) / self.levels
        lower = (yi - y0) * (x1 - x0) <= (xi - x0) * (y1 - y0)
        out[inside] = 2 * (cols * self.levels + rows) + np.where(lower, 0, 1)
        return out

    @property
    def _thick(self):
        return self.chart(self.stations) - self.base


def build_straightening(
    domain: PolygonDomain,
    chart: LipschitzChart,
    collar_depth: float,
    *,
    resolution: float | None = None,
) -> StraighteningMap:
    """Construct the collar-flattening map for a full-width boundary chart.

    ``collar_depth`` fixes the base line at ``min(psi) - collar_depth``; the
    collar must stay inside the domain, which is checked.  ``resolution``
    refines the piece tensor to roughly that spacing (by default the pieces
    are one column per chart segment and a single row).
    """
    if collar_depth <= 0:
        raise GeometryError("collar depth must be positive")
    base = float(chart.values.min()) - float(collar_depth)

    stations = chart.xs.copy()
    levels = 1
    if resolution is not None:
        if resolution <= 0:
            raise GeometryError("resolution must be positive")
        refined = [stations[0]]
        for x0, x1 in zip(stations[:-1], stations[1:]):
            pieces = max(1, int(math.ceil((x1 - x0) / resolution - 1e-12)))
            refined.extend(x0 + (x1 - x0) * (np.arange(1, pieces + 1) / pieces))
        stations = np.array(refined)
        mean_thick = float(np.mean(chart(stations) - base))
        levels = max(1, int(math.ceil(mean_thick / resolution - 1e-12)))

    thick = chart(stations) - base
    if (thick <= 0).any():
        raise GeometryError("collar base must stay strictly below the graph")

    # The collar rectangle footprint must stay inside the domain: sample a
    # safety grid strictly inside and check membership.
    gx = 0.5 * (stations[:-1] + stations[1:])
    probe = np.stack([gx, np.full_like(gx, base + 1e-9)], axis=1)
    if not domain.contains(probe).all():
        raise GeometryError("collar of this depth leaves the domain")

    ncol = stations.size - 1
    pieces_pre = np.empty((2 * ncol * levels, 3, 2))
    pieces_post = np.empty_like(pieces_pre)
    jac = np.empty((2 * ncol * levels, 2, 2))
    dets = np.empty(2 * ncol * levels)

    def pre_node(i, j):
        return np.array([stations[i], base + (j / levels) * thick[i]])

    def post_node(i, j):
        return np.array([stations[i], base + j / levels])

    for i in range(ncol):
        for j in range(levels):
            quad_pre = [pre_node(i, j), pre_node(i + 1, j), pre_node(i + 1, j + 1), pre_node(i, j + 1)]
            quad_post = [post_node(i, j), post_node(i + 1, j), post_node(i + 1, j + 1), post_node(i, j + 1)]
            for s, ids in enumerate(((0, 1, 2), (0, 2, 3))):
                k = 2 * (i * levels + j) + s
                tri_pre = np.array([quad_pre[t] for t in ids])
                tri_post = np.array([quad_post[t] for t in ids])
                pieces_pre[k] = tri_pre
                pieces_post[k] = tri_post
                # affine map: post = J (pre - pre0) + post0
                dpre = np.stack([tri_pre[1] - tri_pre[0], tri_pre[2] - tri_pre[0]], axis=1)
                dpost = np.stack([tri_post[1] - tri_post[0], tri_post[2] - tri_post[0]], axis=1)
                J = dpost @ np.linalg.inv(dpre)
                jac[k] = J
                dets[k] = np.linalg.det(J)

    if (dets <= 0).any():
        raise GeometryError("straightening pieces must preserve orientation")

    return StraighteningMap(
        domain=domain,
        chart=chart,
        collar_depth=float(collar_depth),
        base=base,
        stations=stations,
        levels=levels,
        pieces_pre=pieces_pre,
        pieces_post=pieces_post,
        jacobians=jac,
        dets=dets,
    )


def build_matched_meshes(
    smap: StraighteningMap, h: float
) -> tuple[TriangleMesh, TriangleMesh]:
    """Meshes of the source domain and its straightened image, node-matched.

    Requires the chart to span a full horizontal side of the domain with a
    rectangular remainder below the collar (the catalog square and sawtooth
    domains qualify).  The source mesh's collar triangles coincide with the
    straightening pieces, so mapping nodes through the straightening gives an
    exactly matched image mesh with identical connectivity.
    """
    dom = smap.domain
    chart = smap.chart
    x0, x1 = chart.xs[0], chart.xs[-1]

    # Validate the rectangular remainder: the non-chart boundary must be the
    # path (x1, psi(x1)) down to (x1, yb), across to (x0, yb), up to (x0, psi(x0)).
    chart_pts = {(round(float(x), 12), round(float(chart(x)), 12)) for x in chart.xs}
    others = [
        v
        for v in dom.vertices
        if (round(float(v[0]), 12), round(float(v[1]), 12)) not in chart_pts
    ]
    if len(others) != 2:
        raise GeometryError(
            "matched meshing needs a full-width chart over a rectangular remainder"
        )
    yb = float(others[0][1])
    if not (
        math.isclose(others[0][1], others[1][1], abs_tol=1e-12)
        and {round(float(o[0]), 12) for o in others} == {round(float(x0), 12), round(float(x1), 12)}
        and yb < smap.base
    ):
        raise GeometryError(
            "matched meshing needs a full-width chart over a rectangular remainder"
        )

    if smap.pieces_pre.shape[0] < 4 and h < (x1 - x0):
        raise GeometryError(
            "straightening was built without resolution; rebuild with resolution=h"
        )

    stations = smap.stations
    levels = smap.levels
    base = smap.base
    thick = smap._thick
    nx = stations.size
    nrow_lower = max(1, int(math.ceil((base - yb) / h - 1e-12)))
    ys_lower = yb + (base - yb) * np.arange(nrow_lower + 1) / nrow_lower

    # node layout: lower grid rows 0..nrow_lower (top row is the base line),
    # then collar rows 1..levels stacked above, sharing the base-line nodes.
    def lower_id(i, j):
        return i * (nrow_lower + 1) + j

    n_lower = nx * (nrow_lower + 1)

    def collar_id(i, j):  # j = 1..levels
        return n_lower + i * levels + (j - 1)

    n_nodes = n_lower + nx * levels
    pre = np.empty((n_nodes, 2))
    post = np.empty((n_nodes, 2))
    for i in range(nx):
        for j in range(nrow_lower + 1):
            nid = lower_id(i, j)
            pre[nid] = (stations[i], ys_lower[j])
            post[nid] = pre[nid]
        for j in range(1, levels + 1):
            nid = collar_id(i, j)
            pre[nid] = (stations[i], base + (j / levels) * thick[i])
            post[nid] = (stations[i], base + j / levels)

    def node_at(i, j):
        """Global id for collar row j (0 = base line) at station i."""
        return lower_id(i, nrow_lower) if j == 0 else collar_id(i, j)

    tris = []
    piece = []
    for i in range(nx - 1):
        for j in range(nrow_lower):
            tris.append((lower_id(i, j), lower_id(i + 1, j), lower_id(i + 1, j + 1)))
            piece.append(-1)
            tris.append((lower_id(i, j), lower_id(i + 1, j + 1), lower_id(i, j + 1)))
            piece.append(-1)
    for i in range(nx - 1):
        for j in range(levels):
            k = 2 * (i * levels + j)
            tris.append((node_at(i, j), node_at(i + 1, j), node_at(i + 1, j + 1)))
            piece.append(k)
            tris.append((node_at(i, j), node_at(i + 1, j + 1), node_at(i, j + 1)))
            piece.append(k + 1)
    tris = np.array(tris, dtype=np.int64)
    piece = np.array(piece, dtype=np.int64)

    # boundary edges: bottom, right, left, and the graph on top
    edges = []
    parents = []

    def seg_id_for(p, q):
        """Polygon segment containing both endpoints (p, q on the boundary)."""
        v1, v2 = dom.segment_points()
        d = v2 - v1
        L2 = np.sum(d * d, axis=1)
        for cand in range(dom.n_segments):
            dd = d[cand]
            for r in (p, q):
                w = np.asarray(r) - v1[cand]
                cross = dd[0] * w[1] - dd[1] * w[0]
                t = (w @ dd) / L2[cand]
                if abs(cross) > 1e-9 or t < -1e-9 or t > 1 + 1e-9:
                    break
            else:
                return cand
        raise GeometryError("boundary edge does not lie on any polygon segment")

    for i in range(nx - 1):  # bottom, left-to-right keeps interior on the left
        u, v = lower_id(i, 0), lower_id(i + 1, 0)
        edges.append((u, v))
        parents.append(seg_id_for(pre[u], pre[v]))
    for j in range(nrow_lower):  # right side ascending
        u, v = lower_id(nx - 1, j), lower_id(nx - 1, j + 1)
        edges.append((u, v))
        parents.append(seg_id_for(pre[u], pre[v]))
    for j in range(levels):
        u, v = node_at(nx - 1, j), node_at(nx - 1, j + 1)
        edges.append((u, v))
        parents.append(seg_id_for(pre[u], pre[v]))
    for i in range(nx - 1, 0, -1):  # graph, right-to-left
        u, v = node_at(i, levels), node_at(i - 1, levels)
        edges.append((u, v))
        parents.append(int(chart.segment_ids[chart.piece_of(0.5 * (stations[i] + stations[i - 1]))]))
    for j in range(levels, 0, -1):  # left side descending
        u, v = node_at(0, j), node_at(0, j - 1)
        edges.append((u, v))
        parents.append(seg_id_for(pre[u], pre[v]))
    for j in range(nrow_lower, 0, -1):
        u, v = lower_id(0, j), lower_id(0, j - 1)
        edges.append((u, v))
        parents.append(seg_id_for(pre[u], pre[v]))

    edges = np.array(edges, dtype=np.int64)
    parents = np.array(parents, dtype=np.int64)
    normals_pre = dom.segment_normals()[parents]

    mesh_pre = TriangleMesh(pre, tris, edges, parents, normals_pre, float(h), piece)

    d_post = post[edges[:, 1]] - post[edges[:, 0]]
    normals_post = np.stack([d_post[:, 1], -d_post[:, 0]], axis=1)
    normals_post /= np.linalg.norm(normals_post, axis=1)[:, None]
    mesh_post = TriangleMesh(
        post, tris.copy(), edges.copy(), parents.copy(), normals_post, float(h), piece.copy()
    )
    return mesh_pre, mesh_post
