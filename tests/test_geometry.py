"""Domain catalog, meshing quality, and straightening invariants."""

import functools
import hashlib
import math

import numpy as np
import pytest

from steklovlab import assembly, geometry
from steklovlab._mesher import DIAMETER_FACTOR, MIN_ANGLE_DEG
from steklovlab.assembly import AssemblyError
from steklovlab.geometry import GeometryError, make_domain, triangulate

import oracles


def test_catalog_closed_forms():
    sq = make_domain("square")
    assert sq.perimeter == pytest.approx(4.0)
    assert sq.area == pytest.approx(1.0)

    ngon = make_domain("regular-ngon", n=96)
    assert ngon.perimeter == pytest.approx(2 * 96 * math.sin(math.pi / 96))
    assert ngon.area == pytest.approx(0.5 * 96 * math.sin(2 * math.pi / 96))

    saw = make_domain("sawtooth-square")
    assert saw.perimeter == pytest.approx(3.0 + math.sqrt(2.0))

    koch = make_domain("koch-prefractal", level=3)
    assert koch.perimeter == pytest.approx(64.0 / 9.0)


def test_unknown_domain_rejected():
    with pytest.raises(GeometryError, match="catalog"):
        make_domain("dodecahedron")


@pytest.mark.parametrize("build,message", [
    (lambda: geometry.PolygonDomain([[0, 0], [1, 0]]), "at least 3 planar vertices"),
    (lambda: geometry.PolygonDomain([[0, 0], [1, 0], [1, 0], [0, 1]]), "repeated consecutive"),
    (lambda: geometry.PolygonDomain([[0, 0], [1, 0], [2, 0]]), "zero area"),
    (lambda: geometry.PolygonDomain([[0, 0], [2, 0], [2, 2], [1, -1], [0, 2]]), "intersecting"),
    (lambda: geometry.PolygonDomain([[0, 0], [2, 0], [2, 2], [1, 0], [0, 2]]), "touches itself"),
    (
        lambda: geometry.PolygonDomain(
            [[0, 0], [2, 0], [2, 1], [1, 1], [1, 0], [1.5, 0], [1.5, -1], [0, -1]]
        ),
        "touches itself",
    ),
    (lambda: make_domain("regular-ngon", n=2), "regular-ngon needs n >= 3"),
    (lambda: make_domain("lshape", notch=1.0), "lshape notch must satisfy 0 < notch < 1"),
    (lambda: make_domain("sawtooth-square", teeth=0), "sawtooth-square needs teeth >= 1"),
    (lambda: make_domain("sawtooth-square", slope=0.0), "needs teeth >= 1 and slope > 0"),
    (lambda: make_domain("koch-prefractal", level=5), r"koch-prefractal level must be 0\.\.4"),
    (lambda: make_domain("square", side=10**400), "side must be a finite number"),  # beyond float
    (lambda: geometry.PolygonDomain([[0, 0], [1, 0], [math.nan, 1], [0, 1]]), "must be finite"),
    (lambda: geometry.PolygonDomain([[0, 0], [1, 0], [math.inf, 1], [0, 1]]), "must be finite"),
    (lambda: geometry.PolygonDomain([[0, 0], [1, 0], [1, -math.inf], [0, 1]]), "must be finite"),
], ids=[
    "two-vertices", "repeated-vertex", "zero-area", "crossing-edges", "vertex-on-edge",
    "overlapping-edges", "ngon-n2", "lshape-notch1", "sawtooth-teeth0",
    "sawtooth-slope0", "koch-level5", "square-side-overflow", "nan-vertex", "inf-vertex",
    "minus-inf-vertex",
])
def test_invalid_geometry_raises_its_own_message(build, message):
    with pytest.raises(GeometryError, match=message):
        build()


@pytest.mark.parametrize("build,error,named", [
    (lambda: make_domain("square", side=10**400), GeometryError, "side"),
    (lambda: assembly.make_matrix_field("constant", value=10**400), AssemblyError, "value"),
], ids=["domain", "matrix-field"])
def test_catalog_errors_shorten_a_long_value(build, error, named):
    with pytest.raises(error) as exc:
        build()
    message = str(exc.value)
    assert len(message) < 120 and f"{named} must be a finite number" in message, message


def test_clockwise_polygon_comes_back_counter_clockwise():
    dom = geometry.PolygonDomain([[0, 0], [0, 1], [1, 1], [1, 0]])
    assert dom.area == pytest.approx(1.0)
    assert dom.vertices.tolist() == [[1, 0], [1, 1], [0, 1], [0, 0]]


@pytest.mark.parametrize("name,params", [
    ("regular-ngon", {"n": 12.5}),  # np.arange would give 13 uneven vertices
    ("koch-prefractal", {"level": 2.7}),  # int() would give level 2
    ("koch-prefractal", {"level": True}),  # ``domain.level = yes`` in a config
    ("sawtooth-square", {"teeth": 3.9}),  # int() would give 3 teeth
])
def test_catalog_rejects_non_integer_counts(name, params):
    with pytest.raises(GeometryError, match=name):
        make_domain(name, **params)


@pytest.mark.parametrize("name,key", [
    ("regular-ngon", "radius"),  # -1 would give the reflected 64-gon
    ("koch-prefractal", "side"),  # -1 would give the reflected snowflake
    ("square", "side"),
    ("lshape", "size"),
])
@pytest.mark.parametrize("value", [-1.0, 0.0])
def test_catalog_rejects_non_positive_lengths(name, key, value):
    with pytest.raises(GeometryError, match=f"{name} needs a positive {key}"):
        make_domain(name, **{key: value})


def test_scaled_similarity():
    dom = make_domain("lshape")
    big = geometry.PolygonDomain(dom.vertices * 2.5)
    assert big.perimeter == pytest.approx(2.5 * dom.perimeter)
    assert big.area == pytest.approx(2.5**2 * dom.area)


def test_contains_respects_notch():
    dom = make_domain("lshape", size=1.0, notch=0.5)
    pts = np.array([[0.25, 0.25], [0.75, 0.75], [0.25, 0.75], [1.2, 0.2]])
    inside = dom.contains(pts)
    assert inside[0]
    assert not inside[1]  # the notch is carved out of that corner
    assert inside[2] or inside[1] == False  # noqa: E712 - corner layout sanity
    assert not inside[3]


@pytest.mark.parametrize("name,kwargs", [
    ("square", {}),
    ("lshape", {}),
    ("sawtooth-square", {}),
    ("regular-ngon", {"n": 64}),
])
def test_mesh_quality(name, kwargs):
    dom = make_domain(name, **kwargs)
    mesh = triangulate(dom, 0.12)
    p = mesh.nodes
    t = mesh.triangles
    a = p[t[:, 1]] - p[t[:, 0]]
    b = p[t[:, 2]] - p[t[:, 0]]
    areas = 0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])
    assert (areas > 0).all()  # consistent orientation
    assert areas.sum() == pytest.approx(dom.area, rel=1e-12)
    # boundary edges trace the polygon: lengths add to the perimeter and
    # every parent id is a valid segment
    be = mesh.boundary_edges
    lengths = np.linalg.norm(p[be[:, 1]] - p[be[:, 0]], axis=1)
    assert lengths.sum() == pytest.approx(dom.perimeter, rel=1e-12)
    assert mesh.boundary_parent.min() >= 0
    assert mesh.boundary_parent.max() < dom.n_segments


def test_min_angle_enforced(square_domain):
    mesh = triangulate(square_domain, 0.15)
    p = mesh.nodes[mesh.triangles]
    angles = []
    for i in range(3):
        u = p[:, (i + 1) % 3] - p[:, i]
        v = p[:, (i + 2) % 3] - p[:, i]
        c = np.einsum("ij,ij->i", u, v) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
        )
        angles.append(np.degrees(np.arccos(np.clip(c, -1, 1))))
    assert np.min(angles) >= MIN_ANGLE_DEG - 1e-9


# Every catalog domain at two mesh sizes: (domain name, parameters, h, SHA-256
# of the nodes, triangles, boundary_edges and boundary_parent bytes in that
# order).  The digests were taken from the mesher of commit 31b80db, which
# still classified each triangle by a point-in-polygon test of its centroid;
# they pin that inheriting the inside flag through insertion cavities changes
# no mesh.  They assume IEEE-754 doubles and numpy's cos/sin (regular-ngon).
CATALOG_MESHES = {
    "square-h0.1": (
        "square", {}, 0.1,
        "46b02ca9fff7bed554fa41ecaef8f56b226a7c610805554f71e0e1b3fd8358df",
    ),
    "square-h0.05": (
        "square", {}, 0.05,
        "d847835fff01b2481ab5c7c7e6336bc8f3d5d10b2f7db2574e28b57f04793325",
    ),
    "lshape-h0.1": (
        "lshape", {}, 0.1,
        "d2415a03cfbfab56e43812b026a03865c3567b785a48be3fae827eabd1b7f433",
    ),
    "lshape-h0.05": (
        "lshape", {}, 0.05,
        "8997895b24720b021c6c8d760250a967e559cdb9e50e04cef2fad1a085c35b6c",
    ),
    "ngon96-h0.1": (
        "regular-ngon", {"n": 96}, 0.1,
        "d79094426f7c3014fe502ce156a2b94ef6fab7e9fad46ecf30098a7acc724fad",
    ),
    "ngon96-h0.05": (
        "regular-ngon", {"n": 96}, 0.05,
        "094346ed937bae620bc780e3e79703a4a812e2aa5acda5fb24b3351efd2ddd12",
    ),
    "sawtooth-h0.1": (
        "sawtooth-square", {}, 0.1,
        "4d5cfe2b02c0893bd9f620afe6d1128890819ac5c9b74aa9334c14d3751d4920",
    ),
    "sawtooth-h0.05": (
        "sawtooth-square", {}, 0.05,
        "731c619bba0186a46860cf6084f4f50ea5c00a3fdba3befe035e006119ce57b5",
    ),
    "koch2-h0.1": (
        "koch-prefractal", {"level": 2}, 0.1,
        "082a52ff80bf79e00ca14a18050f2af71278957216157bbd64e7c51018cb57b2",
    ),
    "koch2-h0.05": (
        "koch-prefractal", {"level": 2}, 0.05,
        "f8b0ce48b171e7ad676fd0447ac42282ac58c7988bb4eb1c14acb86544d20a37",
    ),
    "koch3-h0.05": (
        "koch-prefractal", {"level": 3}, 0.05,
        "0320c3e5021e37030e2d7bfd8584051008386a5f59d5598564381b8930afafb7",
    ),
    "koch3-h0.012": (
        "koch-prefractal", {"level": 3}, 0.012,
        "60da0fe352e13e5889ea0e40357c0d3140f1f8cbc436a838318a3455ce98af66",
    ),
}


@functools.lru_cache(maxsize=None)
def _catalog_mesh(case):
    name, params, h, _ = CATALOG_MESHES[case]
    dom = make_domain(name, **params)
    return dom, triangulate(dom, h)


@pytest.mark.parametrize("case", list(CATALOG_MESHES))
def test_mesh_bytes_match_golden(case):
    _, mesh = _catalog_mesh(case)
    digest = hashlib.sha256()
    for arr in (mesh.nodes, mesh.triangles, mesh.boundary_edges, mesh.boundary_parent):
        digest.update(arr.tobytes())
    assert digest.hexdigest() == CATALOG_MESHES[case][3]


def test_mesh_text_matches_golden():
    # SHA-256 of the "steklovlab-mesh 2" text: h, nodes, triangles, and
    # ``u v parent`` per boundary edge.  A format change must update it.
    text = _catalog_mesh("square-h0.1")[1].to_text()
    assert text.startswith("steklovlab-mesh 2\n")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "37b3a18745e777f1f31418e3275d397a0d35c8581adcb1b6f61dfc710d4c4902"
    )


@pytest.mark.parametrize("case", list(CATALOG_MESHES))
def test_mesh_covers_exactly_the_domain(case):
    # Judged by the domain's own crossing-number test, not the mesher's flags.
    dom, mesh = _catalog_mesh(case)
    centroids = mesh.nodes[mesh.triangles].mean(axis=1)
    assert dom.contains(centroids).all()
    assert oracles.triangle_areas(mesh).sum() == pytest.approx(dom.area, rel=1e-12)


def test_split_cavities_pass_flags_to_both_sides():
    # No catalog mesh splits a subsegment once refinement has started; a 15
    # degree wedge does, so each split cavity spans both sides of the boundary.
    tip = math.radians(15.0)
    dom = geometry.PolygonDomain(
        np.array([[0.0, 0.0], [1.0, 0.0], [math.cos(tip), math.sin(tip)]])
    )
    mesh = triangulate(dom, 0.1)
    assert dom.contains(mesh.nodes[mesh.triangles].mean(axis=1)).all()
    assert oracles.triangle_areas(mesh).sum() == pytest.approx(dom.area, rel=1e-12)


def _star(points, inner):
    ang = math.pi * np.arange(2 * points) / points
    r = np.where(np.arange(2 * points) % 2 == 0, 1.0, inner)
    return geometry.PolygonDomain(np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1))


@pytest.mark.parametrize("case", ["wedge5", "star8", "star12"])
def test_split_cavities_leave_no_degenerate_triangle(case):
    # Input angles far below the 60 degree guarantee, where one side's
    # circumcircle test of a split midpoint fails by roundoff.
    tip = math.radians(5.0)
    dom = {
        "wedge5": lambda: geometry.PolygonDomain(
            np.array([[0.0, 0.0], [1.0, 0.0], [math.cos(tip), math.sin(tip)]])
        ),
        "star8": lambda: _star(8, 0.2),
        "star12": lambda: _star(12, 0.3),
    }[case]()
    areas = oracles.triangle_areas(triangulate(dom, 0.021))
    assert (areas > 0).all()
    assert areas.sum() == pytest.approx(dom.area, rel=0, abs=1e-12)


def _random_star(seed, index):
    # the index-th of a seeded family of star-shaped polygons: 6-39 vertices
    # at sorted random angles, radial amplitude 0.1, 0.3 or 0.6 in turn
    rng = np.random.default_rng(seed)
    for t in range(index + 1):
        m = rng.integers(6, 40)
        ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, m))
        r = 1.0 + [0.1, 0.3, 0.6][t % 3] * rng.uniform(-1.0, 1.0, m)
    return geometry.PolygonDomain(np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1))


def test_disjoint_collinear_edges_are_simple():
    # Koch prefractals keep both outer thirds of every edge, on one line; the
    # seeded random stars are simple by construction
    for level in range(5):
        make_domain("koch-prefractal", level=level)
    for index in range(120):
        _random_star(12345, index)
    geometry.PolygonDomain([[0, 0], [1, 0], [1, 1], [2, 1], [2, 0], [3, 0], [3, 2], [0, 2]])


def test_random_star_meshes_or_raises_meshing_error():
    # 34 vertices with input angles far below 60 degrees: refinement here once
    # ended in a ZeroDivisionError on a triangle with coincident vertices
    dom = _random_star(12345, 2)
    try:
        mesh = triangulate(dom, 0.05)
    except geometry.MeshingError:
        return
    areas = oracles.triangle_areas(mesh)
    assert (areas > 0).all()
    assert areas.sum() == pytest.approx(dom.area, rel=1e-12)
    assert dom.contains(mesh.nodes[mesh.triangles].mean(axis=1)).all()


@pytest.mark.parametrize("h", [0.0, -1.0, float("nan"), float("inf")])
def test_triangulate_rejects_a_mesh_size_that_is_not_finite_and_positive(h):
    with pytest.raises(geometry.MeshingError, match="finite and positive"):
        triangulate(make_domain("square"), h)


def test_triangulate_deterministic(square_domain):
    m1 = triangulate(square_domain, 0.11)
    m2 = triangulate(square_domain, 0.11)
    assert np.array_equal(m1.nodes, m2.nodes)
    assert np.array_equal(m1.triangles, m2.triangles)
    assert np.array_equal(m1.boundary_edges, m2.boundary_edges)


_SCALED_DOMAINS = {
    "square": ("square", {}),
    "lshape": ("lshape", {}),
    "ngon96": ("regular-ngon", {"n": 96}),
    "koch2": ("koch-prefractal", {"level": 2}),
    "sawtooth": ("sawtooth-square", {}),
}


@pytest.mark.parametrize("case", list(_SCALED_DOMAINS))
def test_mesh_of_a_power_of_two_dilation_is_the_dilated_mesh(case):
    # the mesher's tolerances follow the span, so a dilation by 2^k changes
    # no decision; absolute polygon floors once refused k = -40 and -199
    name, params = _SCALED_DOMAINS[case]
    dom = make_domain(name, **params)
    base = triangulate(dom, 0.1)
    for k in (-199, -40, -1, 1, 60, 199):
        f = 2.0**k
        mesh = triangulate(geometry.PolygonDomain(dom.vertices * f), 0.1 * f)
        assert np.array_equal(mesh.nodes, base.nodes * f), k
        assert np.array_equal(mesh.triangles, base.triangles), k
        assert np.array_equal(mesh.boundary_edges, base.boundary_edges), k
        assert np.array_equal(mesh.boundary_parent, base.boundary_parent), k


@pytest.mark.parametrize("side", [0.01, 0.003, 1e-3, 1e-7])
def test_small_squares_mesh_like_the_unit_square(side):
    # these once failed with "point location failed", "refinement produced a
    # triangle with coincident vertices" or "segment recovery did not converge"
    assert triangulate(make_domain("square", side=side), side / 10).n_nodes == 143


def test_polygon_floors_are_relative_to_the_span():
    # a square of side 1e-8 was "degenerate (zero area)" under an absolute floor
    assert make_domain("square", side=1e-8).area == pytest.approx(1e-16)
    with pytest.raises(GeometryError, match="repeated consecutive"):
        geometry.PolygonDomain([[0, 0], [1e-8, 0], [1e-8 + 1e-23, 0], [0, 1e-8]])


@pytest.mark.parametrize("side", [2.0**-200, 2.0**200], ids=["2^-200", "2^200"])
def test_span_range_ends_are_accepted(side):
    dom = make_domain("square", side=side)
    assert dom.span == side


@pytest.mark.parametrize(
    "side", [2.0**-201, 2.0**201, 1e100, 1e-100], ids=["2^-201", "2^201", "1e100", "1e-100"]
)
def test_span_outside_the_range_is_a_geometry_error(side):
    with pytest.raises(GeometryError, match="span"):
        make_domain("square", side=side)


def test_straightening_matched_meshes():
    dom = make_domain("sawtooth-square")
    smap = geometry.build_straightening(dom, 0.1)
    src, img = smap.source, smap.image
    # identical connectivity, bijective node map
    assert np.array_equal(src.triangles, img.triangles)
    assert src.n_nodes == img.n_nodes
    # the image of the chart side is flat
    top = img.nodes[oracles.boundary_nodes(src)]
    # straightened picture is a rectangle: every y is within the slab
    assert img.nodes[:, 1].max() <= smap.base + 1.0 + 1e-12
    assert top.shape[0] == oracles.boundary_nodes(src).shape[0]
    # positive jacobians everywhere (orientation preserved)
    p = img.nodes[img.triangles]
    u, v = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    areas = 0.5 * (u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0])
    assert (areas > 0).all()


def test_straightening_pull_inverts_every_piece():
    dom = make_domain("sawtooth-square")
    smap = geometry.build_straightening(dom, 0.06)
    # Reference loop: half s of collar cell (i, j) is piece 2(i·levels + j) + s,
    # half 0 below the cell's lower-left to upper-right diagonal; the collar
    # nodes of column i are the top levels + 1 of the column's nodes.
    columns = [np.flatnonzero(smap.source.nodes[:, 0] == x) for x in smap.stations]
    pre = np.array([smap.source.nodes[c[-smap.levels - 1 :]] for c in columns])
    post = np.array([smap.image.nodes[c[-smap.levels - 1 :]] for c in columns])
    assert (pre[:, 0, 1] == smap.base).all() and (post[:, 0, 1] == smap.base).all()
    halves = (((0, 0), (1, 0), (1, 1)), ((0, 0), (1, 1), (0, 1)))
    for i in range(len(smap.stations) - 1):
        for j in range(smap.levels):
            for s, corners in enumerate(halves):
                k = 2 * (i * smap.levels + j) + s
                src = np.array([pre[i + a, j + b] for a, b in corners])
                img = np.array([post[i + a, j + b] for a, b in corners])
                assert np.array_equal(smap.source.nodes[smap.source.triangles[smap.first + k]], src)
                assert np.allclose((src - src[0]) @ smap.jacobians[k].T, img - img[0])
                back, piece = smap.pull(img.mean(axis=0))
                assert piece[0] == k
                assert np.allclose(back[0], src.mean(axis=0))
    assert len(smap.dets) == k + 1 == len(smap.source.triangles) - smap.first
    below = np.array([[0.5, smap.base - 0.1]])
    back, piece = smap.pull(below)
    assert piece[0] == -1 and np.array_equal(back, below)


def test_straightening_collar_guard():
    dom = make_domain("sawtooth-square")
    with pytest.raises(GeometryError, match="rectangular remainder"):
        geometry.build_straightening(make_domain("lshape"), 0.1)
    # the grid would take ~3e11 nodes; refused before allocation.  At
    # h = 2.2e-309 each column count is finite but their sum overflows.
    for h in (1e-6, 2.225073858507203e-309):
        with pytest.raises(geometry.MeshingError, match="budget"):
            geometry.build_straightening(dom, h)
    # a sloped bottom, and an extra bottom vertex, leave no rectangular
    # remainder; on a 1 x 0.2 rectangle the collar, a quarter of the graph
    # width deep, would reach the bottom side
    sloped = [[0, 0], [1, 0.1], [1, 1], [0, 1]]
    thin = [[0, 0.8], [1, 0.8], [1, 1], [0, 1]]
    for verts in (sloped, [[0, 0], [0.5, -0.1], [1, 0], [1, 1], [0, 1]], thin):
        with pytest.raises(GeometryError, match="rectangular remainder"):
            geometry.build_straightening(geometry.PolygonDomain(verts), 0.1)


def test_clockwise_square_straightens_like_the_counter_clockwise_one():
    ccw = geometry.build_straightening(make_domain("square"), 0.06)
    cw = geometry.build_straightening(geometry.PolygonDomain([[0, 0], [0, 1], [1, 1], [1, 0]]), 0.06)
    for a, b in ((ccw.source, cw.source), (ccw.image, cw.image)):
        for field in ("nodes", "triangles", "boundary_edges"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
        # the clockwise input comes back CCW from vertex (1, 0), so each segment
        # id is the counter-clockwise square's plus 3, mod 4
        assert np.array_equal(b.boundary_parent, (a.boundary_parent + 3) % 4)


@pytest.mark.parametrize("name,params", [
    ("square", {}),
    ("sawtooth-square", {}),
    ("lshape", {}),
    ("regular-ngon", {"n": 4}),
    ("regular-ngon", {"n": 6}),
    ("koch-prefractal", {}),
], ids=["square", "sawtooth-square", "lshape", "ngon-4", "ngon-6", "koch"])
def test_only_the_graph_domains_of_the_catalog_straighten(name, params):
    dom = make_domain(name, **params)
    if name in ("square", "sawtooth-square"):
        assert geometry.build_straightening(dom, 0.1).source.n_nodes > 0
    else:
        with pytest.raises(GeometryError, match="rectangular remainder"):
            geometry.build_straightening(dom, 0.1)


def test_a_graph_over_a_rectangle_outside_the_catalog_straightens():
    # a rectangle [0, 2] x [-1, 0.5] under a four-piece graph, not in the catalog
    verts = [[0, -1], [2, -1], [2, 0.5], [1.5, 0.8], [1.1, 0.6], [0.7, 0.9], [0, 1]]
    dom = geometry.PolygonDomain(verts, "roof")
    smap = geometry.build_straightening(dom, 0.1)
    src, img = smap.source, smap.image
    assert oracles.triangle_areas(src).sum() == pytest.approx(dom.area, rel=1e-12)
    assert (oracles.triangle_areas(src) > 0).all() and (oracles.triangle_areas(img) > 0).all()
    # each boundary edge lies on the segment its parent names
    p, q = dom.segment_points()
    par = src.boundary_parent
    for end in (0, 1):
        r = src.nodes[src.boundary_edges[:, end]] - p[par]
        d = q[par] - p[par]
        assert np.abs(d[:, 0] * r[:, 1] - d[:, 1] * r[:, 0]).max() < 1e-12
    assert set(par) == set(range(dom.n_segments))
    # the image collar is the box one graph width (2) tall on the base line
    assert img.nodes[:, 1].max() == smap.base + 2.0
    assert (smap.dets > 0).all()


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_straightening_refuses_a_non_finite_h(bad):
    # an infinite h once built a one-level map and meshes whose h was inf
    with pytest.raises(GeometryError, match="finite and positive"):
        geometry.build_straightening(make_domain("sawtooth-square"), bad)


# a graph over [0, 2] x [-1, 0.5] whose piece from x = 1.1 to 1.5 rises with
# slope 1.5; one column per h of width would give it edges up to 2.7 h
STEEP_ROOF = [[0, -1], [2, -1], [2, 0.5], [1.5, 1.2], [1.1, 0.6], [0.7, 0.9], [0, 1]]


@pytest.mark.parametrize("name", ["square", "sawtooth-square", "steep-roof"])
@pytest.mark.parametrize("h", [0.2, 0.125, 0.1, 0.08, 0.06, 0.05, 0.04, 0.03, 0.02])
def test_matched_source_mesh_keeps_the_mesher_edge_bound(name, h):
    # no source edge exceeds what triangulate allows, on steep pieces too
    dom = geometry.PolygonDomain(STEEP_ROOF, name) if name == "steep-roof" else make_domain(name)
    src = geometry.build_straightening(dom, h).source
    assert src.h == h
    assert src.edge_lengths().max() <= DIAMETER_FACTOR * h


@pytest.mark.parametrize("name,h,digest", [
    ("square", 0.02, "9749ff5394d32ed29cb827f39f9f2cfc40bfd83062cff8d6906507abeef810f6"),
    ("sawtooth-square", 0.06, "ef5d6ddee83288cdd67080a271ecf228e9b28e02a8e95c6ec315065966eed2c0"),
    ("sawtooth-square", 0.125, "f0995ab9290e095f7a4dd7155efbcdf2c77ba0736d9c38edcca438e5c4e08375"),
])
def test_a_grid_within_the_edge_bound_is_not_refined(name, h, digest):
    # one column per h of width: the grids of criterion 6 and its neighbours
    smap = geometry.build_straightening(make_domain(name), h)
    got = hashlib.sha256()
    for arr in (smap.source.nodes, smap.image.nodes, smap.source.triangles,
                smap.source.boundary_edges, smap.source.boundary_parent):
        got.update(arr.tobytes())
    assert got.hexdigest() == digest


def test_only_the_rising_sawtooth_pieces_gain_columns():
    # at h = 0.04 a tooth side 0.0625 wide takes 2 columns; on a rising side
    # the cell diagonals climb with the slope and pass 1.5 h, on a falling
    # side they do not
    dom = make_domain("sawtooth-square")
    graph = dom.vertices[:1:-1]
    stations = geometry.build_straightening(dom, 0.04).stations
    columns = np.diff(np.searchsorted(stations, graph[:, 0]))
    rising = np.diff(graph[:, 1]) > 0
    assert (columns[~rising] == 2).all()
    assert (columns[rising] > 2).all()
