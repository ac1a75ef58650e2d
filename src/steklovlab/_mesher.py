"""Constrained Delaunay triangulation of simple polygons with quality refinement.

Incremental Bowyer-Watson insertion plus Ruppert-style refinement: encroached
boundary subsegments are split at their midpoints, skinny or oversized interior
triangles are fixed by circumcenter insertion (deferred to segment splits when
the circumcenter would encroach).  Input segments are preserved exactly -- the
cavity flood never crosses a registered subsegment, so every boundary edge of
the returned mesh is a subsegment of a polygon edge and carries its parent id.

Each triangle carries an inside/outside flag, and the mesh is classified once:
after segment recovery a flood fill from the super-triangle's triangles, which
stops at subsegments, marks everything it reaches outside and the rest inside
(Shewchuk, "Delaunay refinement algorithms for triangular mesh generation",
CGTA 2002).  From then on every triangle an insertion creates inherits the flag
of the cavity triangle that owned its outer edge.  A cavity never crosses a
subsegment, so it lies on one side of the boundary, except in a subsegment
split, where the popped subsegment lets it span both sides and each side's
triangles pass on their own flag.  Refinement and extraction read the flags;
no point-in-polygon test is made.

The quality guarantee (no interior angle below ``MIN_ANGLE_DEG``) holds for
inputs whose segments meet at angles of 60 degrees or more, which covers every
catalog domain.  Near smaller input angles refinement backs off instead of
cascading.

Refinement does only the work its result depends on.  Every inside triangle
is queued when it is made, and its quality is tested when it is popped, if it
is still alive: a live triangle's corners never move, so it is as good or bad
then as when it was made, and the bad ones are fixed in the same order as if
only they had been queued.  Most triangles die in a later cavity before they
are popped and are never measured.  A circumcenter is located by a walk from
its own triangle, a few steps away, not from the last insertion.  Where it
lies within a tie margin of an edge, or while some triangle is flat enough to
hold points beyond its edges, the containing triangle is not unique, and the
walk from the last insertion decides, as it always did.

Everything is deterministic: plain FIFO work queues, insertion in input order,
no randomization anywhere.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

# Largest edge of any returned triangle, in units of the mesh size h.
DIAMETER_FACTOR = 1.5
# Smallest interior angle refinement aims for, in degrees.
MIN_ANGLE_DEG = 20.0
# Point insertions allowed (recovery plus refinement) before giving up.
MAX_INSERTIONS = 500_000
# A point more than this many orientation tolerances inside every edge of a
# triangle is located there by a walk from any start (see locate_from).
TIE_MARGIN = 1000.0


class MeshingError(RuntimeError):
    """Triangulation could not satisfy its postconditions."""


def _orient(ax, ay, bx, by, cx, cy):
    return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)


def _circumcenter(ax, ay, bx, by, cx, cy):
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        return None
    a2 = ax * ax + ay * ay
    b2 = bx * bx + by * by
    c2 = cx * cx + cy * cy
    ux = (a2 * (by - cy) + b2 * (cy - ay) + c2 * (ay - by)) / d
    uy = (a2 * (cx - bx) + b2 * (ax - cx) + c2 * (bx - ax)) / d
    return ux, uy


class _Triangulation:
    """Mutable triangulation state for Bowyer-Watson insertion."""

    def __init__(self, scale):
        self.pts_x = []
        self.pts_y = []
        self.tris = []  # tuple (a, b, c) CCW, or None when deleted
        self.flag = []  # parallel to tris: inside the polygon (see classify)
        self.edge = {}  # directed edge (a, b) -> triangle index
        self.subseg = {}  # undirected (min, max) -> parent segment id
        self.eps_orient = 1e-13 * scale * scale
        self.eps_tie = TIE_MARGIN * self.eps_orient
        self.eps_incircle = 1e-12 * scale ** 4
        self.hint = 0
        # Live triangles of doubled area at most eps_tie: those with
        # coincident vertices, and those that may hold a point within the
        # orientation tolerance far beyond their edges.
        self.flat = set()

    # -- point and triangle bookkeeping ------------------------------------

    def add_point(self, x, y):
        self.pts_x.append(float(x))
        self.pts_y.append(float(y))
        return len(self.pts_x) - 1

    def _add_tri(self, a, b, c, flag=False):
        idx = len(self.tris)
        self.tris.append((a, b, c))
        self.flag.append(flag)
        self.edge[(a, b)] = idx
        self.edge[(b, c)] = idx
        self.edge[(c, a)] = idx
        return idx

    def seg_key(self, u, v):
        return (u, v) if u < v else (v, u)

    # -- location -----------------------------------------------------------

    def _walk(self, cur, px, py):
        """Walk from triangle ``cur`` toward (px, py), across the first edge
        that has the point beyond the orientation tolerance.

        Returns (triangle, least orientation) where no edge does, (triangle,
        None) where the walk would leave the hull, and (None, None) where it
        cycles.  The walk passes freely through boundary subsegments;
        constraint awareness lives in the cavity flood, not in location.
        """
        x, y = self.pts_x, self.pts_y
        tris, edge = self.tris, self.edge
        eps = self.eps_orient
        for _ in range(4 * len(tris) + 64):
            a, b, c = tris[cur]
            least = math.inf
            for (u, v) in ((a, b), (b, c), (c, a)):
                o = _orient(x[u], y[u], x[v], y[v], px, py)
                if o < -eps:
                    nxt = edge.get((v, u))
                    if nxt is None:
                        return cur, None
                    cur = nxt
                    break
                if o < least:
                    least = o
            else:
                return cur, least
        return None, None

    def locate(self, px, py):
        """Walk from the hint to a triangle containing (px, py) and return
        its index."""
        cur = self.hint
        if cur >= len(self.tris) or self.tris[cur] is None:
            cur = next(i for i, t in enumerate(self.tris) if t is not None)
        cur, least = self._walk(cur, px, py)
        if cur is not None:
            if least is not None:
                self.hint = cur
            return cur
        # Fallback: linear scan (walk trapped by numerical ties).
        x, y = self.pts_x, self.pts_y
        for i, tri in enumerate(self.tris):
            if tri is None:
                continue
            a, b, c = tri
            if (
                _orient(x[a], y[a], x[b], y[b], px, py) >= -self.eps_orient
                and _orient(x[b], y[b], x[c], y[c], px, py) >= -self.eps_orient
                and _orient(x[c], y[c], x[a], y[a], px, py) >= -self.eps_orient
            ):
                self.hint = i
                return i
        raise MeshingError("point location failed")

    def locate_from(self, start, px, py):
        """``locate`` for a point near triangle ``start``, walking from there.

        Where the walk ends more than ``eps_tie`` inside every edge of a
        triangle, a triangle that is not flat could hold the point within the
        walk's tolerance only if its edges were about ``TIE_MARGIN`` times
        shorter, so the walk from the hint ends there too; the hint is left
        as that walk leaves it.  A point near an edge may be claimed by
        either side, and a flat triangle holds every point near the line it
        spans, far beyond its edges; so near an edge, while any triangle is
        flat (see ``flat``), and if the walk leaves the hull or cycles, the
        answer is the hint walk's own.
        """
        if not self.flat:
            cur, least = self._walk(start, px, py)
            if least is not None and least > self.eps_tie:
                self.hint = cur
                return cur
        return self.locate(px, py)

    # -- Bowyer-Watson ------------------------------------------------------

    def cavity(self, px, py, seeds):
        """Flood the circumcircle cavity of (px, py) without crossing subsegments.

        The flood starts at ``seeds[0]`` and takes the other seeds wherever it
        meets them, whatever their circumcircle test says.  Returns (cavity
        triangle indices, boundary edges) where each boundary edge is
        ``(u, v, owner)``: the directed edge winds CCW around the insertion
        point and ``owner`` is the cavity triangle it belongs to.
        """
        x, y = self.pts_x, self.pts_y
        tris, edge, subseg = self.tris, self.edge, self.subseg
        eps = self.eps_incircle
        t0 = seeds[0]
        cav = {t0}
        stack = [t0]
        boundary = []
        while stack:
            idx = stack.pop()
            a, b, c = tris[idx]
            for (u, v) in ((a, b), (b, c), (c, a)):
                nbr = edge.get((v, u))
                if nbr is not None and nbr in cav:
                    continue
                if nbr is None or ((u, v) if u < v else (v, u)) in subseg:
                    boundary.append((u, v, idx))
                    continue
                if nbr not in seeds:
                    # in-circle test: > 0 iff (px, py) lies strictly inside
                    # the circumcircle of the CCW neighbour
                    na, nb, nc = tris[nbr]
                    adx = x[na] - px
                    ady = y[na] - py
                    bdx = x[nb] - px
                    bdy = y[nb] - py
                    cdx = x[nc] - px
                    cdy = y[nc] - py
                    ad = adx * adx + ady * ady
                    bd = bdx * bdx + bdy * bdy
                    cd = cdx * cdx + cdy * cdy
                    if not (
                        adx * (bdy * cd - bd * cdy)
                        - ady * (bdx * cd - bd * cdx)
                        + ad * (bdx * cdy - bdy * cdx)
                        > eps
                    ):
                        boundary.append((u, v, idx))
                        continue
                cav.add(nbr)
                stack.append(nbr)
        return cav, boundary

    def insert(self, pidx, reject_encroached=False, seeds=None):
        """Insert point ``pidx``; returns (new triangle ids, encroached segs).

        With ``reject_encroached`` the insertion is abandoned (state untouched)
        when the cavity boundary contains a subsegment whose diametral disk
        holds the new point; the offending segment keys are returned instead.
        ``seeds`` skips point location: the caller knows cavity triangles, the
        first of which contains the point (see ``cavity``).  Each created
        triangle takes the flag of the cavity triangle that owned its outer
        edge.
        """
        x, y = self.pts_x, self.pts_y
        px, py = x[pidx], y[pidx]
        cav, boundary = self.cavity(px, py, seeds or [self.locate(px, py)])
        if reject_encroached:
            hit = []
            for (u, v, _) in boundary:
                key = (u, v) if u < v else (v, u)
                if key in self.subseg:
                    ux, uy = x[u], y[u]
                    vx, vy = x[v], y[v]
                    if (ux - px) * (vx - px) + (uy - py) * (vy - py) < 0.0:
                        hit.append(key)
            if hit:
                return [], hit
        tris, edge, flag, flat = self.tris, self.edge, self.flag, self.flat
        for idx in cav:
            a, b, c = tris[idx]
            for key in ((a, b), (b, c), (c, a)):
                if edge.get(key) == idx:
                    del edge[key]
            tris[idx] = None
            if flat:
                flat.discard(idx)
        thin = self.eps_tie
        created = []
        for (u, v, owner) in boundary:
            idx = len(tris)
            tris.append((pidx, u, v))
            flag.append(flag[owner])
            edge[(pidx, u)] = idx
            edge[(u, v)] = idx
            edge[(v, pidx)] = idx
            created.append(idx)
            if (x[u] - px) * (y[v] - py) - (y[u] - py) * (x[v] - px) <= thin:
                flat.add(idx)
        self.hint = created[0]
        return created, []

    def split_subsegment(self, key):
        """Split subsegment ``key`` at its midpoint.

        The cavity is seeded with both triangles next to the subsegment: the
        midpoint lies on their common edge, so it belongs to both cavities,
        although near a small input angle one circumcircle test can miss it
        by roundoff and leave a zero-area fan triangle on the segment line.
        Returns ``(midpoint id, created triangle ids)``.
        """
        u, v = key
        parent = self.subseg.pop(key)
        seeds = [self.edge[e] for e in ((u, v), (v, u)) if e in self.edge]
        mx = 0.5 * (self.pts_x[u] + self.pts_x[v])
        my = 0.5 * (self.pts_y[u] + self.pts_y[v])
        m = self.add_point(mx, my)
        created, _ = self.insert(m, seeds=seeds)
        self.subseg[self.seg_key(u, m)] = parent
        self.subseg[self.seg_key(m, v)] = parent
        return m, created

    def classify(self, outer):
        """Set every flag: False on the triangles reachable from one with a
        vertex in ``outer`` without crossing a subsegment, True on the rest."""
        self.flag = [t is not None for t in self.tris]
        stack = [
            i for i, t in enumerate(self.tris) if t is not None and not outer.isdisjoint(t)
        ]
        for i in stack:
            self.flag[i] = False
        while stack:
            idx = stack.pop()
            a, b, c = self.tris[idx]
            for (u, v) in ((a, b), (b, c), (c, a)):
                if self.seg_key(u, v) in self.subseg:
                    continue
                nbr = self.edge.get((v, u))
                if nbr is not None and self.flag[nbr]:
                    self.flag[nbr] = False
                    stack.append(nbr)

    # -- queries ------------------------------------------------------------

    def seg_is_edge(self, key):
        u, v = key
        return (u, v) in self.edge or (v, u) in self.edge

    def seg_encroached(self, key):
        """Diametral-disk test against the apexes of the adjacent triangles."""
        u, v = key
        ux, uy = self.pts_x[u], self.pts_y[u]
        vx, vy = self.pts_x[v], self.pts_y[v]
        for (s, t) in ((u, v), (v, u)):
            idx = self.edge.get((s, t))
            if idx is None:
                continue
            a, b, c = self.tris[idx]
            apex = a + b + c - u - v
            axp, ayp = self.pts_x[apex], self.pts_y[apex]
            if (ux - axp) * (vx - axp) + (uy - ayp) * (vy - ayp) < 0.0:
                return True
        return False


def triangulate_polygon(vertices, h):
    """Mesh the interior of a simple CCW polygon.

    Returns the arrays points (n, 2), triangles (m, 3) CCW, boundary edges
    (k, 2) ``(u, v)`` with the interior on the left, and each edge's parent
    segment.  An element edge over ``DIAMETER_FACTOR`` h is a ``MeshingError``.
    The tie tolerances scale with the span, so the mesh of the polygon scaled
    by a power of two is the mesh scaled by it, bit for bit.
    """
    verts = np.asarray(vertices, dtype=float)
    nseg = len(verts)
    if not (h > 0 and math.isfinite(h)):
        raise MeshingError("mesh size h must be finite and positive")
    span = float(max(np.ptp(verts[:, 0]), np.ptp(verts[:, 1])))
    if h < 1e-6 * span:
        raise MeshingError("mesh size h is below 1e-6 of the domain span")

    tr = _Triangulation(scale=span)

    # Enclosing super-triangle, generously sized.
    cx = float(verts[:, 0].mean())
    cy = float(verts[:, 1].mean())
    big = 16.0 * max(span, h)
    s0 = tr.add_point(cx - 2.0 * big, cy - big)
    s1 = tr.add_point(cx + 2.0 * big, cy - big)
    s2 = tr.add_point(cx, cy + 2.0 * big)
    tr._add_tri(s0, s1, s2)

    # Boundary vertices, each polygon edge pre-split to length <= h.
    ring = []  # point ids along the boundary, per original segment
    for i in range(nseg):
        p = verts[i]
        q = verts[(i + 1) % nseg]
        npiece = max(1, int(math.ceil(math.hypot(*(q - p)) / h - 1e-12)))
        seg_pts = []
        for k in range(npiece):
            t = k / npiece
            seg_pts.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        ring.append(seg_pts)

    ids = []
    for i, seg_pts in enumerate(ring):
        ids.append([])
        for (x, y) in seg_pts:
            pid = tr.add_point(x, y)
            ids[i].append(pid)
            tr.insert(pid)

    # Register subsegments with their parent polygon-segment index.
    for i in range(nseg):
        chain = ids[i] + [ids[(i + 1) % nseg][0]]
        for a, b in zip(chain[:-1], chain[1:]):
            tr.subseg[tr.seg_key(a, b)] = i

    # Recover any input subsegment missing from the Delaunay triangulation.
    pending = deque(tr.subseg.keys())
    insertions = 0
    while pending:
        key = pending.popleft()
        if key not in tr.subseg or tr.seg_is_edge(key):
            continue
        u, v = key
        m, _ = tr.split_subsegment(key)
        insertions += 1
        if insertions > MAX_INSERTIONS:
            raise MeshingError("segment recovery did not converge")
        pending.append(tr.seg_key(u, m))
        pending.append(tr.seg_key(m, v))

    # The one classification; insertions below pass the flags on.
    tr.classify({s0, s1, s2})

    # ---- Ruppert refinement ------------------------------------------------
    size_cap = DIAMETER_FACTOR * h * 0.97  # margin so the postcondition holds
    # largest circumradius / shortest edge of a triangle with no angle below the minimum
    quality_cap = 1.0 / (2.0 * math.sin(math.radians(MIN_ANGLE_DEG)))

    def tri_metrics(idx):
        a, b, c = tr.tris[idx]
        ax, ay = tr.pts_x[a], tr.pts_y[a]
        bx, by = tr.pts_x[b], tr.pts_y[b]
        cx_, cy_ = tr.pts_x[c], tr.pts_y[c]
        lab = math.hypot(bx - ax, by - ay)
        lbc = math.hypot(cx_ - bx, cy_ - by)
        lca = math.hypot(ax - cx_, ay - cy_)
        longest = max(lab, lbc, lca)
        shortest = min(lab, lbc, lca)
        area2 = abs(_orient(ax, ay, bx, by, cx_, cy_))
        if area2 <= 0.0:
            return longest, shortest, float("inf")
        circumradius = lab * lbc * lca / (2.0 * area2)
        return longest, shortest, circumradius

    def tri_is_bad(longest, shortest, circumradius):
        if longest > size_cap:
            return True
        if shortest == 0.0:
            raise MeshingError("refinement produced a triangle with coincident vertices")
        return circumradius / shortest > quality_cap

    def check_coincident(tris):
        # The quality test raises on a triangle with coincident vertices when
        # it is made, not when it is popped.  Such a triangle has zero area,
        # so it is flat.
        if tr.flat:
            for t in tris:
                if t in tr.flat and tr.flag[t]:
                    tri_is_bad(*tri_metrics(t))

    # Every inside triangle is queued and its quality tested when it is
    # popped: a live triangle's corners never move, so it is then as good or
    # bad as when it was made, and the bad ones are fixed in the same order.
    inside = [i for i in range(len(tr.tris)) if tr.tris[i] is not None and tr.flag[i]]
    check_coincident(inside)
    seg_queue = deque(k for k in tr.subseg if tr.seg_encroached(k))
    tri_queue = deque(inside)
    subseg, tris, flag = tr.subseg, tr.tris, tr.flag

    def after_insertion(created, split):
        nonlocal insertions
        insertions += 1
        if insertions > MAX_INSERTIONS:
            raise MeshingError("refinement did not converge")
        check_coincident(created)
        for t in created:
            p, u, v = tris[t]
            # A created triangle's new edges join the new point p, which is on
            # a subsegment only when a split made it; its outer edge (u, v)
            # may be one in any insertion.
            for k in (((p, u), (u, v), (v, p)) if split else ((u, v),)):
                k = k if k[0] < k[1] else (k[1], k[0])
                if k in subseg and tr.seg_encroached(k):
                    seg_queue.append(k)
            if flag[t]:
                tri_queue.append(t)

    def split_keys(keys):
        """Split the given subsegments (length floor applies); returns
        whether anything made progress."""
        any_progress = False
        for k in keys:
            if k not in subseg:
                any_progress = True
                continue
            kx = tr.pts_x[k[0]] - tr.pts_x[k[1]]
            ky = tr.pts_y[k[0]] - tr.pts_y[k[1]]
            if math.hypot(kx, ky) < 0.04 * h:
                continue
            _, made = tr.split_subsegment(k)
            after_insertion(made, split=True)
            any_progress = True
        return any_progress

    while seg_queue or tri_queue:
        if seg_queue:
            key = seg_queue.popleft()
            if key not in subseg or not tr.seg_encroached(key):
                continue
            u, v = key
            m, created = tr.split_subsegment(key)
            after_insertion(created, split=True)
            for half in (tr.seg_key(u, m), tr.seg_key(m, v)):
                if tr.seg_encroached(half):
                    seg_queue.append(half)
            continue

        idx = tri_queue.popleft()
        # ids are never reused, so a dead entry stays dead
        if tris[idx] is None:
            continue
        longest, shortest, circumradius = tri_metrics(idx)
        if not tri_is_bad(longest, shortest, circumradius):
            continue
        a, b, c = tris[idx]
        cc = _circumcenter(
            tr.pts_x[a], tr.pts_y[a], tr.pts_x[b], tr.pts_y[b], tr.pts_x[c], tr.pts_y[c]
        )
        if cc is None:
            continue
        ccx, ccy = cc
        # Back off instead of cascading on tiny features (sub-h short edges on
        # the boundary mean the local feature size, not bad quality).
        if longest <= size_cap and shortest < 0.02 * h:
            continue

        # the circumcenter of a bad triangle lies a few triangles from it
        t0 = tr.locate_from(idx, ccx, ccy)
        if not flag[t0]:
            # With no encroached subsegment an inside triangle's circumcenter
            # lies in the domain; landing outside means a nearby boundary
            # subsegment needs splitting (numerical safety net).
            own = [
                tr.seg_key(u, v)
                for (u, v) in ((a, b), (b, c), (c, a))
                if tr.seg_key(u, v) in subseg
            ]
            if split_keys(own) and tris[idx] is not None:
                tri_queue.append(idx)
            continue
        pid = tr.add_point(ccx, ccy)
        created, hit = tr.insert(pid, reject_encroached=True, seeds=[t0])
        if hit:
            tr.pts_x.pop()
            tr.pts_y.pop()
            # The rejected circumcenter witnesses encroachment: split the hit
            # segments outright (the apex test cannot see the phantom point).
            if split_keys(hit) and tris[idx] is not None:
                tri_queue.append(idx)
            continue
        after_insertion(created, split=False)

    # ---- extraction ----------------------------------------------------------
    kept = [i for i, t in enumerate(tr.tris) if t is not None and tr.flag[i]]
    if not kept:
        raise MeshingError("no interior triangles were produced")

    used = sorted({v for i in kept for v in tr.tris[i]})
    renum = {old: new for new, old in enumerate(used)}
    points = np.array(
        [[tr.pts_x[i], tr.pts_y[i]] for i in used], dtype=float
    )
    triangles = np.array(
        [[renum[v] for v in tr.tris[i]] for i in kept], dtype=np.int64
    )

    kept_set = set(kept)
    boundary = []  # (u, v, parent), u -> v with the interior on the left
    for (u, v), parent in tr.subseg.items():
        fwd = tr.edge.get((u, v))
        rev = tr.edge.get((v, u))
        fwd_in = fwd in kept_set if fwd is not None else False
        rev_in = rev in kept_set if rev is not None else False
        if fwd_in == rev_in:
            raise MeshingError("boundary subsegment is not a mesh boundary edge")
        if fwd_in:
            boundary.append((renum[u], renum[v], parent))
        else:
            boundary.append((renum[v], renum[u], parent))
    boundary = np.array(sorted(boundary), dtype=np.int64)

    corners = points[triangles]
    edges = corners - np.roll(corners, -1, axis=1)
    if np.linalg.norm(edges, axis=2).max() > DIAMETER_FACTOR * h * (1 + 1e-12):
        raise MeshingError(f"longest element edge exceeds {DIAMETER_FACTOR} h")
    return points, triangles, boundary[:, :2].copy(), boundary[:, 2].copy()
