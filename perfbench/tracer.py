"""In-memory spans around the package's public functions.

A `Tracer` swaps module attributes for thin wrappers while it is installed,
so every call that resolves the function through its module (``geometry.
triangulate(...)`` from the harness, or ``assemble_energy_split`` from inside
``assembly``) opens a span.  Nothing under ``src/`` is edited; uninstalling
restores the original functions.

Each span keeps its name, layer, start, end, parent and pass id, the rise of
``ru_maxrss`` across it, and a few sizes read from its arguments or result.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import resource
import time
from dataclasses import dataclass, field

# Layers are the package modules; `_mesher` is reached through geometry's own
# binding of `triangulate_polygon` and counts as geometry.
LAYERS = ("geometry", "assembly", "eigensolve", "weyl", "potentials", "harness")

# Computed LAPACK flop counts (textbook leading terms, not measured):
#   solve_dense:  Cholesky n^3/3, two triangular solves with n right-hand
#                 sides n^3 each, symmetric eigensolver with vectors 9n^3
#                 (Golub & Van Loan), back-substitution n^3.
#   nd_operator:  two projections Q^T X Q at 4n^3 each, cond (LU + inverse)
#                 2n^3, solve (LU + n right-hand sides) 8n^3/3, inv 2n^3,
#                 two products 2n^3 each, eigvalsh without vectors 4n^3/3.
DENSE_FLOPS_PER_N3 = 1.0 / 3.0 + 2.0 + 9.0 + 1.0
ND_FLOPS_PER_N3 = 8.0 + 2.0 + 8.0 / 3.0 + 2.0 + 4.0 + 4.0 / 3.0


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    pass_id: int
    start: float
    end: float = 0.0
    rss_start_mb: float = 0.0
    rss_growth_mb: float = 0.0
    error: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# ---------------------------------------------------------------------------
# sizes read at the layer boundary


def _spectrum_attrs(spec) -> dict:
    res = [spec.residuals_positive.max(initial=0.0), spec.residuals_negative.max(initial=0.0)]
    return {
        "pairs_retained": int(len(spec.positive) + len(spec.negative)),
        "residual_max": float(max(res)),
    }


def _dense_attrs(args, kwargs, spec) -> dict:
    n = int(args[0].shape[0])
    return {
        "dim": n,
        "pairs_computed": n,
        "gflop": DENSE_FLOPS_PER_N3 * n**3 / 1e9,
        **_spectrum_attrs(spec),
    }


def _iterative_attrs(args, kwargs, spec) -> dict:
    k = args[2] if len(args) > 2 else kwargs["k"]
    return {"dim": int(args[0].shape[0]), "pairs_computed": int(k), **_spectrum_attrs(spec)}


def _nd_attrs(args, kwargs, nd) -> dict:
    n = int(nd.matrix.shape[0])
    return {
        "dim": n,
        "gflop": ND_FLOPS_PER_N3 * n**3 / 1e9,
        "condition": float(nd.condition),
        "route_gap": float(nd.route_gap),
    }


def _bytes_written(args, kwargs, paths) -> dict:
    return {"bytes": sum(os.path.getsize(p) for p in paths.values())}


MEASURES = {
    "geometry.triangulate": lambda a, k, mesh: {"nodes": int(mesh.n_nodes)},
    "geometry.build_matched_meshes": lambda a, k, pair: {"nodes": int(pair[0].n_nodes)},
    "assembly.assemble_energy_split": lambda a, k, r: {"elements": int(len(a[0].triangles))},
    "eigensolve.solve_dense": _dense_attrs,
    "eigensolve.solve_iterative": _iterative_attrs,
    "potentials.build_layer_operators": lambda a, k, op: {"panels": int(op.n)},
    "potentials.nd_operator": _nd_attrs,
    "harness.write_outputs": _bytes_written,
}


def public_functions(module) -> list:
    """Names in ``module.__all__`` bound to plain functions."""
    return [n for n in module.__all__ if inspect.isfunction(getattr(module, n))]


# ---------------------------------------------------------------------------
# tracer


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, layer, parent, self.pass_id, 0.0)
        self.spans.append(sp)
        self._stack.append(sp)
        sp.rss_start_mb = _maxrss_mb()
        sp.start = time.perf_counter()
        try:
            yield sp
        except BaseException:
            sp.error = True
            raise
        finally:
            sp.end = time.perf_counter()
            sp.rss_growth_mb = _maxrss_mb() - sp.rss_start_mb
            self._stack.pop()

    def wrap(self, layer: str, name: str, fn):
        measure = MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, layer) as sp:
                result = fn(*args, **kwargs)
            if measure is not None:
                sp.attrs.update(measure(args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Wrap the public functions of each ``{layer: module}`` entry (plus
        geometry's binding of the mesher entry point) for the duration."""
        saved = []
        for layer, mod in modules.items():
            names = public_functions(mod)
            if layer == "geometry":
                names.append("triangulate_polygon")
            for n in names:
                fn = getattr(mod, n)
                saved.append((mod, n, fn))
                setattr(mod, n, self.wrap(layer, f"{layer}.{n}", fn))
        try:
            yield self
        finally:
            for mod, n, fn in reversed(saved):
                setattr(mod, n, fn)


# ---------------------------------------------------------------------------
# arithmetic over recorded spans


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by direct children.

    Children of one parent never overlap in a single-threaded run, but the
    union is taken anyway so that a malformed trace cannot go negative.
    """
    children: dict = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append((sp.start, sp.end))
    out = {}
    for sp in spans:
        covered = 0.0
        cursor = sp.start
        for a, b in sorted(children.get(sp.id, ())):
            a, b = max(a, cursor), min(b, sp.end)
            if b > a:
                covered += b - a
                cursor = b
        out[sp.id] = sp.duration - covered
    return out


def layer_metrics(spans) -> dict:
    """Per-layer numbers for the spans of one pass (see README for meaning)."""
    by_id = {sp.id: sp for sp in spans}
    selfs = self_times(spans)

    def pick(layer=None, name=None, entry=False):
        out = []
        for sp in spans:
            if (layer and sp.layer != layer) or (name and sp.name != name):
                continue
            if entry:  # count a call once, where the layer is entered
                parent = by_id.get(sp.parent)
                if parent is not None and parent.layer == sp.layer:
                    continue
            out.append(sp)
        return out

    def busy(sel):
        return sum(selfs[sp.id] for sp in sel)

    def attr_sum(sel, key):
        return sum(sp.attrs.get(key, 0) for sp in sel)

    def attr_max(sel, key):
        return max((sp.attrs.get(key, 0) for sp in sel), default=0)

    def rss_growth(sel):
        return max((sp.rss_growth_mb for sp in sel), default=0.0)

    geo = pick("geometry")
    asm = pick("assembly")
    eig = pick("eigensolve")
    dense = pick(name="eigensolve.solve_dense")
    lanczos = pick(name="eigensolve.solve_iterative")
    pot = pick("potentials")
    nd = pick(name="potentials.nd_operator")
    runs = pick(name="harness.run_experiment")
    writes = pick(name="harness.write_outputs")

    geo_busy = busy(geo)
    nodes = attr_sum(geo, "nodes")
    computed = attr_sum(eig, "pairs_computed")
    retained = attr_sum(eig, "pairs_retained")
    return {
        "geometry.busy_s": geo_busy,
        "geometry.calls": len(pick("geometry", entry=True)),
        "geometry.nodes": nodes,
        "geometry.nodes_per_s": nodes / geo_busy if geo_busy > 0 else 0.0,
        "assembly.busy_s": busy(asm),
        "assembly.calls": len(pick("assembly", entry=True)),
        "assembly.elements": attr_sum(asm, "elements"),
        "eigensolve.busy_s": busy(eig),
        "eigensolve.dense_s": busy(dense),
        "eigensolve.dense_calls": len(dense),
        "eigensolve.dense_dim_max": attr_max(dense, "dim"),
        "eigensolve.dense_gflop": attr_sum(dense, "gflop"),
        "eigensolve.iterative_s": busy(lanczos),
        "eigensolve.iterative_calls": len(lanczos),
        "eigensolve.iterative_dim_max": attr_max(lanczos, "dim"),
        "eigensolve.pairs_computed": computed,
        "eigensolve.pairs_retained": retained,
        "eigensolve.retained_ratio": retained / computed if computed else 0.0,
        "eigensolve.residual_max": attr_max(eig, "residual_max"),
        "eigensolve.errors": sum(1 for sp in eig if sp.error),
        "eigensolve.peak_rss_growth_mb": rss_growth(eig),
        "weyl.busy_s": busy(pick("weyl")),
        "weyl.calls": len(pick("weyl", entry=True)),
        "potentials.busy_s": busy(pot),
        "potentials.fill_s": busy(pick(name="potentials.build_layer_operators")),
        "potentials.nd_s": busy(nd),
        "potentials.jump_s": busy(pick(name="potentials.jump_relation_error")),
        "potentials.panels_max": attr_max(pot, "panels"),
        "potentials.nd_gflop": attr_sum(nd, "gflop"),
        "potentials.condition_max": attr_max(nd, "condition"),
        "potentials.route_gap_max": attr_max(nd, "route_gap"),
        "potentials.peak_rss_growth_mb": rss_growth(pot),
        "harness.run_s": sum(sp.duration for sp in runs),
        "harness.self_s": busy(pick("harness")),
        "harness.write_s": sum(sp.duration for sp in writes),
        "harness.bytes_written": attr_sum(writes, "bytes"),
        "harness.experiments": len(runs),
        "trace.layers_self_s": sum(busy(pick(name)) for name in LAYERS),
        "trace.spans": len(spans),
    }
