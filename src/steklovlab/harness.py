"""Experiment orchestration: configs in, (CSV, JSON, SVG) out.

Config files are flat UTF-8 ``key = value`` lines (``#`` comments).  Values
are coerced to int/float/bool when they parse as such; comma-separated values
become lists.  Schema (defaults in parentheses):

    experiment              weyl-verification | boundary-only-dependence |
                            mollification-convergence | bilipschitz-invariance |
                            bem-crosscheck
    seed                    integer (0), echoed into every output file
    output.dir              directory for the artifact files ("out")
    domain.name             catalog domain
    domain.<p>              forwarded to the domain catalog (n, teeth, slope, ...)
    coeff.a                 matrix coefficient: constant (default), diagonal,
                            rotated-diagonal or checkerboard
    coeff.a.<p>             forwarded to it (p, q, angle, cell, low, high, origin)
    coeff.v0, coeff.v0.<p>  potential: constant (default) or bump, and its
                            parameters (value, center, radius, height)
    rho.name, rho.<p>       boundary weight: constant (default) or per-segment,
                            and its parameters (value, values)
    mesh.levels             positive, strictly decreasing h values; the
                            boundary-only, mollification and bilipschitz
                            experiments mesh only the last (finest) one
    tail.kmin, tail.kmax    tail-fit window, non-negative, a nonzero kmax at
                            least kmin (0 = [5, resolved/4])
    tolerance.deviation     Weyl-fit relative tolerance (0.10)
    tolerance.pair          cross-method eigenvalue tolerance (0.02)
    tolerance.drift         mollification final drift tolerance (0.02)
    tolerance.invariance    straightening eigenvalue tolerance (1e-8)
    interior.a, interior.a.<p>   contrasting interior field (boundary-only),
                            a matrix coefficient like coeff.a
    blend.width             boundary-blend collar width (0.1)
    moll.scales             mollification scales, positive and strictly
                            decreasing (0.16,0.08,0.04,0.02)
    collar.depth            straightening collar depth (0.2); the collar
                            grid follows the last mesh.levels entry
    bem.panels-per-edge     Nystrom panels per polygon edge (boundary route)
    bem.count               leading Steklov/ND pairs compared, at least 1 (20)

A key outside this schema is ignored.  The ``mesh``, ``solve``, ``weyl`` and
``bem`` commands of the command line read the same keys (``domain.*``,
``coeff.*``, ``rho.*``, ``mesh.levels`` and ``bem.panels-per-edge``) from
``KEY=VALUE`` arguments; they need no ``experiment``.

Config errors raise: a missing key, a value of the wrong type or out of
range, an unknown catalog entry or parameter, a ``rho.values`` list without
exactly one value per domain segment, a weight that predicts no positive
branch (W+ = 0) in the boundary-only, mollification or bilipschitz
experiment, which read only that branch, or a coefficient whose W±
overflows ends ``run_experiment`` in ``HarnessError`` (or the catalog's
``GeometryError``/``AssemblyError``, or ``WeylError``; a collar grid alone
over the node budget in ``MeshingError``) before the first stage starts, and
nothing is written.  Once a stage has started, every experiment
turns a failure into ``report.error`` and writes a partial ``report.json``
(and no CSV or SVG) holding what was computed up to the failure; so does a
failure to render the CSV or SVG artifacts.

Reports never widen a tolerance at runtime: the numbers in the JSON are the
numbers the pass/fail verdict was computed from.  CSV outputs are bitwise
reproducible for a fixed config; wall-clock timings live only in report.json.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy

from . import __version__, assembly, eigensolve, geometry, potentials, weyl

__all__ = [
    "HarnessError",
    "ExperimentConfig",
    "Report",
    "run_experiment",
    "write_outputs",
    "svg_loglog",
]


class HarnessError(RuntimeError):
    """Configuration or orchestration failure."""


# ---------------------------------------------------------------------------
# configuration


def _coerce(text: str):
    s = text.strip()
    if "," in s:
        return [_coerce(p) for p in s.split(",") if p.strip()]
    low = s.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        pass
    return s


def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise HarnessError(f"config line {lineno}: expected key = value")
        key, val = line.split("=", 1)
        key = key.strip()
        if not key:
            raise HarnessError(f"config line {lineno}: empty key")
        if key in out:
            raise HarnessError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = _coerce(val)
    return out


def _finite(key: str, val) -> float:
    """``val`` as a float; a bool, text or non-finite value is an error."""
    if isinstance(val, (int, float)) and not isinstance(val, bool):
        with contextlib.suppress(OverflowError):  # an int beyond float range
            if math.isfinite(val):
                return float(val)
    raise HarnessError(f"{key} must be a finite number (got {val!r})")


def _positive_decreasing(key: str, values: list) -> list:
    if any(v <= 0 for v in values) or any(b >= a for a, b in zip(values, values[1:])):
        raise HarnessError(f"{key} must be positive and strictly decreasing (got {values})")
    return values


@dataclass
class ExperimentConfig:
    values: dict

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        return cls(parse_config_text(text))

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def __post_init__(self):
        if "experiment" in self.values:  # the command line's configs have none
            self.get_choice("experiment", tuple(_EXPERIMENTS))
        _positive_decreasing("mesh.levels", self.get_floats("mesh.levels", []))

    def get(self, key, default=None):
        return self.values.get(key, default)

    # Typed accessors: ``default`` when the key is absent, otherwise the value
    # checked for its type; a mismatch raises HarnessError naming the key.

    def get_int(self, key: str, default: int) -> int:
        val = self.values.get(key, default)
        if isinstance(val, int) and not isinstance(val, bool):
            return val
        raise HarnessError(f"{key} must be an integer (got {val!r})")

    def get_float(self, key: str, default: float | None) -> float | None:
        val = self.values.get(key)
        return default if val is None else _finite(key, val)

    def get_floats(self, key: str, default: list) -> list:
        """A single number reads as a one-element list."""
        val = self.values.get(key, default)
        return [_finite(key, v) for v in (val if isinstance(val, list) else [val])]

    def get_choice(self, key: str, choices: tuple):
        val = self.values.get(key)
        if val not in choices:
            raise HarnessError(f"{key} must be one of {', '.join(choices)} (got {val!r})")
        return val

    @property
    def experiment(self) -> str:
        return self.get_choice("experiment", tuple(_EXPERIMENTS))

    @property
    def seed(self) -> int:
        return self.get_int("seed", 0)

    @property
    def output_dir(self) -> str:
        return str(self.values.get("output.dir", "out"))

    def mesh_levels(self) -> list:
        levels = self.get_floats("mesh.levels", [])
        if not levels:
            raise HarnessError("config needs mesh.levels")
        return levels

    def panels_per_edge(self) -> int:
        ppe = self.get_int("bem.panels-per-edge", 0)
        if ppe < 1:
            raise HarnessError(f"config needs bem.panels-per-edge >= 1 (got {ppe})")
        return ppe

    def group(self, prefix: str) -> dict:
        """Values of the keys under ``prefix.``, by the rest of the key with
        dashes as underscores (the catalogs' keyword names)."""
        plen = len(prefix) + 1
        return {
            key[plen:].replace("-", "_"): val
            for key, val in self.values.items()
            if key.startswith(prefix + ".")
        }

    def echo(self) -> dict:
        return dict(sorted(self.values.items()))


def _domain_from(cfg: ExperimentConfig) -> geometry.PolygonDomain:
    params = cfg.group("domain")
    if "name" not in params:
        raise HarnessError("config needs domain.name")
    return geometry.make_domain(params.pop("name"), **params)


def _matrix_from(cfg: ExperimentConfig, prefix="coeff.a") -> assembly.MatrixField:
    return assembly.make_matrix_field(cfg.get(prefix, "constant"), **cfg.group(prefix))


def _coeff_from(cfg: ExperimentConfig, domain) -> assembly.CoefficientField:
    """The configured coefficients; a per-segment weight needs exactly one
    value per segment of ``domain``."""
    a = _matrix_from(cfg)
    v0 = assembly.make_potential(cfg.get("coeff.v0", "constant"), **cfg.group("coeff.v0"))
    params = cfg.group("rho")
    rho = assembly.make_weight(params.pop("name", "constant"), **params)
    if rho.name == "per-segment":
        count = len(np.atleast_1d(params["values"]))
        if count != domain.n_segments:
            raise HarnessError(
                f"rho.values needs one value per segment of {domain.name} "
                f"({domain.n_segments}, got {count})"
            )
    return assembly.CoefficientField(a=a, v0=v0, rho=rho)


def _positive_branch(domain, coeff) -> weyl.WeylData:
    """W± of ``coeff`` for an experiment that reads only the positive branch,
    which W+ = 0 leaves empty."""
    wd = weyl.weyl_coefficient(domain, coeff)
    if wd.w_plus == 0:
        raise HarnessError("rho predicts no positive branch (W+ = 0): nothing to compare")
    return wd


# ---------------------------------------------------------------------------
# reporting


def _versions() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "steklovlab": __version__,
    }


@dataclass
class Report:
    """Verdict of one run.  The fields up to ``error`` are its report.json;
    the rest carry what the CSV and SVG writers draw and are not serialized."""

    experiment: str
    passed: bool
    tolerances: dict
    predicted: dict = field(default_factory=dict)
    fitted: dict = field(default_factory=dict)
    levels: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    error: str | None = None
    spectrum: eigensolve.Spectrum | None = None
    weyl_data: weyl.WeylData | None = None
    gaps: np.ndarray | None = None  # relative gap per index k

    def to_json(self) -> str:
        payload = {
            "experiment": self.experiment,
            "passed": bool(self.passed),
            "tolerances": self.tolerances,
            "predicted": self.predicted,
            "fitted": self.fitted,
            "levels": self.levels,
            "summary": self.summary,
            "provenance": self.provenance,
            "error": self.error,
        }
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _tail(cfg: ExperimentConfig) -> tuple:
    """Configured (kmin, kmax) of the tail window; 0 = the default end of
    ``eigensolve.tail_window``."""
    kmin, kmax = cfg.get_int("tail.kmin", 0), cfg.get_int("tail.kmax", 0)
    if kmin < 0 or kmax < 0 or 0 < kmax < kmin:
        raise HarnessError(
            "tail.kmin and tail.kmax must be non-negative, with tail.kmax 0 or at "
            f"least tail.kmin (got {kmin}, {kmax})"
        )
    return kmin, kmax


def _fit_level(mesh, coeff, tail: tuple) -> tuple:
    """Assemble, solve, and tail-fit one mesh level; returns the level row
    and the spectrum."""
    forms = assembly.assemble_forms(mesh, coeff)
    spec = eigensolve.solve_dense(forms.A, forms.B)
    row = {
        "h": mesh.h,
        "dofs": int(forms.A.shape[0]),
        "boundary_rank": int(spec.boundary_rank or 0),
        "residual_max": float(
            max(
                spec.residuals_positive.max(initial=0.0),
                spec.residuals_negative.max(initial=0.0),
            )
        ),
    }
    for sign, key in (("+", "plus"), ("-", "minus")):
        kmin, kmax = eigensolve.tail_window(len(spec.branch(sign)), *tail)
        if kmax < kmin:
            continue
        t = eigensolve.tail_coefficient(spec, window=(kmin, kmax), sign=sign)
        row[f"fit_{key}"] = t.estimate
        row[f"band_{key}"] = [t.lower, t.upper]
        row[f"window_{key}"] = [int(t.window[0]), int(t.window[1])]
    return row, spec


def _deviation(fit: float, predicted: float) -> float:
    return abs(fit - predicted) / predicted


# ---------------------------------------------------------------------------
# experiments
#
# Each body reads its config first, so a config error raises before anything
# is computed; ``stage(name)`` then times one step into provenance.timings.


def _weyl_verification(cfg: ExperimentConfig, report: Report, stage) -> None:
    tol = cfg.get_float("tolerance.deviation", 0.10)
    report.tolerances = {"deviation": tol}
    domain = _domain_from(cfg)
    coeff = _coeff_from(cfg, domain)
    levels = cfg.mesh_levels()
    tail = _tail(cfg)
    wd = weyl.weyl_coefficient(domain, coeff)
    if wd.w_plus == wd.w_minus == 0:
        raise HarnessError("rho predicts no spectral branch (W+ = W- = 0): nothing to verify")
    report.weyl_data = wd
    report.predicted = {"w_plus": wd.w_plus, "w_minus": wd.w_minus}
    report.summary["surface_measure"] = domain.perimeter
    for h in levels:
        with stage(f"level_h={h:g}"):
            mesh = geometry.triangulate(domain, h)
            row, report.spectrum = _fit_level(mesh, coeff, tail)
        report.levels.append(row)
    last = report.levels[-1]
    report.fitted = {k: last[f"fit_{k}"] for k in ("plus", "minus") if f"fit_{k}" in last}
    # a predicted branch without a fit fails the run
    devs = {
        key: _deviation(report.fitted[key], pred) if key in report.fitted else None
        for key, pred in (("plus", wd.w_plus), ("minus", wd.w_minus))
        if pred > 0
    }
    report.summary["deviation"] = devs
    report.passed = all(d is not None and d <= tol for d in devs.values())


def _boundary_only_dependence(cfg: ExperimentConfig, report: Report, stage) -> None:
    tol = cfg.get_float("tolerance.deviation", 0.10)
    report.tolerances = {"deviation": tol}
    domain = _domain_from(cfg)
    smooth = _coeff_from(cfg, domain)
    trace_field = smooth.a
    interior_field = _matrix_from(cfg, prefix="interior.a")
    width = cfg.get_float("blend.width", 0.1)
    h = cfg.mesh_levels()[-1]
    tail = _tail(cfg)
    rough = assembly.boundary_matched_rough(domain, interior_field, trace_field, width)

    # reject mismatched traces up front
    pa, pb = domain.segment_points()
    lengths = domain.segment_lengths()
    t = (np.arange(1000) + 0.5) / 1000 * lengths.sum()
    seg = np.searchsorted(np.cumsum(lengths), t, side="right")
    local = (t - np.concatenate([[0.0], np.cumsum(lengths)])[seg]) / lengths[seg]
    bpts = pa[seg] + local[:, None] * (pb[seg] - pa[seg])
    gap = np.abs(trace_field(bpts) - rough(bpts)).max()
    if gap > 1e-9:
        raise HarnessError(f"boundary traces differ by {gap:.3e}")
    report.summary["trace_gap"] = float(gap)

    # interior contrast measure over a deterministic grid
    lo = domain.vertices.min(axis=0)
    hi = domain.vertices.max(axis=0)
    grid = np.column_stack(
        [np.repeat(np.linspace(lo[0], hi[0], 40), 40), np.tile(np.linspace(lo[1], hi[1], 40), 40)]
    )
    inside = domain.contains(grid)
    a1 = trace_field(grid[inside])
    a2 = rough(grid[inside])
    contrast = np.linalg.norm(a2 - a1, axis=(1, 2)).max() / np.linalg.norm(
        a1, axis=(1, 2)
    ).max()
    report.summary["interior_contrast"] = float(contrast)

    wd = _positive_branch(domain, smooth)
    report.weyl_data = wd
    report.predicted = {"w_plus": wd.w_plus, "w_minus": wd.w_minus}

    with stage("mesh"):
        mesh = geometry.triangulate(domain, h)
    fits = {}
    for tag, coeff in (("smooth", smooth), ("rough", smooth.with_(a=rough))):
        with stage(tag):
            row, report.spectrum = _fit_level(mesh, coeff, tail)
        row["field"] = tag
        report.levels.append(row)
        if "fit_plus" not in row:
            n = len(report.spectrum.positive)
            kmin, kmax = eigensolve.tail_window(n, *tail)
            raise HarnessError(
                f"tail window [{kmin}, {kmax}] (tail.kmin, tail.kmax) leaves nothing "
                f"to fit among the {n} positive pairs of the {tag} field"
            )
        fits[tag] = row["fit_plus"]
    dev1 = _deviation(fits["smooth"], wd.w_plus)
    dev2 = _deviation(fits["rough"], wd.w_plus)
    mutual = abs(fits["smooth"] - fits["rough"]) / fits["smooth"]
    report.fitted = fits
    report.summary["deviation"] = {"smooth": dev1, "rough": dev2, "mutual": mutual}
    report.passed = max(dev1, dev2, mutual) <= tol


def _mollification_convergence(cfg: ExperimentConfig, report: Report, stage) -> None:
    tol = cfg.get_float("tolerance.drift", 0.02)
    report.tolerances = {"drift": tol, "monotone_slack": 0.02}
    domain = _domain_from(cfg)
    coeff0 = _coeff_from(cfg, domain)
    _positive_branch(domain, coeff0)
    scales = _positive_decreasing(
        "moll.scales", cfg.get_floats("moll.scales", [0.16, 0.08, 0.04, 0.02])
    )
    h = cfg.mesh_levels()[-1]
    tail = _tail(cfg)
    with stage("mesh"):
        mesh = geometry.triangulate(domain, h)
    with stage("reference"):
        row0, report.spectrum = _fit_level(mesh, coeff0, tail)
    row0["eps"] = 0.0
    report.levels.append(row0)
    kmax = eigensolve.tail_window(len(report.spectrum.positive), *tail)[1]
    ref = report.spectrum.positive[:kmax]

    drifts = []
    for eps in scales:
        with stage(f"eps={eps:g}"):
            fld = assembly.mollified(coeff0.a, eps)
            row, spec = _fit_level(mesh, coeff0.with_(a=fld), tail)
        cur = spec.positive[:kmax]
        drift = float(np.max(np.abs(cur - ref) / ref))
        row["eps"] = eps
        row["drift"] = drift
        report.levels.append(row)
        drifts.append(drift)
    monotone = all(b <= a * 1.02 + 1e-12 for a, b in zip(drifts, drifts[1:]))
    report.fitted = {"drift": drifts}
    report.summary["scales"] = scales
    report.summary["monotone"] = monotone
    report.summary["final_drift"] = drifts[-1]
    report.passed = monotone and drifts[-1] <= tol


def _bilipschitz_invariance(cfg: ExperimentConfig, report: Report, stage) -> None:
    tol = cfg.get_float("tolerance.invariance", 1e-8)
    report.tolerances = {"invariance": tol}
    domain = _domain_from(cfg)
    depth = cfg.get_float("collar.depth", 0.2)
    h = cfg.mesh_levels()[-1]
    coeff = _coeff_from(cfg, domain)
    _positive_branch(domain, coeff)
    smap = geometry.build_straightening(domain, depth, h)
    with stage("mesh"):
        mesh_pre, mesh_post = geometry.build_matched_meshes(smap)
    with stage("assembly"):
        forms_pre = assembly.assemble_forms(mesh_pre, coeff)
        forms_post = assembly.assemble_forms(mesh_post, assembly.pullback_coefficients(coeff, smap))
    with stage("solve"):
        spec_pre = eigensolve.solve_dense(forms_pre.A, forms_pre.B)
        spec_post = eigensolve.solve_dense(forms_post.A, forms_post.B)

    mu1 = spec_pre.positive[0]
    resolved = spec_pre.positive >= 1e-4 * mu1
    npos = int(resolved.sum())
    k = min(npos, len(spec_post.positive))
    rel = np.abs(spec_pre.positive[:k] - spec_post.positive[:k]) / spec_pre.positive[:k]
    max_rel = float(rel.max())

    # negative control: drop the boundary length factor from the pulled-back
    # weight, which must visibly move the spectrum
    with stage("control"):
        misuse = assembly.pullback_coefficients(coeff, smap, omit_boundary_jacobian=True)
        bad = assembly.assemble_forms(mesh_post, misuse)
        spec_bad = eigensolve.solve_dense(bad.A, bad.B)
    kb = min(k, len(spec_bad.positive))
    ref = spec_pre.positive[:kb]
    misuse_gap = float(np.max(np.abs(ref - spec_bad.positive[:kb]) / ref))

    report.levels.append(
        {
            "h": h,
            "dofs": int(forms_pre.A.shape[0]),
            "resolved": k,
            "max_relative_gap": max_rel,
            "misuse_gap": misuse_gap,
        }
    )
    report.fitted = {"max_relative_gap": max_rel}
    report.summary["resolved_count"] = k
    report.summary["misuse_gap"] = misuse_gap
    report.summary["misuse_detectable"] = misuse_gap > 100 * tol
    report.passed = max_rel <= tol and misuse_gap > 100 * tol
    report.spectrum = spec_pre
    report.gaps = rel


def _bem_crosscheck(cfg: ExperimentConfig, report: Report, stage) -> None:
    tol = cfg.get_float("tolerance.pair", 0.02)
    report.tolerances = {"pair": tol, "route_gap": 1e-10}
    domain = _domain_from(cfg)
    k = cfg.get_int("bem.count", 20)
    if k < 1:
        raise HarnessError(f"bem.count must be at least 1 (got {k})")
    ppe = cfg.panels_per_edge()
    levels = cfg.mesh_levels()
    coeff = assembly.CoefficientField(
        assembly.constant_matrix(1.0),
        assembly.constant_potential(0.0),
        assembly.constant_weight(1.0),
    )
    with stage("bem"):
        op = potentials.build_layer_operators(domain, ppe)
        nd = potentials.nd_operator(op)
    bem_eigs = nd.eigenvalues[:k]

    def fem_at(h: float):
        forms = assembly.assemble_forms(geometry.triangulate(domain, h), coeff)
        # K u = σ B u exactly when (K + B) u = (1 + σ) B u, and K + B is SPD:
        # μ = 1/(1 + σ) and the ND value 1/σ = μ/(1 − μ).  μ₀ = 1 (σ₀ = 0) is
        # the constant mode, which the ND map has no partner for.
        mu = eigensolve.solve_dense(forms.A + forms.B, forms.B).positive[1 : k + 4]
        return mu / (1.0 - mu)

    with stage("fem"):
        fem = fem_at(levels[-1])
        if len(levels) >= 2:
            # second-order Richardson step across the two finest meshes; the
            # boundary spectrum converges like h^2 in the resolved range, so
            # this removes most of the tail's discretisation bias
            h_c, h_f = levels[-2], levels[-1]
            fem_c = fem_at(h_c)
            m = min(len(fem), len(fem_c))
            fem = (fem[:m] * h_c**2 - fem_c[:m] * h_f**2) / (h_c**2 - h_f**2)

    kk = min(k, len(fem), len(bem_eigs))
    fem = fem[:kk]
    bem_k = bem_eigs[:kk]
    rel = np.abs(fem - bem_k) / bem_k
    max_rel = float(rel.max()) if kk else None
    report.levels = [
        {
            "k": i + 1,
            "fem": float(fem[i]),
            "bem": float(bem_k[i]),
            "relative": float(rel[i]),
        }
        for i in range(kk)
    ]
    report.fitted = {"max_relative": max_rel}
    report.summary["route_gap"] = nd.route_gap
    report.summary["condition"] = nd.condition
    report.summary["nd_asymmetry"] = nd.asymmetry
    report.passed = max_rel is not None and max_rel <= tol and nd.route_gap <= 1e-10
    report.gaps = rel


# ---------------------------------------------------------------------------
# SVG rendering (hand-rolled: a pure function of the plotted numbers)

_PALETTE = ("#1965b0", "#dc050c", "#4eb265", "#f7a800", "#882e72")
SVG_WIDTH, SVG_HEIGHT = 640, 440


def _log_ticks(lo: float, hi: float):
    lo_e = math.floor(math.log10(lo))
    hi_e = math.ceil(math.log10(hi))
    return [10.0**e for e in range(lo_e, hi_e + 1)]


def svg_loglog(
    series,
    *,
    hlines=(),
    title="",
    xlabel="",
    ylabel="",
    comment="",
) -> str:
    """Log-log scatter plot.  ``series`` is a list of dicts with keys ``x``,
    ``y`` and ``label``; ``hlines`` is a list of (value, label) pairs drawn as
    dashed horizontal lines."""
    width, height = SVG_WIDTH, SVG_HEIGHT
    pts = [
        (float(x), float(y))
        for s in series
        for x, y in zip(s["x"], s["y"])
        if x > 0 and y > 0
    ]
    if not pts:
        raise HarnessError("nothing to plot")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts] + [float(v) for v, _ in hlines]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    lx0, lx1 = math.log10(x0) - 0.05, math.log10(x1) + 0.05
    ly0, ly1 = math.log10(y0) - 0.1, math.log10(y1) + 0.1
    ml, mr, mt, mb = 64, 16, 28, 44

    def px(x):
        return ml + (math.log10(x) - lx0) / (lx1 - lx0) * (width - ml - mr)

    def py(y):
        return height - mb - (math.log10(y) - ly0) / (ly1 - ly0) * (height - mt - mb)

    out = io.StringIO()
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
    )
    if comment:
        out.write(f"<desc>{comment}</desc>\n")
    out.write(f'<rect width="{width}" height="{height}" fill="white"/>\n')
    out.write(
        f'<rect x="{ml}" y="{mt}" width="{width-ml-mr}" height="{height-mt-mb}" '
        'fill="none" stroke="#444"/>\n'
    )
    for tx in _log_ticks(x0, x1):
        if 10**lx0 <= tx <= 10**lx1:
            out.write(
                f'<line x1="{px(tx):.1f}" y1="{mt}" x2="{px(tx):.1f}" '
                f'y2="{height-mb}" stroke="#ddd"/>\n'
            )
            out.write(
                f'<text x="{px(tx):.1f}" y="{height-mb+16}" font-size="11" '
                f'text-anchor="middle" font-family="sans-serif">1e{int(math.log10(tx))}</text>\n'
            )
    for ty in _log_ticks(y0, y1):
        if 10**ly0 <= ty <= 10**ly1:
            out.write(
                f'<line x1="{ml}" y1="{py(ty):.1f}" x2="{width-mr}" '
                f'y2="{py(ty):.1f}" stroke="#ddd"/>\n'
            )
            out.write(
                f'<text x="{ml-6}" y="{py(ty)+4:.1f}" font-size="11" '
                f'text-anchor="end" font-family="sans-serif">1e{int(math.log10(ty))}</text>\n'
            )
    for val, label in hlines:
        out.write(
            f'<line x1="{ml}" y1="{py(val):.1f}" x2="{width-mr}" y2="{py(val):.1f}" '
            'stroke="#111" stroke-dasharray="6 4"/>\n'
        )
        out.write(
            f'<text x="{width-mr-4}" y="{py(val)-5:.1f}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">{label}</text>\n'
        )
    for idx, s in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        for x, y in zip(s["x"], s["y"]):
            if x > 0 and y > 0:
                out.write(f'<circle cx="{px(x):.1f}" cy="{py(y):.1f}" r="2.4" fill="{color}"/>\n')
        out.write(
            f'<text x="{ml+10}" y="{mt+16+14*idx}" font-size="12" fill="{color}" '
            f'font-family="sans-serif">{s["label"]}</text>\n'
        )
    if title:
        out.write(
            f'<text x="{width/2:.0f}" y="18" font-size="13" text-anchor="middle" '
            f'font-family="sans-serif">{title}</text>\n'
        )
    if xlabel:
        out.write(
            f'<text x="{width/2:.0f}" y="{height-8}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif">{xlabel}</text>\n'
        )
    if ylabel:
        out.write(
            f'<text x="14" y="{height/2:.0f}" font-size="12" text-anchor="middle" '
            f'font-family="sans-serif" transform="rotate(-90 14 {height/2:.0f})">{ylabel}</text>\n'
        )
    out.write("</svg>\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# plots


def _tail_plot(report: Report, comment: str) -> str:
    """k·|μ_k| against |μ_k| for each branch that has pairs."""
    series = [
        {"x": mu, "y": np.arange(1, len(mu) + 1) * mu, "label": label}
        for mu, label in (
            (report.spectrum.positive, "k·μ_k (+)"),
            (np.abs(report.spectrum.negative), "k·|μ_k| (−)"),
        )
        if len(mu)
    ]
    hl = [
        (report.predicted[key], f"predicted {name}")
        for key, name in (("w_plus", "W+"), ("w_minus", "W-"))
        if report.predicted.get(key, 0) > 0
    ]
    return svg_loglog(
        series,
        hlines=hl,
        title=f"counting-function tail — {report.experiment}",
        xlabel="λ",
        ylabel="n(λ)·λ",
        comment=comment,
    )


def _gap_plot(tolerance: str, label: str, title: str, ylabel: str):
    """Plot of ``report.gaps`` against ``report.tolerances[tolerance]``."""

    def plot(report: Report, comment: str) -> str:
        k = np.arange(1, len(report.gaps) + 1)
        return svg_loglog(
            [{"x": k, "y": np.maximum(report.gaps, 1e-17), "label": label}],
            hlines=[(report.tolerances[tolerance], "tolerance")],
            title=title,
            xlabel="k",
            ylabel=ylabel,
            comment=comment,
        )

    return plot


# ---------------------------------------------------------------------------
# eigenvalue tables


def _spectrum_table(report: Report) -> str:
    return eigensolve.spectrum_to_csv(report.spectrum)


def _route_table(report: Report) -> str:
    out = io.StringIO()
    out.write("index,fem,bem,relative\n")
    for row in report.levels:
        out.write(f"{row['k']},{row['fem']!r},{row['bem']!r},{row['relative']!r}\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class _Experiment:
    body: Callable  # (cfg, report, stage) -> None; fills the report
    table: Callable = _spectrum_table  # report -> eigenvalues.csv body
    plot: Callable = _tail_plot  # (report, comment) -> plot.svg


_EXPERIMENTS = {
    "weyl-verification": _Experiment(_weyl_verification),
    "boundary-only-dependence": _Experiment(_boundary_only_dependence),
    "mollification-convergence": _Experiment(_mollification_convergence),
    "bilipschitz-invariance": _Experiment(
        _bilipschitz_invariance,
        plot=_gap_plot(
            "invariance", "relative gap", "straightening invariance", "relative eigenvalue gap"
        ),
    ),
    "bem-crosscheck": _Experiment(
        _bem_crosscheck,
        _route_table,
        _gap_plot(
            "pair",
            "|FEM-BEM|/BEM",
            "boundary-integral vs finite-element spectra",
            "relative difference",
        ),
    ),
}


# ---------------------------------------------------------------------------
# output files and the runner


def write_outputs(report: Report, cfg: ExperimentConfig, outdir=None) -> dict:
    """Write report.json and, unless the run failed, eigenvalues.csv,
    plot.svg and (when the report carries Weyl data) weyl.csv; returns the
    path map.

    Every artifact is rendered before any is written: a rendering failure
    fails the report and only report.json is written, with the error."""
    experiment = _EXPERIMENTS[report.experiment]
    texts = {}
    if report.error is None:
        # identifies the run in every artifact without the JSON
        stamp = f"experiment={cfg.experiment} seed={cfg.seed}"
        try:
            texts["eigenvalues.csv"] = f"# {stamp}\n" + experiment.table(report)
            if report.weyl_data is not None:
                texts["weyl.csv"] = f"# {stamp}\n" + report.weyl_data.to_csv()
            texts["plot.svg"] = experiment.plot(report, stamp)
        except Exception as exc:
            texts = {}
            report.passed = False
            report.error = f"{type(exc).__name__}: {exc}"
    texts["report.json"] = report.to_json() + "\n"
    outdir = outdir or cfg.output_dir
    os.makedirs(outdir, exist_ok=True)
    paths = {}
    for name, text in texts.items():
        paths[name] = os.path.join(outdir, name)
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(text)
    return paths


@contextlib.contextmanager
def _stage(timings: dict, name: str):
    """Time one stage into ``timings[name]``, also when it fails."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[name] = time.perf_counter() - t0


def run_experiment(cfg: ExperimentConfig, outdir=None) -> Report:
    """Run the configured experiment and write its outputs.

    A config error raises before the first stage and writes nothing.  Any
    failure after that sets ``report.error`` and fails the report, which is
    still written as report.json with what was computed so far."""
    t0 = time.perf_counter()
    timings: dict = {}
    report = Report(
        cfg.experiment,
        passed=False,
        tolerances={},
        provenance={
            "config": cfg.echo(),
            "seed": cfg.seed,
            "versions": _versions(),
            "timings": timings,
        },
    )
    try:
        _EXPERIMENTS[cfg.experiment].body(cfg, report, functools.partial(_stage, timings))
    except Exception as exc:
        if not timings:  # no stage has started: the config is at fault
            raise
        report.passed = False
        report.error = f"{type(exc).__name__}: {exc}"
    timings["total"] = time.perf_counter() - t0
    write_outputs(report, cfg, outdir)
    return report
