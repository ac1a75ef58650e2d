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
    coeff.a                 matrix coefficient name ("constant")
    coeff.a.<p>             forwarded; one nesting level for interior/trace/base,
                            e.g. coeff.a.interior = checkerboard,
                            coeff.a.interior.cell = 0.1
    coeff.v0                potential name ("constant"), coeff.v0.<p> forwarded
    rho.name                boundary weight name ("constant"), rho.<p> forwarded
    mesh.levels             strictly decreasing h values
    solver.method           auto | dense | iterative ("auto": dense, condensed
                            onto the boundary, when the boundary rank is at
                            most eigensolve.DENSE_DIMENSION_CAP, else Lanczos)
    solver.count            iterative pair count (0 = derived from tail window)
    tail.kmin, tail.kmax    tail-fit window (0 = [5, boundary_rank/4])
    tolerance.deviation     Weyl-fit relative tolerance (0.10)
    tolerance.pair          cross-method eigenvalue tolerance (0.02)
    tolerance.drift         mollification final drift tolerance (0.02)
    tolerance.invariance    straightening eigenvalue tolerance (1e-8)
    interior.a, interior.a.<p>   contrasting interior field (boundary-only)
    blend.width             boundary-blend collar width (0.1)
    blend.sweep             optional widths for the degradation curve
    moll.scales             mollification scales, decreasing (0.16,0.08,0.04,0.02)
    moll.floor              SPD floor as a fraction of the declared ellipticity (0.5)
    collar.depth            straightening collar depth (0.2)
    collar.resolution       straightening piece resolution (optional)
    bem.panels-per-edge     Nystrom panels per polygon edge (boundary route)
    bem.count               compared eigenvalue count (20)

Reports never widen a tolerance at runtime: the numbers in the JSON are the
numbers the pass/fail verdict was computed from.  CSV outputs are bitwise
reproducible for a fixed config; wall-clock timings live only in report.json.
"""

from __future__ import annotations

import io
import json
import math
import os
import platform
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

from . import __version__, assembly, eigensolve, geometry, potentials, weyl

__all__ = [
    "HarnessError",
    "ExperimentConfig",
    "Report",
    "run_weyl_verification",
    "run_boundary_only_dependence",
    "run_mollification_convergence",
    "run_bilipschitz_invariance",
    "run_bem_crosscheck",
    "run_experiment",
    "write_outputs",
    "svg_loglog",
]

EXPERIMENTS = (
    "weyl-verification",
    "boundary-only-dependence",
    "mollification-convergence",
    "bilipschitz-invariance",
    "bem-crosscheck",
)


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
        exp = self.values.get("experiment")
        if exp not in EXPERIMENTS:
            raise HarnessError(
                f"experiment must be one of {', '.join(EXPERIMENTS)} (got {exp!r})"
            )
        levels = self.mesh_levels()
        if levels is not None:
            if any(b >= a for a, b in zip(levels, levels[1:])):
                raise HarnessError("mesh.levels must be strictly decreasing")

    def get(self, key, default=None):
        return self.values.get(key, default)

    @property
    def experiment(self) -> str:
        return self.values["experiment"]

    @property
    def seed(self) -> int:
        return int(self.values.get("seed", 0))

    @property
    def output_dir(self) -> str:
        return str(self.values.get("output.dir", "out"))

    def mesh_levels(self):
        raw = self.values.get("mesh.levels")
        if raw is None:
            return None
        if not isinstance(raw, list):
            raw = [raw]
        return [float(x) for x in raw]

    def group(self, prefix: str) -> dict:
        """Sub-keys of ``prefix.`` with one extra nesting level folded into
        ``<sub>_params`` dicts (the shape the coefficient catalog expects)."""
        params: dict = {}
        plen = len(prefix) + 1
        for key, val in self.values.items():
            if not key.startswith(prefix + "."):
                continue
            rest = key[plen:]
            if "." in rest:
                head, sub = rest.split(".", 1)
                params.setdefault(f"{head.replace('-', '_')}_params", {})[
                    sub.replace("-", "_")
                ] = val
            else:
                params[rest.replace("-", "_")] = val
        return params

    def echo(self) -> dict:
        return dict(sorted(self.values.items()))


def _domain_from(cfg: ExperimentConfig) -> geometry.PolygonDomain:
    name = cfg.get("domain.name")
    if name is None:
        raise HarnessError("config needs domain.name")
    params = cfg.group("domain")
    params.pop("name", None)
    return geometry.make_domain(str(name), **params)


def _matrix_from(cfg: ExperimentConfig, domain, prefix="coeff.a") -> assembly.MatrixField:
    name = str(cfg.get(prefix, "constant"))
    return assembly.make_matrix_field(name, domain=domain, **cfg.group(prefix))


def _coeff_from(cfg: ExperimentConfig, domain) -> assembly.CoefficientField:
    a = _matrix_from(cfg, domain)
    v0 = assembly.make_potential(
        str(cfg.get("coeff.v0", "constant")), **cfg.group("coeff.v0")
    )
    rho = _weight_from(cfg)
    return assembly.CoefficientField(a=a, v0=v0, rho=rho)


def _weight_from(cfg: ExperimentConfig) -> assembly.BoundaryWeight:
    params = cfg.group("rho")
    params.pop("name", None)
    return assembly.make_weight(str(cfg.get("rho.name", "constant")), **params)


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
    experiment: str
    passed: bool
    tolerances: dict
    predicted: dict = field(default_factory=dict)
    fitted: dict = field(default_factory=dict)
    levels: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    error: str | None = None

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


def _stamp(cfg: ExperimentConfig) -> str:
    """Comment line prepended to every CSV so the run is identifiable without
    the JSON."""
    return f"# experiment={cfg.experiment} seed={cfg.seed}\n"


# ---------------------------------------------------------------------------
# shared pipeline pieces


def _solve_pencil(forms, cfg: ExperimentConfig, *, need: int, both: bool):
    """Dense when the boundary rank fits (or when forced), otherwise one-sided
    Lanczos runs merged across branches."""
    method = str(cfg.get("solver.method", "auto"))
    rank = eigensolve.boundary_rank(forms.B)
    if method == "dense" or (method == "auto" and rank <= eigensolve.DENSE_DIMENSION_CAP):
        return eigensolve.solve_dense(forms.A, forms.B)
    if method not in ("auto", "iterative"):
        raise HarnessError(f"unknown solver.method {method!r}")
    count = int(cfg.get("solver.count", 0)) or need
    count = min(count, max(rank - 2, 1))
    pos = eigensolve.solve_iterative(forms.A, forms.B, count, sign="+", seed=cfg.seed)
    if not both:
        return pos
    neg = eigensolve.solve_iterative(forms.A, forms.B, count, sign="-", seed=cfg.seed)
    return eigensolve.merge_spectra(pos, neg)


def _tail_window(cfg: ExperimentConfig, spec, sign: str = "+") -> tuple:
    kmin = int(cfg.get("tail.kmin", 0))
    kmax = int(cfg.get("tail.kmax", 0))
    if kmin and kmax:
        return (kmin, kmax)
    auto_max = max(5, len(spec.branch(sign)) // 4)
    return (kmin or 5, kmax or auto_max)


def _weight_has_negative_part(coeff, mesh) -> bool:
    return bool((coeff.rho.edge_values(mesh) < 0).any())


def _fit_level(mesh, coeff, cfg, *, d: int = 1) -> dict:
    """Assemble, solve, and tail-fit one mesh level; returns the level row
    plus the spectrum for downstream use."""
    forms = assembly.assemble_forms(mesh, coeff)
    window_hint = int(cfg.get("tail.kmax", 0))
    rank = eigensolve.boundary_rank(forms.B)
    need = int(1.25 * (window_hint or max(5, rank // 4))) + 5
    both = _weight_has_negative_part(coeff, mesh)
    spec = _solve_pencil(forms, cfg, need=need, both=both)
    row = {
        "h": mesh.h,
        "dofs": int(forms.A.shape[0]),
        "boundary_rank": int(spec.boundary_rank or 0),
        "method": spec.method,
        "residual_max": float(
            max(
                spec.residuals_positive.max(initial=0.0),
                spec.residuals_negative.max(initial=0.0),
            )
        ),
    }
    fits = {}
    for sign, key in (("+", "plus"), ("-", "minus")):
        branch = spec.branch(sign)
        if len(branch) == 0:
            continue
        window = _tail_window(cfg, spec, sign)
        kmax = min(window[1], len(branch))
        if kmax < window[0]:
            continue
        t = eigensolve.tail_coefficient(spec, d=d, window=(window[0], kmax), sign=sign)
        fits[key] = t
        row[f"fit_{key}"] = t.estimate
        row[f"band_{key}"] = [t.lower, t.upper]
        row[f"window_{key}"] = [int(t.window[0]), int(t.window[1])]
    return row, spec, fits


def _deviation(fit: float, predicted: float) -> float:
    return abs(fit - predicted) / predicted


# ---------------------------------------------------------------------------
# experiments


def run_weyl_verification(cfg: ExperimentConfig) -> Report:
    tol = float(cfg.get("tolerance.deviation", 0.10))
    report = Report(
        experiment=cfg.experiment,
        passed=False,
        tolerances={"deviation": tol},
        provenance={"config": cfg.echo(), "seed": cfg.seed, "versions": _versions()},
    )
    domain = _domain_from(cfg)
    coeff = _coeff_from(cfg, domain)
    wd = weyl.weyl_coefficient(domain, coeff)
    report.predicted = {"w_plus": wd.w_plus, "w_minus": wd.w_minus}
    report.summary["surface_measure"] = domain.perimeter
    levels = cfg.mesh_levels()
    if not levels:
        raise HarnessError("weyl-verification needs mesh.levels")
    timings = {}
    spec = None
    try:
        for h in levels:
            t0 = time.perf_counter()
            mesh = geometry.triangulate(domain, h)
            row, spec, fits = _fit_level(mesh, coeff, cfg)
            timings[f"level_h={h:g}"] = time.perf_counter() - t0
            report.levels.append(row)
    except Exception as exc:  # partial report on a failed level
        report.error = f"{type(exc).__name__}: {exc}"
        report.provenance["timings"] = timings
        return report
    last = report.levels[-1]
    devs = {}
    ok = True
    for key, pred in (("plus", wd.w_plus), ("minus", wd.w_minus)):
        if pred <= 0:
            continue
        fit = last.get(f"fit_{key}")
        if fit is None:
            ok = False
            devs[key] = None
            continue
        devs[key] = _deviation(fit, pred)
        ok = ok and devs[key] <= tol
    report.fitted = {
        k: last.get(f"fit_{k}") for k in ("plus", "minus") if f"fit_{k}" in last
    }
    report.summary["deviation"] = devs
    report.passed = ok and report.error is None
    report.provenance["timings"] = timings
    report.summary["_spectrum"] = spec
    report.summary["_weyl_data"] = wd
    return report


def run_boundary_only_dependence(cfg: ExperimentConfig) -> Report:
    tol = float(cfg.get("tolerance.deviation", 0.10))
    report = Report(
        experiment=cfg.experiment,
        passed=False,
        tolerances={"deviation": tol},
        provenance={"config": cfg.echo(), "seed": cfg.seed, "versions": _versions()},
    )
    domain = _domain_from(cfg)
    trace_field = _matrix_from(cfg, domain)
    interior_field = _matrix_from(cfg, domain, prefix="interior.a")
    width = float(cfg.get("blend.width", 0.1))
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

    v0 = assembly.make_potential(str(cfg.get("coeff.v0", "constant")), **cfg.group("coeff.v0"))
    rho = _weight_from(cfg)
    coeff1 = assembly.CoefficientField(trace_field, v0, rho)
    coeff2 = assembly.CoefficientField(rough, v0, rho)
    wd = weyl.weyl_coefficient(domain, coeff1)
    report.predicted = {"w_plus": wd.w_plus, "w_minus": wd.w_minus}

    levels = cfg.mesh_levels()
    if not levels:
        raise HarnessError("boundary-only-dependence needs mesh.levels")
    h = levels[-1]
    timings = {}
    t0 = time.perf_counter()
    mesh = geometry.triangulate(domain, h)
    timings["mesh"] = time.perf_counter() - t0
    fits = {}
    spec_keep = None
    for tag, coeff in (("smooth", coeff1), ("rough", coeff2)):
        t0 = time.perf_counter()
        row, spec, _ = _fit_level(mesh, coeff, cfg)
        timings[tag] = time.perf_counter() - t0
        row["field"] = tag
        report.levels.append(row)
        fits[tag] = row["fit_plus"]
        spec_keep = spec
    dev1 = _deviation(fits["smooth"], wd.w_plus)
    dev2 = _deviation(fits["rough"], wd.w_plus)
    mutual = abs(fits["smooth"] - fits["rough"]) / fits["smooth"]
    report.fitted = fits
    report.summary["deviation"] = {"smooth": dev1, "rough": dev2, "mutual": mutual}
    report.passed = max(dev1, dev2, mutual) <= tol

    sweep = cfg.get("blend.sweep")
    if sweep:
        widths = [float(w) for w in (sweep if isinstance(sweep, list) else [sweep])]
        curve = []
        for w in widths:
            f2 = assembly.boundary_matched_rough(domain, interior_field, trace_field, w)
            c2 = assembly.CoefficientField(f2, v0, rho)
            row, _, _ = _fit_level(mesh, c2, cfg)
            curve.append({"width": w, "fit_plus": row["fit_plus"]})
        report.summary["blend_sweep"] = curve
    report.provenance["timings"] = timings
    report.summary["_spectrum"] = spec_keep
    report.summary["_weyl_data"] = wd
    return report


def _spd_floored(fld: assembly.MatrixField, floor: float) -> assembly.MatrixField:
    """Project sampled 2x2 symmetric matrices onto eigenvalues >= floor.

    Mollified convex combinations of SPD fields never trigger this, but the
    guard enforces the declared lower bound regardless; the wrapper counts how
    often it fired.
    """
    fired = {"count": 0}

    def fn(pts):
        a = np.array(fld(pts))
        sym = 0.5 * (a + np.transpose(a, (0, 2, 1)))
        tr = sym[:, 0, 0] + sym[:, 1, 1]
        det = sym[:, 0, 0] * sym[:, 1, 1] - sym[:, 0, 1] * sym[:, 1, 0]
        disc = np.sqrt(np.maximum(0.25 * tr * tr - det, 0.0))
        lam_min = 0.5 * tr - disc
        low = lam_min < floor
        if low.any():
            fired["count"] += int(low.sum())
            bump = np.zeros_like(lam_min)
            bump[low] = floor - lam_min[low]
            sym = sym + bump[:, None, None] * np.eye(2)
        return sym

    out = assembly.MatrixField(
        fld.name,
        dict(fld.params, spd_floor=floor),
        fn,
        smooth=fld.smooth,
        ellipticity=floor,
    )
    return out, fired


def run_mollification_convergence(cfg: ExperimentConfig) -> Report:
    tol = float(cfg.get("tolerance.drift", 0.02))
    report = Report(
        experiment=cfg.experiment,
        passed=False,
        tolerances={"drift": tol, "monotone_slack": 0.02},
        provenance={"config": cfg.echo(), "seed": cfg.seed, "versions": _versions()},
    )
    domain = _domain_from(cfg)
    base = _matrix_from(cfg, domain)
    v0 = assembly.make_potential(str(cfg.get("coeff.v0", "constant")), **cfg.group("coeff.v0"))
    rho = _weight_from(cfg)
    scales = cfg.get("moll.scales", [0.16, 0.08, 0.04, 0.02])
    scales = [float(s) for s in (scales if isinstance(scales, list) else [scales])]
    if any(b >= a for a, b in zip(scales, scales[1:])):
        raise HarnessError("moll.scales must be strictly decreasing")
    floor_frac = float(cfg.get("moll.floor", 0.5))
    levels = cfg.mesh_levels()
    if not levels:
        raise HarnessError("mollification-convergence needs mesh.levels")
    h = levels[-1]
    timings = {}
    t0 = time.perf_counter()
    mesh = geometry.triangulate(domain, h)
    timings["mesh"] = time.perf_counter() - t0

    coeff0 = assembly.CoefficientField(base, v0, rho)
    t0 = time.perf_counter()
    row0, spec0, _ = _fit_level(mesh, coeff0, cfg)
    timings["reference"] = time.perf_counter() - t0
    row0["eps"] = 0.0
    report.levels.append(row0)
    window = _tail_window(cfg, spec0)
    kmax = min(window[1], len(spec0.positive))
    ref = spec0.positive[:kmax]

    drifts = []
    projections = 0
    for eps in scales:
        t0 = time.perf_counter()
        fld = assembly.mollified(base, eps)
        fld, fired = _spd_floored(fld, floor_frac * base.ellipticity)
        coeff = assembly.CoefficientField(fld, v0, rho)
        row, spec, _ = _fit_level(mesh, coeff, cfg)
        timings[f"eps={eps:g}"] = time.perf_counter() - t0
        cur = spec.positive[:kmax]
        drift = float(np.max(np.abs(cur - ref) / ref))
        row["eps"] = eps
        row["drift"] = drift
        report.levels.append(row)
        drifts.append(drift)
        projections += fired["count"]
    monotone = all(
        b <= a * 1.02 + 1e-12 for a, b in zip(drifts, drifts[1:])
    )
    report.fitted = {"drift": drifts}
    report.summary["scales"] = scales
    report.summary["spd_projections"] = projections
    report.summary["monotone"] = monotone
    report.summary["final_drift"] = drifts[-1]
    report.passed = monotone and drifts[-1] <= tol
    report.provenance["timings"] = timings
    report.summary["_spectrum"] = spec0
    return report


def run_bilipschitz_invariance(cfg: ExperimentConfig) -> Report:
    tol = float(cfg.get("tolerance.invariance", 1e-8))
    report = Report(
        experiment=cfg.experiment,
        passed=False,
        tolerances={"invariance": tol},
        provenance={"config": cfg.echo(), "seed": cfg.seed, "versions": _versions()},
    )
    domain = _domain_from(cfg)
    if not domain.charts:
        raise HarnessError(f"domain {domain.name!r} carries no boundary chart")
    chart = domain.charts[0]
    depth = float(cfg.get("collar.depth", 0.2))
    resolution = cfg.get("collar.resolution")
    smap = geometry.build_straightening(
        domain, chart, depth, resolution=None if resolution is None else float(resolution)
    )
    levels = cfg.mesh_levels()
    if not levels:
        raise HarnessError("bilipschitz-invariance needs mesh.levels")
    h = levels[-1]
    timings = {}
    t0 = time.perf_counter()
    mesh_pre, mesh_post = geometry.build_matched_meshes(smap, h)
    timings["mesh"] = time.perf_counter() - t0
    if not np.array_equal(mesh_pre.triangles, mesh_post.triangles):
        raise HarnessError("matched meshes disagree on connectivity")

    coeff = _coeff_from(cfg, domain)
    pulled = assembly.pullback_coefficients(coeff, smap)
    t0 = time.perf_counter()
    forms_pre = assembly.assemble_forms(mesh_pre, coeff)
    forms_post = assembly.assemble_forms(mesh_post, pulled)
    timings["assembly"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    spec_pre = eigensolve.solve_dense(forms_pre.A, forms_pre.B)
    spec_post = eigensolve.solve_dense(forms_post.A, forms_post.B)
    timings["solve"] = time.perf_counter() - t0

    mu1 = spec_pre.positive[0]
    resolved = spec_pre.positive >= 1e-4 * mu1
    npos = int(resolved.sum())
    k = min(npos, len(spec_post.positive))
    rel = np.abs(spec_pre.positive[:k] - spec_post.positive[:k]) / spec_pre.positive[:k]
    max_rel = float(rel.max())

    # negative control: drop the boundary length factor from the pulled-back
    # weight, which must visibly move the spectrum
    misuse = assembly.pullback_coefficients(coeff, smap, omit_boundary_jacobian=True)
    bad = assembly.assemble_forms(mesh_post, misuse)
    spec_bad = eigensolve.solve_dense(bad.A, bad.B)
    kb = min(k, len(spec_bad.positive))
    misuse_gap = float(
        np.max(
            np.abs(spec_pre.positive[:kb] - spec_bad.positive[:kb])
            / spec_pre.positive[:kb]
        )
    )

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
    report.provenance["timings"] = timings
    report.summary["_spectrum"] = spec_pre
    report.summary["_gap_series"] = rel
    return report


def run_bem_crosscheck(cfg: ExperimentConfig) -> Report:
    tol = float(cfg.get("tolerance.pair", 0.02))
    report = Report(
        experiment=cfg.experiment,
        passed=False,
        tolerances={"pair": tol, "route_gap": 1e-10},
        provenance={"config": cfg.echo(), "seed": cfg.seed, "versions": _versions()},
    )
    domain = _domain_from(cfg)
    k = int(cfg.get("bem.count", 20))
    ppe = int(cfg.get("bem.panels-per-edge", 0))
    if ppe < 1:
        raise HarnessError("bem-crosscheck needs bem.panels-per-edge >= 1")
    timings = {}
    t0 = time.perf_counter()
    op = potentials.build_layer_operators(domain, ppe)
    nd = potentials.nd_operator(op)
    timings["bem"] = time.perf_counter() - t0
    bem_eigs = nd.eigenvalues[:k]

    levels = cfg.mesh_levels()
    if not levels:
        raise HarnessError("bem-crosscheck needs mesh.levels")
    coeff = assembly.CoefficientField(
        assembly.constant_matrix(1.0),
        assembly.constant_potential(1.0),
        assembly.constant_weight(1.0),
    )

    def fem_at(h: float):
        mesh = geometry.triangulate(domain, h)
        K, M = assembly.assemble_energy_split(mesh, coeff)
        B = assembly.assemble_boundary_weight(mesh, coeff.rho)
        mus = {}
        for v0 in (1.0, 0.5, 0.25):
            spec = _solve_pencil_from(K + v0 * M, B, cfg, need=k + 8)
            mus[v0] = spec.positive[: k + 4]
        m = min(len(mus[v]) for v in mus)
        sig = {v: 1.0 / mus[v][:m] for v in mus}
        sig_hat = sig[1.0] / 3.0 - 2.0 * sig[0.5] + (8.0 / 3.0) * sig[0.25]
        # the leading pencil mode collapses to the constant as v0 -> 0; drop it
        return 1.0 / sig_hat[1:], np.abs(mus[1.0][1:m] - mus[0.5][1:m])

    t0 = time.perf_counter()
    fem, shift = fem_at(levels[-1])
    if len(levels) >= 2:
        # second-order Richardson step across the two finest meshes; the
        # boundary spectrum converges like h^2 in the resolved range, so
        # this removes most of the tail's discretisation bias
        h_c, h_f = levels[-2], levels[-1]
        fem_c, _ = fem_at(h_c)
        m = min(len(fem), len(fem_c))
        fem = (fem[:m] * h_c**2 - fem_c[:m] * h_f**2) / (h_c**2 - h_f**2)
        shift = shift[:m]
    timings["fem"] = time.perf_counter() - t0

    kk = min(k, len(fem), len(bem_eigs))
    fem = fem[:kk]
    shift = shift[:kk]
    bem_k = bem_eigs[:kk]
    compared = fem >= 10.0 * shift
    rel = np.abs(fem - bem_k) / bem_k
    max_rel = float(rel[compared].max()) if compared.any() else None
    table = [
        {
            "k": i + 1,
            "fem": float(fem[i]),
            "bem": float(bem_k[i]),
            "relative": float(rel[i]),
            "v0_shift": float(shift[i]),
            "compared": bool(compared[i]),
        }
        for i in range(kk)
    ]
    report.levels = table
    report.fitted = {"max_relative": max_rel}
    report.summary["route_gap"] = nd.route_gap
    report.summary["condition"] = nd.condition
    report.summary["nd_asymmetry"] = nd.asymmetry
    report.summary["compared_count"] = int(compared.sum())
    report.passed = (
        max_rel is not None and max_rel <= tol and nd.route_gap <= 1e-10
    )
    report.provenance["timings"] = timings
    report.summary["_rel_series"] = rel
    report.summary["_fem"] = fem
    report.summary["_bem"] = bem_k
    return report


def _solve_pencil_from(A, B, cfg: ExperimentConfig, *, need: int):
    forms = assembly.AssembledForms(
        A.tocsr(), B.tocsr(), np.arange(A.shape[0]), 2
    )
    return _solve_pencil(forms, cfg, need=need, both=False)


RUNNERS = {
    "weyl-verification": run_weyl_verification,
    "boundary-only-dependence": run_boundary_only_dependence,
    "mollification-convergence": run_mollification_convergence,
    "bilipschitz-invariance": run_bilipschitz_invariance,
    "bem-crosscheck": run_bem_crosscheck,
}


# ---------------------------------------------------------------------------
# SVG rendering (hand-rolled: a pure function of the plotted numbers)

_PALETTE = ("#1965b0", "#dc050c", "#4eb265", "#f7a800", "#882e72")


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
    width=640,
    height=440,
    comment="",
) -> str:
    """Log-log scatter/line plot.  ``series`` is a list of dicts with keys
    ``x``, ``y``, ``label`` and optional ``line`` (bool); ``hlines`` is a list
    of (value, label) pairs drawn as dashed horizontal lines."""
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
        data = [
            (px(x), py(y)) for x, y in zip(s["x"], s["y"]) if x > 0 and y > 0
        ]
        if s.get("line"):
            path = " ".join(f"{a:.1f},{b:.1f}" for a, b in data)
            out.write(
                f'<polyline points="{path}" fill="none" stroke="{color}" '
                'stroke-width="1.4"/>\n'
            )
        else:
            for a, b in data:
                out.write(f'<circle cx="{a:.1f}" cy="{b:.1f}" r="2.4" fill="{color}"/>\n')
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


def _plot_for(report: Report, cfg: ExperimentConfig) -> str:
    comment = f"experiment={cfg.experiment} seed={cfg.seed}"
    exp = report.experiment
    if exp in ("weyl-verification", "boundary-only-dependence", "mollification-convergence"):
        spec = report.summary.get("_spectrum")
        if spec is None or len(spec.positive) == 0:
            raise HarnessError("no spectrum to plot")
        series = []
        k = np.arange(1, len(spec.positive) + 1)
        series.append(
            {"x": spec.positive, "y": k * spec.positive, "label": "k·μ_k (+)"}
        )
        if len(spec.negative):
            kn = np.arange(1, len(spec.negative) + 1)
            series.append(
                {
                    "x": np.abs(spec.negative),
                    "y": kn * np.abs(spec.negative),
                    "label": "k·|μ_k| (−)",
                }
            )
        hl = []
        if report.predicted.get("w_plus", 0) > 0:
            hl.append((report.predicted["w_plus"], "predicted W+"))
        if report.predicted.get("w_minus", 0) > 0:
            hl.append((report.predicted["w_minus"], "predicted W-"))
        return svg_loglog(
            series,
            hlines=hl,
            title=f"counting-function tail — {exp}",
            xlabel="λ",
            ylabel="n(λ)·λ",
            comment=comment,
        )
    if exp == "bilipschitz-invariance":
        rel = report.summary.get("_gap_series")
        k = np.arange(1, len(rel) + 1)
        series = [{"x": k, "y": np.maximum(rel, 1e-17), "label": "relative gap"}]
        return svg_loglog(
            series,
            hlines=[(report.tolerances["invariance"], "tolerance")],
            title="straightening invariance",
            xlabel="k",
            ylabel="relative eigenvalue gap",
            comment=comment,
        )
    if exp == "bem-crosscheck":
        rel = report.summary.get("_rel_series")
        k = np.arange(1, len(rel) + 1)
        series = [{"x": k, "y": np.maximum(rel, 1e-17), "label": "|FEM-BEM|/BEM"}]
        return svg_loglog(
            series,
            hlines=[(report.tolerances["pair"], "tolerance")],
            title="boundary-integral vs finite-element spectra",
            xlabel="k",
            ylabel="relative difference",
            comment=comment,
        )
    raise HarnessError(f"no plot defined for {exp}")


# ---------------------------------------------------------------------------
# output files


def _eigenvalues_csv(report: Report, cfg: ExperimentConfig) -> str:
    spec = report.summary.get("_spectrum")
    if spec is None:
        fem = report.summary.get("_fem")
        bem = report.summary.get("_bem")
        out = io.StringIO()
        out.write(_stamp(cfg))
        out.write("index,fem,bem,relative\n")
        rel = report.summary["_rel_series"]
        for i, (f, b, r) in enumerate(zip(fem, bem, rel), 1):
            out.write(f"{i},{float(f)!r},{float(b)!r},{float(r)!r}\n")
        return out.getvalue()
    return _stamp(cfg) + eigensolve.spectrum_to_csv(spec)


def write_outputs(report: Report, cfg: ExperimentConfig, outdir=None) -> dict:
    """Write eigenvalues.csv, weyl.csv (when applicable), report.json, and
    plot.svg; returns the path map."""
    outdir = outdir or cfg.output_dir
    os.makedirs(outdir, exist_ok=True)
    paths = {}

    def put(name, text):
        p = os.path.join(outdir, name)
        with open(p, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths[name] = p

    if report.error is None:
        put("eigenvalues.csv", _eigenvalues_csv(report, cfg))
        wd = report.summary.get("_weyl_data")
        if wd is not None:
            put("weyl.csv", _stamp(cfg) + wd.to_csv())
        put("plot.svg", _plot_for(report, cfg))
    # strip private plotting payloads before serializing
    report.summary = {k: v for k, v in report.summary.items() if not k.startswith("_")}
    put("report.json", report.to_json() + "\n")
    return paths


def run_experiment(cfg: ExperimentConfig, outdir=None) -> Report:
    runner = RUNNERS[cfg.experiment]
    t0 = time.perf_counter()
    report = runner(cfg)
    report.provenance.setdefault("timings", {})["total"] = time.perf_counter() - t0
    write_outputs(report, cfg, outdir)
    return report
