"""Acceptance gate: nine end-to-end criteria, each printing one verdict line.

Every criterion computes its own quantities, prints a single
``[PASS|FAIL] criterion N: ...`` line on the real stdout (visible in piped
runs), and then asserts.  Tolerances are pinned as constants next to each
criterion.
"""

import json
import math
import sys

import numpy as np
import pytest

import oracles
from oracles import DENSE_RESIDUAL_TOL
from steklovlab import assembly, geometry, potentials, weyl
from steklovlab.eigensolve import (
    counting,
    solve_dense,
    tail_coefficient,
)
from steklovlab.harness import ExperimentConfig, run_experiment


VERDICT_LINES: list = []
ROUNDOFF = 1e-12  # rounding-level values print as this bound


def _verdict(n: int, ok: bool, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}"
    VERDICT_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    return line


def _roundoff(value: float) -> str:
    """``value`` for a verdict line; below ``ROUNDOFF`` it prints as that
    bound, so a correct change in the last digits leaves the line as it was."""
    return f"< {ROUNDOFF:.0e}" if value < ROUNDOFF else f"{value:.2e}"


def _run(text: str, tmp_path, sub: str):
    cfg = ExperimentConfig.from_text(text)
    return run_experiment(cfg, str(tmp_path / sub))


# ---------------------------------------------------------------------------
# 1. disk: counting coefficient and individual eigenvalues against the
#    modified-Bessel quotient spectrum

DISK_EIG_TOL = 0.02
DISK_TAIL_TOL = 0.05


def test_criterion_1_disk_spectrum_and_tail():
    dom = geometry.make_domain("regular-ngon", n=256, radius=1.0)
    mesh = geometry.triangulate(dom, 0.02)
    coeff = assembly.CoefficientField(
        a=assembly.constant_matrix(1.0),
        v0=assembly.constant_potential(1.0),
        rho=assembly.constant_weight(1.0),
    )
    forms = assembly.assemble_forms(mesh, coeff)
    spec = solve_dense(forms.A, forms.B)

    expected = oracles.disk_pencil_eigenvalues(21, v0=1.0, radius=1.0)
    eig_err = float(np.max(np.abs(spec.positive[:21] - expected) / expected))
    n_count = counting(spec, 1.0 / 10.5)
    tail = tail_coefficient(spec, window=(10, 40))
    tail_dev = abs(tail.estimate - 2.0) / 2.0

    ok = (
        eig_err <= DISK_EIG_TOL
        and n_count == oracles.DISK_V1_COUNT_AT_10_5
        and tail_dev <= DISK_TAIL_TOL
    )
    line = _verdict(
        1,
        ok,
        f"disk eigenvalue err {eig_err:.2%} (tol {DISK_EIG_TOL:.0%}), "
        f"count {n_count} (expect {oracles.DISK_V1_COUNT_AT_10_5}), "
        f"tail dev {tail_dev:.2%} (tol {DISK_TAIL_TOL:.0%})",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 2. rough boundaries: sawtooth square and the level-3 prefractal

ROUGH_TOL = 0.10

SAWTOOTH_CFG = """
experiment = weyl-verification
domain.name = sawtooth-square
mesh.levels = 0.05, 0.035
tolerance.deviation = 0.10
"""

KOCH_CFG = """
experiment = weyl-verification
domain.name = koch-prefractal
domain.level = 3
mesh.levels = 0.012, 0.0065
tail.kmin = 100
tail.kmax = 200
tolerance.deviation = 0.10
"""


def test_criterion_2_rough_boundary_counting(tmp_path):
    saw = _run(SAWTOOTH_CFG, tmp_path, "saw")
    koch = _run(KOCH_CFG, tmp_path, "koch")

    saw_pred = (3.0 + math.sqrt(2.0)) / math.pi
    koch_pred = (64.0 / 9.0) / math.pi
    ok = (
        saw.passed
        and koch.passed
        and abs(saw.predicted["w_plus"] - saw_pred) < 1e-12
        and abs(koch.predicted["w_plus"] - koch_pred) < 1e-12
    )
    line = _verdict(
        2,
        ok,
        f"sawtooth dev {saw.summary['deviation']['plus']:.2%}, "
        f"prefractal dev {koch.summary['deviation']['plus']:.2%} "
        f"(tol {ROUGH_TOL:.0%} of perimeter/pi)",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 3. sign-split boundary weight: both branches against W± = 2/pi

SPLIT_TOL = 0.10

SPLIT_CFG = """
experiment = weyl-verification
domain.name = square
rho.name = per-segment
rho.values = 1, 1, -1, -1
mesh.levels = 0.04, 0.025
tail.kmin = 8
tolerance.deviation = 0.10
"""


def test_criterion_3_signed_weight_branches(tmp_path):
    rep = _run(SPLIT_CFG, tmp_path, "split")
    pred = 2.0 / math.pi
    devs = rep.summary["deviation"]
    ok = (
        rep.passed
        and abs(rep.predicted["w_plus"] - pred) < 1e-12
        and abs(rep.predicted["w_minus"] - pred) < 1e-12
        and devs["plus"] <= SPLIT_TOL
        and devs["minus"] <= SPLIT_TOL
    )
    line = _verdict(
        3,
        ok,
        f"positive branch dev {devs['plus']:.2%}, negative branch dev "
        f"{devs['minus']:.2%} (tol {SPLIT_TOL:.0%} of 2/pi)",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 4. anisotropic conductivity rotated by 30 degrees, plus mutual consistency
#    of the run's co-metric route (det Θ′ = det a at every boundary node, no
#    normal), the oracle's beta route at several normals, and the symbol
#    integral

ANISO_TOL = 0.10
SYMBOL_TOL = 1e-8
ROUTE_TOL = 1e-12

ROTATED_CFG = """
experiment = weyl-verification
domain.name = square
coeff.a = rotated-diagonal
coeff.a.p = 4.0
coeff.a.q = 1.0
coeff.a.angle = 0.5235987755982988
mesh.levels = 0.05, 0.035
tolerance.deviation = 0.10
"""


def test_criterion_4_anisotropic_coefficient(tmp_path):
    rep = _run(ROTATED_CFG, tmp_path, "rot")
    pred = 2.0 / math.pi
    dev = rep.summary["deviation"]["plus"]

    a_field = assembly.rotated_diagonal(4.0, 1.0, math.pi / 6.0)
    a = a_field(np.array([[0.5, 0.0]]))[0]
    det_route = np.sqrt(rep.weyl_data.det_theta_prime)
    route_gap = 0.0
    symbol_gap = 0.0
    for th in (0.0, 0.9, 2.2, 4.0):
        n = np.array([math.cos(th), math.sin(th)])
        tau = oracles.tangent_basis(n)[:, 0]
        beta_route = oracles.beta(a, n, tau)
        route_gap = max(route_gap, float(np.abs(det_route - beta_route).max()) / beta_route)
        s = oracles.symbol_oracle(a, n, tau)
        symbol_gap = max(symbol_gap, abs(s * beta_route - 0.5))

    ok = (
        rep.passed
        and abs(rep.predicted["w_plus"] - pred) < 1e-12
        and dev <= ANISO_TOL
        and route_gap <= ROUTE_TOL
        and symbol_gap <= SYMBOL_TOL
    )
    line = _verdict(
        4,
        ok,
        f"tail dev {dev:.2%} (tol {ANISO_TOL:.0%}), route gap {route_gap:.1e} "
        f"(tol {ROUTE_TOL:.0e}), symbol constancy {symbol_gap:.1e} "
        f"(tol {SYMBOL_TOL:.0e})",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 5. boundary-only dependence: contrasting interiors, identical traces

BOUNDARY_ONLY_TOL = 0.10

BOUNDARY_ONLY_CFG = """
experiment = boundary-only-dependence
domain.name = square
coeff.a = constant
interior.a = checkerboard
interior.a.cell = 0.2
interior.a.low = 1.0
interior.a.high = 5.0
interior.a.origin = 0.0137, 0.0071
tail.kmin = 16
mesh.levels = 0.04, 0.025
tolerance.deviation = 0.10
"""


def test_criterion_5_boundary_only_dependence(tmp_path):
    rep = _run(BOUNDARY_ONLY_CFG, tmp_path, "bonly")
    devs = rep.summary["deviation"]
    worst = max(devs.values())
    ok = (
        rep.passed
        and rep.summary["trace_gap"] < 1e-9
        and rep.summary["interior_contrast"] > 0.5
        and worst <= BOUNDARY_ONLY_TOL
    )
    line = _verdict(
        5,
        ok,
        f"smooth dev {devs['smooth']:.2%}, rough dev {devs['rough']:.2%}, "
        f"mutual {devs['mutual']:.2%} (tol {BOUNDARY_ONLY_TOL:.0%}); interior "
        f"contrast {rep.summary['interior_contrast']:.2f}",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 6. straightening invariance with the negative control

INVARIANCE_TOL = 1e-8

BILIPSCHITZ_CFG = """
experiment = bilipschitz-invariance
domain.name = sawtooth-square
mesh.levels = 0.06
"""


def test_criterion_6_straightening_invariance(tmp_path):
    rep = _run(BILIPSCHITZ_CFG, tmp_path, "bilip")
    gap = rep.fitted["max_relative_gap"]
    ok = (
        rep.passed
        and gap <= INVARIANCE_TOL
        and rep.summary["misuse_detectable"]
        and rep.summary["resolved_count"] > 20
    )
    line = _verdict(
        6,
        ok,
        f"max relative gap {_roundoff(gap)} over {rep.summary['resolved_count']} pairs "
        f"(tol {INVARIANCE_TOL:.0e}); weight-misuse control moved spectrum by "
        f"{rep.summary['misuse_gap']:.2%}",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 7. mollification: monotone approach with small terminal drift

MOLL_FINAL_TOL = 0.02

MOLLIFICATION_CFG = """
experiment = mollification-convergence
domain.name = square
coeff.a = checkerboard
coeff.a.cell = 0.25
coeff.a.low = 1.0
coeff.a.high = 4.0
coeff.a.origin = 0.0137, 0.0071
mesh.levels = 0.04
moll.scales = 0.16, 0.08, 0.04, 0.02, 0.01, 0.005, 0.0025, 0.00125
"""


def test_criterion_7_mollification_convergence(tmp_path):
    rep = _run(MOLLIFICATION_CFG, tmp_path, "moll")
    drifts = rep.fitted["drift"]
    ok = (
        rep.passed
        and rep.summary["monotone"]
        and rep.summary["final_drift"] <= MOLL_FINAL_TOL
        and len(drifts) >= 4
    )
    line = _verdict(
        7,
        ok,
        f"drift sequence {' -> '.join(f'{d:.3%}' for d in drifts[-3:])} over "
        f"{len(drifts)} scales, monotone={rep.summary['monotone']} "
        f"(final tol {MOLL_FINAL_TOL:.0%})",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 8. boundary-integral route against the mesh route on circle and square

BEM_PAIR_TOL = 0.02
BEM_ROUTE_TOL = 1e-10

BEM_CIRCLE_CFG = """
experiment = bem-crosscheck
domain.name = regular-ngon
domain.n = 96
mesh.levels = 0.05, 0.035
bem.panels-per-edge = 10
"""

BEM_SQUARE_CFG = """
experiment = bem-crosscheck
domain.name = square
mesh.levels = 0.03, 0.02
bem.panels-per-edge = 192
"""


def test_criterion_8_boundary_integral_crosscheck(tmp_path):
    circ = _run(BEM_CIRCLE_CFG, tmp_path, "bem_circle")
    sq = _run(BEM_SQUARE_CFG, tmp_path, "bem_square")
    ok = (
        circ.passed
        and sq.passed
        and circ.fitted["max_relative"] <= BEM_PAIR_TOL
        and sq.fitted["max_relative"] <= BEM_PAIR_TOL
        and circ.summary["route_gap"] <= BEM_ROUTE_TOL
        and sq.summary["route_gap"] <= BEM_ROUTE_TOL
    )
    line = _verdict(
        8,
        ok,
        f"circle pair err {circ.fitted['max_relative']:.2%}, square pair err "
        f"{sq.fitted['max_relative']:.2%} (tol {BEM_PAIR_TOL:.0%}); route gaps "
        f"{circ.summary['route_gap']:.1e}/{sq.summary['route_gap']:.1e} "
        f"(tol {BEM_ROUTE_TOL:.0e})",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 9. property battery with no single quantitative target

MC_VOLUME_TOL = 5e-3
BASIS_TOL = 1e-12


def test_criterion_9_property_battery(tmp_path):
    rng = np.random.default_rng(20260814)
    failures = []

    # the package's co-metric determinant, det a with no normal, against the
    # oracle's construction from each segment normal of a heptagon, in a
    # tangent basis of random orientation (the tangent line's basis is ±τ)
    basis_gap = 0.0
    heptagon = geometry.make_domain("regular-ngon", n=7)
    for _ in range(20):
        p, q = rng.uniform(0.5, 4.0, 2)
        a_field = assembly.rotated_diagonal(p, q, rng.uniform(0, 2 * math.pi))
        a = a_field(np.zeros((1, 2)))[0]
        coeff = assembly.CoefficientField(
            a_field, assembly.constant_potential(1.0), assembly.constant_weight(1.0)
        )
        d1 = weyl.weyl_coefficient(heptagon, coeff).det_theta_prime
        for n, row in zip(heptagon.segment_normals(), d1.reshape(7, -1)):
            P = oracles.tangent_basis(n) * rng.choice([-1.0, 1.0])
            d2 = np.linalg.det(P.T @ oracles.theta_matrix(a, n) @ P)
            basis_gap = max(basis_gap, float(np.abs(row - d2).max()) / abs(d2))
    if basis_gap > BASIS_TOL:
        failures.append(f"basis dependence {basis_gap:.1e}")

    # beta homogeneity and strict positivity
    for _ in range(50):
        L = np.tril(rng.uniform(-1, 1, (2, 2))) + 1.5 * np.eye(2)
        a = L @ L.T
        th = rng.uniform(0, 2 * math.pi)
        n = np.array([math.cos(th), math.sin(th)])
        tau = oracles.tangent_basis(n)[:, 0]
        c = rng.uniform(0.1, 10)
        b1, bc = oracles.beta(a, n, tau), oracles.beta(a, n, c * tau)
        if not (b1 > 0 and abs(bc - c * b1) <= 1e-10 * c * b1):
            failures.append("beta homogeneity")
            break

    # Monte Carlo sublevel volume against the closed-form density
    tp = np.array([[2.0, 0.4], [0.4, 1.1]])
    mc = oracles.ellipsoid_volume_mc(tp, 1.3, n=2_000_000, seed=7)
    exact = math.pi * 1.3**2 / math.sqrt(np.linalg.det(tp))
    mc_err = abs(mc - exact) / exact
    if mc_err > MC_VOLUME_TOL:
        failures.append(f"MC volume err {mc_err:.1e}")

    # discrete jump relation stays at roundoff under panel refinement
    jump_worst = 0.0
    for ppe in (8, 16, 32):
        op = potentials.build_layer_operators(geometry.make_domain("square"), ppe)
        jump_worst = max(
            jump_worst, potentials.jump_relation_error(op)["max_error"]
        )
    if jump_worst > 1e-12:
        failures.append(f"jump relation {jump_worst:.1e}")

    # pencil residuals within the declared tolerance
    mesh = geometry.triangulate(geometry.make_domain("square"), 0.1)
    coeff = assembly.CoefficientField(
        assembly.constant_matrix(1.0),
        assembly.constant_potential(1.0),
        assembly.constant_weight(1.0),
    )
    forms = assembly.assemble_forms(mesh, coeff)
    spec = solve_dense(forms.A, forms.B)
    res = float(spec.residuals_positive.max())
    if res > DENSE_RESIDUAL_TOL:
        failures.append(f"pencil residual {res:.1e}")

    # bitwise report reproducibility
    cfg_text = "experiment = weyl-verification\ndomain.name = square\nmesh.levels = 0.1\n"
    run_experiment(ExperimentConfig.from_text(cfg_text), str(tmp_path / "r1"))
    run_experiment(ExperimentConfig.from_text(cfg_text), str(tmp_path / "r2"))
    for name in ("eigenvalues.csv", "weyl.csv", "plot.svg"):
        if (tmp_path / "r1" / name).read_bytes() != (tmp_path / "r2" / name).read_bytes():
            failures.append(f"{name} not reproducible")
    rep1 = json.loads((tmp_path / "r1" / "report.json").read_text())
    rep2 = json.loads((tmp_path / "r2" / "report.json").read_text())
    rep1["provenance"].pop("timings"), rep2["provenance"].pop("timings")
    if rep1 != rep2:
        failures.append("report.json differs beyond timings")

    ok = not failures
    line = _verdict(
        9,
        ok,
        "basis independence, homogeneity, Monte Carlo volume "
        f"({mc_err:.2e}), jump relation ({jump_worst:.1e}), residuals "
        f"({_roundoff(res)}), bitwise outputs"
        + ("" if ok else f" -- failed: {', '.join(failures)}"),
    )
    assert ok, line
