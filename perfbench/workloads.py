"""Workload inputs and the verdict checks each one repeats.

The configs are the acceptance-gate inputs of ``tests/test_acceptance.py``
(criteria 2-8), copied here so the benchmark runs them through the public
entry points without importing the test suite.  Each input returns a list of
`Check`s, the problem sizes it ran at, and digests of what it produced; the
runner compares digests across passes.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from steklovlab import geometry, harness, potentials


@dataclass
class Check:
    """One verdict.  ``ratio`` is err/tol for checks with a tolerance."""

    name: str
    ok: bool
    ratio: float | None = None


def within(name: str, err: float, tol: float) -> Check:
    err = float(err)
    return Check(name, bool(err <= tol), err / tol)


def holds(name: str, ok) -> Check:
    return Check(name, bool(ok))


@dataclass
class Outcome:
    checks: list
    sizes: dict
    digests: dict


# ---------------------------------------------------------------------------
# harness experiments

ARTIFACTS = ("eigenvalues.csv", "weyl.csv", "plot.svg")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _closed_form(key: str, value: float):
    return lambda rep: [within(f"predicted.{key}", abs(rep.predicted[key] - value), 1e-12)]


def _deviations(rep):
    tol = rep.tolerances["deviation"]
    return [within(f"deviation.{k}", v, tol) for k, v in sorted(rep.summary["deviation"].items())]


def _boundary_only(rep):
    return _deviations(rep) + [
        within("trace_gap", rep.summary["trace_gap"], 1e-9),
        holds("interior_contrast>0.5", rep.summary["interior_contrast"] > 0.5),
    ]


def _bilipschitz(rep):
    return [
        within("max_relative_gap", rep.fitted["max_relative_gap"], rep.tolerances["invariance"]),
        holds("misuse_detectable", rep.summary["misuse_detectable"]),
        holds("resolved_count>20", rep.summary["resolved_count"] > 20),
    ]


def _mollification(rep):
    return [
        within("final_drift", rep.summary["final_drift"], rep.tolerances["drift"]),
        holds("monotone", rep.summary["monotone"]),
        holds("scales>=4", len(rep.fitted["drift"]) >= 4),
    ]


def _all(*parts):
    return lambda rep: [c for part in parts for c in part(rep)]


def _no_checks(rep):
    return []


@dataclass(frozen=True)
class Experiment:
    """One config run by `harness.run_experiment`, with its criterion's checks."""

    name: str
    config: str
    verdict: object = _no_checks  # Report -> list[Check]

    def prepare(self, seed: int) -> harness.ExperimentConfig:
        values = harness.parse_config_text(self.config)
        values["seed"] = int(seed)  # seeds the Lanczos start vector
        return harness.ExperimentConfig(values)

    def run(self, cfg: harness.ExperimentConfig, outdir: str) -> Outcome:
        rep = harness.run_experiment(cfg, outdir)
        checks = [holds("report.passed", rep.passed and rep.error is None)]
        checks += self.verdict(rep)
        sizes = {
            "dofs": [row["dofs"] for row in rep.levels if "dofs" in row],
            "boundary_rank": [row["boundary_rank"] for row in rep.levels if "boundary_rank" in row],
        }
        digests = {}
        for name in ARTIFACTS:
            path = os.path.join(outdir, name)
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    digests[name] = _digest(fh.read())
        return Outcome(checks, sizes, digests)


SAWTOOTH = Experiment(
    "sawtooth",
    """
experiment = weyl-verification
domain.name = sawtooth-square
mesh.levels = 0.05, 0.035
tolerance.deviation = 0.10
""",
    _all(_deviations, _closed_form("w_plus", (3.0 + math.sqrt(2.0)) / math.pi)),
)

SIGN_SPLIT = Experiment(
    "sign-split",
    """
experiment = weyl-verification
domain.name = square
rho.name = per-segment
rho.values = 1, 1, -1, -1
mesh.levels = 0.04, 0.025
tail.kmin = 8
tolerance.deviation = 0.10
""",
    _all(
        _deviations,
        _closed_form("w_plus", 2.0 / math.pi),
        _closed_form("w_minus", 2.0 / math.pi),
    ),
)

ROTATED = Experiment(
    "rotated",
    """
experiment = weyl-verification
domain.name = square
coeff.a = rotated-diagonal
coeff.a.p = 4.0
coeff.a.q = 1.0
coeff.a.angle = 0.5235987755982988
mesh.levels = 0.05, 0.035
tolerance.deviation = 0.10
""",
    _all(_deviations, _closed_form("w_plus", 2.0 / math.pi)),
)

BOUNDARY_ONLY = Experiment(
    "boundary-only",
    """
experiment = boundary-only-dependence
domain.name = square
coeff.a = constant
interior.a = checkerboard
interior.a.cell = 0.2
interior.a.low = 1.0
interior.a.high = 5.0
interior.a.origin = 0.0137, 0.0071
blend.width = 0.3
tail.kmin = 16
mesh.levels = 0.04, 0.025
tolerance.deviation = 0.10
""",
    _boundary_only,
)

BILIPSCHITZ = Experiment(
    "bilipschitz",
    """
experiment = bilipschitz-invariance
domain.name = sawtooth-square
mesh.levels = 0.06
collar.depth = 0.25
tolerance.invariance = 1e-8
""",
    _bilipschitz,
)

MOLLIFICATION = Experiment(
    "mollification",
    """
experiment = mollification-convergence
domain.name = square
coeff.a = checkerboard
coeff.a.cell = 0.25
coeff.a.low = 1.0
coeff.a.high = 4.0
coeff.a.origin = 0.0137, 0.0071
mesh.levels = 0.04
moll.scales = 0.16, 0.08, 0.04, 0.02, 0.01, 0.005, 0.0025, 0.00125
tolerance.drift = 0.02
""",
    _mollification,
)

KOCH_L3 = Experiment(
    "koch-l3",
    """
experiment = weyl-verification
domain.name = koch-prefractal
domain.level = 3
mesh.levels = 0.012, 0.0065
solver.method = iterative
tail.kmin = 100
tail.kmax = 200
tolerance.deviation = 0.10
""",
    _all(_deviations, _closed_form("w_plus", (64.0 / 9.0) / math.pi)),
)

# Criterion 1's disk as a config: the 256-gon's predicted coefficient is its
# perimeter over pi, which is 2 up to the polygonal approximation.
DISK = Experiment(
    "disk",
    """
experiment = weyl-verification
domain.name = regular-ngon
domain.n = 256
mesh.levels = 0.02
solver.method = iterative
tail.kmin = 10
tail.kmax = 40
tolerance.deviation = 0.05
""",
    _all(_deviations, _closed_form("w_plus", 512.0 * math.sin(math.pi / 256) / math.pi)),
)


# ---------------------------------------------------------------------------
# boundary-integral route alone

ND_ROUTE_TOL = 1e-10
JUMP_TOL = 1e-12
CIRCLE_ND_TOL = 0.02
CIRCLE_ND_COUNT = 20


@dataclass(frozen=True)
class NDCase:
    """Layer operators, the ND map and the jump relation on one panelization.

    The domain is built when the workload's inputs are made, so a pass calls
    only the potentials module."""

    name: str
    domain: str
    params: tuple
    panels_per_edge: int
    circle: bool = False

    def prepare(self, seed: int):
        return geometry.make_domain(self.domain, **dict(self.params))

    def run(self, domain, outdir: str) -> Outcome:
        op = potentials.build_layer_operators(domain, self.panels_per_edge)
        nd = potentials.nd_operator(op)
        jump = potentials.jump_relation_error(op)
        checks = [
            within("route_gap", nd.route_gap, ND_ROUTE_TOL),
            within("jump_relation", jump["max_error"], JUMP_TOL),
        ]
        if self.circle:
            # unit disk: ND eigenvalues 1/m, each twice, on mean-zero data
            k = np.arange(1, CIRCLE_ND_COUNT + 1)
            ref = 1.0 / np.ceil(k / 2.0)
            rel = np.abs(nd.eigenvalues[:CIRCLE_ND_COUNT] - ref) / ref
            checks.append(within("circle_nd_eigenvalues", rel.max(), CIRCLE_ND_TOL))
        sizes = {"panels": int(op.n), "condition": float(nd.condition)}
        return Outcome(checks, sizes, {"nd_eigenvalues": _digest(nd.eigenvalues.tobytes())})


SQUARE_2048 = NDCase("square-2048", "square", (), 512)
SQUARE_768 = NDCase("square-768", "square", (), 192)
NGON_960 = NDCase("ngon96-960", "regular-ngon", (("n", 96),), 10, circle=True)
KOCH_L2_768 = NDCase("koch-l2-768", "koch-prefractal", (("level", 2),), 16)


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    inputs: tuple
    warmup: tuple  # small inputs run once during set-up, not checked


# Set-up runs each code path once on a small problem so the first timed pass
# does not pay for first-call costs (lazy imports, BLAS thread start-up).
_WARM_DENSE = (
    Experiment(
        "warm-split",
        "experiment = weyl-verification\ndomain.name = square\nrho.name = per-segment\n"
        "rho.values = 1, 1, -1, -1\nmesh.levels = 0.1\ntail.kmin = 2\ntail.kmax = 4\n",
    ),
    Experiment(
        "warm-bilipschitz",
        "experiment = bilipschitz-invariance\ndomain.name = sawtooth-square\n"
        "mesh.levels = 0.125\ncollar.depth = 0.25\n",
    ),
    Experiment(
        "warm-mollification",
        "experiment = mollification-convergence\ndomain.name = square\n"
        "coeff.a = checkerboard\ncoeff.a.cell = 0.25\nmesh.levels = 0.1\n"
        "moll.scales = 0.16, 0.08\n",
    ),
    Experiment(
        "warm-boundary-only",
        "experiment = boundary-only-dependence\ndomain.name = square\n"
        "interior.a = checkerboard\ninterior.a.cell = 0.2\nblend.width = 0.3\n"
        "mesh.levels = 0.1\ntail.kmin = 2\ntail.kmax = 4\n",
    ),
)

_WARM_FINE = (
    Experiment(
        "warm-iterative",
        "experiment = weyl-verification\ndomain.name = koch-prefractal\ndomain.level = 2\n"
        "mesh.levels = 0.05\nsolver.method = iterative\ntail.kmin = 4\ntail.kmax = 8\n",
    ),
)

_WARM_ND = (NDCase("warm-square", "square", (), 16), NDCase("warm-ngon", "regular-ngon", (("n", 96),), 1))

# Why each workload exists is declared with it in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fem-dense",
            (SAWTOOTH, SIGN_SPLIT, ROTATED, BOUNDARY_ONLY, BILIPSCHITZ, MOLLIFICATION),
            _WARM_DENSE,
        ),
        Workload(
            "fem-fine",
            (KOCH_L3, DISK),
            _WARM_FINE,
        ),
        Workload(
            "bem-nd",
            (SQUARE_2048, SQUARE_768, NGON_960, KOCH_L2_768),
            _WARM_ND,
        ),
    )
}
