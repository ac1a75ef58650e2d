"""Experiment orchestration: config parsing and validation, report
serialization, SVG rendering, deterministic end-to-end runs with their output
files, and the command-line entry points."""

import contextlib
import dataclasses
import json
import math
import re
import shlex
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import test_acceptance
from steklovlab import cli, geometry, harness, potentials, weyl
from steklovlab.assembly import AssemblyError
from steklovlab.geometry import GeometryError, MeshingError
from steklovlab.harness import (
    ExperimentConfig,
    HarnessError,
    Report,
    parse_config_text,
    run_experiment,
    svg_loglog,
)
from steklovlab.weyl import WeylError


# ---------------------------------------------------------------------------
# configuration parsing


def test_config_coercion_types():
    out = parse_config_text(
        """
        # full-line comment
        experiment = weyl-verification
        mesh.levels = 0.1, 0.05
        tail.kmin = 40
        tolerance.deviation = 0.08
        verbose = true
        quiet = off
        domain.name = square  # trailing comment
        """
    )
    assert out["mesh.levels"] == [0.1, 0.05]
    assert out["tail.kmin"] == 40 and isinstance(out["tail.kmin"], int)
    assert out["tolerance.deviation"] == 0.08
    assert out["verbose"] is True and out["quiet"] is False
    assert out["domain.name"] == "square"


@pytest.mark.parametrize(
    "text,pattern",
    [
        ("experiment weyl-verification", "expected key = value"),
        ("= 3", "empty key"),
        ("a = 1\na = 2", "duplicate"),
    ],
)
def test_config_parse_errors(text, pattern):
    with pytest.raises(HarnessError, match=pattern):
        parse_config_text(text)


def test_config_rejects_unknown_experiment():
    with pytest.raises(HarnessError, match="experiment must be one of"):
        ExperimentConfig.from_text("experiment = eigenvalue-safari")


# The config fuzz draws only valid experiment names, so invalid ones are
# checked here: empty, words, numbers, wrong case and lists.
@pytest.mark.parametrize(
    "name",
    ["", "abc", "3", "-1.5", "nan", "square", "Weyl-Verification",
     "weyl-verification, bem-crosscheck"],
)
def test_config_rejects_malformed_experiment_names(name):
    with pytest.raises(HarnessError, match="experiment must be one of"):
        ExperimentConfig.from_text(f"experiment = {name}")


def test_config_rejects_non_decreasing_mesh_levels():
    for levels in ("0.05, 0.05", "-0.1", "0.1, 0"):
        with pytest.raises(HarnessError, match="positive and strictly decreasing"):
            ExperimentConfig.from_text(
                f"experiment = weyl-verification\nmesh.levels = {levels}"
            )


_LONG_VALUES = {
    "finite": (
        "tolerance.deviation", "1" + "0" * 400, lambda c: c.get_float("tolerance.deviation", 0.1)
    ),
    "integer": ("tail.kmin", "k" * 10_000, lambda c: c.get_int("tail.kmin", 0)),
    "choice": ("experiment", "x" * 10_000, None),
    "decreasing": ("mesh.levels", ", ".join(map(str, range(1, 10_001))), None),
}


@pytest.mark.parametrize("key,value,read", _LONG_VALUES.values(), ids=_LONG_VALUES)
def test_config_errors_shorten_a_long_value(key, value, read):
    # a 400-digit integer, a 10 000-character word or a 10 000-entry list is
    # cut down to its ends; only the experiment names, a fixed list, add length
    with pytest.raises(HarnessError) as err:
        cfg = ExperimentConfig.from_text(f"{key} = {value}")
        read(cfg)
    message = str(err.value)
    fixed = len(", ".join(harness._EXPERIMENTS)) if key == "experiment" else 0
    assert message.startswith(key) and len(message) - fixed < 120, message


def test_config_defaults_and_groups():
    cfg = ExperimentConfig.from_text(
        """
        experiment = weyl-verification
        coeff.a = checkerboard
        coeff.a.cell = 0.25
        coeff.a.origin = 0.1, 0.2
        coeff.a.sub-field.low = 1.0
        """
    )
    assert cfg.output_dir == "out"
    g = cfg.group("coeff.a")
    assert g["cell"] == 0.25
    assert g["origin"] == [0.1, 0.2]
    assert g["sub_field.low"] == 1.0


class _ReadKeys(dict):
    """Config values that note every key read through them."""

    def __init__(self, values):
        super().__init__(values)
        self.read = set()

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


def _schema_keys() -> set:
    """Keys in the first column of the harness docstring's schema block."""
    block = harness.__doc__.split("Schema (defaults in parentheses):")[1].split("\n\n")[1]
    keys = set()
    for line in block.splitlines():
        if line.startswith("    ") and not line.startswith("     "):
            column = re.split(r"\s{2,}", line.strip())[0]
            keys |= {k.strip() for k in column.split(",")}
    return keys


@contextlib.contextmanager
def _halt(report, name):
    report.provenance["timings"] = {name: 0.0}  # a stage has started: the report is written
    raise RuntimeError("halted at the first stage")
    yield


# Each experiment reads its whole config before its first stage.
SCHEMA_RUNS = {
    "weyl-verification": "domain.name = square\n",
    "boundary-only-dependence": "domain.name = square\n",
    "mollification-convergence": "domain.name = square\n",
    "bilipschitz-invariance": "domain.name = sawtooth-square\n",
    "bem-crosscheck": "domain.name = square\nbem.panels-per-edge = 4\n",
}


@pytest.fixture
def first_stage(monkeypatch):
    """Run a config text up to its first stage, writing to ``outdir`` (or its
    ``output.dir``); returns the keys read and the group prefixes read."""
    groups = set()
    group = ExperimentConfig.group

    def recording_group(self, prefix):
        groups.add(prefix)
        return group(self, prefix)

    def run(text, outdir=None):
        groups.clear()
        values = _ReadKeys(parse_config_text(text))
        rep = run_experiment(ExperimentConfig(values), outdir)
        assert rep.error == "RuntimeError: halted at the first stage", text
        return values.read, set(groups)

    monkeypatch.setattr(Report, "stage", _halt)
    monkeypatch.setattr(ExperimentConfig, "group", recording_group)
    return run


def test_schema_docstring_lists_the_keys_the_harness_reads(tmp_path, first_stage):
    read, groups = set(), set()
    for name, extra in SCHEMA_RUNS.items():
        keys, prefixes = first_stage(
            f"experiment = {name}\nmesh.levels = 0.1\noutput.dir = {tmp_path / name}\n{extra}"
        )
        assert (tmp_path / name / "report.json").exists()
        read |= keys
        groups |= prefixes
    read |= {f"{prefix}.<p>" for prefix in groups}
    documented = _schema_keys()
    # domain.name and rho.name are read as members of their groups
    named = {k for k in documented if k.endswith(".name") and k[: -len(".name")] in groups}
    assert named == {"domain.name", "rho.name"}
    assert documented - named == read


ACCEPTANCE_CONFIGS = {
    name: text for name, text in vars(test_acceptance).items() if name.endswith("_CFG")
}


# The gate's configs set no line that the harness ignores, so none of them
# can look like it sets a tolerance or an input that is fixed in the code.
@pytest.mark.parametrize("name", sorted(ACCEPTANCE_CONFIGS))
def test_acceptance_configs_set_only_keys_the_harness_reads(tmp_path, first_stage, name):
    text = ACCEPTANCE_CONFIGS[name]
    read, groups = first_stage(text, str(tmp_path))
    unread = [
        key
        for key in parse_config_text(text)
        if key not in read and not any(key.startswith(f"{prefix}.") for prefix in groups)
    ]
    assert unread == [], name


# ---------------------------------------------------------------------------
# report serialization and plotting


def test_report_json_is_sorted_and_rejects_non_finite():
    rep = Report(experiment="weyl-verification", passed=True, tolerances={"t": 0.1})
    payload = json.loads(rep.to_json())
    assert list(payload) == sorted(payload)
    rep.fitted = {"w": float("inf")}
    with pytest.raises(ValueError):
        rep.to_json()


def test_svg_loglog_renders_series_and_reference_lines():
    x = np.geomspace(1, 100, 20)
    svg = svg_loglog(
        [{"x": x, "y": 2.0 / x, "label": "products"}],
        hlines=[(2.0, "target")],
        title="tail",
        xlabel="k",
        ylabel="product",
        comment="seed=0",
    )
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    assert root.tag == f"{ns}svg"
    assert len(root.findall(f"{ns}circle")) == 20
    dashed = [e for e in root.findall(f"{ns}line") if e.get("stroke-dasharray")]
    assert len(dashed) == 1
    assert any("target" in (e.text or "") for e in root.findall(f"{ns}text"))


def test_svg_loglog_rejects_empty_series():
    with pytest.raises(HarnessError, match="nothing to plot"):
        svg_loglog([{"x": [], "y": [], "label": "void"}])


# ---------------------------------------------------------------------------
# end-to-end runs


WEYL_SQUARE = """
experiment = weyl-verification
domain.name = square
mesh.levels = 0.08
"""


def test_weyl_run_writes_outputs_and_is_reproducible(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    rep = run_experiment(ExperimentConfig.from_text(WEYL_SQUARE), str(d1))
    run_experiment(ExperimentConfig.from_text(WEYL_SQUARE), str(d2))

    assert rep.passed
    assert rep.predicted["w_plus"] == pytest.approx(4.0 / math.pi, rel=1e-12)
    assert rep.summary["deviation"]["plus"] < 0.10

    payload = json.loads((d1 / "report.json").read_text())
    assert payload["passed"] is True
    assert payload["levels"][0]["dofs"] > 0
    assert all(row["schur_gap"] < 1e-13 for row in payload["levels"])
    assert not any(k.startswith("_") for k in payload["summary"])
    assert payload["provenance"]["versions"]["steklovlab"]

    csv = (d1 / "eigenvalues.csv").read_text().splitlines()
    assert csv[0].startswith("# experiment=weyl-verification")
    assert csv[1] == "index,branch,eigenvalue,residual"
    assert sum(row.split(",")[1] == "+" for row in csv[2:]) > 20

    weyl_rows = (d1 / "weyl.csv").read_text().splitlines()
    assert weyl_rows[1] == "arclength,det_theta_prime,alpha_plus,alpha_minus"
    ET.fromstring((d1 / "plot.svg").read_text())

    # deterministic artifacts are byte-identical across runs
    for name in ("eigenvalues.csv", "weyl.csv", "plot.svg"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_straightened_collar_run_detects_weight_misuse(tmp_path):
    for name in ("sawtooth-square", "square"):
        cfg = ExperimentConfig.from_text(
            f"""
            experiment = bilipschitz-invariance
            domain.name = {name}
            mesh.levels = 0.06
            """
        )
        rep = run_experiment(cfg, str(tmp_path / name))
        assert rep.passed, name
        assert rep.fitted["max_relative_gap"] < 1e-8
        assert rep.summary["misuse_detectable"] is True
        assert rep.summary["misuse_gap"] > 0.1
        # the control's pullback, assembly and solve are a stage of their own
        assert list(rep.provenance["timings"]) == ["mesh", "assembly", "solve", "control", "total"]


def test_boundary_only_dependence_runs_on_a_koch_prefractal(tmp_path):
    # criterion 5's fields on the 48-segment Koch L2 boundary; this records
    # that the run completes, its verdict is not a criterion
    text = test_acceptance.BOUNDARY_ONLY_CFG.replace(
        "domain.name = square", "domain.name = koch-prefractal\ndomain.level = 2"
    ).replace("mesh.levels = 0.04, 0.025", "mesh.levels = 0.02")
    rep = run_experiment(ExperimentConfig.from_text(text), str(tmp_path))
    assert rep.error is None
    payload = json.loads((tmp_path / "report.json").read_text())
    devs = payload["summary"]["deviation"]
    assert sorted(devs) == ["mutual", "rough", "smooth"]
    assert all(math.isfinite(v) for v in devs.values())


def test_collar_grid_over_the_node_budget_fails_in_the_mesh_stage(tmp_path):
    # the matched grid would take ~1.07e6 nodes; it is refused before any of
    # it is allocated, and so are the straightening map's ~631 000 collar
    # Jacobians (about 96 MiB at their peak)
    cfg = ExperimentConfig.from_text(
        "experiment = bilipschitz-invariance\ndomain.name = sawtooth-square\n"
        "mesh.levels = 1e-3\n"
    )
    tracemalloc.start()
    try:
        rep = run_experiment(cfg, str(tmp_path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert rep.error.startswith("MeshingError") and "budget" in rep.error
    assert list(rep.provenance["timings"]) == ["mesh", "total"]
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_bilipschitz_on_a_domain_that_is_no_graph_fails_in_the_mesh_stage(tmp_path):
    cfg = ExperimentConfig.from_text(
        "experiment = bilipschitz-invariance\ndomain.name = lshape\nmesh.levels = 0.1\n"
    )
    rep = run_experiment(cfg, str(tmp_path))
    assert rep.error.startswith("GeometryError") and "'lshape'" in rep.error
    assert list(rep.provenance["timings"]) == ["mesh", "total"]
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


# A mesh size far below the domain span passes config reading and fails
# inside the first mesh stage.
UNMESHABLE = "mesh.levels = 1e-7\n"


@pytest.mark.parametrize(
    "text,named",
    [
        ("experiment = weyl-verification\ndomain.name = square\n" + UNMESHABLE, "mesh size"),
        ("experiment = boundary-only-dependence\ndomain.name = square\n" + UNMESHABLE, "mesh size"),
        ("experiment = mollification-convergence\ndomain.name = square\n" + UNMESHABLE, "mesh size"),
        (
            "experiment = bem-crosscheck\ndomain.name = square\nbem.panels-per-edge = 8\n"
            + UNMESHABLE,
            "mesh size",
        ),
        # a tail window past every resolved pair leaves the fit nothing
        (
            "experiment = boundary-only-dependence\ndomain.name = square\n"
            "interior.a = checkerboard\ninterior.a.cell = 0.2\nmesh.levels = 0.1\n"
            "tail.kmin = 500\n",
            "tail window",
        ),
        (
            "experiment = weyl-verification\ndomain.name = square\nmesh.levels = 0.1\n"
            "tail.kmin = 400\n",
            "tail window",
        ),
        # a weight this large overflows every residual of the pencil
        (
            "experiment = weyl-verification\ndomain.name = square\nmesh.levels = 0.2\n"
            "rho.value = 1e200\n",
            "EigensolveError",
        ),
    ],
    ids=[
        "weyl-verification",
        "boundary-only-dependence",
        "mollification-convergence",
        "bem-crosscheck",
        "boundary-only-short-window",
        "weyl-verification-short-window",
        "weyl-verification-overflowing-weight",
    ],
)
def test_failed_level_yields_partial_report(tmp_path, text, named):
    cfg = ExperimentConfig.from_text(text)
    rep = run_experiment(cfg, str(tmp_path))
    assert not rep.passed
    assert named in rep.error
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["error"] == rep.error
    assert not (tmp_path / "eigenvalues.csv").exists()
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_route_gap_over_its_bound_fails_the_nd_operator_and_the_run(tmp_path, monkeypatch):
    # nd_operator is the one place the route-gap bound is enforced: with the
    # bound at zero, any roundoff between the two routes must stop the run
    monkeypatch.setattr(potentials, "ROUTE_GAP_TOL", 0.0)
    op = potentials.build_layer_operators(geometry.make_domain("square"), 4)
    with pytest.raises(potentials.PotentialsError, match="ND evaluation routes disagree"):
        potentials.nd_operator(op)
    cfg = ExperimentConfig.from_text(
        "experiment = bem-crosscheck\ndomain.name = square\nbem.panels-per-edge = 4\n"
        "mesh.levels = 0.2\n"
    )
    rep = run_experiment(cfg, str(tmp_path))
    assert not rep.passed
    assert rep.error.startswith("PotentialsError: ND evaluation routes disagree")
    assert json.loads((tmp_path / "report.json").read_text())["error"] == rep.error


def test_bem_crosscheck_keeps_its_digits_at_every_scale(tmp_path):
    # the FEM pencil is shifted by 1/span, the order of σ; a unit shift made
    # μ/(1 − μ) cancel on a large domain and divide by zero at side 2^60
    runs = {}
    for k in (0, -60, 60):
        s = 2.0**k
        cfg = ExperimentConfig.from_text(
            f"experiment = bem-crosscheck\ndomain.name = square\ndomain.side = {s!r}\n"
            f"mesh.levels = {0.1 * s!r}, {0.07 * s!r}\nbem.panels-per-edge = 16\n"
        )
        rep = run_experiment(cfg, str(tmp_path / str(k)))
        assert rep.error is None, rep.error
        runs[k] = (np.array([lv["fem"] for lv in rep.levels]) / s, rep.fitted["max_relative"])
    fem, max_rel = runs[0]
    for k in (-60, 60):
        np.testing.assert_allclose(runs[k][0], fem, rtol=1e-12, atol=0)
        assert runs[k][1] == pytest.approx(max_rel, rel=1e-9)


# Each experiment on a small square of side s, with every length key a
# multiple of s.
DILATED = {
    "weyl-verification": lambda s: (
        f"mesh.levels = {0.1 * s!r}\nrho.name = per-segment\nrho.values = 1, 1, -1, -1\n"
    ),
    "bilipschitz-invariance": lambda s: f"mesh.levels = {0.1 * s!r}\n",
    "boundary-only-dependence": lambda s: (
        f"mesh.levels = {0.1 * s!r}\ninterior.a = checkerboard\ninterior.a.cell = {0.2 * s!r}\n"
    ),
    "mollification-convergence": lambda s: (
        f"mesh.levels = {0.1 * s!r}\ncoeff.a = checkerboard\ncoeff.a.cell = {0.25 * s!r}\n"
        f"moll.scales = {0.16 * s!r}, {0.08 * s!r}\n"
    ),
    "bem-crosscheck": lambda s: (
        f"mesh.levels = {0.1 * s!r}, {0.07 * s!r}\nbem.panels-per-edge = 16\n"
    ),
}
DILATION_FREE = ("deviation", "trace_gap", "interior_contrast", "misuse_gap", "final_drift")


@pytest.mark.parametrize("k", [-2, 2])
@pytest.mark.parametrize("experiment", list(DILATED))
def test_every_experiment_commutes_with_dilation(tmp_path, experiment, k):
    # On 2^k Ω, with every length scaled and v0 (units 1/length²) by 2^-2k,
    # every pair scales by 2^k exactly, so the verdict and every relative
    # figure keep their bits.  The layer fill is covariant to about 5e-12.
    reps = []
    for s in (1.0, 2.0**k):
        text = (
            f"experiment = {experiment}\ndomain.name = square\ndomain.side = {s!r}\n"
            f"coeff.v0.value = {s**-2!r}\n" + DILATED[experiment](s)
        )
        reps.append(run_experiment(ExperimentConfig.from_text(text), str(tmp_path / str(s))))
    ref, rep = reps
    assert ref.error is None and rep.error is None, rep.error
    assert rep.passed == ref.passed
    for key in DILATION_FREE:
        assert rep.summary.get(key) == ref.summary.get(key), key
    if experiment == "bem-crosscheck":
        assert rep.fitted["max_relative"] == pytest.approx(ref.fitted["max_relative"], rel=1e-11)
    else:
        assert rep.fitted.get("drift") == ref.fitted.get("drift")
        assert np.array_equal(rep.gaps, ref.gaps)


def test_bem_crosscheck_reports_the_jump_relation(tmp_path, monkeypatch):
    # the discrete Gauss identity of the run's own layers, in report.json,
    # also when the ND map fails after it
    cfg = ExperimentConfig.from_text(
        "experiment = bem-crosscheck\ndomain.name = square\nmesh.levels = 0.1\n"
        "bem.panels-per-edge = 64\n"
    )
    rep = run_experiment(cfg, str(tmp_path / "ok"))
    assert rep.error is None, rep.error
    payload = json.loads((tmp_path / "ok" / "report.json").read_text())
    assert payload["summary"]["jump_relation"] == rep.summary["jump_relation"]
    assert 0.0 <= rep.summary["jump_relation"] <= 1e-12
    monkeypatch.setattr(potentials, "ROUTE_GAP_TOL", 0.0)
    failed = run_experiment(cfg, str(tmp_path / "failed"))
    assert failed.error.startswith("PotentialsError: ND evaluation routes disagree")
    assert failed.summary["jump_relation"] == rep.summary["jump_relation"]


def test_outputs_are_rendered_before_any_is_written(tmp_path, monkeypatch):
    # a negative weight has only the negative branch; the plot draws that one
    neg = tmp_path / "neg"
    rep = run_experiment(ExperimentConfig.from_text(WEYL_SQUARE + "rho.value = -1\n"), str(neg))
    assert rep.error is None and rep.passed
    assert len(rep.spectrum.positive) == 0 and len(rep.spectrum.negative) > 20
    assert sorted(p.name for p in neg.iterdir()) == [
        "eigenvalues.csv", "plot.svg", "report.json", "weyl.csv"
    ]
    svg = (neg / "plot.svg").read_text()
    assert "k·|μ_k| (−)" in svg and "k·μ_k (+)" not in svg

    # a rendering failure fails the report, and report.json is all that is written
    def broken_plot(report, comment):
        raise HarnessError("cannot draw")

    experiment = harness._EXPERIMENTS["weyl-verification"]
    monkeypatch.setitem(
        harness._EXPERIMENTS,
        "weyl-verification",
        dataclasses.replace(experiment, plot=broken_plot),
    )
    broken = tmp_path / "broken"
    rep = run_experiment(ExperimentConfig.from_text(WEYL_SQUARE), str(broken))
    assert not rep.passed
    assert rep.error == "HarnessError: cannot draw"
    assert [p.name for p in broken.iterdir()] == ["report.json"]
    payload = json.loads((broken / "report.json").read_text())
    assert payload["error"] == rep.error and payload["passed"] is False


FEM_EXPERIMENTS = (
    "weyl-verification",
    "boundary-only-dependence",
    "mollification-convergence",
    "bilipschitz-invariance",
)
# The square has four segments; a negative weight predicts W+ = 0, which only
# weyl-verification (it also reads the negative branch) accepts.
BAD_WEIGHTS = {
    "five-values": ("rho.name = per-segment\nrho.values = 1, 1, 1, 1, 1\n", "rho.values"),
    "three-values": ("rho.name = per-segment\nrho.values = 1, 1, 1\n", "rho.values"),
    "negative": ("rho.value = -1\n", "W\\+ = 0"),
}


@pytest.mark.parametrize(
    "experiment,weight",
    [
        pytest.param(experiment, weight, id=f"{experiment}-{weight}")
        for experiment in FEM_EXPERIMENTS
        for weight in BAD_WEIGHTS
        if not (experiment == "weyl-verification" and weight == "negative")
    ],
)
def test_weight_errors_raise_before_the_first_stage(tmp_path, monkeypatch, experiment, weight):
    monkeypatch.setattr(Report, "stage", _halt)
    text, named = BAD_WEIGHTS[weight]
    cfg = ExperimentConfig.from_text(
        f"experiment = {experiment}\ndomain.name = square\nmesh.levels = 0.1\n{text}"
    )
    with pytest.raises(HarnessError, match=named):
        run_experiment(cfg, str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_runs_demand_their_required_keys():
    # a config without ``experiment`` constructs (the command line's do) but does not run
    cfg = ExperimentConfig.from_text("domain.name = square\nmesh.levels = 0.1")
    with pytest.raises(HarnessError, match="experiment must be one of"):
        run_experiment(cfg, "/tmp/never-used")
    with pytest.raises(HarnessError, match="mesh.levels"):
        run_experiment(
            ExperimentConfig.from_text(
                "experiment = weyl-verification\ndomain.name = square"
            ),
            "/tmp/never-used",
        )
    with pytest.raises(HarnessError, match="panels-per-edge"):
        run_experiment(
            ExperimentConfig.from_text(
                "experiment = bem-crosscheck\ndomain.name = square\nmesh.levels = 0.1"
            ),
            "/tmp/never-used",
        )
    with pytest.raises(HarnessError, match="strictly decreasing"):
        run_experiment(
            ExperimentConfig.from_text(
                "experiment = mollification-convergence\ndomain.name = square\n"
                "mesh.levels = 0.1\nmoll.scales = 0.01, 0.02"
            ),
            "/tmp/never-used",
        )


# ---------------------------------------------------------------------------
# command line


def test_cli_mesh_solve_weyl_bem(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    assert cli.main(["mesh", "domain.name=square", "mesh.levels=0.2"]) == 0
    assert "triangles=" in capsys.readouterr().out

    assert (
        cli.main(
            [
                "solve",
                "domain.name=square",
                "mesh.levels=0.15",
                "--count",
                "3",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    assert "mu_1" in capsys.readouterr().out
    rows = [r for r in out.read_text().splitlines() if not r.startswith("#")]
    assert rows[0] == "index,branch,eigenvalue,residual"
    assert sum(row.split(",")[1] == "+" for row in rows[1:]) >= 3

    assert cli.main(["weyl", "domain.name=square"]) == 0
    line = capsys.readouterr().out
    assert f"W+={4.0 / math.pi:.10g}" in line

    assert cli.main(["bem", "domain.name=square", "bem.panels-per-edge=12"]) == 0
    assert "route_gap" in capsys.readouterr().out


def test_cli_out_files_match_the_in_process_renderings(tmp_path, capsys):
    mesh_out, weyl_out, bem_out = (tmp_path / f for f in ("mesh.txt", "weyl.csv", "bem.csv"))
    dom = geometry.make_domain("sawtooth-square", teeth=2)
    keys = ["domain.name=sawtooth-square", "domain.teeth=2"]
    assert cli.main(["mesh", *keys, "mesh.levels=0.2", "--out", str(mesh_out)]) == 0
    assert mesh_out.read_text(encoding="utf-8") == geometry.triangulate(dom, 0.2).to_text()

    rho = ["rho.name=per-segment", "rho.values=1,0,-2,1,1,1,1"]
    assert cli.main(["weyl", *keys, *rho, "--out", str(weyl_out)]) == 0
    coeff = harness._coeff_from(ExperimentConfig(parse_config_text("\n".join(rho))), dom)
    assert weyl_out.read_text(encoding="utf-8") == weyl.weyl_coefficient(dom, coeff).to_csv()

    argv = ["bem", *keys, "bem.panels-per-edge=3", "--count", "5", "--out", str(bem_out)]
    assert cli.main(argv) == 0
    nd = potentials.nd_operator(potentials.build_layer_operators(dom, 3))
    rows = ["index,eigenvalue"] + [f"{k},{float(nd.eigenvalues[k - 1])!r}" for k in range(1, 6)]
    assert bem_out.read_text(encoding="utf-8") == "\n".join(rows) + "\n"
    capsys.readouterr()


def test_cli_refuses_a_checkerboard_cell_whose_index_overflows(capsys):
    # at cell = 1e-300 every cell index is beyond int64: the field would
    # silently be uniform, so the command names the cell and exits 1
    argv = ["weyl", "domain.name=square", "coeff.a=checkerboard", "coeff.a.cell=1e-300"]
    assert cli.main([*argv, "coeff.a.low=1", "coeff.a.high=9"]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("steklovlab: error:"), err
    assert "checkerboard cell = 1e-300" in err[0]
    assert captured.out == ""


def test_cli_experiment_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.cfg"
    good.write_text(WEYL_SQUARE)
    rc = cli.main(
        ["experiment", "--config", str(good), "--out-dir", str(tmp_path / "g")]
    )
    assert rc == 0
    assert "[PASS] weyl-verification" in capsys.readouterr().out

    bad = tmp_path / "bad.cfg"
    bad.write_text(WEYL_SQUARE + "tolerance.deviation = 1e-6\n")
    rc = cli.main(["experiment", "--config", str(bad), "--out-dir", str(tmp_path / "b")])
    assert rc == 1
    assert "[FAIL]" in capsys.readouterr().out

    failed = tmp_path / "failed.cfg"
    failed.write_text("experiment = weyl-verification\ndomain.name = square\n" + UNMESHABLE)
    rc = cli.main(["experiment", "--config", str(failed), "--out-dir", str(tmp_path / "f")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[FAIL]" in out and "error:" in out and "mesh size" in out


def test_cli_reports_usage_errors_without_traceback(tmp_path, capsys):
    broken = tmp_path / "broken.cfg"
    broken.write_text("experiment = not-a-thing\n")
    rc = cli.main(["experiment", "--config", str(broken)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "steklovlab: error:" in captured.err
    assert "not-a-thing" in captured.err

    rc = cli.main(["experiment", "--config", str(tmp_path / "missing.cfg")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "steklovlab: error:" in captured.err

    rc = cli.main(["mesh", "domain.name=dodecahedron", "mesh.levels=0.1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "steklovlab: error:" in captured.err

    # a span outside the range a polygon domain accepts
    rc = cli.main(["mesh", "domain.name=square", "domain.side=1e100", "mesh.levels=1e99"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "steklovlab: error:" in captured.err and "span" in captured.err

    # values of the wrong type, for the harness and for the domain catalog
    base = "experiment = bem-crosscheck\ndomain.name = square\nbem.panels-per-edge = 4\n"
    for line, named in (
        ("mesh.levels = abc", "mesh.levels"),
        ("mesh.levels = 0.1\ndomain.bogus = 3", "square"),
    ):
        broken.write_text(base + line + "\n")
        rc = cli.main(["experiment", "--config", str(broken)])
        captured = capsys.readouterr()
        assert rc == 1, line
        assert "steklovlab: error:" in captured.err and named in captured.err, line
    for text, named in (
        (WEYL_SQUARE + "tolerance.deviation = abc\n", "tolerance.deviation"),
        (WEYL_SQUARE + "tolerance.deviation = yes\n", "tolerance.deviation"),
        (WEYL_SQUARE + "tail.kmin = abc\n", "tail.kmin"),
        (WEYL_SQUARE + "tail.kmin = -3\n", "tail.kmin"),
        (WEYL_SQUARE + "tail.kmax = -1\n", "tail.kmax"),
        (WEYL_SQUARE + "tail.kmin = 10\ntail.kmax = 5\n", "tail.kmax"),
        (WEYL_SQUARE + "tail.kmax = 3\n", "tail.kmax"),
        (
            WEYL_SQUARE + "coeff.a = checkerboard\ncoeff.a.cell = 0.2\ncoeff.a.origin = 0.5,\n",
            "checkerboard",
        ),
        (WEYL_SQUARE + "coeff.v0 = bump\ncoeff.v0.center = 0.5,\n", "bump"),
        (WEYL_SQUARE.replace("square", "regular-ngon") + "domain.n = abc\n", "regular-ngon"),
        (
            "experiment = mollification-convergence\ndomain.name = square\n"
            "mesh.levels = 0.1\nmoll.scales = a, b\n",
            "moll.scales",
        ),
        (
            "experiment = bem-crosscheck\ndomain.name = square\nmesh.levels = 0.1\n"
            "bem.panels-per-edge = abc\n",
            "bem.panels-per-edge",
        ),
        (
            "experiment = bem-crosscheck\ndomain.name = square\nmesh.levels = 0.1\n"
            "bem.panels-per-edge = 0\n",
            "bem.panels-per-edge",
        ),
    ):
        broken.write_text(text)
        rc = cli.main(["experiment", "--config", str(broken)])
        captured = capsys.readouterr()
        assert rc == 1, text
        assert "steklovlab: error:" in captured.err and named in captured.err, text
    for param in ("bogus=3", "n=abc"):
        rc = cli.main(["mesh", "domain.name=regular-ngon", f"domain.{param}", "mesh.levels=0.1"])
        captured = capsys.readouterr()
        assert rc == 1, param
        assert "steklovlab: error:" in captured.err and "regular-ngon" in captured.err
    rc = cli.main(
        ["solve", "domain.name=square", "mesh.levels=0.3", "rho.name=per-segment", "rho.values=a,b"]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert "steklovlab: error:" in captured.err and "per-segment" in captured.err
    # a weight that overflows the condensed pencil
    rc = cli.main(["solve", "domain.name=square", "mesh.levels=0.3", "rho.value=1e308"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "steklovlab: error:" in captured.err and "overflow" in captured.err


@pytest.mark.parametrize("value", ["1e14", "1e17"])
def test_cli_refuses_an_energy_too_ill_conditioned_to_resolve(value, capsys):
    # cond S ≈ 6.4e14 and 2.3e15: the potential's mass is lost to the
    # rounding of a·K, and the solve once printed mu_1 = 4.129 and 0.0147
    rc = cli.main(["solve", "domain.name=square", "mesh.levels=0.3", f"coeff.a.value={value}"])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err.startswith("steklovlab: error:") and "ill-conditioned" in captured.err


def test_cli_solves_a_stiff_energy_under_the_condition_bound(capsys):
    # cond S ≈ 6.4e5: every pair is resolved
    assert cli.main(["solve", "domain.name=square", "mesh.levels=0.3", "coeff.a.value=1e5"]) == 0
    out = capsys.readouterr().out
    assert "positive=16" in out and "mu_1 = 4.0000016\n" in out


def test_cli_rejects_a_negative_count(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "domain.name=square", "mesh.levels=0.3", "--count", "-1"])
    assert exc.value.code == 2
    assert "--count must be non-negative" in capsys.readouterr().err


def _readme_commands() -> list:
    """The ``steklovlab`` lines of README's "Command line" block."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()]


def test_readme_command_lines_run(capsys):
    commands = _readme_commands()
    assert [c[0] for c in commands] == ["mesh", "solve", "weyl", "bem", "experiment"]
    for argv in commands[:-1]:  # the experiment line needs a config file
        assert cli.main(argv) == 0, argv
    assert "W+=1.405087817" in capsys.readouterr().out  # (3 + √2)/π


# A NaN, an infinity of either sign and a boolean (a config's ``yes``) for a
# parameter of each catalog: (key, value template, keys selecting the entry).
CATALOG_PARAMETERS = (
    ("domain.side", "{}", ""),
    ("coeff.a.p", "{}", "coeff.a = rotated-diagonal\ncoeff.a.q = 1\ncoeff.a.angle = 0\n"),
    ("coeff.v0.value", "{}", ""),
    ("coeff.v0.radius", "{}", "coeff.v0 = bump\n"),
    ("rho.value", "{}", ""),
    ("rho.values", "1, {}, 1, 1", "rho.name = per-segment\n"),
    ("interior.a.cell", "{}", "interior.a = checkerboard\n"),
)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "yes"])
@pytest.mark.parametrize(
    "key,template,entry", CATALOG_PARAMETERS, ids=[c[0] for c in CATALOG_PARAMETERS]
)
def test_catalog_parameters_must_be_finite_numbers(tmp_path, capsys, key, template, entry, value):
    instance = f"domain.name = square\n{entry}{key} = {template.format(value)}\n"
    cfg = ExperimentConfig.from_text(
        "experiment = boundary-only-dependence\nmesh.levels = 0.3\n" + instance
    )
    out = tmp_path / "out"
    named = rf"\b{key.rsplit('.', 1)[1]} must be a finite number"
    with pytest.raises((GeometryError, AssemblyError), match=named):
        run_experiment(cfg, str(out))
    assert not out.exists()
    if key.startswith("interior."):
        return  # the command line reads no interior field
    argv = [line.replace(" = ", "=").replace(", ", ",") for line in instance.splitlines()]
    assert cli.main(["solve", "mesh.levels=0.3", *argv]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("steklovlab: error:"), err


@pytest.mark.parametrize(
    "coeff",
    [
        "coeff.a.value = 1e300",
        pytest.param(
            "coeff.a = rotated-diagonal\ncoeff.a.p = 1e200\ncoeff.a.q = 1e200\ncoeff.a.angle = 0",
            id="rotated-diagonal-1e200",
        ),
    ],
)
def test_overflowing_weyl_coefficient_is_a_config_error(tmp_path, coeff):
    out = tmp_path / "out"
    with pytest.raises(WeylError, match="overflows"):
        run_experiment(ExperimentConfig.from_text(f"{WEYL_SQUARE}{coeff}\n"), str(out))
    assert not out.exists()


def test_weyl_verification_needs_a_predicted_branch(tmp_path):
    # a zero weight predicts W+ = W- = 0: there would be no deviation to check
    out = tmp_path / "out"
    with pytest.raises(HarnessError, match="rho"):
        run_experiment(ExperimentConfig.from_text(WEYL_SQUARE + "rho.value = 0\n"), str(out))
    assert not out.exists()


# Schema keys of the harness docstring, catalog parameters, keys the harness
# no longer reads (seed, tolerance.pair, tolerance.drift, tolerance.invariance,
# coeff.a.interior, coeff.a.base, blend.width, blend.sweep, moll.floor,
# collar.depth, collar.resolution, bem.count), and junk.
FUZZ_KEYS = (
    "seed", "output.dir", "domain.name", "domain.n", "domain.radius", "domain.side",
    "domain.notch", "domain.teeth", "domain.slope", "domain.level", "domain.bogus",
    "coeff.a", "coeff.a.p", "coeff.a.q", "coeff.a.angle", "coeff.a.cell",
    "coeff.a.origin", "coeff.a.interior", "coeff.a.interior.cell", "coeff.a.base",
    "coeff.a.eps", "coeff.v0", "coeff.v0.value", "coeff.v0.center", "rho.name",
    "rho.value", "rho.values", "mesh.levels", "solver.method", "tail.kmin",
    "tail.kmax", "tolerance.deviation", "tolerance.pair", "tolerance.drift",
    "tolerance.invariance", "interior.a", "interior.a.cell", "blend.width",
    "blend.sweep", "moll.scales", "moll.floor", "collar.depth", "collar.resolution",
    "bem.panels-per-edge", "bem.count", "junk", "junk.key",
)
INT_KEYS = ("tail.kmin", "tail.kmax", "bem.panels-per-edge")
FLOAT_KEYS = ("tolerance.deviation",)
LIST_KEYS = ("mesh.levels", "moll.scales")
WORDS = (
    "abc", "yes", "off", "nan", "-inf", "", "square", "regular-ngon", "lshape",
    "sawtooth-square", "koch-prefractal", "constant", "diagonal", "checkerboard",
    "rotated-diagonal", "boundary-matched-rough", "mollified", "bump", "per-segment",
    "auto", "dense", "sideways",
)
_scalar = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats(-2.0, 2.0).map(repr),
    st.sampled_from(WORDS),
)
_value = st.one_of(_scalar, st.lists(_scalar, min_size=2, max_size=4).map(", ".join))
_length = st.one_of(_value, st.floats(0.0, 2.0, exclude_min=True).map(repr))
# a valid mesh.levels: positive and strictly decreasing
_levels = st.lists(st.floats(0.01, 1.0), min_size=1, max_size=3, unique=True).map(
    lambda hs: ", ".join(repr(h) for h in sorted(hs, reverse=True))
)


def _value_or_typed_error(fn, *args):
    try:
        return fn(*args)
    except (HarnessError, GeometryError, AssemblyError, WeylError):
        return None


# Every example names a real experiment, so the fuzz reaches past the name
# check; test_config_rejects_malformed_experiment_names covers bad names.
@given(
    experiment=st.sampled_from(
        (
            "weyl-verification",
            "boundary-only-dependence",
            "mollification-convergence",
            "bilipschitz-invariance",
            "bem-crosscheck",
        )
    ),
    entries=st.dictionaries(st.sampled_from(FUZZ_KEYS), _value, max_size=8),
    collar_h=_length,
    levels=st.one_of(st.none(), _levels),
)
@settings(derandomize=True, max_examples=300, deadline=None)
def test_config_surface_raises_only_typed_errors(experiment, entries, collar_h, levels):
    if levels is not None:
        entries = {**entries, "mesh.levels": levels}
    text = "\n".join(f"{k} = {v}" for k, v in {"experiment": experiment, **entries}.items())
    cfg = _value_or_typed_error(ExperimentConfig.from_text, text)
    if cfg is None:
        return
    for key in INT_KEYS:
        _value_or_typed_error(cfg.get_int, key, 0)
    for key in FLOAT_KEYS:
        _value_or_typed_error(cfg.get_float, key, None)
    for key in LIST_KEYS:
        _value_or_typed_error(cfg.get_floats, key, [])
    _value_or_typed_error(cfg.mesh_levels)
    _value_or_typed_error(harness._tail, cfg)
    domain = _value_or_typed_error(harness._domain_from, cfg)
    # W± on the fuzzed domain (or the square) with the fuzzed coefficients
    target = domain or geometry.make_domain("square")
    coeff = _value_or_typed_error(harness._coeff_from, cfg, target)
    if coeff is not None:
        _value_or_typed_error(weyl.weyl_coefficient, target, coeff)
    _value_or_typed_error(harness._matrix_from, cfg, "interior.a")
    # The straightening on both graph domains of the catalog and on the
    # fuzzed domain, with a fuzzed mesh size.
    graphs = [geometry.make_domain("square"), geometry.make_domain("sawtooth-square")]
    for dom in graphs + ([domain] if domain is not None else []):
        try:
            sized = ExperimentConfig.from_text(f"mesh.levels = {collar_h}")
            geometry.build_straightening(dom, sized.mesh_levels()[-1])
        except (GeometryError, MeshingError, HarnessError):
            pass
