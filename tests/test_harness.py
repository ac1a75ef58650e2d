"""Experiment orchestration: config parsing and validation, report
serialization, SVG rendering, deterministic end-to-end runs with their output
files, and the command-line entry points."""

import contextlib
import dataclasses
import json
import math
import re
import shlex
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from steklovlab import cli, geometry, harness
from steklovlab.assembly import AssemblyError
from steklovlab.eigensolve import spectrum_from_csv
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
        bem.count = 40
        tolerance.deviation = 0.08
        verbose = true
        quiet = off
        domain.name = square  # trailing comment
        """
    )
    assert out["mesh.levels"] == [0.1, 0.05]
    assert out["bem.count"] == 40 and isinstance(out["bem.count"], int)
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


def test_config_rejects_non_decreasing_mesh_levels():
    for levels in ("0.05, 0.05", "-0.1", "0.1, 0"):
        with pytest.raises(HarnessError, match="positive and strictly decreasing"):
            ExperimentConfig.from_text(
                f"experiment = weyl-verification\nmesh.levels = {levels}"
            )


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
    assert cfg.seed == 0
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
def _halt(timings, name):
    timings[name] = 0.0  # a stage has started, so the run writes its report
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


def test_schema_docstring_lists_the_keys_the_harness_reads(tmp_path, monkeypatch):
    groups = set()
    group = ExperimentConfig.group

    def recording_group(self, prefix):
        groups.add(prefix)
        return group(self, prefix)

    monkeypatch.setattr(harness, "_stage", _halt)
    monkeypatch.setattr(ExperimentConfig, "group", recording_group)
    read = set()
    for name, extra in SCHEMA_RUNS.items():
        values = _ReadKeys(
            parse_config_text(
                f"experiment = {name}\nmesh.levels = 0.1\n"
                f"output.dir = {tmp_path / name}\n{extra}"
            )
        )
        rep = run_experiment(ExperimentConfig(values))
        assert rep.error == "RuntimeError: halted at the first stage", name
        assert (tmp_path / name / "report.json").exists()
        read |= values.read
    read |= {f"{prefix}.<p>" for prefix in groups}
    documented = _schema_keys()
    # domain.name and rho.name are read as members of their groups
    named = {k for k in documented if k.endswith(".name") and k[: -len(".name")] in groups}
    assert named == {"domain.name", "rho.name"}
    assert documented - named == read


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
    assert not any(k.startswith("_") for k in payload["summary"])
    assert payload["provenance"]["versions"]["steklovlab"]

    csv = (d1 / "eigenvalues.csv").read_text().splitlines()
    assert csv[0].startswith("# experiment=weyl-verification")
    assert csv[1] == "index,branch,eigenvalue,residual"
    spec = spectrum_from_csv((d1 / "eigenvalues.csv").read_text())
    assert len(spec.positive) > 20

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
            collar.depth = 0.25
            """
        )
        rep = run_experiment(cfg, str(tmp_path / name))
        assert rep.passed, name
        assert rep.fitted["max_relative_gap"] < 1e-8
        assert rep.summary["misuse_detectable"] is True
        assert rep.summary["misuse_gap"] > 0.1
        # the control's pullback, assembly and solve are a stage of their own
        assert list(rep.provenance["timings"]) == ["mesh", "assembly", "solve", "control", "total"]


def test_collar_grid_over_the_node_budget_fails_in_the_mesh_stage(tmp_path):
    # the matched grid would take ~1.07e6 nodes; it is refused before any of
    # it is allocated
    cfg = ExperimentConfig.from_text(
        "experiment = bilipschitz-invariance\ndomain.name = sawtooth-square\n"
        "mesh.levels = 1e-3\ncollar.depth = 0.25\n"
    )
    t0 = time.perf_counter()
    rep = run_experiment(cfg, str(tmp_path))
    assert time.perf_counter() - t0 < 1.0
    assert rep.error.startswith("MeshingError") and "budget" in rep.error
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
    ],
    ids=[
        "weyl-verification",
        "boundary-only-dependence",
        "mollification-convergence",
        "bem-crosscheck",
        "boundary-only-short-window",
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
    monkeypatch.setattr(harness, "_stage", _halt)
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
    spec = spectrum_from_csv(out.read_text())
    assert len(spec.positive) >= 3

    assert cli.main(["weyl", "domain.name=square"]) == 0
    line = capsys.readouterr().out
    assert f"W+={4.0 / math.pi:.10g}" in line

    assert cli.main(["bem", "domain.name=square", "bem.panels-per-edge=12"]) == 0
    assert "route_gap" in capsys.readouterr().out


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

    # values of the wrong type, for the harness and for the domain catalog
    base = "experiment = bem-crosscheck\ndomain.name = square\nbem.panels-per-edge = 4\n"
    for line, named in (
        ("mesh.levels = abc", "mesh.levels"),
        ("mesh.levels = 0.1\nseed = abc", "seed"),
        ("mesh.levels = 0.1\ntolerance.pair = abc", "tolerance.pair"),
        ("mesh.levels = 0.1\ntolerance.pair = yes", "tolerance.pair"),
        ("mesh.levels = 0.1\nbem.count = abc", "bem.count"),
        ("mesh.levels = 0.1\nbem.count = 0", "bem.count"),
        ("mesh.levels = 0.1\nbem.count = -5", "bem.count"),
        ("mesh.levels = 0.1\ndomain.bogus = 3", "square"),
    ):
        broken.write_text(base + line + "\n")
        rc = cli.main(["experiment", "--config", str(broken)])
        captured = capsys.readouterr()
        assert rc == 1, line
        assert "steklovlab: error:" in captured.err and named in captured.err, line
    for text, named in (
        (WEYL_SQUARE + "tolerance.deviation = abc\n", "tolerance.deviation"),
        (WEYL_SQUARE + "tail.kmin = -3\n", "tail.kmin"),
        (WEYL_SQUARE + "tail.kmax = -1\n", "tail.kmax"),
        (WEYL_SQUARE + "tail.kmin = 10\ntail.kmax = 5\n", "tail.kmax"),
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
    ("coeff.a.p", "{}", "coeff.a = diagonal\ncoeff.a.q = 1\n"),
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
    "coeff", ["coeff.a.value = 1e300", "coeff.a = diagonal\ncoeff.a.p = 1e200\ncoeff.a.q = 1e200"]
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
# no longer reads (coeff.a.interior, coeff.a.base, blend.sweep, moll.floor,
# collar.resolution), and junk.
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
INT_KEYS = ("seed", "tail.kmin", "tail.kmax", "bem.count", "bem.panels-per-edge")
FLOAT_KEYS = (
    "tolerance.deviation", "tolerance.pair", "tolerance.drift", "tolerance.invariance",
    "blend.width", "collar.depth",
)
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


def _value_or_typed_error(fn, *args):
    try:
        return fn(*args)
    except (HarnessError, GeometryError, AssemblyError):
        return None


@given(
    experiment=st.one_of(
        st.sampled_from(
            (
                "weyl-verification",
                "boundary-only-dependence",
                "mollification-convergence",
                "bilipschitz-invariance",
                "bem-crosscheck",
            )
        ),
        _value,
    ),
    entries=st.dictionaries(st.sampled_from(FUZZ_KEYS), _value, max_size=8),
    collar=st.tuples(_length, _length),
)
@settings(derandomize=True, max_examples=300, deadline=None)
def test_config_surface_raises_only_typed_errors(experiment, entries, collar):
    text = "\n".join(f"{k} = {v}" for k, v in {"experiment": experiment, **entries}.items())
    cfg = _value_or_typed_error(ExperimentConfig.from_text, text)
    if cfg is None:
        return
    _value_or_typed_error(lambda: cfg.seed)
    for key in INT_KEYS:
        _value_or_typed_error(cfg.get_int, key, 0)
    for key in FLOAT_KEYS:
        _value_or_typed_error(cfg.get_float, key, None)
    for key in LIST_KEYS:
        _value_or_typed_error(cfg.get_floats, key, [])
    _value_or_typed_error(harness._tail, cfg)
    domain = _value_or_typed_error(harness._domain_from, cfg)
    _value_or_typed_error(harness._coeff_from, cfg, domain or geometry.make_domain("square"))
    _value_or_typed_error(harness._matrix_from, cfg, "interior.a")
    # The straightening builders on both charted catalog domains and on the
    # fuzzed domain if it is charted.  A fuzzed config almost never holds a
    # valid mesh.levels, so the collar depth and mesh levels come separately.
    charted = [geometry.make_domain("square"), geometry.make_domain("sawtooth-square")]
    if domain is not None and domain.charts:
        charted.append(domain)
    for dom in charted:
        try:
            sized = ExperimentConfig.from_text(
                "collar.depth = {}\nmesh.levels = {}".format(*collar)
            )
            smap = geometry.build_straightening(
                dom, sized.get_float("collar.depth", 0.2), sized.mesh_levels()[-1]
            )
            geometry.build_matched_meshes(smap)
        except (GeometryError, MeshingError, HarnessError):
            pass
