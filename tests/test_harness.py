"""Experiment orchestration: config parsing and validation, report
serialization, SVG rendering, deterministic end-to-end runs with their output
files, and the command-line entry points."""

import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from steklovlab import cli
from steklovlab.eigensolve import spectrum_from_csv
from steklovlab.harness import (
    ExperimentConfig,
    HarnessError,
    Report,
    parse_config_text,
    run_experiment,
    svg_loglog,
)


# ---------------------------------------------------------------------------
# configuration parsing


def test_config_coercion_types():
    out = parse_config_text(
        """
        # full-line comment
        experiment = weyl-verification
        mesh.levels = 0.1, 0.05
        solver.count = 40
        tolerance.deviation = 0.08
        verbose = true
        quiet = off
        domain.name = square  # trailing comment
        """
    )
    assert out["mesh.levels"] == [0.1, 0.05]
    assert out["solver.count"] == 40 and isinstance(out["solver.count"], int)
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
    with pytest.raises(HarnessError, match="strictly decreasing"):
        ExperimentConfig.from_text(
            "experiment = weyl-verification\nmesh.levels = 0.05, 0.05"
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
    assert g["sub_field_params"] == {"low": 1.0}


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
        [
            {"x": x, "y": 2.0 / x, "label": "products"},
            {"x": x, "y": 3.0 / x, "label": "trend", "line": True},
        ],
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
    assert len(root.findall(f"{ns}polyline")) == 1
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
    cfg = ExperimentConfig.from_text(
        """
        experiment = bilipschitz-invariance
        domain.name = sawtooth-square
        mesh.levels = 0.06
        collar.depth = 0.25
        """
    )
    rep = run_experiment(cfg, str(tmp_path))
    assert rep.passed
    assert rep.fitted["max_relative_gap"] < 1e-8
    assert rep.summary["misuse_detectable"] is True
    assert rep.summary["misuse_gap"] > 0.1


def test_failed_level_yields_partial_report(tmp_path):
    cfg = ExperimentConfig.from_text(
        WEYL_SQUARE + "solver.method = sideways\n"
    )
    rep = run_experiment(cfg, str(tmp_path))
    assert not rep.passed
    assert "solver.method" in rep.error
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["error"] == rep.error
    assert not (tmp_path / "eigenvalues.csv").exists()


def test_runs_demand_their_required_keys():
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
    assert cli.main(["mesh", "--domain", "square", "--h", "0.2"]) == 0
    assert "triangles=" in capsys.readouterr().out

    assert (
        cli.main(
            [
                "solve",
                "--domain",
                "square",
                "--h",
                "0.15",
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

    assert cli.main(["weyl", "--domain", "square"]) == 0
    line = capsys.readouterr().out
    assert f"W+={4.0 / math.pi:.10g}" in line

    assert cli.main(["bem", "--domain", "square", "--panels-per-edge", "12"]) == 0
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

    rc = cli.main(["mesh", "--domain", "dodecahedron", "--h", "0.1"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "steklovlab: error:" in captured.err
