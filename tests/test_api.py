"""Public names other code binds by name.

The benchmark's tracer wraps every ``__all__`` entry of the six layer modules
through ``getattr``, and its runner reads a few names directly, so a stale
entry or a renamed attribute breaks a traced run before any test of the
layer itself would notice.  Names outside ``__all__`` that the benchmark
reads are pinned here too: the tracer measures ``assemble_energy_split`` and
``NystromOperator.n``, the bem-nd workload checks the ``"max_error"`` key
of ``jump_relation_error``, and the harness workloads time
``harness.write_outputs`` and sum the sizes of the paths it returns.  The package itself binds no private scipy
module, whose names may change in any scipy release, and calls no LAPACK
routine through ctypes.
"""

import importlib
import os
import pathlib
import re

import pytest

import steklovlab
from steklovlab import assembly, geometry, harness, potentials

LAYERS = ("geometry", "assembly", "eigensolve", "weyl", "potentials", "harness")


def test_public_names_resolve():
    for name in LAYERS:
        module = importlib.import_module(f"steklovlab.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert not missing, f"steklovlab.{name}.__all__ names missing attributes: {missing}"
    assert callable(geometry.triangulate_polygon)
    assert callable(steklovlab.active_backend)
    assert "matrix" in potentials.NDResult.__dataclass_fields__
    assert callable(assembly.assemble_energy_split)


def test_benchmark_reads_panel_count_and_jump_residual():
    op = potentials.build_layer_operators(geometry.make_domain("square"), 2)
    assert op.n == 8
    assert set(potentials.jump_relation_error(op)) == {"max_error"}


def test_benchmark_reads_the_writer_and_the_stage_timings(tmp_path, monkeypatch):
    calls = []
    write = harness.write_outputs

    def spy(*args, **kwargs):
        calls.append(write(*args, **kwargs))
        return calls[-1]

    # the runner resolves the writer through the module, where a tracer wraps it
    monkeypatch.setattr(harness, "write_outputs", spy)
    cfg = harness.ExperimentConfig.from_text(
        "experiment = weyl-verification\ndomain.name = square\nmesh.levels = 0.25\n"
    )
    harness.run_experiment(cfg, str(tmp_path))
    assert len(calls) == 1
    paths = calls[0]
    assert sorted(paths) == ["eigenvalues.csv", "plot.svg", "report.json", "weyl.csv"]
    assert all(os.path.basename(p) == name and os.path.isfile(p) for name, p in paths.items())

    # a stage that raises still records its time
    report = harness.Report("weyl-verification", passed=False, tolerances={})
    with pytest.raises(RuntimeError, match="halted"), report.stage("mesh"):
        raise RuntimeError("halted")
    assert report.provenance["timings"]["mesh"] >= 0.0


def test_package_imports_no_private_scipy_module():
    # "import scipy.x._y", "from scipy.x._y import z" and "from scipy.x import _y"
    private = re.compile(r"^\s*(from|import)\s+scipy(\.\w+)*(\._|\s+import\s+\(?_)")
    # nor reaches LAPACK through ctypes and the capsule table of a Cython module
    foreign = re.compile(r"^\s*(from|import)\s+ctypes\b|__pyx_capi__")
    src = pathlib.Path(steklovlab.__file__).parent
    hits = [
        f"{path.name}:{k}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        for k, line in enumerate(path.read_text().splitlines(), 1)
        if private.search(line) or foreign.search(line)
    ]
    assert not hits, hits
