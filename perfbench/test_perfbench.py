"""Self-test of the benchmark's own arithmetic; needs no package sources.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import re
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from run import median_pass  # noqa: E402
from tracer import Span, layer_metrics, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _span(i, name, parent, start, end, **attrs):
    return Span(i, name, name.split(".")[0], parent, 0, start, end, attrs=attrs)


def _nested():
    # harness.run_experiment [0, 10]
    #   geometry.triangulate [1, 4]
    #     geometry.triangulate_polygon [1.5, 3.5]
    #   assembly.assemble_forms [4, 5]
    #     assembly.assemble_energy_split [4.2, 4.8]
    #   eigensolve.solve_dense [5, 9]
    #   harness.write_outputs [9, 9.5]
    return [
        _span(0, "harness.run_experiment", None, 0.0, 10.0),
        _span(1, "geometry.triangulate", 0, 1.0, 4.0, nodes=100),
        _span(2, "geometry.triangulate_polygon", 1, 1.5, 3.5),
        _span(3, "assembly.assemble_forms", 0, 4.0, 5.0),
        _span(4, "assembly.assemble_energy_split", 3, 4.2, 4.8, elements=180),
        _span(5, "eigensolve.solve_dense", 0, 5.0, 9.0, dim=120, pairs_computed=120, pairs_retained=12),
        _span(6, "harness.write_outputs", 0, 9.0, 9.5, bytes=2048),
    ]


def test_self_time_subtracts_direct_children_only():
    st = self_times(_nested())
    assert st[0] == 10.0 - (3.0 + 1.0 + 4.0 + 0.5)
    assert st[1] == 3.0 - 2.0
    assert st[2] == 2.0
    assert abs(st[3] - 0.4) < 1e-12
    assert st[5] == 4.0


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, "harness.run_experiment", None, 0.0, 10.0),
        _span(1, "geometry.triangulate", 0, 2.0, 6.0),
        _span(2, "geometry.make_domain", 0, 5.0, 8.0),
    ]
    assert self_times(spans)[0] == 10.0 - 6.0


def test_layer_self_times_account_for_the_pass():
    m = layer_metrics(_nested())
    assert m["geometry.busy_s"] == 3.0
    assert abs(m["assembly.busy_s"] - 1.0) < 1e-12
    assert m["eigensolve.dense_s"] == 4.0
    assert m["harness.run_s"] == 10.0
    assert abs(m["harness.self_s"] - 2.0) < 1e-12  # 1.5 own + 0.5 writing
    assert abs(m["trace.layers_self_s"] - 10.0) < 1e-12


def test_layer_counts_and_ratios():
    m = layer_metrics(_nested())
    # one entry into geometry and assembly each; nested calls are not re-counted
    assert m["geometry.calls"] == 1 and m["assembly.calls"] == 1
    assert m["geometry.nodes"] == 100 and m["geometry.nodes_per_s"] == 100 / 3.0
    assert m["assembly.elements"] == 180
    assert m["eigensolve.dense_calls"] == 1 and m["eigensolve.iterative_calls"] == 0
    assert m["eigensolve.retained_ratio"] == 0.1
    assert m["harness.bytes_written"] == 2048 and m["harness.experiments"] == 1
    assert m["potentials.fill_s"] == 0 and m["potentials.condition_max"] == 0


def test_median_pass_takes_each_inputs_median():
    passes = [
        {"input_s": {"mesh": 1.0, "solve": 9.0}},
        {"input_s": {"mesh": 5.0, "solve": 2.0}},  # one slow spell per input
        {"input_s": {"mesh": 2.0, "solve": 3.0}},
    ]
    assert median_pass(passes) == 2.0 + 3.0
    assert median_pass(passes[:1]) == 10.0
    assert median_pass(passes[:2]) == statistics.median([1.0, 5.0]) + statistics.median([9.0, 2.0])


def test_metric_names_and_units_follow_the_contract():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.fullmatch(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_layer_metrics_cover_the_declared_per_layer_set():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    produced = set(layer_metrics(_nested())) | {
        "trace.pass_s",
        "trace.accounted_frac",
        "trace.overhead_s",
    }
    assert {m["name"] for m in spec["per_layer"]} <= produced
