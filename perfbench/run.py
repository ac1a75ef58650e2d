"""Pipeline benchmark for steklovlab.

Runs one named workload of acceptance-gate inputs through the package's
public entry points, checks every verdict, and prints its metrics.  Run from
the repository root:

    python3 perfbench/run.py --workload fem-dense --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from passes with every public function of the package wrapped in a
span.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(provenance, samples, checks and, when tracing, every span) is written to
``.perfbench/<workload>-seed<n>-trace<t>.json`` under the repository root.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
TRACE_MODULES = ("geometry", "assembly", "eigensolve", "weyl", "potentials", "harness")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "tol_used_max": "ratio"}


class BenchError(RuntimeError):
    """The benchmark could not run its workload."""


def _limit_blas_threads():
    """Cap BLAS/OpenMP threads at the core count; must run before numpy loads."""
    nproc = os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))


def _import_package():
    """Import steklovlab from this checkout's ``src`` and nowhere else."""
    if not (SRC / "steklovlab" / "__init__.py").is_file():
        raise BenchError(f"no steklovlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import steklovlab

    if Path(steklovlab.__file__).resolve().parent != SRC / "steklovlab":
        raise BenchError(f"imported steklovlab from {steklovlab.__file__}, not {SRC}")
    return steklovlab


# ---------------------------------------------------------------------------
# provenance


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """HEAD of the checkout, read from ``.git`` without running git; None
    when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int, sizes: dict) -> dict:
    import numpy as np
    import scipy
    import steklovlab

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "backend": steklovlab.active_backend(),
        "git_commit": _git_commit(),
        "input_sizes": sizes,
    }


# ---------------------------------------------------------------------------
# set-up


def _scratch():
    """Temporary directory for experiment outputs, inside the checkout."""
    os.makedirs(ROOT / ".perfbench", exist_ok=True)
    return tempfile.TemporaryDirectory(prefix="tmp-", dir=ROOT / ".perfbench")


def set_up(workload, seed: int, scratch: str) -> list:
    """Make the inputs from the seed and warm every code path once."""
    for warm in workload.warmup:
        warm.run(warm.prepare(seed), os.path.join(scratch, "warmup", warm.name))
    shutil.rmtree(os.path.join(scratch, "warmup"), ignore_errors=True)
    return [(inp, inp.prepare(seed)) for inp in workload.inputs]


def probe_setup(workload_name: str, seed: int, count: int) -> list:
    """Set-up time of fresh processes: from spawn until the child has imported
    the package, made its inputs and warmed up."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
           "--seed", str(seed), "--probe-setup"]
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "READY":
            raise BenchError(f"set-up probe failed (exit {child.returncode})")
        samples.append(elapsed)
    return samples


# ---------------------------------------------------------------------------
# passes


def run_pass(prepared, scratch: str, pass_id: int, reference: dict, tracer=None) -> dict:
    """One pass over the inputs in their fixed order.

    Each input is timed on its own after a full collection, so garbage left by
    the previous input is not charged to the next; its outputs and every
    reference to them are dropped before the next input starts.
    """
    from workloads import Check

    times = {}
    checks = []
    sizes = {}
    for inp, data in prepared:
        outdir = os.path.join(scratch, f"pass{pass_id}", inp.name)
        gc.collect()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outcome = inp.run(data, outdir)
            else:
                with tracer.span(f"bench.{inp.name}", "bench"):
                    outcome = inp.run(data, outdir)
        except Exception as exc:  # a failed input is a failed check, not a crash
            times[inp.name] = time.perf_counter() - t0
            traceback.print_exc()
            checks.append(Check(f"{inp.name}: raised {type(exc).__name__}: {exc}", False))
            continue
        times[inp.name] = time.perf_counter() - t0
        for c in outcome.checks:
            checks.append(Check(f"{inp.name}: {c.name}", c.ok, c.ratio))
        # bitwise reproducibility against the first pass's outputs
        first = reference.setdefault(inp.name, outcome.digests)
        for name, digest in outcome.digests.items():
            checks.append(Check(f"{inp.name}: {name} bitwise", first.get(name) == digest))
        sizes[inp.name] = outcome.sizes
        del outcome
        shutil.rmtree(outdir, ignore_errors=True)
    return {
        "wall_s": sum(times.values()),
        "input_s": times,
        "traced": tracer is not None,
        "checks": checks,
        "sizes": sizes,
    }


def measure(workload, seed: int, seconds: float, trace: bool, scratch: str):
    """Passes until the pass boundary nearest to ``seconds``; with tracing,
    passes alternate traced/untraced, starting traced, and at least one of
    each runs.

    Stopping at the nearest boundary, rather than the first one past
    ``seconds``, keeps the pass count of a workload whose pass is about as
    long as the run from flipping between one and two passes."""
    from tracer import Tracer

    prepared = set_up(workload, seed, scratch)
    modules = {name: importlib.import_module(f"steklovlab.{name}") for name in TRACE_MODULES}
    tracer = Tracer()
    reference: dict = {}
    passes = []
    t0 = time.perf_counter()
    while True:
        pass_id = len(passes)
        if trace and pass_id % 2 == 0:
            tracer.pass_id = pass_id
            with tracer.installed(modules):
                passes.append(run_pass(prepared, scratch, pass_id, reference, tracer))
        else:
            passes.append(run_pass(prepared, scratch, pass_id, reference))
        elapsed = time.perf_counter() - t0
        typical = statistics.median(p["wall_s"] for p in passes)
        if elapsed + 0.5 * typical >= seconds and len(passes) >= (2 if trace else 1):
            break
    return passes, tracer


# ---------------------------------------------------------------------------
# metrics


def median_pass(passes) -> float:
    """Sum over inputs of each input's median time across passes: the median
    pass, robust to a slow spell that hits one input of one pass."""
    names = passes[0]["input_s"]
    return sum(statistics.median(p["input_s"][n] for p in passes) for n in names)


def end_to_end_metrics(passes, setup_samples, checks) -> dict:
    ratios = [c.ratio for c in checks if c.ratio is not None]
    values = {
        "wall_s": median_pass(passes),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tol_used_max": max(ratios, default=1.0),  # no verdict ran: a failure
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer_metrics(passes, tracer, spec: list) -> dict:
    from tracer import layer_metrics

    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass = []
    for i, p in enumerate(passes):
        if p["traced"]:
            spans = [sp for sp in tracer.spans if sp.pass_id == i]
            m = layer_metrics(spans)
            m["trace.pass_s"] = p["wall_s"]
            m["trace.accounted_frac"] = m["trace.layers_self_s"] / p["wall_s"]
            per_pass.append(m)
    values = {
        # sizes and counts repeat exactly; times take the median over passes
        k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]
    }
    # ru_maxrss only rises, so growth shows in the first traced pass alone
    for k in ("eigensolve.peak_rss_growth_mb", "potentials.peak_rss_growth_mb"):
        values[k] = max(m[k] for m in per_pass)
    values["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in plain
    )
    units = {m["name"]: m["unit"] for m in spec}
    missing = set(units) - set(values)
    if missing:
        raise BenchError(f"per-layer metrics not produced: {sorted(missing)}")
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def _spread(samples) -> str:
    if len(samples) < 2:
        return f"n={len(samples)}"
    return f"n={len(samples)} min={min(samples):.4g} max={max(samples):.4g}"


def run_workload(args) -> int:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {w["name"]: w["why"] for w in spec["workloads"]}
    if set(declared) != set(workloads.WORKLOADS):
        raise BenchError(f"BENCHMARK.json declares {sorted(declared)}, not {sorted(workloads.WORKLOADS)}")
    setup_samples = [] if args.trace else probe_setup(workload.name, args.seed, SETUP_PROBES)
    with _scratch() as scratch:
        passes, tracer = measure(workload, args.seed, args.seconds, bool(args.trace), scratch)

    checks = [c for p in passes for c in p["checks"]]
    failed = [c for c in checks if not c.ok]
    if args.trace:
        metrics = per_layer_metrics(passes, tracer, spec["per_layer"])
    else:
        metrics = end_to_end_metrics(passes, setup_samples, checks)

    prov = provenance(args.seed, passes[0]["sizes"])
    walls = [p["wall_s"] for p in passes]
    record = {
        "workload": workload.name,
        "why": declared[workload.name],
        "provenance": prov,
        "seconds": args.seconds,
        "trace": args.trace,
        "pass_wall_s": walls,
        "pass_input_s": [p["input_s"] for p in passes],
        "pass_traced": [p["traced"] for p in passes],
        "setup_samples_s": setup_samples,
        "checks_attempted": len(checks),
        "checks_failed": [c.name for c in failed],
        "fail_frac": len(failed) / len(checks),
        "metrics": metrics,
    }
    if args.trace:
        record["spans"] = [dataclasses.asdict(sp) for sp in tracer.spans]
    out = ROOT / ".perfbench" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=float) + "\n")

    print(json.dumps({"provenance": prov}, default=float))
    print(f"workload {workload.name} seed {args.seed}: {len(passes)} passes, wall_s {_spread(walls)}, "
          f"setup_s {_spread(setup_samples)}")
    print(f"checks: {len(checks) - len(failed)}/{len(checks)} passed, fail_frac {len(failed) / len(checks):.4g}")
    for c in failed:
        print(f"  FAILED {c.name}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
    print(f"full record: {out.relative_to(ROOT)}")
    result = {"correct": not failed, "attempted": len(checks), "failed": len(failed), "metrics": metrics}
    print(json.dumps(result, default=float), flush=True)
    return 0 if not failed else 1


def run_all(args) -> int:
    """Every workload, each in its own process; one combined table."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"workload {name} printed nothing (exit {proc.returncode})")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"] and proc.returncode == 0
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="steklovlab pipeline benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    _limit_blas_threads()
    try:
        _import_package()
        import workloads

        if args.workload != "all" and args.workload not in workloads.WORKLOADS:
            ap.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)} or all")
        if args.probe_setup:
            with _scratch() as scratch:
                set_up(workloads.WORKLOADS[args.workload], args.seed, scratch)
            print("READY", flush=True)
            return 0
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
