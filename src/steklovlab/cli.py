"""Command-line entry point: mesh, solve, weyl, bem, experiment.

``mesh``, ``solve``, ``weyl`` and ``bem`` read one problem instance from
``KEY=VALUE`` arguments with the experiment-config keys of ``harness``:
``domain.*``, ``coeff.*``, ``rho.*``, ``mesh.levels`` (its last entry is the
mesh size) and ``bem.panels-per-edge``, checked as a config's are.
"""

from __future__ import annotations

import argparse
import sys

from . import assembly, eigensolve, geometry, harness, potentials, weyl


def _config(args) -> harness.ExperimentConfig:
    """The ``KEY=VALUE`` arguments as a config with the experiment schema."""
    return harness.ExperimentConfig(harness.parse_config_text("\n".join(args.keys)))


def _instance_parser(sub, name: str, fn, summary: str):
    p = sub.add_parser(name, help=summary)
    p.add_argument(
        "keys", nargs="*", metavar="KEY=VALUE", help="experiment-config keys, e.g. domain.n=96"
    )
    p.set_defaults(fn=fn)
    return p


def cmd_mesh(args) -> int:
    cfg = _config(args)
    dom = harness._domain_from(cfg)
    h = cfg.mesh_levels()[-1]
    mesh = geometry.triangulate(dom, h)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(mesh.to_text())
    print(
        f"domain={dom.name} h={h:g} nodes={mesh.n_nodes} "
        f"triangles={len(mesh.triangles)} boundary_edges={len(mesh.boundary_edges)} "
        f"min_angle={mesh.min_angle():.2f}"
    )
    return 0


def cmd_solve(args) -> int:
    cfg = _config(args)
    dom = harness._domain_from(cfg)
    coeff = harness._coeff_from(cfg, dom)
    mesh = geometry.triangulate(dom, cfg.mesh_levels()[-1])
    forms = assembly.assemble_forms(mesh, coeff)
    spec = eigensolve.solve_dense(forms.A, forms.B)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(eigensolve.spectrum_to_csv(spec))
    shown = spec.positive[: args.count]
    print(f"dofs={forms.A.shape[0]} positive={len(spec.positive)}")
    for i, mu in enumerate(shown, 1):
        print(f"  mu_{i} = {mu:.8g}")
    return 0


def cmd_weyl(args) -> int:
    cfg = _config(args)
    dom = harness._domain_from(cfg)
    wd = weyl.weyl_coefficient(dom, harness._coeff_from(cfg, dom))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(wd.to_csv())
    print(f"domain={dom.name} W+={wd.w_plus:.10g} W-={wd.w_minus:.10g}")
    return 0


def cmd_bem(args) -> int:
    cfg = _config(args)
    op = potentials.build_layer_operators(
        harness._domain_from(cfg), cfg.panels_per_edge(), rescale=not args.no_rescale
    )
    nd = potentials.nd_operator(op)
    if args.out:
        lines = ["index,eigenvalue"]
        lines += [
            f"{i},{float(v)!r}" for i, v in enumerate(nd.eigenvalues[: args.count], 1)
        ]
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    print(
        f"panels={op.n} scale={op.scale:.6g} cond={nd.condition:.4g} "
        f"route_gap={nd.route_gap:.3e}"
    )
    for i, v in enumerate(nd.eigenvalues[: args.count], 1):
        print(f"  nd_{i} = {v:.8g}")
    return 0


# Anticipated failures (bad keys, unsolvable configs, unreadable files) exit
# with a one-line message instead of a traceback.
_CLI_ERRORS = (
    assembly.AssemblyError,
    eigensolve.EigensolveError,
    geometry.GeometryError,
    geometry.MeshingError,
    harness.HarnessError,
    potentials.PotentialsError,
    weyl.WeylError,
    OSError,
)


def cmd_experiment(args) -> int:
    cfg = harness.ExperimentConfig.from_file(args.config)
    report = harness.run_experiment(cfg, outdir=args.out_dir)
    status = "PASS" if report.passed else "FAIL"
    print(f"[{status}] {report.experiment} -> {args.out_dir or cfg.output_dir}")
    if report.error:
        print(f"  error: {report.error}")
    for key, val in sorted(report.fitted.items()):
        print(f"  {key}: {val}")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="steklovlab",
        description="Steklov-type spectra, their leading-order asymptotics, "
        "and the boundary-integral cross-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _instance_parser(sub, "mesh", cmd_mesh, "triangulate a catalog domain")
    p.add_argument("--out", default="", help="write the mesh as text")

    p = _instance_parser(sub, "solve", cmd_solve, "assemble and solve the spectral pencil")
    p.add_argument("--count", type=int, default=12, help="eigenvalues to print")
    p.add_argument("--out", default="", help="write the spectrum CSV")

    p = _instance_parser(sub, "weyl", cmd_weyl, "predicted counting-function coefficient")
    p.add_argument("--out", default="", help="write the boundary-density CSV")

    p = _instance_parser(sub, "bem", cmd_bem, "boundary-integral route to the spectrum")
    p.add_argument("--count", type=int, default=12)
    p.add_argument(
        "--no-rescale",
        action="store_true",
        help=f"build on the original geometry, not at diameter {potentials.RESCALE_DIAMETER:g}",
    )
    p.add_argument("--out", default="", help="write the eigenvalue CSV")

    p = sub.add_parser("experiment", help="run a configured experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None, help="override output.dir")
    p.set_defaults(fn=cmd_experiment)

    args = parser.parse_args(argv)
    if getattr(args, "count", 0) < 0:
        parser.error("--count must be non-negative")
    try:
        return args.fn(args)
    except _CLI_ERRORS as exc:
        print(f"steklovlab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
