"""Command-line entry point: mesh, solve, weyl, bem, experiment."""

from __future__ import annotations

import argparse
import sys

from . import assembly, eigensolve, geometry, harness, potentials, weyl


def _kv_pairs(items):
    out = {}
    for item in items or []:
        if "=" not in item:
            raise SystemExit(f"expected key=value, got {item!r}")
        k, v = item.split("=", 1)
        out[k.strip().replace("-", "_")] = harness._coerce(v)
    return out


def _domain(args) -> geometry.PolygonDomain:
    return geometry.make_domain(args.domain, **_kv_pairs(args.param))


def _coeff(args) -> assembly.CoefficientField:
    a = assembly.make_matrix_field(args.a, **_kv_pairs(args.a_param))
    v0 = assembly.constant_potential(args.v0)
    if args.rho_values:
        rho = assembly.make_weight("per-segment", values=args.rho_values.split(","))
    else:
        rho = assembly.constant_weight(args.rho)
    return assembly.CoefficientField(a=a, v0=v0, rho=rho)


def _add_domain_args(p):
    p.add_argument("--domain", required=True, help="catalog domain name")
    p.add_argument(
        "--param",
        action="append",
        metavar="KEY=VALUE",
        help="domain parameter (repeatable), e.g. --param n=256",
    )


def _add_coeff_args(p):
    p.add_argument("--a", default="constant", help="matrix coefficient name")
    p.add_argument(
        "--a-param", action="append", metavar="KEY=VALUE", help="coefficient parameter"
    )
    p.add_argument("--v0", type=float, default=1.0, help="constant potential value")
    p.add_argument("--rho", type=float, default=1.0, help="constant boundary weight")
    p.add_argument(
        "--rho-values", default="", help="per-segment weights, comma separated"
    )


def cmd_mesh(args) -> int:
    dom = _domain(args)
    mesh = geometry.triangulate(dom, args.h)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(mesh.to_text())
    print(
        f"domain={dom.name} h={args.h:g} nodes={mesh.n_nodes} "
        f"triangles={len(mesh.triangles)} boundary_edges={len(mesh.boundary_edges)} "
        f"min_angle={mesh.min_angle():.2f}"
    )
    return 0


def cmd_solve(args) -> int:
    dom = _domain(args)
    mesh = geometry.triangulate(dom, args.h)
    coeff = _coeff(args)
    forms = assembly.assemble_forms(mesh, coeff)
    n = forms.A.shape[0]
    spec = eigensolve.solve_dense(forms.A, forms.B)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(eigensolve.spectrum_to_csv(spec))
    shown = spec.positive[: args.count]
    print(f"dofs={n} positive={len(spec.positive)}")
    for i, mu in enumerate(shown, 1):
        print(f"  mu_{i} = {mu:.8g}")
    return 0


def cmd_weyl(args) -> int:
    dom = _domain(args)
    coeff = _coeff(args)
    wd = weyl.weyl_coefficient(dom, coeff, order=args.order)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(wd.to_csv())
    print(f"domain={dom.name} W+={wd.w_plus:.10g} W-={wd.w_minus:.10g}")
    return 0


def cmd_bem(args) -> int:
    dom = _domain(args)
    op = potentials.build_layer_operators(
        dom, args.panels_per_edge, rescale=not args.no_rescale
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


# Anticipated failures (bad flags, unsolvable configs, unreadable files) exit
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

    p = sub.add_parser("mesh", help="triangulate a catalog domain")
    _add_domain_args(p)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--out", default="", help="write the mesh as text")
    p.set_defaults(fn=cmd_mesh)

    p = sub.add_parser("solve", help="assemble and solve the spectral pencil")
    _add_domain_args(p)
    _add_coeff_args(p)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--count", type=int, default=12, help="eigenvalues to print")
    p.add_argument("--out", default="", help="write the spectrum CSV")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("weyl", help="predicted counting-function coefficient")
    _add_domain_args(p)
    _add_coeff_args(p)
    p.add_argument("--order", type=int, default=8, help="Gauss nodes per segment")
    p.add_argument("--out", default="", help="write the boundary-density CSV")
    p.set_defaults(fn=cmd_weyl)

    p = sub.add_parser("bem", help="boundary-integral route to the spectrum")
    _add_domain_args(p)
    p.add_argument("--panels-per-edge", type=int, required=True)
    p.add_argument("--count", type=int, default=12)
    p.add_argument(
        "--no-rescale",
        action="store_true",
        help=f"build on the original geometry, not at diameter {potentials.RESCALE_DIAMETER:g}",
    )
    p.add_argument("--out", default="", help="write the eigenvalue CSV")
    p.set_defaults(fn=cmd_bem)

    p = sub.add_parser("experiment", help="run a configured experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None, help="override output.dir")
    p.set_defaults(fn=cmd_experiment)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _CLI_ERRORS as exc:
        print(f"steklovlab: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
