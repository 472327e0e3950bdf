"""Command-line interface: generate data, fit models, compute geodesics,
indicatrices and volume fields, and run the verification sweeps.

Every command is deterministic given its full flag set (seeds included) and
writes a JSON sidecar with the resolved configuration next to each output,
so reruns are byte-identical and self-describing. Exit codes: 0 success,
1 verification failure, a kernel matrix that cannot be factorized, a 1F1
series that does not converge or out of memory, 2 usage error or malformed
input (input files are read in `data`). A geodesic that stops at
--max-iter before converging is not an error: `geodesic` exits 0, prints
"pair <i> <kind>: not converged" on stderr and writes converged = 0 in its
table.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import __version__
from ._lbfgs import TOL
from .data import (
    ParseError,
    _read_table,
    _sidecar_labels,
    gen_circles_sphere,
    gen_pinwheel_sphere,
    load_csv,
    write_dataset,
    write_sidecar,
)
from .experiments import (
    COMPARISON_KINDS,
    _convergence_checks,
    _with_checks,
    bound_sweep,
    comparison_entries,
    export_comparison_csv,
    export_convergence_csv,
    export_violations_csv,
    make_truncation_ensemble,
    truncation_sweep,
)
from .fields import GpField, SphereField
from .geodesic import export_curve_csv
from .measure import export_indicatrix_csv, export_volume_field_csv, indicatrix, volume_field
from .specfun import ConvergenceError


def _config(args, command: str, **extra) -> dict:
    cfg = {
        k: v for k, v in vars(args).items() if k != "func" and not k.startswith("_")
    }
    cfg.update(extra)
    cfg["command"] = command
    cfg["version"] = __version__
    return cfg


def _load_field(spec: str):
    """The field of a model file, or for the literal name 'sphere' the
    analytic deterministic sphere chart."""
    if spec == "sphere":
        return SphereField()
    from .gp import load_model
    return GpField(load_model(spec))


def _parse_point(text: str, dim: int) -> np.ndarray:
    """A point of a dim-d latent space from comma-separated coordinates."""
    try:
        z = np.array([float(c) for c in text.split(",")], dtype=float)
    except ValueError:
        raise ValueError(f"expected comma-separated coordinates, got {text!r}")
    if z.size != dim:
        raise ValueError(f"{text!r} has {z.size} coordinates; the model's latent space is {dim}-d")
    return z


def _read_pairs(path: str, dim: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Endpoint pairs in a dim-d latent space, one per row: start
    coordinates then end coordinates."""
    _, rows = _read_table(path)
    if not rows:
        raise ParseError(f"{path}: no endpoint pairs")
    if len(rows[0]) != 2 * dim:
        raise ParseError(f"{path}: each row has {len(rows[0])} coordinates; two "
                         f"points of the model's {dim}-d latent space have {2 * dim}")
    return [(np.array(row[:dim]), np.array(row[dim:])) for row in rows]


def _parse_dims(text: str) -> list[int]:
    """Either an explicit comma list '2,4,8' or 'lo:hi:dyadic' for the
    doubling grid lo, 2*lo, 4*lo, ..., capped at hi. Malformed text, or a
    dimension below 1, raises a ValueError that names --dims."""
    dyadic = text.endswith(":dyadic")
    try:
        if dyadic:
            lo, hi, _ = text.split(":")
            lo, hi = int(lo), int(hi)
        else:
            dims = [int(c) for c in text.split(",")]
            lo, hi = min(dims), max(dims)
    except ValueError:
        raise ValueError(
            f"--dims {text!r}: expected a comma list of integers or lo:hi:dyadic"
        ) from None
    if lo < 1:
        raise ValueError(f"--dims {text!r}: every dimension must be >= 1")
    if hi < lo:
        raise ValueError(f"--dims {text!r}: need lo <= hi")
    if not dyadic:
        return dims
    dims = []
    d = lo
    while d <= hi:
        dims.append(d)
        d *= 2
    return dims


# ---------------------------------------------------------------------------
# commands


def cmd_generate(args) -> int:
    if args.shape == "pinwheel":
        ds = gen_pinwheel_sphere(n=args.n, arms=args.arms, noise=args.noise, seed=args.seed)
    else:
        try:
            radii = tuple(float(r) for r in args.radii.split(","))
        except ValueError:
            raise ValueError(f"--radii {args.radii!r}: expected comma-separated numbers") from None
        ds = gen_circles_sphere(n=args.n, radii=radii, noise=args.noise, seed=args.seed)
    write_dataset(args.out, ds, _config(args, f"generate {args.shape}"))
    print(f"wrote {ds.points.shape[0]} x {ds.points.shape[1]} points to {args.out}")
    return 0


def cmd_fit(args) -> int:
    from .gp import Kernel, fit_gplvm, log_marginal_likelihood, save_model
    has_labels = _sidecar_labels(args.data) if args.labels == "auto" else args.labels == "yes"
    ds = load_csv(args.data, has_labels=has_labels)
    k0 = Kernel(args.kernel, args.lengthscale, args.variance)
    model = fit_gplvm(ds.points, args.latent_dim, k0, args.noise, steps=args.steps, lr=args.lr,
                      optimize_latents=args.optimize_latents)
    save_model(model, args.out)
    write_sidecar(args.out, _config(args, "fit", data_provenance=ds.provenance))
    print(f"log marginal likelihood: {log_marginal_likelihood(model):.6f}")
    print(
        f"kernel: {model.kernel.family} lengthscale={model.kernel.lengthscale:.6g} "
        f"variance={model.kernel.variance:.6g} noise={model.noise:.6g}"
    )
    print(f"wrote model to {args.out}")
    return 0


def cmd_geodesic(args) -> int:
    field = _load_field(args.model)
    q = field.latent_dim
    if args.pairs is not None:
        pairs = _read_pairs(args.pairs, q)
    elif args.start is not None and args.end is not None:
        pairs = [(_parse_point(args.start, q), _parse_point(args.end, q))]
    else:
        raise ValueError("provide --start and --end, or --pairs")
    kinds = COMPARISON_KINDS if args.metric is None else (args.metric,)
    entries = comparison_entries(
        field,
        pairs,
        metric_kinds=kinds,
        n_points=args.nc,
        grid=args.grid,
        max_iter=args.max_iter,
        tol=args.tol,
    )
    base, ext = os.path.splitext(args.out)
    for row, curve in entries:
        curve_path = f"{base}_pair{row.pair}_{row.metric_kind}{ext or '.csv'}"
        export_curve_csv(curve_path, curve, field)
    export_comparison_csv(args.out, [row for row, _ in entries])
    write_sidecar(args.out, _config(args, "geodesic"))
    bad = [row for row, _ in entries if not row.converged]
    for row in bad:
        print(f"pair {row.pair} {row.metric_kind}: not converged", file=sys.stderr)
    print(f"wrote {len(entries)} curves and table to {args.out}")
    return 0


def cmd_verify(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    dims = _parse_dims(args.dims)
    # the short truncation sweep first, so that its checks of --dims and
    # --v-samples fail before the long bound sweep runs; the two sweeps
    # draw from independent streams, so the order changes no output
    ensemble = make_truncation_ensemble(d_max=dims[-1], seed=args.seed)
    rows = truncation_sweep(ensemble, dims, v_samples=args.v_samples, seed=args.seed)
    report = bound_sweep(n_specs=args.n, seed=args.seed)
    report = _with_checks(report, _convergence_checks(rows, ensemble.m_constant))

    cfg = _config(args, "verify", m_constant=ensemble.m_constant)
    violations_path = os.path.join(args.out, "violations.csv")
    export_violations_csv(violations_path, report)
    write_sidecar(violations_path, cfg)
    convergence_path = os.path.join(args.out, "convergence.csv")
    export_convergence_csv(convergence_path, rows)
    write_sidecar(convergence_path, cfg)

    for name in sorted(report.counts):
        if report.counts[name]:
            print(f"VIOLATION {name}: {report.counts[name]}")
    print(f"checks: {len(report.counts)}, violations: {report.total}")
    print(f"wrote {violations_path} and {convergence_path}")
    return 0 if report.ok else 1


def cmd_volume(args) -> int:
    vf = volume_field(_load_field(args.model), grid=args.grid, K=args.k)
    export_volume_field_csv(args.out, vf)
    write_sidecar(args.out, _config(args, "volume"))
    print(f"wrote {vf.grid_points.shape[0]} grid rows to {args.out}")
    return 0


def cmd_indicatrix(args) -> int:
    field = _load_field(args.model)
    center = _parse_point(args.at, field.latent_dim)
    p = field.jacobian_posterior(center)
    curves = [indicatrix(p, K=args.k, metric_kind=kind) for kind in
              ("riemann", "finsler", "alpha_sigma")]
    export_indicatrix_csv(args.out, curves)
    write_sidecar(args.out, _config(args, "indicatrix", center=center.tolist()))
    print(f"wrote {args.k} angles at {center.tolist()} to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: the scripts and perfbench call `main` once per
    # command in one interpreter, and parsing leaves the parser unchanged
    parser = argparse.ArgumentParser(
        prog="finslergp",
        description="Expected-Riemannian and Finsler latent-space geometry tools",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="synthetic sphere datasets")
    gen_sub = p_gen.add_subparsers(dest="shape", required=True)
    for shape in ("pinwheel", "circles"):
        p_shape = gen_sub.add_parser(shape)
        p_shape.add_argument("--n", type=int, default=1000)
        p_shape.add_argument("--noise", type=float, default=0.05 if shape == "pinwheel" else 0.03)
        p_shape.add_argument("--seed", type=int, default=0)
        p_shape.add_argument("--out", required=True)
        if shape == "pinwheel":
            p_shape.add_argument("--arms", type=int, default=5)
        else:
            p_shape.add_argument("--radii", default="0.6,1.3")
        p_shape.set_defaults(func=cmd_generate)

    p_fit = sub.add_parser("fit", help="fit a latent-variable GP model")
    p_fit.add_argument("--data", required=True)
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--kernel", choices=("rbf", "matern52"), default="rbf")
    p_fit.add_argument("--steps", type=int, default=200, help="L-BFGS iteration cap")
    p_fit.add_argument("--lr", type=float, default=0.05, help="fallback step: lr * sign(gradient)")
    p_fit.add_argument("--noise", type=float, default=0.01)
    p_fit.add_argument("--lengthscale", type=float, default=1.0)
    p_fit.add_argument("--variance", type=float, default=1.0)
    p_fit.add_argument("--latent-dim", type=int, default=2)
    p_fit.add_argument("--optimize-latents", action="store_true")
    p_fit.add_argument("--labels", choices=("auto", "yes", "no"), default="auto")
    p_fit.set_defaults(func=cmd_fit)

    p_geo = sub.add_parser("geodesic", help="optimize curves between endpoints")
    p_geo.add_argument("--model", required=True, help="model file or 'sphere'")
    p_geo.add_argument("--start", help="comma-separated latent coordinates")
    p_geo.add_argument("--end", help="comma-separated latent coordinates")
    p_geo.add_argument("--pairs", help="CSV of endpoint pairs (start then end per row)")
    p_geo.add_argument("--metric", choices=COMPARISON_KINDS, default=None,
                       help="single metric; omitted runs all three")
    p_geo.add_argument("--nc", type=int, default=64, help="curve points")
    p_geo.add_argument("--grid", type=int, default=10, help="grid-initialization resolution")
    p_geo.add_argument("--tol", type=float, default=TOL,
                       help="stop once a step's predicted energy decrease is below tol * energy")
    p_geo.add_argument("--max-iter", type=int, default=600)
    p_geo.add_argument("--out", required=True, help="comparison table path")
    p_geo.set_defaults(func=cmd_geodesic)

    p_ver = sub.add_parser("verify", help="inequality and convergence sweeps")
    p_ver.add_argument("--n", type=int, default=10_000, help="bound-sweep specs")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--dims", default="2:1024:dyadic")
    p_ver.add_argument("--v-samples", type=int, default=64)
    p_ver.add_argument("--out", default=".", help="output directory")
    p_ver.set_defaults(func=cmd_verify)

    p_vol = sub.add_parser("volume", help="volume-density field on a latent grid")
    p_vol.add_argument("--model", required=True)
    p_vol.add_argument("--grid", type=int, default=32)
    p_vol.add_argument("--k", type=int, default=256, help="quadrature angles")
    p_vol.add_argument("--out", required=True)
    p_vol.set_defaults(func=cmd_volume)

    p_ind = sub.add_parser("indicatrix", help="unit-ball boundaries at a latent point")
    p_ind.add_argument("--model", required=True)
    p_ind.add_argument("--at", required=True, help="comma-separated latent coordinates")
    p_ind.add_argument("--k", type=int, default=64, help="sampled angles")
    p_ind.add_argument("--out", required=True)
    p_ind.set_defaults(func=cmd_indicatrix)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except (np.linalg.LinAlgError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except (OSError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
