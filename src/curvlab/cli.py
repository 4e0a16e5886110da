"""Command-line interface for curvature reports and identity checks.

Subcommands: catalog | curvature | gauss-bonnet | tube | egregium.
Exit codes: 0 success, 1 a requested check exceeded its threshold,
2 usage or domain errors.  `--format json`/`--format csv` emit
machine-readable reports whose floating-point fields round-trip exactly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from functools import partial
from typing import Optional

import numpy as np

from .catalog import catalog_entries, catalog_get, load_immersion
from .curvature import NormalDirection, _check_pfaffian_dimension, curvature_report, egregium_report
from .errors import CurvlabError, DomainError
from .immersion import sample_domain
from .integrate import default_grid, gauss_bonnet_check
from .tube import TubeConfig, tube_point, tube_total_curvature

__all__ = ["main", "RunReport"]


@dataclass
class RunReport:
    """Structured result of one CLI invocation."""

    command: str
    surface: Optional[str]
    options: dict
    results: dict
    wall_time_s: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "RunReport":
        return RunReport(**json.loads(text))

    def flat_items(self) -> list[tuple[str, object]]:
        rows: list[tuple[str, object]] = [("command", self.command), ("surface", self.surface)]
        rows += [(f"options.{k}", v) for k, v in self.options.items()]
        rows += [(f"results.{k}", v) for k, v in self.results.items()]
        rows.append(("wall_time_s", self.wall_time_s))
        return rows

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in self.flat_items():
            writer.writerow([key, _csv_value(value)])
        return buf.getvalue()


def _csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, (list, tuple)):
        return ";".join(_csv_value(v) for v in value)
    return str(value)


def _emit(report: RunReport, fmt: str) -> None:
    if fmt == "json":
        print(report.to_json())
    elif fmt == "csv":
        print(report.to_csv(), end="")
    else:
        width = max(len(k) for k, _ in report.flat_items())
        for key, value in report.flat_items():
            if isinstance(value, float):
                value = "%.12g" % value
            print(f"{key:<{width}}  {value}")


def _resolve_surface(args) -> tuple:
    if args.surface and args.surface_file:
        raise DomainError("give either --surface or --surface-file, not both")
    if args.surface:
        return catalog_get(args.surface), args.surface
    if args.surface_file:
        imm = load_immersion(args.surface_file)
        return imm, f"file:{args.surface_file}"
    raise DomainError("a surface is required: --surface NAME or --surface-file PATH")


def _parse_point(text: str, m: int) -> np.ndarray:
    try:
        values = [float(piece) for piece in text.split(",") if piece.strip()]
    except ValueError:
        raise DomainError(f"cannot parse point {text!r}: expected comma-separated numbers")
    if len(values) != m:
        raise DomainError(f"point {text!r} has {len(values)} coordinates, surface needs {m}")
    return np.array(values)


def _random_directions(rng: np.random.Generator, count: int, n: int) -> list[NormalDirection]:
    return [NormalDirection(np.array([rng.choice([-1.0, 1.0])])) if n == 1
            else NormalDirection.unit(rng.standard_normal(n)) for _ in range(count)]


def _threshold_exit(args, metrics: dict, converged: Optional[bool] = None) -> int:
    """1 if a named metric exceeds --fail-threshold or is not finite, or a refined
    integral did not converge, else 0."""
    threshold = getattr(args, "fail_threshold", None)
    if threshold is None:
        return 0
    if converged is False:
        print("error: converged is false: the integral reached its default grid "
              "before two refinement levels agreed", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        if not math.isfinite(value):
            print(f"error: {name} is {value}, not a finite number", file=sys.stderr)
            return 1
    return 1 if any(value > threshold for value in metrics.values()) else 0


# -- subcommands -----------------------------------------------------------


def cmd_catalog(args) -> int:
    entries = catalog_entries()
    if args.format == "json":
        print(json.dumps(entries, indent=2))
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "m", "k", "n", "chi"])
        for e in entries:
            writer.writerow([e["name"], e["m"], e["k"], e["n"], _csv_value(e["chi"])])
        print(buf.getvalue(), end="")
    else:
        for e in entries:
            chi = "?" if e["chi"] is None else e["chi"]
            print(f"{e['name']} m={e['m']} k={e['k']} chi={chi} n={e['n']}")
    return 0


def cmd_curvature(args, imm):
    u = _parse_point(args.point, imm.m)
    results = asdict(curvature_report(imm, u))  # at odd m, Pfaffian fields null
    return {"point": [float(x) for x in u]}, results, [], None


def cmd_gauss_bonnet(args, imm):
    grid = None if args.resolution is None else default_grid(imm, args.resolution)
    rep = gauss_bonnet_check(imm, grid, route=args.route)
    results = asdict(rep)
    options = {"route": results.pop("route"), "resolution": args.resolution,
               "grid_shape": list(results.pop("grid_shape"))}
    gated = ["residual"] if rep.residual is not None else ["chi_distance"]
    return options, results, gated, rep.converged


def cmd_tube(args, imm):
    if args.resolution is not None and not args.total:
        raise DomainError("--resolution sets the grid of --total: give --total too, or drop --resolution")
    do_identity = args.identity or not (args.total or args.spectrum)
    sampled = do_identity or args.spectrum
    for flag, given in (("--samples", args.samples), ("--seed", args.seed)):
        if given is not None and not sampled:
            raise DomainError(f"{flag} sets the points of --identity and --spectrum: give one of them too, "
                              f"or drop {flag}")
    samples, seed = 20 if args.samples is None else args.samples, 0 if args.seed is None else args.seed
    cfg = TubeConfig(imm, args.eps)
    rng = np.random.default_rng(seed)
    results: dict = {"eps": args.eps}
    converged = None
    if sampled:  # every sample in one batch, evaluated once for both checks
        tp = tube_point(cfg, sample_domain(imm, samples, rng), _random_directions(rng, samples, imm.n))
        if do_identity:
            results["max_identity_residual"] = float(np.max(tp.identity.relative))
            results["identity_samples"] = samples
        if args.spectrum:
            results["max_spectrum_residual"] = float(np.max(tp.spectrum.residual))
            results["spectrum_samples"] = samples
    if args.total:
        total = tube_total_curvature(cfg, resolution=args.resolution)
        results["total_integral"] = total.integral
        results["total_expected"] = total.expected
        results["total_residual"] = total.residual
        results["per_sheet"] = list(total.per_sheet)
        results["total_grid_shapes"] = [list(shape) for shape in total.grid_shapes]
        results["total_error_estimate"] = total.error_estimate
        results["total_converged"] = total.converged
        converged = total.converged
    options = {"eps": args.eps, "seed": seed, "samples": samples, "resolution": args.resolution}
    gated = [k for k in ("max_identity_residual", "max_spectrum_residual", "total_residual") if k in results]
    return options, results, gated, converged


def cmd_egregium(args, imm):
    _check_pfaffian_dimension(imm.m, imm.name)  # before any point is sampled
    rep = egregium_report(imm, sample_domain(imm, args.samples, np.random.default_rng(args.seed)))
    results = {"samples": args.samples, "max_egregium_residual": float(np.max(rep.egregium_residual)),
               "max_route_residual": float(np.max(rep.route_residual))}
    options = {"seed": args.seed, "samples": args.samples}
    return options, results, ["max_egregium_residual"], None


def _surface_report(command, args) -> int:
    """Run a surface subcommand and emit its RunReport, timed from surface lookup on.

    `command(args, imm)` returns (options, results, the names of the results
    that --fail-threshold gates, converged).
    """
    start = time.perf_counter()
    imm, label = _resolve_surface(args)
    options, results, gated, converged = command(args, imm)
    report = RunReport(args.command, label, options, results, wall_time_s=time.perf_counter() - start)
    _emit(report, args.format)
    return _threshold_exit(args, {k: results[k] for k in gated}, converged)


# -- parser ----------------------------------------------------------------


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _nonnegative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


_RESOLUTION_HELP = (
    "nodes per axis (default: refine from 8 nodes per axis until two levels agree, "
    "capped at the per-dimension default grid; a tube refines its base axes only, and each "
    "fiber axis starts at the node count exact for it and gains one node per level)"
)


def _add_surface_args(sp) -> None:
    sp.add_argument("--surface", help="catalog surface name, e.g. sphere2_r4 or torus_rev_r3(R=2,r=0.5)")
    sp.add_argument("--surface-file", help="path to a JSON surface file")


def _add_common(sp) -> None:
    sp.add_argument("--format", choices=("human", "json", "csv"), default="human")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvlab",
        description="Curvature laboratory for submanifolds of R^k in any codimension.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("catalog", help="list built-in surfaces")
    _add_common(sp)
    sp.set_defaults(func=cmd_catalog)

    sp = sub.add_parser("curvature", help="pointwise curvature report")
    _add_surface_args(sp)
    _add_common(sp)
    sp.add_argument("--point", required=True, help="comma-separated chart coordinates")
    sp.set_defaults(func=partial(_surface_report, cmd_curvature))

    sp = sub.add_parser("gauss-bonnet", help="total curvature against the Euler characteristic")
    _add_surface_args(sp)
    _add_common(sp)
    sp.add_argument("--resolution", type=_positive_int, help=_RESOLUTION_HELP)
    sp.add_argument("--route", choices=("moments", "quadrature"), default="moments")
    sp.add_argument("--fail-threshold", type=_finite_float, help="exit 1 if the residual exceeds this")
    sp.set_defaults(func=partial(_surface_report, cmd_gauss_bonnet))

    sp = sub.add_parser("tube", help="tube-boundary identity, spectrum, and total checks")
    _add_surface_args(sp)
    _add_common(sp)
    sp.add_argument("--eps", type=float, required=True, help="tube radius")
    sp.add_argument("--total", action="store_true", help="integrate the boundary curvature")
    sp.add_argument("--identity", action="store_true", help="check the rescaling identity")
    sp.add_argument("--spectrum", action="store_true", help="check the shape-operator spectrum")
    sp.add_argument("--samples", type=_positive_int, help="points of --identity and --spectrum (default 20)")
    sp.add_argument("--seed", type=_nonnegative_int, help="seed of those points (default 0)")
    sp.add_argument("--resolution", type=_positive_int, help=_RESOLUTION_HELP)
    sp.add_argument("--fail-threshold", type=_finite_float)
    sp.set_defaults(func=partial(_surface_report, cmd_tube))

    sp = sub.add_parser("egregium", help="extrinsic-vs-intrinsic curvature residual at random points")
    _add_surface_args(sp)
    _add_common(sp)
    sp.add_argument("--samples", type=_positive_int, default=20)
    sp.add_argument("--seed", type=_nonnegative_int, default=0)
    sp.add_argument("--fail-threshold", type=_finite_float)
    sp.set_defaults(func=partial(_surface_report, cmd_egregium))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CurvlabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
