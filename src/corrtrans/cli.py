"""Command-line front-end.

Subcommands: transform, delta, ranges, exact, simulate, table.
Exit codes, decided by the error's type in `main` alone: 0 success, 1 on a
ValueError (an argument outside its domain), 2 on an ArithmeticError (a
numeric failure, such as DegenerateModelError or IntegrationError).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

from . import models as mo
from . import montecarlo as mc
from . import pearson as pe
from .specfun import normal_quantile

__all__ = ["main", "read_config"]

CSV_FIELDS = [
    "model", "transform", "alpha", "rho", "n", "N", "K", "seed",
    "eps_mean", "eps_sd", "eps_se", "alpha_hat_mean",
]


# a simulate config is a flat JSON object: the ExperimentGrid fields, where
# the file goes and in which format; K and master_seed have no default here
_REQUIRED = ("model", "alphas", "rhos", "ns", "N", "K", "master_seed",
             "output_path")
_OPTIONAL = ("transforms", "format")
_LISTS = ("alphas", "rhos", "ns", "transforms")


def read_config(path: str | Path) -> tuple[mc.ExperimentGrid, str, str]:
    """(grid, output_path, format) of a simulate config; a malformed one
    raises ValueError (TypeError for some wrong types), which exits 1."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("the config must be a JSON object")
    unknown = sorted(set(raw) - set(_REQUIRED) - set(_OPTIONAL))
    if unknown:
        raise ValueError(f"unknown keys {unknown}")
    missing = [key for key in _REQUIRED if key not in raw]
    if missing:
        raise ValueError(f"missing keys {missing}")
    for key in _LISTS:
        if key in raw and not isinstance(raw[key], list):
            raise ValueError(f"{key} must be a JSON list")
    out, fmt = raw.pop("output_path"), raw.pop("format", "csv")
    if not isinstance(out, str):
        raise ValueError("output_path must be a string")
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown output format {fmt!r}")
    grid = mc.ExperimentGrid(**{key: tuple(value) if key in _LISTS else value
                                for key, value in raw.items()})
    return grid, out, fmt


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's 2
        raise ValueError(message)


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="corrtrans")
    parser.add_argument("--digits", type=non_negative_int, default=6,
                        help="significant digits for printed values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="evaluate the optimal transform")
    p.add_argument("--model", required=True, type=str.lower,
                   choices=mo.MODEL_NAMES)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", type=float)
    group.add_argument("--z", type=float)
    p.add_argument("--rho", type=float, required=True)

    p = sub.add_parser("delta", help="leading error term for a transform")
    p.add_argument("--model", required=True, type=str.lower,
                   choices=mo.MODEL_NAMES)
    p.add_argument("--transform", required=True, choices=mo.TRANSFORM_KINDS)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--z-ref", type=float, default=None)

    p = sub.add_parser("ranges", help="dominance range of significance levels")
    p.add_argument("--model", required=True, type=str.lower,
                   choices=mo.MODEL_NAMES)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--vs", required=True, choices=["identity", "fisher"])

    p = sub.add_parser("exact", help="exact SquareV rejection probability")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--transform", required=True, choices=mo.TRANSFORM_KINDS)

    p = sub.add_parser("simulate", help="run a grid from a JSON config")
    p.add_argument("--config", required=True)

    p = sub.add_parser("table", help="render a stored run as text")
    p.add_argument("--input", required=True)
    p.add_argument("--plot-data", action="store_true",
                   help="emit (n, eps*sqrt(n)) series per transform as CSV")
    return parser


def _fmt(value: float, digits: int) -> str:
    return f"{value:.{digits}g}"


def _z_alpha(alpha: float) -> float:
    """z_alpha = Phi^-1(1 - alpha) of an --alpha in the documented level
    domain 0 < alpha < 0.5, where 1 - alpha must not round to 1."""
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"--alpha must lie in (0, 0.5), got {alpha}")
    if 1.0 - alpha == 1.0:
        raise ValueError(f"--alpha {alpha} is too small: 1 - alpha rounds "
                         "to 1")
    return normal_quantile(1.0 - alpha)


def _finite_z(z: float) -> float:
    if not math.isfinite(z):
        raise ValueError(f"--z must be finite, got {z}")
    return z


def _exponent(model, kind: str, z_ref, flag: str) -> float:
    """The kind's exponent; a z_ref it refuses is named as its flag."""
    try:
        return mo.transform_exponent(model, kind, z_ref)
    except ValueError:
        if z_ref is None:
            raise ValueError(f"--transform {kind} requires {flag}") from None
        raise ValueError(f"{flag} must give a finite optimal exponent, "
                         f"got {z_ref}") from None


def _cmd_transform(args, digits: int) -> None:
    model = mo.get_model(args.model)
    z = _finite_z(args.z) if args.z is not None else _z_alpha(args.alpha)
    # every level in (0, 0.5) has a finite exponent: only --z can fail
    t = mo.power_transform(_exponent(model, "optimal", z, "--z"))
    psi, dpsi = t.psi(args.rho), t.dpsi(args.rho)
    print(f"psi({_fmt(args.rho, digits)}) = {_fmt(psi, digits)}")
    print(f"psi'({_fmt(args.rho, digits)}) = {_fmt(dpsi, digits)}")


def _cmd_delta(args, digits: int) -> None:
    model = mo.get_model(args.model)
    p = _exponent(model, args.transform, args.z_ref, "--z-ref")
    closed = mo.delta_closed(model, args.transform, _finite_z(args.z),
                             args.rho, args.z_ref)
    t = mo.power_transform(p)
    generic = pe.delta_psi(model.moments, t, args.rho, args.z)
    print(f"closed-form:      {_fmt(closed, digits)}")
    print(f"generic pipeline: {_fmt(generic, digits)}")


def _cmd_ranges(args, digits: int) -> None:
    model = mo.get_model(args.model)
    interval = mo.dominance_range(model, args.alpha, args.vs)
    print(f"({interval.lo:.5f}, {interval.hi:.5f})")


def _cmd_exact(args, digits: int) -> None:
    t = mo.transform_for(mo.SQUAREV, args.transform, _z_alpha(args.alpha))
    prob = mo.squarev_exact_rejection(args.rho, args.n, t, args.alpha)
    eps = prob / args.alpha - 1.0
    print(f"rejection probability = {_fmt(prob, digits)}")
    print(f"relative error eps    = {_fmt(eps, digits)}")


def _cmd_simulate(args, digits: int) -> None:
    path = Path(args.config)
    if not path.is_file():
        raise ValueError(f"config file not found: {path}")
    try:
        grid, output_path, fmt = read_config(path)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad config: {exc}")
    # the rows go to a temporary file in the output's directory, renamed
    # onto the output once complete, so no run leaves a half-written file;
    # creating it first finds a missing or unwritable directory before sampling
    out = Path(output_path)
    if out.is_dir():
        raise ValueError(f"output_path is a directory: {out}")
    tmp = out.with_name(f".{out.name}.{os.getpid()}.tmp")
    try:
        tmp.touch()
    except OSError as exc:
        raise ValueError(f"cannot write {out}: {exc.strerror}")
    try:
        rows = []
        for (kind, alpha, rho, n), cell in sorted(mc.run_grid(grid).items()):
            hat_mean = math.fsum(cell.alpha_hats) / len(cell.alpha_hats)
            rows.append({
                "model": grid.model, "transform": kind, "alpha": alpha,
                "rho": rho, "n": n, "N": grid.N, "K": grid.K,
                "seed": grid.master_seed, "eps_mean": repr(cell.eps_mean),
                "eps_sd": repr(cell.eps_sd), "eps_se": repr(cell.eps_se),
                "alpha_hat_mean": repr(hat_mean),
            })
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            if fmt == "csv":
                writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
                writer.writeheader()
                writer.writerows(rows)
            else:
                json.dump(rows, fh, indent=2)
        os.replace(tmp, out)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    print(f"wrote {len(rows)} rows to {out}")


def _read_table(path: Path) -> list[tuple]:
    """(transform, alpha, rho, n, eps_mean, eps_se, row) per row as read."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = json.load(fh) if path.suffix == ".json" else list(
            csv.DictReader(fh))
    if not (isinstance(rows, list) and all(isinstance(r, dict) for r in rows)):
        raise ValueError("a JSON table must be a list of objects")
    # int() parses CSV text, but would cut a JSON 10.7 to 10 and read true as 1
    if not all(isinstance(r["n"], str) or pe.is_integer(r["n"]) for r in rows):
        raise ValueError("n must be an integer")
    return [(str(r["transform"]), float(r["alpha"]), float(r["rho"]),
             int(r["n"]), float(r["eps_mean"]), float(r["eps_se"]), r)
            for r in rows]


def _cmd_table(args, digits: int) -> None:
    path = Path(args.input)
    if not path.is_file():
        raise ValueError(f"input file not found: {path}")
    try:
        rows = _read_table(path)
    except (ValueError, TypeError, csv.Error) as exc:
        raise ValueError(f"bad table: {exc}")
    except KeyError as exc:
        raise ValueError(f"bad table: missing column {exc}")
    if args.plot_data:
        # (n, eps * sqrt(n)) series, one per (transform, alpha, rho)
        print("transform,alpha,rho,n,eps_sqrt_n")
        for kind, _, _, n, eps, _, r in sorted(rows, key=lambda r: r[:4]):
            print(f"{kind},{r['alpha']},{r['rho']},{n},"
                  f"{_fmt(eps * math.sqrt(n), digits)}")
        return
    transforms = sorted({r[0] for r in rows})
    by_cell = {r[:4]: r for r in rows}
    print(f"{'alpha':>6} {'rho':>5} {'n':>7}"
          + "".join(f"  {kind:>24}" for kind in transforms))
    for alpha, rho, n in sorted({r[1:4] for r in rows}):
        cells = (by_cell.get((kind, alpha, rho, n)) for kind in transforms)
        entries = (f"{_fmt(r[4], digits)} +/- {_fmt(r[5], digits)}" if r
                   else "-" for r in cells)
        print(f"{alpha:>6g} {rho:>5g} {n:>7d}"
              + "".join(f"  {entry:>24}" for entry in entries))


_COMMANDS = {
    "transform": _cmd_transform,
    "delta": _cmd_delta,
    "ranges": _cmd_ranges,
    "exact": _cmd_exact,
    "simulate": _cmd_simulate,
    "table": _cmd_table,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        _COMMANDS[args.command](args, args.digits)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
