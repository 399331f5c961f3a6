"""Command-line front end: simulate | density | support | verify | chars.

Configuration is a flat ``key = value`` text file; every key has a CLI flag
of the same name which takes precedence.  Exit codes: 0 success, 1 a
verification check failed, 2 bad configuration, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import lattice, limit, spectral, verify
from .model import CoinParameters, Model, ParameterDomainError, build_model

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_IO = 3


class ConfigError(Exception):
    pass


class OutputError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Everything a subcommand needs, resolved from defaults, file, and flags."""

    a1_sq: float = 0.9
    a2_sq: float = 0.1
    alpha1: float = 0.0
    alpha2: float = 0.0
    beta1: float = 0.0
    beta2: float = 0.0
    delta1: float = 0.0
    delta2: float = 0.0
    psi1_re: float = 1.0
    psi1_im: float = 0.0
    psi2_re: float = 0.0
    psi2_im: float = 0.0
    steps: int = 100
    grid_n: int = 200
    seed: int = 0
    out: str | None = None


_FLOAT_KEYS = ("a1_sq", "a2_sq", "alpha1", "alpha2", "beta1", "beta2",
               "delta1", "delta2", "psi1_re", "psi1_im", "psi2_re", "psi2_im")
_INT_KEYS = ("steps", "grid_n", "seed")

_KEY_HELP = {
    "a1_sq": "squared modulus of the first coin's upper-left entry, in (0, 1)",
    "a2_sq": "squared modulus of the second coin's upper-left entry, in (0, 1)",
    "alpha1": "phase of the first coin's diagonal entry (radians)",
    "alpha2": "phase of the second coin's diagonal entry (radians)",
    "beta1": "phase of the first coin's off-diagonal entry (radians)",
    "beta2": "phase of the second coin's off-diagonal entry (radians)",
    "delta1": "global phase of the first coin (radians)",
    "delta2": "global phase of the second coin (radians)",
    "psi1_re": "real part of the first spinor component at the origin",
    "psi1_im": "imaginary part of the first spinor component",
    "psi2_re": "real part of the second spinor component",
    "psi2_im": "imaginary part of the second spinor component",
    "steps": "number of walk steps (simulate, chars)",
    "grid_n": "points per axis for grids and quadratures",
    "seed": "seed for every sampled verification check",
    "out": "output directory (must already exist)",
}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def parse_config_file(path: str) -> dict:
    """Read a flat key = value file; '#' starts a comment."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, value = line.partition("=")
        else:
            parts = line.split(None, 1)
            if len(parts) != 2:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = parts
        key = key.strip()
        value = value.strip()
        if key in _FLOAT_KEYS:
            try:
                values[key] = float(value)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: {key} needs a number, got {value!r}")
        elif key in _INT_KEYS:
            try:
                values[key] = int(value)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: {key} needs an integer, got {value!r}")
        elif key == "out":
            values[key] = value
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then config file, then explicit flags."""
    cfg = RunConfig()
    if args.config is not None:
        cfg = replace(cfg, **parse_config_file(args.config))
    overrides = {}
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            overrides[f.name] = value
    return replace(cfg, **overrides)


def model_from(cfg: RunConfig) -> Model:
    try:
        params = CoinParameters.from_squared_moduli(
            cfg.a1_sq, cfg.a2_sq, alpha1=cfg.alpha1, alpha2=cfg.alpha2,
            beta1=cfg.beta1, beta2=cfg.beta2, delta1=cfg.delta1, delta2=cfg.delta2)
        return build_model(params)
    except ParameterDomainError as exc:
        raise ConfigError(str(exc)) from exc


def spinor_from(cfg: RunConfig) -> np.ndarray:
    spinor = np.array([cfg.psi1_re + 1j * cfg.psi1_im,
                       cfg.psi2_re + 1j * cfg.psi2_im])
    parts = spinor.view(np.float64)  # re, im, re, im
    if not np.all(np.isfinite(parts)):
        raise ConfigError(f"initial spinor must be finite, got {spinor}")
    largest = float(np.max(np.abs(parts)))
    if largest == 0.0:
        raise ConfigError("initial spinor must be nonzero")
    # an exact power-of-two prescale keeps the norm from overflowing or underflowing
    spinor = np.ldexp(parts, -math.frexp(largest)[1]).view(np.complex128)
    return spinor / math.sqrt(float(np.sum(np.abs(spinor) ** 2)))


def _out_dir(cfg: RunConfig) -> Path:
    if cfg.out is None:
        raise ConfigError("an output directory is required (--out DIR)")
    path = Path(cfg.out)
    if not path.is_dir():
        raise OutputError(f"output directory does not exist: {cfg.out}")
    return path


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg: RunConfig) -> int:
    if cfg.steps < 0:
        raise ConfigError(f"steps must be nonnegative, got {cfg.steps}")
    out = _out_dir(cfg)
    model = model_from(cfg)
    state = lattice.initial_state_delta(spinor_from(cfg))
    final = lattice.evolve(model, state, cfg.steps)
    dist = lattice.position_distribution(final)
    csv_path = out / "distribution.csv"
    lattice.write_distribution_csv(dist, csv_path)
    summary = {
        "time": cfg.steps,
        "total_probability": dist.total(),
        "sites": int(np.count_nonzero(dist.probs)),
    }
    if cfg.steps >= 1:
        mom = lattice.moments(dist)
        summary["mean_velocity"] = [float(v) for v in mom.mean]
        summary["second_moments"] = [[float(v) for v in row] for row in mom.second]
    else:
        summary["mean_velocity"] = None
        summary["second_moments"] = None
    json_path = out / "moments.json"
    json_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n",
                         encoding="ascii")
    print(csv_path)
    print(json_path)
    return EXIT_OK


def _write_boundary_csv(model: Model, path: Path, n: int) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("v1,v2\n")
        for v1, v2 in limit.support_boundary(model, n):
            fh.write(f"{_fmt(v1)},{_fmt(v2)}\n")


def cmd_density(cfg: RunConfig) -> int:
    if cfg.grid_n < 1:
        raise ConfigError(f"grid_n must be positive, got {cfg.grid_n}")
    out = _out_dir(cfg)
    model = model_from(cfg)
    spectrum = spectral.fourier_initial(lattice.initial_state_delta(spinor_from(cfg)))
    n = cfg.grid_n
    mid = -1.0 + (2.0 * np.arange(n) + 1.0) / n  # cell midpoints of [-1, 1]
    grid = limit.density_grid(model, spectrum, mid[:, None], mid[None, :])
    csv_path = out / "density.csv"
    labels = [_fmt(x) for x in mid]
    with open(csv_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("v1,v2,f,inside\n")
        for i in range(n):
            fh.write("".join([
                f"{labels[i]},{label},{_fmt(f)},{int(inside)}\n"
                for label, f, inside in zip(labels, grid.f[i].tolist(), grid.inside[i].tolist())
            ]))
    boundary_path = out / "boundary.csv"
    _write_boundary_csv(model, boundary_path, max(cfg.grid_n, 64))
    print(csv_path)
    print(boundary_path)
    return EXIT_OK


def cmd_support(cfg: RunConfig) -> int:
    if cfg.grid_n < 3:
        raise ConfigError(f"grid_n must be at least 3 for a polyline, got {cfg.grid_n}")
    out = _out_dir(cfg)
    model = model_from(cfg)
    boundary_path = out / "boundary.csv"
    _write_boundary_csv(model, boundary_path, cfg.grid_n)
    corners_path = out / "corners.csv"
    with open(corners_path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("v1,v2\n")
        for v1, v2 in limit.support_corners(model):
            fh.write(f"{_fmt(v1)},{_fmt(v2)}\n")
    d = model.derived
    constants = {
        "a": d.a, "b": d.b, "delta": d.delta,
        "D_J": d.D_J, "j_plus": d.j_plus, "j_minus": d.j_minus,
        "axis_R1": d.axis_R1, "axis_R2": d.axis_R2,
        "axis_T1": d.axis_T1, "axis_T2": d.axis_T2,
        "phi_1": d.phi_1, "phi_2": d.phi_2,
        "degenerate": d.degenerate,
    }
    json_path = out / "constants.json"
    json_path.write_text(json.dumps(constants, sort_keys=True, indent=2) + "\n",
                         encoding="ascii")
    print(boundary_path)
    print(corners_path)
    print(json_path)
    return EXIT_OK


def _parse_tolerances(pairs) -> dict:
    tols = {}
    for item in pairs or ():
        name, sep, value = item.partition("=")
        if not sep:
            raise ConfigError(f"--tolerance expects NAME=VALUE, got {item!r}")
        try:
            tols[name.strip()] = float(value)
        except ValueError:
            raise ConfigError(f"--tolerance {name}: not a number: {value!r}")
    return tols


def cmd_verify(cfg: RunConfig, only, tolerance_pairs) -> int:
    model = model_from(cfg)
    tols = _parse_tolerances(tolerance_pairs)
    out = _out_dir(cfg) if cfg.out is not None else None
    try:
        reports = verify.run_suite(model, spinor_from(cfg), seed=cfg.seed,
                                   only=only or None, tolerances=tols or None)
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from exc
    print(verify.summary_table(reports))
    if out is not None:
        path = out / "reports.jsonl"
        verify.write_reports(reports, path)
        print(path)
    failed = [r.name for r in reports if not r.passed]
    if failed:
        print("FAILED: " + ", ".join(failed), file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _parse_xi(items) -> list[tuple[float, float]]:
    if not items:
        return [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    out = []
    for item in items:
        parts = item.split(",")
        if len(parts) != 2:
            raise ConfigError(f"--xi expects X1,X2 got {item!r}")
        try:
            out.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ConfigError(f"--xi components must be numbers: {item!r}")
    return out


def cmd_chars(cfg: RunConfig, xi_items) -> int:
    if cfg.steps < 1:
        raise ConfigError(f"steps must be at least 1, got {cfg.steps}")
    xi_list = _parse_xi(xi_items)
    for xi in xi_list:
        if max(abs(xi[0]), abs(xi[1])) > 3.0:
            raise ConfigError(f"|xi| <= 3 per component, got {xi}")
    out = _out_dir(cfg) if cfg.out is not None else None
    model = model_from(cfg)
    state0 = lattice.initial_state_delta(spinor_from(cfg))
    rows, mass = verify.char_triples(model, state0, cfg.steps, xi_list,
                                     grid_n=min(cfg.grid_n, 256))
    header = f"{'xi':>12}  {'empirical':>24}  {'spectral':>24}  {'density':>24}  {'max gap':>10}"
    print(header)
    lines = []
    for (xi, emp, spe, den) in rows:
        gap = max(abs(emp - spe), abs(emp - den), abs(spe - den))
        label = f"({xi[0]:g},{xi[1]:g})"
        print(f"{label:>12}  {emp.real:+.5f}{emp.imag:+.5f}j       "
              f"{spe.real:+.5f}{spe.imag:+.5f}j       "
              f"{den.real:+.5f}{den.imag:+.5f}j       {gap:10.3e}")
        lines.append((xi, emp, spe, den, gap))
    if out is not None:
        path = out / "chars.csv"
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("xi1,xi2,empirical_re,empirical_im,spectral_re,spectral_im,"
                     "density_re,density_im,max_gap\n")
            for (xi, emp, spe, den, gap) in lines:
                fh.write(",".join([
                    _fmt(xi[0]), _fmt(xi[1]),
                    _fmt(emp.real), _fmt(emp.imag),
                    _fmt(spe.real), _fmt(spe.imag),
                    _fmt(den.real), _fmt(den.imag),
                    _fmt(gap)]) + "\n")
        print(path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group(
        "configuration",
        "every option below is also a valid key in the --config file; "
        "flags override file values")
    group.add_argument("--config", metavar="PATH", help="flat key = value config file")
    for key in _FLOAT_KEYS:
        group.add_argument(f"--{key}", type=float, metavar="X", help=_KEY_HELP[key])
    group.add_argument("--steps", type=int, metavar="N", help=_KEY_HELP["steps"])
    group.add_argument("--grid_n", "--grid", dest="grid_n", type=int, metavar="N",
                       help=_KEY_HELP["grid_n"])
    group.add_argument("--seed", type=int, metavar="N", help=_KEY_HELP["seed"])
    group.add_argument("--out", metavar="DIR", help=_KEY_HELP["out"])

    parser = argparse.ArgumentParser(
        prog="altwalk",
        description="Alternate-coin quantum walk on the plane: exact simulation "
                    "and the long-time velocity density.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", parents=[common],
                   help="run the walk and write the position distribution")
    sub.add_parser("density", parents=[common],
                   help="evaluate the limit density on a velocity grid")
    sub.add_parser("support", parents=[common],
                   help="write the support boundary, corners, and derived constants")
    p_verify = sub.add_parser("verify", parents=[common],
                              help="run the cross-validation suite")
    p_verify.add_argument("--only", action="append", metavar="CHECK",
                          help="restrict to one check (repeatable); one of: "
                               + ", ".join(verify.CHECK_NAMES))
    p_verify.add_argument("--tolerance", action="append", metavar="NAME=VALUE",
                          help="override a report tolerance (repeatable)")
    p_chars = sub.add_parser("chars", parents=[common],
                             help="characteristic function three ways per xi")
    p_chars.add_argument("--xi", action="append", metavar="X1,X2",
                         help="evaluation point (repeatable); default four standard points")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "density":
            return cmd_density(cfg)
        if args.command == "support":
            return cmd_support(cfg)
        if args.command == "verify":
            return cmd_verify(cfg, args.only, args.tolerance)
        if args.command == "chars":
            return cmd_chars(cfg, args.xi)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
