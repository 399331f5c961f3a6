"""Command-line front end: simulate | density | support | verify | chars.

Configuration is one table, the fields of ``RunConfig``: each key's default,
help text and the subcommands that read it.  A flat ``key = value`` file may
set any key; a subcommand takes a flag for each key it reads, which overrides
the file, and refuses the others.  Exit codes: 0 success, 1 a verification
check failed, 2 bad configuration (a coin outside its domain included) or a
size that cannot be allocated, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import lattice, limit, spectral, verify
from .model import Model, ParameterDomainError

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_IO = 3


class ConfigError(Exception):
    pass


_EVERY = ("simulate", "density", "support", "verify", "chars")
_WALKS = ("simulate", "density", "verify", "chars")  # the subcommands that read the spinor


def _key(default, text: str, commands=_EVERY, aliases=()):
    """A configuration key: its default, its help text and the subcommands taking its flag."""
    return field(default=default,
                 metadata={"help": text, "commands": commands, "aliases": aliases})


@dataclass(frozen=True)
class RunConfig:
    """Everything a subcommand needs, resolved from defaults, file, and flags.

    A key's type is its default's type; ``out`` is a path string.
    """

    a1_sq: float = _key(0.9, "squared modulus of the first coin's upper-left entry, in (0, 1)")
    a2_sq: float = _key(0.1, "squared modulus of the second coin's upper-left entry, in (0, 1)")
    alpha1: float = _key(0.0, "phase of the first coin's diagonal entry (radians)")
    alpha2: float = _key(0.0, "phase of the second coin's diagonal entry (radians)")
    beta1: float = _key(0.0, "phase of the first coin's off-diagonal entry (radians)")
    beta2: float = _key(0.0, "phase of the second coin's off-diagonal entry (radians)")
    delta1: float = _key(0.0, "global phase of the first coin (radians)")
    delta2: float = _key(0.0, "global phase of the second coin (radians)")
    psi1_re: float = _key(1.0, "real part of the first spinor component at the origin", _WALKS)
    psi1_im: float = _key(0.0, "imaginary part of the first spinor component", _WALKS)
    psi2_re: float = _key(0.0, "real part of the second spinor component", _WALKS)
    psi2_im: float = _key(0.0, "imaginary part of the second spinor component", _WALKS)
    steps: int = _key(100, "number of walk steps", ("simulate", "chars"))
    grid_n: int = _key(200, "points per axis of the velocity grid (density), boundary "
                            "polyline (support) or quadrature (chars)",
                       ("density", "support", "chars"), aliases=("--grid",))
    seed: int = _key(0, "seed for every sampled verification check", ("verify",))
    out: str | None = _key(None, "output directory (must already exist)")


# the flag's metavar and the config-file error phrase of each key type
_KINDS = {float: ("X", "a number"), int: ("N", "an integer"), str: ("DIR", None)}


def _kind(key) -> type:
    return str if key.default is None else type(key.default)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def parse_config_file(path: str) -> dict:
    """Read a flat key = value file; '#' starts a comment."""
    keys = {key.name: key for key in fields(RunConfig)}
    values: dict[str, object] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        kind = _kind(keys[key])
        try:
            values[key] = kind(value)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: {key} needs {_KINDS[kind][1]}, got {value!r}")
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
    return Model(cfg.a1_sq, cfg.a2_sq, alpha1=cfg.alpha1, alpha2=cfg.alpha2,
                 beta1=cfg.beta1, beta2=cfg.beta2, delta1=cfg.delta1, delta2=cfg.delta2)


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
    if not cfg.out:  # an empty path would mean the working directory
        raise ConfigError(f"an output directory is required (--out DIR), got {cfg.out!r}")
    path = Path(cfg.out)
    if not path.is_dir():
        raise OSError(f"output directory does not exist: {cfg.out}")
    return path


# ---------------------------------------------------------------------------
# subcommands


def _write_csv(path: Path, header: str, rows) -> None:
    """A header line, then one line of comma-joined ``_fmt`` values per row."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="ascii")


def cmd_simulate(cfg: RunConfig, args: argparse.Namespace) -> int:
    if cfg.steps < 0:
        raise ConfigError(f"steps must be nonnegative, got {cfg.steps}")
    out = _out_dir(cfg)
    model, start = model_from(cfg), lattice.initial_state_delta(spinor_from(cfg))
    # the walk's buffer is freed once squared, before ``moments`` builds the dense window
    dist = lattice.position_distribution(lattice.evolve(model, start, cfg.steps))
    csv_path = out / "distribution.csv"
    lattice.write_distribution_csv(dist, csv_path)
    mom = lattice.moments(dist) if cfg.steps >= 1 else None
    summary = {
        "time": cfg.steps,
        "total_probability": dist.total(),
        "sites": sum(int(np.count_nonzero(probs)) for _, _, probs in dist.classes),
        "mean_velocity": None if mom is None else mom.mean.tolist(),
        "second_moments": None if mom is None else mom.second.tolist(),
    }
    json_path = out / "moments.json"
    _write_json(json_path, summary)
    print(csv_path)
    print(json_path)
    return EXIT_OK


def _write_density_csv(path: Path, mid, f, inside) -> None:
    """Rows v1,v2,f,inside over the grid mid x mid, v1 outer, f and inside (n, n).

    Most cells lie outside the support and print as ``,0,0``.  Each row starts
    from those tails, puts a ``%.17g`` template in the cells that differ (f
    nonzero or -0.0, or inside), joins the tails with the row's v1 label and
    fills the templates with the row's f values by ``%``.
    """
    labels = [_fmt(x) for x in mid]
    blank = [f",{label},0,0\n" for label in labels]
    cells = ([f",{label},%.17g,0\n" for label in labels],
             [f",{label},%.17g,1\n" for label in labels])
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("v1,v2,f,inside\n")
        for label, f_row, in_row in zip(labels, f, inside):
            tails = blank.copy()
            js = np.flatnonzero((f_row != 0.0) | in_row | np.signbit(f_row))
            for j, in_j in zip(js.tolist(), in_row[js].tolist()):
                tails[j] = cells[in_j][j]
            fh.write((label + label.join(tails)) % tuple(f_row[js].tolist()))


def cmd_density(cfg: RunConfig, args: argparse.Namespace) -> int:
    if cfg.grid_n < 1:
        raise ConfigError(f"grid_n must be positive, got {cfg.grid_n}")
    out = _out_dir(cfg)
    model = model_from(cfg)
    spectrum = spectral.fourier_initial(lattice.initial_state_delta(spinor_from(cfg)))
    n = cfg.grid_n
    mid = -1.0 + (2.0 * np.arange(n) + 1.0) / n  # cell midpoints of [-1, 1]
    grid = limit.density_grid(model, spectrum, mid[:, None], mid[None, :])
    csv_path = out / "density.csv"
    _write_density_csv(csv_path, mid, grid.f, grid.inside)
    boundary_path = out / "boundary.csv"
    _write_csv(boundary_path, "v1,v2", limit.support_boundary(model, max(cfg.grid_n, 64)))
    print(csv_path)
    print(boundary_path)
    return EXIT_OK


def cmd_support(cfg: RunConfig, args: argparse.Namespace) -> int:
    if cfg.grid_n < 3:
        raise ConfigError(f"grid_n must be at least 3 for a polyline, got {cfg.grid_n}")
    out = _out_dir(cfg)
    model = model_from(cfg)
    boundary_path = out / "boundary.csv"
    _write_csv(boundary_path, "v1,v2", limit.support_boundary(model, cfg.grid_n))
    corners_path = out / "corners.csv"
    _write_csv(corners_path, "v1,v2", limit.support_corners(model))
    json_path = out / "constants.json"
    _write_json(json_path, asdict(model.derived))
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
            tol = float(value)
        except ValueError:
            raise ConfigError(f"--tolerance {name}: not a number: {value!r}")
        if not tol >= 0.0:  # also rejects nan
            raise ConfigError(f"--tolerance {name}: must be >= 0, got {value!r}")
        tols[name.strip()] = tol
    return tols


def cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> int:
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    model = model_from(cfg)
    tols = _parse_tolerances(args.tolerance)
    out = _out_dir(cfg) if cfg.out is not None else None
    try:
        reports = verify.run_suite(model, spinor_from(cfg), seed=cfg.seed,
                                   only=args.only or None, tolerances=tols or None)
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
        return list(verify.STANDARD_XI)
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


def cmd_chars(cfg: RunConfig, args: argparse.Namespace) -> int:
    if cfg.steps < 1:
        raise ConfigError(f"steps must be at least 1, got {cfg.steps}")
    if cfg.grid_n < 1:
        raise ConfigError(f"grid_n must be positive, got {cfg.grid_n}")
    xi_list = _parse_xi(args.xi)
    for xi in xi_list:
        if not all(abs(x) <= 3.0 for x in xi):  # also rejects nan
            raise ConfigError(f"|xi| <= 3 per component, got {xi}")
    out = _out_dir(cfg) if cfg.out is not None else None
    model = model_from(cfg)
    state0 = lattice.initial_state_delta(spinor_from(cfg))
    chars, _ = verify.char_triples(model, state0, cfg.steps, xi_list, grid_n=cfg.grid_n)
    print(f"{'xi':>12}  {'empirical':>24}  {'spectral':>24}  {'density':>24}  {'max gap':>10}")
    rows = []
    for xi, emp, spe, den, gap in chars:
        label = f"({xi[0]:g},{xi[1]:g})"
        print(f"{label:>12}  {emp.real:+.5f}{emp.imag:+.5f}j       "
              f"{spe.real:+.5f}{spe.imag:+.5f}j       "
              f"{den.real:+.5f}{den.imag:+.5f}j       {gap:10.3e}")
        rows.append((*xi, emp.real, emp.imag, spe.real, spe.imag, den.real, den.imag, gap))
    if out is not None:
        path = out / "chars.csv"
        _write_csv(path, "xi1,xi2,empirical_re,empirical_im,spectral_re,spectral_im,"
                         "density_re,density_im,max_gap", rows)
        print(path)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


_COMMANDS = {
    "simulate": (cmd_simulate, "run the walk and write the position distribution"),
    "density": (cmd_density, "evaluate the limit density on a velocity grid"),
    "support": (cmd_support, "write the support boundary, corners, and derived constants"),
    "verify": (cmd_verify, "run the cross-validation suite"),
    "chars": (cmd_chars, "characteristic function three ways per xi"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altwalk",
        description="Alternate-coin quantum walk on the plane: exact simulation "
                    "and the long-time velocity density.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (run, text) in _COMMANDS.items():
        commands[name] = sub.add_parser(name, help=text)
        commands[name].set_defaults(run=run, parser=commands[name])
        group = commands[name].add_argument_group(
            "configuration",
            "every option below is also a valid key in the --config file; "
            "flags override file values")
        group.add_argument("--config", metavar="PATH", help="flat key = value config file")
        for key in fields(RunConfig):
            if name in key.metadata["commands"]:
                kind = _kind(key)
                group.add_argument(f"--{key.name}", *key.metadata["aliases"], dest=key.name,
                                   type=kind, metavar=_KINDS[kind][0], help=key.metadata["help"])
    commands["verify"].add_argument("--only", action="append", metavar="CHECK",
                                    help="restrict to one check (repeatable); one of: "
                                         + ", ".join(verify.CHECK_NAMES))
    commands["verify"].add_argument("--tolerance", action="append", metavar="NAME=VALUE",
                                    help="override a report tolerance (repeatable)")
    commands["chars"].add_argument("--xi", action="append", metavar="X1,X2",
                                   help="evaluation point (repeatable); "
                                        "default four standard points")
    return parser


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:  # reported by the subcommand's parser, so its usage line is the one shown
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.run(resolve_config(args), args)
    except (ConfigError, ParameterDomainError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
