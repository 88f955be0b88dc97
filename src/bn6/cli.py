"""Batch front-end: one subcommand per operation, reproducible artifacts.

Every run resolves a flat configuration (defaults, then `key = value`
lines from --config, then command-line flags), executes one operation,
and writes CSV/JSON files into the output directory.  The resolved
configuration and the package version are embedded in every artifact;
no timestamps or machine identifiers, so identical configuration gives
byte-identical output.

Exit codes: 0 success, 2 solver failure, 3 configuration error (which
includes an input a solver rejects as a precondition, a ValueError).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

# the layers are lazy (bn6/__init__.py): each runs when a command reads it
from . import (
    DEFAULT_L_MAX,
    MIN_TAIL_POINTS,
    auxiliary,
    bubbles,
    continuation,
    reduction,
)
from .errors import BN6Error, ConfigError
from .grid import MIN_CELLS
from .serialize import (
    branch_point_dict,
    branch_rows,
    csv_text,
    expansion_rows,
    json_text,
    radial_fn_rows,
    record,
    rows_as_json,
    write_atomic,
)
from .shooting import find_lambda0, solve_bvp

COMMANDS = ("ground-state", "branch", "lambda0", "aux-solve", "nondeg",
            "ansatz-check", "expansion-check", "limits", "constants")

PROFILE_HEADER = "r,value,derivative"
BRANCH_HEADER = "amplitude,lambda,residual"
EXPANSION_HEADER = "eps,mu_bar,J_quad,c0_quad,E_pred,residual_L32"
ANSATZ_HEADER = "eps,mu_bar,residual_L32"


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters; every field has a documented default.

    dimension        space dimension N (>= 3, default 6)
    grid_n           grid cells (>= 16); None defers to each solver's default
    lam              fixed lambda for ground-state (no default: required
                     there), optional center value lam for constants;
                     finite
    m                nodal region count (>= 1, default 1)
    a_start, a_end   amplitude window for branch/limits, finite with
                     0 < a_start < a_end; a_end None means the dimension
                     default of trace_branch
    eps_grid         "start:ratio:count" magnitudes (count >= 2, ratio
                     != 1, each >= 1e-11); None means the module default
    lmax             angular sectors scanned by nondeg (>= 0, default 24)
    fit_min_points   tail length used by limits (default and minimum 8)
    out              output directory (default $BN6_OUT, else ".")
    format           "csv" or "json"; table artifacts with a pinned CSV
                     header are always written as CSV, and "json" adds a
                     row-objects twin
    """

    dimension: int = 6
    grid_n: int | None = None
    lam: float | None = None
    m: int = 1
    a_start: float = 1.0
    a_end: float | None = None
    eps_grid: str | None = None
    lmax: int = DEFAULT_L_MAX
    fit_min_points: int = MIN_TAIL_POINTS
    out: str | None = None
    format: str = "csv"

    def resolved_out(self) -> str:
        if self.out is not None:
            return self.out
        return os.environ.get("BN6_OUT", ".")

    def as_provenance(self, command: str) -> dict:
        doc = {"command": command}
        for f in fields(self):
            value = getattr(self, f.name)
            doc[f.name] = value if value is not None else "default"
        # the path as its bytes read in UTF-8, whatever the locale decoded
        doc["out"] = os.fsencode(self.resolved_out()).decode(
            "utf-8", "surrogateescape")
        return doc


_FIELD_TYPES = {
    "dimension": int, "grid_n": int, "lam": float, "m": int,
    "a_start": float, "a_end": float, "eps_grid": str,
    "lmax": int, "fit_min_points": int, "out": str, "format": str,
}
_KEY_ALIASES = {"n": "dimension", "lambda": "lam"}


def _coerce(key: str, raw: str):
    key = _KEY_ALIASES.get(key, key)
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        value = _FIELD_TYPES[key](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc
    if key == "format" and value not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {value!r}")
    return key, value


def parse_config_file(path: str) -> dict:
    """Flat `key = value` lines of UTF-8 text; blank lines and # comments
    ignored.  An `out` value names the path whose bytes are its UTF-8
    encoding, which is what --out names under any locale."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    out = {}
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, raw = (part.strip() for part in body.split("=", 1))
        key, value = _coerce(key.replace("-", "_").lower(), raw)
        if key == "out":
            value = os.fsdecode(value.encode("utf-8"))
        out[key] = value
    return out


def parse_eps_grid(spec: str | None):
    """Magnitude schedule "start:ratio:count" -> tuple of floats; at least
    two distinct magnitudes, so that a rate can be fitted, each finite and
    >= 1e-11.

    The floor: mu >= |eps|/40 (tau multiplier >= 0.6, tau* = 0.0441);
    _mu_refined_edges merges edges within reduction.EDGE_MERGE_TOL = 1e-14
    and refuses mu/16 <= EDGE_MERGE_TOL (UnderResolvedError), so the core
    is resolved only while |eps| > 6.4e-12.  The ceiling is the
    reduction's: it refuses a rate mu >= 0.5 (ConfigError) before the
    eps table of that magnitude is built."""
    if spec is None:
        return None
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--eps-grid must be start:ratio:count, "
                          f"got {spec!r}")
    try:
        start, ratio, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad --eps-grid {spec!r}") from exc
    if not (0.0 < start < math.inf and 0.0 < ratio < math.inf
            and ratio != 1.0 and count >= 2):
        raise ConfigError(f"--eps-grid needs finite start > 0, finite "
                          f"ratio > 0 and != 1, count >= 2, got {spec!r}")
    magnitudes = []
    for k in range(count):
        try:
            magnitude = start * ratio ** k
        except OverflowError:
            magnitude = math.inf
        if not 1e-11 <= magnitude < math.inf:
            raise ConfigError(f"--eps-grid magnitude {k} of {spec!r} is "
                              f"{magnitude}, not finite and >= 1e-11")
        magnitudes.append(magnitude)
    return tuple(magnitudes)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors as ConfigError (exit 3)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH")
    common.add_argument("--N", type=int, dest="dimension")
    common.add_argument("--lambda", type=float, dest="lam")
    common.add_argument("--m", type=int)
    common.add_argument("--grid-n", type=int, dest="grid_n")
    common.add_argument("--out", metavar="DIR")
    common.add_argument("--format", choices=("csv", "json"))
    common.add_argument("--eps-grid", metavar="START:RATIO:COUNT",
                        dest="eps_grid")
    common.add_argument("--lmax", type=int)
    parser = _Parser(prog="bn6", description=__doc__.split("\n", 1)[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config is not None:
        cfg = replace(cfg, **parse_config_file(args.config))
    flags = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
    cfg = replace(cfg, **{key: value for key, value in flags.items()
                          if value is not None})
    # reject what a solver would refuse only after the solves before it
    if cfg.fit_min_points < MIN_TAIL_POINTS:
        raise ConfigError(f"fit_min_points must be >= {MIN_TAIL_POINTS}, "
                          f"got {cfg.fit_min_points}")
    if cfg.grid_n is not None and cfg.grid_n < MIN_CELLS:
        raise ConfigError(f"--grid-n (grid_n) must be >= {MIN_CELLS}, "
                          f"got {cfg.grid_n}")
    if cfg.lmax < 0:
        raise ConfigError(f"--lmax (lmax) must be >= 0, got {cfg.lmax}")
    if cfg.m < 1:
        raise ConfigError(f"--m (m) must be >= 1, got {cfg.m}")
    if cfg.dimension < 3:
        raise ConfigError(f"--N (dimension) must be >= 3, "
                          f"got {cfg.dimension}")
    if cfg.lam is not None and not math.isfinite(cfg.lam):
        raise ConfigError(f"--lambda (lam) must be finite, got {cfg.lam}")
    if not (math.isfinite(cfg.a_start) and cfg.a_start > 0.0):
        raise ConfigError(f"a_start must be finite and > 0, "
                          f"got {cfg.a_start}")
    if cfg.a_end is not None and not (math.isfinite(cfg.a_end)
                                      and cfg.a_end > cfg.a_start):
        raise ConfigError(f"a_end must be finite and > a_start "
                          f"({cfg.a_start}), got {cfg.a_end}")
    return cfg


def _write_table(cfg: RunConfig, prov: dict, stem: str, header: str,
                 rows, pinned_csv: bool = True) -> None:
    """CSV (always, when the header is a pinned interface) and, under
    --format json, a row-objects twin; rows is read once for each, so it
    is an array or a sequence, not an iterator."""
    if pinned_csv or cfg.format == "csv":
        write_atomic(os.path.join(cfg.resolved_out(), stem + ".csv"),
                     csv_text(header, rows, prov))
    if cfg.format == "json":
        _write_json(cfg, prov, stem + ".rows.json",
                    {"rows": rows_as_json(header, rows)})


def _write_json(cfg: RunConfig, prov: dict, name: str, payload: dict) -> None:
    write_atomic(os.path.join(cfg.resolved_out(), name),
                 json_text(payload, prov))


def _require_lambda(cfg: RunConfig) -> float:
    if cfg.lam is None:
        raise ConfigError("this command requires --lambda")
    return cfg.lam


def cmd_constants(cfg: RunConfig, prov: dict) -> None:
    lam = find_lambda0(cfg.dimension).lam0 if cfg.lam is None else cfg.lam
    _write_json(cfg, prov, "constants.json", record(bubbles.constants(0.5 * lam)))


def cmd_ground_state(cfg: RunConfig, prov: dict) -> None:
    lam = _require_lambda(cfg)
    point = solve_bvp(cfg.dimension, lam, cfg.m,
                      **({} if cfg.grid_n is None
                         else {"grid_n": cfg.grid_n}))
    _write_json(cfg, prov, "ground_state.json", branch_point_dict(point))
    _write_table(cfg, prov, "ground_state_profile", PROFILE_HEADER,
                 radial_fn_rows(point.profile))


def cmd_lambda0(cfg: RunConfig, prov: dict) -> None:
    cert = find_lambda0(cfg.dimension,
                        **({} if cfg.grid_n is None
                           else {"grid_n": cfg.grid_n}))
    _write_json(cfg, prov, "lambda0.json",
                {**record(cert),
                 "branch_point": branch_point_dict(cert.branch)})
    _write_table(cfg, prov, "lambda0_profile", PROFILE_HEADER,
                 radial_fn_rows(cert.branch.profile))


def _trace(cfg: RunConfig):
    return continuation.trace_branch(cfg.dimension, cfg.m,
                                     a_start=cfg.a_start, a_end=cfg.a_end)


def cmd_branch(cfg: RunConfig, prov: dict) -> None:
    branch = _trace(cfg)
    stem = f"branch_N{cfg.dimension}_m{cfg.m}"
    _write_table(cfg, prov, stem, BRANCH_HEADER, branch_rows(branch))
    _write_json(cfg, prov, stem + ".json",
                {"points": [branch_point_dict(p) for p in branch.points],
                 "diagnostics": [list(d) for d in branch.diagnostics]})


def cmd_limits(cfg: RunConfig, prov: dict) -> None:
    branch = _trace(cfg)
    estimate = continuation.extract_limit(branch,
                                          tail_length=cfg.fit_min_points)
    stem = f"limits_N{cfg.dimension}_m{cfg.m}"
    _write_table(cfg, prov, stem + "_branch", BRANCH_HEADER,
                 branch_rows(branch))
    _write_json(cfg, prov, stem + ".json", record(estimate))


def cmd_aux_solve(cfg: RunConfig, prov: dict) -> None:
    cert = find_lambda0(cfg.dimension)
    fields = auxiliary.build_profiles(cert)
    tables = fields.tabulate(**({} if cfg.grid_n is None
                                else {"grid_n": cfg.grid_n}))
    for name, fn in zip(("u0", "v", "w"), tables):
        _write_table(cfg, prov, f"aux_{name}", PROFILE_HEADER,
                     radial_fn_rows(fn))
    _, v0, w0 = fields.origin()
    _write_json(cfg, prov, "aux.json",
                {"dimension": cert.dimension, "lambda0": cert.lam0,
                 "amplitude": cert.amplitude, "v0": v0, "w0": w0})


def cmd_nondeg(cfg: RunConfig, prov: dict) -> None:
    cert = find_lambda0(cfg.dimension)
    u0, v, w = auxiliary.build_profiles(cert).tabulate(
        **({} if cfg.grid_n is None else {"grid_n": cfg.grid_n}))
    report = auxiliary.essential_nondegeneracy(cert, u0, v, l_max=cfg.lmax)
    _write_json(cfg, prov, "nondeg.json", record(report))
    _write_table(cfg, prov, "nondeg_v", PROFILE_HEADER, radial_fn_rows(v))
    _write_table(cfg, prov, "nondeg_w", PROFILE_HEADER, radial_fn_rows(w))


def cmd_ansatz_check(cfg: RunConfig, prov: dict) -> None:
    magnitudes = (parse_eps_grid(cfg.eps_grid)
                  or reduction.DEFAULT_EPS_MAGNITUDES)
    fields = auxiliary.build_profiles(find_lambda0(cfg.dimension))
    sign, tau = reduction.case1_parameters(fields)
    rows = []
    for mag in magnitudes:
        eps, mu = sign * mag, tau * mag
        rows.append((eps, mu, reduction.residual_norm(fields, eps, mu)))
    _write_table(cfg, prov, "ansatz_check", ANSATZ_HEADER, rows,
                 pinned_csv=False)
    mu = np.array([row[1] for row in rows])
    res = np.array([row[2] for row in rows])
    exponent = float(np.polyfit(np.log(mu), np.log(res), 1)[0])
    _write_json(cfg, prov, "ansatz_check.json",
                {"tau_star": tau, "eps_sign": sign,
                 "residual_exponent": exponent,
                 "rows": rows_as_json(ANSATZ_HEADER, rows)})


def cmd_expansion_check(cfg: RunConfig, prov: dict) -> None:
    magnitudes = parse_eps_grid(cfg.eps_grid)
    least = reduction.MIN_EPS_MAGNITUDES
    if magnitudes is not None and len(magnitudes) < least:
        raise ConfigError(f"expansion-check needs --eps-grid count >= "
                          f"{least}, got {cfg.eps_grid!r}")
    fields = auxiliary.build_profiles(find_lambda0(cfg.dimension))
    report = reduction.expansion_check(fields,
                                       **({} if magnitudes is None
                                          else {"eps_magnitudes": magnitudes}))
    _write_table(cfg, prov, "expansion_check", EXPANSION_HEADER,
                 expansion_rows(report))
    _write_json(cfg, prov, "expansion_fit.json", record(report))


_DISPATCH = {
    "constants": cmd_constants,
    "ground-state": cmd_ground_state,
    "lambda0": cmd_lambda0,
    "branch": cmd_branch,
    "limits": cmd_limits,
    "aux-solve": cmd_aux_solve,
    "nondeg": cmd_nondeg,
    "ansatz-check": cmd_ansatz_check,
    "expansion-check": cmd_expansion_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            raise ConfigError("a command is required")
        cfg = resolve_config(args)
        prov = cfg.as_provenance(args.command)
        _DISPATCH[args.command](cfg, prov)
    except (ConfigError, ValueError) as exc:
        print(f"bn6: config error: {exc}", file=sys.stderr)
        return 3
    except BN6Error as exc:
        print(f"bn6: solver failure: {exc.__class__.__name__}: {exc}",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
