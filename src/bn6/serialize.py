"""Deterministic artifact writers: CSV/JSON with provenance, atomic renames.

Numbers in CSV cells are printed with %.17g so that doubles round-trip
exactly; JSON numbers use Python's shortest round-trip representation.
A table is a float array of rows (a sequence of equal-width tuples is
read as one); its CSV text is formatted a block of CSV_BLOCK_ROWS rows at
a time, so that no per-row object is alive while the text is built.  Artifacts are written as UTF-8 with "\n" newlines,
whatever the locale.
Every artifact opens with the resolved configuration and the package
version, so a file is traceable to the run that produced it without any
timestamps (identical configuration must give identical bytes).

A JSON artifact is its report dataclass, recorded by `record`: the keys
are the field names, except that `lam0` is written as "lambda0", and a
field declared `field(repr=False)` (a profile, a branch point) is left
out.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import fields, is_dataclass

import numpy as np

from . import __version__
from .errors import ConfigError

# rows per `%` operation of csv_text: a block's cells are its only float
# objects, and the block texts are the only copy of the table beside the
# joined artifact
CSV_BLOCK_ROWS = 512


def fmt(x) -> str:
    """One CSV cell: %.17g for floats, plain text otherwise."""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def provenance_dict(config: dict | None) -> dict:
    return {"version": __version__,
            "config": {} if config is None else dict(config)}


def _provenance_lines(config: dict | None) -> list[str]:
    lines = [f"# bn6 {__version__}"]
    for key in sorted(config or {}):
        lines.append(f"# {key} = {fmt(config[key])}")
    return lines


def write_atomic(path: str, text: str) -> None:
    """Write text to path as UTF-8 via a same-directory temp file and
    rename.  The artifact is one str, whose encoded length is the byte
    count the benchmark's tracer records.  A path whose directory cannot
    be made or written, or that names a directory, raises ConfigError
    naming it, and leaves no temp file."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise ConfigError(f"cannot write {path!r}: {exc}") from exc
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _table_cells(header: str, rows) -> np.ndarray:
    """rows (a float array or a sequence of equal-width tuples) as a
    float array with one column per header name; a row of another width
    is refused."""
    ncols = header.count(",") + 1
    cells = np.asarray(rows, dtype=float)
    if cells.shape == (0,):
        cells = cells.reshape(0, ncols)
    if cells.ndim != 2 or cells.shape[1] != ncols:
        raise ValueError(f"row width {cells.shape[-1]} != header width "
                         f"{ncols}")
    return cells


def csv_text(header: str, rows, config: dict | None = None) -> str:
    """CSV with provenance comment lines above the exact pinned header.
    Every cell is a float, printed as fmt prints it, by one `%` per block
    of CSV_BLOCK_ROWS rows."""
    cells = _table_cells(header, rows)
    row_format = ",".join(["%.17g"] * cells.shape[1]) + "\n"
    parts = ["\n".join(_provenance_lines(config) + [header, ""])]
    for start in range(0, len(cells), CSV_BLOCK_ROWS):
        block = cells[start:start + CSV_BLOCK_ROWS]
        parts.append(row_format * len(block) % tuple(block.ravel().tolist()))
    return "".join(parts)


# field name -> artifact key, wherever the field appears
_KEYS = {"lam0": "lambda0"}


def record(obj):
    """A report as its artifact: a dataclass becomes a dict of its repr
    fields under their artifact keys, a tuple a list, each recorded in
    turn; anything else is written as it is."""
    if is_dataclass(obj):
        return {_KEYS.get(f.name, f.name): record(getattr(obj, f.name))
                for f in fields(obj) if f.repr}
    if isinstance(obj, tuple):
        return [record(item) for item in obj]
    return obj


def _sanitize(obj):
    """Non-finite floats become strings; JSON has no tokens for them."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def json_text(payload: dict, config: dict | None = None) -> str:
    doc = {"provenance": provenance_dict(config)}
    doc.update(payload)
    return json.dumps(_sanitize(doc), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def radial_fn_rows(fn) -> np.ndarray:
    """A profile's table: one (r, value, derivative) row per node."""
    return np.column_stack((fn.grid.nodes, fn.values, fn.derivative))


def branch_rows(branch):
    return [(float(p.amplitude), float(p.lam), float(p.residual))
            for p in branch.points]


def branch_point_dict(point) -> dict:
    return {"N": point.dimension, "lambda": point.lam,
            "amplitude": point.amplitude, "nodal_count": point.nodal_count,
            "residual": point.residual, "grid_n": point.grid_n}


def expansion_rows(report):
    return [(row.eps, row.mu, row.j_ansatz, row.j_base,
             row.e_pred, row.residual_l32) for row in report.rows]


def rows_as_json(header: str, rows) -> list[dict]:
    """The same table a CSV would hold, as a list of objects."""
    names = header.split(",")
    return [dict(zip(names, row))
            for row in _table_cells(header, rows).tolist()]
