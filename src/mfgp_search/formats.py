"""Diff-stable artifact writers: fixed 17-significant-digit numbers everywhere.

Each artifact is written with one %-template: every CSV column, and every
flat number list of a JSON document, takes one conversion from the types of
its values (``%.17g`` for floats, ``%d`` for integers, ``%s`` for text), and
the template is applied once to all of the file's values.  The text is the
text ``fmt`` gives each number; ``fmt`` itself prints the scalars and
booleans of JSON and the values ``validate`` lists.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path

from ._np import np
from .config import GridDomain


def fmt(value) -> str:
    """Canonical text for a number: 17 significant digits for floats.  A
    plain bool, int or float is printed without naming numpy, so printing
    one (as ``validate`` does) loads none."""
    if not isinstance(value, (bool, int, float)):
        if not isinstance(value, (np.bool_, np.integer, np.floating)):
            raise TypeError(f"not a number: {value!r}")
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(int(value))
    return format(float(value), ".17g")


def _spec(values) -> str | None:
    """The %-conversion that prints every one of values as ``fmt`` does:
    ``%.17g`` if all are floats, ``%d`` if all are integers (not booleans),
    otherwise None."""
    kinds = set(map(type, values))
    if all(issubclass(k, (float, np.floating)) for k in kinds):
        return "%.17g"
    if all(issubclass(k, (int, np.integer)) and k is not bool for k in kinds):
        return "%d"
    return None


def _json_spec(values) -> str | None:
    """``_spec`` of values bound for JSON, which has no inf or NaN (``dump_json``)."""
    spec = _spec(values)
    if spec == "%.17g" and not all(map(math.isfinite, values)):
        bad = next(v for v in values if not math.isfinite(v))
        raise ValueError(f"float {fmt(bad)} is not JSON compliant: JSON has no inf or NaN")
    return spec


def dump_json(obj) -> str:
    """Serialize to JSON with fixed float formatting and stable key order; an
    inf or NaN float raises ValueError, as ``json.dumps(..., allow_nan=False)`` does."""
    return _json_value(obj, indent=0) + "\n"


def _json_value(obj, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        _json_spec((obj,))
        return fmt(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {_json_value(v, indent + 1)}" for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        spec = _json_spec(seq)
        if spec is not None:
            return ("[" + ", ".join([spec] * len(seq)) + "]") % tuple(seq)
        if all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq):
            return "[" + ", ".join(_json_value(v, indent + 1) for v in seq) + "]"
        rows = all(isinstance(v, (list, tuple, np.ndarray)) for v in seq)
        if rows and len(set(map(len, seq))) == 1:
            specs = [_json_spec(column) for column in zip(*seq)]
            if None not in specs:
                row = inner + "[" + ", ".join(specs) + "]"
                body = ",\n".join([row] * len(seq)) % tuple(chain.from_iterable(seq))
                return "[\n" + body + "\n" + pad + "]"
        items = [f"{inner}{_json_value(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)}")


def write_csv(path, header: list[str], rows):
    """CSV with canonical numeric formatting; strings pass through.

    Every row has one value per header column.  A column holds floats,
    integers or strings, one kind per column; a column that mixes kinds or
    holds anything else (a bool, say) raises TypeError.
    """
    rows = list(rows)
    width = len(header)
    flat = list(chain.from_iterable(rows))
    if len(flat) != width * len(rows):
        raise ValueError(f"every row needs {width} values, one per header column")
    specs = []
    for c, name in enumerate(header):
        column = flat[c::width]
        spec = _spec(column)
        if spec is None:
            if not all(isinstance(v, str) for v in column):
                raise TypeError(f"column {name!r} mixes kinds or holds a non-number")
            spec = "%s"
        specs.append(spec)
    body = (",".join(specs) + "\n") * len(rows) % tuple(flat)
    Path(path).write_text(",".join(header) + "\n" + body)


def _per_cell(domain: GridDomain, values, name: str) -> np.ndarray:
    """``values`` as an array, or a ValueError that calls them ``name``
    unless they hold one value per cell of ``domain``."""
    values = np.asarray(values)
    if values.shape != (domain.n_cells,):
        raise ValueError(
            f"{name} must hold one value per cell: shape ({domain.n_cells},), got {values.shape}"
        )
    return values


def write_grid_csv(path, domain: GridDomain, **columns):
    """Row-major per-cell rows: the cell centre's x, y and then one column
    per keyword, named by it and holding one value per cell."""
    centers = domain.cell_centers
    values = [centers[:, 0].tolist(), centers[:, 1].tolist()]
    values += [_per_cell(domain, v, f"column {k!r}").tolist() for k, v in columns.items()]
    write_csv(path, ["x", "y", *columns], zip(*values))


def write_pgm(path, domain: GridDomain, values, lo: float | None = None, hi: float | None = None):
    """ASCII PGM (P2) of one value per cell, row-major, linearly scaled to [0, 255]."""
    grid = _per_cell(domain, values, "values").astype(float)
    grid = grid.reshape(domain.resolution, domain.resolution)
    lo = float(np.min(grid)) if lo is None else lo
    hi = float(np.max(grid)) if hi is None else hi
    if hi <= lo:
        scaled = np.zeros_like(grid, dtype=int)
    else:
        scaled = np.clip(np.rint((grid - lo) / (hi - lo) * 255.0), 0, 255).astype(int)
    h, w = scaled.shape
    lines = ["P2", f"{w} {h}", "255"]
    lines.extend(" ".join(str(v) for v in row) for row in scaled)
    Path(path).write_text("\n".join(lines) + "\n")
