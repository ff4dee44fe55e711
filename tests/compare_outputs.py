"""Compare two output directories of ``mfgp-search run`` or ``bench``.

    python tests/compare_outputs.py DIR_A DIR_B [--tol X] [--tol ARTIFACT=X ...]

For every artifact it reports whether the bytes are identical, whether the
decisions are identical, and for each float column the largest |Δ| over the
column's largest |value| ("scaled") and the largest |Δ| / max(|a|, |b|) of
one entry ("relative").

Decisions are compared exactly: the waypoints of ``tours.csv``, the cells
and levels of ``plans.csv``, the labels and classification epochs of
``occupancy.csv`` and ``occupancy.pgm``, and ``report.json``'s
``terminated``, ``n_total``, labels and classification epochs.  So is any
text column, any row or column that only one side has, and a file that
only one side has.  Every other number of the CSV files, of ``samples.log``
(its ``key=value`` fields) and of ``report.json`` (a column per key path;
a list's entries share its column, and a list of rows gets one column per
position) is a float column.  ``manifest.json`` names its own directory,
and the truth ``.pgm`` files are renderings of the truth CSVs, so both are
compared by their bytes alone.

Exit status 0 when no decision differs and every float column's scaled move
is within the stated tolerance (``--tol``, per artifact or for all; 0 by
default), else 1.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

# per artifact, the columns that are decisions rather than computed floats
DECISIONS = {
    "tours.csv": {"epoch", "order", "x", "y", "z"},
    "plans.csv": {"epoch", "order", "x", "y", "fidelity"},
    "occupancy.csv": {"x", "y", "label", "epoch"},
    "report.json": {"terminated", "n_total", "cells.label", "cells.epoch"},
}
WHOLE_FILE_DECISIONS = {"occupancy.pgm"}
BYTES_ONLY = {"manifest.json"}


@dataclass
class ArtifactDiff:
    name: str
    identical: bool  # the bytes are equal
    changed: list[str] = field(default_factory=list)  # decisions that differ
    # float column -> (largest |Δ| / largest |value|, largest relative |Δ|)
    floats: dict[str, tuple[float, float]] = field(default_factory=dict)

    def largest(self) -> tuple[str, float, float] | None:
        """The float column with the largest scaled move, or None when there is none."""
        if not self.floats:
            return None
        column = max(self.floats, key=lambda c: self.floats[c])
        return (column, *self.floats[column])

    def within(self, tol: float = 0.0) -> bool:
        return not self.changed and all(scaled <= tol for scaled, _ in self.floats.values())


def _csv_columns(text: str) -> dict[str, list]:
    header, *rows = csv.reader(text.splitlines())
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"ragged CSV rows under {header}")
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _log_columns(text: str) -> dict[str, list]:
    columns: dict[str, list] = {}
    for line in text.splitlines():
        for token in line.split()[1:]:
            key, value = token.split("=", 1)
            columns.setdefault(key, []).append(value)
    return columns


def _json_columns(text: str) -> dict[str, list]:
    columns: dict[str, list] = {}

    def walk(obj, path):
        if isinstance(obj, dict):
            for key, value in obj.items():
                walk(value, f"{path}.{key}" if path else key)
        elif isinstance(obj, list):
            for value in obj:
                if isinstance(value, list):  # a row: one column per position
                    for j, x in enumerate(value):
                        walk(x, f"{path}[{j}]")
                else:
                    walk(value, path)
        else:
            columns.setdefault(path, []).append(obj)

    walk(json.loads(text), "")
    return columns


def _numbers(values) -> list[float] | None:
    """The values as floats, or None if any of them is not a number."""
    out = []
    for v in values:
        if isinstance(v, bool) or v is None:
            return None
        try:
            out.append(float(v))
        except (TypeError, ValueError):
            return None
    return out


def _float_move(a: list[float], b: list[float]) -> tuple[float, float]:
    """(largest |Δ| / largest |value|, largest relative |Δ|) of two equal-length columns."""
    scale = max((abs(x) for x in a + b if math.isfinite(x)), default=0.0)
    delta = relative = 0.0
    for x, y in zip(a, b):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        if not (math.isfinite(x) and math.isfinite(y)):
            return math.inf, math.inf
        delta = max(delta, abs(x - y))
        relative = max(relative, abs(x - y) / max(abs(x), abs(y)))
    return (delta / scale if delta else 0.0), relative


def _columns(name: str, text: str) -> dict[str, list]:
    if name.endswith(".csv"):
        return _csv_columns(text)
    if name.endswith(".json"):
        return _json_columns(text)
    if name.endswith(".log"):
        return _log_columns(text)
    raise ValueError(f"no column reader for {name}")


def compare_artifact(name: str, a: bytes, b: bytes) -> ArtifactDiff:
    diff = ArtifactDiff(name, a == b)
    if diff.identical or name in BYTES_ONLY or name.endswith(".pgm"):
        if not diff.identical and name in WHOLE_FILE_DECISIONS:
            diff.changed.append("the file")
        return diff
    cols_a, cols_b = _columns(name, a.decode()), _columns(name, b.decode())
    decisions = DECISIONS.get(name, set())
    for column in sorted(cols_a.keys() | cols_b.keys()):
        if column not in cols_a or column not in cols_b:
            diff.changed.append(f"{column} (only on one side)")
            continue
        va, vb = cols_a[column], cols_b[column]
        if len(va) != len(vb):
            diff.changed.append(f"{column} ({len(va)} vs {len(vb)} rows)")
            continue
        fa, fb = _numbers(va), _numbers(vb)
        if column in decisions or fa is None or fb is None:
            if va != vb:
                diff.changed.append(column)
        else:
            diff.floats[column] = _float_move(fa, fb)
    return diff


def compare_dirs(dir_a, dir_b) -> list[ArtifactDiff]:
    """One ``ArtifactDiff`` per file name found in either directory, in name order."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    names = sorted({p.name for d in (dir_a, dir_b) for p in d.iterdir() if p.is_file()})
    diffs = []
    for name in names:
        pa, pb = dir_a / name, dir_b / name
        if pa.is_file() and pb.is_file():
            diffs.append(compare_artifact(name, pa.read_bytes(), pb.read_bytes()))
        else:
            side = "A" if pa.is_file() else "B"
            diffs.append(ArtifactDiff(name, False, [f"only in {side}"]))
    return diffs


def format_report(diffs: list[ArtifactDiff]) -> str:
    head = "largest float move (scaled, relative, column)"
    lines = [f"{'artifact':<22}{'bytes':<11}{'decisions':<11}{head}"]
    for d in diffs:
        decisions = "CHANGED: " + ", ".join(d.changed) if d.changed else "same"
        top = d.largest()
        move = f"{top[1]:.3g}  {top[2]:.3g}  {top[0]}" if top else "-"
        same = "identical" if d.identical else "differ"
        lines.append(f"{d.name:<22}{same:<11}{decisions:<11}{move}")
    return "\n".join(lines)


def _tolerances(specs: list[str]) -> dict[str, float]:
    """``--tol`` values: ``X`` for every artifact, ``NAME=X`` for one ("" keys the default)."""
    tolerances = {"": 0.0}
    for spec in specs:
        name, _, value = spec.rpartition("=")
        tolerances[name] = float(value)
    return tolerances


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a")
    parser.add_argument("dir_b")
    parser.add_argument("--tol", action="append", default=[], metavar="[ARTIFACT=]X")
    args = parser.parse_args(argv)
    tolerances = _tolerances(args.tol)
    diffs = compare_dirs(args.dir_a, args.dir_b)
    print(format_report(diffs))
    ok = all(d.within(tolerances.get(d.name, tolerances[""])) for d in diffs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
