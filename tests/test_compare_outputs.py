"""The artifact comparator (``compare_outputs.py``) on tiny runs and planted changes."""

import json
import shutil
from pathlib import Path

import pytest

from compare_outputs import compare_dirs, format_report, main as compare_main
from mfgp_search.cli import main as cli_main

REPO = Path(__file__).resolve().parent.parent
TINY = ["--set", "domain.resolution=6", "--set", "mission.max_epochs=2"]
BENCH = ["--set", "bench.seeds=2", "--set", "bench.samples=5"]


def _run(out: Path, command="run", config="planted") -> Path:
    extra = BENCH if command == "bench" else []
    cfg = str(REPO / "configs" / f"{config}.cfg")
    assert cli_main([command, "--config", cfg, *TINY, *extra, "--out", str(out)]) in (0, 2)
    return out


@pytest.fixture(scope="module")
def pair(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    return _run(root / "a"), _run(root / "b")


def _edited_copy(src: Path, dst: Path, name: str, edit) -> Path:
    shutil.copytree(src, dst)
    (dst / name).write_text(edit((dst / name).read_text()))
    return dst


def _by_name(diffs):
    return {d.name: d for d in diffs}


def test_two_runs_of_one_config_are_identical(pair):
    diffs = compare_dirs(*pair)
    assert {d.name for d in diffs} >= {"tours.csv", "plans.csv", "report.json", "occupancy.pgm"}
    for d in diffs:
        assert d.identical or d.name == "manifest.json", d
        assert d.within(0.0)
    assert compare_main([str(p) for p in pair]) == 0


def test_two_bench_runs_are_identical(tmp_path):
    a, b = (_run(tmp_path / s, "bench", "desk") for s in "ab")
    diffs = compare_dirs(a, b)
    assert {d.name for d in diffs} == {"decay.csv", "detection_time.csv", "manifest.json"}
    assert all(d.identical for d in diffs if d.name != "manifest.json")


def test_a_reversed_tour_is_a_decision_change(pair, tmp_path):
    def reverse_first_tour(text):
        header, *rows = text.splitlines()
        first = [r for r in rows if r.startswith("1,")]
        rest = rows[len(first) :]
        cells = [r.split(",")[2:5] for r in first][::-1]
        flipped = [",".join([*r.split(",")[:2], *c, r.split(",")[5]]) for r, c in zip(first, cells)]
        return "\n".join([header, *flipped, *rest]) + "\n"

    mutant = _edited_copy(pair[0], tmp_path / "m", "tours.csv", reverse_first_tour)
    tours = _by_name(compare_dirs(pair[0], mutant))["tours.csv"]
    assert not tours.identical and {"x", "y"} <= set(tours.changed)
    assert tours.floats["time"] == (0.0, 0.0)
    assert compare_main([str(pair[0]), str(mutant), "--tol", "1"]) == 1


def test_a_flipped_label_is_a_decision_change(pair, tmp_path):
    def flip_one_label(text):
        report = json.loads(text)
        report["cells"]["label"][0] = 1 - report["cells"]["label"][0]
        return json.dumps(report)

    mutant = _edited_copy(pair[0], tmp_path / "m", "report.json", flip_one_label)
    report = _by_name(compare_dirs(pair[0], mutant))["report.json"]
    assert report.changed == ["cells.label"]
    assert all(scaled == 0.0 for scaled, _ in report.floats.values())
    assert "CHANGED: cells.label" in format_report([report])


def test_a_float_move_is_reported_with_its_size(pair, tmp_path):
    def move_the_largest_value(text):
        header, *rows = text.splitlines()
        values = [float(r.split(",")[2]) for r in rows]
        i = max(range(len(values)), key=lambda k: abs(values[k]))
        x, y, _ = rows[i].split(",")
        rows[i] = f"{x},{y},{values[i] * (1 + 1e-9):.17g}"
        return "\n".join([header, *rows]) + "\n"

    mutant = _edited_copy(pair[0], tmp_path / "m", "mean.csv", move_the_largest_value)
    mean = _by_name(compare_dirs(pair[0], mutant))["mean.csv"]
    assert not mean.identical and mean.changed == []
    column, scaled, relative = mean.largest()
    assert column == "value"
    assert scaled == pytest.approx(1e-9, rel=1e-6) and relative == pytest.approx(1e-9, rel=1e-6)
    assert mean.within(1e-8) and not mean.within(1e-10)
    args = [str(pair[0]), str(mutant)]
    assert compare_main(args) == 1
    assert compare_main([*args, "--tol", "mean.csv=1e-8"]) == 0


def test_a_file_on_one_side_only_is_a_decision_change(pair, tmp_path):
    mutant = shutil.copytree(pair[0], tmp_path / "m")
    (mutant / "decay.csv").unlink()
    assert _by_name(compare_dirs(pair[0], mutant))["decay.csv"].changed == ["only in A"]
