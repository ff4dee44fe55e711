"""Smoke test of the benchmark itself, on tiny grids (about a minute).

    python3 perfbench/smoke.py

Run from the repository root.  It checks that a run emits every metric
named in BENCHMARK.json with its unit, traced and untraced, on each kind of
workload; that a corrupted artifact trips a check; that an invalid config is
counted as a failed attempt instead of crashing the harness; and that the
harness refuses to run in a directory holding only the benchmark.  Exits 0
when all hold.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

ROOT = Path.cwd()
SCRATCH = ROOT / ".perfbench_out" / "smoke"
TINY = ("domain.resolution=6", "mission.max_epochs=2")


def tiny(name: str, **changes) -> bench.Workload:
    w = bench.WORKLOADS[name]
    sets = TINY + tuple(s for s in w.sets if not s.startswith(("domain.", "mission.")))
    if w.command == "bench":
        sets += ("bench.seeds=2", "bench.samples=5")
    return dataclasses.replace(w, name=f"smoke-{name}", sets=sets, **changes)


def check_metrics() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name, changes in (("desk", {"cases": 2}), ("planted-r30", {}), ("study", {})):
        for trace in (False, True):
            w = tiny(name, **changes)
            result = bench.run_workload(w, seed=3, seconds=0, trace=trace, root=ROOT)
            if not result["correct"]:
                problems.append(f"{w.name} trace={trace}: {result['errors']}")
                continue
            declared = spec["per_layer" if trace else "end_to_end"]
            got = bench.emitted(result, declared)
            for m in declared:
                entry = got.get(m["name"])
                if entry is None or entry["unit"] != m["unit"] or not math.isfinite(entry["value"]):
                    problems.append(f"{w.name} trace={trace}: {m['name']} missing or bad: {entry}")
    return problems


def launch(w: bench.Workload, out: Path) -> list[dict]:
    """One traced process with its artifacts kept; returns its missions."""
    spans = out.parent / f"{out.name}.spans.json"
    argv = [sys.executable, str(bench.LAUNCH), "--spans", str(spans), "--"]
    argv += [w.command, "--config", w.config, *bench._sets(w), "--out", str(out)]
    subprocess.run(argv, cwd=ROOT, env=bench.bench_env(ROOT), capture_output=True, check=False)
    return [s["attrs"] for s in json.loads(spans.read_text())["spans"] if s["name"] == "mission.run_mission"]


def _edit(path: Path, fn):
    path.write_text(fn(path.read_text()))


def _negate_last(text: str) -> str:
    lines = text.splitlines()
    x, y, value = lines[-1].split(",")
    lines[-1] = f"{x},{y},-{value}"
    return "\n".join(lines) + "\n"


def _bump_first_mean(text: str) -> str:
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[3] = repr(float(cells[3]) + 1.0)
    lines[1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def check_corruption() -> list[str]:
    """Each corruption must trip at least one check on an otherwise good run."""
    problems = []
    corruptions = {
        "smoke-desk": {
            "tours.csv row dropped": ("tours.csv", lambda t: "\n".join(t.splitlines()[:-1]) + "\n"),
            "negative variance": ("variance.csv", _negate_last),
            "report schema changed": ("report.json", lambda t: t.replace('"schema_version": 1', '"schema_version": 9')),
            "report truncated": ("report.json", lambda t: t[: len(t) // 2]),
            "samples.log line added": ("samples.log", lambda t: t + t.splitlines()[0] + "\n"),
        },
        "smoke-study": {
            "detection_time.csv row dropped": ("detection_time.csv", lambda t: "\n".join(t.splitlines()[:-1]) + "\n"),
            "detection time changed": ("detection_time.csv", _bump_first_mean),
        },
    }
    for w in (tiny("desk"), tiny("study")):
        pristine = SCRATCH / f"{w.name}-pristine"
        missions = launch(w, pristine)
        clean = bench.check_artifacts(w, pristine, missions)
        if clean:
            problems.append(f"{w.name}: pristine artifacts fail: {clean}")
        for label, (name, fn) in corruptions[w.name].items():
            broken = SCRATCH / f"{w.name}-broken"
            shutil.rmtree(broken, ignore_errors=True)
            shutil.copytree(pristine, broken)
            _edit(broken / name, fn)
            if not bench.check_artifacts(w, broken, missions):
                problems.append(f"{w.name}: '{label}' was not caught")
    return problems


def check_invalid_config() -> list[str]:
    w = tiny("desk", cases=1)
    w = dataclasses.replace(w, name="smoke-invalid", sets=w.sets + ("mission.delta=0.7",))
    result = bench.run_workload(w, seed=0, seconds=0, trace=False, root=ROOT)
    if result["correct"] or result["failed"] < 1 or bench.emitted(result, [{"name": "run_s", "unit": "s"}]):
        return [f"invalid config was not counted as failed: {result['failed']}/{result['attempted']}"]
    return []


def check_bare_directory() -> list[str]:
    bare = SCRATCH / "bare"
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "0", "--seconds", "1", "--trace", "0"]
    got = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=170)
    if got.returncode == 0 or '"correct"' in got.stdout:
        return [f"bare directory run exited {got.returncode} with output {got.stdout[-200:]!r}"]
    return []


def check_seeds() -> list[str]:
    problems = []
    for w in bench.WORKLOADS.values():
        if bench.case_args(w, 4, 0) != bench.case_args(w, 4, 0):
            problems.append(f"{w.name}: the same seed gave different inputs")
        if bench.case_args(w, 4, 0) == bench.case_args(w, 5, 0):
            problems.append(f"{w.name}: seeds 4 and 5 gave the same inputs")
    return problems


def main() -> int:
    shutil.rmtree(SCRATCH, ignore_errors=True)
    (SCRATCH / "bare").mkdir(parents=True)
    problems = []
    for check in (check_seeds, check_metrics, check_corruption, check_invalid_config, check_bare_directory):
        found = check()
        print(f"{check.__name__}: {'ok' if not found else 'FAILED'}")
        problems += found
    for p in problems:
        print(f"  {p}")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    for leftover in (ROOT / ".perfbench_out").glob("smoke-*"):
        shutil.rmtree(leftover)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
