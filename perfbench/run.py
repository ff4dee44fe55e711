"""Benchmark of the mfgp-search CLI: end-to-end wall time, search quality and
per-layer spans on three fixed workloads.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 36 --trace 0

Run from the repository root.  Every measured command is a fresh
``mfgp-search`` process (``perfbench/launch.py``, the console script plus
timing wrappers) with 1-thread BLAS.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics of BENCHMARK.json with ``--trace 0`` and its per-layer
metrics with ``--trace 1``.  A result file with the environment, every
sample and every check lands in ``.perfbench_out/``.  See
``perfbench/README.md`` for the workloads and what each metric is for.
"""

import argparse
import csv
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

LAUNCH = Path(__file__).resolve().parent / "launch.py"

SETUP_REPEATS = 7  # at least; one more comes with each measured case
# A run must end within 180 s: a process still running at this many seconds
# after the run started is killed and counted as failed.
RUN_LIMIT_S = 170.0
REPORT_SCHEMA = 1
# report.json of configs/desk.cfg, seed 0, OPENBLAS_NUM_THREADS=1 (ROADMAP pin).
DESK_REPORT_PIN = "8bdc5e617f5153107b66404aaa761aa2c2d2c8ca492396294886cc751b11a364"
# Where a moved start may sit: desk.cfg's floor, at its level-1 altitude.
START_RANGE = (0.0, 20.0)
START_Z = 8.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # mfgp-search subcommand: "run" or "bench"
    config: str
    sets: tuple[str, ...]
    expect_exit: int
    cases: int  # distinct inputs measured in one benchmark run
    vary: str  # what --seed changes: "start" position or mission "seed"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk", "run", "configs/desk.cfg", (), expect_exit=2, cases=3, vary="start"),
        Workload(
            "planted-r30",
            "run",
            "configs/planted.cfg",
            ("domain.resolution=30", "mission.max_epochs=18"),
            expect_exit=2,
            cases=1,
            vary="seed",
        ),
        Workload(
            "study", "bench", "configs/desk.cfg", ("bench.seeds=6",), expect_exit=0, cases=1, vary="start"
        ),
    )
}


def case_args(w: Workload, seed: int, case: int) -> list[str]:
    """CLI arguments that make case ``case`` of benchmark seed ``seed``.

    A prior-draw mission seed draws a new floor, and the work of a mission
    changes several-fold from floor to floor, so on those workloads the seed
    moves the vehicle's start instead: the floor stays, and the tours and
    the noise each sample meets change.  Seed 0, case 0 is the config as
    written.  On planted floors the seed is the mission seed.
    """
    if w.vary == "seed":
        return ["--seed", str(seed * w.cases + case)]
    if seed == 0 and case == 0:
        return []
    rng = random.Random(f"{seed}/{case}")
    x, y = (round(rng.uniform(*START_RANGE), 3) for _ in range(2))
    return [
        "--set", f"mission.start_x={x}",
        "--set", f"mission.start_y={y}",
        "--set", f"mission.start_z={START_Z}",
    ]


def bench_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(root / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        MFGP_SEARCH_THREADS=str(min(2, len(os.sched_getaffinity(0)))),
    )
    return env


def environment(root: Path, env: dict) -> dict:
    """Machine and toolchain record, stored with every result."""
    import importlib.metadata as md

    record = {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "threads": {k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MFGP_SEARCH_THREADS")},
        "commit": None,
    }
    for pkg in ("numpy", "scipy"):
        try:
            record[pkg] = md.version(pkg)
        except md.PackageNotFoundError:
            record[pkg] = None
    try:
        import numpy

        record["openblas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (ImportError, KeyError, TypeError):
        record["openblas"] = None
    if (root / ".git").exists():
        try:
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
            record["commit"] = got.stdout.strip() or None
        except OSError:
            pass
    return record


def run_process(argv: list[str], root: Path, env: dict, log_dir: Path, timeout: float):
    """Run to exit, killing it after ``timeout`` s; return (exit code, wall s, peak RSS MB)."""
    with open(log_dir / "stdout", "wb") as out, open(log_dir / "stderr", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdout=out, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


# ---------------------------------------------------------------- checks


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_run_dir(out: Path, missions: list[dict]) -> list[str]:
    """Checks on the artifacts of ``mfgp-search run``."""
    errors = []
    report = json.loads((out / "report.json").read_text())
    n = report["n_total"]
    if report["schema_version"] != REPORT_SCHEMA:
        errors.append(f"report.json schema {report['schema_version']!r}, expected {REPORT_SCHEMA}")
    for name in ("plans.csv", "tours.csv"):
        rows = len(_csv_rows(out / name))
        if rows != n:
            errors.append(f"{name} has {rows} rows, n_total is {n}")
    lines = len((out / "samples.log").read_text().splitlines())
    if lines != n:
        errors.append(f"samples.log has {lines} lines, n_total is {n}")
    bad = [r for r in _csv_rows(out / "variance.csv") if not float(r["value"]) >= 0.0]
    if bad:
        errors.append(f"variance.csv has {len(bad)} entries that are negative or NaN")
    if len(missions) != 1:
        errors.append(f"expected one mission in the process, saw {len(missions)}")
    else:
        m = missions[0]
        got = (n, report["clock_total"], report["classified_fraction"], report["misclassification"]["errors"])
        want = (m["n"], m["clock_total"], m["classified_fraction"], m["errors"])
        if got != want:
            errors.append(f"report.json {got} disagrees with the returned MissionReport {want}")
    return errors


def check_bench_dir(out: Path, missions: list[dict]) -> list[str]:
    """Checks on the artifacts of ``mfgp-search bench``."""
    errors = []
    bench = json.loads((out / "manifest.json").read_text())["resolved"]
    table = _csv_rows(out / "detection_time.csv")
    if len(table) != int(bench["bench.delta_bins"]):
        errors.append(f"detection_time.csv has {len(table)} rows, bench.delta_bins is {bench['bench.delta_bins']}")
    decay = len(_csv_rows(out / "decay.csv"))
    if decay != int(bench["bench.samples"]) + 1:
        errors.append(f"decay.csv has {decay} rows, expected bench.samples + 1")
    if len(missions) != int(bench["bench.seeds"]):
        errors.append(f"{len(missions)} missions ran, bench.seeds is {bench['bench.seeds']}")
    done = [r for r in table if int(r["classified"]) > 0]
    csv_mean = sum(float(r["mean_time"]) * int(r["classified"]) for r in done) / max(
        1, sum(int(r["classified"]) for r in done)
    )
    lib_mean = quality(missions)["detection_time_mean"] if missions else float("nan")
    if not abs(csv_mean - lib_mean) <= 1e-9 * abs(lib_mean):
        errors.append(f"detection_time.csv mean {csv_mean} disagrees with the missions' {lib_mean}")
    return errors


def check_artifacts(w: Workload, out: Path, missions: list[dict]) -> list[str]:
    check = check_run_dir if w.command == "run" else check_bench_dir
    try:
        return check(out, missions)
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return [f"unreadable artifact in {out.name}: {exc!r}"]


def digest(w: Workload, out: Path) -> str | None:
    names = ("report.json",) if w.command == "run" else ("detection_time.csv", "decay.csv")
    h = hashlib.sha256()
    try:
        for name in names:
            h.update((out / name).read_bytes())
    except OSError:
        return None
    return h.hexdigest()


# ---------------------------------------------------------------- measuring


def quality(missions: list[dict]) -> dict:
    """Search quality over the missions of one process."""
    return {
        "clock_total": statistics.fmean(m["clock_total"] for m in missions),
        "classified_fraction": statistics.fmean(m["classified_fraction"] for m in missions),
        "detection_time_mean": sum(m["detect_sum"] for m in missions)
        / sum(m["detect_count"] for m in missions),
    }


class Session:
    """One benchmark run: its processes, their checks and their samples."""

    def __init__(self, w: Workload, root: Path, run_dir: Path):
        self.w, self.root, self.run_dir = w, root, run_dir
        self.env = bench_env(root)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._count = 0
        self._kill_at = time.perf_counter() + RUN_LIMIT_S

    def _launch(self, cli_args: list[str], traced: bool):
        self._count += 1
        sample_dir = self.run_dir / f"p{self._count:03d}"
        sample_dir.mkdir(parents=True)
        spans_path = sample_dir / "spans.json"
        argv = [sys.executable, str(LAUNCH), "--spans", str(spans_path), "--run-id", sample_dir.name]
        argv += ["--trace"] if traced else []
        argv += ["--", *cli_args]
        timeout = max(1.0, self._kill_at - time.perf_counter())
        code, wall, rss = run_process(argv, self.root, self.env, sample_dir, timeout)
        try:
            trace = json.loads(spans_path.read_text())
        except (OSError, ValueError):
            trace = None
        return sample_dir, code, wall, rss, trace

    def _record(self, sample: dict, errors: list[str]) -> dict:
        self.attempted += 1
        sample["errors"] = errors
        if errors:
            self.failed += 1
            self.errors.extend(f"{sample['id']}: {e}" for e in errors)
        return sample

    def validate(self, extra: list[str]) -> dict:
        w = self.w
        cli = ["validate", "--config", w.config, *_sets(w), *extra]
        sample_dir, code, wall, _, trace = self._launch(cli, traced=False)
        errors = [] if code == 0 and trace else [f"validate exited {code}"]
        return self._record({"id": sample_dir.name, "wall_s": wall}, errors)

    def measure(self, extra: list[str], traced: bool, reference: str | None) -> dict:
        w = self.w
        out = self.run_dir / "artifacts"
        shutil.rmtree(out, ignore_errors=True)
        cli = [w.command, "--config", w.config, *_sets(w), *extra, "--out", str(out)]
        sample_dir, code, wall, rss, trace = self._launch(cli, traced)
        sample = {"id": sample_dir.name, "traced": traced, "exit_code": code, "wall_s": wall, "rss_mb": rss}
        errors = [] if code == w.expect_exit else [f"exit code {code}, expected {w.expect_exit}"]
        if trace is None:
            return self._record(sample, errors + ["no spans file: the process failed"])
        spans = trace["spans"]
        missions = [s["attrs"] for s in spans if s["name"] == "mission.run_mission"]
        errors += check_artifacts(w, out, missions)
        sample["digest"] = digest(w, out)
        if reference is not None and sample["digest"] != reference:
            errors.append("outputs differ from an earlier run of the same input")
        top = [s for s in spans if s["top"]]
        sample["mission_s"] = sum(s["end"] - s["start"] for s in top)
        sample["cpu_per_wall"] = sum(s["cpu"] for s in top) / max(sample["mission_s"], 1e-12)
        sample["import_s"] = trace["import_s"]
        sample["bytes_written"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
        if missions and not errors:
            sample["quality"] = quality(missions)
        if traced:
            sample["layers"] = layer_metrics(spans, missions)
        else:
            (sample_dir / "spans.json").unlink()
        shutil.rmtree(out, ignore_errors=True)
        return self._record(sample, errors)


def _sets(w: Workload) -> list[str]:
    return [arg for s in w.sets for arg in ("--set", s)]


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


def layer_metrics(spans: list[dict], missions: list[dict]) -> dict:
    """Per-layer times and counts of one traced process.

    A span's self time is its duration minus the part of it that its child
    spans cover; a layer's self time sums its spans' self times.
    """
    children: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(i)
    dur = [s["end"] - s["start"] for s in spans]
    own = [
        dur[i] - _union_length([(spans[c]["start"], spans[c]["end"]) for c in children.get(i, [])])
        for i in range(len(spans))
    ]

    def total(name):
        return sum(d for s, d in zip(spans, dur) if s["name"] == name)

    def count(name):
        return sum(1 for s in spans if s["name"] == name)

    def attr_sum(name, key):
        return sum(s["attrs"][key] for s in spans if s["name"] == name)

    def layer_self(layer):
        return sum(o for s, o in zip(spans, own) if s["name"].split(".")[0] == layer)

    def root(i):
        while spans[i]["parent"] is not None:
            i = spans[i]["parent"]
        return i

    top_wall = sum(d for s, d in zip(spans, dur) if s["top"])
    accounted = sum(o for i, o in enumerate(own) if spans[root(i)]["top"])
    append = "inference.append_sample_variance_only"
    n = sum(m["n"] for m in missions)
    return {
        "router.tour_s": total("router.plan_tours"),
        "router.tour_points": attr_sum("router.plan_tours", "points"),
        "router.tour_length": attr_sum("router.plan_tours", "length"),
        "router.execute_s": total("router.execute_epoch"),
        "router.self_s": layer_self("router"),
        "planner.plan_s": total("planner.plan_epoch"),
        "planner.self_s": layer_self("planner"),
        "planner.epochs": count("planner.plan_epoch"),
        "planner.samples": attr_sum("planner.plan_epoch", "samples"),
        "planner.capped_epochs": attr_sum("planner.plan_epoch", "capped"),
        "inference.append_s": total(append),
        "inference.appends": count(append),
        "inference.append_fallbacks": sum(
            1
            for s in spans
            if s["name"] == "inference.posterior" and s["parent"] is not None and spans[s["parent"]]["name"] == append
        ),
        "inference.posterior_s": total("inference.posterior"),
        "inference.posterior_calls": count("inference.posterior"),
        "inference.diagnostics_s": total("inference.diagnostics_lines"),
        "inference.self_s": layer_self("inference"),
        "inference.unique_pairs": sum(m["unique_pairs"] for m in missions),
        "inference.unique_ratio": sum(m["unique_pairs"] for m in missions) / max(n, 1),
        "mission.self_s": layer_self("mission"),
        "mission.missions": len(missions),
        "mission.decay_s": total("mission.compare_decay"),
        "field_model.truth_s": total("field_model.sample_ground_truth"),
        "classifier.classify_s": total("classifier.classify_epoch"),
        "classifier.misclassified": sum(m["errors"] for m in missions),
        "formats.write_s": sum(d for s, d in zip(spans, dur) if s["name"].startswith("formats.")),
        "trace.mission_s": top_wall,
        "trace.spans": len(spans),
        "trace.wrapper_s": sum(s["overhead"] for s in spans),
        "trace.accounted_share": accounted / max(top_wall, 1e-12),
    }


def per_case(samples: dict[int, list[dict]], key) -> float:
    """Mean over the run's cases of each case's median."""
    return statistics.fmean(statistics.median(key(s) for s in case) for case in samples.values())


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Set up, measure for ``seconds`` and check; return the result record."""
    run_dir = root / ".perfbench_out" / f"{w.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    session = Session(w, root, run_dir)
    env = environment(root, session.env)
    cases = [case_args(w, seed, i) for i in range(w.cases)]

    setup: list[dict] = []
    plain: dict[int, list[dict]] = {i: [] for i in range(w.cases)}
    traced: dict[int, list[dict]] = {i: [] for i in range(w.cases)}
    cost: dict[int, float] = {}

    def measure_case(i: int):
        t0 = time.perf_counter()
        # Set-up samples are spread through the run: the host's speed changes
        # over seconds, and a burst of them at the start would see one speed.
        setup.append(session.validate(cases[0]))
        ref = plain[i][0].get("digest") if plain[i] else None
        plain[i].append(session.measure(cases[i], traced=False, reference=ref))
        if trace:
            traced[i].append(session.measure(cases[i], traced=True, reference=plain[i][0].get("digest")))
        cost[i] = time.perf_counter() - t0

    deadline = time.perf_counter() + seconds
    for i in range(w.cases):  # every case once, whatever the time
        measure_case(i)
    k = 0
    while time.perf_counter() + cost[k % w.cases] <= deadline:  # repeats that fit
        measure_case(k % w.cases)
        k += 1
    while len(setup) < SETUP_REPEATS:
        setup.append(session.validate(cases[0]))

    result = {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "env": env,
        "cases": cases,
        "setup": setup,
        "samples": {i: plain[i] + traced[i] for i in plain},
        "errors": session.errors,
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {},
    }
    if w.name == "desk" and seed == 0:
        got = plain[0][0].get("digest")
        result["desk_pin"] = {"sha256": got, "matches_roadmap_pin": got == DESK_REPORT_PIN}
    if not session.failed:
        result["metrics"] = summarize(plain, traced, setup, trace)
    (run_dir / "result.json").write_text(json.dumps(result, indent=1))
    return result


def summarize(plain: dict, traced: dict, setup: list[dict], trace: bool) -> dict:
    """The run's metrics: per-layer ones when traced, end-to-end ones otherwise."""
    if trace:
        metrics = {
            name: per_case(traced, lambda s, name=name: s["layers"][name]) for name in traced[0][0]["layers"]
        }
        metrics["mission.cpu_per_wall"] = per_case(traced, lambda s: s["cpu_per_wall"])
        metrics["formats.bytes_written"] = per_case(traced, lambda s: s["bytes_written"])
        metrics["cli.import_s"] = per_case(traced, lambda s: s["import_s"])
        untraced = per_case(plain, lambda s: s["mission_s"])
        metrics["trace.overhead_s"] = metrics["trace.mission_s"] - untraced
        metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / untraced
    else:
        metrics = {
            "setup_s": statistics.median(s["wall_s"] for s in setup),
            "run_s": per_case(plain, lambda s: s["wall_s"]),
            "mission_s": per_case(plain, lambda s: s["mission_s"]),
            "peak_rss_mb": per_case(plain, lambda s: s["rss_mb"]),
        }
        for name in ("clock_total", "classified_fraction", "detection_time_mean"):
            metrics[name] = statistics.fmean(case[0]["quality"][name] for case in plain.values())
    return metrics


def emitted(result: dict, declared: list[dict]) -> dict:
    """The declared metrics with their units; none for a run that failed a check."""
    if not result["correct"]:
        return {}
    return {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0, help="measuring time after set-up")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json in {root}: {exc}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    missing = [p for p in ("src/mfgp_search/cli.py", w.config) if not (root / p).is_file()]
    if missing:
        print(f"error: not a mfgp-search checkout, missing {missing}", file=sys.stderr)
        return 2

    result = run_workload(w, args.seed, args.seconds, bool(args.trace), root)

    metrics = emitted(result, spec["per_layer" if args.trace else "end_to_end"])
    print("env " + json.dumps(result["env"]))
    if "desk_pin" in result:
        print("desk report.json sha256 " + json.dumps(result["desk_pin"]))
    for e in result["errors"]:
        print(f"FAILED {e}")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:>16.6g} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
