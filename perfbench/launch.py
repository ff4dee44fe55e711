"""Run one mfgp-search CLI command in this process and time its library calls.

    python3 perfbench/launch.py --spans OUT.json [--trace] [--run-id ID] -- ARGS...

ARGS are the arguments of ``mfgp-search`` (for example ``run --config
configs/desk.cfg --out out``); this script is the console script plus timing.
It imports ``mfgp_search.cli`` (timed as ``import_s``), rebinds module
attributes to timing wrappers, calls ``cli.main(ARGS)`` and writes the spans
it kept in memory to OUT.json, then exits with the CLI's exit code.

The wrappers rebind the names where callers look them up at call time, so
the program's source is not touched:

* Always (tracing off): the library entry points the CLI calls, which give
  ``mission_s``, and ``mission.run_mission``, whose reports give the search
  quality figures.  These are a handful of calls per process.
* With ``--trace``: every public layer function in ``TRACED``.  A span is
  (name, start, end, parent, run id); the parent comes from a thread-local
  stack, because ``run_missions`` runs missions on a thread pool.  Spans of
  pool workers take the enclosing ``run_missions`` span as parent.
"""

import argparse
import functools
import json
import sys
import threading
import time

# Library entry points called by the CLI commands: their summed wall time is
# mission_s, the library path without writers.
TOP_LEVEL = (
    ("mfgp_search.cli", "run_mission", "mission.run_mission"),
    ("mfgp_search.cli", "compare_decay", "mission.compare_decay"),
    ("mfgp_search.cli", "detection_time_study", "mission.detection_time_study"),
)

# (module, attribute, span name).  A span name is "<layer>.<function>".
TRACED = (
    ("mfgp_search.mission", "sample_ground_truth", "field_model.sample_ground_truth"),
    ("mfgp_search.mission", "plan_epoch", "planner.plan_epoch"),
    ("mfgp_search.mission", "plan_tours", "router.plan_tours"),
    ("mfgp_search.mission", "execute_epoch", "router.execute_epoch"),
    ("mfgp_search.mission", "posterior", "inference.posterior"),
    ("mfgp_search.mission", "classify_epoch", "classifier.classify_epoch"),
    ("mfgp_search.mission", "run_missions", "mission.run_missions"),
    # planner binds the name at import; compare_decay imports it from inference
    # at call time, so both bindings are wrapped.
    ("mfgp_search.planner", "append_sample_variance_only", "inference.append_sample_variance_only"),
    ("mfgp_search.inference", "append_sample_variance_only", "inference.append_sample_variance_only"),
    # Called from inside an append: the refactorization fallback.
    ("mfgp_search.inference", "posterior", "inference.posterior"),
    ("mfgp_search.cli", "diagnostics_lines", "inference.diagnostics_lines"),
    ("mfgp_search.cli", "write_csv", "formats.write_csv"),
    ("mfgp_search.cli", "write_grid_csv", "formats.write_grid_csv"),
    ("mfgp_search.cli", "write_pgm", "formats.write_pgm"),
    ("mfgp_search.cli", "dump_json", "formats.dump_json"),
)


def _mission_attrs(report, traced: bool) -> dict:
    """Search-quality figures of one MissionReport."""
    from mfgp_search.classifier import Label
    from mfgp_search.mission import BOUNDARY_TOL

    detected = (report.labels != Label.UNCERTAIN) & (report.delta_x > BOUNDARY_TOL)
    attrs = {
        "n": report.n_total,
        "clock_total": report.clock_total,
        "classified_fraction": report.classified_fraction,
        "errors": report.misclassification()["errors"],
        "detect_sum": float(report.time_classified[detected].sum()),
        "detect_count": int(detected.sum()),
    }
    if traced:
        log = report.log
        pairs = {
            (log.domain.index_of(x, y), int(m))
            for (x, y), m in zip(log.locations(), log.fidelities())
        }
        attrs["unique_pairs"] = len(pairs)
    return attrs


def _plan_attrs(plan, traced):
    return {"samples": len(plan.samples), "capped": bool(plan.capped)}


def _tour_attrs(tours, traced):
    return {
        "points": sum(len(t.waypoints) for t in tours),
        "length": sum(t.length for t in tours),
    }


ATTRS = {
    "mission.run_mission": _mission_attrs,
    "planner.plan_epoch": _plan_attrs,
    "router.plan_tours": _tour_attrs,
}


class Tracer:
    """Spans kept in memory; written out once the command returns."""

    def __init__(self, run_id: str, traced: bool):
        self.run_id = run_id
        self.traced = traced
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pool_parent = None

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, module, attr: str, name: str, top: bool = False):
        fn = getattr(module, attr)
        extract = ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = time.perf_counter()
            stack = self._stack()
            span = {"name": name, "run": self.run_id, "top": top}
            span["parent"] = stack[-1] if stack else self._pool_parent
            with self._lock:
                sid = len(self.spans)
                self.spans.append(span)
            stack.append(sid)
            pool = name == "mission.run_missions"
            if pool:
                self._pool_parent = sid
            cpu0 = time.process_time()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["cpu"] = time.process_time() - cpu0
                stack.pop()
                if pool:
                    self._pool_parent = None
            if extract is not None:
                span["attrs"] = extract(result, self.traced)
            # Time spent in this wrapper outside the call: the tracing cost.
            span["overhead"] = (span["start"] - entered) + (time.perf_counter() - span["end"])
            return result

        setattr(module, attr, wrapper)

    def install(self):
        targets = TOP_LEVEL + (("mfgp_search.mission", "run_mission", "mission.run_mission"),)
        if self.traced:
            targets += TRACED
        top = {(m, a) for m, a, _ in TOP_LEVEL}
        for mod_name, attr, name in targets:
            self.wrap(sys.modules[mod_name], attr, name, top=(mod_name, attr) in top)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the spans (JSON)")
    parser.add_argument("--trace", action="store_true", help="span every layer call")
    parser.add_argument("--run-id", default="run", help="identifier stored in every span")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then mfgp-search arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    t_import = time.perf_counter()
    import mfgp_search.cli as cli

    import_s = time.perf_counter() - t_import

    tracer = Tracer(args.run_id, args.trace)
    tracer.install()
    code = cli.main(cli_args)
    with open(args.spans, "w") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
