"""Command-line entry point: run missions, benchmark studies, validate configs.

Config files are flat ``section.key=value`` text (one pair per line, ``#``
comments).  A manifest.json from a previous run can be passed as --config to
reproduce that run's outputs byte-for-byte.
"""

import argparse
import os
import sys
from pathlib import Path

# BLAS splits a product differently on another thread count, which changes
# its roundoff, so the artifacts are byte-stable only on a fixed count.  The
# pools read these when numpy first loads, and importing the package loads
# none (``_np``): ``run`` and ``bench`` load it in ``_open_out``.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from . import __version__
from ._linalg import NumericalError
from ._np import load_numpy
from .classifier import LABEL_NAMES
from .config import ConfigError, MissionConfig, apply_overrides, load_config, resolve_config
from .formats import dump_json, fmt, write_csv, write_grid_csv, write_pgm
from .inference import diagnostics_lines
from .mission import compare_decay, detection_time_study, run_mission

MANIFEST_SCHEMA_VERSION = 1
# occupancy.pgm's grey level per Label value: uncertain mid, empty dark, target bright
_OCCUPANCY_GREY = (128, 0, 255)


def _config_of(args) -> tuple[MissionConfig, dict]:
    """The resolved config and bench settings of a command's --config, --set and --seed."""
    kv = apply_overrides(load_config(Path(args.config)), args.set or [], args.seed)
    return resolve_config(kv)


def _open_out(args, config: MissionConfig, bench: dict) -> Path:
    """Load numpy and numpy.random, then create the command's --out
    directory and write its manifest.json there.  A numpy that cannot load
    fails before anything is written, and the library calls that follow
    import no module."""
    load_numpy()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(out_dir, Path(args.config), config, args.set or [], bench)
    return out_dir


def write_manifest(
    out_dir: Path,
    config_path: Path,
    config: MissionConfig,
    overrides: list[str],
    bench: dict,
):
    resolved = config.to_flat_dict()
    resolved.update({f"bench.{k}": v for k, v in bench.items()})
    manifest = {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "tool": {"name": "mfgp-search", "version": __version__},
        "config_path": str(config_path),
        "out_dir": str(out_dir),
        "seed": config.seed,
        "overrides": list(overrides),
        "resolved": resolved,
    }
    (out_dir / "manifest.json").write_text(dump_json(manifest))


def _write_occupancy(out_dir: Path, cmap):
    """occupancy.csv and occupancy.pgm of a classification map."""
    labels = cmap.labels.tolist()
    names = [LABEL_NAMES[v] for v in labels]
    write_grid_csv(
        out_dir / "occupancy.csv", cmap.domain, label=names, epoch=cmap.epoch, time=cmap.time
    )
    grey = [_OCCUPANCY_GREY[v] for v in labels]
    write_pgm(out_dir / "occupancy.pgm", cmap.domain, grey, lo=0, hi=255)


def _write_run_outputs(out_dir: Path, report):
    config = report.config
    (out_dir / "report.json").write_text(dump_json(report.to_json_dict()))
    _write_occupancy(out_dir, report.final_map)
    write_grid_csv(out_dir / "mean.csv", config.domain, value=report.posterior_mu)
    write_grid_csv(out_dir / "variance.csv", config.domain, value=report.posterior_sigma2)
    write_csv(
        out_dir / "plans.csv",
        ["epoch", "order", "x", "y", "fidelity", "sigma_before"],
        report.plan_rows,
    )
    write_csv(
        out_dir / "tours.csv",
        ["epoch", "order", "x", "y", "z", "time"],
        report.tour_rows,
    )
    write_csv(out_dir / "decay.csv", ["n", "max_var"], report.decay)
    lines = diagnostics_lines(report.log, config.model)
    (out_dir / "samples.log").write_text("\n".join(lines) + "\n" if lines else "")
    for m in range(1, config.model.levels + 1):
        field = report.truth.level_field(m)
        write_grid_csv(out_dir / f"truth_f{m}.csv", config.domain, value=field)
        write_pgm(out_dir / f"truth_f{m}.pgm", config.domain, field)


def cmd_run(args) -> int:
    config, bench = _config_of(args)
    out_dir = _open_out(args, config, bench)
    report = run_mission(config)
    _write_run_outputs(out_dir, report)
    done = report.terminated == "classified"
    print(
        f"mission {'done' if done else 'stopped at epoch cap'}: "
        f"{report.classified_fraction * 100:.1f}% classified, "
        f"n={report.n_total}, clock={report.clock_total:.1f}"
    )
    return 0 if done else 2


def cmd_bench(args) -> int:
    config, bench = _config_of(args)
    if config.model.levels < 2:
        print("bench requires model.levels >= 2 to compare samplers", file=sys.stderr)
        return 1
    if config.mode != "prior-draw":
        print("bench requires mission.mode = prior-draw for its detection-time study", file=sys.stderr)
        return 1
    if bench["seeds"] < 2:
        print("warning: detection-time study with a single seed is noisy", file=sys.stderr)
    out_dir = _open_out(args, config, bench)
    rows = compare_decay(config, n_samples=bench["samples"])
    write_csv(out_dir / "decay.csv", list(rows[0]), map(dict.values, rows))
    seeds = range(config.seed, config.seed + bench["seeds"])
    rows = detection_time_study(config, seeds, delta_bins=bench["delta_bins"])
    write_csv(out_dir / "detection_time.csv", list(rows[0]), map(dict.values, rows))
    print(f"bench complete: decay.csv, detection_time.csv in {out_dir}")
    return 0


def cmd_validate(args) -> int:
    config, _bench = _config_of(args)
    for key, value in sorted(config.to_flat_dict().items()):
        print(f"{key}={value if isinstance(value, str) else fmt(value)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mfgp-search",
        description="Multi-fidelity GP target search: run missions, benchmark, validate configs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_text in (
        ("run", cmd_run, "run one mission and write its artifacts"),
        ("bench", cmd_bench, "uncertainty-decay comparison and detection-time study"),
        ("validate", cmd_validate, "check a config and echo its normalized form"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="config file (or manifest.json)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override mission.seed")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )
        p.set_defaults(func=fn)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, NumericalError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
