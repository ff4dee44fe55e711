import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfgp_search.cli import (
    ConfigError,
    cmd_run,
    load_config,
    main,
    resolve_config,
    write_manifest,
)
from mfgp_search.config import parse_config_text

REPO = Path(__file__).resolve().parent.parent
DESK = REPO / "configs" / "desk.cfg"


def small_cfg_text(**over) -> str:
    kv = {
        "domain.x_min": 0,
        "domain.x_max": 10,
        "domain.y_min": 0,
        "domain.y_max": 10,
        "domain.resolution": 10,
        "model.levels": 2,
        "model.mu_1": 0.0,
        "model.mu_2": 0.0,
        "model.v_1": 0.5,
        "model.v_2": 0.3,
        "model.l_1": 4.0,
        "model.l_2": 2.0,
        "model.s_1": 0.1,
        "model.s_2": 0.08,
        "model.z_1": 8.0,
        "model.z_2": 4.0,
        "mission.delta": 0.1,
        "mission.th": 0.3,
        "mission.seed": 1,
        "mission.max_epochs": 4,
        "bench.samples": 15,
        "bench.seeds": 3,
    }
    kv.update(over)
    return "\n".join(f"{k} = {v}" for k, v in kv.items() if v is not None) + "\n"


def _bump(radius) -> dict:
    return {
        "mission.mode": "planted", "planted.bumps": 1, "planted.bump_1.x": 4.5,
        "planted.bump_1.y": 4.5, "planted.bump_1.amplitude": 1.2, "planted.bump_1.radius": radius,
    }


# (config overrides, expected error text) that validate and run both refuse
REJECTED = [
    ({"mission.sigma_ratio": 1.5}, "sigma_ratio"),
    ({"mission.sample_time": -1}, "sample_time"),
    ({"mission.termination_fraction": 1.5}, "termination_fraction"),
    ({"domain.resolution": 200}, "cells"),
    ({"mission.start_x": 50, "mission.start_y": 50, "mission.start_z": 8}, "outside"),
    (_bump(-1), "radius"),
    (_bump(0), "radius"),
    ({"mission.seed": -1}, "seed"),
    ({"domain.x_max": "inf"}, "finite"),
    ({"model.l_2": "nan"}, "finite"),
    ({"mission.sample_time": "inf"}, "sample_time"),
    ({"planted.background": "nan"}, "finite"),
    ({"domain.resolution": "inf"}, "domain.resolution"),
    ({"mission.seed": "1e400"}, "mission.seed"),
    ({"bench.seeds": "inf"}, "bench.seeds"),
    ({"planted.bumps": "-inf"}, "planted.bumps"),
    ({"planted.bumps": -2}, "planted.bumps"),
    ({"mission.max_epoch": 3}, "unknown config key 'mission.max_epoch'"),
    ({"model.sigma_1": 0.1}, "unknown config key 'model.sigma_1'"),
    ({"planted.bump_1.r": 1.0}, "unknown config key 'planted.bump_1.r'"),
    ({"bench.seed": 3}, "unknown config key 'bench.seed'"),
    ({"model.v_3": 0.1}, "unknown config key 'model.v_3'"),
    ({"model.v_01": 0.1}, "unknown config key 'model.v_01'"),
    ({**_bump(1.0), "planted.bump_2.x": 1.0}, "unknown config key 'planted.bump_2.x'"),
    ({**_bump(1.0), "mission.mode": "prior-draw"}, "planted mode only"),
    ({"planted.background": -0.1}, "planted mode only"),
    ({"mission.start_x": 1, "mission.start_y": 1, "mission.start_z": -3}, "below the floor"),
    ({"mission.start_x": "nan", "mission.start_y": 1, "mission.start_z": 8}, "start must be finite"),
    ({"mission.max_epochs": 1019}, "max_epochs must be at most 1018"),
    ({"model.s_1": 1e-200}, "s_1 = 1e-200: its square underflows"),
    ({"model.l_1": 1e-200, "model.l_2": 1e-201}, "l_1 = 1e-200: its square underflows"),
    ({"mission.epoch_sample_cap": 0}, "mission block: epoch_sample_cap must be at least 1"),
]
# (bench overrides, key named in the error) that validate and bench both refuse
BENCH_REJECTED = [
    ({"bench.seeds": 0}, "bench.seeds"),
    ({"bench.seeds": -2}, "bench.seeds"),
    ({"bench.delta_bins": 0}, "bench.delta_bins"),
    ({"bench.delta_bins": -1}, "bench.delta_bins"),
    ({"bench.samples": -3}, "bench.samples"),
]


def _case_id(case) -> str:
    """Overrides as key-value pairs joined by "-", e.g. mission.sample_time--1."""
    if isinstance(case, dict):
        return "-".join(f"{k}-{v}" for k, v in case.items())
    return case


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "mission.cfg"
    path.write_text(small_cfg_text())
    return path


class TestConfigParsing:
    def test_comments_and_blanks_ignored(self):
        kv = parse_config_text("# hello\n\na.b = 1\n")
        assert kv == {"a.b": "1"}

    def test_malformed_line_diagnostic(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("a.b = 1\nnot a pair\n")

    def test_duplicate_key_diagnostic(self):
        with pytest.raises(ConfigError, match="duplicate key 'a.b'"):
            parse_config_text("a.b = 1\na.b = 2\n")

    def test_missing_key_named(self):
        kv = parse_config_text(small_cfg_text())
        del kv["mission.delta"]
        with pytest.raises(ConfigError, match="mission.delta"):
            resolve_config(kv)

    def test_bad_value_named(self):
        kv = parse_config_text(small_cfg_text(**{"domain.resolution": "2.5"}))
        with pytest.raises(ConfigError, match="domain.resolution"):
            resolve_config(kv)

    # "2.5" and "inf" are refused in test_bad_value_named and REJECTED
    @pytest.mark.parametrize("value, seed", [("3.0", 3), ("nan", None)])
    def test_integer_keys_take_whole_numbers_only(self, value, seed):
        kv = parse_config_text(small_cfg_text(**{"mission.seed": value}))
        if seed is None:
            with pytest.raises(ConfigError, match="expected an integer"):
                resolve_config(kv)
        else:
            assert resolve_config(kv)[0].seed == seed


class TestRun:
    def test_missing_config_exits_1_with_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        code = main(["run", "--config", str(missing), "--out", str(tmp_path / "o")])
        assert code == 1
        assert str(missing) in capsys.readouterr().err

    def test_run_writes_artifacts(self, small_cfg, tmp_path):
        out = tmp_path / "out"
        code = main(["run", "--config", str(small_cfg), "--out", str(out)])
        assert code in (0, 2)
        for name in (
            "manifest.json",
            "report.json",
            "occupancy.csv",
            "occupancy.pgm",
            "variance.csv",
            "mean.csv",
            "plans.csv",
            "tours.csv",
            "decay.csv",
            "samples.log",
            "truth_f1.csv",
            "truth_f2.pgm",
        ):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert report["schema_version"] == 1
        assert report["n_total"] > 0

    def test_override_recorded_in_manifest(self, small_cfg, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "run",
                "--config",
                str(small_cfg),
                "--out",
                str(out),
                "--set",
                "mission.delta=0.01",
            ]
        )
        assert code in (0, 2)
        manifest = json.loads((out / "manifest.json").read_text())
        assert "mission.delta=0.01" in manifest["overrides"]
        assert manifest["resolved"]["mission.delta"] == 0.01

    def test_rerun_from_manifest_reproduces_bytes(self, small_cfg, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(small_cfg), "--out", str(out1)]) in (0, 2)
        assert main(
            ["run", "--config", str(out1 / "manifest.json"), "--out", str(out2)]
        ) in (0, 2)
        for name in ("report.json", "occupancy.csv", "variance.csv", "decay.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_seed_flag_changes_outputs(self, small_cfg, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(small_cfg), "--out", str(out1)])
        main(["run", "--config", str(small_cfg), "--out", str(out2), "--seed", "99"])
        assert (out1 / "report.json").read_bytes() != (out2 / "report.json").read_bytes()

    def test_epoch_cap_exit_code(self, tmp_path):
        cfg = tmp_path / "cap.cfg"
        cfg.write_text(small_cfg_text(**{"mission.max_epochs": 1}))
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_non_finite_report_refused(self, tmp_path, capsys):
        # the clock overflows to inf, which JSON has no text for
        out = tmp_path / "o"
        planted = str(REPO / "configs" / "planted.cfg")
        args = ["run", "--config", planted, "--out", str(out), "--set", "mission.sample_time=1e308"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: float inf is not JSON compliant: JSON has no inf or NaN\n"
        assert "mission" not in captured.out
        assert not (out / "report.json").exists()

    def test_out_of_memory_reported_as_an_error(self, small_cfg, tmp_path, capsys, monkeypatch):
        # a sample cap too large for the planner's working set fails to allocate
        def refuse(config):
            raise MemoryError("Unable to allocate 298. GiB for an array")

        monkeypatch.setattr("mfgp_search.cli.run_mission", refuse)
        code = main(["run", "--config", str(small_cfg), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == "error: Unable to allocate 298. GiB for an array\n"


class TestValidate:
    def test_valid_config_normalized_echo(self, small_cfg, capsys):
        assert main(["validate", "--config", str(small_cfg)]) == 0
        echo = capsys.readouterr().out
        assert "mission.delta=0.1" in echo
        assert "model.v_1=0.5" in echo

    def test_amplitude_ordering_violation(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(small_cfg_text(**{"model.v_2": 0.9}))
        assert main(["validate", "--config", str(cfg)]) == 1
        assert "decreasing" in capsys.readouterr().err

    def test_delta_out_of_range(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(small_cfg_text(**{"mission.delta": 0.6}))
        assert main(["validate", "--config", str(cfg)]) == 1
        assert "delta" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", REJECTED, ids=_case_id)
    def test_rejected_before_manifest(self, tmp_path, capsys, overrides, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(small_cfg_text(**overrides))
        assert main(["validate", "--config", str(cfg)]) == 1
        assert message in capsys.readouterr().err
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    @pytest.mark.parametrize(
        "text",
        ["5", '["resolved"]', '{"resolved": [1, 2]}'],
        ids=["number", "list", "resolved-list"],
    )
    def test_malformed_manifest_refused(self, tmp_path, capsys, text):
        manifest = tmp_path / "x.json"
        manifest.write_text(text)
        assert main(["validate", "--config", str(manifest)]) == 1
        assert "error:" in capsys.readouterr().err
        out = tmp_path / "o"
        assert main(["run", "--config", str(manifest), "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_grid_guard(self, tmp_path, capsys):
        cfg = tmp_path / "big.cfg"
        cfg.write_text(small_cfg_text(**{"domain.resolution": 200}))
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 1
        assert "cells" in capsys.readouterr().err


class TestBench:
    def test_single_level_refused(self, tmp_path, capsys):
        cfg = tmp_path / "m1.cfg"
        lines = [
            "domain.x_min=0", "domain.x_max=10", "domain.y_min=0", "domain.y_max=10",
            "domain.resolution=10", "model.levels=1", "model.mu_1=0", "model.v_1=0.5",
            "model.l_1=3", "model.s_1=0.1", "model.z_1=5",
            "mission.delta=0.1", "mission.th=0.3",
        ]
        cfg.write_text("\n".join(lines) + "\n")
        assert main(["bench", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "levels" in capsys.readouterr().err

    def test_planted_mode_refused_before_writing(self, tmp_path, capsys):
        cfg = tmp_path / "planted.cfg"
        cfg.write_text(small_cfg_text(**_bump(1.0)))
        out = tmp_path / "o"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 1
        assert "prior-draw" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_bench_outputs_and_schema(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(small_cfg_text(**{"bench.seeds": 4, "bench.samples": 12}))
        out = tmp_path / "o"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        decay = (out / "decay.csv").read_text().splitlines()
        assert decay[0] == "n,multi_fidelity_max_var,single_fidelity_max_var"
        assert len(decay) == 14  # header + n=0..12
        dt = (out / "detection_time.csv").read_text().splitlines()
        assert dt[0] == "bin,delta_min,delta_max,mean_time,classified,censored"
        assert len(dt) == 4

    def test_single_seed_warns_but_runs(self, tmp_path, capsys):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(small_cfg_text(**{"bench.seeds": 1, "bench.samples": 5}))
        out = tmp_path / "o"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        assert "warning" in capsys.readouterr().err
        assert (out / "detection_time.csv").exists()

    @pytest.mark.parametrize("overrides, message", BENCH_REJECTED, ids=_case_id)
    def test_bench_keys_rejected_before_manifest(self, tmp_path, capsys, overrides, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(small_cfg_text(**overrides))
        assert main(["validate", "--config", str(cfg)]) == 1
        assert message in capsys.readouterr().err
        out = tmp_path / "o"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_zero_samples_accepted(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(small_cfg_text(**{"bench.samples": 0, "bench.seeds": 1}))
        out = tmp_path / "o"
        assert main(["bench", "--config", str(cfg), "--out", str(out)]) == 0
        assert len((out / "decay.csv").read_text().splitlines()) == 2  # header + n=0

    def test_bench_rerun_from_manifest_reproduces_bytes(self, tmp_path):
        cfg = tmp_path / "bench.cfg"
        cfg.write_text(small_cfg_text(**{"bench.seeds": 3, "bench.samples": 8}))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["bench", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["bench", "--config", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
        for name in ("decay.csv", "detection_time.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_desk_config_is_valid():
    assert DESK.exists()
    assert main(["validate", "--config", str(DESK)]) == 0


def test_prior_draw_budget_leaves_planted_grids_alone(capsys):
    # the prior draw factors R x R axis correlations, so it has no budget of
    # its own: both modes stop only at the cell cap, 100 x 100 cells
    for cfg in (DESK, REPO / "configs" / "planted.cfg"):
        assert main(["validate", "--config", str(cfg), "--set", "domain.resolution=82"]) == 0
        assert main(["validate", "--config", str(cfg), "--set", "domain.resolution=101"]) == 1
        assert "grid has 10201 cells" in capsys.readouterr().err


def test_normalized_echo_round_trips(small_cfg, capsys, tmp_path):
    assert main(["validate", "--config", str(small_cfg)]) == 0
    echo = capsys.readouterr().out
    normalized = tmp_path / "normalized.cfg"
    normalized.write_text(echo)
    assert main(["validate", "--config", str(normalized)]) == 0
    assert capsys.readouterr().out == echo


@pytest.mark.parametrize("seed", [2**53 + 1, 2**64 + 1])
def test_large_integer_seed_kept_exactly(small_cfg, capsys, tmp_path, seed):
    # a float parse rounds 2^53 + 1 to 2^53: two seeds would run one mission
    for flags in (["--seed", str(seed)], ["--set", f"mission.seed={seed}"]):
        assert main(["validate", "--config", str(small_cfg), *flags]) == 0
        assert f"mission.seed={seed}\n" in capsys.readouterr().out
    out = tmp_path / "o"
    assert main(["run", "--config", str(small_cfg), "--out", str(out), "--seed", str(seed)]) in (0, 2)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == manifest["resolved"]["mission.seed"] == seed


# A valid tiny-grid config (one value per key drawn from VALID), then up to
# three keys set to an edge or invalid value from ODD.
VALID = {
    "domain.x_max": [10, 3],
    "domain.y_max": [10, 4],
    "model.v_1": [0.5, 0.9],
    "model.l_1": [4.0, 6.0],
    "model.s_1": [0.1, 0.5],
    "model.s_2": [0.08, 0.02],
    "model.z_2": [4.0, 1.0],
    "mission.delta": [0.1, 0.3],
    "mission.th": [0.3, -0.2, 1.0],
    "mission.sigma_ratio": [0.75, 0.5, 1.0],
    "mission.sample_time": [1.0, 0.0],
    "mission.termination_fraction": [0.99, 0.5],
    "mission.max_epochs": [4, 1018],  # 1018 at delta 0.1: the last normal tolerance
    "mission.epoch_sample_cap": [1, 5, 200],
    "mission.baseline": ["multi-fidelity", "single-fidelity-only"],
    "mission.mode": ["prior-draw", "planted"],
    "planted.bumps": [1],
    "planted.bump_1.x": [1.0, 2.5],
    "planted.bump_1.y": [1.0],
    "planted.bump_1.amplitude": [1.2, -0.5],
    "planted.bump_1.radius": [1.0, 3.0],
    "planted.background": [-0.1, 0.0],
}
ODD = {
    "domain.resolution": [0, 7, 200, "inf"],
    "domain.x_max": [0, -1, 0.5, "inf", "nan"],
    "domain.y_max": [0, 0.5, "nan"],
    "model.levels": [1, 3, "inf"],
    "model.mu_1": ["nan", "inf"],
    "model.v_1": [0.3, -0.1, 0.0, "nan"],
    "model.l_1": [0.0, 1.0, 1e-9, "nan"],
    "model.l_2": [-1.0, "nan"],
    "model.s_1": [0.0, 1e-9, -0.1, "nan"],
    "model.s_2": [1e-9, 5.0, "inf"],
    "model.z_2": [9.0, 0.0, -1.0, "nan"],
    "mission.delta": [0.0, 0.5, 0.001, "nan"],
    "mission.th": ["nan", "inf", 1e9],
    "mission.seed": [-1, 2**40, "inf"],
    "mission.sigma_ratio": [0.0, 1.5, 1e-6, "nan"],
    "mission.sample_time": [-1.0, "nan", "inf"],
    "mission.termination_fraction": [0.0, 1.5, "nan"],
    "mission.epoch_sample_cap": [0, -1, "inf"],
    "mission.baseline": ["x"],
    "mission.mode": ["other"],
    "mission.start_x": [0.0, 10.0, -1.0, 11.0, "nan"],
    "mission.start_y": [2.5, -1.0, "nan"],
    "mission.start_z": [8.0, 0.1, -3.0, "nan"],
    "planted.bumps": [0, 2, "inf"],
    "planted.bump_1.x": ["inf", "nan"],
    "planted.bump_1.amplitude": ["nan", "inf"],
    "planted.bump_1.radius": [-1.0, "nan", 1e-6, 1e3],
    "planted.background": ["nan", "inf"],
}
LEVEL_2 = [f"model.{name}_2" for name in ("mu", "v", "l", "s", "z")]
BUMP_1 = [f"planted.bump_1.{name}" for name in ("x", "y", "amplitude", "radius")]


@st.composite
def tiny_overrides(draw) -> dict:
    over = {key: draw(st.sampled_from(values)) for key, values in VALID.items()}
    over["domain.resolution"] = draw(st.integers(1, 6))
    over["mission.max_epochs"] = 1
    for key in draw(st.lists(st.sampled_from(sorted(ODD)), max_size=3, unique=True)):
        over[key] = draw(st.sampled_from(ODD[key]))
    # resolve_config refuses the keys of a level or bump it does not read
    if over.get("model.levels") == 1:
        over.update(dict.fromkeys(LEVEL_2, None))
    if over["planted.bumps"] == 0:
        over.update(dict.fromkeys(BUMP_1, None))
    return over


@settings(max_examples=200, deadline=None)
@given(tiny_overrides())
# l_m^2 underflows to 0: the switch threshold would divide by it
@example({"model.l_1": 1e-200, "model.l_2": 1e-201, "mission.max_epochs": 1})
def test_validate_accepts_only_what_run_accepts(overrides):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "tiny.cfg"
        cfg.write_text(small_cfg_text(**overrides))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            accepted = main(["validate", "--config", str(cfg)]) == 0
        if not accepted:
            return
        args = argparse.Namespace(config=str(cfg), out=str(Path(tmp) / "o"), seed=None, set=[])
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cmd_run(args)
        except (ConfigError, ValueError) as exc:
            pytest.fail(f"validate accepted {overrides}, run raised {exc!r}")
        assert code in (0, 2)


# Keys a config may leave out: resolve_config takes their dataclass defaults.
OPTIONAL = [
    "mission.seed", "mission.mode", "mission.baseline", "mission.epoch_sample_cap",
    "mission.max_epochs", "mission.sigma_ratio", "mission.sample_time",
    "mission.termination_fraction", "planted.background", "planted.bumps",
    "bench.samples", "bench.seeds", "bench.delta_bins",
]
START = {"mission.start_x": [0.0, 2.5, 3.0], "mission.start_y": [0.0, 1.5, 4.0],
         "mission.start_z": [8.0, 0.1]}
BENCH = {"bench.samples": [0, 15], "bench.seeds": [1, 3], "bench.delta_bins": [1, 4]}


@st.composite
def valid_configs(draw) -> dict:
    over = {key: draw(st.sampled_from(values)) for key, values in {**VALID, **BENCH}.items()}
    over["domain.resolution"] = draw(st.integers(1, 12))
    over["planted.bumps"] = draw(st.sampled_from([0, 1]))
    if draw(st.booleans()):
        over.update({key: draw(st.sampled_from(values)) for key, values in START.items()})
    kv = parse_config_text(small_cfg_text(**over))
    for key in draw(st.lists(st.sampled_from(OPTIONAL), unique=True)):
        del kv[key]
    if kv.get("mission.mode") != "planted":  # bumps and a background are planted-mode keys
        kv.pop("planted.bumps", None)
        kv.pop("planted.background", None)
    if kv.get("planted.bumps", "0") == "0":
        for key in BUMP_1:
            del kv[key]
    return kv


@settings(max_examples=150, deadline=None)
@given(valid_configs())
def test_manifest_round_trips_config_and_bench(kv):
    config, bench = resolve_config(kv)
    with tempfile.TemporaryDirectory() as tmp:
        write_manifest(Path(tmp), Path("mission.cfg"), config, [], bench)
        resolved = load_config(Path(tmp) / "manifest.json")
    assert resolve_config(resolved) == (config, bench)


def _python(script: str, *args: str, **env: str) -> subprocess.CompletedProcess:
    """Run ``python -c script *args`` in a fresh interpreter at the repository
    root, with the package's sources first on its path."""
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", script, *args], cwd=REPO, env=env, capture_output=True, text=True
    )


NO_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is blocked")

sys.meta_path.insert(0, NoScipy())
from mfgp_search.cli import main

assert main(["validate", "--config", "configs/planted.cfg"]) == 0
code = main(["run", "--config", "configs/planted.cfg", "--out", sys.argv[1],
             "--set", "domain.resolution=6", "--set", "mission.max_epochs=1"])
assert code in (0, 2), code
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
"""


def test_validate_and_run_need_no_scipy(tmp_path):
    proc = _python(NO_SCIPY, str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "truth_f1.csv").exists()


NO_NUMPY = """
import sys
from pathlib import Path

sys.modules["numpy"] = None  # every import of numpy now raises ImportError
from mfgp_search.config import load_config, resolve_config

for name in ("desk", "planted"):
    config, bench = resolve_config(load_config(Path("configs") / f"{name}.cfg"))
    flat = {**config.to_flat_dict(), **{f"bench.{k}": v for k, v in bench.items()}}
    assert resolve_config({k: str(v) for k, v in flat.items()}) == (config, bench), name
"""


def test_config_resolves_and_round_trips_without_numpy():
    proc = _python(NO_NUMPY)
    assert proc.returncode == 0, proc.stderr


# numpy is loaded once one of its submodules is: the lazy module that the
# package registers as sys.modules["numpy"] imports numpy.linalg when it runs.
BLAS_PIN = """
import os
import sys

import mfgp_search

assert "numpy.linalg" not in sys.modules, "importing the package loaded numpy"
import mfgp_search.cli

assert "numpy.linalg" not in sys.modules, "importing the CLI loaded numpy"
pins = [os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")]
mfgp_search.cli.load_numpy()
assert "numpy.linalg" in sys.modules
print(*pins)
"""


def test_cli_pins_one_blas_thread_before_numpy_loads():
    proc = _python(BLAS_PIN, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2", MKL_NUM_THREADS="2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "1", "1"]


EVERY_MODULE = """
import importlib
import pkgutil
import sys

import mfgp_search

for info in pkgutil.iter_modules(mfgp_search.__path__):
    importlib.import_module(f"mfgp_search.{info.name}")
print(*sorted(m for m in sys.modules if m.startswith("numpy.")))
"""


def test_importing_every_module_loads_no_numpy():
    proc = _python(EVERY_MODULE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


VALIDATE_WITHOUT_NUMPY = """
import sys

sys.modules["numpy"] = None  # every import of numpy now raises ImportError
from mfgp_search.cli import main

sys.exit(main(["validate", "--config", sys.argv[1]]))
"""


@pytest.mark.parametrize("name", ["desk", "planted"])
def test_validate_prints_the_same_without_numpy(name, capsys):
    cfg = str(REPO / "configs" / f"{name}.cfg")
    assert main(["validate", "--config", cfg]) == 0
    proc = _python(VALIDATE_WITHOUT_NUMPY, cfg)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == capsys.readouterr().out


# Spies on the library entry points that the CLI calls, rebound on the cli
# module as perfbench/launch.py rebinds them: each records whether numpy had
# loaded when it was entered.
NUMPY_BEFORE_THE_LIBRARY = """
import sys

import mfgp_search.cli as cli

entered = {}


def spy(name):
    fn = getattr(cli, name)

    def wrapper(*args, **kwargs):
        entered[name] = "numpy.linalg" in sys.modules
        return fn(*args, **kwargs)

    setattr(cli, name, wrapper)


for name in ("run_mission", "compare_decay", "detection_time_study"):
    spy(name)
assert cli.main(sys.argv[1:]) in (0, 2)
print(*(f"{name}={loaded}" for name, loaded in sorted(entered.items())))
"""


@pytest.mark.parametrize(
    "command, config, entered",
    [
        ("run", "planted", ["run_mission=True"]),
        ("bench", "desk", ["compare_decay=True", "detection_time_study=True"]),
    ],
)
def test_numpy_loads_before_the_library_calls(tmp_path, command, config, entered):
    sets = ["domain.resolution=6", "mission.max_epochs=1", "bench.seeds=2", "bench.samples=5"]
    args = [command, "--config", f"configs/{config}.cfg", "--out", str(tmp_path / "o")]
    proc = _python(NUMPY_BEFORE_THE_LIBRARY, *args, *(a for s in sets for a in ("--set", s)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == entered


# The same spies, recording every module that enters sys.modules while a
# library call runs: ``run`` and ``bench`` load numpy.random before them.
NOTHING_IMPORTED_IN_THE_LIBRARY = """
import sys

import mfgp_search.cli as cli

imported = []


def spy(name):
    fn = getattr(cli, name)

    def wrapper(*args, **kwargs):
        before = set(sys.modules)
        try:
            return fn(*args, **kwargs)
        finally:
            imported.extend(sorted(set(sys.modules) - before))

    setattr(cli, name, wrapper)


for name in ("run_mission", "compare_decay", "detection_time_study"):
    spy(name)
assert cli.main(sys.argv[1:]) in (0, 2)
print("imported:", *imported)
"""


@pytest.mark.parametrize(
    "command, config", [("run", "desk"), ("run", "planted"), ("bench", "desk")]
)
def test_library_calls_import_no_module(tmp_path, command, config):
    sets = ["domain.resolution=6", "mission.max_epochs=1", "bench.seeds=2", "bench.samples=5"]
    args = [command, "--config", f"configs/{config}.cfg", "--out", str(tmp_path / "o")]
    proc = _python(NOTHING_IMPORTED_IN_THE_LIBRARY, *args, *(a for s in sets for a in ("--set", s)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "imported:"


@pytest.mark.parametrize(
    "statement",
    [
        "from numpy.linalg import norm; assert norm([3.0, 4.0]) == 5.0",
        "import numpy.random; assert numpy.random.default_rng(0).integers(1) == 0",
        "import numpy; assert numpy.zeros(2).tolist() == [0.0, 0.0]",
    ],
)
def test_numpy_imports_after_the_package(statement):
    script = f"import mfgp_search.mission\n{statement}\n"
    script += "import sys\nfrom mfgp_search._np import np\nassert sys.modules['numpy'] is np\n"
    proc = _python(script)
    assert proc.returncode == 0, proc.stderr


# perfbench/launch.py times the CLI by rebinding these names on the modules
# that ``import mfgp_search.cli`` leaves in sys.modules.
LAUNCH_CONTRACT = """
import importlib.util
import sys

spec = importlib.util.spec_from_file_location("launch", "perfbench/launch.py")
launch = importlib.util.module_from_spec(spec)
spec.loader.exec_module(launch)
import mfgp_search.cli

targets = launch.TOP_LEVEL + launch.TRACED + (("mfgp_search.mission", "run_mission", ""),)
missing = [f"{m}.{a}" for m, a, _ in targets if not callable(getattr(sys.modules.get(m), a, None))]
assert not missing, missing
assert "numpy.linalg" not in sys.modules, "resolving the names loaded numpy"
"""


def test_perfbench_finds_every_name_it_rebinds():
    proc = _python(LAUNCH_CONTRACT)
    assert proc.returncode == 0, proc.stderr


def test_package_exports_resolve_to_their_modules():
    import importlib

    import mfgp_search

    for name in mfgp_search.__all__:
        value = getattr(mfgp_search, name)
        assert value.__module__.startswith("mfgp_search."), name
        assert getattr(importlib.import_module(value.__module__), name) is value
        assert name in dir(mfgp_search)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        mfgp_search.no_such_name


# Exported although no other package module reads them; README gives each reason.
EXPORTS_FOR_CALLERS = {"greedy_info_gain", "select_next_point", "update_fidelity"}


def test_every_export_is_read_inside_the_package():
    # a public name that only the tests read leaves src/ or states why it stays
    import ast

    import mfgp_search

    read = set()
    for path in (REPO / "src" / "mfgp_search").glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            read |= names - {getattr(stmt, "name", None)}  # a definition does not read itself
    assert set(mfgp_search.__all__) - read == EXPORTS_FOR_CALLERS
