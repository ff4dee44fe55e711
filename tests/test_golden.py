"""Golden artifact pins: the desk and planted runs and the desk study, byte
for byte.

Each command runs once as a fresh ``mfgp-search`` process with 1-thread BLAS
(the report bytes depend on the BLAS thread count).  A change to any pin
needs a CHANGES.md entry that says why the bytes moved.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

PINS = {
    "desk": {
        "report.json": "fea5a387ee111af048c23cae675b669b13bae44adcc448e30ff72cff0e4d3289",
        "plans.csv": "b776f901650b695f0320a83cc249716ffa568af78199d6725af2148fa6fdcb55",
        "tours.csv": "1231da0fbeb700fe47654de9d5c3c64f5e20d14ed4c527d641bd53ec6511989e",
    },
    "planted": {
        "report.json": "47b32d25c76993d3fbf282fea770dabeb11f8a408270ea4a1baa96caad6c4118",
        "plans.csv": "8d322cab0130f024045487502168e98cfdd76cb6bd0dc69514e42b696ad90c54",
        "tours.csv": "fb070cbfc1c543a3696b98979667290a9cb51606c252a55d9f02028b6010fb23",
    },
}
# bench --config configs/desk.cfg --set bench.seeds=6
BENCH_PINS = {
    "decay.csv": "898a12ee83fdfc76eff5e0b3ef0067dfdf96bc331a08e8984ae35e34f543576c",
    "detection_time.csv": "e46ecc81600c59d97b3deabbfa215a6ce477ebd85d924ea2ec3200e2061e867b",
}


def _cli(*args) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, "-m", "mfgp_search.cli", *args]
    return subprocess.run(cmd, env=env, capture_output=True, text=True)


@pytest.fixture(scope="module", params=sorted(PINS))
def run_out(request, tmp_path_factory):
    name = request.param
    out = tmp_path_factory.mktemp(name)
    proc = _cli("run", "--config", str(REPO / "configs" / f"{name}.cfg"), "--out", str(out))
    assert proc.returncode in (0, 2), proc.stderr
    return name, out


@pytest.fixture(scope="module")
def bench_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    proc = _cli(
        "bench", "--config", str(REPO / "configs" / "desk.cfg"),
        "--set", "bench.seeds=6", "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    return out


@pytest.mark.parametrize("artifact", ["report.json", "plans.csv", "tours.csv"])
def test_artifact_pinned(run_out, artifact):
    name, out = run_out
    digest = hashlib.sha256((out / artifact).read_bytes()).hexdigest()
    assert digest == PINS[name][artifact], f"{name}/{artifact} changed"


@pytest.mark.parametrize("artifact", sorted(BENCH_PINS))
def test_bench_artifact_pinned(bench_out, artifact):
    digest = hashlib.sha256((bench_out / artifact).read_bytes()).hexdigest()
    assert digest == BENCH_PINS[artifact], f"bench/{artifact} changed"
