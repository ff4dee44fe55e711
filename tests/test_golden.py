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
        "report.json": "d542b6224dd5169cddf43cf41078b31952dc7068708c24b71f0a12ab82239533",
        "plans.csv": "db7f2e32bfe456a6b1f0cdd02fc16beb5103c5beba1bc5c3ffe697800df37488",
        "tours.csv": "34263a204420651f79781ada93e19f0d498af3311f93868ebf6291a584c484fc",
    },
    "planted": {
        "report.json": "26fdf06b8aab8b611b6e1fa9e86599b08ce5a2cd2d0c639ccda0c802b85ca90e",
        "plans.csv": "015e7e3195521cfc3e2ff8d7b4fda7f1a981a28cdfc5e4cb0fd9a6ff4b0c95b9",
        "tours.csv": "fb070cbfc1c543a3696b98979667290a9cb51606c252a55d9f02028b6010fb23",
    },
}
# bench --config configs/desk.cfg --set bench.seeds=6
BENCH_PINS = {
    "decay.csv": "cf278c6e701eed1c26cf80c1a3bb27aebb5138d70103ffea2432f026ece6d913",
    "detection_time.csv": "63af1512deca0f5f631fcee9d830c54da50f5b4dc470b679a780ed252296735b",
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
