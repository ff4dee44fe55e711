"""Golden artifact pins: the desk and planted runs and the desk study, byte
for byte.

Each command runs once as a fresh ``mfgp-search`` process.  The bytes depend
on the BLAS thread count, so the CLI pins 1-thread BLAS before numpy loads;
the desk and planted pins also hold, and a resolution-30 planted run is
byte-identical, when the environment asks for 2 threads.  A change to any
pin needs a CHANGES.md entry that says why the bytes moved.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

PINS = {
    "desk": {
        "report.json": "58cddd098e7e33b12c3bdbaf4269950be6f11fe9678effef825c1ceac80c8d2f",
        "plans.csv": "ef906a782f04d0be240fbcc59f2e62267579a410908fe0947add2106a038df5f",
        "tours.csv": "573eb42b149813004e9c3d5cb593a8ae64f47a7d0512db7e433594fd47713f75",
    },
    "planted": {
        "report.json": "407f1f0337d70c293672cd96c41a03b58600a81d8d519a92f8cd8f172308923d",
        "plans.csv": "42ae44845ed2370ae99b9f14592b41e006c36b30afdb652f5a9e7f758c695078",
        "tours.csv": "fb070cbfc1c543a3696b98979667290a9cb51606c252a55d9f02028b6010fb23",
    },
}
# The other run artifacts: the sample log chain, the final posterior, the
# occupancy map, the decay curve and the truth fields.
OUTPUT_PINS = {
    "desk": {
        "decay.csv": "e815367091065acdf0128f999effd36494c6eb033b4122e14942f8d98b4bebea",
        "mean.csv": "155e058a923a2a6af877a7782a5d37c4b56c063c94fe210df15bc603e2e47b1c",
        "occupancy.csv": "52058c6699473f22605a486f1acdda8f03f8843dfa5718ad3b1e8b3dbf8d069d",
        "occupancy.pgm": "9a5319e4a9053a9346ade93c7a77bf650b218a0e3872bb5057c157b7fff17b45",
        "samples.log": "a00a0dce9bec727205e20ef3e3f2c11da190710558900d5f3cedb362d65a1735",
        "truth_f1.csv": "ae7cec413913b485be7c0ffed899a294932291ea220704f82f49fda66b6c44bf",
        "truth_f2.csv": "b8206de3f15249e437757983be4cc8d6b39b808152ea17dc3b86b6c7f0e70490",
        "truth_f1.pgm": "60d42aa0b891204975db509573e1d9f7a5f0e5be3de99eb04836953b318c3af1",
        "truth_f2.pgm": "507fae6c1633b7e07b57f2672d45b8311b95e4250a5a33eac36a8eba86380862",
        "variance.csv": "067a251dbca13e95a402370e49e9b3d2b6590a3422c69e31bfc4b97e826d6b7d",
    },
    "planted": {
        "decay.csv": "f36f01bb11390592f7be9de3ee6b92e4b7a38d9ae2e81317612183d27ceda112",
        "mean.csv": "11a2a8141fc223477a41523385de4746d3b5cf41252e483b942f429d11e155ba",
        "occupancy.csv": "8b8e3f0aab955b7326fef9b30c499850acb4937dc49129a3ccbcc07b3f36c855",
        "occupancy.pgm": "393b4c9b24922472249fdda897b25005a47926166d4579d54a3f3d6ea0079376",
        "samples.log": "e2fd0ea0d6f0e358a1c3c74555df920a45128fc2f17123ee682de426d504cbba",
        "truth_f1.csv": "a7954c79082e9684b5cbfe94b1d8aae4734b66bc544753893426ceebb9f1ae6e",
        "truth_f2.csv": "cad19b1f227a4ac3270806222649227801c3da9c9b0d5f4d3c229d05f28cc972",
        "truth_f1.pgm": "858ddf69c42ec56589694050af2688b73d4c08f3305209eabf8eb93d21ebe4e5",
        "truth_f2.pgm": "268d873e2640513f60c74d5533f0ef70019a51d065cdd0e2eefadc75617c4e26",
        "variance.csv": "690a4b66c960344cf64d18d8ed3684cfc0d754f7c4d048ffd2631018722a39a2",
    },
}
# bench --config configs/desk.cfg --set bench.seeds=6
BENCH_PINS = {
    "decay.csv": "cf278c6e701eed1c26cf80c1a3bb27aebb5138d70103ffea2432f026ece6d913",
    "detection_time.csv": "418f93ea048f1425b3dc23037abcd9c2770fddfa075c57aeb455324a4acf57c0",
}
# manifest.json with its "config_path" and "out_dir" values replaced by
# "<config_path>" and "<out_dir>"; "study" is the bench command above.
MANIFEST_PINS = {
    "desk": "4beb7a02841155878d231c9e86562efe134248005c175057f24d2edf3b3624cd",
    "planted": "1e599c874f493fcb4419b7c43a88d5378d8785c7822763fe7e802c4e0fc4d080",
    "study": "ed6282dd3d531c177ba332a3de78a6ae8c7c5d9ccb276374f106d34b24b00ec2",
}


def _cli(*args, blas_threads: str = "1") -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS=blas_threads, OMP_NUM_THREADS=blas_threads,
        MKL_NUM_THREADS=blas_threads,
    )
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


@pytest.mark.parametrize("artifact", sorted(OUTPUT_PINS["desk"]))
def test_output_pinned(run_out, artifact):
    name, out = run_out
    digest = hashlib.sha256((out / artifact).read_bytes()).hexdigest()
    assert digest == OUTPUT_PINS[name][artifact], f"{name}/{artifact} changed"


def _manifest_digest(out: Path, config: str) -> str:
    """sha256 of out/manifest.json with its two path values made fixed."""
    text = (out / "manifest.json").read_text()
    for key, value in (("config_path", config), ("out_dir", str(out))):
        line = f'"{key}": {json.dumps(value)},'
        assert text.count(line) == 1, f"manifest lacks {line}"
        text = text.replace(line, f'"{key}": "<{key}>",')
    return hashlib.sha256(text.encode()).hexdigest()


def test_manifest_pinned(run_out):
    name, out = run_out
    config = str(REPO / "configs" / f"{name}.cfg")
    assert _manifest_digest(out, config) == MANIFEST_PINS[name], f"{name}/manifest.json changed"


def test_bench_manifest_pinned(bench_out):
    config = str(REPO / "configs" / "desk.cfg")
    digest = _manifest_digest(bench_out, config)
    assert digest == MANIFEST_PINS["study"], "bench/manifest.json changed"


def _check_pins_on_two_blas_threads(out: Path, name: str):
    config = str(REPO / "configs" / f"{name}.cfg")
    proc = _cli("run", "--config", config, "--out", str(out), blas_threads="2")
    assert proc.returncode in (0, 2), proc.stderr
    pins = {**PINS[name], **OUTPUT_PINS[name]}
    changed = [
        artifact for artifact, pin in sorted(pins.items())
        if hashlib.sha256((out / artifact).read_bytes()).hexdigest() != pin
    ]
    assert changed == [], f"{name} artifacts changed on 2 BLAS threads: {changed}"
    assert _manifest_digest(out, config) == MANIFEST_PINS[name]


def test_planted_pins_hold_on_two_blas_threads(tmp_path):
    _check_pins_on_two_blas_threads(tmp_path, "planted")


def test_desk_pins_hold_on_two_blas_threads(tmp_path):
    # the dense prior draw rounds differently on 2 threads unless the CLI pins 1
    _check_pins_on_two_blas_threads(tmp_path, "desk")


def test_planted_r30_same_on_one_and_two_blas_threads(tmp_path):
    # at resolution 30 the blocked posterior's products round differently on
    # 2 threads unless the CLI pins 1; compares every artifact but the manifest
    config = str(REPO / "configs" / "planted.cfg")
    sets = ("--set", "domain.resolution=30", "--set", "mission.max_epochs=10")
    for threads in ("1", "2"):
        out = str(tmp_path / threads)
        proc = _cli("run", "--config", config, *sets, "--out", out, blas_threads=threads)
        assert proc.returncode in (0, 2), proc.stderr
    names = sorted(p.name for p in (tmp_path / "1").iterdir() if p.name != "manifest.json")
    assert len(names) == 13
    changed = [
        name for name in names
        if (tmp_path / "1" / name).read_bytes() != (tmp_path / "2" / name).read_bytes()
    ]
    assert changed == [], f"resolution-30 artifacts changed on 2 BLAS threads: {changed}"
