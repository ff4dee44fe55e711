"""Golden artifact pins: the desk and planted runs and the desk study, byte
for byte.

Each command runs once as a fresh ``mfgp-search`` process with 1-thread BLAS
(the desk bytes depend on the BLAS thread count).  The planted run is also
pinned under 2-thread BLAS.  A change to any pin needs a CHANGES.md entry
that says why the bytes moved.
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
# The other run artifacts: the sample log chain, the final posterior, the
# occupancy map, the decay curve and the truth fields.
OUTPUT_PINS = {
    "desk": {
        "decay.csv": "59f2c6e1e587abd09985c9501a28d826e98b2928209d9ffe9fbb624ce1d6de03",
        "mean.csv": "14bf1b6e7565bc592c0b7ad2f92799256f14aaa430c790b7b2b6728399218c79",
        "occupancy.csv": "102cce841741e4a56a8721b2c69296374b2446dfe3204fa28c17938125b16e69",
        "occupancy.pgm": "f77a6ab5de89df85008574ace1ee55a12345cb6ed5dac8cfa0b61fc0c10a0349",
        "samples.log": "ff25235224b1dcd9f8591d2e07a240fdd1cfb24bb29efb0ab89cbdce8bd1e532",
        "truth_f1.csv": "fae425fe71b04d68289721ce20578c094d649cc49037fee442f8ebe5275ec1a1",
        "truth_f2.csv": "5debad94823982112a78bf93a65c9641dd5637f85f80cb5e986283ccb457a575",
        "truth_f1.pgm": "3bd5175e75c372f28f9fb91a7ba8404c4bf60148877f69422e2321dcd6722c39",
        "truth_f2.pgm": "b402d7b47c4f139eeeb57375c64f6f2622f9d2a90249cb7a050002152b6e6fe9",
        "variance.csv": "f990d8621a41e08267a318f287fd833f60eda943d309a1a0470b3d6715aa2ac9",
    },
    "planted": {
        "decay.csv": "5d761e7dcb36b8a98d19563963460e4062b38cdc9b19f999646a6ed005ab93f2",
        "mean.csv": "8fc17600ae2849a7274b1fe2433601ca80ee49146a8f7de5576211d19545d7c8",
        "occupancy.csv": "8b8e3f0aab955b7326fef9b30c499850acb4937dc49129a3ccbcc07b3f36c855",
        "occupancy.pgm": "393b4c9b24922472249fdda897b25005a47926166d4579d54a3f3d6ea0079376",
        "samples.log": "42f5e9d260478d089274366e5e16fd20cbeded8dae7f3db489fb25588ffddbe7",
        "truth_f1.csv": "a7954c79082e9684b5cbfe94b1d8aae4734b66bc544753893426ceebb9f1ae6e",
        "truth_f2.csv": "cad19b1f227a4ac3270806222649227801c3da9c9b0d5f4d3c229d05f28cc972",
        "truth_f1.pgm": "858ddf69c42ec56589694050af2688b73d4c08f3305209eabf8eb93d21ebe4e5",
        "truth_f2.pgm": "268d873e2640513f60c74d5533f0ef70019a51d065cdd0e2eefadc75617c4e26",
        "variance.csv": "73b268bc70d8c7567dd64ed9057060e25c8dcf5d80a8c67c83a77c3faa3039a5",
    },
}
# bench --config configs/desk.cfg --set bench.seeds=6
BENCH_PINS = {
    "decay.csv": "cf278c6e701eed1c26cf80c1a3bb27aebb5138d70103ffea2432f026ece6d913",
    "detection_time.csv": "63af1512deca0f5f631fcee9d830c54da50f5b4dc470b679a780ed252296735b",
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


def test_planted_pins_hold_on_two_blas_threads(tmp_path):
    # desk stays out: its prior draw depends on the BLAS thread count
    config = str(REPO / "configs" / "planted.cfg")
    proc = _cli("run", "--config", config, "--out", str(tmp_path), blas_threads="2")
    assert proc.returncode in (0, 2), proc.stderr
    pins = {**PINS["planted"], **OUTPUT_PINS["planted"]}
    changed = [
        name for name, pin in sorted(pins.items())
        if hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() != pin
    ]
    assert changed == [], f"planted artifacts changed on 2 BLAS threads: {changed}"
    assert _manifest_digest(tmp_path, config) == MANIFEST_PINS["planted"]
