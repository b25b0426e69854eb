"""Byte-identity of every CLI output against digests of recorded outputs.

Each digest is the SHA-256 of one output (a file written by the CLI, or the
CSV it prints to stdout).  A refactor that keeps behaviour fixed must leave
every digest as it is.  The ``simulate`` digests pin the sample sets that
are promised bit-identical for a given (seed, config, spec).

Outputs and samples are bit-identical for one numpy build and one SIMD
dispatch level.  numpy's AVX-512 and AVX2 kernels of ``exp``, ``log1p``,
``log`` and ``power`` round differently on a few percent of inputs, and the
package calls them in ``_special.logsumexp`` and ``logsumexp_rows``
(``np.exp``, ``np.log1p``, ``np.log``), ``Lognormal._transform``
(``np.exp``) and ``Pareto._transform`` (``**=``).  So two digest sets are
recorded, on x86-64 Linux with numpy 2.4.6: ``GOLDEN`` where numpy
dispatches its AVX-512 kernels, and ``GOLDEN_WITHOUT_AVX512`` with
``NPY_DISABLE_CPU_FEATURES`` set to ``AVX512_FEATURES``, the path of a CPU
without AVX-512.  The outputs run here are checked against the set of this
host's path, and a child process checks the other set where it can.  A
deliberate output change re-records both with::

    PYTHONPATH=src python -c "import tests.test_golden as g; g.print_digests()"
    NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" \\
        PYTHONPATH=src python -c "import tests.test_golden as g; g.print_digests()"
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from ruinbounds.cli import main
from ruinbounds.tableio import read_csv_table

CONFIG = """\
[spec:heavy]
family = pareto
beta = 0.1
k = 0.9

[spec:matched]
family = lognormal
mu = 0.21459085740810752
sigma2 = 0.06453852113757118

[spec:shape]
family = gamma
alpha = 17
theta = 13.333333333333334

[spec:sure]
family = constant
a = 1.5

[run]
c = 1.0
x = 0.5 1.0 1.1 1.5 2.0 3.5 7.5 12.5 100
horizons = 3 10 20 inf
rmax = 8
seed = 7
"""

COMMANDS = ("classify", "moments", "bounds", "boundaries")
SIMULATE_TRUNCATIONS = ("10", "adaptive")


def _stdout_of(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def collect_outputs(root: Path) -> dict:
    """Run every covered command under ``root``; map output name -> bytes."""
    outputs = {}
    for table_id in range(1, 10):
        out = root / "reproduce"
        _stdout_of(["reproduce", "--table", str(table_id), "--replicates", "200",
                    "--out", str(out)])
    for path in sorted((root / "reproduce").iterdir()):
        outputs[f"reproduce/{path.name}"] = path.read_bytes()
    config = root / "golden.ini"
    config.write_text(CONFIG)
    for command in COMMANDS:
        text = _stdout_of([command, "--config", str(config)])
        outputs[f"{command}/stdout"] = text.encode()
        for fmt in ("csv", "json"):
            out = root / command / fmt
            _stdout_of([command, "--config", str(config), "--format", fmt,
                        "--out", f"{out}/"])
            for path in sorted(out.iterdir()):
                outputs[f"{command}/{path.name}"] = path.read_bytes()
    for truncation in SIMULATE_TRUNCATIONS:
        out = root / "simulate" / truncation
        _stdout_of(["simulate", "--config", str(config), "--replicates", "200",
                    "--truncation", truncation, "--out", str(out)])
        for path in sorted(out.iterdir()):
            outputs[f"simulate/{truncation}/{path.name}"] = path.read_bytes()
    return outputs


def compute_digests() -> dict:
    """Output name -> SHA-256 hex digest of every covered output."""
    with tempfile.TemporaryDirectory() as tmp:
        return {name: hashlib.sha256(data).hexdigest()
                for name, data in collect_outputs(Path(tmp)).items()}


def print_digests() -> None:
    for name, digest in compute_digests().items():
        print(f'    "{name}": "{digest}",')


GOLDEN = {
    "reproduce/table_1.csv": "3787c387dcd6ce96776578cb2f8e35ebcd62283ac4defae1b84eac1485f6d8bd",
    "reproduce/table_1_deltas.json": "fa25ff2b3be669b9d9f511dfd2bb3fb011f2d1813291f7daf83dc474386f8e07",
    "reproduce/table_2.csv": "ee7b5d26dc001a554fa6909e450dac623182b9ced0c577b441c5fc04087619fd",
    "reproduce/table_2_deltas.json": "9d8582e5d793d7dec99aac5f88a8ff073e965d130b7ba9aa2924a019c6c276aa",
    "reproduce/table_3.csv": "51a437b2fbfc3bae2d58d59763ca039a2547b0aaa21a19caa74ab6b589550839",
    "reproduce/table_3_deltas.json": "2e8887b9602edb3fae60b58d6556765f1d99035f6ccd6bb622d894d9fba97697",
    "reproduce/table_4.csv": "2b646863af98966d2b78b48af04ce860507c9196989468da82451eb38f16a3be",
    "reproduce/table_4_deltas.json": "dfcc951f0d66ecf2491353a94c90db5f363b0a9bda78d0c03b7f688209423840",
    "reproduce/table_5.csv": "1e66c4d10b18d0cda225e9e9d60030dd3434d0c016173e5bd27ceebe58ebbbd6",
    "reproduce/table_5_deltas.json": "d980cbbb7f4cfafc6d79b1367dd9616233e6e786a1a36ad84fb179f175738d1d",
    "reproduce/table_6.csv": "ef111f6d1e2b1a4722a34d592ac308b7dc3f53a8b8bce3b23dcfc955a80419a1",
    "reproduce/table_6_deltas.json": "fcccd3281f9270c6426bc9c5c6c954bc8f8b103dc46d2302626ac42d4a1b7c28",
    "reproduce/table_7.csv": "3a962f63b7fc83cf676bda0f334551a381509d6b0a3c7739314723db0255ff64",
    "reproduce/table_7_deltas.json": "79ceb124cfee46b1935e1850d0267f085673ce5fa8873523d27f6ef0e03f9e05",
    "reproduce/table_8.csv": "c7f1cfc53309c805d1325ad9f546586853dea8c93794e151866e79f414f15ed7",
    "reproduce/table_8_deltas.json": "5ef290c181f91c1a10c06459e4aa43749a945427f89808e169b4d8bb38d2b975",
    "reproduce/table_9.csv": "d5bb7450fdfc2f9c3ff131f1f80c024ce680f83ac6ddecc13e161f76bb6a0376",
    "reproduce/table_9_deltas.json": "b647a708f4f378d3b4a7e71a06fb60aeaae203269701a953a6abe25b9832db4f",
    "classify/stdout": "e89779b6cb2277ed9c087c1b43f9ffb65d0c3b63498e6c462a2d74e455586581",
    "classify/classify.csv": "e89779b6cb2277ed9c087c1b43f9ffb65d0c3b63498e6c462a2d74e455586581",
    "classify/classify.json": "03d159e5b3dea8fa24a653bf999270dd4b48e5935eb6a270dec62dc79cc254ef",
    "moments/stdout": "9706a80b5146246b7ff35d6da4f60cb76d40de7f0107ee307a1ff0be29fc495b",
    "moments/moments_horizons.csv": "cb5905e68f533c528676ce4c0961f45d86d082f188e355d93a6535838dab23f9",
    "moments/moments_series.csv": "eba40d1357758178d596b8f574912c9f787595a4316cef6cc5677967123d82ee",
    "moments/moments_horizons.json": "c59a33ef7ab2c6b52c2ab7e3098ff38330f5db6c4f1b8737ab2a2e98fe14cb97",
    "moments/moments_series.json": "8708b5e633b752adea0efbbb0b3069574740555e3a472820bba348e1e90979c9",
    "bounds/stdout": "4f4d1e202194d5a08f519a1fae6bed2debdb402261751a3e66ecac36eb26125f",
    "bounds/bounds.csv": "4f4d1e202194d5a08f519a1fae6bed2debdb402261751a3e66ecac36eb26125f",
    "bounds/bounds.json": "f5e30476f71db93419ee5851ee5c8505f5c92a54ff55405a0dddf05f15e7595d",
    "boundaries/stdout": "fcd7ceeb87edbed3584352fe9ce1f0d0dda8a8ca5438f33c72652e7358b4351a",
    "boundaries/boundaries.csv": "fcd7ceeb87edbed3584352fe9ce1f0d0dda8a8ca5438f33c72652e7358b4351a",
    "boundaries/boundaries.json": "0d9d605ca4bb2d622ed67007ce5b25192bd7edf4ba25beca68a3a9ddbb55c634",
    "simulate/10/estimate_heavy.json": "0b72c32d8b64698fbbb6340d4962f08f763c89d59bd0685a1f9ffa5f14c0eb9a",
    "simulate/10/estimate_matched.json": "c0ff8b810b60fda060b76d1906bcb808b97a8f44c3e121649d50a9dd02371874",
    "simulate/10/estimate_shape.json": "08a9207ee67147d45fabf9c7ba64e0d7553ca7ec34b85949df6c04f21375fa99",
    "simulate/10/estimate_sure.json": "770e1053a723b5f5df34557fc2b17aba9f77d692472387a1edfbd9f3525a47e0",
    "simulate/10/samples_heavy.csv": "2151d1c9ab430b2d59c1402cdda1c833093d50017da7fb235b94eaa75e81e17f",
    "simulate/10/samples_matched.csv": "8ac1e3d809b8446da4a432b8ec01a236250675a22a41818f5fa88d39f9175420",
    "simulate/10/samples_shape.csv": "85e7734f7b432e7adbaaceb6ce4a2dfc6b1c3f5da78002f17ef005e9ef405406",
    "simulate/10/samples_sure.csv": "9687816193db1919b11b3fd8aef84147f2f36193b842d8100b1c6032c67b7d80",
    "simulate/adaptive/estimate_heavy.json": "0577108fbe3d73d3228ca7249b9e9d955cc664a807cb3d9000ca1a9bb2212c73",
    "simulate/adaptive/estimate_matched.json": "0f6e175afe3c778b4274930d2c821750b3b8d6dd01d33e24ded3b19bfa2e6d95",
    "simulate/adaptive/estimate_shape.json": "a8459065e9b20cdf0cd045c4ca619d0c4bdb1319663a3fb5301294bf00412ee6",
    "simulate/adaptive/estimate_sure.json": "669d2d4db0945e157cc02bb71a19f4486927578685f42e3fdcdbbd984d7f7343",
    "simulate/adaptive/samples_heavy.csv": "671418fbb25dc5925057190122438bb5feb6ec3062a9394ca8b7deacd3b9f7f2",
    "simulate/adaptive/samples_matched.csv": "54ed00285722bc4622ff0748a62ada9cb807f1ed7362c6806898d343d43c747e",
    "simulate/adaptive/samples_shape.csv": "e57f93b1d9d959ea89b32a806724b6f18275266e5b364b371b954ece743db0ef",
    "simulate/adaptive/samples_sure.csv": "6a0c598e380113c6609de05d19ae75d3620e22267add8d954705e475bfddd5a4",
}


# The numpy dispatch targets that use AVX-512; disabling them selects the
# AVX2 kernels.  These outputs differ there, the others keep their bytes.
AVX512_FEATURES = ("X86_V4", "AVX512_ICL", "AVX512_SPR")
GOLDEN_WITHOUT_AVX512 = {
    **GOLDEN,
    "reproduce/table_2.csv": "61175df231a44a74ff77717c28c332d44c3f0e88783193c57c31031db12bc161",
    "reproduce/table_2_deltas.json": "24dfa87fc850fcd032b1854e585de3a43df282bb21e6cef3023a3c347db4bcb0",
    "reproduce/table_5.csv": "342f9ed58e44d2ad19c4a5a55938b4e69a2f466546a9c5593449b07c9521d86e",
    "reproduce/table_5_deltas.json": "73af69af1926cc40d0fca0eb0abfda1d427a0df115a8e96b233c42a18b8097ea",
    "reproduce/table_8.csv": "a34737073c130a7144be8caa45e5e4b6a036a16f9849f7c4c3ad2b4fd4064026",
    "reproduce/table_8_deltas.json": "85f0023acd77fa93ce95dbee2ccf9b6ad284673da36092b657cd20db07a5ca7b",
    "moments/stdout": "f70be5169b6e91ae3f730c3d798427f55886d96f8e2faf225f6e8b154fdcb04a",
    "moments/moments_horizons.csv": "5448a0edcbe3d90eb5e87d94328c96c87e10af51b3336463d5851eb79004c53f",
    "moments/moments_series.csv": "32673b02a12026ae034552f7b447a56dfca00ef48e822108d7b111da8b0ac61d",
    "moments/moments_horizons.json": "495e842d8435d40eebe1c6ee35b3301937bc57ea0410c711f11ea39116ad8623",
    "moments/moments_series.json": "cd3ab8d5dc4f64a42004fc1363d9800690306086fff357706abaa7f9ec6fdcfe",
    "boundaries/stdout": "84358c0d75fa3eb0a4e339c5d44ffe92f29ad8a02e73c1d18743de181c658c39",
    "boundaries/boundaries.csv": "84358c0d75fa3eb0a4e339c5d44ffe92f29ad8a02e73c1d18743de181c658c39",
    "boundaries/boundaries.json": "2233a3994da0dbd6c01e1c6ff9c3a9ba9468acc788e3cb348ce6df5d404205f7",
    "simulate/10/samples_heavy.csv": "feeeb992f59a77c5a6fcdf6e0f9e2cd339227095b4824c2d9f07e68b4bbf838a",
    "simulate/10/samples_matched.csv": "58fc2f49fd846a255a06d9475d3c92f2fb705224d1e3b5001b48d1008c5c84df",
    "simulate/adaptive/samples_heavy.csv": "2380e50400368fc11cb9b2c41b6970ca1590dabe6a431144c02a358f83b67dbe",
    "simulate/adaptive/samples_matched.csv": "88c3e4a8036e64b55df72ce3e9c52dd5344dbd5d752eabf8175fc4254b8e99a4",
}


def _dispatches_avx512() -> bool:
    from numpy._core._multiarray_umath import __cpu_features__

    return all(__cpu_features__.get(name, False) for name in AVX512_FEATURES)


# the digest set of the path that the outputs run here take
EXPECTED = GOLDEN if _dispatches_avx512() else GOLDEN_WITHOUT_AVX512


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return collect_outputs(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def computed(outputs):
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}


def test_same_outputs_are_covered(computed):
    assert sorted(computed) == sorted(GOLDEN) == sorted(GOLDEN_WITHOUT_AVX512)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_unchanged(computed, name):
    assert computed[name] == EXPECTED[name]


def test_output_bytes_without_avx512():
    # a child process with the AVX-512 kernels disabled takes a CPU's path without them
    if not _dispatches_avx512():
        pytest.skip("numpy dispatches no AVX-512 kernels here: the outputs above are "
                    "checked against GOLDEN_WITHOUT_AVX512, and GOLDEN cannot be checked")
    tests_dir = Path(__file__).resolve().parent
    src = tests_dir.parent / "src"
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(AVX512_FEATURES),
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(src), str(tests_dir), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         "import json, test_golden; print(json.dumps(test_golden.compute_digests()))"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    computed = json.loads(proc.stdout)
    assert {n: d for n, d in computed.items() if d != GOLDEN_WITHOUT_AVX512[n]} == {}


@pytest.mark.parametrize("name", sorted(n for n in GOLDEN if n.endswith((".csv", "/stdout"))))
def test_untyped_read_matches_per_cell_parse(outputs, tmp_path, name):
    # imported here, so that print_digests also runs without tests/ on the path
    from oracles import identical, per_cell_read_csv

    path = tmp_path / "out.csv"
    path.write_bytes(outputs[name])
    assert identical(read_csv_table(path), per_cell_read_csv(outputs[name].decode()))
