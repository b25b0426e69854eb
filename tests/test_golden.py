"""Byte-identity of every CLI output against digests of recorded outputs.

Each digest is the SHA-256 of one output (a file written by the CLI, or the
CSV it prints to stdout).  A refactor that keeps behaviour fixed must leave
every digest as it is.  The digests were recorded on x86-64 Linux with
numpy 2.4.6; a platform whose ``math.exp`` rounds differently in the last
place changes them.  A deliberate output change re-records them with::

    PYTHONPATH=src python -c "import tests.test_golden as g; g.print_digests()"
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from ruinbounds.cli import main

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
    return outputs


def digests(root: Path) -> dict:
    return {name: hashlib.sha256(data).hexdigest()
            for name, data in collect_outputs(root).items()}


def print_digests() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name, digest in digests(Path(tmp)).items():
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
}


@pytest.fixture(scope="module")
def computed(tmp_path_factory):
    return digests(tmp_path_factory.mktemp("golden"))


def test_same_outputs_are_covered(computed):
    assert sorted(computed) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_unchanged(computed, name):
    assert computed[name] == GOLDEN[name]
