"""Byte guard: small runs of every CSV-writing task against recorded digests.

``tests/data/artifact_digests.json`` holds, per case, the run config, the
seed, the exit code and the sha256 of every artifact the run wrote.  The
digests were recorded before the CSV writer was vectorised, from the
per-value ``%.16e`` writer, so a change in any written byte fails here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from fracspec.cli import main

CASES = json.loads((Path(__file__).parent / "data" / "artifact_digests.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_artifacts_match_recorded_digests(tmp_path, name):
    case = CASES[name]
    ini, out = tmp_path / "run.ini", tmp_path / "out"
    ini.write_text(case["config"])
    assert main(["--config", str(ini), "--out", str(out), "--seed", str(case["seed"])]) == case["exit"]
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == case["sha256"]
