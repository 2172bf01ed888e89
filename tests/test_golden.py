"""Golden outputs: the shipped scenarios reproduce their pinned digests.

The digests are the `scenarios` entries of agorabench/pins.json, which the
benchmark also checks; this test only reads them. A change that alters the
output bytes on purpose regenerates them with `python3 agorabench/pins.py`.
"""

import hashlib
import json
from pathlib import Path

import pytest

from agorasim.cli import main

ROOT = Path(__file__).resolve().parents[1]
PINS = json.loads((ROOT / "agorabench" / "pins.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(PINS["scenarios"]))
def test_shipped_scenario_matches_pins(name, tmp_path, capsys):
    assert main(["run", "--scenario", str(ROOT / "scenarios" / name), "--out", str(tmp_path)]) == 0
    digests = {
        artifact: hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest()
        for artifact in PINS["scenarios"][name]
    }
    assert digests == PINS["scenarios"][name]
