"""Golden outputs: the shipped scenarios and the benchmark's generated
workloads reproduce their pinned digests.

The digests are the `scenarios` and `workloads` entries of
agorabench/pins.json, which the benchmark also checks; this test only reads
them. The workload scenarios come from agorabench/marketgen.py at each
workload's pinned seed. A change that alters the output bytes on purpose
regenerates them with `python3 agorabench/pins.py`.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from agorasim.cli import main

ROOT = Path(__file__).resolve().parents[1]
PINS = json.loads((ROOT / "agorabench" / "pins.json").read_text(encoding="utf-8"))
OUTPUTS = ("transcript.jsonl", "report.txt", "trust.jsonl")


def _marketgen():
    """agorabench/marketgen.py, imported by path: agorabench is no package."""
    if "marketgen" not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            "marketgen", ROOT / "agorabench" / "marketgen.py"
        )
        module = importlib.util.module_from_spec(spec)
        # dataclasses look the module up in sys.modules while it executes.
        sys.modules["marketgen"] = module
        spec.loader.exec_module(module)
    return sys.modules["marketgen"]


def _run_digests(scenario: Path, out: Path) -> dict[str, str]:
    assert main(["run", "--scenario", str(scenario), "--out", str(out)]) == 0
    return {
        artifact: hashlib.sha256((out / artifact).read_bytes()).hexdigest()
        for artifact in OUTPUTS
    }


@pytest.mark.parametrize("name", sorted(PINS["scenarios"]))
def test_shipped_scenario_matches_pins(name, tmp_path, capsys):
    digests = _run_digests(ROOT / "scenarios" / name, tmp_path)
    assert digests == PINS["scenarios"][name]


@pytest.mark.parametrize("workload", sorted(PINS["workloads"]))
def test_generated_workload_matches_pins(workload, tmp_path, capsys):
    pinned = PINS["workloads"][workload]
    scenario = tmp_path / f"{workload}.yaml"
    scenario.write_text(_marketgen().generate(workload, pinned["seed"]), encoding="utf-8")
    digests = _run_digests(scenario, tmp_path / "out")
    assert digests == {artifact: pinned[artifact] for artifact in OUTPUTS}
