"""Regenerate pins.json: sha256 digests of the outputs the benchmark checks.

    python3 agorabench/pins.py            # rewrite pins.json, print what moved

Pins cover each workload at its pinned seed (default sizes) and the shipped
scenarios/*.yaml. A change that alters output bytes on purpose reruns this
and says so; otherwise a moved digest is a failure the benchmark reports.
"""

from __future__ import annotations

import json
import shutil
import sys

import marketgen
import run

DEFAULT_SEED = 0


def compute() -> dict:
    workdir = run.OUT / "pins-work"
    try:
        workloads = {}
        for name in sorted(marketgen.WORKLOADS):
            sample, _ = run.run_once(marketgen.generate(name, DEFAULT_SEED), workdir)
            workloads[name] = {"seed": DEFAULT_SEED, **sample.digests}
        scenarios = {}
        for path in sorted((run.ROOT / "scenarios").glob("*.yaml")):
            sample, _ = run.run_once(path.read_text(encoding="utf-8"), workdir)
            scenarios[path.name] = sample.digests
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"workloads": workloads, "scenarios": scenarios}


def main() -> int:
    run.check_program()
    old = run.load_pins() if run.PINS.exists() else {"workloads": {}, "scenarios": {}}
    new = compute()
    for group in ("workloads", "scenarios"):
        for name, entry in new[group].items():
            if old[group].get(name) != entry:
                print(f"{group}/{name}: changed")
    run.PINS.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
