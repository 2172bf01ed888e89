"""Scale ladder: the dense-market shape at growing agent counts (not gated).

    python3 agorabench/ladder.py

Each rung generates a dense market (every agent trades 2 products, about 6
buyers and 6 sellers per product, everything posted at tick 0) and runs it
once, untraced. It records run_s, sessions and messages per rung and the
fitted exponent of run_s against sessions. Before running a rung, its time
is predicted from the rungs already run (run_s ~ agents**e, e fitted; 3
before two rungs exist); a rung predicted over BUDGET_S (120 s) is recorded as
skipped, not run, and so is every larger rung. The result, with run
metadata, is written to agorabench/BENCH_ladder.json.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from typing import Optional

import marketgen
import run

RUNGS = (20, 50, 100, 200, 600, 2000)
AGENTS_PER_PRODUCT = 6
BUDGET_S = 120.0
SEED = 0


def fit_exponent(xs: list[float], ys: list[float]) -> Optional[float]:
    """Least-squares slope of log(y) against log(x)."""
    if len(xs) < 2:
        return None
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    den = sum((x - mx) ** 2 for x in lx)
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / den if den else None


def main() -> int:
    agorasim = run.check_program()

    rows: list[dict] = []
    ran: list[dict] = []
    workdir = run.OUT / "ladder-work"
    try:
        for agents in RUNGS:
            exponent = fit_exponent([r["agents"] for r in ran], [r["run_s"] for r in ran])
            predicted = None
            if ran:
                last = ran[-1]
                predicted = last["run_s"] * (agents / last["agents"]) ** (exponent or 3.0)
            if predicted is not None and (predicted > BUDGET_S or len(ran) < len(rows)):
                rows.append({"agents": agents, "skipped": True, "predicted_run_s": predicted})
                print(f"{agents:5d} agents: skipped, predicted {predicted:.0f} s", flush=True)
                continue
            products = max(2, agents // AGENTS_PER_PRODUCT)
            text = marketgen.dense_market(SEED, agents=agents, products=products)
            sample, _ = run.run_once(text, workdir, keep_texts=True)
            sim, _ = run.simulated_stats(sample.texts)
            row = {
                "agents": agents,
                "products": products,
                "skipped": False,
                "setup_s": sample.setup_s,
                "run_s": sample.run_s,
                "emit_s": sample.emit_s,
                "sessions": sim["sim.sessions"],
                "messages": sample.messages,
            }
            rows.append(row)
            ran.append(row)
            print(
                f"{agents:5d} agents: {row['sessions']:6d} sessions "
                f"{row['messages']:7d} msgs  run {row['run_s']:.3f} s",
                flush=True,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    exponent = fit_exponent([r["sessions"] for r in ran], [r["run_s"] for r in ran])
    result = {
        "shape": "dense-market",
        "seed": SEED,
        "budget_s": BUDGET_S,
        "metadata": run.metadata(agorasim),
        "rungs": rows,
        "run_s_vs_sessions_exponent": exponent,
    }
    (run.BENCH / "BENCH_ladder.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8"
    )
    if exponent is not None:
        print(f"run_s ~ sessions^{exponent:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
