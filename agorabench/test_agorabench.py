"""Tests of the benchmark itself: python3 -m pytest agorabench"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import marketgen  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = sorted(marketgen.WORKLOADS)


def tiny(workload: str, seed: int = 3) -> str:
    return marketgen.generate(workload, seed, **marketgen.WORKLOADS[workload].tiny)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(workload):
    assert marketgen.generate(workload, 7) == marketgen.generate(workload, 7)
    assert marketgen.generate(workload, 7) != marketgen.generate(workload, 8)
    assert tiny(workload) == tiny(workload)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generated_scenarios_validate(workload):
    from agorasim.simulation import load_scenario

    scenario = load_scenario(marketgen.generate(workload, 5))
    assert scenario.agents and scenario.advertisements and scenario.rfqs


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_writes_untraced_bytes_and_restores(workload, tmp_path):
    import agorasim.simulation as simulation

    original = simulation.agent_step
    text = tiny(workload)
    plain, _ = run.run_once(text, tmp_path)
    tracer = Tracer()
    traced, absent = run.run_once(text, tmp_path, tracer)
    assert traced.digests == plain.digests
    assert absent == set()
    assert simulation.agent_step is original
    values, missing = layers.metrics(tracer, absent)
    assert missing == []
    assert values["agent.steps"] > 0 and values["marketplace.routed"] > 0


def test_missing_target_is_reported_absent(tmp_path, monkeypatch):
    from agorasim.marketplace import Marketplace

    monkeypatch.delattr(Marketplace, "recompute_trust")
    monkeypatch.setattr(Marketplace, "_on_close", lambda self, session: None)
    tracer = Tracer()
    _, absent = run.run_once(tiny("dense-market"), tmp_path, tracer)
    assert "marketplace.trust" in absent
    values, missing = layers.metrics(tracer, absent)
    assert "marketplace.trust_calls" in missing and values["marketplace.trust_calls"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_measure(workload, trace, tmp_path):
    m = run.measure(tiny(workload), 0.0, bool(trace), tmp_path)
    assert m.failed == 0
    assert len(m.plain) >= run.MIN_SAMPLES
    e2e = run.end_to_end(m)
    assert all(e2e[name]["value"] > 0 for name in run.END_TO_END)
    if trace:
        sim, _ = run.simulated_stats(m.reference.texts)
        values = run.per_layer(m, sim, 0.0)
        assert set(run.PER_LAYER) <= set(values)
        assert values["trace.overhead"] > 0


def test_cli_writes_the_benchmark_bytes(tmp_path):
    text = tiny("long-negotiation")
    sample, _ = run.run_once(text, tmp_path / "bench")
    assert run.check_cli(text, tmp_path / "cli", sample.digests)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_pins_hold_and_catch_moved_bytes(workload, tmp_path):
    pins = run.load_pins()
    assert run.check_pinned(pins, workload, tmp_path)
    pins["workloads"][workload]["report.txt"] = "0" * 64
    assert not run.check_pinned(pins, workload, tmp_path)


def test_failed_run_still_prints_the_result_line(monkeypatch, capsys):
    import agorasim.simulation as simulation

    def broken(scenario):
        raise RuntimeError("broken on purpose")

    monkeypatch.setattr(simulation, "run_simulation_with_market", broken)
    argv = ["--workload", "long-negotiation", "--seed", "3", "--seconds", "0", "--trace", "1"]
    assert run.main(argv) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False
    assert last["failed"] == last["attempted"] >= 1
    assert last["metrics"] == {"failed_share": {"value": 1.0, "unit": "share"}}


def test_multi_agreements_are_counted():
    texts = {
        "transcript.jsonl": "",
        "report.txt": "--- record ---\n" + json.dumps({
            "ticks": 3,
            "agents": [],
            "sessions": [
                {"session": f"s-{i}", "product": "p0", "buyer": "b", "seller": f"s{i}",
                 "outcome": "agreed", "reason": None}
                for i in (1, 2)
            ],
        }),
    }
    stats, multi = run.simulated_stats(texts)
    assert stats["sim.multi_agreement_agents"] == 1
    assert multi == [{"agent": "b", "product": "p0", "sessions": ["s-1", "s-2"]}]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(marketgen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
