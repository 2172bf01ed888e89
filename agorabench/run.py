"""agorasim benchmark: seeded generated markets, host-time metrics, traced layers.

    python3 agorabench/run.py --workload dense-market --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from `src/`. Each
run generates one scenario from the workload and seed (see marketgen.py) and
repeats, for `--seconds`, what `agorasim run` does: `load_scenario`,
`run_simulation_with_market`, then writing the transcript, `emit_report` and
the trust export. Every repetition's bytes must equal the first
repetition's (replay equality). Once per run, whatever the seed, the workload
at its pinned seed and the 4 shipped scenarios are run and checked against
the digests in pins.json, and the measured scenario's bytes must equal what
`agorasim.cli.main` writes.

`--trace 0` prints the median end-to-end metrics over the repetitions, in
host seconds rescaled to a reference host speed by a calibration workload
timed between repetitions (see `calibrate` and `end_to_end`). `--trace 1`
alternates plain and traced repetitions and prints the per-layer metrics of
the fastest traced one, the simulated statistics and `trace.overhead`, the
traced run time over the plain one. A traced repetition must write the same
bytes as a plain one.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. A fuller result file, with run metadata,
quartiles, the span tree and the simulated statistics, goes to
agorabench/out/<workload>-seed<seed>-trace<trace>.json. When no repetition
succeeds, the last line still comes, with `"correct": false`, no timing
metrics, and exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import layers
import marketgen
from tracer import Patcher, PhaseMarks, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
PINS = BENCH / "pins.json"
OUTPUTS = ("transcript.jsonl", "report.txt", "trust.jsonl")

MIN_SAMPLES = 3
# What `calibrate` takes on the reference host: reported times are host
# seconds times CAL_REF_S over the calibration time measured next to them.
CAL_REF_S = 0.25

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "emit_s": "s",
    "total_s": "s",
    "msgs_per_s": "1/s",
    "peak_rss_mb": "MB",
}
SIM_STATS = (
    "sim.ticks",
    "sim.sessions",
    "sim.agreed",
    "sim.open",
    "sim.terminated.deadline",
    "sim.terminated.better-deal",
    "sim.terminated.other",
    "sim.msgs.commence",
    "sim.msgs.offer",
    "sim.msgs.acquire",
    "sim.msgs.terminate",
    "sim.violations",
    "sim.multi_agreement_agents",
)
PER_LAYER = {
    **layers.METRICS,
    "trace.overhead": "ratio",
    **{name: "count" for name in SIM_STATS},
    "failed_share": "share",
}

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


class ProgramMissing(RuntimeError):
    pass


def check_program() -> Any:
    """Import agorasim from this checkout's src/, or raise ProgramMissing."""
    try:
        import agorasim
        from agorasim import cli, simulation  # noqa: F401
    except ImportError as exc:
        raise ProgramMissing(f"cannot import agorasim from {SRC}: {exc}") from None
    origin = Path(agorasim.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ProgramMissing(f"agorasim imported from {origin}, not from {SRC}")
    return agorasim


# ---------------------------------------------------------------------------
# One repetition
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    setup_s: float
    run_s: float
    emit_s: float
    total_s: float
    messages: int
    digests: dict[str, str]
    texts: Optional[dict[str, str]] = None
    scale: float = 1.0  # CAL_REF_S over the calibration times around this repetition

    def scaled(self, name: str) -> float:
        """A time in reference seconds, or msgs_per_s per reference second."""
        if name == "msgs_per_s":
            return self.messages / (self.run_s * self.scale)
        return getattr(self, name) * self.scale


def _digests(texts: dict[str, str]) -> dict[str, str]:
    return {name: hashlib.sha256(t.encode("utf-8")).hexdigest() for name, t in texts.items()}


def run_once(
    text: str,
    workdir: Path,
    tracer: Optional[Tracer] = None,
    keep_texts: bool = False,
) -> tuple[Sample, set[str]]:
    """Load, simulate and emit one scenario; returns timings and absent layers."""
    from agorasim import simulation

    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    patcher = Patcher()
    marks = PhaseMarks()
    absent: set[str] = set()
    workdir.mkdir(parents=True, exist_ok=True)
    gc.collect()  # the previous repetition's garbage, outside the timed region
    try:
        if tracer is not None:
            absent = layers.install(tracer, patcher)
        marks.install(patcher)
        clock = time.perf_counter
        t_start = clock()
        scenario = simulation.load_scenario(text)
        t_loaded = clock()
        lines, report, market = simulation.run_simulation_with_market(scenario)
        t_ran = clock()
        with span("emit.transcript"):
            transcript = "".join(line + "\n" for line in lines)
            (workdir / "transcript.jsonl").write_text(transcript, encoding="utf-8")
        with span("emit.report"):
            report_text = simulation.emit_report(report)
            (workdir / "report.txt").write_text(report_text, encoding="utf-8")
        with span("emit.trust"):
            trust = "".join(line + "\n" for line in market.trust.export_lines())
            (workdir / "trust.jsonl").write_text(trust, encoding="utf-8")
        t_done = clock()
    finally:
        patcher.restore()
    setup_end = marks.first_tick if marks.first_tick is not None else t_loaded
    emit_start = marks.transcript if marks.transcript is not None else t_ran
    texts = dict(zip(OUTPUTS, (transcript, report_text, trust)))
    sample = Sample(
        setup_s=setup_end - t_start,
        run_s=emit_start - setup_end,
        emit_s=t_done - emit_start,
        total_s=t_done - t_start,
        messages=len(lines),
        digests=_digests(texts),
        texts=texts if keep_texts else None,
    )
    return sample, absent


def calibrate() -> float:
    """Time a fixed workload that uses no agorasim code; returns seconds.

    The host these numbers come from (shared vCPUs) runs the same code up to
    1.5x slower for minutes at a time, through contention for shared caches
    and memory, not through lost CPU time. The simulator walks tens of MB of
    small objects, so the calibration does too: it builds about 20 MB of
    small dicts, walks them twice in shuffled order and serialises a third
    of them. A tight loop that stays in the L1 cache tracks only part of
    the slowdown.
    """
    rng = random.Random(2)
    began = time.perf_counter()
    objects = [{"id": i, "v": float(i), "s": f"x{i}"} for i in range(60000)]
    order = list(range(len(objects)))
    rng.shuffle(order)
    total = 0.0
    for _ in range(2):
        for i in order:
            obj = objects[i]
            total += obj["v"] * 0.5 + len(obj["s"])
    "".join(json.dumps(objects[i]) for i in order[:20000])
    return time.perf_counter() - began


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------

def load_pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))


def check_pinned(pins: dict, workload: str, workdir: Path) -> bool:
    """Run the workload once at its pinned seed; True when its bytes match."""
    entry = pins["workloads"][workload]
    try:
        sample, _ = run_once(marketgen.generate(workload, entry["seed"]), workdir)
    except Exception:
        traceback.print_exc()
        return False
    return sample.digests == {name: entry[name] for name in OUTPUTS}


def check_shipped(pins: dict, workdir: Path) -> list[str]:
    """Run each shipped scenario once; returns the names whose bytes moved."""
    failures = []
    for name, expected in sorted(pins["scenarios"].items()):
        try:
            text = (ROOT / "scenarios" / name).read_text(encoding="utf-8")
            sample, _ = run_once(text, workdir)
        except Exception:
            traceback.print_exc()
            failures.append(name)
            continue
        if sample.digests != expected:
            failures.append(name)
    return failures


def check_cli(text: str, workdir: Path, expected: dict[str, str]) -> bool:
    """The bytes `agorasim run` writes for this scenario equal the benchmark's."""
    from agorasim import cli

    workdir.mkdir(parents=True, exist_ok=True)
    scenario = workdir / "scenario.yaml"
    scenario.write_text(text, encoding="utf-8")
    out = workdir / "cli"
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--scenario", str(scenario), "--out", str(out)])
        written = {name: (out / name).read_text(encoding="utf-8") for name in OUTPUTS}
    except Exception:
        traceback.print_exc()
        return False
    return code == 0 and _digests(written) == expected


def simulated_stats(texts: dict[str, str]) -> tuple[dict[str, int], list[dict]]:
    """Exact counts read back from the written outputs, plus multi-agreements.

    A multi-agreement is an agent holding more than one AGREED session for
    the same product.
    """
    report = texts["report.txt"]
    record = json.loads(report[report.index("--- record ---") + len("--- record ---"):])
    sessions = record["sessions"]
    kinds = Counter(json.loads(line)["kind"] for line in texts["transcript.jsonl"].splitlines())
    stats = {
        "sim.ticks": record["ticks"],
        "sim.sessions": len(sessions),
        "sim.agreed": sum(s["outcome"] == "agreed" for s in sessions),
        "sim.open": sum(s["outcome"] == "open" for s in sessions),
        "sim.violations": sum(a["violations"] for a in record["agents"]),
    }
    reasons = Counter(s["reason"] for s in sessions if s["outcome"] == "terminated")
    for reason in ("deadline", "better-deal"):
        stats[f"sim.terminated.{reason}"] = reasons.pop(reason, 0)
    stats["sim.terminated.other"] = sum(reasons.values())
    for kind in ("commence", "offer", "acquire", "terminate"):
        stats[f"sim.msgs.{kind}"] = kinds.get(kind, 0)
    held: dict[tuple[str, str], list[str]] = {}
    for s in sessions:
        if s["outcome"] == "agreed":
            for agent in (s["buyer"], s["seller"]):
                held.setdefault((agent, s["product"]), []).append(s["session"])
    multi = [
        {"agent": agent, "product": product, "sessions": sids}
        for (agent, product), sids in sorted(held.items())
        if len(sids) > 1
    ]
    stats["sim.multi_agreement_agents"] = len({m["agent"] for m in multi})
    return stats, multi


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def quartiles(values: list[float]) -> dict[str, float]:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "min": min(values), "max": max(values), "n": len(values), "samples": values}


@dataclass
class Measurement:
    attempted: int
    failed: int
    plain: list[Sample]
    traced: list[tuple[Sample, dict[str, float], list[dict]]]  # with span tree
    reference: Optional[Sample]
    absent: set[str]
    missing: list[str]
    calibrations: list[float]
    peak_rss_mb: float = 0.0


def measure(
    text: str,
    seconds: float,
    trace: bool,
    workdir: Path,
) -> Measurement:
    """Repeat the scenario for `seconds`, alternating plain/traced if `trace`.

    Every repetition's digests must equal those of the first successful one.
    The calibration runs after each repetition; a repetition's scale uses
    the calibrations on both sides of it. Peak memory is read after the
    first repetition, before the calibration first runs.
    """
    m = Measurement(0, 0, [], [], None, set(), [], [])
    expected: Optional[dict[str, str]] = None
    deadline = time.perf_counter() + seconds
    durations: list[float] = []
    while True:
        traced = trace and m.attempted % 2 == 1
        tracer = Tracer() if traced else None
        m.attempted += 1
        began = time.perf_counter()
        try:
            sample, absent = run_once(text, workdir, tracer, keep_texts=m.reference is None)
        except Exception:
            traceback.print_exc()
            m.failed += 1
            sample = None
        if m.attempted == 1:
            m.peak_rss_mb = peak_rss_mb()
        m.calibrations.append(calibrate())
        if sample is not None:
            sample.scale = CAL_REF_S / statistics.fmean(m.calibrations[-2:])
            if expected is None:
                expected = sample.digests
            if sample.digests != expected:
                print(f"output bytes differ from the reference (traced={traced})",
                      file=sys.stderr)
                m.failed += 1
            else:
                if m.reference is None:
                    m.reference = sample
                if tracer is None:
                    m.plain.append(sample)
                else:
                    values, m.missing = layers.metrics(tracer, absent)
                    m.traced.append((sample, values, tracer.tree()))
                    m.absent = absent
        durations.append(time.perf_counter() - began)
        enough = len(m.plain) >= MIN_SAMPLES and (not trace or len(m.traced) >= MIN_SAMPLES)
        next_end = time.perf_counter() + max(durations[-2:])
        if next_end > deadline and (enough or m.attempted >= 4 * MIN_SAMPLES):
            return m


def end_to_end(m: Measurement) -> dict[str, dict]:
    """Per metric: the median over plain repetitions ("value") and its spread.

    Times are in reference seconds (see `calibrate`); each entry also gives
    the unscaled host times as "host".
    """
    stats = {}
    for name in ("setup_s", "run_s", "emit_s", "total_s", "msgs_per_s"):
        stats[name] = quartiles([s.scaled(name) for s in m.plain])
        stats[name]["value"] = stats[name]["median"]
        if name != "msgs_per_s":
            stats[name]["host"] = quartiles([getattr(s, name) for s in m.plain])
    stats["peak_rss_mb"] = {**quartiles([m.peak_rss_mb]), "value": m.peak_rss_mb}
    return stats


def fastest_traced(m: Measurement) -> tuple[Sample, dict[str, float], list[dict]]:
    """The traced repetition with the lowest total in reference seconds."""
    return min(m.traced, key=lambda t: t[0].scaled("total_s"))


def per_layer(m: Measurement, sim: dict[str, int], failed_share: float) -> dict[str, float]:
    _, layer_values, _ = fastest_traced(m)
    values = dict(layer_values)
    values["trace.overhead"] = (
        statistics.median(t[0].scaled("run_s") for t in m.traced)
        / statistics.median(s.scaled("run_s") for s in m.plain)
    )
    values.update(sim)
    values["failed_share"] = failed_share
    return values


# ---------------------------------------------------------------------------
# Metadata and entry point
# ---------------------------------------------------------------------------

def _head_commit() -> Optional[str]:
    """HEAD, read from .git without running git; the tree may differ from it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    """One digest over the program's source files, the code actually measured."""
    digest = hashlib.sha256()
    package = SRC / "agorasim"
    for path in sorted(package.rglob("*")):
        if path.suffix in (".py", ".pyx", ".pxd", ".c") and "__pycache__" not in path.parts:
            digest.update(path.relative_to(package).as_posix().encode("utf-8") + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def metadata(agorasim: Any) -> dict[str, Any]:
    import yaml

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "backend": agorasim.BACKEND,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "yaml_csafeloader": hasattr(yaml, "CSafeLoader"),
        "head_commit": _head_commit(),
        "src_sha256": _src_sha256(),
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(marketgen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        agorasim = check_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    pins = load_pins()
    text = marketgen.generate(args.workload, args.seed)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        shipped_failed = check_shipped(pins, workdir)
        pinned_ok = check_pinned(pins, args.workload, workdir)
        m = measure(text, args.seconds, bool(args.trace), workdir)
        cli_ok = m.reference is not None and check_cli(text, workdir, m.reference.digests)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    measured = bool(m.plain) and (not args.trace or bool(m.traced))
    attempted = m.attempted + len(pins["scenarios"]) + 2
    failed = m.failed + len(shipped_failed) + (not pinned_ok) + (not cli_ok)
    result: dict[str, Any] = {
        "workload": args.workload,
        "why": marketgen.WORKLOADS[args.workload].why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metadata": metadata(agorasim),
        "attempted": attempted,
        "failed": failed,
        "failures": {
            "repetitions": m.failed,
            "shipped_scenarios": shipped_failed,
            "workload_pin": not pinned_ok,
            "cli_bytes": not cli_ok,
        },
        "digests": m.reference.digests if m.reference is not None else None,
    }
    units = PER_LAYER if args.trace else END_TO_END
    if not measured:
        print("error: no repetition succeeded", file=sys.stderr)
        metrics = {"failed_share": failed / attempted} if args.trace else {}
    else:
        sim, multi = simulated_stats(m.reference.texts)
        e2e = end_to_end(m)
        result.update(end_to_end=e2e, calibration_s=quartiles(m.calibrations),
                      simulated=sim, multi_agreements=multi)
        if args.trace:
            layer_values = per_layer(m, sim, failed / attempted)
            metrics = {name: layer_values[name] for name in PER_LAYER}
            result.update(per_layer=layer_values, absent=sorted(m.absent),
                          absent_metrics=m.missing, spans=fastest_traced(m)[2])
            if m.missing:
                print(f"absent layers (reported as 0): {', '.join(m.missing)}",
                      file=sys.stderr)
        else:
            metrics = {name: e2e[name]["value"] for name in END_TO_END}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps({
        "correct": measured and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if measured else 1


if __name__ == "__main__":
    sys.exit(main())
