"""Command-line entry point: validate scenarios, run simulations, render reports."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path
from typing import Optional, Sequence

from .simulation import (
    ScenarioParseError,
    ScenarioValidationError,
    emit_report,
    load_scenario,
    run_simulation_with_market,
)

EXIT_OK = 0
EXIT_FAILURE = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agorasim",
        description="Deterministic marketplace negotiation simulator",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="run a scenario and write transcript + report")
    run.add_argument("--scenario", required=True, help="scenario file path")
    run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run.add_argument("--out", default="out", help="output directory (default: out)")
    run.add_argument("-v", "--verbose", action="count", default=0)

    validate = sub.add_parser("validate", help="check a scenario file")
    validate.add_argument("--scenario", required=True, help="scenario file path")
    validate.add_argument("-v", "--verbose", action="count", default=0)

    report = sub.add_parser("report", help="summarize a transcript file")
    report.add_argument("--transcript", required=True, help="transcript file path")
    report.add_argument("-v", "--verbose", action="count", default=0)

    return parser


def _configure_logging(verbosity: int) -> None:
    level = logging.WARNING
    if verbosity == 1:
        level = logging.INFO
    elif verbosity >= 2:
        level = logging.DEBUG
    logging.basicConfig(level=level, stream=sys.stderr, format="%(name)s: %(message)s")


def _load(path: str) -> Optional[str]:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None


def _cmd_validate(args: argparse.Namespace) -> int:
    text = _load(args.scenario)
    if text is None:
        return EXIT_FAILURE
    try:
        scenario = load_scenario(text)
    except (ScenarioParseError, ScenarioValidationError) as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    print(
        f"OK: {scenario.name}: {len(scenario.agents)} agents, "
        f"{len(scenario.advertisements)} ads, {len(scenario.rfqs)} rfqs"
    )
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    text = _load(args.scenario)
    if text is None:
        return EXIT_FAILURE
    try:
        scenario = load_scenario(text)
    except (ScenarioParseError, ScenarioValidationError) as exc:
        print(f"error: {args.scenario}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    if args.seed is not None and not 0 <= args.seed < 2**64:
        print("error: --seed must be an unsigned 64-bit integer", file=sys.stderr)
        return EXIT_FAILURE
    transcript_lines, report, market = run_simulation_with_market(
        scenario, seed_override=args.seed
    )
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        transcript_path = out_dir / "transcript.jsonl"
        transcript_path.write_text(
            "".join(line + "\n" for line in transcript_lines), encoding="utf-8"
        )
        report_path = out_dir / "report.txt"
        report_path.write_text(emit_report(report), encoding="utf-8")
        trust_path = out_dir / "trust.jsonl"
        trust_path.write_text(
            "".join(line + "\n" for line in market.trust.export_lines()),
            encoding="utf-8",
        )
    except OSError as exc:
        print(f"error: cannot write outputs to {out_dir}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    agreed = sum(1 for s in report.sessions if s.outcome == "agreed")
    print(
        f"{report.scenario}: seed {report.seed}, {report.ticks} ticks, "
        f"{len(report.sessions)} sessions ({agreed} agreed); "
        f"wrote {transcript_path} and {report_path}"
    )
    return EXIT_OK


def _is_record(record: object) -> bool:
    """A transcript line the report can count: an object whose `kind` and
    `session`, where present, are strings and whose `tick` is an integer."""
    if not isinstance(record, dict):
        return False
    tick = record.get("tick", 0)
    return (
        isinstance(record.get("kind", ""), str)
        and isinstance(record.get("session", ""), str)
        and isinstance(tick, int)
        and not isinstance(tick, bool)
    )


def _cmd_report(args: argparse.Namespace) -> int:
    text = _load(args.transcript)
    if text is None:
        return EXIT_FAILURE
    sessions: dict[str, dict] = {}
    kinds: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            print(
                f"error: {args.transcript}:{lineno}: not a transcript record: {exc.msg}",
                file=sys.stderr,
            )
            return EXIT_FAILURE
        except (ValueError, RecursionError):
            # Valid JSON that Python will not build: nested too deeply, or
            # an integer past the interpreter's digit limit.
            record = None
        if not _is_record(record):
            print(
                f"error: {args.transcript}:{lineno}: not a transcript record",
                file=sys.stderr,
            )
            return EXIT_FAILURE
        kind = record.get("kind", "?")
        kinds[kind] = kinds.get(kind, 0) + 1
        entry = sessions.setdefault(
            record.get("session", "?"), {"messages": 0, "outcome": "open", "last_tick": 0}
        )
        entry["messages"] += 1
        entry["last_tick"] = record.get("tick", entry["last_tick"])
        if kind == "acquire":
            entry["outcome"] = "agreed"
        elif kind == "terminate":
            entry["outcome"] = "terminated"
    print(f"transcript: {args.transcript}")
    print(f"messages: {sum(kinds.values())} " f"({', '.join(f'{k}={kinds[k]}' for k in sorted(kinds))})")
    print(f"sessions: {len(sessions)}")
    for sid in sorted(sessions):
        entry = sessions[sid]
        print(
            f"  {sid}: {entry['outcome']}, {entry['messages']} messages, "
            f"last tick {entry['last_tick']}"
        )
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args.verbose)
    if args.verb == "run":
        return _cmd_run(args)
    if args.verb == "validate":
        return _cmd_validate(args)
    return _cmd_report(args)


if __name__ == "__main__":
    sys.exit(main())
