"""CLI verbs, exit codes, and artifact determinism."""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

from agorasim import yamlload
from agorasim.cli import main
from conftest import BILATERAL_SCENARIO

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BILATERAL_FILE = (ROOT / "scenarios" / "bilateral.yaml").read_text(encoding="utf-8")

# Runs the CLI in a child process, first hiding libyaml if argv[1] is "pure".
CLI_UNDER_LOADER = """
import sys, yaml
if sys.argv[1] == "pure" and hasattr(yaml, "CSafeLoader"):
    del yaml.CSafeLoader
from agorasim.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(BILATERAL_SCENARIO, encoding="utf-8")
    return path


class TestArgumentParsing:
    def test_missing_verb_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_scenario_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self, scenario_file):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scenario", str(scenario_file), "--bogus"])
        assert exc.value.code == 2

    def test_unknown_verb_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


class TestValidate:
    def test_valid_scenario(self, scenario_file, capsys):
        assert main(["validate", "--scenario", str(scenario_file)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("OK")

    def test_invalid_scenario_names_the_agenda(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(
            BILATERAL_SCENARIO.replace("weight: 1.0, min: 10", "weight: 0.8, min: 10"),
            encoding="utf-8",
        )
        assert main(["validate", "--scenario", str(path)]) == 1
        err = capsys.readouterr().err
        assert "agendas" in err

    @pytest.mark.parametrize("verb", ["validate", "run"])
    def test_misspelled_key_names_its_path(self, tmp_path, capsys, verb):
        # Before keys were checked, the typo validated OK and the run used
        # the default stance.
        path = tmp_path / "typo.yaml"
        path.write_text(
            BILATERAL_SCENARIO.replace("{stance: conceder", "{stanse: conceder", 1),
            encoding="utf-8",
        )
        out = ["--out", str(tmp_path / "out")] if verb == "run" else []
        assert main([verb, "--scenario", str(path), *out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "$.agents[0].tactic.stanse: unknown key" in err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "--scenario", str(tmp_path / "nope.yaml")]) == 1
        assert "error" in capsys.readouterr().err

    def test_infinite_range_names_the_field(self, tmp_path, capsys):
        path = tmp_path / "inf.yaml"
        path.write_text(
            BILATERAL_SCENARIO.replace("min: 10, max: 20}", "min: 10, max: .inf}", 1),
            encoding="utf-8",
        )
        assert main(["validate", "--scenario", str(path)]) == 1
        assert "$.agents[0].agendas[0].issues[0].max" in capsys.readouterr().err
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1


class TestHostileInput:
    """Documents that once crashed the CLI or passed validation and then
    failed the run. Deep nesting must stop at the loader's depth cap with a
    line number, whichever parser reads it, and a bad tagged scalar must be
    an error at its line. Each runs in a child process so that a crash
    fails the test instead of the suite."""

    DOCUMENTS = {
        "deep-flow": "[" * 5000 + "]" * 5000,
        # Never closed, and far longer than the pure scanner's look-ahead.
        "deep-flow-huge": "[" * 200_000,
        # A tagged document, which PyYAML's own loader reads, nested past the
        # depth cap and past the stack of PyYAML's recursive pure composer.
        "deep-tagged": "!!seq " + "[" * 499 + "]" * 499,
        "deep-block": "- " * 50000 + "x\n",
        "bad-tagged-int": "name: x\nt_end: !!int many\n",
        # A decimal past int()'s 4300 digits: a bare ValueError in SafeLoader.
        "long-decimal": "name: x\nt_end: " + "1" * 5000 + "\n",
        # Once validated as OK, then run without ever posting the ad.
        "ad-before-start": BILATERAL_FILE.replace(
            "{agent: seller-1, product: vm}", "{agent: seller-1, product: vm, posted_at: -3}"
        ),
        "ad-after-end": BILATERAL_FILE.replace(
            "{agent: seller-1, product: vm}", "{agent: seller-1, product: vm, posted_at: 500}"
        ),
        # Once validated as OK, then run into an EmptyAgendaError traceback.
        "ad-without-issues": BILATERAL_FILE.replace(
            "{agent: seller-1, product: vm}", "{agent: seller-1, product: vm, issues: []}"
        ),
        "rfq-without-issues": BILATERAL_FILE.replace(
            "{agent: buyer-1, product: vm}", "{agent: buyer-1, product: vm, issues: []}"
        ),
        # Once validated as OK, then run into NaN offers: max - min is inf.
        "overflowing-range": BILATERAL_FILE.replace(
            "min: 10, max: 20}", "min: -1.0e+308, max: 1.0e+308}"
        ),
        # Once validated as OK, then run into an OverflowError converting a
        # tick to float.
        "ticks-past-float": BILATERAL_FILE.replace(
            "t_end: 64", f"t_end: {10**309}"
        ).replace("t_max: 20", f"t_max: {10**309}"),
        # Once an OverflowError traceback converting the bound to float.
        "int-past-float": BILATERAL_FILE.replace("max: 20}", f"max: {10**309}}}", 1),
        # 600 block mappings, one per line, each indented one space deeper:
        # the line scanner hands it to the second tier, which stops at the cap.
        "deep-block-lines": BILATERAL_FILE + "junk:\n"
        + "".join(" " * depth + "a:\n" for depth in range(1, 601)),
    }

    def run_cli(self, tmp_path, text: str, verb: str, loader: str) -> tuple:
        """The child process's result and the document's path."""
        if loader == "libyaml" and not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML was built without libyaml")
        path = tmp_path / "hostile.yaml"
        path.write_text(text, encoding="utf-8")
        args = [verb, "--scenario", str(path)]
        if verb == "run":
            args += ["--out", str(tmp_path / "out")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )}
        done = subprocess.run(
            [sys.executable, "-c", CLI_UNDER_LOADER, loader, *args],
            capture_output=True, text=True, env=env, timeout=60,
        )
        return done, path

    @pytest.mark.parametrize("loader", ["libyaml", "pure"])
    @pytest.mark.parametrize("verb", ["validate", "run"])
    @pytest.mark.parametrize("doc", sorted(DOCUMENTS))
    def test_fails_cleanly(self, tmp_path, doc, verb, loader):
        done, _ = self.run_cli(tmp_path, self.DOCUMENTS[doc], verb, loader)
        assert done.returncode == 1, done.stderr
        assert done.stderr.startswith("error: ")
        assert "Traceback" not in done.stderr

    @pytest.mark.parametrize("doc, path", [
        ("ad-without-issues", "$.advertisements[0].issues"),
        ("rfq-without-issues", "$.rfqs[0].issues"),
    ])
    def test_empty_issue_list_names_the_posting(self, tmp_path, capsys, doc, path):
        scenario = tmp_path / "hostile.yaml"
        scenario.write_text(self.DOCUMENTS[doc], encoding="utf-8")
        assert main(["validate", "--scenario", str(scenario)]) == 1
        assert f"{path}: expected at least one issue" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", [
        ("overflowing-range", "$.agents[0].agendas[0]: issue 'price': width of"),
        ("ticks-past-float", "$.t_end: t_end must be at most 2**53"),
        ("int-past-float", "$.agents[0].agendas[0].issues[0].max: expected a finite number"),
    ])
    def test_out_of_float_range_names_the_path(self, tmp_path, capsys, doc, message):
        scenario = tmp_path / "hostile.yaml"
        scenario.write_text(self.DOCUMENTS[doc], encoding="utf-8")
        assert main(["validate", "--scenario", str(scenario)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("loader", ["libyaml", "pure"])
    def test_deep_block_lines_fail_at_the_capping_line(self, tmp_path, loader):
        done, path = self.run_cli(tmp_path, self.DOCUMENTS["deep-block-lines"], "validate", loader)
        # The root, `junk`'s mapping and MAX_DEPTH - 2 more are within the
        # cap; the mapping that begins with the MAX_DEPTH-th `a:` is one too
        # many.
        line = BILATERAL_FILE.count("\n") + 1 + yamlload.MAX_DEPTH
        assert done.stderr == f"error: {path}: line {line}: document is nested too deeply\n"

    @pytest.mark.parametrize("loader", ["libyaml", "pure"])
    def test_deep_block_lines_load_at_the_cap(self, tmp_path, loader):
        # MAX_DEPTH levels: the root, `junk`'s mapping and one more for each
        # `a:` but the last, whose value is null.
        text = BILATERAL_FILE + "junk:\n" + "".join(
            " " * depth + "a:\n" for depth in range(1, yamlload.MAX_DEPTH)
        )
        done, path = self.run_cli(tmp_path, text, "validate", loader)
        assert done.stderr.startswith(f"error: {path}: $.junk: unknown key")

    @staticmethod
    def flow_lines(depth: int) -> str:
        """The bilateral scenario with an unknown key whose value reaches
        `depth` levels, counting the root mapping, one bracket a line: a flow
        sequence, which PyYAML's own loader reads."""
        brackets = depth - 1
        return BILATERAL_FILE + "junk:\n" + " [\n" * brackets + " " + "]" * brackets + "\n"

    @pytest.mark.parametrize("loader", ["libyaml", "pure"])
    def test_deep_flow_lines_fail_at_the_capping_line(self, tmp_path, loader):
        done, path = self.run_cli(
            tmp_path, self.flow_lines(yamlload.MAX_DEPTH + 1), "validate", loader
        )
        # The bracket that opens level MAX_DEPTH + 1, after `junk:`.
        line = BILATERAL_FILE.count("\n") + 1 + yamlload.MAX_DEPTH
        assert done.stderr == f"error: {path}: line {line}: document is nested too deeply\n"

    @pytest.mark.parametrize("loader", ["libyaml", "pure"])
    def test_deep_flow_lines_load_at_the_cap(self, tmp_path, loader):
        done, path = self.run_cli(tmp_path, self.flow_lines(yamlload.MAX_DEPTH), "validate", loader)
        assert done.stderr.startswith(f"error: {path}: $.junk: unknown key")

    @pytest.mark.parametrize("verb", ["validate", "run", "report"])
    def test_non_utf8_input(self, tmp_path, capsys, verb):
        path = tmp_path / "latin1.txt"
        path.write_bytes(BILATERAL_FILE.replace("bilateral", "caf\xe9").encode("latin-1"))
        flag = "--transcript" if verb == "report" else "--scenario"
        args = [verb, flag, str(path)]
        if verb == "run":
            args += ["--out", str(tmp_path / "out")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {path}: ")
        assert "utf-8" in err


class TestRun:
    def test_late_posting_runs_fast(self, tmp_path, capsys):
        path = tmp_path / "late.yaml"
        path.write_text(
            BILATERAL_FILE.replace("t_end: 64", f"t_end: {10**8 + 64}").replace(
                "product: vm}", f"product: vm, posted_at: {10**8}}}"
            ),
            encoding="utf-8",
        )
        started = time.perf_counter()
        code = main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert time.perf_counter() - started < 2.0
        assert code == 0
        assert "1 sessions (1 agreed)" in capsys.readouterr().out

    def test_writes_artifacts(self, scenario_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = main(
            ["run", "--scenario", str(scenario_file), "--seed", "7",
             "--out", str(out_dir)]
        )
        assert code == 0
        assert (out_dir / "transcript.jsonl").exists()
        assert (out_dir / "report.txt").exists()
        assert (out_dir / "trust.jsonl").exists()
        trust_lines = (out_dir / "trust.jsonl").read_text().splitlines()
        assert len(trust_lines) == 2  # one record per agent
        summary = capsys.readouterr().out
        assert "1 sessions (1 agreed)" in summary

    def test_summary_names_every_file_written(self, scenario_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["run", "--scenario", str(scenario_file), "--out", str(out_dir)]) == 0
        summary = capsys.readouterr().out
        written = summary.split("; wrote ", 1)[1].rstrip("\n")
        assert written == (
            f"{out_dir / 'transcript.jsonl'}, {out_dir / 'report.txt'}"
            f" and {out_dir / 'trust.jsonl'}"
        )

    def test_same_seed_identical_outputs(self, scenario_file, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for out_dir in dirs:
            assert (
                main(
                    ["run", "--scenario", str(scenario_file), "--seed", "3",
                     "--out", str(out_dir)]
                )
                == 0
            )
        for name in ("transcript.jsonl", "report.txt"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_run_without_sessions_writes_empty_files(self, tmp_path, capsys):
        path = tmp_path / "no-rfq.yaml"
        path.write_text(
            BILATERAL_FILE.split("rfqs:")[0] + "rfqs: []\n", encoding="utf-8"
        )
        out_dir = tmp_path / "out"
        assert main(["run", "--scenario", str(path), "--out", str(out_dir)]) == 0
        assert "0 sessions" in capsys.readouterr().out
        assert (out_dir / "transcript.jsonl").read_bytes() == b""
        assert (out_dir / "trust.jsonl").read_bytes() == b""

    def test_invalid_scenario_fails_with_diagnostics(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("t_end: [broken\n", encoding="utf-8")
        assert main(["run", "--scenario", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_negative_seed_rejected(self, scenario_file, capsys):
        code = main(["run", "--scenario", str(scenario_file), "--seed", "-1"])
        assert code == 1
        assert "seed" in capsys.readouterr().err


class TestReport:
    def test_summarizes_transcript(self, scenario_file, tmp_path, capsys):
        out_dir = tmp_path / "out"
        main(["run", "--scenario", str(scenario_file), "--out", str(out_dir)])
        capsys.readouterr()
        code = main(["report", "--transcript", str(out_dir / "transcript.jsonl")])
        assert code == 0
        out = capsys.readouterr().out
        assert "sessions: 1" in out
        assert "agreed" in out

    @pytest.mark.parametrize("char", ["\x85", "\u2028", "\u2029"],
                             ids=["NEL", "LS", "PS"])
    def test_reads_what_run_wrote_with_unicode_line_breaks(self, tmp_path, capsys, char):
        # The transcript writes non-ASCII characters raw, and these three are
        # line breaks to str.splitlines but not to the transcript format.
        name = "buyer" + char + "1"
        escaped = "buyer\\u%04x1" % ord(char)
        scenario = tmp_path / "scenario.yaml"
        scenario.write_text(
            BILATERAL_FILE.replace("buyer-1", f'"{escaped}"'), encoding="utf-8"
        )
        out_dir = tmp_path / "out"
        assert main(["run", "--scenario", str(scenario), "--out", str(out_dir)]) == 0
        transcript = out_dir / "transcript.jsonl"
        assert name in transcript.read_text(encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--transcript", str(transcript)]) == 0
        out = capsys.readouterr().out
        assert "sessions: 1" in out
        assert "agreed" in out

    def test_rejects_non_transcript_file(self, tmp_path, capsys):
        path = tmp_path / "junk.txt"
        path.write_text("not json\n", encoding="utf-8")
        assert main(["report", "--transcript", str(path)]) == 1
        assert "not a transcript" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["[1, 2]", '"x"', "3", "null"])
    def test_rejects_non_object_line(self, tmp_path, capsys, line):
        path = tmp_path / "transcript.jsonl"
        path.write_text('{"kind": "offer", "session": "s-1", "tick": 1}\n' + line + "\n")
        assert main(["report", "--transcript", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}:2: not a transcript record\n"

    @pytest.mark.parametrize("line", [
        '{"kind": [1], "session": "s-1", "tick": 1}',
        '{"kind": "offer", "session": ["s"], "tick": 1}',
        '{"kind": "offer", "session": 7, "tick": 1}',
        '{"kind": 3, "session": "s-1", "tick": 1}',
        '{"kind": "offer", "session": "s-1", "tick": [1]}',
        '{"kind": "offer", "session": "s-1", "tick": true}',
    ])
    def test_rejects_record_with_mistyped_field(self, tmp_path, capsys, line):
        path = tmp_path / "transcript.jsonl"
        path.write_text('{"kind": "offer", "session": "s-1", "tick": 1}\n' + line + "\n")
        assert main(["report", "--transcript", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}:2: not a transcript record\n"

    @pytest.mark.parametrize("line", [
        # Valid JSON, nested past the decoder's recursion limit.
        "[" * 100_000 + "]" * 100_000,
        # Valid JSON, an integer past Python's 4300-digit conversion limit.
        '{"kind": "offer", "session": "s-1", "tick": ' + "7" * 5000 + "}",
    ], ids=["deep", "long-int"])
    def test_rejects_json_python_will_not_build(self, tmp_path, capsys, line):
        path = tmp_path / "transcript.jsonl"
        path.write_text('{"kind": "offer", "session": "s-1", "tick": 1}\n' + line + "\n")
        assert main(["report", "--transcript", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}:2: not a transcript record\n"

    def test_missing_transcript_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["report"])
        assert exc.value.code == 2
