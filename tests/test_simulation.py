"""Scenario loading, kernel runs, replay determinism, report rendering."""

import json
from pathlib import Path

import pytest
import yaml

from agorasim import simulation, yamlload
from agorasim.simulation import (
    ScenarioParseError,
    ScenarioValidationError,
    emit_report,
    load_scenario,
    run_simulation,
)
from test_golden import _marketgen

SCENARIOS = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.yaml"))

MINIMAL = """
name: minimal
t_end: 30
agents:
  - id: b
    role: buyer
    agendas:
      - product: vm
        t_max: 10
        issues:
          - {id: price, weight: 1.0, min: 10, max: 20}
  - id: s
    role: seller
    agendas:
      - product: vm
        t_max: 10
        issues:
          - {id: price, weight: 1.0, min: 10, max: 20}
advertisements:
  - {agent: s, product: vm}
rfqs:
  - {agent: b, product: vm}
"""


class TestLoadScenario:
    def test_minimal_document(self):
        scenario = load_scenario(MINIMAL)
        assert scenario.name == "minimal"
        assert scenario.seed == 0
        assert len(scenario.agents) == 2
        assert len(scenario.advertisements) == 1
        assert len(scenario.rfqs) == 1

    def test_weight_sum_violation_propagates(self):
        doc = MINIMAL.replace("weight: 1.0, min: 10", "weight: 1.1, min: 10")
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(doc)
        assert "agendas" in str(err.value)

    def test_dangling_agent_reference(self):
        doc = MINIMAL.replace("- {agent: s, product: vm}", "- {agent: ghost, product: vm}")
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(doc)
        assert "ghost" in str(err.value)

    def test_unparseable_document_cites_line(self):
        with pytest.raises(ScenarioParseError) as err:
            load_scenario("a: 1\nb: [unclosed\nc: 2\n")
        assert err.value.line is not None

    def test_t_end_must_cover_agendas(self):
        doc = MINIMAL.replace("t_end: 30", "t_end: 5")
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(doc)
        assert "t_end" in str(err.value)

    def test_duplicate_agent_ids(self):
        doc = MINIMAL.replace("id: s", "id: b", 1)
        with pytest.raises(ScenarioValidationError):
            load_scenario(doc)

    def test_missing_required_key(self):
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario("agents: []\n")
        assert "t_end" in str(err.value)

    def test_bad_role_rejected(self):
        doc = MINIMAL.replace("role: buyer", "role: broker")
        with pytest.raises(ScenarioValidationError):
            load_scenario(doc)

    def test_plan_rules_parse(self):
        doc = MINIMAL.replace(
            "    agendas:",
            "    plan_rules:\n"
            "      - {when: deadline_passed, do: terminate}\n"
            "      - {when: always, do: idle}\n"
            "    agendas:",
            1,
        )
        scenario = load_scenario(doc)
        assert scenario.agents[0].plan_rules is not None

    def test_plan_rules_need_catch_all(self):
        doc = MINIMAL.replace(
            "    agendas:",
            "    plan_rules:\n"
            "      - {when: deadline_passed, do: terminate}\n"
            "    agendas:",
            1,
        )
        with pytest.raises(ScenarioValidationError):
            load_scenario(doc)

    def test_nan_schedule_tick_rejected(self):
        doc = MINIMAL.replace(
            "    role: buyer\n",
            "    role: buyer\n    resources: {schedule: [[0, 1.0], [.nan, 0.5]]}\n",
        )
        with pytest.raises(ScenarioValidationError) as exc:
            load_scenario(doc)
        assert exc.value.path == "$.agents[0].resources.schedule[1][0]"

    @pytest.mark.parametrize("section", ["advertisements", "rfqs"])
    @pytest.mark.parametrize("tick", [-3, 31])
    def test_posting_tick_outside_run_rejected(self, section, tick):
        agent = "s" if section == "advertisements" else "b"
        doc = MINIMAL.replace(
            f"{{agent: {agent}, product: vm}}",
            f"{{agent: {agent}, product: vm, posted_at: {tick}}}",
        )
        with pytest.raises(ScenarioValidationError) as exc:
            load_scenario(doc)
        assert exc.value.path == f"$.{section}[0].posted_at"

    def test_posting_at_t_end_accepted(self):
        doc = MINIMAL.replace("{agent: s, product: vm}", "{agent: s, product: vm, posted_at: 30}")
        assert load_scenario(doc).advertisements[0].posted_at == 30

    def test_t_end_at_the_float_limit_loads(self):
        assert load_scenario(MINIMAL.replace("t_end: 30", f"t_end: {2**53}")).t_end == 2**53
        with pytest.raises(ScenarioValidationError) as exc:
            load_scenario(MINIMAL.replace("t_end: 30", f"t_end: {2**53 + 1}"))
        assert exc.value.path == "$.t_end"

    def test_reserved_agent_prefix(self):
        doc = MINIMAL.replace("id: b", 'id: "@b"')
        with pytest.raises(ScenarioValidationError):
            load_scenario(doc)


# Malformed documents and the line their ScenarioParseError names, which
# must not depend on the loader.
MALFORMED = {
    "unclosed-flow": ("name: x\nagents: [a, b\n", 3),
    "bad-indent": ("name: x\nagents:\n  - id: a\n   role: buyer\n", 4),
    "tab-indent": ("name: x\n\tt_end: 3\n", 2),
    "nested-colon": ("name: x\nt_end: b: c\n", 2),
    "unclosed-quote": ('name: "abc\nt_end: 3\n', 3),
    "undefined-alias": ("name: x\nt_end: *nope\n", 2),
    "unknown-tag": ("name: x\nt_end: !!python/object:os.system x\n", 2),
    "stray-bracket": ("name: x\n]\n", 2),
    "second-document": ("name: x\n---\nt_end: 3\n", 2),
    "bad-escape": ('name: x\nt_end: "\\q"\n', 2),
    "bad-int": ("name: x\n\nt_end: !!int xyz\n", 3),
    "bad-bool": ("name: x\noptions: {require_overlap: !!bool maybe}\n", 2),
}


@pytest.fixture(params=["libyaml", "pure"])
def yaml_loader(request, monkeypatch):
    """Runs a test under each loader: libyaml, and the pure-Python one."""
    if request.param == "pure":
        monkeypatch.delattr(yaml, "CSafeLoader")
    elif not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML was built without libyaml")
    assert (simulation._yaml_loader() is yamlload.PureLoader) == (request.param == "pure")
    return request.param


class TestLoaders:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_parse_error_line_is_loader_independent(self, yaml_loader, name):
        document, line = MALFORMED[name]
        with pytest.raises(ScenarioParseError) as err:
            load_scenario(document)
        assert err.value.line == line

    def test_deep_nesting_is_a_parse_error(self, yaml_loader):
        with pytest.raises(ScenarioParseError) as err:
            load_scenario("[" * 5000 + "]" * 5000)
        assert err.value.line == 1

    @staticmethod
    def nested(depth: int) -> str:
        """MINIMAL with an unknown key whose value reaches `depth` levels,
        counting the root mapping, with one opening bracket per line."""
        brackets = depth - 1
        return MINIMAL + "junk:\n" + " [\n" * brackets + " " + "]" * brackets + "\n"

    def test_nesting_at_the_depth_cap_loads(self, yaml_loader):
        assert load_scenario(self.nested(yamlload.MAX_DEPTH)) == load_scenario(MINIMAL)

    def test_nesting_past_the_depth_cap_names_its_line(self, yaml_loader):
        with pytest.raises(ScenarioParseError) as err:
            load_scenario(self.nested(yamlload.MAX_DEPTH + 1))
        assert err.value.reason == "document is nested too deeply"
        # The bracket that opens level MAX_DEPTH + 1, after MINIMAL and `junk:`.
        assert err.value.line == MINIMAL.count("\n") + 1 + yamlload.MAX_DEPTH

    def test_one_yaml_load_per_scenario(self, yaml_loader, monkeypatch):
        # The benchmark times the parse by wrapping the module attribute
        # `yaml.load`; a parse that bypassed it would read as zero, and one
        # that called it again would count twice.
        calls = []
        real_load = yaml.load

        def counting_load(*args, **kwargs):
            calls.append(kwargs.get("Loader"))
            return real_load(*args, **kwargs)

        monkeypatch.setattr(yaml, "load", counting_load)
        for document in (MINIMAL, MINIMAL.replace("vm}", "!!str vm}")):  # event loop, library
            calls.clear()
            load_scenario(document)
            assert calls == [simulation._yaml_loader()]

    def test_merged_agendas_load_as_written_out(self, yaml_loader):
        agenda = (
            "      - product: vm\n        t_max: 10\n        issues:\n"
            "          - {id: price, weight: 1.0, min: 10, max: 20}\n"
        )
        buyer, seller, rest = MINIMAL.split(agenda)
        # The seller's agenda is the buyer's, merged in, with one key restated.
        shared = (
            buyer + agenda.replace("- product", "- &agenda\n        product")
            + seller + "      - <<: *agenda\n        t_max: 10\n" + rest
        )
        assert load_scenario(shared) == load_scenario(MINIMAL)

    @pytest.mark.parametrize("source", [*SCENARIOS, *sorted(_marketgen().WORKLOADS)],
                             ids=lambda s: getattr(s, "name", s))
    def test_own_documents_never_reach_the_library_loader(self, yaml_loader, monkeypatch, source):
        class Forbidden:
            def __init__(self, *args):
                raise AssertionError("the document went to the library loader")

        monkeypatch.setattr(simulation._yaml_loader(), "library", Forbidden)
        if isinstance(source, Path):
            load_scenario(source.read_text(encoding="utf-8"))
        else:
            load_scenario(_marketgen().generate(source, 0))

    @pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.name)
    def test_shipped_scenarios_load_equal(self, path, monkeypatch):
        text = path.read_text(encoding="utf-8")
        with_libyaml = load_scenario(text)
        monkeypatch.delattr(yaml, "CSafeLoader")
        assert load_scenario(text) == with_libyaml


class TestRunSimulation:
    def test_bilateral_conceders_agree(self, bilateral_scenario_text):
        scenario = load_scenario(bilateral_scenario_text)
        lines, report = run_simulation(scenario)
        assert len(report.sessions) == 1
        session = report.sessions[0]
        assert session.outcome == "agreed"
        assert session.closed_at < 20
        assert 0.0 <= session.buyer_utility <= 1.0
        assert 0.0 <= session.seller_utility <= 1.0
        final_values = [
            json.loads(line)["values"]
            for line in lines
            if json.loads(line)["kind"] == "acquire"
        ]
        assert len(final_values) == 1
        assert 10.0 <= final_values[0]["price"] <= 20.0

    def test_zero_ads_produces_empty_run(self):
        doc = MINIMAL.replace("advertisements:\n  - {agent: s, product: vm}\n", "")
        scenario = load_scenario(doc)
        lines, report = run_simulation(scenario)
        assert lines == []
        assert report.sessions == ()

    def test_disjoint_zones_terminate_past_deadline(self, disjoint_scenario_text):
        scenario = load_scenario(disjoint_scenario_text)
        lines, report = run_simulation(scenario)
        assert len(report.sessions) == 1
        assert report.sessions[0].outcome == "terminated"
        records = [json.loads(line) for line in lines]
        commence_tick = min(r["tick"] for r in records)
        terminates = [r for r in records if r["kind"] == "terminate"]
        assert len(terminates) == 1
        # one-tick transport: sessions join at commence+1, so the deadline
        # tick is commence + 1 + t_max and the terminate lands right after it
        deadline_tick = commence_tick + 1 + 20
        assert terminates[0]["tick"] == deadline_tick + 1
        for r in records:
            if r["kind"] != "terminate":
                assert r["tick"] <= deadline_tick

    def test_replay_is_byte_identical(self, bilateral_scenario_text):
        scenario = load_scenario(bilateral_scenario_text)
        lines_a, report_a = run_simulation(scenario, seed_override=7)
        lines_b, report_b = run_simulation(scenario, seed_override=7)
        assert lines_a == lines_b
        assert emit_report(report_a) == emit_report(report_b)

    def test_seed_has_no_effect_without_declared_randomness(
        self, bilateral_scenario_text
    ):
        scenario = load_scenario(bilateral_scenario_text)
        lines_a, _ = run_simulation(scenario, seed_override=1)
        lines_b, _ = run_simulation(scenario, seed_override=2)
        assert lines_a == lines_b

    def test_jitter_makes_seed_matter(self, bilateral_scenario_text):
        doc = bilateral_scenario_text.replace(
            "  - id: seller-1\n    role: seller\n",
            "  - id: seller-1\n    role: seller\n    jitter: 0.2\n",
        )
        scenario = load_scenario(doc)
        assert any(a.jitter > 0 for a in scenario.agents)
        lines_a, _ = run_simulation(scenario, seed_override=1)
        lines_b, _ = run_simulation(scenario, seed_override=2)
        assert lines_a != lines_b
        lines_c, _ = run_simulation(scenario, seed_override=1)
        assert lines_a == lines_c

    def test_clock_monotone_within_sessions(self, bilateral_scenario_text):
        scenario = load_scenario(bilateral_scenario_text)
        lines, _ = run_simulation(scenario)
        per_session = {}
        for line in lines:
            record = json.loads(line)
            per_session.setdefault(record["session"], []).append(record["tick"])
        for ticks in per_session.values():
            assert ticks == sorted(ticks)

    def test_every_commence_resolves(self, bilateral_scenario_text):
        scenario = load_scenario(bilateral_scenario_text)
        lines, report = run_simulation(scenario)
        commenced = {
            json.loads(line)["session"]
            for line in lines
            if json.loads(line)["kind"] == "commence"
        }
        resolved = {
            s.session for s in report.sessions if s.outcome in ("agreed", "terminated")
        }
        assert commenced == resolved

    def test_offer_path_kernel_calls_are_bounded(self, monkeypatch):
        # Each side computes its hybrid deadline once per session and scores
        # a package only to set a goal, decide a response or pick the best
        # agreement: nothing is recomputed per offer that an offer cannot
        # change.
        from agorasim import kernels

        calls = {"threshold_crossing": 0, "weighted_utility": 0}
        for name in calls:
            real = getattr(kernels, name)

            def counted(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(kernels, name, counted)
        path = Path(__file__).resolve().parents[1] / "scenarios" / "concurrent.yaml"
        lines, _ = run_simulation(load_scenario(path.read_text(encoding="utf-8")))
        kinds = [json.loads(line)["kind"] for line in lines]
        commence, offer, acquire = (
            kinds.count(kind) for kind in ("commence", "offer", "acquire")
        )
        assert commence > 0 and offer > 0 and acquire > 0
        assert calls["threshold_crossing"] <= 2 * commence
        assert calls["weighted_utility"] <= commence + 2 * offer + 3 * acquire

    @pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
    def test_open_count_equals_open_sessions(self, path, monkeypatch):
        # run_matchmaking starts every tick, so it sees the count the last
        # tick left.
        seen = []
        original = simulation.Marketplace.run_matchmaking

        def open_now(market):
            return sum(session.is_open for session in market.sessions.values())

        def checking(market, now):
            seen.append((market.open_count, open_now(market)))
            return original(market, now)

        monkeypatch.setattr(simulation.Marketplace, "run_matchmaking", checking)
        _, _, market = simulation.run_simulation_with_market(
            load_scenario(path.read_text(encoding="utf-8"))
        )
        seen.append((market.open_count, open_now(market)))
        assert len(seen) > 2
        assert all(count == expected for count, expected in seen)
        assert any(count for count, _ in seen)


def _posted_at(document: str, tick: int) -> str:
    """The bilateral scenario with both postings at `tick` and t_end moved
    out by as much."""
    return (
        document.replace("t_end: 64", f"t_end: {64 + tick}")
        .replace("product: vm}", f"product: vm, posted_at: {tick}}}")
    )


class TestEmptyTicks:
    BILATERAL = (Path(__file__).resolve().parents[1] / "scenarios" / "bilateral.yaml").read_text(
        encoding="utf-8"
    )

    @pytest.mark.parametrize("delay", [1, 37, 250_000])
    def test_late_postings_shift_the_run(self, delay):
        base_lines, base = run_simulation(load_scenario(self.BILATERAL))
        lines, report = run_simulation(load_scenario(_posted_at(self.BILATERAL, delay)))
        shifted = []
        for line in lines:
            record = json.loads(line)
            record["tick"] -= delay
            shifted.append(record)
        assert shifted == [json.loads(line) for line in base_lines]
        assert report.ticks == base.ticks + delay
        assert [s.closed_at - delay for s in report.sessions] == [
            s.closed_at for s in base.sessions
        ]
        assert [(s.buyer_utility, s.seller_utility) for s in report.sessions] == [
            (s.buyer_utility, s.seller_utility) for s in base.sessions
        ]

    def test_empty_ticks_are_not_visited(self, monkeypatch):
        due = []
        original = simulation.Marketplace.due_messages

        def counting(market, now):
            due.append(now)
            return original(market, now)

        monkeypatch.setattr(simulation.Marketplace, "due_messages", counting)
        run_simulation(load_scenario(_posted_at(self.BILATERAL, 10**8)))
        assert due[0] == 0 and due[1] == 10**8
        assert len(due) < 30

    @pytest.mark.parametrize("source", [*SCENARIOS, *sorted(_marketgen().WORKLOADS)],
                             ids=lambda s: getattr(s, "name", s))
    def test_idle_ticks_leave_no_stale_product(self, monkeypatch, source):
        # The tick loop ends or skips on an idle tick without matchmaking, so
        # no product may be stale then. The loop asks for pending mail only
        # once no session is open and no agent is live.
        idle = []
        original = simulation.Marketplace.has_pending_messages

        def checking(market):
            pending = original(market)
            if not pending:
                assert not market.repo.stale_products()
                idle.append(market)
            return pending

        monkeypatch.setattr(simulation.Marketplace, "has_pending_messages", checking)
        if isinstance(source, Path):
            text = source.read_text(encoding="utf-8")
        else:
            text = _marketgen().generate(source, 0)
        run_simulation(load_scenario(text))
        assert idle


class TestEmitReport:
    def test_identical_reports_identical_bytes(self, bilateral_scenario_text):
        scenario = load_scenario(bilateral_scenario_text)
        _, report = run_simulation(scenario)
        assert emit_report(report) == emit_report(report)

    def test_empty_report_renders_header(self):
        doc = MINIMAL.replace("advertisements:\n  - {agent: s, product: vm}\n", "")
        _, report = run_simulation(load_scenario(doc))
        text = emit_report(report)
        assert "sessions (0):" in text
        assert "--- record ---" in text

    def test_record_block_is_valid_json(self, bilateral_scenario_text):
        _, report = run_simulation(load_scenario(bilateral_scenario_text))
        text = emit_report(report)
        block = text.split("--- record ---\n", 1)[1]
        record = json.loads(block)
        assert record["scenario"] == "bilateral"
        assert len(record["sessions"]) == 1
