"""Scenario loading, kernel runs, replay determinism, report rendering."""

import bisect
import copy
import json
import math
import random
import re
from dataclasses import replace
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from agorasim import marketplace, simulation, yamlload
from agorasim.agent import (
    DEFAULT_PLAN_RULES,
    AgentState,
    PlanCondition,
    PlanKind,
    PlanRule,
    _plan,
)
from agorasim.core import DELIVERY_ORDER, Perspective
from agorasim.marketplace import Marketplace
from agorasim.tactics import ResourceProjection, TacticParams
from agorasim.simulation import (
    ScenarioParseError,
    ScenarioValidationError,
    SimulationReport,
    emit_report,
    load_scenario,
    run_simulation,
)
from conftest import from_fields, json_text
from test_golden import _marketgen

SCENARIOS_DIR = Path(__file__).resolve().parents[1] / "scenarios"
SCENARIOS = sorted(SCENARIOS_DIR.glob("*.yaml"))

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


#: A scenario that uses every mapping the loader reads.
FULL = {
    "name": "full",
    "seed": 3,
    "t_end": 30,
    "options": {"require_overlap": True},
    "agents": [
        {
            "id": "b",
            "role": "buyer",
            "tactic": {"stance": "linear", "k": 0.0, "beta": 1.0},
            "resources": {"threshold": 0.2, "schedule": [[0, 1.0]]},
            "jitter": 0.0,
            "plan_rules": [{"when": "always", "do": "idle"}],
            "agendas": [{
                "product": "vm",
                "t_max": 10,
                "issues": [{"id": "price", "weight": 1.0, "min": 10, "max": 20,
                            "direction": "ascending"}],
            }],
        },
        {
            "id": "s",
            "role": "seller",
            "agendas": [{
                "product": "vm",
                "t_max": 10,
                "issues": [{"id": "price", "weight": 1.0, "min": 10, "max": 20}],
            }],
        },
    ],
    "advertisements": [{"agent": "s", "product": "vm", "issues": ["price"], "posted_at": 0}],
    "rfqs": [{"agent": "b", "product": "vm", "issues": ["price"], "min_reputation": 0.9,
              "posted_at": 0}],
}

#: Per mapping: the route to one in FULL, a key, its misspelling and the
#: path the loader must name.
MISSPELLED = {
    "root": ((), "t_end", "t_ned", "$.t_ned"),
    "options": (("options",), "require_overlap", "require_overlab", "$.options.require_overlab"),
    "agent": (("agents", 1), "role", "rol", "$.agents[1].rol"),
    "tactic": (("agents", 0, "tactic"), "stance", "stanse", "$.agents[0].tactic.stanse"),
    "resources": (("agents", 0, "resources"), "threshold", "treshold",
                  "$.agents[0].resources.treshold"),
    "agenda": (("agents", 0, "agendas", 0), "t_max", "tmax", "$.agents[0].agendas[0].tmax"),
    "issue": (("agents", 1, "agendas", 0, "issues", 0), "weight", "wieght",
              "$.agents[1].agendas[0].issues[0].wieght"),
    "plan_rule": (("agents", 0, "plan_rules", 0), "do", "then",
                  "$.agents[0].plan_rules[0].then"),
    "advertisement": (("advertisements", 0), "posted_at", "posted", "$.advertisements[0].posted"),
    "rfq": (("rfqs", 0), "min_reputation", "min_reputaton", "$.rfqs[0].min_reputaton"),
}


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

    @pytest.mark.parametrize("mapping", sorted(MISSPELLED))
    def test_misspelled_key_fails_at_its_path(self, mapping):
        route, key, typo, path = MISSPELLED[mapping]
        doc = copy.deepcopy(FULL)
        node = doc
        for step in route:
            node = node[step]
        node[typo] = node.pop(key)
        with pytest.raises(ScenarioValidationError) as exc:
            load_scenario(yaml.safe_dump(doc, sort_keys=False))
        assert exc.value.path == path
        assert exc.value.reason.startswith("unknown key")

    @pytest.mark.parametrize("old, new, path", [
        # Agenda.t_min was validated and then read by nothing.
        ("        t_max: 10\n", "        t_max: 10\n        t_min: 0\n",
         "$.agents[0].agendas[0].t_min"),
        # The goal_terminal condition never held.
        ("    agendas:", "    plan_rules:\n      - {when: goal_terminal, do: idle}\n"
         "      - {when: always, do: idle}\n    agendas:",
         "$.agents[0].plan_rules[0].when"),
    ], ids=["t_min", "goal_terminal"])
    def test_removed_knobs_fail_at_their_path(self, old, new, path):
        with pytest.raises(ScenarioValidationError) as exc:
            load_scenario(MINIMAL.replace(old, new, 1))
        assert exc.value.path == path

    def test_readme_lists_the_accepted_keys(self):
        # scenarios/README.md has one "## <mapping>" section per mapping,
        # with one table row per key; the doc must not drift from the code.
        documented: dict[str, set[str]] = {}
        section = None
        for line in (SCENARIOS_DIR / "README.md").read_text(encoding="utf-8").splitlines():
            heading = re.match(r"## `(\w+)`", line)
            if heading:
                section = documented.setdefault(heading.group(1), set())
            row = re.match(r"\| `(\w+)` \|", line)
            if row and section is not None:
                section.add(row.group(1))
        assert documented == {name: set(keys) for name, keys in simulation.KEYS.items()}


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
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
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
        # The document parses: the error is the unknown key, not the depth.
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(self.nested(yamlload.MAX_DEPTH))
        assert err.value.path == "$.junk"

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
        if not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML was built without libyaml")
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

    def test_only_jittered_agents_hold_a_seeded_stream(self, bilateral_scenario_text):
        doc = bilateral_scenario_text.replace(
            "  - id: seller-1\n    role: seller\n",
            "  - id: seller-1\n    role: seller\n    jitter: 0.2\n",
        )
        states = simulation.build_agent_states(load_scenario(doc), 7)
        assert states["buyer-1"].jitter == 0.0
        assert states["buyer-1"].rng is None
        expected = random.Random("7:seller-1")
        assert [states["seller-1"].rng.random() for _ in range(5)] == [
            expected.random() for _ in range(5)
        ]

    def test_an_agent_that_draws_without_a_stream_gets_random_0(self):
        assert AgentState("a", Perspective.BUYER, TacticParams()).rng is None
        agent = AgentState("a", Perspective.BUYER, TacticParams(), jitter=0.1)
        assert agent.rng.getstate() == random.Random(0).getstate()

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

    @pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
    def test_transcript_renders_only_inside_transcript_lines(self, path, monkeypatch):
        # The benchmark starts emission when transcript_lines is entered: a
        # line rendered earlier would be timed as part of the run.
        events = []

        def spied(name, fn):
            def spy(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)

            return spy

        for owner, name in (
            (marketplace, "transcript_line"),
            (marketplace, "_shape_pattern"),
            (marketplace, "render_transcript"),
            (Marketplace, "transcript_lines"),
        ):
            monkeypatch.setattr(owner, name, spied(name, getattr(owner, name)))
        lines, _, _ = simulation.run_simulation_with_market(
            load_scenario(path.read_text(encoding="utf-8"))
        )
        assert lines
        assert events[0] == "transcript_lines"
        assert events.count("transcript_lines") == 1
        assert events.count("render_transcript") == 1
        assert "_shape_pattern" in events


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


def _polling_run(scenario):
    """The tick loop as it was before wake thresholds: every agent that holds
    a live entry steps on every tick, and every step walks every entry for
    expired sessions and pending openings (the AgendaDB facts that let a step
    skip those walks are overridden). The reference the wake rule and the
    facts must reproduce byte for byte."""
    seed = scenario.seed
    market = Marketplace(require_overlap=scenario.options.require_overlap)
    states = simulation.build_agent_states(scenario, seed)
    for spec in sorted(scenario.agents, key=lambda s: s.agent_id):
        market.repo.register_agent(spec.agent_id, spec.role)
        for product in sorted(spec.agendas):
            market.repo.declare_agenda(spec.agent_id, product, spec.agendas[product])
    ads_by_tick, rfqs_by_tick = {}, {}
    for ad in scenario.advertisements:
        ads_by_tick.setdefault(ad.posted_at, []).append(ad)
    for rfq in scenario.rfqs:
        rfqs_by_tick.setdefault(rfq.posted_at, []).append(rfq)
    post_ticks = sorted({*ads_by_tick, *rfqs_by_tick})
    last_post = max([0, *post_ticks])
    live = set()
    ticks = now = 0
    while now <= scenario.t_end:
        ticks = now
        for ad in ads_by_tick.get(now, []):
            market.repo.submit_advertisement(ad.agent, ad.product, issues=ad.issues, posted_at=now)
        for rfq in rfqs_by_tick.get(now, []):
            market.repo.submit_rfq(
                rfq.agent, rfq.product, issues=rfq.issues,
                min_reputation=rfq.min_reputation, posted_at=now,
            )
        market.run_matchmaking(now)
        inboxes = market.due_messages(now)
        outgoing = []
        busy = sorted(live.union(a for a in inboxes if a in states))
        for agent_id in busy:
            state = states[agent_id]
            # No deadline bound to wait for and always an opening to look
            # for; mark_opened keeps an infinite count infinite.
            state.agenda_db.due = -math.inf
            state.agenda_db.unopened = math.inf
            outgoing.extend(simulation.agent_step(state, inboxes.get(agent_id, []), now))
        live = {a for a in busy if len(states[a].agenda_db)}
        outgoing.sort(key=DELIVERY_ORDER)
        for msg in outgoing:
            market.route_message(msg)
        if market.open_count or live or market.has_pending_messages():
            now += 1
        elif now >= last_post:
            break
        else:
            now = post_ticks[bisect.bisect_right(post_ticks, now)]
    market.score_behavior()
    report = simulation._build_report(scenario, seed, ticks, market)
    return market.transcript_lines(), report, market


def _with_rules(scenario, rules):
    """The scenario with every agent on the given plan rules."""
    return replace(
        scenario, agents=tuple(replace(a, plan_rules=rules) for a in scenario.agents)
    )


_DEADLINE, _COUNTER, _OPENING, _IDLE = DEFAULT_PLAN_RULES
#: Plan libraries that change when openings go out and when offers are taken.
PLAN_VARIANTS = {
    "default": None,
    "opening-idle": (
        _DEADLINE, _COUNTER, PlanRule(PlanCondition.OPENING_PENDING, PlanKind.IDLE), _IDLE,
    ),
    "standing-accept": (
        _DEADLINE, PlanRule(PlanCondition.OFFER_STANDING, PlanKind.ACCEPT), _OPENING, _IDLE,
    ),
    "target-first": (
        PlanRule(PlanCondition.OFFER_MEETS_TARGET, PlanKind.ACCEPT), *DEFAULT_PLAN_RULES,
    ),
}


def _outputs(run):
    lines, report, market = run
    return lines, emit_report(report), market.trust.export_lines()


def _tiny_workload(name, seed):
    marketgen = _marketgen()
    return load_scenario(marketgen.generate(name, seed, **marketgen.WORKLOADS[name].tiny))


class TestWakeUps:
    @pytest.mark.parametrize("variant", sorted(PLAN_VARIANTS))
    @pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
    def test_shipped_scenarios_match_polling(self, path, variant):
        scenario = load_scenario(path.read_text(encoding="utf-8"))
        rules = PLAN_VARIANTS[variant]
        if rules is not None:
            scenario = _with_rules(scenario, rules)
        expected = _outputs(_polling_run(scenario))
        assert _outputs(simulation.run_simulation_with_market(scenario)) == expected

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("workload", sorted(_marketgen().WORKLOADS))
    def test_workloads_match_polling(self, workload, seed):
        scenario = _tiny_workload(workload, seed)
        expected = _outputs(_polling_run(scenario))
        assert _outputs(simulation.run_simulation_with_market(scenario)) == expected

    @pytest.mark.parametrize("variant", sorted(set(PLAN_VARIANTS) - {"default"}))
    @pytest.mark.parametrize("workload", sorted(_marketgen().WORKLOADS))
    def test_workload_plan_variants_match_polling(self, workload, variant):
        scenario = _with_rules(_tiny_workload(workload, 0), PLAN_VARIANTS[variant])
        expected = _outputs(_polling_run(scenario))
        assert _outputs(simulation.run_simulation_with_market(scenario)) == expected

    def test_replaced_resources_expire_at_the_new_deadline(self, monkeypatch):
        # The buyer's projection is replaced before it answers the opening
        # offer at tick 2, so that offer recomputes its deadline from 21 down
        # to 8.5. The seller never counters, so no mail comes after: only the
        # deadline sweep can end the session, at tick 9. The polling oracle
        # steps every tick and walks every entry at every step.
        depleting = ResourceProjection(points=((0.0, 1.0), (10.0, 0.0)), r_threshold=0.15)
        silent = (_DEADLINE, PlanRule(PlanCondition.OFFER_STANDING, PlanKind.IDLE),
                  _OPENING, _IDLE)
        scenario = load_scenario((SCENARIOS_DIR / "bilateral.yaml").read_text(encoding="utf-8"))
        scenario = replace(scenario, agents=tuple(
            replace(a, plan_rules=silent) if a.agent_id == "seller-1" else a
            for a in scenario.agents
        ))
        original = simulation.agent_step

        def replacing(state, inbox, now):
            if state.agent_id == "buyer-1" and now == 2:
                state.resources = depleting
            return original(state, inbox, now)

        monkeypatch.setattr(simulation, "agent_step", replacing)
        expected = _outputs(_polling_run(scenario))
        got = _outputs(simulation.run_simulation_with_market(scenario))
        assert got == expected
        last = json.loads(got[0][-1])
        assert (last["tick"], last["sender"], last["kind"], last["reason"]) == (
            9, "buyer-1", "terminate", "deadline"
        )

    @pytest.mark.parametrize("source, variant", [
        pytest.param(source, variant, id=f"{source}-{variant}".removesuffix("-default"))
        for variant in ("default", "opening-idle")
        for source in ("concurrent.yaml", "market-10x5.yaml", "long-negotiation")
    ])
    def test_no_step_without_work(self, monkeypatch, source, variant):
        # A step with an empty inbox is only taken when the plan library
        # would send a pending opening or an entry's deadline has passed,
        # and then it sends something; anything else is polling.
        steps = []
        original = simulation.agent_step

        def checking(state, inbox, now):
            if not inbox:
                assert any(
                    now > e.t0 + e.t_max_eff
                    or (e.initiator and not e.opened
                        and _plan(state, e, now) is PlanKind.MAKE_OFFER)
                    for e in state.agenda_db
                ), f"{state.agent_id} stepped at tick {now} with nothing to do"
            outbox = original(state, inbox, now)
            assert outbox or inbox, f"{state.agent_id} stepped at tick {now} for nothing"
            steps.append(now)
            return outbox

        monkeypatch.setattr(simulation, "agent_step", checking)
        if source.endswith(".yaml"):
            text = (SCENARIOS_DIR / source).read_text(encoding="utf-8")
        else:
            text = _marketgen().generate(source, 0)
        scenario = load_scenario(text)
        if PLAN_VARIANTS[variant] is not None:
            scenario = _with_rules(scenario, PLAN_VARIANTS[variant])
        run_simulation(scenario)
        assert steps


class TestSessionOpenCounts:
    """On dense-market at seed 1 (432 opens of 216 sessions) the restriction
    and the opening are derived once per (agent, product, issue set), not
    once per open, and an answer to an offer builds its counter and scores
    it without either name. The counts are exact at this seed."""

    @staticmethod
    def counted_run(monkeypatch, workload, seed):
        """A run of the workload with the calls counted: `restrict`
        validations, `offer` (agent.generate_offer_package), `opening` (those
        made while a session opens) and `utility` (the three names of
        aggregate_utility that the benchmark's tracer counts)."""
        from agorasim import agent, core, tactics

        counts = {"restrict": 0, "offer": 0, "utility": 0, "opening": 0}
        opening = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                if opening and name == "offer":
                    counts["opening"] += 1
                return fn(*args, **kwargs)
            return wrapper

        def open_session(state, msg, now):
            opening.append(msg)
            try:
                return original_open(state, msg, now)
            finally:
                opening.pop()

        original_open = agent._open_session
        monkeypatch.setattr(agent, "_open_session", open_session)
        # restrict_agenda validates only what it has not restricted before.
        monkeypatch.setattr(core, "validate_agenda", counting("restrict", core.validate_agenda))
        monkeypatch.setattr(
            agent, "generate_offer_package", counting("offer", agent.generate_offer_package)
        )
        for module in (agent, tactics, simulation):
            monkeypatch.setattr(
                module, "aggregate_utility", counting("utility", module.aggregate_utility)
            )
        scenario = load_scenario(_marketgen().generate(workload, seed))
        lines, _, market = simulation.run_simulation_with_market(scenario)
        return counts, lines, market

    def test_dense_market_derives_each_opening_once(self, monkeypatch):
        counts, _, market = self.counted_run(monkeypatch, "dense-market", 1)
        opens = [
            (m.receiver, m.commence.product, frozenset(m.commence.issue_ids))
            for session in market.sessions.values()
            for m in session.transcript
            if m.commence is not None
        ]
        assert (len(opens), len(set(opens))) == (432, 72)
        assert counts["opening"] == 72
        assert counts["restrict"] == 72
        # 72 derived openings and 216 opening offers; 72 opening targets,
        # the resolutions and the report.
        assert counts["offer"] == 288
        assert counts["utility"] == 136

    def test_long_negotiation_utility_calls_do_not_grow_with_messages(self, monkeypatch):
        counts, lines, market = self.counted_run(monkeypatch, "long-negotiation", 1)
        sessions = len(market.sessions)
        # Per session and side at most one opening target, one resolution
        # candidate and one report utility; none per offer.
        assert counts["utility"] <= 6 * sessions
        assert len(lines) > 1000 * sessions


def reference_table(headers, rows):
    """The table with each cell ljust to its column's width: what _table
    writes with one format pattern."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    return lines


def reference_record_block(report):
    """The record block built as nested dicts and encoded whole: what
    emit_report writes out from per-record patterns."""
    record = {
        **vars(report),
        "sessions": [vars(s) for s in report.sessions],
        "agents": [vars(a) for a in report.agents],
    }
    return json.dumps(record, indent=2, sort_keys=True, ensure_ascii=False)


@st.composite
def tables(draw):
    headers = draw(st.lists(json_text, min_size=1, max_size=4))
    row = st.lists(json_text, min_size=len(headers), max_size=len(headers))
    return headers, draw(st.lists(row, max_size=4))


class TestEmitReport:
    @settings(max_examples=300, deadline=None)
    @given(from_fields(SimulationReport))
    def test_record_block_equals_the_encoded_record(self, report):
        text = emit_report(report)
        assert text.endswith("\n--- record ---\n" + reference_record_block(report) + "\n")

    @settings(max_examples=300, deadline=None)
    @given(tables())
    def test_table_equals_the_justified_cells(self, table):
        headers, rows = table
        assert simulation._table(headers, rows) == reference_table(headers, rows)

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
