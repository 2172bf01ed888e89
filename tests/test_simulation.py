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
from yaml.composer import Composer

from agorasim import marketplace, simulation, yamlload
from agorasim.agent import AgentState
from agorasim.core import DELIVERY_ORDER, MessageKind, Perspective
from agorasim.marketplace import Marketplace
from agorasim.tactics import STANCE_BETA, ResourceProjection, Stance, TacticParams
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
#: path the loader must name. A key of None adds the misspelling instead:
#: `plan_rules`, the plan library of earlier versions, as every agent now
#: follows one fixed plan.
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
    "plan_rules": (("agents", 0), None, "plan_rules", "$.agents[0].plan_rules"),
    "advertisement": (("advertisements", 0), "posted_at", "posted", "$.advertisements[0].posted"),
    "rfq": (("rfqs", 0), "min_reputation", "min_reputaton", "$.rfqs[0].min_reputaton"),
}


A0 = "$.agents[0]"
I0 = f"{A0}.agendas[0].issues[0]"
BIG = 10**309  # an integer past float range
STRING = "expected a non-empty string"
#: The values each field below is given: a missing key, then bad values.
BAD_VALUES = {"null": None, "list": [1], "empty": "", "true": True,
              "inf": math.inf, "nan": math.nan, "big": BIG}

#: Per field that the loader reads in one step: its route to a mapping in
#: FULL, its key, and the (path, reason) of the error that each case raises
#: (None: the document loads). Recorded before the field readers replaced
#: each `_as_*(_get(...))` pair, so that no path or reason moves.
FIELD_ERRORS = {
    "name": ((), "name", {
        "missing": None,
        "null": ("$.name", STRING),
        "list": ("$.name", STRING),
        "empty": ("$.name", STRING),
        "true": ("$.name", STRING),
        "inf": ("$.name", STRING),
        "nan": ("$.name", STRING),
        "big": ("$.name", STRING),
    }),
    "seed": ((), "seed", {
        "missing": None,
        "null": ("$.seed", "expected an integer, got None"),
        "list": ("$.seed", "expected an integer, got [1]"),
        "empty": ("$.seed", "expected an integer, got ''"),
        "true": ("$.seed", "expected an integer, got True"),
        "inf": ("$.seed", "expected an integer, got inf"),
        "nan": ("$.seed", "expected an integer, got nan"),
        "big": ("$.seed", "seed must be an unsigned 64-bit integer"),
    }),
    "t_end": ((), "t_end", {
        "missing": ("$", "missing required key 't_end'"),
        "null": ("$.t_end", "expected an integer, got None"),
        "list": ("$.t_end", "expected an integer, got [1]"),
        "empty": ("$.t_end", "expected an integer, got ''"),
        "true": ("$.t_end", "expected an integer, got True"),
        "inf": ("$.t_end", "expected an integer, got inf"),
        "nan": ("$.t_end", "expected an integer, got nan"),
        "big": ("$.t_end", "t_end must be at most 2**53 = 9007199254740992"),
    }),
    "agent.id": (("agents", 0), "id", {
        "missing": (A0, "missing required key 'id'"),
        "null": (f"{A0}.id", STRING),
        "list": (f"{A0}.id", STRING),
        "empty": (f"{A0}.id", STRING),
        "true": (f"{A0}.id", STRING),
        "inf": (f"{A0}.id", STRING),
        "nan": (f"{A0}.id", STRING),
        "big": (f"{A0}.id", STRING),
    }),
    "agent.jitter": (("agents", 0), "jitter", {
        "missing": None,
        "null": (f"{A0}.jitter", "expected a number, got None"),
        "list": (f"{A0}.jitter", "expected a number, got [1]"),
        "empty": (f"{A0}.jitter", "expected a number, got ''"),
        "true": (f"{A0}.jitter", "expected a number, got True"),
        "inf": (f"{A0}.jitter", "expected a finite number, got inf"),
        "nan": (f"{A0}.jitter", "expected a finite number, got nan"),
        "big": (f"{A0}.jitter", f"expected a finite number, got {BIG}"),
    }),
    "tactic.k": (("agents", 0, "tactic"), "k", {
        "missing": None,
        "null": (f"{A0}.tactic.k", "expected a number, got None"),
        "list": (f"{A0}.tactic.k", "expected a number, got [1]"),
        "empty": (f"{A0}.tactic.k", "expected a number, got ''"),
        "true": (f"{A0}.tactic.k", "expected a number, got True"),
        "inf": (f"{A0}.tactic.k", "expected a finite number, got inf"),
        "nan": (f"{A0}.tactic.k", "expected a finite number, got nan"),
        "big": (f"{A0}.tactic.k", f"expected a finite number, got {BIG}"),
    }),
    "agenda.product": (("agents", 0, "agendas", 0), "product", {
        "missing": (f"{A0}.agendas[0]", "missing required key 'product'"),
        "null": (f"{A0}.agendas[0].product", STRING),
        "list": (f"{A0}.agendas[0].product", STRING),
        "empty": (f"{A0}.agendas[0].product", STRING),
        "true": (f"{A0}.agendas[0].product", STRING),
        "inf": (f"{A0}.agendas[0].product", STRING),
        "nan": (f"{A0}.agendas[0].product", STRING),
        "big": (f"{A0}.agendas[0].product", STRING),
    }),
    "agenda.t_max": (("agents", 0, "agendas", 0), "t_max", {
        "missing": (f"{A0}.agendas[0]", "missing required key 't_max'"),
        "null": (f"{A0}.agendas[0].t_max", "expected an integer, got None"),
        "list": (f"{A0}.agendas[0].t_max", "expected an integer, got [1]"),
        "empty": (f"{A0}.agendas[0].t_max", "expected an integer, got ''"),
        "true": (f"{A0}.agendas[0].t_max", "expected an integer, got True"),
        "inf": (f"{A0}.agendas[0].t_max", "expected an integer, got inf"),
        "nan": (f"{A0}.agendas[0].t_max", "expected an integer, got nan"),
        "big": ("$.t_end", f"t_end 30 is below agenda t_max {BIG} ('b'/'vm')"),
    }),
    "issue.id": (("agents", 0, "agendas", 0, "issues", 0), "id", {
        "missing": (f"{I0}", "missing required key 'id'"),
        "null": (f"{I0}.id", STRING),
        "list": (f"{I0}.id", STRING),
        "empty": (f"{I0}.id", STRING),
        "true": (f"{I0}.id", STRING),
        "inf": (f"{I0}.id", STRING),
        "nan": (f"{I0}.id", STRING),
        "big": (f"{I0}.id", STRING),
    }),
    "issue.weight": (("agents", 0, "agendas", 0, "issues", 0), "weight", {
        "missing": None,
        "null": (f"{I0}.weight", "expected a number, got None"),
        "list": (f"{I0}.weight", "expected a number, got [1]"),
        "empty": (f"{I0}.weight", "expected a number, got ''"),
        "true": (f"{I0}.weight", "expected a number, got True"),
        "inf": (f"{I0}.weight", "expected a finite number, got inf"),
        "nan": (f"{I0}.weight", "expected a finite number, got nan"),
        "big": (f"{I0}.weight", f"expected a finite number, got {BIG}"),
    }),
    "issue.min": (("agents", 0, "agendas", 0, "issues", 0), "min", {
        "missing": (f"{I0}", "missing required key 'min'"),
        "null": (f"{I0}.min", "expected a number, got None"),
        "list": (f"{I0}.min", "expected a number, got [1]"),
        "empty": (f"{I0}.min", "expected a number, got ''"),
        "true": (f"{I0}.min", "expected a number, got True"),
        "inf": (f"{I0}.min", "expected a finite number, got inf"),
        "nan": (f"{I0}.min", "expected a finite number, got nan"),
        "big": (f"{I0}.min", f"expected a finite number, got {BIG}"),
    }),
    "issue.max": (("agents", 0, "agendas", 0, "issues", 0), "max", {
        "missing": (f"{I0}", "missing required key 'max'"),
        "null": (f"{I0}.max", "expected a number, got None"),
        "list": (f"{I0}.max", "expected a number, got [1]"),
        "empty": (f"{I0}.max", "expected a number, got ''"),
        "true": (f"{I0}.max", "expected a number, got True"),
        "inf": (f"{I0}.max", "expected a finite number, got inf"),
        "nan": (f"{I0}.max", "expected a finite number, got nan"),
        "big": (f"{I0}.max", f"expected a finite number, got {BIG}"),
    }),
    "posting.agent": (("advertisements", 0), "agent", {
        "missing": ("$.advertisements[0]", "missing required key 'agent'"),
        "null": ("$.advertisements[0].agent", STRING),
        "list": ("$.advertisements[0].agent", STRING),
        "empty": ("$.advertisements[0].agent", STRING),
        "true": ("$.advertisements[0].agent", STRING),
        "inf": ("$.advertisements[0].agent", STRING),
        "nan": ("$.advertisements[0].agent", STRING),
        "big": ("$.advertisements[0].agent", STRING),
    }),
    "posting.product": (("advertisements", 0), "product", {
        "missing": ("$.advertisements[0]", "missing required key 'product'"),
        "null": ("$.advertisements[0].product", STRING),
        "list": ("$.advertisements[0].product", STRING),
        "empty": ("$.advertisements[0].product", STRING),
        "true": ("$.advertisements[0].product", STRING),
        "inf": ("$.advertisements[0].product", STRING),
        "nan": ("$.advertisements[0].product", STRING),
        "big": ("$.advertisements[0].product", STRING),
    }),
    "posting.posted_at": (("advertisements", 0), "posted_at", {
        "missing": None,
        "null": ("$.advertisements[0].posted_at", "expected an integer, got None"),
        "list": ("$.advertisements[0].posted_at", "expected an integer, got [1]"),
        "empty": ("$.advertisements[0].posted_at", "expected an integer, got ''"),
        "true": ("$.advertisements[0].posted_at", "expected an integer, got True"),
        "inf": ("$.advertisements[0].posted_at", "expected an integer, got inf"),
        "nan": ("$.advertisements[0].posted_at", "expected an integer, got nan"),
        "big": ("$.advertisements[0].posted_at", f"posted_at must lie in [0, t_end=30], got {BIG}"),
    }),
    "rfq.min_reputation": (("rfqs", 0), "min_reputation", {
        "missing": None,
        "null": ("$.rfqs[0].min_reputation", "expected a number, got None"),
        "list": ("$.rfqs[0].min_reputation", "expected a number, got [1]"),
        "empty": ("$.rfqs[0].min_reputation", "expected a number, got ''"),
        "true": ("$.rfqs[0].min_reputation", "expected a number, got True"),
        "inf": ("$.rfqs[0].min_reputation", "expected a finite number, got inf"),
        "nan": ("$.rfqs[0].min_reputation", "expected a finite number, got nan"),
        "big": ("$.rfqs[0].min_reputation", f"expected a finite number, got {BIG}"),
    }),
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
        node[typo] = node.pop(key) if key is not None else [{"when": "always", "do": "idle"}]
        with pytest.raises(ScenarioValidationError) as exc:
            load_scenario(yaml.safe_dump(doc, sort_keys=False))
        assert exc.value.path == path
        assert exc.value.reason.startswith("unknown key")

    @pytest.mark.parametrize("case", ["missing", *BAD_VALUES])
    @pytest.mark.parametrize("field", sorted(FIELD_ERRORS))
    def test_field_errors_name_their_path(self, field, case):
        route, key, expected = FIELD_ERRORS[field]
        doc = copy.deepcopy(FULL)
        node = doc
        for step in route:
            node = node[step]
        if case == "missing":
            del node[key]
        else:
            node[key] = BAD_VALUES[case]
        document = yaml.safe_dump(doc, sort_keys=False)
        if expected[case] is None:
            load_scenario(document)
            return
        with pytest.raises(ScenarioValidationError) as exc:
            load_scenario(document)
        assert (exc.value.path, exc.value.reason) == expected[case]

    @pytest.mark.parametrize("old, new, path", [
        # Agenda.t_min was validated and then read by nothing.
        ("        t_max: 10\n", "        t_max: 10\n        t_min: 0\n",
         "$.agents[0].agendas[0].t_min"),
    ], ids=["t_min"])
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

    @pytest.mark.parametrize("shape", ["far-past", "wide-line"])
    def test_nesting_far_past_the_depth_cap_names_the_crossing_line(self, yaml_loader, shape):
        if shape == "wide-line":
            # One line of brackets to twice the cap, and one more on the next
            # line. The pure scanner reads the whole line and a token on
            # before the parser passes the line's first bracket, so a scanner
            # cap at twice MAX_DEPTH would name the next line.
            document = MINIMAL + "junk:\n " + "[" * (2 * yamlload.MAX_DEPTH) + "\n [\n"
            line = MINIMAL.count("\n") + 2
        else:
            # The pure scanner reads a line ahead of the parser, so a scanner
            # cap would name a later line than the crossing's.
            document = self.nested(yamlload.MAX_DEPTH + 100)
            line = MINIMAL.count("\n") + 1 + yamlload.MAX_DEPTH
        with pytest.raises(ScenarioParseError) as err:
            load_scenario(document)
        assert err.value.reason == "document is nested too deeply"
        assert err.value.line == line

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
        for document in (MINIMAL, MINIMAL.replace("vm}", "!!str vm}")):  # line scanner, second tier
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

    @pytest.mark.parametrize("source", [
        *SCENARIOS, *((name, seed) for name in sorted(_marketgen().WORKLOADS) for seed in range(10))
    ], ids=lambda s: getattr(s, "name", None) or f"{s[0]}-{s[1]}")
    def test_own_documents_are_read_from_their_lines(self, yaml_loader, monkeypatch, source):
        # The line scanner reads every document the project writes but
        # market-10x5.yaml, whose `schedule: [[0, 1.0], [48, 0.1]]` is a flow
        # sequence and sends it to the second tier, PyYAML's composer; either
        # way the scenario is the one the composer builds.
        if isinstance(source, Path):
            text = source.read_text(encoding="utf-8")
        else:
            text = _marketgen().generate(*source)
        scan_lines = yamlload._LineLoader._scan_lines
        monkeypatch.setattr(yamlload._LineLoader, "_scan_lines", lambda self: yamlload._EVENTS)
        from_composer = load_scenario(text)
        compose = Composer.get_single_node
        read = []

        def spy(self):
            read.append(True)
            return compose(self)

        monkeypatch.setattr(yamlload._LineLoader, "_scan_lines", scan_lines)
        monkeypatch.setattr(Composer, "get_single_node", spy)
        assert load_scenario(text) == from_composer
        assert len(read) == (getattr(source, "name", None) == "market-10x5.yaml")

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


def _outputs(run):
    lines, report, market = run
    return lines, emit_report(report), market.trust.export_lines()


def _tiny_workload(name, seed):
    marketgen = _marketgen()
    return load_scenario(marketgen.generate(name, seed, **marketgen.WORKLOADS[name].tiny))


#: Agent settings that change when offers are conceded and taken and when
#: sessions close, for the polling comparisons: each puts every agent of a
#: scenario on one setting. The shipped scenarios' agents are mostly
#: conceders and long-negotiation's all linear, so each comparison adds the
#: stance its inputs do not already run on. Under disjoint.yaml the seller's
#: opening lies outside the buyer's space and the session idles, so there a
#: stance changes nothing.
VARIANTS = ("depleted", "headstrong", "jittered")


#: Resources that run down from 1 at tick 0 to 0 at tick 20 against a
#: threshold of 0.5: a session commenced at tick t has a deadline of at
#: most 10 - t, and past tick 10 one of 0.
DEPLETED = ResourceProjection(points=((0.0, 1.0), (20.0, 0.0)), r_threshold=0.5)


def _on_variant(spec, variant):
    if variant == "jittered":
        return replace(spec, jitter=0.3)
    if variant == "depleted":
        return replace(spec, resources=DEPLETED)
    stance = Stance(variant)
    tactic = TacticParams(k=spec.tactic.k, beta=STANCE_BETA[stance], stance=stance)
    return replace(spec, tactic=tactic)


def _with_variant(scenario, variant):
    """The scenario with every agent on the given variant; "default" leaves
    it as written. A stance keeps each agent's k and takes the stance's
    beta; "jittered" draws each counter's concession from the agent's
    seeded stream; "depleted" puts every agent on DEPLETED resources."""
    if variant == "default":
        return scenario
    agents = tuple(_on_variant(a, variant) for a in scenario.agents)
    return replace(scenario, agents=agents)


def _idle_bilateral(t_max, t_end):
    """bilateral.yaml with the seller's price range moved to [15, 25]. The
    seller initiates; its k = 0 opening at 25 lies outside the buyer's
    [10, 20], so the buyer rejects it as out-of-space, and neither side
    speaks again until the deadline sweep."""
    text = (SCENARIOS_DIR / "bilateral.yaml").read_text(encoding="utf-8")
    text = text.replace("t_end: 64", f"t_end: {t_end}").replace("t_max: 20", f"t_max: {t_max}")
    buyer, seller, rest = text.partition("  - id: seller-1\n")
    rest = rest.replace("min: 10, max: 20", "min: 15, max: 25", 1)
    return load_scenario(buyer + seller + rest)


def _assert_idles(lines):
    """The session idled: its one offer is the seller's opening, which the
    buyer rejects (or, past a zero deadline, never reads), and it ended, if
    at all, by the deadline sweep."""
    records = [json.loads(line) for line in lines]
    assert [r["kind"] for r in records[:3]] == ["commence", "commence", "offer"]
    assert records[2]["sender"] == "seller-1"
    assert all((r["kind"], r["reason"]) == ("terminate", "deadline") for r in records[3:])


class TestWakeUps:
    @pytest.mark.parametrize("variant", ["default", *VARIANTS, "linear"])
    @pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.stem)
    def test_shipped_scenarios_match_polling(self, path, variant):
        scenario = _with_variant(load_scenario(path.read_text(encoding="utf-8")), variant)
        expected = _outputs(_polling_run(scenario))
        assert _outputs(simulation.run_simulation_with_market(scenario)) == expected

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("workload", sorted(_marketgen().WORKLOADS))
    def test_workloads_match_polling(self, workload, seed):
        scenario = _tiny_workload(workload, seed)
        expected = _outputs(_polling_run(scenario))
        assert _outputs(simulation.run_simulation_with_market(scenario)) == expected

    @pytest.mark.parametrize("variant", ["conceder", *VARIANTS])
    @pytest.mark.parametrize("workload", sorted(_marketgen().WORKLOADS))
    def test_workload_variants_match_polling(self, workload, variant):
        scenario = _with_variant(_tiny_workload(workload, 0), variant)
        expected = _outputs(_polling_run(scenario))
        assert _outputs(simulation.run_simulation_with_market(scenario)) == expected

    @pytest.mark.parametrize("source, variant", [
        *(pytest.param(source, variant, id=f"{source}-{variant}".removesuffix("-default"))
          for variant in ("default", "depleted")
          for source in ("concurrent.yaml", "market-10x5.yaml", "long-negotiation")),
        pytest.param("idle-bilateral", "default", id="idle-bilateral"),
    ])
    def test_no_step_without_work(self, monkeypatch, source, variant):
        # A step with an empty inbox is only taken when a pending opening
        # is to be sent or an entry's deadline has passed, and then it sends
        # something; anything else is polling.
        steps = []
        original = simulation.agent_step

        def checking(state, inbox, now):
            if not inbox:
                assert any(
                    now > e.t0 + e.t_max_eff or (e.initiator and not e.opened)
                    for e in state.agenda_db
                ), f"{state.agent_id} stepped at tick {now} with nothing to do"
            outbox = original(state, inbox, now)
            assert outbox or inbox, f"{state.agent_id} stepped at tick {now} for nothing"
            steps.append(now)
            return outbox

        monkeypatch.setattr(simulation, "agent_step", checking)
        if source == "idle-bilateral":
            scenario = _idle_bilateral(40, 300)
        elif source.endswith(".yaml"):
            scenario = load_scenario((SCENARIOS_DIR / source).read_text(encoding="utf-8"))
        else:
            scenario = load_scenario(_marketgen().generate(source, 0))
        lines, _ = run_simulation(_with_variant(scenario, variant))
        assert steps
        if source == "idle-bilateral":
            _assert_idles(lines)
            # Both parties read COMMENCE at 1, the buyer rejects the opening
            # at 2, both sweep the session at 42, past its deadline at 41,
            # and at 43 the seller reads the buyer's TERMINATE for it.
            assert steps == [1, 1, 2, 42, 42, 43]


class TestIdleSessions:
    """While every open session idles, the tick loop skips to the next tick
    that can do anything instead of visiting each tick in between."""

    @pytest.mark.parametrize("t_max, t_end", [(300, 300), (40, 300), (0, 5)])
    def test_idle_sessions_match_polling(self, t_max, t_end):
        scenario = _idle_bilateral(t_max, t_end)
        expected = _outputs(_polling_run(scenario))
        assert _outputs(simulation.run_simulation_with_market(scenario)) == expected
        _assert_idles(expected[0])

    def test_the_run_past_the_deadline_sweep_ignores_t_end(self):
        # The sweep closes both sessions at tick 42 and the run ends at 43,
        # whatever t_end lies past it.
        expected = _outputs(_polling_run(_idle_bilateral(40, 300)))
        far = simulation.run_simulation_with_market(_idle_bilateral(40, 2**53))
        assert _outputs(far) == expected
        _assert_idles(far[0])
        assert far[1].ticks == 43

    def test_sessions_open_up_to_the_float_limit(self, monkeypatch):
        # The deadline lies past t_end: both sessions stay open for the whole
        # run, whose last tick is t_end itself, as with a visit to every tick.
        visited = []
        original = simulation.Marketplace.due_messages

        def counting(market, now):
            visited.append(now)
            return original(market, now)

        monkeypatch.setattr(simulation.Marketplace, "due_messages", counting)
        lines, report = run_simulation(_idle_bilateral(2**53, 2**53))
        # COMMENCE at 0, the opening at 1, its rejection at 2, then t_end.
        assert visited == [0, 1, 2, 2**53]
        assert report.ticks == 2**53
        assert [s.outcome for s in report.sessions] == ["open"]
        _assert_idles(lines)
        assert len(lines) == 3


class TestDeadlineContract:
    """The step's opening sweep is the agent's only deadline check. It holds
    because of the delivery contract: every message an agent reads was sent
    at the tick before, and the sweep has already ended every session whose
    deadline has passed. The seller's schedule depletes to its threshold
    at 2.4, within the session's t_max, so the hybrid deadline binds while
    offers are in flight."""

    DEPLETING = (SCENARIOS_DIR / "bilateral.yaml").read_text(encoding="utf-8").replace(
        "  - id: seller-1\n    role: seller\n",
        "  - id: seller-1\n    role: seller\n"
        "    resources: {threshold: 0.2, schedule: [[0, 1.0], [3, 0.0]]}\n",
    )

    def test_every_message_read_is_live(self, monkeypatch):
        from agorasim import agent

        stepping = []
        filtered = []
        original_step = simulation.agent_step
        original_filter = agent.proxy_filter

        def step(state, inbox, now):
            stepping.append(state)
            return original_step(state, inbox, now)

        def spy(msg, entry, now):
            assert msg.sent_at == now - 1, (msg, now)
            for live in stepping[-1].agenda_db:
                assert not now > live.t0 + live.t_max_eff, (live.session, now)
            filtered.append(now)
            return original_filter(msg, entry, now)

        monkeypatch.setattr(simulation, "agent_step", step)
        monkeypatch.setattr(agent, "proxy_filter", spy)
        assert "resources" in self.DEPLETING
        _, report = run_simulation(load_scenario(self.DEPLETING))
        assert filtered
        assert [(s.outcome, s.reason) for s in report.sessions] == [("terminated", "deadline")]


class TestTracedCallCounts:
    """The names the benchmark's tracer wraps on the message path are called
    once per message or step: on long-negotiation at seed 1, 11 697 messages
    are routed (11 691 offers and 6 acquires), each is filtered once by its
    receiver, and each offer is answered by one decide_response. The hybrid
    deadline is computed once per COMMENCE received, 6 sessions times 2
    parties, and never again on the offer path. An inlined copy that
    bypassed a name would zero its per-layer metrics (`agent.filter`,
    `agent.reject.*`, `tactics.decide`, `tactics.deadline`); the counts are
    exact at this seed.

    Dense-market at seed 1 takes the paths long-negotiation never reaches:
    COMMENCE bursts (216 sessions, 432 opens), deadline sweeps, TERMINATEs,
    and `unknown-session` and `out-of-space` rejections, so fewer offers are
    answered than messages filtered, and more messages routed than
    filtered."""

    @staticmethod
    def counted_run(monkeypatch, workload):
        """The calls of each wrapped name in one run of the workload at seed 1."""
        from agorasim import agent

        counts = dict.fromkeys(("filter", "decide", "deadline", "step", "route"), 0)

        def counting(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(agent, "proxy_filter", counting("filter", agent.proxy_filter))
        monkeypatch.setattr(agent, "decide_response", counting("decide", agent.decide_response))
        monkeypatch.setattr(
            agent, "effective_deadline", counting("deadline", agent.effective_deadline)
        )
        monkeypatch.setattr(simulation, "agent_step", counting("step", simulation.agent_step))
        monkeypatch.setattr(
            Marketplace, "route_message", counting("route", Marketplace.route_message)
        )
        run_simulation(load_scenario(_marketgen().generate(workload, 1)))
        return counts

    def test_long_negotiation_seed_1(self, monkeypatch):
        assert self.counted_run(monkeypatch, "long-negotiation") == {
            "filter": 11_697, "decide": 11_691, "deadline": 12, "step": 7_824, "route": 11_697,
        }

    def test_dense_market_seed_1(self, monkeypatch):
        assert self.counted_run(monkeypatch, "dense-market") == {
            "filter": 548, "decide": 142, "deadline": 432, "step": 283, "route": 678,
        }


class TestSessionOpenCounts:
    """On dense-market at seed 1 (432 opens of 216 sessions) the restriction
    is derived once per (agent, product, issue set), not once per open;
    opening a session derives no offer, and an answer to an offer builds its
    counter and scores it without either name. The counts are exact at this
    seed."""

    @staticmethod
    def counted_run(monkeypatch, workload, seed):
        """A run of the workload with the calls counted: `restrict`
        validations, `offer` (agent.generate_offer_package) and `utility`
        (the three names of aggregate_utility that the benchmark's tracer
        counts)."""
        from agorasim import agent, core, tactics

        counts = {"restrict": 0, "offer": 0, "utility": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

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

    def test_dense_market_derives_each_restriction_once(self, monkeypatch):
        counts, _, market = self.counted_run(monkeypatch, "dense-market", 1)
        opens = [
            (m.receiver, m.commence.product, frozenset(m.commence.issue_ids))
            for session in market.sessions.values()
            for m in session.transcript
            if m.commence is not None
        ]
        assert (len(opens), len(set(opens))) == (432, 72)
        assert counts["restrict"] == 72
        # One offer package per opening offer (the seller initiates), none
        # while a session opens; the utilities are the resolutions and the
        # report.
        openings = sum(
            1 for session in market.sessions.values()
            for m in session.transcript
            if m.kind is MessageKind.OFFER and m.sender == session.seller and m.round == 0
        )
        assert counts["offer"] == openings == 216
        assert counts["utility"] == 64

    def test_long_negotiation_utility_calls_do_not_grow_with_messages(self, monkeypatch):
        counts, lines, market = self.counted_run(monkeypatch, "long-negotiation", 1)
        sessions = len(market.sessions)
        # Per session and side at most one resolution candidate and one
        # report utility; none per offer.
        assert counts["utility"] <= 4 * sessions
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
