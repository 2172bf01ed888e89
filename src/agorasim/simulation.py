"""Deterministic discrete-event kernel, scenario loading, and reporting.

One tick runs: post ads/RFQs due, matchmake the products whose matches may
have changed, deliver due messages, step in id order the agents that have
mail or are past their wake threshold (`agent.wake_threshold`: an opening
is due or an entry's deadline has passed), and route their outboxes.
Each agent reads its inbox, and the loop routes, in one order,
`core.DELIVERY_ORDER` (send tick, session, sender, round). Stepping any
other agent would do nothing, so the run is the same as stepping every
agent. After a tick with mail pending or a stale product the loop goes to
the next tick. Otherwise it skips to the next posting, the first tick past
the lowest wake threshold or t_end, whichever comes first: no tick between
does anything. The run ends at a tick at or after the last posting when
no session is open (the marketplace keeps the count), no agent holds a
live entry and no mail is pending. Then no product is stale either:
matchmaking emptied the stale set this tick, and only a close refills it,
after queueing its closing message. Two runs with the same scenario and
seed produce byte-identical transcripts and reports.
"""

from __future__ import annotations

import bisect
import math
import random
import sys
from dataclasses import dataclass, fields
from itertools import repeat
from operator import attrgetter
from typing import Any, Optional

import yaml

from .agent import AgentState, agent_step, wake_threshold
from .core import (
    DELIVERY_ORDER,
    Agenda,
    AgendaError,
    AgentId,
    Direction,
    IssueSpec,
    Perspective,
    ProductId,
    ValidatedAgenda,
    restrict_agenda,
    validate_agenda,
)
from .marketplace import Marketplace, SessionOutcome, SessionState, _json
from .tactics import (
    BETA_MAX,
    BETA_MIN,
    ResourceProjection,
    Stance,
    TacticParams,
    STANCE_BETA,
    aggregate_utility,
)
from . import yamlload


class ScenarioParseError(ValueError):
    """Document is not well-formed; carries the offending line number."""

    def __init__(self, line: Optional[int], reason: str) -> None:
        self.line = line
        self.reason = reason
        where = f"line {line}" if line is not None else "document"
        super().__init__(f"{where}: {reason}")


class ScenarioValidationError(ValueError):
    """Document parsed but violates the scenario schema at `path`."""

    def __init__(self, path: str, reason: str) -> None:
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


# ---------------------------------------------------------------------------
# Scenario model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AgentSpec:
    agent_id: AgentId
    role: Perspective
    tactic: TacticParams
    resources: ResourceProjection
    agendas: dict[ProductId, ValidatedAgenda]
    jitter: float = 0.0


@dataclass(frozen=True)
class AdSpec:
    agent: AgentId
    product: ProductId
    issues: Optional[tuple[str, ...]]
    posted_at: int


@dataclass(frozen=True)
class RfqSpec:
    agent: AgentId
    product: ProductId
    issues: Optional[tuple[str, ...]]
    min_reputation: float
    posted_at: int


@dataclass(frozen=True)
class ScenarioOptions:
    require_overlap: bool = True


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    t_end: int
    options: ScenarioOptions
    agents: tuple[AgentSpec, ...]
    advertisements: tuple[AdSpec, ...]
    rfqs: tuple[RfqSpec, ...]


# ---------------------------------------------------------------------------
# Loader: `yaml.load` with a `yamlload` loader turns the text into plain
# dicts, lists and scalars, SafeLoader's data, nesting capped at
# `yamlload.MAX_DEPTH`, in two tiers. Documents in the scenario files' block
# layout are read from their lines; any other is read once by PyYAML's own
# composer and constructor, the cap applied. The functions below validate that
# data into the frozen model above, each field fetched and checked in one
# step, and name the path of the first violation.
# ---------------------------------------------------------------------------

#: Largest t_end. Ticks are compared with float deadlines (t0 + t_max_eff)
#: and scaled as floats by the tactic kernels; past 2**53 a tick is no
#: longer an exact float, and past float range it cannot be converted.
MAX_T_END = 2**53

_ROLES = {"buyer": Perspective.BUYER, "seller": Perspective.SELLER}
_DIRECTIONS = {"ascending": Direction.ASCENDING, "descending": Direction.DESCENDING}
_STANCES = {s.value: s for s in Stance}
_REQUIRED = object()  # a field reader's default: the key must be present
_FLOAT_MAX = sys.float_info.max

#: The keys each scenario mapping accepts, the ones its parser reads.
#: scenarios/README.md documents every key; a test keeps the two equal.
KEYS: dict[str, frozenset[str]] = {
    "root": frozenset({"name", "seed", "t_end", "options", "agents", "advertisements", "rfqs"}),
    "options": frozenset({"require_overlap"}),
    "agent": frozenset({"id", "role", "tactic", "resources", "jitter", "agendas"}),
    "tactic": frozenset({"stance", "k", "beta"}),
    "resources": frozenset({"threshold", "schedule"}),
    "agenda": frozenset({"product", "t_max", "issues"}),
    "issue": frozenset({"id", "weight", "min", "max", "direction"}),
    "advertisement": frozenset({"agent", "product", "issues", "posted_at"}),
    "rfq": frozenset({"agent", "product", "issues", "min_reputation", "posted_at"}),
}


def _fail(path: str, reason: str) -> Any:
    raise ScenarioValidationError(path, reason)


def _as_map(node: Any, path: str, keys: frozenset[str]) -> dict:
    """The node as a mapping whose every key is in `keys`; an unknown key
    fails at its own path, so a misspelling cannot take a default."""
    if not isinstance(node, dict):
        _fail(path, f"expected a mapping, got {type(node).__name__}")
    if not keys.issuperset(node):
        key = next(k for k in node if k not in keys)
        _fail(f"{path}.{key}", f"unknown key; expected one of {sorted(keys)}")
    return node


def _as_list(node: Any, path: str) -> list:
    if not isinstance(node, list):
        _fail(path, f"expected a list, got {type(node).__name__}")
    return node


def _as_str(value: Any, path: str) -> str:
    if not isinstance(value, str) or not value:
        _fail(path, "expected a non-empty string")
    return value


def _as_int(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    return value


def _as_float(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer past float range
        number = math.inf
    if not math.isfinite(number):
        _fail(path, f"expected a finite number, got {value!r}")
    return number


def _as_bool(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        _fail(path, f"expected a boolean, got {value!r}")
    return value


# Field readers: `node[key]`, else `default` (none: the key is required), as
# the reader's type. A valid value passes one test. Any other goes to `_field`,
# which names the mapping's `path` for a missing key and has the `_as_*` check
# fail at the field's own path: a path is formatted only to name a failure.
def _field(value: Any, key: str, path: str, check: Any) -> Any:
    if value is _REQUIRED:
        _fail(path, f"missing required key {key!r}")
    return check(value, f"{path}.{key}")


def _str_field(node: dict, key: str, path: str, default: Any = _REQUIRED) -> str:
    value = node.get(key, default)
    return value if type(value) is str and value else _field(value, key, path, _as_str)


def _int_field(node: dict, key: str, path: str, default: Any = _REQUIRED) -> int:
    value = node.get(key, default)
    return value if type(value) is int else _field(value, key, path, _as_int)


def _float_field(node: dict, key: str, path: str, default: Any = _REQUIRED) -> float:
    value = node.get(key, default)
    if (type(value) is float or type(value) is int) and -_FLOAT_MAX <= value <= _FLOAT_MAX:
        return float(value)
    return _field(value, key, path, _as_float)


def _list_field(node: dict, key: str, path: str, default: Any = _REQUIRED) -> list:
    value = node.get(key, default)
    return value if type(value) is list else _field(value, key, path, _as_list)


def _enum(value: Any, table: dict, path: str) -> Any:
    name = _as_str(value, path)
    if name not in table:
        _fail(path, f"expected one of {sorted(table)}, got {name!r}")
    return table[name]


def _parse_tactic(node: Any, path: str) -> TacticParams:
    if node is None:
        return TacticParams()
    node = _as_map(node, path, KEYS["tactic"])
    stance = _enum(node.get("stance", "linear"), _STANCES, f"{path}.stance")
    k = _float_field(node, "k", path, 0.0)
    if not 0.0 <= k <= 1.0:
        _fail(f"{path}.k", f"k must lie in [0, 1], got {k}")
    beta_node = node.get("beta")
    beta = STANCE_BETA[stance] if beta_node is None else _as_float(beta_node, f"{path}.beta")
    if not BETA_MIN <= beta <= BETA_MAX:
        _fail(f"{path}.beta", f"beta must lie in [{BETA_MIN}, {BETA_MAX}], got {beta}")
    return TacticParams(k=k, beta=beta, stance=stance)


def _parse_resources(node: Any, path: str) -> ResourceProjection:
    if node is None:
        return ResourceProjection()
    node = _as_map(node, path, KEYS["resources"])
    threshold = _float_field(node, "threshold", path, 0.1)
    if not 0.0 < threshold < 1.0:
        _fail(f"{path}.threshold", f"threshold must lie in (0, 1), got {threshold}")
    sched_node = node.get("schedule")
    if sched_node is None:
        return ResourceProjection(r_threshold=threshold)
    points = []
    prev_t = None
    for i, point in enumerate(_as_list(sched_node, f"{path}.schedule")):
        ppath = f"{path}.schedule[{i}]"
        pair = _as_list(point, ppath)
        if len(pair) != 2:
            _fail(ppath, "expected a [tick, level] pair")
        t = _as_float(pair[0], f"{ppath}[0]")
        level = _as_float(pair[1], f"{ppath}[1]")
        if not 0.0 <= level <= 1.0:
            _fail(f"{ppath}[1]", f"level must lie in [0, 1], got {level}")
        if prev_t is not None and t < prev_t:
            _fail(f"{ppath}[0]", "schedule ticks must be non-decreasing")
        prev_t = t
        points.append((t, level))
    if not points:
        _fail(f"{path}.schedule", "schedule must have at least one point")
    return ResourceProjection(points=tuple(points), r_threshold=threshold)


def _parse_agenda(node: Any, path: str, role: Perspective) -> tuple[ProductId, ValidatedAgenda]:
    node = _as_map(node, path, KEYS["agenda"])
    product = _str_field(node, "product", path)
    t_max = _int_field(node, "t_max", path)
    default_direction = Direction.ASCENDING if role is Perspective.BUYER else Direction.DESCENDING
    issues = []
    for i, issue_node in enumerate(_list_field(node, "issues", path)):
        ipath = f"{path}.issues[{i}]"
        issue_node = _as_map(issue_node, ipath, KEYS["issue"])
        direction_node = issue_node.get("direction")
        direction = (
            default_direction
            if direction_node is None
            else _enum(direction_node, _DIRECTIONS, f"{ipath}.direction")
        )
        issues.append(
            IssueSpec(
                issue_id=_str_field(issue_node, "id", ipath),
                weight=_float_field(issue_node, "weight", ipath, 1.0),
                min_value=_float_field(issue_node, "min", ipath),
                max_value=_float_field(issue_node, "max", ipath),
                direction=direction,
            )
        )
    try:
        agenda = validate_agenda(Agenda(issues=tuple(issues), t_max=t_max))
    except AgendaError as exc:
        _fail(path, str(exc))
    return product, agenda


def _parse_agent(node: Any, path: str) -> AgentSpec:
    node = _as_map(node, path, KEYS["agent"])
    agent_id = _str_field(node, "id", path)
    if agent_id.startswith("@"):
        _fail(f"{path}.id", "agent ids starting with '@' are reserved")
    role = _enum(_str_field(node, "role", path), _ROLES, f"{path}.role")
    tactic = _parse_tactic(node.get("tactic"), f"{path}.tactic")
    resources = _parse_resources(node.get("resources"), f"{path}.resources")
    jitter = _float_field(node, "jitter", path, 0.0)
    if not 0.0 <= jitter <= 1.0:
        _fail(f"{path}.jitter", f"jitter must lie in [0, 1], got {jitter}")
    agendas: dict[ProductId, ValidatedAgenda] = {}
    for i, agenda_node in enumerate(_list_field(node, "agendas", path)):
        product, agenda = _parse_agenda(agenda_node, f"{path}.agendas[{i}]", role)
        if product in agendas:
            _fail(f"{path}.agendas[{i}]", f"duplicate agenda for product {product!r}")
        agendas[product] = agenda
    return AgentSpec(
        agent_id=agent_id,
        role=role,
        tactic=tactic,
        resources=resources,
        agendas=agendas,
        jitter=jitter,
    )


def _check_posting(
    node: dict, path: str, agents: dict[AgentId, AgentSpec]
) -> tuple[AgentId, ProductId, Optional[tuple[str, ...]]]:
    agent = _str_field(node, "agent", path)
    product = _str_field(node, "product", path)
    spec = agents.get(agent)
    if spec is None:
        _fail(f"{path}.agent", f"unknown agent {agent!r}")
    agenda = spec.agendas.get(product)
    if agenda is None:
        _fail(f"{path}.product", f"agent {agent!r} declares no agenda for {product!r}")
    issues_node = node.get("issues")
    issues = None
    if issues_node is not None:
        issues = tuple(
            _as_str(v, f"{path}.issues[{i}]")
            for i, v in enumerate(_as_list(issues_node, f"{path}.issues"))
        )
        if not issues:
            # A session over no issues has no agenda to negotiate.
            _fail(f"{path}.issues", "expected at least one issue")
        unknown = set(issues) - set(agenda.issue_ids())
        if unknown:
            _fail(f"{path}.issues", f"issues {sorted(unknown)} not in the declared agenda")
    return agent, product, issues


def _posting_tick(node: dict, path: str, t_end: int) -> int:
    posted_at = _int_field(node, "posted_at", path, 0)
    if not 0 <= posted_at <= t_end:
        _fail(f"{path}.posted_at", f"posted_at must lie in [0, t_end={t_end}], got {posted_at}")
    return posted_at


def _yaml_loader() -> type:
    """The `yamlload` loader on libyaml when PyYAML has libyaml, else on
    PyYAML's pure-Python parser."""
    if hasattr(yaml, "CSafeLoader"):
        return yamlload.LibyamlLoader
    return yamlload.PureLoader


def load_scenario(document: str) -> Scenario:
    """Parse and fully validate a scenario document.

    The document is parsed by one `yaml.load` call with a `yamlload`
    loader, in two tiers. A document in the block layout that `marketgen`
    writes (plain tokens, one-line flow maps of them, no quotes or tabs) is
    read from its lines without the parser, each distinct token and flow-map
    part built once. Any other document is read once by PyYAML's own
    pure-Python composer and its constructor, the depth cap applied as the
    events are read, on libyaml's parser when PyYAML was built with it, else
    on PyYAML's pure-Python parser.
    Either way the data and the error line numbers are those of
    `yaml.SafeLoader`; only the wording of a parse error's reason depends on
    the parser. Raises ScenarioParseError, with the line, for malformed YAML,
    for a tagged value that cannot be constructed and for a collection
    nested more than `yamlload.MAX_DEPTH` levels deep; raises
    ScenarioValidationError (with a path) for schema violations, a key the
    mapping does not accept among them. Each field is fetched and checked in
    one step, and a path is formatted only to name a failure.
    """
    try:
        root = yaml.load(document, Loader=_yaml_loader())
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        line = mark.line + 1 if mark is not None else None
        reason = getattr(exc, "problem", None) or str(exc)
        raise ScenarioParseError(line, reason) from None
    if root is None:
        raise ScenarioValidationError("$", "empty document")
    root = _as_map(root, "$", KEYS["root"])

    name = _str_field(root, "name", "$", "scenario")
    seed = _int_field(root, "seed", "$", 0)
    if not 0 <= seed < 2**64:
        _fail("$.seed", "seed must be an unsigned 64-bit integer")
    t_end = _int_field(root, "t_end", "$")
    if t_end <= 0:
        _fail("$.t_end", "t_end must be positive")
    if t_end > MAX_T_END:
        _fail("$.t_end", f"t_end must be at most 2**53 = {MAX_T_END}")

    options_node = root.get("options")
    options = ScenarioOptions()
    if options_node is not None:
        options_node = _as_map(options_node, "$.options", KEYS["options"])
        overlap = options_node.get("require_overlap", True)
        options = ScenarioOptions(require_overlap=_as_bool(overlap, "$.options.require_overlap"))

    agents: dict[AgentId, AgentSpec] = {}
    for i, agent_node in enumerate(_list_field(root, "agents", "$")):
        spec = _parse_agent(agent_node, f"$.agents[{i}]")
        if spec.agent_id in agents:
            _fail(f"$.agents[{i}].id", f"duplicate agent id {spec.agent_id!r}")
        agents[spec.agent_id] = spec
    if not agents:
        _fail("$.agents", "scenario declares no agents")

    for spec in agents.values():
        for product, agenda in spec.agendas.items():
            if agenda.t_max > t_end:
                _fail(
                    "$.t_end",
                    f"t_end {t_end} is below agenda t_max {agenda.t_max} "
                    f"({spec.agent_id!r}/{product!r})",
                )

    ads = []
    for i, node in enumerate(_list_field(root, "advertisements", "$", [])):
        path = f"$.advertisements[{i}]"
        node = _as_map(node, path, KEYS["advertisement"])
        agent, product, issues = _check_posting(node, path, agents)
        posted_at = _posting_tick(node, path, t_end)
        ads.append(AdSpec(agent=agent, product=product, issues=issues, posted_at=posted_at))

    rfqs = []
    for i, node in enumerate(_list_field(root, "rfqs", "$", [])):
        path = f"$.rfqs[{i}]"
        node = _as_map(node, path, KEYS["rfq"])
        agent, product, issues = _check_posting(node, path, agents)
        min_reputation = _float_field(node, "min_reputation", path, 0.0)
        if not 0.0 <= min_reputation <= 1.0:
            _fail(f"{path}.min_reputation", "min_reputation must lie in [0, 1]")
        posted_at = _posting_tick(node, path, t_end)
        rfqs.append(
            RfqSpec(
                agent=agent,
                product=product,
                issues=issues,
                min_reputation=min_reputation,
                posted_at=posted_at,
            )
        )

    return Scenario(
        name=name,
        seed=seed,
        t_end=t_end,
        options=options,
        agents=tuple(agents.values()),
        advertisements=tuple(ads),
        rfqs=tuple(rfqs),
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SessionReport:
    session: str
    product: str
    buyer: str
    seller: str
    outcome: str
    reason: Optional[str]
    rounds: int
    buyer_utility: Optional[float]
    seller_utility: Optional[float]
    closed_at: Optional[int]


@dataclass(frozen=True)
class AgentReport:
    agent: str
    behavior_norm: float
    stance: str
    reputation: float
    agreements: int
    sessions_observed: int
    violations: int


@dataclass(frozen=True)
class SimulationReport:
    scenario: str
    seed: int
    ticks: int
    sessions: tuple[SessionReport, ...]
    agents: tuple[AgentReport, ...]


# ---------------------------------------------------------------------------
# Kernel
# ---------------------------------------------------------------------------

def _final_utilities(
    market: Marketplace, session: SessionState
) -> tuple[Optional[float], Optional[float]]:
    if session.outcome is not SessionOutcome.AGREED or session.final_package is None:
        return None, None
    utilities = []
    for agent, perspective in (
        (session.buyer, Perspective.BUYER),
        (session.seller, Perspective.SELLER),
    ):
        declared = market.repo.declared_agenda(agent, session.product)
        if declared is None:
            utilities.append(None)
            continue
        agenda = restrict_agenda(declared, session.issue_ids)
        utilities.append(aggregate_utility(agenda, session.final_package, perspective))
    return utilities[0], utilities[1]


def _build_report(scenario: Scenario, seed: int, ticks: int, market: Marketplace) -> SimulationReport:
    sessions = []
    for sid in sorted(market.sessions):
        record = market.sessions[sid]
        buyer_u, seller_u = _final_utilities(market, record)
        sessions.append(
            SessionReport(
                session=sid,
                product=record.product,
                buyer=record.buyer,
                seller=record.seller,
                outcome=record.outcome.value,
                reason=record.close_reason,
                rounds=record.offer_count,
                buyer_utility=buyer_u,
                seller_utility=seller_u,
                closed_at=record.closed_at,
            )
        )
    agents = []
    for rec in market.trust.records():
        agents.append(
            AgentReport(
                agent=rec.agent,
                behavior_norm=rec.behavior_norm,
                stance=rec.stance.value,
                reputation=rec.reputation,
                agreements=rec.stats.agreements,
                sessions_observed=rec.stats.sessions_observed,
                violations=rec.stats.violations,
            )
        )
    return SimulationReport(
        scenario=scenario.name,
        seed=seed,
        ticks=ticks,
        sessions=tuple(sessions),
        agents=tuple(agents),
    )


def build_agent_states(scenario: Scenario, seed: int) -> dict[AgentId, AgentState]:
    """Instantiate runtime agents; each jittered agent gets its own
    deterministic RNG stream, seeded from the run's seed and its id."""
    states: dict[AgentId, AgentState] = {}
    for spec in sorted(scenario.agents, key=lambda s: s.agent_id):
        states[spec.agent_id] = AgentState(
            agent_id=spec.agent_id,
            role=spec.role,
            tactic=spec.tactic,
            resources=spec.resources,
            declared_agendas=dict(spec.agendas),
            jitter=spec.jitter,
            # Only a jittered agent draws, so only it pays for seeding a stream.
            rng=random.Random(f"{seed}:{spec.agent_id}") if spec.jitter > 0.0 else None,
        )
    return states


def _next_busy_tick(
    now: int, post_ticks: list[int], wake: dict[AgentId, float], t_end: int
) -> int:
    """The next tick at which a run with no mail pending and no stale product
    can do anything: the earliest of the next posting, the first integer tick
    past the lowest wake threshold, and t_end, or now + 1 if that is later.

    Every tick before it would post nothing, match nothing, deliver nothing
    and step no agent. It is at most t_end unless now is t_end, so the last
    tick visited, the report's `ticks`, is the same as stepping tick by tick.
    """
    target = t_end
    i = bisect.bisect_right(post_ticks, now)
    if i < len(post_ticks) and post_ticks[i] < target:
        target = post_ticks[i]
    if wake:
        lowest = min(wake.values())
        # Thresholds are floats, never NaN: they can be -inf or +inf, and
        # past 2**53 not every integer is one. Python compares an int with a
        # float exactly, and floor() of a finite float is an exact int.
        if lowest < target:
            target = now + 1 if lowest < now else math.floor(lowest) + 1
    return target if target > now else now + 1


def run_simulation(
    scenario: Scenario, seed_override: Optional[int] = None
) -> tuple[list[str], SimulationReport]:
    """Run a scenario to quiescence or t_end; returns transcript lines and report."""
    lines, report, _ = run_simulation_with_market(scenario, seed_override)
    return lines, report


def run_simulation_with_market(
    scenario: Scenario, seed_override: Optional[int] = None
) -> tuple[list[str], SimulationReport, Marketplace]:
    """run_simulation plus the final marketplace, for trust-archive export."""
    seed = scenario.seed if seed_override is None else seed_override
    market = Marketplace(require_overlap=scenario.options.require_overlap)
    states = build_agent_states(scenario, seed)
    for spec in sorted(scenario.agents, key=lambda s: s.agent_id):
        market.repo.register_agent(spec.agent_id, spec.role)
        for product in sorted(spec.agendas):
            market.repo.declare_agenda(spec.agent_id, product, spec.agendas[product])

    ads_by_tick: dict[int, list[AdSpec]] = {}
    for ad in scenario.advertisements:
        ads_by_tick.setdefault(ad.posted_at, []).append(ad)
    rfqs_by_tick: dict[int, list[RfqSpec]] = {}
    for rfq in scenario.rfqs:
        rfqs_by_tick.setdefault(rfq.posted_at, []).append(rfq)
    post_ticks = sorted({*ads_by_tick, *rfqs_by_tick})
    last_post = max([0, *post_ticks])

    # Wake rule: per agent holding a live entry, agent.wake_threshold after
    # its last step. An agent steps at a tick when it has mail or the tick
    # is past its threshold: an opening is due, or its earliest entry
    # deadline has passed. Any other step would find no expired entry, an
    # empty inbox, no opening to send and no agreement to resolve: it would
    # send nothing, change nothing and draw no random number, so it is not
    # called. Entries change only in a step, so the thresholds stay true
    # until the agent steps again.
    wake: dict[AgentId, float] = {}
    ticks = 0
    now = 0
    while now <= scenario.t_end:
        ticks = now
        for ad in ads_by_tick.get(now, ()):
            market.repo.submit_advertisement(
                ad.agent, ad.product, issues=ad.issues, posted_at=now
            )
        for rfq in rfqs_by_tick.get(now, ()):
            market.repo.submit_rfq(
                rfq.agent,
                rfq.product,
                issues=rfq.issues,
                min_reputation=rfq.min_reputation,
                posted_at=now,
            )
        market.run_matchmaking(now)
        inboxes = market.due_messages(now)
        outgoing = []
        # The agents with mail, then those woken without any.
        busy = [a for a in inboxes if a in states]
        busy += [a for a, threshold in wake.items() if now > threshold and a not in inboxes]
        busy.sort()
        for agent_id in busy:
            state = states[agent_id]
            outgoing.extend(agent_step(state, inboxes.get(agent_id, []), now))
            threshold = wake_threshold(state)
            if threshold is None:
                wake.pop(agent_id, None)
            else:
                wake[agent_id] = threshold
        outgoing.sort(key=DELIVERY_ORDER)
        for msg in outgoing:
            market.route_message(msg)
        if market.has_pending_messages() or market.repo.stale_products():
            now += 1
        elif market.open_count or wake or now < last_post:
            now = _next_busy_tick(now, post_ticks, wake, scenario.t_end)
        else:
            break

    market.score_behavior()
    report = _build_report(scenario, seed, ticks, market)
    return market.transcript_lines(), report, market


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

def _fmt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.6f}"


def _table(headers: list[str], rows: list[list[str]]) -> list[str]:
    """Headers and rows as lines of columns two spaces apart, each cell
    left-justified to its column's width, each line right-stripped.

    One str.format pattern writes every line; the last column needs no
    padding, as the strip would take it off again.
    """
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    pattern = "  ".join([*(f"{{:<{width}}}" for width in widths[:-1]), "{}"])
    return [pattern.format(*row).rstrip() for row in (headers, *rows)]


def _record_pattern(cls: type, indent: str) -> tuple[attrgetter, str]:
    """A getter of the fields of a `cls` record, in sorted name order, and
    the str.format pattern that writes their JSON texts out as
    json.dumps(indent=2, sort_keys=True) writes the record at `indent`."""
    names = sorted(f.name for f in fields(cls))
    body = ",\n".join(f"{indent}  {_json(name, {})}: {{}}" for name in names)
    return attrgetter(*names), f"{indent}{{{{\n{body}\n{indent}}}}}"


_RECORD_PATTERNS = {cls: _record_pattern(cls, "    ") for cls in (SessionReport, AgentReport)}
_REPORT_FIELDS = sorted(f.name for f in fields(SimulationReport))


def _record_block(report: SimulationReport) -> str:
    """emit_report's record block (see its docstring for the contract)."""
    encoded: dict[str, str] = {}
    parts = []
    for name in _REPORT_FIELDS:
        value = getattr(report, name)
        if type(value) is not tuple:
            text = _json(value, encoded)
        elif not value:
            text = "[]"
        else:
            getter, pattern = _RECORD_PATTERNS[type(value[0])]
            text = "[\n" + ",\n".join(
                [pattern.format(*map(_json, getter(rec), repeat(encoded))) for rec in value]
            ) + "\n  ]"
        parts.append(f"  {_json(name, encoded)}: {text}")
    return "{\n" + ",\n".join(parts) + "\n}"


def emit_report(report: SimulationReport) -> str:
    """Render a report as a stable text table plus a machine-readable block.

    The block after "--- record ---" is, byte for byte,
    json.dumps(record, indent=2, sort_keys=True, ensure_ascii=False) of
    the report's fields, `sessions` and `agents` each a list of its
    records' fields. Per record type, the field names and the text around
    each value are laid out once; each value goes through the scalar
    encoder that transcript_line uses.
    """
    lines = [
        f"scenario: {report.scenario}",
        f"seed: {report.seed}",
        f"ticks: {report.ticks}",
        "",
        f"sessions ({len(report.sessions)}):",
    ]
    if report.sessions:
        rows = [
            [
                s.session,
                s.product,
                s.buyer,
                s.seller,
                s.outcome,
                s.reason or "-",
                str(s.rounds),
                _fmt(s.buyer_utility),
                _fmt(s.seller_utility),
            ]
            for s in report.sessions
        ]
        headers = [
            "session", "product", "buyer", "seller", "outcome",
            "reason", "rounds", "buyer_u", "seller_u",
        ]
        lines.extend("  " + line for line in _table(headers, rows))
    lines.append("")
    lines.append(f"agents ({len(report.agents)}):")
    if report.agents:
        rows = [
            [
                a.agent,
                f"{a.behavior_norm:.6f}",
                a.stance,
                f"{a.reputation:.6f}",
                str(a.agreements),
                str(a.sessions_observed),
                str(a.violations),
            ]
            for a in report.agents
        ]
        headers = ["agent", "B", "stance", "R", "agreements", "sessions", "violations"]
        lines.extend("  " + line for line in _table(headers, rows))
    lines.append("")
    lines.append("--- record ---")
    lines.append(_record_block(report))
    lines.append("")
    return "\n".join(lines)
