"""The cloud-agent runtime: per-session records, plans and the per-tick step.

An agent is a single logical actor. Its state is mutated only inside
agent_step, which consumes an ordered inbox and returns an ordered outbox;
distinct agents can therefore step concurrently while exchanging immutable
messages.

Each live negotiation is one `SessionEntry` in the agent's `AgendaDB`. The
entry holds the session's metadata (opponent, product, role, restricted
agenda, deadlines, round counters), the agent's belief about the opponent
(its last `BELIEF_WINDOW` packages, the newest being the standing offer) and
the agent's desire for the session (the target utility fixed at COMMENCE).
An entry leaves the DB when its session is acquired or terminated, so the
agent keeps nothing for a closed session.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field, replace
from enum import Enum
from operator import attrgetter
from typing import Iterable, Optional, Sequence

from .core import (
    DELIVERY_ORDER,
    AgentId,
    IssueId,
    MessageKind,
    NegotiationMessage,
    OfferPackage,
    Perspective,
    ProductId,
    SessionId,
    ValidatedAgenda,
    restrict_agenda,
)
from .tactics import (
    ResourceProjection,
    ResponseKind,
    Stance,
    STANCE_BETA,
    TacticParams,
    adapt_tactic,
    aggregate_utility,
    concession_rate,
    decide_response,
    effective_deadline,
    generate_offer_package,
)

logger = logging.getLogger(__name__)

TERMINATE_DEADLINE = "deadline"
TERMINATE_BETTER_DEAL = "better-deal"


class EmptyCandidatesError(ValueError):
    """Concurrent-agreement resolution was invoked with no candidates."""


# ---------------------------------------------------------------------------
# Proxy filter
# ---------------------------------------------------------------------------

class RejectReason(Enum):
    UNKNOWN_SESSION = "unknown-session"
    DEADLINE_EXCEEDED = "deadline-exceeded"
    OUT_OF_SPACE = "out-of-space"
    STALE_ROUND = "stale-round"


@dataclass(frozen=True)
class FilterVerdict:
    ok: bool
    reason: Optional[RejectReason] = None

    @classmethod
    def passed(cls) -> "FilterVerdict":
        return _PASSED

    @classmethod
    def rejected(cls, reason: RejectReason) -> "FilterVerdict":
        return cls(ok=False, reason=reason)


_PASSED = FilterVerdict(ok=True)


# ---------------------------------------------------------------------------
# Agenda DB (one record per live session)
# ---------------------------------------------------------------------------

BELIEF_WINDOW = 3


@dataclass
class SessionEntry:
    """One live negotiation, agent-side: metadata, belief and desire."""

    session: SessionId
    opponent: AgentId
    product: ProductId
    role: Perspective
    agenda: ValidatedAgenda
    session_t_max: int
    t0: int
    t_max_eff: float
    initiator: bool
    # The desire: utility of the agent's own opening package.
    target_utility: float
    opened: bool = False
    next_round: int = 0
    last_seen_round: int = -1
    offers_received: int = 0
    # The resource projection t_max_eff was computed from; None until then.
    t_max_eff_of: Optional[ResourceProjection] = None
    # The belief: the opponent's last BELIEF_WINDOW packages, oldest first.
    recent: tuple[OfferPackage, ...] = ()
    # Sorted once at COMMENCE; mean_lambda sums the per-issue ratios in this
    # order, so the mean's bits do not depend on the agenda's order.
    issue_ids: tuple[IssueId, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.issue_ids = tuple(sorted(spec.issue_id for spec in self.agenda.issues))

    @property
    def deadline(self) -> float:
        """Absolute tick past which this negotiation is dead."""
        return self.t0 + self.t_max_eff

    @property
    def standing(self) -> Optional[OfferPackage]:
        """The opponent's latest accepted offer, if any."""
        return self.recent[-1] if self.recent else None


class AgendaDB:
    """Active sessions keyed by session id; entries leave on acquire/terminate."""

    def __init__(self) -> None:
        self._entries: dict[SessionId, SessionEntry] = {}

    def add(self, entry: SessionEntry) -> None:
        if entry.session in self._entries:
            raise ValueError(f"session {entry.session!r} already active")
        self._entries[entry.session] = entry

    def get(self, session: SessionId) -> Optional[SessionEntry]:
        return self._entries.get(session)

    def remove(self, session: SessionId) -> None:
        self._entries.pop(session, None)

    def entries(self) -> list[SessionEntry]:
        """A snapshot of the live entries in insertion order."""
        return list(self._entries.values())

    def for_product(self, product: ProductId) -> list[SessionId]:
        return sorted(
            sid for sid, e in self._entries.items() if e.product == product
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, session: SessionId) -> bool:
        return session in self._entries


def proxy_filter(
    msg: NegotiationMessage, entry: Optional[SessionEntry], now: int
) -> FilterVerdict:
    """Screen an inbound message against the agent's view of the session.

    Rejections are verdicts, not faults: unknown session, past-deadline
    arrival, offered values outside the negotiation space, or a stale or
    replayed round number.
    """
    if entry is None:
        return FilterVerdict.rejected(RejectReason.UNKNOWN_SESSION)
    if msg.kind is not MessageKind.TERMINATE:
        if msg.sent_at - entry.t0 > entry.t_max_eff:
            return FilterVerdict.rejected(RejectReason.DEADLINE_EXCEEDED)
    if msg.package is None:
        if msg.kind is MessageKind.OFFER:
            return FilterVerdict.rejected(RejectReason.OUT_OF_SPACE)
    else:
        values = msg.package.values
        issues = entry.agenda.issues
        for spec in issues:
            offered = values.get(spec.issue_id)
            if offered is None or not spec.min_value <= offered <= spec.max_value:
                return FilterVerdict.rejected(RejectReason.OUT_OF_SPACE)
        # Every issue is present and issue ids are unique, so an extra key
        # shows as a longer package.
        if len(values) != len(issues):
            return FilterVerdict.rejected(RejectReason.OUT_OF_SPACE)
    if msg.round <= entry.last_seen_round:
        return FilterVerdict.rejected(RejectReason.STALE_ROUND)
    return FilterVerdict.passed()


# ---------------------------------------------------------------------------
# Beliefs
# ---------------------------------------------------------------------------

def mean_lambda(entry: SessionEntry) -> Optional[float]:
    """Mean concession ratio across issues; None until BELIEF_WINDOW offers.

    The ratio is a three-point one, so BELIEF_WINDOW is 3. Issues whose ratio
    is undefined (flat previous step) count as 1, the linear fixed point.
    """
    if len(entry.recent) < BELIEF_WINDOW:
        return None
    oldest, previous, latest = (package.values for package in entry.recent)
    ratios = []
    for issue_id in entry.issue_ids:
        lam = concession_rate(oldest[issue_id], previous[issue_id], latest[issue_id])
        ratios.append(1.0 if lam is None else lam)
    return sum(ratios) / len(ratios)


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

class PlanKind(Enum):
    MAKE_OFFER = "make_offer"
    MAKE_COUNTER = "make_counter"
    ACCEPT = "accept"
    TERMINATE = "terminate"
    IDLE = "idle"


class PlanCondition(Enum):
    GOAL_TERMINAL = "goal_terminal"
    DEADLINE_PASSED = "deadline_passed"
    OFFER_MEETS_TARGET = "offer_meets_target"
    OFFER_STANDING = "offer_standing"
    OPENING_PENDING = "opening_pending"
    ALWAYS = "always"


@dataclass(frozen=True)
class PlanRule:
    when: PlanCondition
    do: PlanKind


DEFAULT_PLAN_RULES: tuple[PlanRule, ...] = (
    PlanRule(PlanCondition.DEADLINE_PASSED, PlanKind.TERMINATE),
    PlanRule(PlanCondition.OFFER_STANDING, PlanKind.MAKE_COUNTER),
    PlanRule(PlanCondition.OPENING_PENDING, PlanKind.MAKE_OFFER),
    PlanRule(PlanCondition.ALWAYS, PlanKind.IDLE),
)


class PlanLibrary:
    """Ordered trigger -> plan rules; first match wins.

    `tests_target` records whether any rule tests OFFER_MEETS_TARGET; only
    then does agent_step pay for the standing offer's utility.

    `choose` memoises the first match for each combination of the facts
    agent_step computes. The memo fills on first use of a combination, so a
    library that is never consulted costs nothing.
    """

    def __init__(self, rules: Sequence[PlanRule]) -> None:
        if not rules:
            raise ValueError("plan library must not be empty")
        if rules[-1].when is not PlanCondition.ALWAYS:
            raise ValueError("final plan rule must be a catch-all")
        self.rules: tuple[PlanRule, ...] = tuple(rules)
        self.tests_target = any(
            rule.when is PlanCondition.OFFER_MEETS_TARGET for rule in self.rules
        )
        self._memo: dict[tuple[bool, bool, bool, bool], PlanKind] = {}

    @classmethod
    def default(cls) -> "PlanLibrary":
        return cls(DEFAULT_PLAN_RULES)

    def choose(
        self,
        deadline_passed: bool,
        offer_standing: bool,
        target_met: bool,
        opening_pending: bool,
    ) -> PlanKind:
        """The plan of the first rule whose trigger holds for these facts;
        deterministic for fixed facts."""
        key = (deadline_passed, offer_standing, target_met, opening_pending)
        plan = self._memo.get(key)
        if plan is None:
            plan = self._memo[key] = _first_match(self.rules, *key)
        return plan


def _first_match(
    rules: Sequence[PlanRule],
    deadline_passed: bool,
    offer_standing: bool,
    target_met: bool,
    opening_pending: bool,
) -> PlanKind:
    # GOAL_TERMINAL never holds: an agent keeps no entry for a closed session.
    holds = {
        PlanCondition.GOAL_TERMINAL: False,
        PlanCondition.DEADLINE_PASSED: deadline_passed,
        PlanCondition.OFFER_MEETS_TARGET: target_met,
        PlanCondition.OFFER_STANDING: offer_standing,
        PlanCondition.OPENING_PENDING: opening_pending,
        PlanCondition.ALWAYS: True,
    }
    for rule in rules:
        if holds[rule.when]:
            return rule.do
    return PlanKind.IDLE


# ---------------------------------------------------------------------------
# Agent state and step function
# ---------------------------------------------------------------------------

@dataclass
class AgentState:
    """Everything one agent owns: tactic, schedule, plans, live sessions."""

    agent_id: AgentId
    role: Perspective
    tactic: TacticParams
    resources: ResourceProjection = field(default_factory=ResourceProjection)
    declared_agendas: dict[ProductId, ValidatedAgenda] = field(default_factory=dict)
    plans: PlanLibrary = field(default_factory=PlanLibrary.default)
    agenda_db: AgendaDB = field(default_factory=AgendaDB)
    jitter: float = 0.0
    rng: random.Random = field(default_factory=lambda: random.Random(0))


def resolve_concurrent_agreements(
    agenda_db: AgendaDB, candidates: Sequence[tuple[SessionId, float]]
) -> tuple[SessionId, list[SessionId]]:
    """Pick the best candidate agreement and list the sessions to abandon.

    Highest utility wins; ties go to the lexicographically smallest session
    id. Every other active session for the same product is slated for
    termination.
    """
    if not candidates:
        raise EmptyCandidatesError("no candidate agreements to resolve")
    for sid, _ in candidates:
        if sid not in agenda_db:
            raise ValueError(f"candidate session {sid!r} is not active")
    chosen = sorted(candidates, key=lambda c: (-c[1], c[0]))[0][0]
    product = agenda_db.get(chosen).product
    losers = [sid for sid in agenda_db.for_product(product) if sid != chosen]
    return chosen, losers


_SESSION = attrgetter("session")


def _emit(
    state: AgentState,
    entry: SessionEntry,
    now: int,
    kind: MessageKind,
    package: Optional[OfferPackage] = None,
    reason: Optional[str] = None,
) -> NegotiationMessage:
    msg = NegotiationMessage(
        session=entry.session,
        sender=state.agent_id,
        receiver=entry.opponent,
        round=entry.next_round,
        sent_at=now,
        kind=kind,
        package=package,
        reason=reason,
    )
    entry.next_round += 1
    return msg


def _effective_params(state: AgentState, aggressive: bool) -> TacticParams:
    # Resource pressure forces buy-side sessions into a conceding stance.
    if aggressive and state.role is Perspective.BUYER:
        forced_beta = max(state.tactic.beta, STANCE_BETA[Stance.CONCEDER])
        return replace(state.tactic, beta=forced_beta, stance=Stance.CONCEDER)
    return state.tactic


def _jittered(
    state: AgentState, agenda: ValidatedAgenda, package: OfferPackage
) -> OfferPackage:
    if state.jitter <= 0.0:
        return package
    values = dict(package.values)
    for spec in agenda.issues:
        span = spec.max_value - spec.min_value
        shift = state.jitter * span * (state.rng.random() * 2.0 - 1.0)
        values[spec.issue_id] = min(
            spec.max_value, max(spec.min_value, values[spec.issue_id] + shift)
        )
    return OfferPackage(values=values)


def _open_session(state: AgentState, msg: NegotiationMessage, now: int) -> None:
    info = msg.commence
    if info is None:
        logger.warning("%s: commence without payload for %s", state.agent_id, msg.session)
        return
    if msg.session in state.agenda_db:
        logger.debug("%s: duplicate commence for %s", state.agent_id, msg.session)
        return
    declared = state.declared_agendas.get(info.product)
    if declared is None:
        raise KeyError(
            f"agent {state.agent_id!r} has no declared agenda for {info.product!r}"
        )
    agenda = restrict_agenda(declared, info.issue_ids)
    session_t_max = min(info.t_max, agenda.t_max)
    resources = state.resources
    t_max_eff = effective_deadline(session_t_max, resources.shifted(now))
    role = Perspective.BUYER if info.buyer == state.agent_id else Perspective.SELLER
    opening = generate_offer_package(agenda, 0.0, t_max_eff, state.tactic)
    entry = SessionEntry(
        session=msg.session,
        opponent=info.seller if role is Perspective.BUYER else info.buyer,
        product=info.product,
        role=role,
        agenda=agenda,
        session_t_max=session_t_max,
        t0=now,
        t_max_eff=t_max_eff,
        initiator=info.initiator == state.agent_id,
        target_utility=aggregate_utility(agenda, opening, role),
        t_max_eff_of=resources,
    )
    state.agenda_db.add(entry)


def _plan(state: AgentState, entry: SessionEntry, now: int) -> PlanKind:
    """The plan for one session, from the facts the plan library may test.

    `target_met` (the standing offer's utility against the target) is computed
    only when a rule of the library tests it, and is False otherwise.
    """
    plans = state.plans
    standing = entry.standing
    target_met = False
    if standing is not None and plans.tests_target:
        target_met = (
            aggregate_utility(entry.agenda, standing, entry.role)
            >= entry.target_utility
        )
    return plans.choose(
        now > entry.deadline,
        standing is not None,
        target_met,
        entry.initiator and not entry.opened,
    )


def agent_step(
    state: AgentState, inbox: Iterable[NegotiationMessage], now: int
) -> list[NegotiationMessage]:
    """One deliberation tick: filter, learn, adapt, plan, respond.

    Deterministic in (state, inbox, now). Mutates the state in place and
    returns the ordered outbox; rejected messages are logged, never raised.
    """
    outbox: list[NegotiationMessage] = []
    level = state.resources.level_at(now)
    aggressive = level <= state.resources.r_threshold
    acquire_products: set[ProductId] = set()

    # Sweep sessions whose effective deadline has passed. The sweep draws no
    # randomness and the outbox is sorted at the end, so stored order will do.
    for entry in state.agenda_db.entries():
        if now > entry.deadline:
            outbox.append(
                _emit(state, entry, now, MessageKind.TERMINATE, reason=TERMINATE_DEADLINE)
            )
            state.agenda_db.remove(entry.session)

    for msg in sorted(inbox, key=DELIVERY_ORDER):
        if msg.kind is MessageKind.COMMENCE:
            _open_session(state, msg, now)
            continue
        entry = state.agenda_db.get(msg.session)
        verdict = proxy_filter(msg, entry, now)
        if not verdict.ok:
            logger.debug(
                "%s: rejected %s on %s (%s)",
                state.agent_id, msg.kind.value, msg.session, verdict.reason.value,
            )
            if verdict.reason is RejectReason.DEADLINE_EXCEEDED:
                outbox.append(
                    _emit(state, entry, now, MessageKind.TERMINATE, reason=TERMINATE_DEADLINE)
                )
                state.agenda_db.remove(msg.session)
            continue
        entry.last_seen_round = msg.round
        if msg.kind is not MessageKind.OFFER:
            # The opponent acquired or terminated: the session is over.
            state.agenda_db.remove(msg.session)
            continue

        # Offer: learn, adapt, recompute the hybrid deadline if the resource
        # projection was replaced, then plan.
        entry.recent = (*entry.recent, msg.package)[-BELIEF_WINDOW:]
        entry.offers_received += 1
        lam = mean_lambda(entry)
        state.tactic = adapt_tactic(
            state.tactic, 1.0 if lam is None else lam, entry.offers_received
        )
        if entry.t_max_eff_of is not state.resources:
            entry.t_max_eff = effective_deadline(
                entry.session_t_max, state.resources.shifted(entry.t0)
            )
            entry.t_max_eff_of = state.resources
        plan = _plan(state, entry, now)
        if plan is PlanKind.TERMINATE:
            outbox.append(
                _emit(state, entry, now, MessageKind.TERMINATE, reason=TERMINATE_DEADLINE)
            )
            state.agenda_db.remove(msg.session)
        elif plan is PlanKind.ACCEPT:
            acquire_products.add(entry.product)
        elif plan in (PlanKind.MAKE_COUNTER, PlanKind.MAKE_OFFER):
            params = _effective_params(state, aggressive)
            planned = generate_offer_package(
                entry.agenda, now - entry.t0, entry.t_max_eff, params
            )
            response = decide_response(
                entry.agenda, entry.role, msg, planned, entry.deadline
            )
            if response.kind is ResponseKind.TERMINATE:
                outbox.append(
                    _emit(state, entry, now, MessageKind.TERMINATE, reason=TERMINATE_DEADLINE)
                )
                state.agenda_db.remove(msg.session)
            elif response.kind is ResponseKind.ACQUIRE:
                acquire_products.add(entry.product)
            else:
                entry.opened = True
                outbox.append(
                    _emit(state, entry, now, MessageKind.OFFER, package=response.package)
                )

    # Opening offers for sessions this agent initiates, in session-id order
    # because jitter draws from rng.
    pending = sorted(
        (e for e in state.agenda_db.entries() if e.initiator and not e.opened),
        key=_SESSION,
    )
    for entry in pending:
        if _plan(state, entry, now) is not PlanKind.MAKE_OFFER:
            continue
        params = _effective_params(state, aggressive)
        package = generate_offer_package(
            entry.agenda, now - entry.t0, entry.t_max_eff, params
        )
        if now == entry.t0:
            package = _jittered(state, entry.agenda, package)
        entry.opened = True
        outbox.append(_emit(state, entry, now, MessageKind.OFFER, package=package))

    # Resolve agreements: best standing offer per product wins, the rest end.
    for product in sorted(acquire_products):
        candidates = []
        for sid in state.agenda_db.for_product(product):
            entry = state.agenda_db.get(sid)
            if entry.standing is None:
                continue
            candidates.append(
                (sid, aggregate_utility(entry.agenda, entry.standing, entry.role))
            )
        if not candidates:
            continue
        chosen, losers = resolve_concurrent_agreements(state.agenda_db, candidates)
        affected = {chosen, *losers}
        outbox = [
            m for m in outbox
            if not (m.kind is MessageKind.OFFER and m.session in affected)
        ]
        entry = state.agenda_db.get(chosen)
        outbox.append(
            _emit(state, entry, now, MessageKind.ACQUIRE, package=entry.standing)
        )
        state.agenda_db.remove(chosen)
        for sid in losers:
            loser = state.agenda_db.get(sid)
            outbox.append(
                _emit(state, loser, now, MessageKind.TERMINATE, reason=TERMINATE_BETTER_DEAL)
            )
            state.agenda_db.remove(sid)

    if len(outbox) > 1:
        outbox.sort(key=lambda m: (m.session, m.round, m.kind.value))
    return outbox
