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
import math
import random
from dataclasses import dataclass, field, replace
from enum import Enum
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence

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
    new_record,
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
    decide_response,
    effective_deadline,
    generate_offer_package,
)

logger = logging.getLogger(__name__)

# Bound once for the per-message path: on CPython 3.11 reading a member off
# its Enum class takes about 120 ns, reading a module global about 15.
_COMMENCE = MessageKind.COMMENCE
_OFFER = MessageKind.OFFER
_ACQUIRE = MessageKind.ACQUIRE
_TERMINATE = MessageKind.TERMINATE
_BUYER = Perspective.BUYER
_RESPONSE_ACQUIRE = ResponseKind.ACQUIRE
_RESPONSE_TERMINATE = ResponseKind.TERMINATE

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
        return _REJECTED[reason]


_PASSED = FilterVerdict(ok=True)
_REJECTED = {reason: FilterVerdict(ok=False, reason=reason) for reason in RejectReason}
_UNKNOWN_SESSION = _REJECTED[RejectReason.UNKNOWN_SESSION]
_DEADLINE_EXCEEDED = _REJECTED[RejectReason.DEADLINE_EXCEEDED]
_OUT_OF_SPACE = _REJECTED[RejectReason.OUT_OF_SPACE]
_STALE_ROUND = _REJECTED[RejectReason.STALE_ROUND]


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
    def standing(self) -> Optional[OfferPackage]:
        """The opponent's latest accepted offer, if any."""
        return self.recent[-1] if self.recent else None


class AgendaDB:
    """Active sessions keyed by session id; entries leave on acquire/terminate.

    The DB keeps two facts so that agent_step walks it only when a walk can
    find something:

    - `unopened`: the number of initiator entries not yet opened. `add`
      counts an entry that enters unopened, `mark_opened` and `remove`
      uncount it.
    - `due`: a lower bound on the earliest entry deadline (t0 + t_max_eff;
      a NaN deadline never passes and is not counted). `add` and
      `set_deadline` lower it to the entry's deadline, `remove` leaves it (a
      bound on more entries bounds fewer), and `expired` sets it to the
      earliest deadline of the entries it keeps. No entry has passed its
      deadline at a tick not past `due`.

    Both stay true while an entry's `initiator`, `opened`, `t0` and
    `t_max_eff` change only through these methods once it is in the DB.
    """

    def __init__(self) -> None:
        self._entries: dict[SessionId, SessionEntry] = {}
        self.unopened = 0
        self.due = math.inf

    def add(self, entry: SessionEntry) -> None:
        if entry.session in self._entries:
            raise ValueError(f"session {entry.session!r} already active")
        self._entries[entry.session] = entry
        if entry.initiator and not entry.opened:
            self.unopened += 1
        deadline = entry.t0 + entry.t_max_eff
        if deadline < self.due:
            self.due = deadline

    def get(self, session: SessionId) -> Optional[SessionEntry]:
        return self._entries.get(session)

    def remove(self, session: SessionId) -> None:
        entry = self._entries.pop(session, None)
        if entry is not None and entry.initiator and not entry.opened:
            self.unopened -= 1

    def mark_opened(self, entry: SessionEntry) -> None:
        """Record that the entry, which is in the DB, sent its first offer."""
        if not entry.opened:
            entry.opened = True
            if entry.initiator:
                self.unopened -= 1

    def set_deadline(self, entry: SessionEntry, t_max_eff: float) -> None:
        """Give the entry, which is in the DB, a new effective deadline."""
        entry.t_max_eff = t_max_eff
        deadline = entry.t0 + t_max_eff
        if deadline < self.due:
            self.due = deadline

    def expired(self, now: int) -> list[SessionEntry]:
        """The entries whose deadline has passed at `now`, in stored order.

        Walks the DB only when `now` is past `due`, and then sets `due` to the
        earliest deadline of the other entries. The caller removes the
        entries returned.
        """
        if not now > self.due:
            return []
        found = []
        due = math.inf
        for entry in self._entries.values():
            deadline = entry.t0 + entry.t_max_eff
            if now > deadline:
                found.append(entry)
            elif deadline < due:
                due = deadline
        self.due = due
        return found

    def __iter__(self) -> Iterator[SessionEntry]:
        """The live entries in insertion order. Nothing may be added or
        removed while it runs; take a list() first to do that."""
        return iter(self._entries.values())

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
        return _UNKNOWN_SESSION
    _, _, _, round_, sent_at, kind, package, _, _ = msg
    if kind is not _TERMINATE:
        if sent_at - entry.t0 > entry.t_max_eff:
            return _DEADLINE_EXCEEDED
    if package is None:
        if kind is _OFFER:
            return _OUT_OF_SPACE
    else:
        values = package.values
        rows = entry.agenda.rows()
        for issue_id, _, vmin, vmax, _, _ in rows:
            offered = values.get(issue_id)
            if offered is None or not vmin <= offered <= vmax:
                return _OUT_OF_SPACE
        # Every issue is present and issue ids are unique, so an extra key
        # shows as a longer package.
        if len(values) != len(rows):
            return _OUT_OF_SPACE
    if round_ <= entry.last_seen_round:
        return _STALE_ROUND
    return _PASSED


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
    # An OfferPackage is the 1-tuple of its values.
    (oldest,), (previous,), (latest,) = entry.recent
    # concession_rate inlined, summed left to right as sum() did before
    # Python 3.12 compensated its float sums.
    total = 0.0
    for issue_id in entry.issue_ids:
        o_minus2 = oldest[issue_id]
        o_minus1 = previous[issue_id]
        o_now = latest[issue_id]
        denom = o_minus1 - o_minus2
        if denom == 0.0:
            total += 1.0
        else:
            lam = (o_now - o_minus1) / denom
            # A NaN ratio is undefined too.
            total += lam if lam == lam else 1.0
    return total / len(entry.issue_ids)


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


# The plans agent_step tells apart per message, bound once as _COMMENCE is.
_PLAN_TERMINATE = PlanKind.TERMINATE
_PLAN_ACCEPT = PlanKind.ACCEPT
_PLAN_COUNTER = PlanKind.MAKE_COUNTER
_PLAN_OFFER = PlanKind.MAKE_OFFER


def _first_match(
    rules: Sequence[PlanRule],
    deadline_passed: bool,
    offer_standing: bool,
    target_met: bool,
    opening_pending: bool,
) -> PlanKind:
    holds = {
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
    # What earlier opens derived, reused by later ones: the schedule shifted
    # to the tick of the last open, as (tick, resources, shifted), and each
    # opening's (agenda, target utility) by (id of that restricted agenda,
    # role, k). Each entry holds its agenda, so the id is not reused.
    shifted: Optional[tuple[int, ResourceProjection, ResourceProjection]] = None
    openings: dict[tuple[int, Perspective, float], tuple[ValidatedAgenda, float]] = field(
        default_factory=dict
    )


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
_SESSION_ROUND = attrgetter("session", "round")


def _emit(
    state: AgentState,
    entry: SessionEntry,
    now: int,
    kind: MessageKind,
    package: Optional[OfferPackage] = None,
    reason: Optional[str] = None,
) -> NegotiationMessage:
    round_ = entry.next_round
    entry.next_round = round_ + 1
    return new_record(NegotiationMessage, (
        entry.session,  # session
        state.agent_id,  # sender
        entry.opponent,  # receiver
        round_,
        now,  # sent_at
        kind,
        package,
        reason,
        None,  # commence
    ))


def _effective_params(state: AgentState, aggressive: bool) -> TacticParams:
    # Resource pressure forces buy-side sessions into a conceding stance.
    if aggressive and state.role is _BUYER:
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
    return new_record(OfferPackage, (values,))


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
    shifted = state.shifted
    if shifted is None or shifted[0] != now or shifted[1] is not resources:
        shifted = state.shifted = (now, resources, resources.shifted(now))
    t_max_eff = effective_deadline(session_t_max, shifted[2])
    role = Perspective.BUYER if info.buyer == state.agent_id else Perspective.SELLER
    # At t = 0 under a positive deadline every issue's concession fraction is
    # exactly k, whatever its exponent, so the opening is derived once per
    # restricted agenda, role and k. A zero deadline concedes in full and a
    # NaN one fails the test: those derive afresh.
    key = (id(agenda), role, state.tactic.k) if t_max_eff > 0.0 else None
    opening = state.openings.get(key)
    if opening is None:
        package = generate_offer_package(agenda, 0.0, t_max_eff, state.tactic)
        opening = (agenda, aggregate_utility(agenda, package, role))
        if key is not None:
            state.openings[key] = opening
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
        target_utility=opening[1],
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
        now > entry.t0 + entry.t_max_eff,
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
    db = state.agenda_db
    # Whether the resource level is at or below the threshold, read when the
    # first offer is generated, and the products to resolve, from the first
    # acquire on.
    aggressive: Optional[bool] = None
    acquire_products: Optional[set[ProductId]] = None

    # Sweep sessions whose effective deadline has passed. The sweep draws no
    # randomness and the outbox is sorted at the end, so stored order will do.
    for entry in db.expired(now):
        outbox.append(
            _emit(state, entry, now, _TERMINATE, reason=TERMINATE_DEADLINE)
        )
        db.remove(entry.session)

    if not isinstance(inbox, list):
        inbox = list(inbox)
    if len(inbox) > 1:
        inbox = sorted(inbox, key=DELIVERY_ORDER)
    for msg in inbox:
        session, _, _, round_, _, kind, package, _, _ = msg
        if kind is _COMMENCE:
            _open_session(state, msg, now)
            continue
        entry = db.get(session)
        verdict = proxy_filter(msg, entry, now)
        if not verdict.ok:
            if logger.isEnabledFor(logging.DEBUG):
                logger.debug(
                    "%s: rejected %s on %s (%s)",
                    state.agent_id, kind.value, session, verdict.reason.value,
                )
            if verdict.reason is RejectReason.DEADLINE_EXCEEDED:
                outbox.append(
                    _emit(state, entry, now, _TERMINATE, reason=TERMINATE_DEADLINE)
                )
                db.remove(session)
            continue
        entry.last_seen_round = round_
        if kind is not _OFFER:
            # The opponent acquired or terminated: the session is over.
            db.remove(session)
            continue

        # Offer: learn, adapt, recompute the hybrid deadline if the resource
        # projection was replaced, then plan.
        entry.recent = (*entry.recent, package)[-BELIEF_WINDOW:]
        entry.offers_received += 1
        lam = mean_lambda(entry)
        # Until the window is full there is no ratio; adapt_tactic given the
        # linear ratio 1 in its place returns its input.
        if lam is not None:
            state.tactic = adapt_tactic(state.tactic, lam, entry.offers_received)
        resources = state.resources
        if entry.t_max_eff_of is not resources:
            db.set_deadline(
                entry, effective_deadline(entry.session_t_max, resources.shifted(entry.t0))
            )
            entry.t_max_eff_of = resources
        plan = _plan(state, entry, now)
        if plan is _PLAN_TERMINATE:
            outbox.append(
                _emit(state, entry, now, _TERMINATE, reason=TERMINATE_DEADLINE)
            )
            db.remove(session)
        elif plan is _PLAN_ACCEPT:
            if acquire_products is None:
                acquire_products = set()
            acquire_products.add(entry.product)
        elif plan is _PLAN_COUNTER or plan is _PLAN_OFFER:
            if aggressive is None:
                aggressive = resources.level_at(now) <= resources.r_threshold
            planned = generate_offer_package(
                entry.agenda, now - entry.t0, entry.t_max_eff,
                _effective_params(state, True) if aggressive else state.tactic,
            )
            response_kind, response_package = decide_response(
                entry.agenda, entry.role, msg, planned, entry.t0 + entry.t_max_eff
            )
            if response_kind is _RESPONSE_TERMINATE:
                outbox.append(
                    _emit(state, entry, now, _TERMINATE, reason=TERMINATE_DEADLINE)
                )
                db.remove(session)
            elif response_kind is _RESPONSE_ACQUIRE:
                if acquire_products is None:
                    acquire_products = set()
                acquire_products.add(entry.product)
            else:
                db.mark_opened(entry)
                outbox.append(_emit(state, entry, now, _OFFER, package=response_package))

    # Opening offers for sessions this agent initiates, in session-id order
    # because jitter draws from rng.
    if db.unopened:
        pending = [e for e in db if e.initiator and not e.opened]
        if len(pending) > 1:
            pending.sort(key=_SESSION)
        for entry in pending:
            if _plan(state, entry, now) is not _PLAN_OFFER:
                continue
            if aggressive is None:
                resources = state.resources
                aggressive = resources.level_at(now) <= resources.r_threshold
            package = generate_offer_package(
                entry.agenda, now - entry.t0, entry.t_max_eff,
                _effective_params(state, True) if aggressive else state.tactic,
            )
            if now == entry.t0:
                package = _jittered(state, entry.agenda, package)
            db.mark_opened(entry)
            outbox.append(_emit(state, entry, now, _OFFER, package=package))

    # Resolve agreements: best standing offer per product wins, the rest end.
    for product in sorted(acquire_products) if acquire_products else ():
        candidates = []
        for sid in db.for_product(product):
            entry = db.get(sid)
            if entry.standing is None:
                continue
            candidates.append(
                (sid, aggregate_utility(entry.agenda, entry.standing, entry.role))
            )
        if not candidates:
            continue
        chosen, losers = resolve_concurrent_agreements(db, candidates)
        affected = {chosen, *losers}
        outbox = [
            m for m in outbox
            if not (m.kind is _OFFER and m.session in affected)
        ]
        entry = db.get(chosen)
        outbox.append(_emit(state, entry, now, _ACQUIRE, package=entry.standing))
        db.remove(chosen)
        for sid in losers:
            loser = db.get(sid)
            outbox.append(
                _emit(state, loser, now, _TERMINATE, reason=TERMINATE_BETTER_DEAL)
            )
            db.remove(sid)

    if len(outbox) > 1:
        # Each _emit takes the entry's next round, so no two messages here
        # share a (session, round) pair.
        outbox.sort(key=_SESSION_ROUND)
    return outbox


def wake_threshold(state: AgentState) -> Optional[float]:
    """The tick past which agent_step has work for this agent without mail.

    None when the agent holds no entry. It is -inf when an unopened
    initiator entry's plan before its deadline is MAKE_OFFER (the opening
    goes out at the next step); otherwise it is the earliest entry deadline,
    past which the sweep terminates that entry. That plan reads only facts
    that change with mail, so an opening not due now is not due later
    without mail. At or before the threshold, a step with an empty inbox
    sweeps nothing, opens nothing, resolves nothing and draws no random
    number: it returns [] and changes nothing.
    """
    if not state.agenda_db:
        return None
    threshold = math.inf
    for entry in state.agenda_db:
        deadline = entry.t0 + entry.t_max_eff
        if (
            entry.initiator
            and not entry.opened
            # At the deadline tick itself the deadline has not yet passed.
            and _plan(state, entry, deadline) is PlanKind.MAKE_OFFER
        ):
            return -math.inf
        # A NaN deadline never passes, so `<` rightly skips it.
        if deadline < threshold:
            threshold = deadline
    return threshold
