"""The cloud-agent runtime: per-session records and the per-tick step.

An agent is a single logical actor. Its state is mutated only inside
agent_step, which consumes an ordered inbox and returns an ordered outbox;
distinct agents can therefore step concurrently while exchanging immutable
messages.

Each live negotiation is one `SessionEntry` in the agent's `AgendaDB`. The
entry holds the session's metadata (opponent, product, role, restricted
agenda, the hybrid deadline fixed at COMMENCE, round counters), the agent's
belief about the opponent (its last `BELIEF_WINDOW` packages, the newest
being the standing offer). An entry leaves the DB when its session is
acquired or terminated, so the agent keeps nothing for a closed session.

Every agent follows one plan, in this order: the sweep that opens each step
(`AgendaDB.expired`) terminates every session past its deadline, so it is
the only deadline check and no message read after it is late; each offer
that passes the filter is countered or acquired; then each session the
agent initiated and has not yet opened gets its opening offer. Otherwise
the agent waits.

An offer that passes `proxy_filter` is answered in agent_step's own frame:
the belief window shifts, and once it is full the three-point concession
ratio λ is averaged over the agenda's sorted issue ids; `adapt_tactic` is
called only for a λ outside [1 - LAMBDA_BAND, 1 + LAMBDA_BAND] (inside the
band, or NaN, it would return its input). The resource level is read only
for a projection that can be under pressure (`ResourceProjection.pressed_at`);
`decide_response` builds the counter, and the step emits it as one record.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, field, replace
from enum import Enum
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .core import (
    DELIVERY_ORDER,
    AgentId,
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
    LAMBDA_BAND,
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
# The linear band of adapt_tactic, by its expressions.
_LAMBDA_LOW = 1.0 - LAMBDA_BAND
_LAMBDA_HIGH = 1.0 + LAMBDA_BAND

TERMINATE_DEADLINE = "deadline"
TERMINATE_BETTER_DEAL = "better-deal"


class EmptyCandidatesError(ValueError):
    """Concurrent-agreement resolution was invoked with no candidates."""


# ---------------------------------------------------------------------------
# Proxy filter
# ---------------------------------------------------------------------------

class RejectReason(Enum):
    UNKNOWN_SESSION = "unknown-session"
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
_OUT_OF_SPACE = _REJECTED[RejectReason.OUT_OF_SPACE]
_STALE_ROUND = _REJECTED[RejectReason.STALE_ROUND]


# ---------------------------------------------------------------------------
# Agenda DB (one record per live session)
# ---------------------------------------------------------------------------

BELIEF_WINDOW = 3


@dataclass
class SessionEntry:
    """One live negotiation, agent-side: metadata and belief."""

    session: SessionId
    opponent: AgentId
    product: ProductId
    role: Perspective
    agenda: ValidatedAgenda
    t0: int
    t_max_eff: float
    initiator: bool
    opened: bool = False
    next_round: int = 0
    last_seen_round: int = -1
    offers_received: int = 0
    # The belief: the opponent's last BELIEF_WINDOW packages, oldest first.
    recent: tuple[OfferPackage, ...] = ()

    @property
    def standing(self) -> Optional[OfferPackage]:
        """The opponent's latest accepted offer, if any."""
        return self.recent[-1] if self.recent else None


class AgendaDB:
    """Active sessions keyed by session id; entries leave on acquire/terminate.

    The DB keeps two facts so that agent_step walks it only when a walk can
    find something, and wake_threshold reads them without a walk:

    - `unopened`: the number of initiator entries not yet opened, each of
      which the next step sends its opening. `add` counts an entry that
      enters unopened, `mark_opened` and `remove` uncount it.
    - `due`: the earliest entry deadline (t0 + t_max_eff), exactly, or inf
      when no entry has one; a NaN deadline never passes and is not counted.
      `add` lowers it to the entry's deadline. When the entry that holds it
      leaves (`remove`), a walk over the entries finds it again; `expired`
      finds it over the entries it keeps. No entry has passed its deadline
      at a tick not past `due`, and one has at every tick past it.

    Both stay true while an entry's `initiator` and `opened` change only
    through these methods once it is in the DB, and its `t0` and
    `t_max_eff` not at all: a session's deadline is fixed at COMMENCE.
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
        if entry is None:
            return
        if entry.initiator and not entry.opened:
            self.unopened -= 1
        if entry.t0 + entry.t_max_eff == self.due:
            self.due = self._earliest()

    def mark_opened(self, entry: SessionEntry) -> None:
        """Record that the entry, which is in the DB, needs no opening: it
        has sent its first offer or answered the opponent's."""
        if not entry.opened:
            entry.opened = True
            if entry.initiator:
                self.unopened -= 1

    def _earliest(self) -> float:
        due = math.inf
        for entry in self._entries.values():
            deadline = entry.t0 + entry.t_max_eff
            # A NaN deadline never passes, so `<` rightly skips it.
            if deadline < due:
                due = deadline
        return due

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

    Rejections are verdicts, not faults: unknown session, offered values
    outside the negotiation space, or a stale or replayed round number. The
    step's deadline sweep has run before, so a known session is live.
    """
    if entry is None:
        return _UNKNOWN_SESSION
    _, _, _, round_, _, kind, package, _, _ = msg
    if package is None:
        if kind is _OFFER:
            return _OUT_OF_SPACE
    else:
        values = package.values
        # Agenda.rows(), its cache read in place.
        agenda = entry.agenda
        rows = agenda._rows
        if rows is None:
            rows = agenda.rows()
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
# Agent state and step function
# ---------------------------------------------------------------------------

@dataclass
class AgentState:
    """Everything one agent owns: tactic, schedule, live sessions."""

    agent_id: AgentId
    role: Perspective
    tactic: TacticParams
    resources: ResourceProjection = field(default_factory=ResourceProjection)
    declared_agendas: dict[ProductId, ValidatedAgenda] = field(default_factory=dict)
    agenda_db: AgendaDB = field(default_factory=AgendaDB)
    jitter: float = 0.0
    # The stream _jittered draws from; only an agent with positive jitter
    # draws, and one without a stream of its own is given Random(0).
    rng: Optional[random.Random] = None
    # The schedule shifted to the tick of the last open, as (tick, shifted),
    # reused by later opens at that tick. The schedule is fixed for the run,
    # so the tick alone names its shift.
    shifted: Optional[tuple[int, ResourceProjection]] = None

    def __post_init__(self) -> None:
        if self.rng is None and not self.jitter <= 0.0:
            self.rng = random.Random(0)


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
# A NegotiationMessage's session and round, read by position like
# core.DELIVERY_ORDER.
_SESSION_ROUND = itemgetter(0, 3)


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
    declared = state.declared_agendas.get(info.product)
    if declared is None:
        raise KeyError(
            f"agent {state.agent_id!r} has no declared agenda for {info.product!r}"
        )
    agenda = restrict_agenda(declared, info.issue_ids)
    # The hybrid deadline, fixed for the session: the earlier of its time
    # limit and the schedule's depletion, shifted to the tick of COMMENCE.
    shifted = state.shifted
    if shifted is None or shifted[0] != now:
        shifted = state.shifted = (now, state.resources.shifted(now))
    t_max_eff = effective_deadline(min(info.t_max, agenda.t_max), shifted[1])
    role = Perspective.BUYER if info.buyer == state.agent_id else Perspective.SELLER
    entry = SessionEntry(
        session=msg.session,
        opponent=info.seller if role is Perspective.BUYER else info.buyer,
        product=info.product,
        role=role,
        agenda=agenda,
        t0=now,
        t_max_eff=t_max_eff,
        initiator=info.initiator == state.agent_id,
    )
    state.agenda_db.add(entry)


def agent_step(
    state: AgentState, inbox: Iterable[NegotiationMessage], now: int
) -> list[NegotiationMessage]:
    """One deliberation tick: sweep, filter, learn, adapt, respond, open.

    Deterministic in (state, inbox, now). Mutates the state in place and
    returns the ordered outbox; rejected messages are logged, never raised.

    Delivery contract: every inbox message was sent at `now - 1`, and only
    the marketplace sends a COMMENCE, with its payload, once per party (a
    second fails in `AgendaDB.add`). So the sweep, run before the inbox is
    read, is the step's only deadline check.
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
    # No entry has passed its deadline at a tick not past `due`.
    if now > db.due:
        for entry in db.expired(now):
            outbox.append(
                _emit(state, entry, now, _TERMINATE, reason=TERMINATE_DEADLINE)
            )
            db.remove(entry.session)

    if not isinstance(inbox, list):
        inbox = list(inbox)
    if len(inbox) > 1:
        inbox = sorted(inbox, key=DELIVERY_ORDER)
    entries = db._entries
    for msg in inbox:
        session, _, _, round_, _, kind, package, _, _ = msg
        if kind is _COMMENCE:
            _open_session(state, msg, now)
            continue
        entry = entries.get(session)
        verdict = proxy_filter(msg, entry, now)
        if not verdict.ok:
            if logger.isEnabledFor(logging.DEBUG):
                logger.debug(
                    "%s: rejected %s on %s (%s)",
                    state.agent_id, kind.value, session, verdict.reason.value,
                )
            continue
        entry.last_seen_round = round_
        if kind is not _OFFER:
            # The opponent acquired or terminated: the session is over.
            db.remove(session)
            continue

        # Offer: learn, adapt, then answer.
        recent = entry.recent
        offers = entry.offers_received = entry.offers_received + 1
        if len(recent) < BELIEF_WINDOW - 1:
            # Until the window is full there is no ratio.
            entry.recent = (*recent, package)
        else:
            previous_package = recent[-1]
            oldest_package = recent[-2]
            entry.recent = (oldest_package, previous_package, package)
            # An OfferPackage is the 1-tuple of its values.
            (oldest,) = oldest_package
            (previous,) = previous_package
            (latest,) = package
            # The mean three-point ratio λ, summed left to right over the
            # sorted issue ids, so its bits do not depend on the agenda's
            # order; a flat previous step or a NaN ratio counts as 1, the
            # linear fixed point.
            total = 0.0
            issue_ids = entry.agenda.sorted_issue_ids
            for issue_id in issue_ids:
                o_minus1 = previous[issue_id]
                denom = o_minus1 - oldest[issue_id]
                if denom == 0.0:
                    total += 1.0
                else:
                    lam = (latest[issue_id] - o_minus1) / denom
                    total += lam if lam == lam else 1.0
            lam = total / len(issue_ids)
            if lam > _LAMBDA_HIGH or lam < _LAMBDA_LOW:
                state.tactic = adapt_tactic(state.tactic, lam, offers)
        if aggressive is None:
            aggressive = state.resources.pressed_at(now)
        response_kind, response_package = decide_response(
            entry.agenda, entry.role, msg, now - entry.t0, entry.t_max_eff,
            _effective_params(state, True) if aggressive else state.tactic,
        )
        # The answer is the session's first message if the agent initiated
        # it and has not opened yet. An acquired entry leaves the DB in the
        # resolution below, so no opening is pending for it either.
        if not entry.opened:
            db.mark_opened(entry)
        if response_kind is _RESPONSE_ACQUIRE:
            if acquire_products is None:
                acquire_products = set()
            acquire_products.add(entry.product)
        else:
            # _emit's record, built here.
            round_ = entry.next_round
            entry.next_round = round_ + 1
            outbox.append(new_record(NegotiationMessage, (
                session, state.agent_id, entry.opponent, round_, now, _OFFER,
                response_package, None, None,
            )))

    # Opening offers for sessions this agent initiates, in session-id order
    # because jitter draws from rng.
    if db.unopened:
        pending = [e for e in db if e.initiator and not e.opened]
        if len(pending) > 1:
            pending.sort(key=_SESSION)
        for entry in pending:
            if aggressive is None:
                aggressive = state.resources.pressed_at(now)
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

    None when the agent holds no entry. It is -inf while an initiator entry
    is unopened (its opening goes out at the next step); otherwise it is the
    earliest entry deadline, `AgendaDB.due`, past which the sweep terminates
    that entry. An opened entry speaks again only to answer mail. At or
    before the threshold, a step with an empty inbox sweeps nothing, opens
    nothing, resolves nothing and draws no random number: it returns [] and
    changes nothing.
    """
    db = state.agenda_db
    if not db._entries:
        return None
    return -math.inf if db.unopened else db.due
