"""Central marketplace: discovery, matchmaking, routing, trust scoring.

All mutations are serialized through one logical event order (tick, session,
sender); the simulation kernel drives it that way. Only a session's two
participants may send in it. Each routed offer is folded into its
session's offer count and per-sender offer trails. The Reputation Index
gates matchmaking, so each close updates the participants' stats and the
watchdog rescores only the agents whose inputs changed. The Behavior Norm
and stance feed no decision: score_behavior sets them once, after the run,
from the trails of the closed sessions in creation order. Both scores equal
a full recomputation over every closed transcript, bit for bit.

Matchmaking is incremental too. The repository marks a product stale when a
posting, an agenda or an agent role that it depends on changes, and the
watchdog marks an advertiser's products stale when that agent's reputation
changes. Each matchmaking pass scans only the stale products and finds the
same matches, in the same order, as a pass over every RFQ.

Each transcript line equals _COMPACT_JSON.encode of its message's record
{tick, session, sender, receiver, round, kind, values, reason}.
render_transcript writes the lines of one transcript from one %-pattern per
message shape; a message the patterns do not cover (a bool tick or round, a
key that is not an exact str, a value that is not an exact finite float, a
package whose values are not a dict) goes to transcript_line, which encodes
the record whole. Each receiver's inbox is handed over in the order its
messages were queued; the agent reading it sorts it.
"""

from __future__ import annotations

import bisect
import json
import logging
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from math import isfinite
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from .core import (
    AgentId,
    CommenceInfo,
    IssueId,
    IssueSpec,
    MARKETPLACE_ID,
    MessageKind,
    MissingIssueError,
    NegotiationMessage,
    OfferPackage,
    Perspective,
    ProductId,
    SessionId,
    ValidatedAgenda,
    new_record,
)
from .tactics import Stance, classify_concession

logger = logging.getLogger(__name__)


class UnknownAgentError(KeyError):
    pass


class DuplicateIdError(ValueError):
    pass


class AlreadyAgreedError(RuntimeError):
    """A party already holds an agreement for this product."""


# ---------------------------------------------------------------------------
# Advertisement repository
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Advertisement:
    ad_id: str
    agent: AgentId
    product: ProductId
    # The advertiser's declared specs of the advertised issues.
    issues: tuple[IssueSpec, ...]
    posted_at: int

    def issue_ids(self) -> tuple[IssueId, ...]:
        return tuple(r.issue_id for r in self.issues)


@dataclass(frozen=True)
class RFQ:
    rfq_id: str
    agent: AgentId
    product: ProductId
    issues: tuple[IssueId, ...]
    min_reputation: float
    posted_at: int


def _ad_order(ad: Advertisement) -> tuple[int, str]:
    return (ad.posted_at, ad.ad_id)


def _rfq_order(rfq: RFQ) -> tuple[int, str]:
    return (rfq.posted_at, rfq.rfq_id)


class AdvertisementRepository:
    """Registered agents, their declared agendas, and posted ads/RFQs.

    Also records the products whose matches may have changed since the
    last matchmaking pass (see stale_products).
    """

    def __init__(self) -> None:
        self._roles: dict[AgentId, Perspective] = {}
        self._agendas: dict[tuple[AgentId, ProductId], ValidatedAgenda] = {}
        self._ads: dict[str, Advertisement] = {}
        # Per product, kept sorted by _ad_order and _rfq_order.
        self._ads_by_product: dict[ProductId, list[Advertisement]] = {}
        self._rfqs_by_product: dict[ProductId, list[RFQ]] = {}
        # Products each agent has advertised.
        self._advertised: dict[AgentId, set[ProductId]] = {}
        self._rfqs: dict[str, RFQ] = {}
        self._stale: set[ProductId] = set()
        self._ad_seq = 0
        self._rfq_seq = 0

    def register_agent(self, agent: AgentId, role: Perspective) -> None:
        if self._roles.get(agent, role) is not role:
            self._stale.update(p for a, p in self._agendas if a == agent)
        self._roles[agent] = role

    def agent_role(self, agent: AgentId) -> Perspective:
        try:
            return self._roles[agent]
        except KeyError:
            raise UnknownAgentError(agent) from None

    def agents(self) -> list[AgentId]:
        return sorted(self._roles)

    def has_agent(self, agent: AgentId) -> bool:
        return agent in self._roles

    def agent_count(self) -> int:
        return len(self._roles)

    def declare_agenda(
        self, agent: AgentId, product: ProductId, agenda: ValidatedAgenda
    ) -> None:
        if agent not in self._roles:
            raise UnknownAgentError(agent)
        self._agendas[(agent, product)] = agenda
        self._stale.add(product)

    def declared_agenda(
        self, agent: AgentId, product: ProductId
    ) -> Optional[ValidatedAgenda]:
        return self._agendas.get((agent, product))

    def submit_advertisement(
        self,
        agent: AgentId,
        product: ProductId,
        issues: Optional[Sequence[IssueId]] = None,
        posted_at: int = 0,
        ad_id: Optional[str] = None,
    ) -> str:
        """Store an ad derived from the agent's declared agenda; returns its id."""
        self.agent_role(agent)
        agenda = self.declared_agenda(agent, product)
        if agenda is None:
            raise UnknownAgentError(f"{agent!r} declared no agenda for {product!r}")
        specs = agenda.issues
        if issues is not None:
            wanted = set(issues)
            specs = tuple(s for s in specs if s.issue_id in wanted)
        if ad_id is None:
            self._ad_seq += 1
            ad_id = f"ad-{self._ad_seq}"
        elif ad_id in self._ads:
            raise DuplicateIdError(ad_id)
        ad = Advertisement(
            ad_id=ad_id,
            agent=agent,
            product=product,
            issues=specs,
            posted_at=posted_at,
        )
        self._ads[ad_id] = ad
        bisect.insort(self._ads_by_product.setdefault(product, []), ad, key=_ad_order)
        self._advertised.setdefault(agent, set()).add(product)
        self._stale.add(product)
        return ad_id

    def submit_rfq(
        self,
        agent: AgentId,
        product: ProductId,
        issues: Optional[Sequence[IssueId]] = None,
        min_reputation: float = 0.0,
        posted_at: int = 0,
        rfq_id: Optional[str] = None,
    ) -> str:
        self.agent_role(agent)
        agenda = self.declared_agenda(agent, product)
        if agenda is None:
            raise UnknownAgentError(f"{agent!r} declared no agenda for {product!r}")
        wanted = tuple(issues) if issues is not None else agenda.issue_ids()
        if rfq_id is None:
            self._rfq_seq += 1
            rfq_id = f"rfq-{self._rfq_seq}"
        elif rfq_id in self._rfqs:
            raise DuplicateIdError(rfq_id)
        rfq = RFQ(
            rfq_id=rfq_id,
            agent=agent,
            product=product,
            issues=wanted,
            min_reputation=min_reputation,
            posted_at=posted_at,
        )
        self._rfqs[rfq_id] = rfq
        bisect.insort(self._rfqs_by_product.setdefault(product, []), rfq, key=_rfq_order)
        self._stale.add(product)
        return rfq_id

    def query_advertisements(
        self,
        agent: Optional[AgentId] = None,
        product: Optional[ProductId] = None,
        issues: Optional[Iterable[IssueId]] = None,
    ) -> list[Advertisement]:
        """All ads matching every supplied criterion, by (posted_at, ad_id).

        A product query walks only that product's ads.
        """
        wanted = set(issues) if issues is not None else None
        if product is None:
            pool = sorted(self._ads.values(), key=_ad_order)
        else:
            pool = self._ads_by_product.get(product, [])
        return [
            ad
            for ad in pool
            if (agent is None or ad.agent == agent)
            and (wanted is None or wanted <= set(ad.issue_ids()))
        ]

    def query_rfqs(
        self,
        agent: Optional[AgentId] = None,
        product: Optional[ProductId] = None,
    ) -> list[RFQ]:
        """All RFQs matching every supplied criterion, by (posted_at, rfq_id)."""
        if product is None:
            pool = sorted(self._rfqs.values(), key=_rfq_order)
        else:
            pool = self._rfqs_by_product.get(product, [])
        return [rfq for rfq in pool if agent is None or rfq.agent == agent]

    def rfqs_for(self, products: Iterable[ProductId]) -> list[RFQ]:
        """The RFQs of the given products, merged into (posted_at, rfq_id) order."""
        return sorted(
            chain.from_iterable(self._rfqs_by_product.get(p, ()) for p in products),
            key=_rfq_order,
        )

    # -- change tracking ---------------------------------------------------

    def stale_products(self) -> set[ProductId]:
        """Products touched by a posting, an agenda, a role change or
        mark_advertiser_stale since the last take_stale."""
        return self._stale

    def take_stale(self) -> set[ProductId]:
        """The stale products; the set starts empty again."""
        stale, self._stale = self._stale, set()
        return stale

    def mark_advertiser_stale(self, agent: AgentId) -> None:
        """Mark every product the agent advertises (its reputation changed)."""
        self._stale.update(self._advertised.get(agent, ()))


# ---------------------------------------------------------------------------
# Alliance matchmaking
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Match:
    rfq_id: str
    ad_id: str
    product: ProductId
    buyer: AgentId
    seller: AgentId
    issue_ids: tuple[IssueId, ...]


def ranges_overlap(a_lo: float, a_hi: float, b_lo: float, b_hi: float) -> bool:
    return max(a_lo, b_lo) <= min(a_hi, b_hi)


def match_alliances(
    repo: AdvertisementRepository,
    trust: "TrustArchive",
    exclude: Iterable[tuple[str, str]] = (),
    require_overlap: bool = True,
    products: Optional[Iterable[ProductId]] = None,
) -> list[Match]:
    """Pair RFQs with compatible ads.

    A match requires the same product, opposite roles, the RFQ's issues to be
    a subset of the ad's, the ad owner's reputation to meet the RFQ's bar,
    and (unless disabled) per-issue range overlap between the two parties'
    declared agendas. Output order follows RFQ then ad submission order.
    With `products`, only the RFQs of those products are paired.
    """
    skip = set(exclude)
    rfqs = repo.query_rfqs() if products is None else repo.rfqs_for(products)
    matches: list[Match] = []
    for rfq in rfqs:
        rfq_role = repo.agent_role(rfq.agent)
        rfq_agenda = repo.declared_agenda(rfq.agent, rfq.product)
        if rfq_agenda is None:
            continue
        for ad in repo.query_advertisements(product=rfq.product):
            if (rfq.rfq_id, ad.ad_id) in skip:
                continue
            if repo.agent_role(ad.agent) is rfq_role:
                continue
            ad_ranges = {r.issue_id: r for r in ad.issues}
            if not set(rfq.issues) <= set(ad_ranges):
                continue
            if trust.reputation(ad.agent) < rfq.min_reputation:
                continue
            if require_overlap:
                ok = True
                for issue_id in rfq.issues:
                    mine = rfq_agenda.issue(issue_id)
                    theirs = ad_ranges[issue_id]
                    if not ranges_overlap(
                        mine.min_value, mine.max_value,
                        theirs.min_value, theirs.max_value,
                    ):
                        ok = False
                        break
                if not ok:
                    continue
            buyer = rfq.agent if rfq_role is Perspective.BUYER else ad.agent
            seller = ad.agent if rfq_role is Perspective.BUYER else rfq.agent
            matches.append(
                Match(
                    rfq_id=rfq.rfq_id,
                    ad_id=ad.ad_id,
                    product=rfq.product,
                    buyer=buyer,
                    seller=seller,
                    issue_ids=tuple(rfq.issues),
                )
            )
    return matches


# ---------------------------------------------------------------------------
# Sessions and transcripts
# ---------------------------------------------------------------------------

class SessionOutcome(Enum):
    OPEN = "open"
    AGREED = "agreed"
    TERMINATED = "terminated"


# Bound once for the per-message path: on CPython 3.11 reading a member off
# its Enum class takes about 120 ns, reading a module global about 15.
_COMMENCE = MessageKind.COMMENCE
_OFFER = MessageKind.OFFER
_ACQUIRE = MessageKind.ACQUIRE
_TERMINATE = MessageKind.TERMINATE
_OPEN = SessionOutcome.OPEN
_AGREED = SessionOutcome.AGREED


@dataclass
class SessionState:
    """Marketplace-side record of one negotiation."""

    session: SessionId
    product: ProductId
    buyer: AgentId
    seller: AgentId
    issue_ids: tuple[IssueId, ...]
    commence_at: int
    t_max: int
    transcript: list[NegotiationMessage] = field(default_factory=list)
    outcome: SessionOutcome = SessionOutcome.OPEN
    final_package: Optional[OfferPackage] = None
    closed_at: Optional[int] = None
    close_reason: Optional[str] = None
    # Per participant, (issue, min, max) for each session issue its declared
    # agenda has, in issue_ids order, as declared at COMMENCE.
    bounds: dict[AgentId, tuple[tuple[IssueId, float, float], ...]] = field(
        default_factory=dict
    )
    # Folded by route_message as each offer enters the transcript: the number
    # of offers, and per sender each issue's offered values in transcript
    # order (offers without a package count but add no values). A closed
    # session takes no more offers, so score_behavior reads its final trails.
    offer_count: int = 0
    trails: dict[AgentId, dict[IssueId, list[float]]] = field(default_factory=dict)
    # The buyer's and the seller's TrustStats, the ones their trust records
    # hold, bound by route_message at each party's first routed message here,
    # so a party that never sends gets no record from this session.
    buyer_stats: Optional[TrustStats] = None
    seller_stats: Optional[TrustStats] = None

    @property
    def is_open(self) -> bool:
        return self.outcome is SessionOutcome.OPEN

    def participants(self) -> tuple[AgentId, AgentId]:
        return (self.buyer, self.seller)

    def last_offer(self, sender: AgentId) -> Optional[OfferPackage]:
        """The package of the sender's latest offer here, None before one."""
        for msg in reversed(self.transcript):
            if msg.kind is MessageKind.OFFER and msg.sender == sender:
                return msg.package
        return None


def _declared_bounds(
    agenda: ValidatedAgenda, issue_ids: Sequence[IssueId]
) -> tuple[tuple[IssueId, float, float], ...]:
    """(issue, min, max) of each of the issues that the agenda declares."""
    bounds = []
    for issue_id in issue_ids:
        try:
            spec = agenda.issue(issue_id)
        except MissingIssueError:
            continue
        bounds.append((issue_id, spec.min_value, spec.max_value))
    return tuple(bounds)


# One shared encoder: json.dumps with non-default arguments builds a new one
# for every call.
_COMPACT_JSON = json.JSONEncoder(separators=(",", ":"), ensure_ascii=False)


def _json(value: object, encoded: dict[str, str]) -> str:
    """One value as _COMPACT_JSON writes it; a string is encoded once per
    `encoded` dict."""
    kind = type(value)
    if kind is str:
        text = encoded.get(value)
        if text is None:
            text = encoded[value] = _COMPACT_JSON.encode(value)
        return text
    if kind is float and isfinite(value):
        return float.__repr__(value)
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    return _COMPACT_JSON.encode(value)


def transcript_line(msg: NegotiationMessage) -> str:
    """One message as a transcript line: _COMPACT_JSON.encode of the record
    {tick, session, sender, receiver, round, kind, values, reason}, `values`
    holding the package's issues in sorted key order, or null.

    It renders any message, and render_transcript sends it each message its
    patterns do not cover.
    """
    session, sender, receiver, round_, tick, kind, package, reason, _ = msg
    values = None
    if package is not None:
        offered = package.values
        values = {key: offered[key] for key in sorted(offered)}
    return _COMPACT_JSON.encode({
        "tick": tick, "session": session, "sender": sender, "receiver": receiver,
        "round": round_, "kind": kind.value, "values": values, "reason": reason,
    })


def _shape_pattern(
    kind: MessageKind,
    has_reason: bool,
    keys: Optional[tuple[str, ...]],
    encoded: dict[str, str],
) -> tuple[str, Optional[Callable[[dict], tuple]]]:
    """The %-pattern of one message shape and the getter of its issue values
    as a tuple in sorted-key order (None when there are none).

    The pattern holds the encoded kind and issue keys, each `%` doubled; `%d`
    stands for tick and round, `%s` for the encoded session, sender, receiver
    and reason, `%r` for each issue value.
    """
    getter = None
    if keys is None:
        values = "null"
    else:
        ordered = sorted(keys)
        values = "{" + ",".join(
            _json(key, encoded).replace("%", "%%") + ":%r" for key in ordered
        ) + "}"
        if len(ordered) > 1:
            getter = itemgetter(*ordered)
        elif ordered:
            # itemgetter of one key returns the bare value.
            getter = lambda offered, key=ordered[0]: (offered[key],)
    pattern = (
        '{"tick":%d,"session":%s,"sender":%s,"receiver":%s,"round":%d,'
        '"kind":' + _json(kind.value, encoded).replace("%", "%%") + ","
        '"values":' + values + ","
        '"reason":' + ("%s" if has_reason else "null") + "}"
    )
    return pattern, getter


class _EncodedText(dict):
    """Each string's JSON text; a lookup that misses encodes the value with
    _json, which keeps it when it is a string."""

    def __missing__(self, value: object) -> str:
        return _json(value, self)


def render_transcript(messages: Iterable[NegotiationMessage]) -> list[str]:
    """Every message as a transcript line; the lines of Marketplace.transcript_lines.

    Each line equals _COMPACT_JSON.encode of the message's record, as
    transcript_line writes it. Messages of one shape (kind, whether a reason
    is given, and the package's issue keys in insertion order, or no package)
    share one %-pattern, built on first use and kept for this call only. A
    message is written from its pattern when its tick and round are exact
    ints, its package's values a dict whose keys are exact strs, and every
    value an exact, finite float. Every other message goes to
    transcript_line: a bool tick or round, a key of any other type (a str
    subclass too), an int, bool, NaN, infinity or float-subclass value, and
    a package whose values are not a dict.
    """
    encoded = _EncodedText()
    # (id(kind), no reason, keys) -> (pattern, getter, kind); holding the
    # kind keeps its id from naming another object during the call.
    shapes: dict[tuple, tuple] = {}
    # The previous pattern's shape: runs of one shape skip the lookup.
    last_kind = last_no_reason = last_keys = last_shape = None
    lines: list[str] = []
    append = lines.append
    for msg in messages:
        session, sender, receiver, round_, tick, kind, package, reason, _ = msg
        if type(tick) is int and type(round_) is int:
            if package is None:
                keys = values = None
            else:
                values = package.values
                # (None,) fails the key check: a non-dict goes to the fallback.
                keys = tuple(values) if type(values) is dict else (None,)
            for key in keys or ():
                if type(key) is not str:
                    break
            else:
                no_reason = reason is None
                if (
                    kind is not last_kind
                    or no_reason is not last_no_reason
                    or keys != last_keys
                ):
                    shape_key = (id(kind), no_reason, keys)
                    last_shape = shapes.get(shape_key)
                    if last_shape is None:
                        last_shape = shapes[shape_key] = (
                            *_shape_pattern(kind, not no_reason, keys, encoded), kind
                        )
                    last_kind, last_no_reason, last_keys = kind, no_reason, keys
                pattern, getter, _ = last_shape
                issue_values = () if getter is None else getter(values)
                for value in issue_values:
                    if type(value) is not float or not isfinite(value):
                        break
                else:
                    args = (
                        tick, encoded[session], encoded[sender], encoded[receiver], round_
                    ) + issue_values
                    if not no_reason:
                        args += (_json(reason, encoded),)
                    append(pattern % args)
                    continue
        append(transcript_line(msg))
    return lines


# ---------------------------------------------------------------------------
# Behavior watchdog
# ---------------------------------------------------------------------------

@dataclass
class TrustStats:
    sessions_observed: int = 0
    agreements: int = 0
    violations: int = 0
    messages_sent: int = 0
    rounds_total: int = 0


@dataclass
class TrustRecord:
    agent: AgentId
    behavior_norm: float = 1.0
    reputation: float = 0.5
    stance: Stance = Stance.LINEAR
    stats: TrustStats = field(default_factory=TrustStats)


def session_ratios(session: SessionState, agent: AgentId) -> list[float]:
    """Concession ratios of the agent's own offer triples in one transcript.

    Consecutive offers are taken per issue, issues in sorted order; triples
    with a flat previous step have no defined ratio and are skipped.
    """
    trails: dict[IssueId, list[float]] = {}
    for msg in session.transcript:
        if msg.kind is not MessageKind.OFFER or msg.sender != agent:
            continue
        if msg.package is None:
            continue
        for issue_id in sorted(msg.package.values):
            trails.setdefault(issue_id, []).append(msg.package.values[issue_id])
    return trail_ratios(trails)


def trail_ratios(trails: dict[IssueId, list[float]]) -> list[float]:
    """Concession ratios along each issue's trail, issues in sorted order;
    triples with a flat previous step are skipped."""
    ratios: list[float] = []
    for issue_id in sorted(trails):
        trail = trails[issue_id]
        if len(trail) < 3:
            continue
        # concession_rate inlined over each triple (o_minus2, o_minus1, o_now).
        o_minus2, o_minus1 = trail[0], trail[1]
        for o_now in trail[2:]:
            denom = o_minus1 - o_minus2
            if denom != 0.0:
                lam = (o_now - o_minus1) / denom
                if lam == lam:  # a NaN ratio is undefined too
                    ratios.append(lam)
            o_minus2, o_minus1 = o_minus1, o_now
    return ratios


def behavior_norm(ratios: Sequence[float]) -> float:
    """Mean of the ratios, floored at 0; 1 (linear) when there are none.

    The sum runs left to right, so callers pass the ratios in session
    creation order to get the same bits as compute_behavior_norm. It is a
    plain loop: from Python 3.12 on, sum() of floats compensates rounding
    and gives other bits.
    """
    if not ratios:
        return 1.0
    total = 0.0
    for ratio in ratios:
        total += ratio
    # Tactic switches can make an offer trail retreat, yielding negative
    # ratios; the norm is a concession measure and stays non-negative.
    return max(0.0, total / len(ratios))


def compute_behavior_norm(
    sessions: Iterable[SessionState], agent: AgentId
) -> float:
    """Mean concession ratio over the agent's own offer triples.

    The reference score_behavior is tested against: rescans the transcript
    of every closed session in the given order.
    """
    ratios: list[float] = []
    for session in sessions:
        if not session.is_open:
            ratios.extend(session_ratios(session, agent))
    return behavior_norm(ratios)


def compute_reputation(stats: TrustStats, max_rounds_observed: int) -> float:
    """Reputation in [0, 1] from agreement rate, compliance, and speed.

    Weighted 0.5/0.3/0.2; agents with no closed sessions sit at the neutral
    0.5. An agent that never agreed gets the worst speed term.
    """
    if stats.sessions_observed == 0:
        return 0.5
    agreement_rate = stats.agreements / stats.sessions_observed
    if stats.messages_sent > 0:
        compliance_rate = 1.0 - stats.violations / stats.messages_sent
    else:
        compliance_rate = 1.0
    if stats.agreements and max_rounds_observed > 0:
        mean_rounds = stats.rounds_total / stats.agreements
        normalized_rounds = mean_rounds / max_rounds_observed
    else:
        normalized_rounds = 1.0
    raw = (
        0.5 * agreement_rate
        + 0.3 * compliance_rate
        + 0.2 * (1.0 - normalized_rounds)
    )
    return min(1.0, max(0.0, raw))


class TrustArchive:
    """Per-agent Behavior Norm and Reputation Index records."""

    def __init__(self) -> None:
        self._records: dict[AgentId, TrustRecord] = {}

    def record(self, agent: AgentId) -> TrustRecord:
        rec = self._records.get(agent)
        if rec is None:
            rec = TrustRecord(agent=agent)
            self._records[agent] = rec
        return rec

    def reputation(self, agent: AgentId) -> float:
        rec = self._records.get(agent)
        return 0.5 if rec is None else rec.reputation

    def records(self) -> list[TrustRecord]:
        return [self._records[a] for a in sorted(self._records)]

    def export_lines(self) -> list[str]:
        """One JSON line per agent, in agent order.

        Each line is _COMPACT_JSON.encode of the record {agent,
        behavior_norm, stance, reputation, stats: {sessions_observed,
        agreements, violations, messages_sent, mean_rounds_to_agreement}},
        the mean being rounds_total / agreements or null. One format string
        writes it out and each value goes through _json, so the bytes are
        those of the encoded record.
        """
        encoded: dict[str, str] = {}
        lines = []
        for rec in self.records():
            stats = rec.stats
            mean = stats.rounds_total / stats.agreements if stats.agreements else None
            lines.append(
                f'{{"agent":{_json(rec.agent, encoded)},'
                f'"behavior_norm":{_json(rec.behavior_norm, encoded)},'
                f'"stance":{_json(rec.stance.value, encoded)},'
                f'"reputation":{_json(rec.reputation, encoded)},'
                f'"stats":{{"sessions_observed":{_json(stats.sessions_observed, encoded)},'
                f'"agreements":{_json(stats.agreements, encoded)},'
                f'"violations":{_json(stats.violations, encoded)},'
                f'"messages_sent":{_json(stats.messages_sent, encoded)},'
                f'"mean_rounds_to_agreement":{_json(mean, encoded)}}}}}'
            )
        return lines


# ---------------------------------------------------------------------------
# Marketplace engine
# ---------------------------------------------------------------------------

class DeliveryStatus(Enum):
    DELIVERED = "delivered"
    UNKNOWN_SESSION = "unknown-session"
    NOT_PARTICIPANT = "not-participant"
    NOT_LAST_OFFER = "not-last-offer"
    NOT_FROM_MARKET = "not-from-market"
    SESSION_CLOSED = "session-closed"


@dataclass(frozen=True)
class DeliveryResult:
    status: DeliveryStatus
    violations: tuple[str, ...] = ()


_DELIVERED = DeliveryResult(DeliveryStatus.DELIVERED, ())


class Marketplace:
    """Owns discovery, sessions, message routing, and the trust archive."""

    def __init__(self, require_overlap: bool = True) -> None:
        self.repo = AdvertisementRepository()
        self.trust = TrustArchive()
        self.sessions: dict[SessionId, SessionState] = {}
        self.require_overlap = require_overlap
        self._matched: set[tuple[str, str]] = set()
        self._agreed: set[tuple[AgentId, ProductId]] = set()
        self._session_seq = 0
        # Sessions commenced and not yet closed.
        self.open_count = 0
        # Queued messages by delivery tick, then by receiver, in the order
        # they were queued; no inbox is empty.
        self._pending: dict[int, dict[AgentId, list[NegotiationMessage]]] = {}
        self._log: list[NegotiationMessage] = []
        # Watchdog state: the running max of rounds to agreement; agents
        # whose inputs changed since the last pass; and the (max rounds,
        # registered agents) the last full sweep saw.
        self._max_rounds = 0
        self._dirty: set[AgentId] = set()
        self._swept: Optional[tuple[int, int]] = None

    # -- matchmaking -------------------------------------------------------

    def run_matchmaking(self, now: int) -> list[SessionState]:
        """Match new (RFQ, ad) pairs of the stale products and commence their
        sessions; the stale set starts empty again.

        A pair whose inputs did not change since the last pass cannot match
        now if it did not then, so the result equals a pass over every RFQ.
        Reputations must change through recompute_trust for this to hold.
        """
        if not self.repo.stale_products():
            return []
        found, startable = self._matches(self.repo.take_stale())
        self._matched.update((m.rfq_id, m.ad_id) for m in found)
        return [self.commence_negotiation(m, now) for m in startable]

    def _matches(self, products: set[ProductId]) -> tuple[list[Match], list[Match]]:
        """The new matches of the products, and those of them whose parties
        hold no agreement for the product yet."""
        if not products:
            return [], []
        found = match_alliances(
            self.repo, self.trust, exclude=self._matched,
            require_overlap=self.require_overlap, products=products,
        )
        agreed = self._agreed
        return found, [
            m for m in found
            if (m.buyer, m.product) not in agreed and (m.seller, m.product) not in agreed
        ]

    def commence_negotiation(self, match: Match, now: int) -> SessionState:
        """Open a session for a match and introduce both parties.

        The seller is the initiator and will send the first offer. Raises
        AlreadyAgreedError when either party already closed a deal for the
        product.
        """
        if (match.buyer, match.product) in self._agreed:
            raise AlreadyAgreedError(f"{match.buyer!r} already agreed for {match.product!r}")
        if (match.seller, match.product) in self._agreed:
            raise AlreadyAgreedError(f"{match.seller!r} already agreed for {match.product!r}")
        buyer_agenda = self.repo.declared_agenda(match.buyer, match.product)
        seller_agenda = self.repo.declared_agenda(match.seller, match.product)
        if buyer_agenda is None or seller_agenda is None:
            raise UnknownAgentError("both parties must declare agendas before matching")
        t_max = min(buyer_agenda.t_max, seller_agenda.t_max)
        self._session_seq += 1
        session = SessionState(
            session=f"s-{self._session_seq}",
            product=match.product,
            buyer=match.buyer,
            seller=match.seller,
            issue_ids=match.issue_ids,
            commence_at=now,
            t_max=t_max,
            bounds={
                match.buyer: _declared_bounds(buyer_agenda, match.issue_ids),
                match.seller: _declared_bounds(seller_agenda, match.issue_ids),
            },
        )
        self.sessions[session.session] = session
        self.open_count += 1
        info = CommenceInfo(
            product=match.product,
            issue_ids=match.issue_ids,
            t_max=t_max,
            buyer=match.buyer,
            seller=match.seller,
            initiator=match.seller,
        )
        due = self._pending.get(now + 1)
        if due is None:
            due = self._pending[now + 1] = {}
        for i, receiver in enumerate((match.buyer, match.seller)):
            # session, sender, receiver, round, sent_at, kind, package,
            # reason, commence
            msg = new_record(NegotiationMessage, (
                session.session, MARKETPLACE_ID, receiver, i, now,
                _COMMENCE, None, None, info,
            ))
            session.transcript.append(msg)
            self._log.append(msg)
            inbox = due.get(receiver)
            if inbox is None:
                due[receiver] = [msg]
            else:
                inbox.append(msg)
        return session

    # -- routing -----------------------------------------------------------

    def due_messages(self, now: int) -> dict[AgentId, list[NegotiationMessage]]:
        """Pop messages due for delivery this tick, per receiver, each inbox
        in the order its messages were queued (agent_step reads an inbox in
        DELIVERY_ORDER, whatever order it is given)."""
        return self._pending.pop(now, {})

    def route_message(self, msg: NegotiationMessage) -> DeliveryResult:
        """Append a message to its session transcript and queue delivery.

        Acquire and Terminate close the session (exactly once); messages for
        unknown or closed sessions, messages from anyone but the session's
        buyer and seller, a commence (only the marketplace sends one, and it
        does not route it) and an acquire of anything but the other side's
        last offer are counted against the sender and dropped.

        A delivered message is held to sender-side compliance: any but a
        terminate is past the deadline once sent more than t_max after
        COMMENCE (a terminate then is the protocol-required teardown), and an
        offer is held to the sender's own declared ranges as captured at
        COMMENCE (the receiver's space is the receiver's filter). An offer
        that enters the transcript is folded into the session's offer count
        and trails. A delivery without compliance violations returns one
        shared result.
        """
        session_id, sender, receiver, _, sent_at, kind, package, reason, _ = msg
        session = self.sessions.get(session_id)
        if session is None:
            return self._reject(sender, DeliveryStatus.UNKNOWN_SESSION)
        if sender == session.buyer:
            stats = session.buyer_stats
        elif sender == session.seller:
            stats = session.seller_stats
        else:
            return self._reject(sender, DeliveryStatus.NOT_PARTICIPANT)
        if kind is _COMMENCE:
            return self._reject(sender, DeliveryStatus.NOT_FROM_MARKET)
        if session.outcome is not _OPEN:
            # A message crossing the close in the same tick is a benign race;
            # only sends after the sender could have learned of the closure
            # count against compliance.
            closed_at = session.closed_at if session.closed_at is not None else -1
            if sent_at > closed_at:
                return self._reject(sender, DeliveryStatus.SESSION_CLOSED)
            return DeliveryResult(DeliveryStatus.SESSION_CLOSED, ())
        if kind is _ACQUIRE:
            other = session.seller if sender == session.buyer else session.buyer
            offered = session.last_offer(other)
            if offered is None or package != offered:
                return self._reject(sender, DeliveryStatus.NOT_LAST_OFFER)

        violations: tuple[str, ...] = ()
        if kind is not _TERMINATE and sent_at - session.commence_at > session.t_max:
            violations = ("past-deadline",)
        if kind is _OFFER:
            session.offer_count += 1
            if package is not None:
                values = package.values
                for issue_id, lo, hi in session.bounds.get(sender, ()):
                    offered = values.get(issue_id)
                    if offered is None or not lo <= offered <= hi:
                        violations += (f"out-of-space:{issue_id}",)
                trails = session.trails.get(sender)
                if trails is None:
                    trails = session.trails[sender] = {}
                for issue_id, value in values.items():
                    trail = trails.get(issue_id)
                    if trail is None:
                        trails[issue_id] = [value]
                    else:
                        trail.append(value)
        if stats is None:
            stats = self.trust.record(sender).stats
            if sender == session.buyer:
                session.buyer_stats = stats
            else:
                session.seller_stats = stats
        stats.messages_sent += 1
        stats.violations += len(violations)
        self._dirty.add(sender)

        session.transcript.append(msg)
        self._log.append(msg)
        # Queued under its receiver for delivery at the next tick. No
        # setdefault: it would build a fresh list or dict for every message.
        due = self._pending.get(sent_at + 1)
        if due is None:
            self._pending[sent_at + 1] = {receiver: [msg]}
        else:
            inbox = due.get(receiver)
            if inbox is None:
                due[receiver] = [msg]
            else:
                inbox.append(msg)
        if kind is _ACQUIRE:
            session.outcome = _AGREED
            session.final_package = package
            session.closed_at = sent_at
            self._agreed.add((session.buyer, session.product))
            self._agreed.add((session.seller, session.product))
            self._on_close(session)
        elif kind is _TERMINATE:
            session.outcome = SessionOutcome.TERMINATED
            session.closed_at = sent_at
            session.close_reason = reason
            self._on_close(session)
        if violations:
            return DeliveryResult(DeliveryStatus.DELIVERED, violations)
        return _DELIVERED

    def _reject(self, sender: AgentId, status: DeliveryStatus) -> DeliveryResult:
        """Drop a message, counting one violation against its sender."""
        self.trust.record(sender).stats.violations += 1
        self._dirty.add(sender)
        return DeliveryResult(status, (status.value,))

    # -- watchdog ----------------------------------------------------------

    def _on_close(self, session: SessionState) -> None:
        """Fold one closed session into the participants' stats, then refresh."""
        self.open_count -= 1
        agreed = session.outcome is _AGREED
        rounds = session.offer_count
        if agreed:
            self._max_rounds = max(self._max_rounds, rounds)
        for agent in session.participants():
            stats = self.trust.record(agent).stats
            stats.sessions_observed += 1
            if agreed:
                stats.agreements += 1
                stats.rounds_total += rounds
            self._dirty.add(agent)
        self.recompute_trust()

    def recompute_trust(self) -> None:
        """Event-driven watchdog pass: refresh R where its inputs changed.

        A registered agent is refreshed when routing touched its stats or a
        session it took part in closed since the last pass. Every registered
        agent is refreshed, and gets its record, on the first pass, when the
        running max of rounds to agreement has grown (R is normalised by it),
        and when the number of registered agents has changed. So R equals
        compute_reputation over all closed sessions, bit for bit. B and
        stance are left to score_behavior.
        """
        sweep = (self._max_rounds, self.repo.agent_count())
        if sweep != self._swept:
            self._swept = sweep
            agents: Iterable[AgentId] = self.repo.agents()
        else:
            agents = [a for a in self._dirty if self.repo.has_agent(a)]
        self._dirty.clear()
        for agent in agents:
            rec = self.trust.record(agent)
            reputation = compute_reputation(rec.stats, self._max_rounds)
            if reputation != rec.reputation:
                rec.reputation = reputation
                # Its ads may now pass, or fail, an RFQ's reputation bar.
                self.repo.mark_advertiser_stale(agent)

    def score_behavior(self) -> None:
        """Set B and stance from the closed sessions' trails; B feeds no
        decision, so this runs once, after the run. Ratios are summed in
        session creation order, so B equals compute_behavior_norm bit for
        bit. An agent that sent no offer in a closed session keeps the
        default B of 1.0; one that did already has a record."""
        ratios: dict[AgentId, list[float]] = {}
        for session in self.sessions.values():
            if session.outcome is not _OPEN:
                for agent, trails in session.trails.items():
                    ratios.setdefault(agent, []).extend(trail_ratios(trails))
        for agent, agent_ratios in ratios.items():
            rec = self.trust.record(agent)
            rec.behavior_norm = behavior_norm(agent_ratios)
            rec.stance = classify_concession(rec.behavior_norm)

    # -- state queries and export -------------------------------------------

    def prospective_matches(self) -> list[Match]:
        """Matches that would commence next tick; read-only probe of the
        stale products."""
        return self._matches(self.repo.stale_products())[1]

    def has_pending_messages(self) -> bool:
        return bool(self._pending)

    def transcript_lines(self) -> list[str]:
        """Render every line of the transcript; emission starts here."""
        return render_transcript(self._log)
