"""Shared domain types: issues, agendas, offer packages, protocol messages.

All types are immutable values; agents and the marketplace exchange them
without copying or locking. Invariants are enforced by validate_agenda rather
than in constructors so tests can build deliberately broken agendas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Iterable, Mapping, Optional

from . import kernels

AgentId = str
SessionId = str
ProductId = str
IssueId = str

WEIGHT_SUM_TOLERANCE = 1e-9

#: Reserved sender id for marketplace-originated protocol messages.
MARKETPLACE_ID: AgentId = "@market"


class Direction(Enum):
    """Whether this party's offered value rises or falls as it concedes."""

    ASCENDING = "ascending"
    DESCENDING = "descending"


class Perspective(Enum):
    """Scoring viewpoint: buyers prefer low values, sellers high."""

    BUYER = "buyer"
    SELLER = "seller"


class AgendaError(ValueError):
    """Base class for agenda invariant violations."""


class EmptyAgendaError(AgendaError):
    pass


class WeightSumViolation(AgendaError):
    pass


class BadRangeError(AgendaError):
    pass


class BadDeadlineError(AgendaError):
    pass


class OutOfRangeError(ValueError):
    """Offered value outside an issue's acceptable [min, max] range."""


class MissingIssueError(KeyError):
    """Offer package does not cover the agenda's issue set."""


@dataclass(frozen=True)
class IssueSpec:
    """One negotiable issue: weight, acceptable range, concession direction."""

    issue_id: IssueId
    weight: float
    min_value: float
    max_value: float
    direction: Direction = Direction.ASCENDING


@dataclass(frozen=True)
class Agenda:
    """Weighted issue set plus the negotiation time window in virtual ticks."""

    issues: tuple[IssueSpec, ...]
    t_max: int
    t_min: int = 0

    def issue_ids(self) -> tuple[IssueId, ...]:
        return tuple(spec.issue_id for spec in self.issues)

    def issue(self, issue_id: IssueId) -> IssueSpec:
        for spec in self.issues:
            if spec.issue_id == issue_id:
                return spec
        raise MissingIssueError(issue_id)


#: An Agenda that has passed validate_agenda. Alias kept for signatures.
ValidatedAgenda = Agenda


@dataclass(frozen=True)
class OfferPackage:
    """One round's offered value per issue."""

    values: Mapping[IssueId, float]

    def value(self, issue_id: IssueId) -> float:
        try:
            return self.values[issue_id]
        except KeyError:
            raise MissingIssueError(issue_id) from None


class MessageKind(Enum):
    COMMENCE = "commence"
    OFFER = "offer"
    ACQUIRE = "acquire"
    TERMINATE = "terminate"


@dataclass(frozen=True)
class CommenceInfo:
    """Session introduction payload carried by a Commence message."""

    product: ProductId
    issue_ids: tuple[IssueId, ...]
    t_max: int
    buyer: AgentId
    seller: AgentId
    initiator: AgentId


@dataclass(frozen=True)
class NegotiationMessage:
    """Protocol envelope; `round` is a per-sender sequence within a session."""

    session: SessionId
    sender: AgentId
    receiver: AgentId
    round: int
    sent_at: int
    kind: MessageKind
    package: Optional[OfferPackage] = None
    reason: Optional[str] = None
    commence: Optional[CommenceInfo] = None


#: Sort key of the delivery order: send tick, session, sender, round. The
#: marketplace queues, the tick loop routes and an agent reads its inbox in
#: this order.
DELIVERY_ORDER = attrgetter("sent_at", "session", "sender", "round")


def validate_agenda(agenda: Agenda) -> ValidatedAgenda:
    """Check every agenda invariant; returns the agenda unchanged when valid.

    Raises EmptyAgendaError, BadRangeError (min >= max, max - min beyond
    float range, bad weight, duplicate issue id), WeightSumViolation
    (|sum W - 1| > 1e-9) or BadDeadlineError.
    """
    if not agenda.issues:
        raise EmptyAgendaError("agenda has no issues")
    seen: set[IssueId] = set()
    total = 0.0
    for spec in agenda.issues:
        if spec.issue_id in seen:
            raise BadRangeError(f"duplicate issue id {spec.issue_id!r}")
        seen.add(spec.issue_id)
        if not spec.min_value < spec.max_value:
            raise BadRangeError(
                f"issue {spec.issue_id!r}: min {spec.min_value} >= max {spec.max_value}"
            )
        if not math.isfinite(spec.max_value - spec.min_value):
            # Offers and scores scale by the width; an infinite one makes NaN.
            raise BadRangeError(
                f"issue {spec.issue_id!r}: width of [{spec.min_value}, {spec.max_value}] "
                "is beyond float range"
            )
        if not 0.0 < spec.weight <= 1.0:
            raise BadRangeError(
                f"issue {spec.issue_id!r}: weight {spec.weight} outside (0, 1]"
            )
        total += spec.weight
    if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
        raise WeightSumViolation(f"issue weights sum to {total!r}, expected 1")
    if agenda.t_min < 0 or agenda.t_min > agenda.t_max:
        raise BadDeadlineError(
            f"deadline window [{agenda.t_min}, {agenda.t_max}] is invalid"
        )
    return agenda


def check_in_range(spec: IssueSpec, offered: float) -> None:
    """Raise OutOfRangeError unless offered lies in the issue's [min, max]."""
    if not spec.min_value <= offered <= spec.max_value:
        raise OutOfRangeError(
            f"issue {spec.issue_id!r}: value {offered} outside "
            f"[{spec.min_value}, {spec.max_value}]"
        )


def issue_score(spec: IssueSpec, offered: float, perspective: Perspective) -> float:
    """Normalize an offered value into a [0, 1] score for one side.

    Buyer score is (max - offered)/(max - min); seller score is its
    complement, so the two perspectives always sum to 1.
    """
    check_in_range(spec, offered)
    return kernels.issue_score(
        spec.min_value, spec.max_value, offered, perspective is Perspective.BUYER
    )


def restrict_agenda(agenda: ValidatedAgenda, issue_ids: Iterable[IssueId]) -> ValidatedAgenda:
    """Restrict an agenda to a shared issue subset, renormalizing weights."""
    wanted = list(issue_ids)
    kept = [spec for spec in agenda.issues if spec.issue_id in set(wanted)]
    if not kept:
        raise EmptyAgendaError("restriction removed every issue")
    total = sum(spec.weight for spec in kept)
    rescaled = tuple(
        IssueSpec(
            issue_id=spec.issue_id,
            weight=spec.weight / total,
            min_value=spec.min_value,
            max_value=spec.max_value,
            direction=spec.direction,
        )
        for spec in kept
    )
    return validate_agenda(Agenda(issues=rescaled, t_max=agenda.t_max, t_min=agenda.t_min))
