"""Shared domain types: issues, agendas, offer packages, protocol messages.

All types are immutable values; agents and the marketplace exchange them
without copying or locking. Invariants are enforced by validate_agenda rather
than in constructors so tests can build deliberately broken agendas. One
exception: an `Agenda` caches its restrictions (see restrict_agenda) and its
issue rows (`Agenda.rows`, built on first use), and both caches are excluded
from equality, hash and repr.

`issue_score` and `check_in_range` work on one issue. The package-level
functions in `tactics` (offer generation and utility) make one pass over an
agenda's rows and inline the per-issue arithmetic.

The records built once per message, `OfferPackage` and `NegotiationMessage`
(and `tactics.Response`), are `typing.NamedTuple`s. Their fields are read by
name and cannot be assigned. Being tuples, they also compare equal to a plain
tuple of the same fields and can be unpacked, and a modified copy is made
with `_replace`, not `dataclasses.replace`.

On the per-message path (`agent._emit`, `agent._jittered`,
`Marketplace.commence_negotiation`, `tactics.generate_offer_package` and
`tactics.decide_response`) a record is built by one C call,
`new_record(Cls, (every field, ...))`, `new_record` being `tuple.__new__`.
Calling the class instead runs the `__new__` that NamedTuple generates in
Python, a frame per record. The C call fills no defaults, so these builders
pass every field, `None` ones included; the tests check that each record has
as many items as its type has fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple, Optional

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


#: One issue as the package loops read it: id, weight, min, max, whether
#: offers ascend as the party concedes, and 1 / (n * weight) for n issues
#: (the factor of tactics.issue_beta).
IssueRow = tuple[IssueId, float, float, float, bool, float]


@dataclass(frozen=True)
class Agenda:
    """Weighted issue set plus the negotiation time window in virtual ticks."""

    issues: tuple[IssueSpec, ...]
    t_max: int
    # restrict_agenda's results by issue set; None until the first one.
    _restricted: Optional[dict[frozenset[IssueId], Agenda]] = field(
        default=None, init=False, repr=False, compare=False
    )
    # rows()'s result; None until the first call.
    _rows: Optional[tuple[IssueRow, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def rows(self) -> tuple[IssueRow, ...]:
        """Each issue as an IssueRow, in issue order, built on the first call.

        Every weight must be nonzero, as validate_agenda ensures.
        """
        rows = self._rows
        if rows is None:
            n = len(self.issues)
            rows = tuple(
                (
                    spec.issue_id,
                    spec.weight,
                    spec.min_value,
                    spec.max_value,
                    spec.direction is Direction.ASCENDING,
                    1.0 / (n * spec.weight),
                )
                for spec in self.issues
            )
            object.__setattr__(self, "_rows", rows)
        return rows

    def issue_ids(self) -> tuple[IssueId, ...]:
        return tuple(spec.issue_id for spec in self.issues)

    def issue(self, issue_id: IssueId) -> IssueSpec:
        for spec in self.issues:
            if spec.issue_id == issue_id:
                return spec
        raise MissingIssueError(issue_id)


#: An Agenda that has passed validate_agenda. Alias kept for signatures.
ValidatedAgenda = Agenda


class OfferPackage(NamedTuple):
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


class NegotiationMessage(NamedTuple):
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


#: Builds a NamedTuple record from a tuple of every field in one C call.
new_record = tuple.__new__


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
    if agenda.t_max < 0:
        raise BadDeadlineError(f"deadline t_max {agenda.t_max} is negative")
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
    """Restrict an agenda to a shared issue subset, renormalizing weights.

    The validated result is kept on `agenda`, so a later call for the same
    issue set, in any order or with repeats, returns the same object.
    """
    wanted = frozenset(issue_ids)
    memo = agenda._restricted
    if memo is None:
        memo = {}
        object.__setattr__(agenda, "_restricted", memo)
    restricted = memo.get(wanted)
    if restricted is not None:
        return restricted
    kept = [spec for spec in agenda.issues if spec.issue_id in wanted]
    if not kept:
        raise EmptyAgendaError("restriction removed every issue")
    total = sum(spec.weight for spec in kept)
    rescaled = tuple(replace(spec, weight=spec.weight / total) for spec in kept)
    memo[wanted] = restricted = validate_agenda(Agenda(issues=rescaled, t_max=agenda.t_max))
    return restricted
