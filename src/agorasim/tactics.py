"""Negotiation mathematics: utilities, concession curves, response rule.

Everything here is a pure function over immutable inputs.
`generate_offer_value`, `time_function` and `issue_beta` work on one issue
and delegate to `kernels`. `generate_offer_package` and `aggregate_utility`
work on a whole package: each makes one pass over the agenda's cached rows
(`Agenda.rows`) and inlines the kernels' arithmetic by the same expressions,
so every value equals the per-issue functions' bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional

from . import kernels
from .core import (
    IssueSpec,
    MissingIssueError,
    NegotiationMessage,
    OfferPackage,
    Perspective,
    Direction,
    ValidatedAgenda,
    check_in_range,
)

BETA_MIN = 0.05
BETA_MAX = 20.0

#: Half-width of the "linear" band around a concession ratio of 1.
LAMBDA_BAND = 0.05

#: Exponent applied against a detected headstrong opponent: concede to close.
HEADSTRONG_COUNTER_BETA = 5.0

#: Opponent offers needed before the concession ratio becomes observable.
ADAPTATION_ROUND = 3


class Stance(Enum):
    HEADSTRONG = "headstrong"
    LINEAR = "linear"
    CONCEDER = "conceder"


#: Default concession exponent per stance; a decade of spread keeps the
#: trajectories visibly distinct at desk scale.
STANCE_BETA = {
    Stance.HEADSTRONG: 0.2,
    Stance.LINEAR: 1.0,
    Stance.CONCEDER: 5.0,
}


def clamp_beta(beta: float) -> float:
    return min(BETA_MAX, max(BETA_MIN, beta))


@dataclass(frozen=True)
class TacticParams:
    """Concession-curve parameters: opening fraction k and exponent beta."""

    k: float = 0.0
    beta: float = 1.0
    stance: Stance = Stance.LINEAR


@dataclass(frozen=True)
class ResourceProjection:
    """Projected resource level over virtual time as a piecewise-linear curve.

    `points` are (tick, level) breakpoints with levels in [0, 1]; outside the
    breakpoint span the level is held constant. `r_threshold` is the depletion
    level below which the agent must have concluded its negotiations.
    """

    points: tuple[tuple[float, float], ...] = ((0.0, 1.0),)
    r_threshold: float = 0.1

    def level_at(self, t: float) -> float:
        return kernels.piecewise_level(self.points, t)

    def shifted(self, offset: float) -> "ResourceProjection":
        """View of the projection in session-relative time (t=0 at offset)."""
        pts = tuple((x - offset, y) for x, y in self.points)
        return ResourceProjection(points=pts, r_threshold=self.r_threshold)


class ResponseKind(Enum):
    ACQUIRE = "acquire"
    TERMINATE = "terminate"
    COUNTER = "counter"


# Bound once for the per-message path: on CPython 3.11 reading a member off
# its Enum class takes about 120 ns, reading a module global about 15.
_BUYER = Perspective.BUYER
_RESPONSE_ACQUIRE = ResponseKind.ACQUIRE
_RESPONSE_COUNTER = ResponseKind.COUNTER


class Response(NamedTuple):
    """Outcome of evaluating an incoming offer: accept it, quit, or counter."""

    kind: ResponseKind
    package: Optional[OfferPackage] = None


def aggregate_utility(
    agenda: ValidatedAgenda, package: OfferPackage, perspective: Perspective
) -> float:
    """Weighted utility of a package: sum of issue scores times weights.

    Raises MissingIssueError when the package does not cover the agenda and
    OutOfRangeError when any value falls outside its issue's range.
    """
    values = package.values
    buyer = perspective is _BUYER
    # kernels.weighted_utility over kernels.issue_score, in one pass that
    # checks each value before scoring it.
    total = 0.0
    for issue_id, weight, vmin, vmax, _, _ in agenda.rows():
        offered = values.get(issue_id)
        if offered is None or not vmin <= offered <= vmax:
            # Raise what the checks raise: MissingIssueError or OutOfRangeError.
            check_in_range(agenda.issue(issue_id), package.value(issue_id))
        if buyer:
            s = (vmax - offered) / (vmax - vmin)
        else:
            s = (offered - vmin) / (vmax - vmin)
        if s < 0.0:
            s = 0.0
        elif s > 1.0:
            s = 1.0
        total += weight * s
    if total < 0.0:
        return 0.0
    if total > 1.0:
        return 1.0
    return total


def time_function(t: float, t_max: float, params: TacticParams) -> float:
    """Concession fraction f(t) = k + (1-k) * (min(t, t_max)/t_max)^(1/beta).

    Monotone non-decreasing with f(0) = k and f(t_max) = 1; a zero deadline
    yields 1.0 (immediate full concession) rather than an error.
    """
    return kernels.time_fraction(t, t_max, params.k, params.beta)


def generate_offer_value(
    spec: IssueSpec, t: float, t_max_eff: float, params: TacticParams
) -> float:
    """Offered value for one issue at time t under the concession curve.

    Ascending issues move min -> max as f(t) grows; descending issues move
    max -> min. The result always lands inside [min, max].
    """
    f = time_function(t, t_max_eff, params)
    return kernels.offer_value(
        spec.min_value, spec.max_value, f, spec.direction is Direction.ASCENDING
    )


def issue_beta(base_beta: float, weight: float, n_issues: int) -> float:
    """Per-issue exponent: below-average-weight issues concede faster."""
    return clamp_beta(base_beta * (1.0 / (n_issues * weight)))


def generate_offer_package(
    agenda: ValidatedAgenda, t: float, t_max_eff: float, params: TacticParams
) -> OfferPackage:
    """Full package at time t, conceding low-weight issues first.

    Each value is generate_offer_value's for the issue under its own
    exponent, issue_beta: one pass over the agenda's rows inlines issue_beta,
    kernels.time_fraction and kernels.offer_value by the same expressions.
    """
    k = params.k
    base_beta = params.beta
    if t_max_eff <= 0.0:
        # A zero deadline concedes in full. With k = 1 and nothing elapsed the
        # curve below is 1 + 0 * 0 ** (1 / beta), exactly 1.0 for every beta.
        k = 1.0
        elapsed = 0.0
    else:
        x = t if t < t_max_eff else t_max_eff
        if x < 0.0:
            x = 0.0
        elapsed = x / t_max_eff
    values: dict[str, float] = {}
    for issue_id, _, vmin, vmax, ascending, share in agenda.rows():
        beta = min(BETA_MAX, max(BETA_MIN, base_beta * share))
        f = k + (1.0 - k) * elapsed ** (1.0 / beta)
        if f < 0.0:
            f = 0.0
        elif f > 1.0:
            f = 1.0
        if ascending:
            v = vmin + f * (vmax - vmin)
        else:
            v = vmin + (1.0 - f) * (vmax - vmin)
        if v < vmin:
            v = vmin
        elif v > vmax:
            v = vmax
        values[issue_id] = v
    return OfferPackage(values)


def concession_rate(o_minus2: float, o_minus1: float, o_now: float) -> Optional[float]:
    """Ratio of the latest offer delta to the previous one (oldest first).

    Returns None when the previous step was flat (undefined ratio); callers
    treat that as the linear fixed point, i.e. a ratio of 1.
    """
    ratio = kernels.concession_ratio(o_minus2, o_minus1, o_now)
    if math.isnan(ratio):
        return None
    return ratio


def adapt_tactic(params: TacticParams, lam: float, round: int) -> TacticParams:
    """Adjust tactic from the opponent's observed concession ratio.

    Nothing changes before the third opponent offer. From then on: a ratio
    above the linear band means a conceding opponent, which the agent
    imitates (beta := clamped ratio); a ratio below it means a headstrong
    opponent, answered with a fixed conceding exponent to close quickly;
    inside the band the tactic is left alone.
    """
    if round < ADAPTATION_ROUND:
        return params
    if lam > 1.0 + LAMBDA_BAND:
        return TacticParams(k=params.k, beta=clamp_beta(lam), stance=Stance.CONCEDER)
    if lam < 1.0 - LAMBDA_BAND:
        return TacticParams(
            k=params.k, beta=HEADSTRONG_COUNTER_BETA, stance=Stance.CONCEDER
        )
    return params


def classify_concession(value: float, band: float = LAMBDA_BAND) -> Stance:
    """Classify a concession ratio or behavior norm against the linear band."""
    if value < 1.0 - band:
        return Stance.HEADSTRONG
    if value > 1.0 + band:
        return Stance.CONCEDER
    return Stance.LINEAR


def effective_deadline(t_max: float, projection: ResourceProjection) -> float:
    """Hybrid deadline: the earlier of t_max and resource depletion.

    Depletion is the first time the projected level reaches r_threshold; a
    schedule that starts depleted yields 0.
    """
    return kernels.threshold_crossing(
        projection.points, projection.r_threshold, t_max
    )


def decide_response(
    agenda: ValidatedAgenda,
    perspective: Perspective,
    incoming: NegotiationMessage,
    planned_counter: OfferPackage,
    t_max_eff: float,
) -> Response:
    """Three-way response rule for an incoming offer.

    Terminate when the offer arrived past the effective deadline; acquire it
    when the planned counter is worth no more than the offer on the table;
    otherwise send the counter.
    """
    if incoming.sent_at > t_max_eff:
        return Response(ResponseKind.TERMINATE)
    if incoming.package is None:
        raise MissingIssueError("incoming message carries no offer package")
    mine = aggregate_utility(agenda, planned_counter, perspective)
    theirs = aggregate_utility(agenda, incoming.package, perspective)
    if mine <= theirs:
        return Response(_RESPONSE_ACQUIRE, incoming.package)
    return Response(_RESPONSE_COUNTER, planned_counter)
