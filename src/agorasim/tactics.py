"""Negotiation mathematics: utilities, concession curves, response rule.

Everything here is a pure function over immutable inputs, apart from the
caches an `Agenda` keeps for them. `generate_offer_value`, `time_function`
and `issue_beta` work on one issue and delegate to `kernels`.
`generate_offer_package`, `aggregate_utility` and `decide_response` work on
a whole package: each makes one pass over the agenda's cached rows and
inlines the kernels' arithmetic by the same expressions, so every value
equals the per-issue functions' bit for bit.

The concession exponent 1 / issue_beta of each issue depends only on the
base β, which changes only when the tactic adapts. `concession_rows` keeps
each row with its exponent for the last base β asked for, in one slot on
the agenda. `decide_response` builds the counter from those rows and
scores it and the incoming offer in the same pass, so an answer to an offer
needs neither `generate_offer_package` nor `aggregate_utility`. The rule
is two-way, acquire or counter: the agent's step enforces the deadline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Optional

from . import kernels
from .core import (
    ConcessionRow,
    IssueSpec,
    MissingIssueError,
    NegotiationMessage,
    OfferPackage,
    Perspective,
    Direction,
    ValidatedAgenda,
    check_in_range,
    new_record,
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

    `never_pressed` holds when every breakpoint has one level and that level
    is above `r_threshold`. Then `level_at` is never at or below the
    threshold, at any tick: kernels.piecewise_level returns a breakpoint's
    level or y0 + (y1 - y0) * r with y1 = y0, which is the level exactly, or
    NaN where the level or r is not finite. So `pressed_at` skips
    `level_at` for such a projection. Two or more levels are evaluated,
    because interpolation between them can round below the lower one; a
    level equal to the threshold, or NaN, is not above it.
    """

    points: tuple[tuple[float, float], ...] = ((0.0, 1.0),)
    r_threshold: float = 0.1

    @cached_property
    def never_pressed(self) -> bool:
        """Whether every breakpoint has one level, above r_threshold; worked
        out on first use, so a projection never asked costs nothing."""
        levels = {y for _, y in self.points}
        return len(levels) == 1 and levels.pop() > self.r_threshold

    def level_at(self, t: float) -> float:
        return kernels.piecewise_level(self.points, t)

    def pressed_at(self, t: float) -> bool:
        """Whether the level at t is at or below r_threshold."""
        return not self.never_pressed and self.level_at(t) <= self.r_threshold

    def shifted(self, offset: float) -> "ResourceProjection":
        """View of the projection in session-relative time (t=0 at offset)."""
        pts = tuple((x - offset, y) for x, y in self.points)
        return ResourceProjection(points=pts, r_threshold=self.r_threshold)


class ResponseKind(Enum):
    """The two answers to a screened offer: take it or counter it."""

    ACQUIRE = "acquire"
    COUNTER = "counter"


# Bound once for the per-message path: on CPython 3.11 reading a member off
# its Enum class takes about 120 ns, reading a module global about 15.
_BUYER = Perspective.BUYER
_RESPONSE_ACQUIRE = ResponseKind.ACQUIRE
_RESPONSE_COUNTER = ResponseKind.COUNTER


class Response(NamedTuple):
    """Outcome of evaluating an incoming offer: acquire it or counter it."""

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


def concession_rows(
    agenda: ValidatedAgenda, base_beta: float
) -> tuple[ConcessionRow, ...]:
    """The agenda's rows, each with its issue's concession exponent under
    `base_beta`: 1 / issue_beta(base_beta, weight, n), by the same expression.

    The exponent changes only when the tactic adapts, so the agenda keeps the
    rows of the last base beta asked for in one slot; a call for another beta
    replaces them.
    """
    slot = agenda._concession
    if slot is not None and slot[0] == base_beta:
        return slot[1]
    rows = tuple(
        (
            issue_id, weight, vmin, vmax, ascending,
            1.0 / min(BETA_MAX, max(BETA_MIN, base_beta * share)),
        )
        for issue_id, weight, vmin, vmax, ascending, share in agenda.rows()
    )
    object.__setattr__(agenda, "_concession", (base_beta, rows))
    return rows


def _curve_start(t: float, t_max_eff: float, k: float) -> tuple[float, float]:
    """(k, elapsed share of the deadline) as the package loops read them:
    kernels.time_fraction's clamp of t to [0, t_max_eff], over t_max_eff."""
    if t_max_eff <= 0.0:
        # A zero deadline concedes in full. With k = 1 and nothing elapsed the
        # curve is 1 + 0 * 0 ** (1 / beta), exactly 1.0 for every beta.
        return 1.0, 0.0
    x = t if t < t_max_eff else t_max_eff
    if x < 0.0:
        x = 0.0
    return k, x / t_max_eff


def generate_offer_package(
    agenda: ValidatedAgenda, t: float, t_max_eff: float, params: TacticParams
) -> OfferPackage:
    """Full package at time t, conceding low-weight issues first.

    Each value is generate_offer_value's for the issue under its own
    exponent, issue_beta: one pass over concession_rows inlines
    kernels.time_fraction and kernels.offer_value by the same expressions.
    """
    k, elapsed = _curve_start(t, t_max_eff, params.k)
    values: dict[str, float] = {}
    for issue_id, _, vmin, vmax, ascending, exponent in concession_rows(agenda, params.beta):
        f = k + (1.0 - k) * elapsed ** exponent
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
    return new_record(OfferPackage, (values,))


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
    t: float,
    t_max_eff: float,
    params: TacticParams,
) -> Response:
    """Two-way response rule for an offer that has passed the proxy filter.

    Acquire the offer when the counter, generate_offer_package(agenda, t,
    t_max_eff, params), is worth no more than the offer on the table;
    otherwise send that counter. The rule reads no send time: the agent's
    deadline sweep ends a session before any of its mail is read.

    One pass over concession_rows generates each counter value and scores it
    and the incoming value by aggregate_utility's expressions, summed left to
    right, so both utilities equal aggregate_utility's bit for bit. The
    counter's package is built only when it is sent. A value that
    aggregate_utility refuses (missing, NaN or out of range) raises what it
    raises: MissingIssueError or OutOfRangeError.
    """
    package = incoming.package
    if package is None:
        raise MissingIssueError("incoming message carries no offer package")
    offered_values = package.values
    buyer = perspective is _BUYER
    k, elapsed = _curve_start(t, t_max_eff, params.k)
    base_beta = params.beta
    # concession_rows, its slot read in place.
    slot = agenda._concession
    rows = (
        slot[1] if slot is not None and slot[0] == base_beta
        else concession_rows(agenda, base_beta)
    )
    values: dict[str, float] = {}
    mine = 0.0
    theirs = 0.0
    for issue_id, weight, vmin, vmax, ascending, exponent in rows:
        offered = offered_values.get(issue_id)
        if offered is None or not vmin <= offered <= vmax:
            check_in_range(agenda.issue(issue_id), package.value(issue_id))
        f = k + (1.0 - k) * elapsed ** exponent
        if f < 0.0:
            f = 0.0
        elif f > 1.0:
            f = 1.0
        width = vmax - vmin
        if ascending:
            v = vmin + f * width
        else:
            v = vmin + (1.0 - f) * width
        if v < vmin:
            v = vmin
        elif v > vmax:
            v = vmax
        values[issue_id] = v
        # aggregate_utility's scores without its clamp to [0, 1], which
        # changes nothing here: v and offered lie in [vmin, vmax] (or v is
        # NaN), and rounding is monotone, so each difference lies in
        # [0, width] and each quotient in [0, 1].
        if buyer:
            s = (vmax - v) / width
            o = (vmax - offered) / width
        else:
            s = (v - vmin) / width
            o = (offered - vmin) / width
        mine += weight * s
        theirs += weight * o
    if mine < 0.0:
        mine = 0.0
    elif mine > 1.0:
        mine = 1.0
    if theirs < 0.0:
        theirs = 0.0
    elif theirs > 1.0:
        theirs = 1.0
    if mine <= theirs:
        return new_record(Response, (_RESPONSE_ACQUIRE, package))
    return new_record(Response, (_RESPONSE_COUNTER, new_record(OfferPackage, (values,))))
