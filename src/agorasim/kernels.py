"""Negotiation kernels: the per-issue arithmetic of the deadline tactic.

Plain functions over floats and the callers' own tuples, kept apart from
`tactics.py` because `core.py` scores issues with them and `tactics.py`
imports `core.py`.

`time_fraction`, `offer_value`, `issue_score` and `concession_ratio` work on
one issue; `weighted_utility` works on a whole package; `piecewise_level`
and `threshold_crossing` work on a resource schedule. The package loops of
the negotiation (offer generation and utility in `tactics`, the belief's
mean ratio in `agent`, the watchdog's trail ratios in `marketplace`) do not
call the per-issue kernels or `weighted_utility`: each makes one pass over
an agenda's cached rows (`core.Agenda.rows`) or an offer trail and inlines
the same expressions. The kernels stay the single-issue API and the
reference those loops are tested against bit for bit.
"""

from __future__ import annotations

BACKEND = "python"


def time_fraction(t: float, t_max: float, k: float, beta: float) -> float:
    """Concession fraction f(t) = k + (1-k) * (min(t, t_max)/t_max)^(1/beta).

    A zero deadline means immediate full concession (returns 1.0). Result is
    clamped to [0, 1]; f(0) == k exactly and f(t_max) == 1 within rounding.
    """
    if t_max <= 0.0:
        return 1.0
    x = t if t < t_max else t_max
    if x < 0.0:
        x = 0.0
    f = k + (1.0 - k) * (x / t_max) ** (1.0 / beta)
    if f < 0.0:
        return 0.0
    if f > 1.0:
        return 1.0
    return f


def offer_value(vmin: float, vmax: float, f: float, ascending: bool) -> float:
    """Offered value at concession fraction f, clamped into [vmin, vmax]."""
    if ascending:
        v = vmin + f * (vmax - vmin)
    else:
        v = vmin + (1.0 - f) * (vmax - vmin)
    if v < vmin:
        return vmin
    if v > vmax:
        return vmax
    return v


def issue_score(vmin: float, vmax: float, offered: float, buyer: bool) -> float:
    """Normalized score in [0, 1]; buyer prefers low values, seller high."""
    if buyer:
        s = (vmax - offered) / (vmax - vmin)
    else:
        s = (offered - vmin) / (vmax - vmin)
    if s < 0.0:
        return 0.0
    if s > 1.0:
        return 1.0
    return s


def weighted_utility(specs, values, buyer: bool) -> float:
    """Weighted sum of per-issue scores, in spec order.

    `specs` are IssueSpecs; `values` maps each spec's issue id to the
    offered value, which the caller has checked against the spec's range.
    """
    total = 0.0
    for spec in specs:
        total += spec.weight * issue_score(
            spec.min_value, spec.max_value, values[spec.issue_id], buyer
        )
    if total < 0.0:
        return 0.0
    if total > 1.0:
        return 1.0
    return total


def concession_ratio(o_minus2: float, o_minus1: float, o_now: float) -> float:
    """Ratio of consecutive offer deltas; NaN when the previous step is flat."""
    denom = o_minus1 - o_minus2
    if denom == 0.0:
        return float("nan")
    return (o_now - o_minus1) / denom


def piecewise_level(points, t: float) -> float:
    """Evaluate (tick, level) breakpoints at t, held constant outside them.

    At a tick with several breakpoints (a vertical step) the level is the
    first one's; the last one's holds just after the tick.
    """
    x0, y0 = points[0]
    if t <= x0:
        return y0
    last_x, last_y = points[-1]
    if t > last_x:
        return last_y
    if t == last_x:
        for x, y in points:
            if x == last_x:
                return y
    for x1, y1 in points:  # t is past points[0], so its pass only re-reads it
        if t <= x1:
            if x1 == x0:
                return y1
            return y0 + (y1 - y0) * (t - x0) / (x1 - x0)
        x0, y0 = x1, y1
    return last_y


def threshold_crossing(points, threshold: float, t_max: float) -> float:
    """Earliest t in [0, t_max] where the level, or the level just after t,
    is at or below threshold.

    Returns t_max when the level stays above threshold for the whole window.
    Beyond the last breakpoint the level is held constant. Segments are
    linear, so the first crossing is at a breakpoint or inside a descending
    segment. At a tick with several breakpoints only the first (the level
    there) and the last (the level just after) count, so a zero-width dip is
    no crossing.
    """
    prev_t = 0.0
    prev_y = piecewise_level(points, 0.0)
    if prev_y <= threshold:
        return 0.0
    before = None  # tick of the previous breakpoint
    for x, y in points:
        if x == before:
            # A later breakpoint at one tick: the level just after the tick
            # is the last one's.
            if x >= 0.0:
                prev_y = y
            continue
        before = x
        if x <= 0.0:
            # The level at 0 stands for the first breakpoint there.
            continue
        if prev_y <= threshold:
            break
        if y <= threshold:
            cx = prev_t + (prev_y - threshold) * (x - prev_t) / (prev_y - y)
            return cx if cx < t_max else t_max
        prev_t = x
        prev_y = y
        if prev_t >= t_max:
            return t_max
    if prev_y <= threshold:
        return prev_t if prev_t < t_max else t_max
    return t_max
