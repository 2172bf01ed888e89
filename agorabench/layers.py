"""Which public functions the traced run wraps, and the per-layer metrics.

Layers are the package modules: simulation (load, tick loop, quiescence
probe), marketplace (posting, matchmaking, delivery, routing, trust
watchdog), agent, tactics, kernels, plus output emission.

A layer's `_s` metric is its self time: the time inside its spans minus the
time in spans of other layers nested in them (so `marketplace.route_s`
excludes the trust pass that routing triggers). A sub-span of the same layer
is part of the layer and is also reported on its own: `marketplace.norm_s`
is inside `marketplace.trust_s`, `simulation.yaml_s` inside
`simulation.load_s`. Kernel functions are only counted: timing a call that
short would measure the wrapper.
"""

from __future__ import annotations

from typing import Any, Callable

from tracer import Patcher, Target, Tracer

_MARKET = "agorasim.marketplace:Marketplace"
_REPO = "agorasim.marketplace:AdvertisementRepository"

KERNELS = (
    "time_fraction",
    "offer_value",
    "issue_score",
    "weighted_utility",
    "concession_ratio",
    "piecewise_level",
    "threshold_crossing",
)
REJECT_REASONS = ("unknown-session", "deadline-exceeded", "out-of-space", "stale-round")

# Span name -> functions timed under it. Emission spans also wrap the
# benchmark's own writes.
TIMED: dict[str, tuple[Target, ...]] = {
    "simulation.load": (("agorasim.simulation", "load_scenario"),),
    "simulation.yaml": (("yaml", "safe_load"), ("yaml", "load")),
    "simulation.states": (("agorasim.simulation", "build_agent_states"),),
    "simulation.run": (("agorasim.simulation", "run_simulation_with_market"),),
    "marketplace.post": ((_REPO, "submit_advertisement"), (_REPO, "submit_rfq")),
    "marketplace.match": ((_MARKET, "run_matchmaking"),),
    "marketplace.probe": ((_MARKET, "prospective_matches"),),
    "marketplace.deliver": ((_MARKET, "due_messages"),),
    "marketplace.route": ((_MARKET, "route_message"),),
    "marketplace.trust": ((_MARKET, "recompute_trust"),),
    "marketplace.norm": (("agorasim.marketplace", "compute_behavior_norm"),),
    "agent.step": (("agorasim.simulation", "agent_step"),),
    "tactics.offer": (("agorasim.agent", "generate_offer_package"),),
    "tactics.decide": (("agorasim.agent", "decide_response"),),
    "tactics.utility": (
        ("agorasim.agent", "aggregate_utility"),
        ("agorasim.tactics", "aggregate_utility"),
        ("agorasim.simulation", "aggregate_utility"),
    ),
    "tactics.deadline": (("agorasim.agent", "effective_deadline"),),
    "emit.transcript": ((_MARKET, "transcript_lines"),),
}

# Counter name -> functions counted under it.
COUNTED: dict[str, tuple[Target, ...]] = {
    "marketplace.match_alliances": (("agorasim.marketplace", "match_alliances"),),
    "agent.filter": (("agorasim.agent", "proxy_filter"),),
    **{f"kernels.{fn}": (("agorasim.kernels", fn),) for fn in KERNELS},
}


def _idle(counts: Any) -> Callable[[tuple], None]:
    def before(args: tuple) -> None:
        state, inbox = args[0], args[1]
        if not inbox and not getattr(state, "agenda_db", ()):
            counts["agent.idle"] += 1

    return before


def _violations(counts: Any) -> Callable[[Any], None]:
    def after(result: Any) -> None:
        counts["marketplace.violations"] += len(getattr(result, "violations", ()))

    return after


def _empty_match(counts: Any) -> Callable[[Any], None]:
    def after(result: Any) -> None:
        if not result:
            counts["marketplace.match_empty"] += 1

    return after


def _reject(counts: Any) -> Callable[[Any], None]:
    def after(verdict: Any) -> None:
        if not getattr(verdict, "ok", True):
            reason = getattr(verdict.reason, "value", str(verdict.reason))
            counts[f"agent.reject.{reason}"] += 1

    return after


def install(tracer: Tracer, patcher: Patcher) -> set[str]:
    """Wrap every target; returns the span and counter names left absent."""
    counts = tracer.counts
    hooks: dict[str, dict] = {
        "agent.step": {"before": _idle(counts)},
        "marketplace.route": {"after": _violations(counts)},
        "marketplace.match_alliances": {"after": _empty_match(counts)},
        "agent.filter": {"after": _reject(counts)},
    }
    absent = set()
    for table, factory in ((TIMED, tracer.timed), (COUNTED, tracer.counted)):
        for name, targets in table.items():
            make = factory(name, **hooks.get(name, {}))
            wrapped = [patcher.wrap(target, make) for target in targets]
            if not any(wrapped):
                absent.add(name)
    return absent


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _metric_table() -> list[tuple[str, str, tuple[str, ...], Callable[[Tracer], float]]]:
    """(metric, unit, sources, value) rows; sources name TIMED/COUNTED keys."""
    c = lambda t, name: t.counts.get(name, 0)  # noqa: E731
    rows = [
        ("marketplace.trust_s", "s", ("marketplace.trust", "marketplace.norm"),
         lambda t: t.self_time("marketplace.trust") + t.self_time("marketplace.norm")),
        ("marketplace.trust_calls", "count", ("marketplace.trust",),
         lambda t: t.calls("marketplace.trust")),
        ("marketplace.norm_calls", "count", ("marketplace.norm",),
         lambda t: t.calls("marketplace.norm")),
        ("marketplace.norm_s", "s", ("marketplace.norm",),
         lambda t: t.total("marketplace.norm")),
        ("marketplace.match_s", "s", ("marketplace.match",),
         lambda t: t.self_time("marketplace.match")),
        ("marketplace.match_calls", "count", ("marketplace.match_alliances",),
         lambda t: c(t, "marketplace.match_alliances")),
        ("marketplace.probe_s", "s", ("marketplace.probe",),
         lambda t: t.self_time("marketplace.probe")),
        ("marketplace.probe_calls", "count", ("marketplace.probe",),
         lambda t: t.calls("marketplace.probe")),
        ("marketplace.match_empty_share", "share", ("marketplace.match_alliances",),
         lambda t: _share(c(t, "marketplace.match_empty"), c(t, "marketplace.match_alliances"))),
        ("marketplace.post_s", "s", ("marketplace.post",),
         lambda t: t.self_time("marketplace.post")),
        ("marketplace.post_calls", "count", ("marketplace.post",),
         lambda t: t.calls("marketplace.post")),
        ("marketplace.deliver_s", "s", ("marketplace.deliver",),
         lambda t: t.self_time("marketplace.deliver")),
        ("marketplace.deliver_calls", "count", ("marketplace.deliver",),
         lambda t: t.calls("marketplace.deliver")),
        ("marketplace.route_s", "s", ("marketplace.route",),
         lambda t: t.self_time("marketplace.route")),
        ("marketplace.routed", "count", ("marketplace.route",),
         lambda t: t.calls("marketplace.route")),
        ("marketplace.violations", "count", ("marketplace.route",),
         lambda t: c(t, "marketplace.violations")),
        ("agent.step_s", "s", ("agent.step",), lambda t: t.self_time("agent.step")),
        ("agent.steps", "count", ("agent.step",), lambda t: t.calls("agent.step")),
        ("agent.idle_step_share", "share", ("agent.step",),
         lambda t: _share(c(t, "agent.idle"), t.calls("agent.step"))),
    ]
    for reason in REJECT_REASONS:
        key = f"agent.reject.{reason}"
        rows.append((key, "count", ("agent.filter",), lambda t, k=key: c(t, k)))
    for short in ("offer", "decide", "utility", "deadline"):
        span = f"tactics.{short}"
        rows.append((f"{span}_s", "s", (span,), lambda t, s=span: t.self_time(s)))
        rows.append((f"{span}_calls", "count", (span,), lambda t, s=span: t.calls(s)))
    for fn in KERNELS:
        key = f"kernels.{fn}"
        rows.append((f"{key}.calls", "count", (key,), lambda t, k=key: c(t, k)))
    rows += [
        ("simulation.load_s", "s", ("simulation.load",),
         lambda t: t.total("simulation.load")),
        ("simulation.yaml_s", "s", ("simulation.yaml",),
         lambda t: t.total("simulation.yaml")),
        ("simulation.states_s", "s", ("simulation.states",),
         lambda t: t.total("simulation.states")),
        ("simulation.loop_s", "s", ("simulation.run",),
         lambda t: t.self_time("simulation.run")),
        ("emit.transcript_s", "s", (), lambda t: t.self_time("emit.transcript")),
        ("emit.report_s", "s", (), lambda t: t.self_time("emit.report")),
        ("emit.trust_s", "s", (), lambda t: t.self_time("emit.trust")),
    ]
    return rows


METRIC_TABLE = _metric_table()
METRICS: dict[str, str] = {name: unit for name, unit, _, _ in METRIC_TABLE}


def metrics(tracer: Tracer, absent: set[str]) -> tuple[dict[str, float], list[str]]:
    """Per-layer values from one traced run, and the metrics whose layer is gone.

    An absent layer reads 0 so that every metric is always reported.
    """
    values: dict[str, float] = {}
    missing = []
    for name, _, sources, value in METRIC_TABLE:
        if sources and all(s in absent for s in sources):
            values[name] = 0.0
            missing.append(name)
        else:
            values[name] = float(value(tracer))
    return values, missing
