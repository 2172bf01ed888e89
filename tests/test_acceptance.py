"""Acceptance suite: one test per release criterion, at stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.
"""

import json
import random
import time
from pathlib import Path

import pytest

from agorasim.agent import agent_step
from agorasim.core import Direction, OfferPackage, Perspective, issue_score
from agorasim.marketplace import (
    AdvertisementRepository,
    Marketplace,
    compute_behavior_norm,
    match_alliances,
    ranges_overlap,
)
from agorasim.simulation import emit_report, load_scenario, run_simulation
from agorasim.tactics import (
    ResourceProjection,
    Stance,
    TacticParams,
    aggregate_utility,
    classify_concession,
    concession_rate,
    effective_deadline,
    generate_offer_value,
    time_function,
)
from conftest import (
    BILATERAL_SCENARIO,
    DISJOINT_SCENARIO,
    make_agenda,
    make_agent,
    make_entry,
    make_issue,
    make_offer,
)

SCENARIOS_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def passed(criterion: int, label: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS: {label}")


def test_c01_time_function_constraint_suite():
    rng = random.Random(20240601)
    t_max = 53.0
    started = time.perf_counter()
    for beta in (0.05, 0.2, 1.0, 5.0, 20.0):
        for k in (0.0, 0.3, 0.9):
            params = TacticParams(k=k, beta=beta)
            assert time_function(0.0, t_max, params) == k  # exact
            assert abs(time_function(t_max, t_max, params) - 1.0) <= 1e-12
            ts = sorted(rng.uniform(0.0, t_max) for _ in range(1000))
            previous = 0.0
            for t in ts:
                f = time_function(t, t_max, params)
                assert 0.0 <= f <= 1.0
                assert f >= previous
                previous = f
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"constraint sweep took {elapsed:.3f}s"
    passed(1, "concession curve satisfies bounds/anchors/monotonicity")


def test_c02_concession_rate_oracle():
    rng = random.Random(20240602)
    for _ in range(10_000):
        start = rng.uniform(-1000.0, 1000.0)
        d1 = rng.uniform(0.01, 50.0)
        d2 = rng.uniform(0.01, 50.0)
        sign = rng.choice((1.0, -1.0))
        o0, o1, o2 = start, start + sign * d1, start + sign * (d1 + d2)
        got = concession_rate(o0, o1, o2)
        expected = (o2 - o1) / (o1 - o0)
        assert got == pytest.approx(expected, abs=1e-12)
    for _ in range(2_000):
        start = float(rng.randint(-10**6, 10**6))
        step = float(rng.randint(1, 10**3) * rng.choice((1, -1)))
        assert concession_rate(start, start + step, start + 2 * step) == 1.0
    passed(2, "concession ratio matches direct arithmetic; progressions give 1")


def test_c03_aggregate_utility_oracle():
    rng = random.Random(20240603)
    for _ in range(1000):
        n = rng.randint(1, 8)
        raw = [rng.uniform(0.05, 1.0) for _ in range(n)]
        total = sum(raw)
        issues = []
        values = {}
        for i in range(n):
            lo = rng.uniform(-100.0, 100.0)
            hi = lo + rng.uniform(0.1, 150.0)
            spec = make_issue(f"i{i}", weight=raw[i] / total, lo=lo, hi=hi)
            issues.append(spec)
            values[spec.issue_id] = rng.uniform(lo, hi)
        agenda = make_agenda(*issues)
        package = OfferPackage(values=values)
        buyer_u = aggregate_utility(agenda, package, Perspective.BUYER)
        seller_u = aggregate_utility(agenda, package, Perspective.SELLER)
        oracle = sum(
            spec.weight * issue_score(spec, values[spec.issue_id], Perspective.BUYER)
            for spec in issues
        )
        assert buyer_u == pytest.approx(oracle, abs=1e-12)
        assert buyer_u + seller_u == pytest.approx(1.0, abs=1e-9)
    passed(3, "aggregate utility equals per-issue oracle; perspectives sum to 1")


def test_c04_response_protocol_end_to_end():
    started = time.perf_counter()
    scenario = load_scenario(BILATERAL_SCENARIO)
    lines, report = run_simulation(scenario)
    assert len(report.sessions) == 1
    session = report.sessions[0]
    assert session.outcome == "agreed"
    assert session.closed_at < 20
    acquires = [json.loads(l) for l in lines if json.loads(l)["kind"] == "acquire"]
    assert len(acquires) == 1
    assert 10.0 <= acquires[0]["values"]["price"] <= 20.0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"agreement case took {elapsed:.3f}s"

    started = time.perf_counter()
    lines, report = run_simulation(load_scenario(DISJOINT_SCENARIO))
    assert report.sessions[0].outcome == "terminated"
    records = [json.loads(l) for l in lines]
    commence_tick = min(r["tick"] for r in records)
    join_tick = commence_tick + 1  # one-tick transport from the marketplace
    deadline_tick = join_tick + 20
    terminates = [r for r in records if r["kind"] == "terminate"]
    assert len(terminates) == 1
    assert terminates[0]["tick"] == deadline_tick + 1
    for r in records:
        if r["kind"] != "terminate":
            assert r["tick"] <= deadline_tick
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"termination case took {elapsed:.3f}s"
    passed(4, "agreement inside the window; disjoint zones terminate first-late")


def _scripted_buyer():
    agent = make_agent(tactic=TacticParams(k=0.0, beta=1.0, stance=Stance.LINEAR))
    agent.declared_agendas["vm"] = make_agenda(t_max=20)
    agent.agenda_db.add(make_entry(t0=0, t_max_eff=20.0))
    return agent


def _feed_offers(agent, values):
    for i, value in enumerate(values):
        if "s-1" not in agent.agenda_db:
            break
        agent_step(
            agent,
            [make_offer(values={"price": value}, round=i, sent_at=i + 1)],
            now=i + 1,
        )
    return agent


def test_c05_tactic_adaptation():
    # headstrong opponent: deltas halve (ratio 0.5) -> counter-concede
    agent = _feed_offers(_scripted_buyer(), [18.0, 17.0, 16.5])
    assert agent.tactic.stance is Stance.CONCEDER
    assert agent.tactic.beta == 5.0

    # conceding opponent: deltas double (ratio 2) -> imitation at beta = 2
    agent = _feed_offers(_scripted_buyer(), [18.0, 17.5, 16.5])
    assert agent.tactic.stance is Stance.CONCEDER
    assert agent.tactic.beta == pytest.approx(2.0, abs=1e-9)

    # linear opponent: tactic untouched through round 10
    agent = _scripted_buyer()
    initial = agent.tactic
    values = [20.0 - 0.25 * (i + 1) for i in range(10)]
    agent = _feed_offers(agent, values)
    assert "s-1" in agent.agenda_db  # never acquired or terminated
    assert agent.tactic == initial
    passed(5, "adaptation imitates conceders, counters headstrong, holds linear")


def test_c06_hybrid_effective_deadline():
    projection = ResourceProjection(points=((0.0, 1.0), (10.0, 0.0)), r_threshold=0.2)
    deadline = effective_deadline(20, projection)
    assert deadline == pytest.approx(8.0, abs=1e-12)
    params = TacticParams(k=0.3, beta=1.0)
    for direction, boundary in (
        (Direction.ASCENDING, 20.0),
        (Direction.DESCENDING, 10.0),
    ):
        spec = make_issue(direction=direction)
        offer = generate_offer_value(spec, 8.0, deadline, params)
        assert offer == pytest.approx(boundary, abs=1e-9)
    assert time_function(8.0, deadline, params) == pytest.approx(1.0, abs=1e-12)
    passed(6, "resource depletion at t=8 forces full concession at tick 8")


def _random_market(rng):
    repo = AdvertisementRepository()
    market = Marketplace()
    market.repo = repo
    products = [f"p{i}" for i in range(rng.randint(1, 3))]
    issue_pool = ["price", "memory", "disk"]
    n_agents = rng.randint(2, 10)
    for i in range(n_agents):
        agent = f"a{i:02d}"
        role = rng.choice((Perspective.BUYER, Perspective.SELLER))
        repo.register_agent(agent, role)
        market.trust.record(agent).reputation = rng.choice((0.1, 0.3, 0.5, 0.7, 0.9))
        for product in products:
            chosen = rng.sample(issue_pool, rng.randint(1, 3))
            issues = tuple(
                make_issue(
                    iid,
                    weight=1.0 / len(chosen),
                    lo=(lo := rng.randint(0, 40)),
                    hi=lo + rng.randint(1, 30),
                )
                for iid in sorted(chosen)
            )
            repo.declare_agenda(agent, product, make_agenda(*issues))
    agents = repo.agents()
    for _ in range(rng.randint(0, 10)):
        repo.submit_advertisement(rng.choice(agents), rng.choice(products))
    for _ in range(rng.randint(0, 10)):
        agent = rng.choice(agents)
        product = rng.choice(products)
        agenda = repo.declared_agenda(agent, product)
        issue_ids = list(agenda.issue_ids())
        subset = rng.sample(issue_ids, rng.randint(1, len(issue_ids)))
        repo.submit_rfq(
            agent,
            product,
            issues=sorted(subset),
            min_reputation=rng.choice((0.0, 0.2, 0.4, 0.6, 0.8)),
        )
    return repo, market.trust


def _bruteforce_matches(repo, trust):
    expected = set()
    for rfq in repo.query_rfqs():
        rfq_agenda = repo.declared_agenda(rfq.agent, rfq.product)
        for ad in repo.query_advertisements():
            if ad.product != rfq.product:
                continue
            if repo.agent_role(ad.agent) is repo.agent_role(rfq.agent):
                continue
            ad_map = {r.issue_id: r for r in ad.issues}
            if not set(rfq.issues) <= set(ad_map):
                continue
            if trust.reputation(ad.agent) < rfq.min_reputation:
                continue
            if not all(
                ranges_overlap(
                    rfq_agenda.issue(i).min_value,
                    rfq_agenda.issue(i).max_value,
                    ad_map[i].min_value,
                    ad_map[i].max_value,
                )
                for i in rfq.issues
            ):
                continue
            expected.add((rfq.rfq_id, ad.ad_id))
    return expected


def test_c07_matchmaking_oracle():
    rng = random.Random(20240607)
    total_matches = 0
    for _ in range(100):
        repo, trust = _random_market(rng)
        got = {(m.rfq_id, m.ad_id) for m in match_alliances(repo, trust)}
        assert got == _bruteforce_matches(repo, trust)
        assert len(got) == len(match_alliances(repo, trust))  # pairs unique
        total_matches += len(got)
    assert total_matches > 0  # the trials actually exercised matches
    passed(7, f"matchmaking equals brute-force enumeration ({total_matches} matches)")


def test_c08_watchdog_bounds_and_probes():
    text = (SCENARIOS_DIR / "market-10x5.yaml").read_text(encoding="utf-8")
    _, report = run_simulation(load_scenario(text))
    assert report.agents
    for agent in report.agents:
        assert 0.0 <= agent.reputation <= 1.0
        assert agent.behavior_norm >= 0.0

    from agorasim.marketplace import SessionOutcome, SessionState
    from agorasim.core import MessageKind, NegotiationMessage

    expectations = {0.5: Stance.HEADSTRONG, 1.0: Stance.LINEAR, 2.0: Stance.CONCEDER}
    for lam, stance in expectations.items():
        values = [500.0]
        delta = -16.0
        for _ in range(7):
            values.append(values[-1] + delta)
            delta *= lam
        session = SessionState(
            session="probe", product="vm", buyer="b", seller="scripted",
            issue_ids=("price",), commence_at=0, t_max=99,
        )
        for i, value in enumerate(values):
            session.transcript.append(
                NegotiationMessage(
                    session="probe", sender="scripted", receiver="b", round=i,
                    sent_at=i + 1, kind=MessageKind.OFFER,
                    package=OfferPackage(values={"price": value}),
                )
            )
        session.outcome = SessionOutcome.TERMINATED
        b = compute_behavior_norm([session], "scripted")
        assert b == pytest.approx(lam, abs=1e-9)
        assert classify_concession(b) is stance
    passed(8, "trust bounds hold after a full run; scripted norms recovered")


def test_c09_concurrent_sessions_resolve_to_best():
    text = (SCENARIOS_DIR / "concurrent.yaml").read_text(encoding="utf-8")
    lines, report = run_simulation(load_scenario(text))
    agreed = [s for s in report.sessions if s.outcome == "agreed"]
    terminated = [s for s in report.sessions if s.outcome == "terminated"]
    assert len(report.sessions) == 3
    assert len(agreed) == 1
    assert len(terminated) == 2

    records = [json.loads(l) for l in lines]
    acquire = next(r for r in records if r["kind"] == "acquire")
    resolution_tick = acquire["tick"]
    buyer_agenda = make_agenda(make_issue())
    chosen_u = aggregate_utility(
        buyer_agenda, OfferPackage(values=acquire["values"]), Perspective.BUYER
    )
    assert agreed[0].buyer_utility == pytest.approx(chosen_u, abs=1e-12)
    for session in terminated:
        standing = [
            r
            for r in records
            if r["session"] == session.session
            and r["kind"] == "offer"
            and r["sender"] == session.seller
            and r["tick"] <= resolution_tick - 1  # delivered by resolution time
        ]
        assert standing, "terminated sessions saw at least one seller offer"
        last = max(standing, key=lambda r: r["tick"])
        other_u = aggregate_utility(
            buyer_agenda, OfferPackage(values=last["values"]), Perspective.BUYER
        )
        assert chosen_u >= other_u - 1e-12
    passed(9, "one agreement; its utility dominates every standing alternative")


def test_c10_replay_determinism_and_scale():
    text = (SCENARIOS_DIR / "market-10x5.yaml").read_text(encoding="utf-8")
    scenario = load_scenario(text)
    started = time.perf_counter()
    lines_a, report_a = run_simulation(scenario, seed_override=42)
    elapsed = time.perf_counter() - started
    lines_b, report_b = run_simulation(scenario, seed_override=42)
    transcript_a = "".join(line + "\n" for line in lines_a).encode("utf-8")
    transcript_b = "".join(line + "\n" for line in lines_b).encode("utf-8")
    assert transcript_a == transcript_b
    assert emit_report(report_a).encode("utf-8") == emit_report(report_b).encode("utf-8")
    assert elapsed < 5.0, f"10-agent/5-product run took {elapsed:.3f}s"
    assert len(report_a.sessions) >= 10  # genuinely concurrent marketplace
    passed(10, f"byte-identical replay; 10x5 run in {elapsed:.3f}s")
