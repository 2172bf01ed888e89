"""Agent runtime: proxy filtering, beliefs, plans, stepping, resolution."""

import copy
import itertools
import logging
import math
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from agorasim.agent import (
    BELIEF_WINDOW,
    AgendaDB,
    AgentState,
    EmptyCandidatesError,
    FilterVerdict,
    PlanCondition,
    PlanKind,
    PlanLibrary,
    PlanRule,
    RejectReason,
    agent_step,
    mean_lambda,
    proxy_filter,
    resolve_concurrent_agreements,
    wake_threshold,
)
from agorasim.core import (
    DELIVERY_ORDER,
    CommenceInfo,
    Direction,
    MessageKind,
    NegotiationMessage,
    OfferPackage,
    Perspective,
    restrict_agenda,
)
from agorasim.marketplace import transcript_line
from agorasim.tactics import (
    ResourceProjection,
    Stance,
    TacticParams,
    aggregate_utility,
    classify_concession,
    concession_rate,
    effective_deadline,
    generate_offer_package,
)
from conftest import make_agenda, make_agent, make_entry, make_issue, make_offer


class TestProxyFilter:
    def test_unknown_session(self):
        verdict = proxy_filter(make_offer(), None, now=1)
        assert not verdict.ok
        assert verdict.reason is RejectReason.UNKNOWN_SESSION

    def test_one_shared_verdict_per_reason(self):
        for reason in RejectReason:
            verdict = FilterVerdict.rejected(reason)
            assert (verdict.ok, verdict.reason) == (False, reason)
            assert FilterVerdict.rejected(reason) is verdict
        assert proxy_filter(make_offer(session="s-9"), None, now=2) is FilterVerdict.rejected(
            RejectReason.UNKNOWN_SESSION
        )

    def test_deadline_exceeded(self):
        entry = make_entry(t_max_eff=20.0)
        verdict = proxy_filter(make_offer(sent_at=21), entry, now=21)
        assert verdict.reason is RejectReason.DEADLINE_EXCEEDED

    def test_deadline_relative_to_session_start(self):
        entry = make_entry(t0=10, t_max_eff=20.0)
        assert proxy_filter(make_offer(sent_at=25), entry, now=25).ok

    def test_out_of_space_value(self):
        entry = make_entry()
        verdict = proxy_filter(make_offer(values={"price": 25.0}), entry, now=2)
        assert verdict.reason is RejectReason.OUT_OF_SPACE

    def test_out_of_space_missing_issue(self):
        entry = make_entry()
        verdict = proxy_filter(make_offer(values={}), entry, now=2)
        assert verdict.reason is RejectReason.OUT_OF_SPACE

    def test_out_of_space_extra_issue(self):
        entry = make_entry()
        verdict = proxy_filter(
            make_offer(values={"price": 15.0, "bogus": 1.0}), entry, now=2
        )
        assert verdict.reason is RejectReason.OUT_OF_SPACE

    def test_out_of_space_offer_without_package(self):
        msg = NegotiationMessage(
            session="s-1", sender="seller-1", receiver="buyer-1",
            round=0, sent_at=1, kind=MessageKind.OFFER,
        )
        verdict = proxy_filter(msg, make_entry(), now=2)
        assert verdict.reason is RejectReason.OUT_OF_SPACE

    def test_stale_round(self):
        entry = make_entry()
        entry.last_seen_round = 3
        verdict = proxy_filter(make_offer(round=3), entry, now=2)
        assert verdict.reason is RejectReason.STALE_ROUND

    def test_terminate_passes_deadline_check(self):
        entry = make_entry(t_max_eff=20.0)
        msg = NegotiationMessage(
            session="s-1", sender="seller-1", receiver="buyer-1",
            round=5, sent_at=30, kind=MessageKind.TERMINATE, reason="deadline",
        )
        assert proxy_filter(msg, entry, now=30).ok

    def test_pass_and_pure(self):
        entry = make_entry()
        msg = make_offer()
        first = proxy_filter(msg, entry, now=2)
        second = proxy_filter(msg, entry, now=2)
        assert first.ok and second.ok
        assert first == second

    def test_pass_verdict_is_shared(self):
        verdict = proxy_filter(make_offer(), make_entry(), now=2)
        assert verdict is FilterVerdict.passed()
        assert verdict.reason is None


def reference_mean_lambda(packages):
    """The per-issue-history algorithm `mean_lambda` replaced, as an oracle.

    Each issue keeps its last BELIEF_WINDOW values and the ratio of the last
    full window; the mean runs over the issues in sorted order.
    """
    histories, lams = {}, {}
    for values in packages:
        for issue_id in sorted(values):
            history = (histories.get(issue_id, ()) + (values[issue_id],))[-BELIEF_WINDOW:]
            histories[issue_id] = history
            if len(history) == BELIEF_WINDOW:
                lams[issue_id] = concession_rate(*history)
    if not histories:
        return None
    total = 0.0  # left to right: sum() compensates from Python 3.12 on
    for issue_id in sorted(histories):
        if len(histories[issue_id]) < BELIEF_WINDOW:
            return None
        total += 1.0 if lams[issue_id] is None else lams[issue_id]
    return total / len(histories)


WEIGHTS = {1: (1.0,), 2: (0.5, 0.5), 3: (0.5, 0.25, 0.25), 4: (0.25,) * 4}


class TestBeliefs:
    def fed(self, *prices):
        """A buyer's entry after one opponent offer per price, one per tick."""
        agent = make_agent(tactic=TacticParams(k=0.0, beta=1.0))
        agent.declared_agendas["vm"] = make_agenda()
        entry = make_entry(t0=0, session_t_max=40, t_max_eff=40.0)
        agent.agenda_db.add(entry)
        for i, price in enumerate(prices):
            agent_step(
                agent, [make_offer(values={"price": price}, round=i, sent_at=i + 1)],
                now=i + 1,
            )
        assert "s-1" in agent.agenda_db
        return entry

    def test_first_offer_no_lambda(self):
        entry = self.fed(19.0)
        assert entry.recent == (OfferPackage(values={"price": 19.0}),)
        assert entry.standing == OfferPackage(values={"price": 19.0})
        assert mean_lambda(entry) is None

    def test_lambda_after_three_offers(self):
        entry = self.fed(19.0, 17.0, 16.0)
        assert [p.values["price"] for p in entry.recent] == [19.0, 17.0, 16.0]
        assert mean_lambda(entry) == pytest.approx(0.5)
        assert classify_concession(mean_lambda(entry)) is Stance.HEADSTRONG

    def test_window_evicts_oldest(self):
        entry = self.fed(19.0, 18.0, 17.5, 17.0)
        assert [p.values["price"] for p in entry.recent] == [18.0, 17.5, 17.0]
        assert entry.standing.values["price"] == 17.0

    def test_flat_step_counts_as_linear(self):
        assert mean_lambda(self.fed(19.0, 19.0, 18.0)) == 1.0

    def test_conceder_estimate(self):
        entry = self.fed(19.0, 18.0, 16.0)
        assert classify_concession(mean_lambda(entry)) is Stance.CONCEDER

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mean_lambda_matches_per_issue_histories(self, data):
        n_issues = data.draw(st.integers(1, 4))
        ids = data.draw(st.permutations(("ram", "price", "cpu", "disk")))[:n_issues]
        agenda = make_agenda(*(
            make_issue(issue_id=issue_id, weight=weight)
            for issue_id, weight in zip(ids, WEIGHTS[n_issues])
        ))
        # Few distinct values make flat steps (an undefined ratio) common.
        value = st.sampled_from((10.0, 12.5, 15.0, 20.0)) | st.floats(10.0, 20.0)
        packages = data.draw(st.lists(
            st.fixed_dictionaries({issue_id: value for issue_id in ids}),
            min_size=1, max_size=8,
        ))
        entry = make_entry(agenda=agenda)
        for n in range(1, len(packages) + 1):
            entry.recent = tuple(
                OfferPackage(values=values) for values in packages[:n]
            )[-BELIEF_WINDOW:]
            assert mean_lambda(entry) == reference_mean_lambda(packages[:n])

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mean_lambda_bits_over_any_values(self, data):
        ids = data.draw(st.lists(st.sampled_from(("ram", "price", "cpu")), min_size=1, unique=True))
        entry = make_entry(agenda=make_agenda(*(
            make_issue(issue_id=issue_id, weight=1.0 / len(ids)) for issue_id in ids
        )))
        # Flat steps, NaN and infinite offers, and wide magnitudes.
        value = st.sampled_from((0.0, 1.0, math.nan, math.inf, -math.inf, 1e16)) | st.floats()
        packages = data.draw(st.lists(
            st.fixed_dictionaries({issue_id: value for issue_id in ids}),
            min_size=BELIEF_WINDOW, max_size=BELIEF_WINDOW,
        ))
        entry.recent = tuple(OfferPackage(values) for values in packages)
        bits = struct.Struct("<d").pack
        assert bits(mean_lambda(entry)) == bits(reference_mean_lambda(packages))

    def test_mean_lambda_sums_left_to_right(self):
        # Ratios 1e16, 1 and -1e16 in sorted issue order: a left-to-right sum
        # loses the 1 (mean 0.0); a compensated one keeps it (mean 1/3).
        entry = make_entry(agenda=make_agenda(
            make_issue("a", weight=0.25), make_issue("b", weight=0.5),
            make_issue("c", weight=0.25),
        ))
        entry.recent = (
            OfferPackage({"a": 0.0, "b": 0.0, "c": 0.0}),
            OfferPackage({"a": 1.0, "b": 1.0, "c": 1.0}),
            OfferPackage({"a": 1.0 + 1e16, "b": 2.0, "c": 1.0 - 1e16}),
        )
        assert mean_lambda(entry) == 0.0


class TestPlans:
    # choose(deadline passed, offer standing, target met, opening pending)
    def test_default_library_order(self):
        plans = PlanLibrary.default()
        assert plans.choose(True, False, False, False) is PlanKind.TERMINATE
        assert plans.choose(False, True, False, False) is PlanKind.MAKE_COUNTER
        assert plans.choose(False, False, False, True) is PlanKind.MAKE_OFFER
        assert plans.choose(False, False, False, False) is PlanKind.IDLE

    def test_first_match_wins(self):
        plans = PlanLibrary.default()
        assert plans.choose(True, True, True, True) is PlanKind.TERMINATE
        assert plans.choose(False, True, False, True) is PlanKind.MAKE_COUNTER

    def test_custom_accept_rule(self):
        plans = PlanLibrary(
            (
                PlanRule(PlanCondition.OFFER_MEETS_TARGET, PlanKind.ACCEPT),
                PlanRule(PlanCondition.ALWAYS, PlanKind.IDLE),
            )
        )
        assert plans.choose(False, True, True, False) is PlanKind.ACCEPT
        assert plans.choose(False, True, False, False) is PlanKind.IDLE

    @settings(max_examples=100, deadline=None)
    @given(
        rules=st.lists(
            st.builds(
                PlanRule, st.sampled_from(PlanCondition), st.sampled_from(PlanKind)
            ),
            max_size=6,
        ),
        last=st.sampled_from(PlanKind),
    )
    def test_memoised_choice_equals_first_match(self, rules, last):
        plans = PlanLibrary([*rules, PlanRule(PlanCondition.ALWAYS, last)])

        def first_match(facts):
            deadline_passed, offer_standing, target_met, opening_pending = facts
            holds = {
                PlanCondition.DEADLINE_PASSED: deadline_passed,
                PlanCondition.OFFER_MEETS_TARGET: target_met,
                PlanCondition.OFFER_STANDING: offer_standing,
                PlanCondition.OPENING_PENDING: opening_pending,
                PlanCondition.ALWAYS: True,
            }
            return next(rule.do for rule in plans.rules if holds[rule.when])

        for _ in range(2):  # fills the memo, then reads it
            for facts in itertools.product((False, True), repeat=4):
                assert plans.choose(*facts) is first_match(facts)

    def test_library_must_not_be_empty(self):
        with pytest.raises(ValueError):
            PlanLibrary(())

    def test_library_needs_catch_all(self):
        with pytest.raises(ValueError):
            PlanLibrary((PlanRule(PlanCondition.DEADLINE_PASSED, PlanKind.IDLE),))


class TestPollResources:
    def test_constant(self):
        projection = ResourceProjection(points=((0, 0.8),))
        for t in (0, 3, 50):
            assert projection.level_at(t) == 0.8

    def test_linear_interpolation(self):
        projection = ResourceProjection(points=((0, 1.0), (10, 0.0)))
        assert projection.level_at(5) == pytest.approx(0.5)

    def test_clamps_past_domain(self):
        projection = ResourceProjection(points=((0, 1.0), (10, 0.4)))
        assert projection.level_at(25) == 0.4


def commence(session="s-1", product="vm", buyer="buyer-1", seller="seller-1",
             initiator="seller-1", t_max=20, sent_at=0, receiver="seller-1",
             issue_ids=("price",)):
    return NegotiationMessage(
        session=session,
        sender="@market",
        receiver=receiver,
        round=0,
        sent_at=sent_at,
        kind=MessageKind.COMMENCE,
        commence=CommenceInfo(
            product=product,
            issue_ids=issue_ids,
            t_max=t_max,
            buyer=buyer,
            seller=seller,
            initiator=initiator,
        ),
    )


class TestAgentStep:
    def buyer(self, beta=1.0, k=0.0):
        agent = make_agent(tactic=TacticParams(k=k, beta=beta))
        agent.declared_agendas["vm"] = make_agenda()
        return agent

    def test_commence_then_opening_offer_same_tick(self):
        agent = make_agent(
            agent_id="seller-1",
            role=Perspective.SELLER,
            tactic=TacticParams(k=0.25, beta=1.0),
        )
        agent.declared_agendas["vm"] = make_agenda(
            make_issue(direction=Direction.DESCENDING)
        )
        outbox = agent_step(agent, [commence(sent_at=0)], now=1)
        assert len(outbox) == 1
        offer = outbox[0]
        assert offer.kind is MessageKind.OFFER
        assert offer.round == 0
        # opening at f(0) = k = 0.25 on a descending [10, 20] issue
        assert offer.package.values["price"] == pytest.approx(17.5)

    def test_initiator_with_empty_inbox_opens(self):
        agent = self.buyer()
        entry = make_entry(role=Perspective.BUYER, initiator=True, t0=5)
        agent.agenda_db.add(entry)
        outbox = agent_step(agent, [], now=5)
        assert [m.kind for m in outbox] == [MessageKind.OFFER]
        assert outbox[0].package.values["price"] == pytest.approx(10.0)

    @settings(max_examples=40, deadline=None)
    @given(
        now=st.integers(0, 200),
        levels=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
        jitter=st.floats(0.0, 1.0),
        past_sessions=st.integers(0, 2),
    )
    def test_idle_step_is_a_no_op(self, now, levels, jitter, past_sessions):
        # The simulation skips agents with no mail and no live session; that
        # is only sound while such a step sends nothing and changes nothing.
        schedule = tuple((10.0 * i, level) for i, level in enumerate(levels))
        agent = make_agent(
            resources=ResourceProjection(points=schedule),
            jitter=jitter,
            rng=random.Random(now),
        )
        agent.declared_agendas["vm"] = make_agenda()
        for i in range(past_sessions):
            agent_step(agent, [commence(session=f"s-{i}", sent_at=0)], now=0)
            agent_step(agent, [NegotiationMessage(
                session=f"s-{i}", sender="seller-1", receiver="buyer-1", round=1,
                sent_at=0, kind=MessageKind.TERMINATE, reason="deadline",
            )], now=0)
        assert len(agent.agenda_db) == 0
        rng_state, tactic = agent.rng.getstate(), agent.tactic
        outbox = agent_step(agent, [], now=now)
        assert outbox == []
        assert agent.rng.getstate() == rng_state
        assert agent.tactic == tactic
        assert len(agent.agenda_db) == 0

    @settings(max_examples=200, deadline=None)
    @given(
        sessions=st.lists(
            st.tuples(
                st.integers(0, 50),            # t0
                st.floats(0.0, 60.0),          # t_max_eff
                st.booleans(),                 # initiator
                st.booleans(),                 # opened
                st.lists(st.floats(10.0, 20.0), max_size=3),  # offers received
            ),
            max_size=4,
        ),
        now=st.integers(0, 120),
        role=st.sampled_from(list(Perspective)),
        jitter=st.floats(0.0, 1.0),
    )
    def test_step_without_work_is_a_no_op(self, sessions, now, role, jitter):
        # The simulation steps an agent without mail only at a tick past its
        # wake threshold. At or before it, a step with no mail, no expired
        # entry and no pending opening must send nothing and change nothing.
        agent = make_agent(role=role, jitter=jitter, rng=random.Random(now))
        for i, (t0, t_max_eff, initiator, opened, offers) in enumerate(sessions):
            entry = make_entry(
                session=f"s-{i}", role=role, t0=t0, t_max_eff=t_max_eff,
                initiator=initiator,
            )
            entry.opened = opened
            entry.recent = tuple(OfferPackage({"price": v}) for v in offers)
            agent.agenda_db.add(entry)
        threshold = wake_threshold(agent)
        assert (threshold is None) == (not sessions)
        if threshold is not None and now > threshold:
            return
        before = copy.deepcopy(list(agent.agenda_db))
        rng_state, tactic = agent.rng.getstate(), agent.tactic
        assert agent_step(agent, [], now=now) == []
        assert list(agent.agenda_db) == before
        assert agent.tactic == tactic
        assert agent.rng.getstate() == rng_state

    def test_wake_threshold_names_the_work(self):
        agent = self.buyer()
        assert wake_threshold(agent) is None
        agent.agenda_db.add(make_entry(session="s-1", t0=3, t_max_eff=10.5))
        agent.agenda_db.add(make_entry(session="s-2", t0=0, t_max_eff=12.0))
        assert wake_threshold(agent) == 12.0
        # At tick 12 nothing has expired; at 13 s-2 has.
        assert agent_step(agent, [], now=12) == []
        assert [m.session for m in agent_step(agent, [], now=13)] == ["s-2"]
        assert wake_threshold(agent) == 13.5
        agent.agenda_db.add(make_entry(session="s-3", initiator=True, t0=20))
        assert wake_threshold(agent) == float("-inf")

    def test_non_initiator_waits(self):
        agent = self.buyer()
        agent.agenda_db.add(make_entry(initiator=False))
        outbox = agent_step(agent, [], now=0)
        assert outbox == []

    def test_acquires_offer_beating_planned_counter(self):
        agent = self.buyer()
        agent.agenda_db.add(make_entry(t0=0))
        # at now=10 the buyer's planned counter is 15 (utility 0.5); an offer
        # of 12 is worth 0.8 to the buyer, so it acquires
        outbox = agent_step(
            agent, [make_offer(values={"price": 12.0}, sent_at=9)], now=10
        )
        assert [m.kind for m in outbox] == [MessageKind.ACQUIRE]
        assert outbox[0].package.values["price"] == 12.0
        assert "s-1" not in agent.agenda_db

    def test_counters_weak_offer(self):
        agent = self.buyer()
        agent.agenda_db.add(make_entry(t0=0))
        outbox = agent_step(
            agent, [make_offer(values={"price": 19.0}, sent_at=1)], now=2
        )
        assert [m.kind for m in outbox] == [MessageKind.OFFER]
        assert outbox[0].package.values["price"] == pytest.approx(11.0)

    def test_late_offer_terminates_and_removes_session(self):
        agent = self.buyer()
        agent.agenda_db.add(make_entry(t0=0, session_t_max=5, t_max_eff=5.0))
        outbox = agent_step(
            agent, [make_offer(values={"price": 15.0}, sent_at=6, round=2)], now=6
        )
        assert [m.kind for m in outbox] == [MessageKind.TERMINATE]
        assert "s-1" not in agent.agenda_db

    def test_deadline_sweep_without_messages(self):
        agent = self.buyer()
        agent.agenda_db.add(make_entry(t0=0, session_t_max=5, t_max_eff=5.0))
        outbox = agent_step(agent, [], now=6)
        assert [m.kind for m in outbox] == [MessageKind.TERMINATE]
        assert len(agent.agenda_db) == 0

    def test_no_expired_sessions_survive_step(self):
        agent = self.buyer()
        # Stored out of session-id order: the outbox is sorted regardless.
        for sid, deadline in (("s-3", 3), ("s-2", 30), ("s-1", 2)):
            agent.agenda_db.add(
                make_entry(session=sid, t0=0, session_t_max=deadline,
                           t_max_eff=float(deadline))
            )
        outbox = agent_step(agent, [], now=10)
        assert [e.session for e in agent.agenda_db] == ["s-2"]
        assert [(m.session, m.kind) for m in outbox] == [
            ("s-1", MessageKind.TERMINATE), ("s-3", MessageKind.TERMINATE),
        ]

    def test_belief_window_bounded_after_many_offers(self):
        agent = self.buyer()
        entry = make_entry(t0=0, session_t_max=40, t_max_eff=40.0)
        agent.agenda_db.add(entry)
        prices = [19.0 - 0.25 * i for i in range(6)]
        for i, price in enumerate(prices):
            agent_step(
                agent,
                [make_offer(values={"price": price}, round=i, sent_at=i + 1)],
                now=i + 1,
            )
        assert "s-1" in agent.agenda_db
        assert entry.offers_received == 6
        assert [p.values["price"] for p in entry.recent] == prices[-BELIEF_WINDOW:]

    def test_rejection_is_logged_at_debug_only(self, caplog):
        agent = self.buyer()
        agent.agenda_db.add(make_entry())
        stray = make_offer(session="s-9", values={"price": 15.0}, sent_at=1)
        with caplog.at_level(logging.INFO, logger="agorasim.agent"):
            assert agent_step(agent, [stray], now=2) == []
        assert caplog.records == []
        with caplog.at_level(logging.DEBUG, logger="agorasim.agent"):
            assert agent_step(agent, [stray], now=2) == []
        assert [r.getMessage() for r in caplog.records] == [
            "buyer-1: rejected offer on s-9 (unknown-session)"
        ]

    def test_inbox_may_be_any_iterable_in_any_order(self):
        def fresh():
            agent = self.buyer(beta=2.0)
            agent.agenda_db.add(make_entry(t0=0, session_t_max=40, t_max_eff=40.0))
            agent.agenda_db.add(make_entry(
                session="s-2", opponent="seller-2", t0=0, session_t_max=40, t_max_eff=40.0
            ))
            return agent

        # Read out of order, s-1's round 1 would make its round 0 stale.
        inbox = [
            make_offer(values={"price": 18.0}, round=1, sent_at=4),
            make_offer(values={"price": 19.0}, round=0, sent_at=3),
            make_offer(session="s-2", sender="seller-2", values={"price": 19.5}, sent_at=2),
        ]
        expected_agent = fresh()
        expected = agent_step(expected_agent, sorted(inbox, key=DELIVERY_ORDER), now=5)
        assert [e.offers_received for e in expected_agent.agenda_db] == [2, 1]
        for given_inbox in (list(inbox), tuple(inbox), iter(inbox), (m for m in inbox)):
            agent = fresh()
            assert agent_step(agent, given_inbox, now=5) == expected
            assert [(e.session, e.recent, e.last_seen_round) for e in agent.agenda_db] == [
                (e.session, e.recent, e.last_seen_round) for e in expected_agent.agenda_db
            ]
        unsorted = list(inbox)
        agent_step(fresh(), unsorted, now=5)
        assert unsorted == inbox

    def test_rejected_messages_produce_no_reply(self):
        agent = self.buyer()
        agent.agenda_db.add(make_entry())
        outbox = agent_step(
            agent, [make_offer(values={"price": 99.0}, sent_at=1)], now=2
        )
        assert outbox == []

    def test_own_offers_pass_own_space_filter(self):
        agent = self.buyer()
        entry = make_entry(role=Perspective.BUYER, initiator=True)
        agent.agenda_db.add(entry)
        outbox = agent_step(agent, [], now=0)
        assert outbox
        echo = NegotiationMessage(
            session="s-1", sender="buyer-1", receiver="buyer-1",
            round=entry.last_seen_round + 1, sent_at=0,
            kind=MessageKind.OFFER, package=outbox[0].package,
        )
        assert proxy_filter(echo, entry, now=0).ok

    def test_step_is_deterministic(self):
        def fresh():
            agent = self.buyer(beta=2.0)
            agent.agenda_db.add(make_entry(t0=0))
            agent.agenda_db.add(
                make_entry(session="s-2", opponent="seller-2", t0=0)
            )
            return agent

        inbox = [
            make_offer(values={"price": 14.0}, sent_at=3),
            make_offer(session="s-2", sender="seller-2",
                       values={"price": 13.0}, sent_at=3),
        ]
        out_a = agent_step(fresh(), list(inbox), now=4)
        out_b = agent_step(fresh(), list(inbox), now=4)
        assert [transcript_line(m) for m in out_a] == [
            transcript_line(m) for m in out_b
        ]

    def test_terminate_message_closes_session(self):
        agent = self.buyer()
        agent.agenda_db.add(make_entry())
        terminate = NegotiationMessage(
            session="s-1", sender="seller-1", receiver="buyer-1",
            round=0, sent_at=1, kind=MessageKind.TERMINATE, reason="deadline",
        )
        outbox = agent_step(agent, [terminate], now=2)
        assert outbox == []
        assert "s-1" not in agent.agenda_db

    def test_incoming_acquire_achieves_goal(self):
        agent = self.buyer()
        agent.agenda_db.add(make_entry())
        acquire = NegotiationMessage(
            session="s-1", sender="seller-1", receiver="buyer-1",
            round=0, sent_at=1, kind=MessageKind.ACQUIRE,
            package=OfferPackage(values={"price": 15.0}),
        )
        outbox = agent_step(agent, [acquire], now=2)
        assert outbox == []
        assert "s-1" not in agent.agenda_db

    def test_depleted_resources_collapse_the_deadline(self):
        # The hybrid deadline recomputes to the crossing time, so a session
        # whose resources are gone terminates on the next incoming message.
        depleted = ResourceProjection(points=((0, 0.05),), r_threshold=0.2)
        agent = self.buyer()
        agent.resources = depleted
        agent.agenda_db.add(make_entry(t0=0, t_max_eff=20.0))
        outbox = agent_step(
            agent, [make_offer(values={"price": 19.5}, sent_at=1)], now=2
        )
        assert [m.kind for m in outbox] == [MessageKind.TERMINATE]
        assert "s-1" not in agent.agenda_db

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_deadline_is_fresh_after_every_step(self, data):
        # The hybrid deadline is recomputed only when the projection object
        # is replaced; it must always equal a fresh computation.
        def projection():
            ticks = sorted(data.draw(st.lists(st.integers(0, 60), min_size=1, max_size=4)))
            levels = st.floats(0.0, 1.0)
            return ResourceProjection(
                points=tuple((float(t), data.draw(levels)) for t in ticks),
                r_threshold=data.draw(st.floats(0.0, 0.5)),
            )

        def assert_fresh(agent):
            for entry in agent.agenda_db:
                assert entry.t_max_eff == effective_deadline(
                    entry.session_t_max, agent.resources.shifted(entry.t0)
                )

        agent = make_agent(resources=projection())
        agent.declared_agendas["vm"] = make_agenda(t_max=40)
        now = data.draw(st.integers(0, 10))
        agent_step(agent, [commence(sent_at=now, t_max=40, receiver="buyer-1")], now)
        assert_fresh(agent)
        for round_ in range(data.draw(st.integers(1, 8))):
            if data.draw(st.booleans()):
                agent.resources = projection()
            now += data.draw(st.integers(1, 6))
            price = data.draw(st.floats(10.0, 20.0))
            offer = make_offer(values={"price": price}, round=round_, sent_at=now - 1)
            agent_step(agent, [offer], now)
            assert_fresh(agent)

    def target_rule_buyer(self, rules):
        agent = self.buyer()
        agent.plans = PlanLibrary(rules)
        agent.agenda_db.add(make_entry(t0=0, target_utility=0.6))
        return agent

    def test_offer_meets_target_rule_acquires(self):
        rules = (PlanRule(PlanCondition.OFFER_MEETS_TARGET, PlanKind.ACCEPT),
                 *PlanLibrary.default().rules)
        # At now=2 the planned counter is 11 (utility 0.9): the default rules
        # counter an offer of 13 (0.7), the target rule takes it (0.7 >= 0.6).
        outbox = agent_step(
            self.target_rule_buyer(PlanLibrary.default().rules),
            [make_offer(values={"price": 13.0}, sent_at=1)], now=2,
        )
        assert [m.kind for m in outbox] == [MessageKind.OFFER]
        agent = self.target_rule_buyer(rules)
        outbox = agent_step(
            agent, [make_offer(values={"price": 13.0}, sent_at=1)], now=2
        )
        assert [m.kind for m in outbox] == [MessageKind.ACQUIRE]
        assert outbox[0].package.values["price"] == 13.0
        assert "s-1" not in agent.agenda_db
        # An offer of 15 (0.5) misses the goal and is countered.
        agent = self.target_rule_buyer(rules)
        outbox = agent_step(
            agent, [make_offer(values={"price": 15.0}, sent_at=1)], now=2
        )
        assert [m.kind for m in outbox] == [MessageKind.OFFER]
        assert "s-1" in agent.agenda_db

    def test_resource_pressure_forces_buy_side_stance(self):
        from agorasim.agent import _effective_params

        buyer = make_agent(tactic=TacticParams(k=0.1, beta=0.5))
        forced = _effective_params(buyer, aggressive=True)
        assert forced.stance is Stance.CONCEDER
        assert forced.beta == 5.0
        assert forced.k == 0.1
        assert _effective_params(buyer, aggressive=False) == buyer.tactic
        seller = make_agent(
            agent_id="seller-1", role=Perspective.SELLER,
            tactic=TacticParams(k=0.1, beta=0.5),
        )
        assert _effective_params(seller, aggressive=True) == seller.tactic

    def test_forced_stance_never_slows_an_adapted_conceder(self):
        from agorasim.agent import _effective_params

        buyer = make_agent(tactic=TacticParams(k=0.0, beta=12.0, stance=Stance.CONCEDER))
        assert _effective_params(buyer, aggressive=True).beta == 12.0


class TestAgendaDBFacts:
    """AgendaDB's unopened count and deadline bound, against a fresh count
    and the true earliest deadline after every operation."""

    SESSIONS = tuple(f"s-{i}" for i in range(5))
    DEADLINES = st.sampled_from([math.nan, math.inf, -math.inf, 0.0]) | st.floats(-30.0, 60.0)

    @staticmethod
    def assert_facts(db):
        assert db.unopened == sum(1 for e in db if e.initiator and not e.opened)
        for entry in db:
            deadline = entry.t0 + entry.t_max_eff
            # A NaN deadline never passes, so no bound is owed to it.
            if deadline == deadline:
                assert not db.due > deadline

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_facts_hold_after_every_operation(self, data):
        db = AgendaDB()
        for _ in range(data.draw(st.integers(1, 30))):
            op = data.draw(st.sampled_from(
                ["add", "remove", "mark_opened", "set_deadline", "expired"]
            ))
            live = list(db)
            if op == "add":
                entry = make_entry(
                    session=data.draw(st.sampled_from(self.SESSIONS)),
                    t0=data.draw(st.integers(-10, 40)),
                    t_max_eff=data.draw(self.DEADLINES),
                    initiator=data.draw(st.booleans()),
                )
                entry.opened = data.draw(st.booleans())
                if entry.session in db:
                    with pytest.raises(ValueError):
                        db.add(entry)
                else:
                    db.add(entry)
            elif op == "remove":
                # Present and absent ids alike.
                db.remove(data.draw(st.sampled_from(self.SESSIONS)))
            elif op == "mark_opened" and live:
                entry = data.draw(st.sampled_from(live))
                db.mark_opened(entry)
                assert entry.opened
            elif op == "set_deadline" and live:
                entry = data.draw(st.sampled_from(live))
                t_max_eff = data.draw(self.DEADLINES)
                db.set_deadline(entry, t_max_eff)
                assert entry.t_max_eff is t_max_eff
            elif op == "expired":
                now = data.draw(st.integers(-50, 120))
                expected = [e for e in db if now > e.t0 + e.t_max_eff]
                found = db.expired(now)
                assert [e.session for e in found] == [e.session for e in expected]
                for entry in found:
                    db.remove(entry.session)
            self.assert_facts(db)

    def test_replaced_resources_move_the_sweep_to_the_new_deadline(self):
        # The projection is replaced mid-session; the next offer recomputes
        # the deadline from 40 down to 10, and the sweep ends the session at
        # the first tick past it, with no mail in between.
        agent = make_agent(tactic=TacticParams(k=0.0, beta=1.0))
        entry = make_entry(t0=0, session_t_max=40, t_max_eff=40.0)
        entry.t_max_eff_of = agent.resources
        agent.agenda_db.add(entry)
        agent.resources = ResourceProjection(points=((0.0, 1.0), (10.0, 0.1)), r_threshold=0.1)
        outbox = agent_step(agent, [make_offer(values={"price": 19.0}, sent_at=1)], now=2)
        assert [m.kind for m in outbox] == [MessageKind.OFFER]
        assert entry.t_max_eff == 10.0
        assert wake_threshold(agent) == 10.0
        for now in range(3, 11):
            assert agent_step(agent, [], now) == []
        outbox = agent_step(agent, [], 11)
        assert [(m.kind, m.reason) for m in outbox] == [(MessageKind.TERMINATE, "deadline")]
        assert "s-1" not in agent.agenda_db


class TestSessionOpen:
    """Opening a session reuses what earlier opens derived: the restricted
    agenda, the opening's target utility and the shifted resource projection.
    Each entry must still hold exactly what a fresh derivation gives."""

    def test_deadline_is_fresh_with_the_projection_shared_within_a_tick(self):
        def projection(depleted_at):
            return ResourceProjection(
                points=((0, 1.0), (12, 0.7), (depleted_at, 0.0)), r_threshold=0.2
            )

        agent = make_agent(resources=projection(30))
        agent.declared_agendas["vm"] = make_agenda(t_max=40)
        # (tick, sessions with their t_max, a new schedule before the step)
        steps = [
            (3, [("s-1", 40), ("s-2", 9)], None),
            (7, [("s-3", 40)], None),
            (7, [("s-4", 40)], projection(50)),
        ]
        seen = {}
        for now, sessions, resources in steps:
            if resources is not None:
                agent.resources = resources
            inbox = [commence(sid, t_max=t_max, sent_at=now - 1, receiver="buyer-1")
                     for sid, t_max in sessions]
            agent_step(agent, inbox, now)
            for sid, t_max in sessions:
                entry = agent.agenda_db.get(sid)
                expected = effective_deadline(
                    min(t_max, entry.agenda.t_max), agent.resources.shifted(now)
                )
                assert entry.t_max_eff == expected
                seen[sid] = entry.t_max_eff
        # Another tick's shift or the replaced schedule would have given
        # another deadline.
        assert len({seen["s-1"], seen["s-3"], seen["s-4"]}) == 3

    def opening_target(self, agent, entry):
        package = generate_offer_package(entry.agenda, 0.0, entry.t_max_eff, agent.tactic)
        return aggregate_utility(entry.agenda, package, entry.role)

    def two_issue_agent(self):
        agent = make_agent()
        agent.declared_agendas["vm"] = make_agenda(
            make_issue("price", weight=0.6),
            make_issue("memory", weight=0.4, lo=1.0, hi=64.0, direction=Direction.DESCENDING),
            t_max=4000,
        )
        return agent

    @settings(max_examples=80)
    @given(st.data())
    def test_opening_target_equals_a_fresh_derivation(self, data):
        agent = self.two_issue_agent()
        ks = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=3))
        for now in range(data.draw(st.integers(1, 10))):
            agent.tactic = TacticParams(
                k=data.draw(st.sampled_from(ks)), beta=data.draw(st.floats(0.05, 20.0))
            )
            # The agent is buyer-1: a buyer here, or the seller facing buyer-2.
            buyer, seller = data.draw(
                st.sampled_from([("buyer-1", "seller-1"), ("buyer-2", "buyer-1")])
            )
            ids = data.draw(st.sampled_from(
                [("price",), ("memory",), ("price", "memory"), ("memory", "price")]
            ))
            t_max = data.draw(st.sampled_from([0, 1e-9, 5, 4000]))
            sid = f"s-{now}"
            agent_step(agent, [commence(sid, buyer=buyer, seller=seller, t_max=t_max,
                                        sent_at=now, receiver="buyer-1", issue_ids=ids)], now)
            entry = agent.agenda_db.get(sid)
            assert entry.t_max_eff == t_max
            assert entry.agenda is restrict_agenda(agent.declared_agendas["vm"], ids)
            assert entry.target_utility == self.opening_target(agent, entry)

    def test_zero_deadline_after_a_memoised_open_derives_afresh(self):
        agent = self.two_issue_agent()
        agent.tactic = TacticParams(k=0.25, beta=2.0)
        agent_step(agent, [commence("s-1", t_max=5, receiver="buyer-1")], 0)
        agent_step(agent, [commence("s-2", t_max=0, receiver="buyer-1")], 0)
        memoised, zero = agent.agenda_db.get("s-1"), agent.agenda_db.get("s-2")
        assert zero.agenda is memoised.agenda
        assert zero.target_utility == self.opening_target(agent, zero)
        assert zero.target_utility != memoised.target_utility
        assert len(agent.openings) == 1


class TestResolveConcurrentAgreements:
    def db_with(self, *sids, product="vm"):
        db = AgendaDB()
        for sid in sids:
            db.add(make_entry(session=sid, product=product))
        return db

    def test_highest_utility_wins(self):
        db = self.db_with("s-1", "s-2")
        chosen, losers = resolve_concurrent_agreements(
            db, [("s-1", 0.6), ("s-2", 0.8)]
        )
        assert chosen == "s-2"
        assert losers == ["s-1"]

    def test_single_candidate(self):
        db = self.db_with("s-1")
        chosen, losers = resolve_concurrent_agreements(db, [("s-1", 0.7)])
        assert chosen == "s-1"
        assert losers == []

    def test_tie_breaks_to_smallest_session_id(self):
        db = self.db_with("s-1", "s-2")
        chosen, _ = resolve_concurrent_agreements(db, [("s-2", 0.7), ("s-1", 0.7)])
        assert chosen == "s-1"

    def test_other_product_sessions_untouched(self):
        db = self.db_with("s-1", "s-2")
        db.add(make_entry(session="s-9", product="other"))
        _, losers = resolve_concurrent_agreements(db, [("s-1", 0.6), ("s-2", 0.8)])
        assert "s-9" not in losers

    def test_empty_candidates(self):
        with pytest.raises(EmptyCandidatesError):
            resolve_concurrent_agreements(AgendaDB(), [])

    def test_inactive_candidate_rejected(self):
        db = self.db_with("s-1")
        with pytest.raises(ValueError):
            resolve_concurrent_agreements(db, [("s-ghost", 0.5)])

    def test_losers_include_sessions_without_candidates(self):
        db = self.db_with("s-1", "s-2", "s-3")
        _, losers = resolve_concurrent_agreements(db, [("s-2", 0.8)])
        assert losers == ["s-1", "s-3"]
