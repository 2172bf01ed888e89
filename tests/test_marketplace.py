"""Marketplace: repository, matchmaking, session routing, watchdog scores."""

import copy
import math
import random
import struct
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings, strategies as st

from agorasim import marketplace
from agorasim.core import (
    MARKETPLACE_ID,
    CommenceInfo,
    MessageKind,
    NegotiationMessage,
    OfferPackage,
    Perspective,
)
from agorasim.marketplace import (
    AdvertisementRepository,
    AlreadyAgreedError,
    DeliveryStatus,
    DuplicateIdError,
    Marketplace,
    Match,
    SessionOutcome,
    SessionState,
    TrustArchive,
    TrustRecord,
    TrustStats,
    UnknownAgentError,
    behavior_norm,
    compute_behavior_norm,
    compute_reputation,
    match_alliances,
    ranges_overlap,
    render_transcript,
    trail_ratios,
    transcript_line,
)
from agorasim.simulation import load_scenario, run_simulation_with_market
from agorasim.tactics import Stance, classify_concession, concession_rate
from conftest import (
    JSON_SCALARS,
    from_fields,
    json_floats,
    json_ints,
    json_text,
    make_agenda,
    make_issue,
)

SCENARIOS = sorted((Path(__file__).resolve().parents[1] / "scenarios").glob("*.yaml"))


def repo_with(*agents):
    """agents: (id, role, product, issue ranges dict)"""
    repo = AdvertisementRepository()
    for agent_id, role, product, ranges in agents:
        repo.register_agent(agent_id, role)
        issues = tuple(
            make_issue(issue_id, weight=1.0 / len(ranges), lo=lo, hi=hi)
            for issue_id, (lo, hi) in sorted(ranges.items())
        )
        repo.declare_agenda(agent_id, product, make_agenda(*issues))
    return repo


def default_repo():
    return repo_with(
        ("buyer-1", Perspective.BUYER, "vm", {"price": (10, 20)}),
        ("seller-1", Perspective.SELLER, "vm", {"price": (10, 20)}),
    )


def reference_transcript_line(msg: NegotiationMessage) -> str:
    """The record built as a dict and encoded whole: what transcript_line
    writes out field by field."""
    values = None
    if msg.package is not None:
        values = {k: msg.package.values[k] for k in sorted(msg.package.values)}
    record = {
        "tick": msg.sent_at,
        "session": msg.session,
        "sender": msg.sender,
        "receiver": msg.receiver,
        "round": msg.round,
        "kind": msg.kind.value,
        "values": values,
        "reason": msg.reason,
    }
    return marketplace._COMPACT_JSON.encode(record)


json_numbers = st.one_of(json_floats, json_ints)
packages = st.one_of(
    st.none(),
    st.dictionaries(json_text, json_numbers, max_size=4),
    st.dictionaries(st.integers(-3, 3), json_numbers, max_size=3),
).map(lambda values: None if values is None else OfferPackage(values=values))


messages = st.builds(
    NegotiationMessage,
    session=json_text,
    sender=json_text,
    receiver=json_text,
    round=st.one_of(st.integers(-5, 10**12), st.booleans()),
    sent_at=st.one_of(st.integers(0, 10**20), st.booleans()),
    kind=st.sampled_from(MessageKind),
    package=packages,
    reason=st.one_of(st.none(), json_text),
)


class TestTranscriptLine:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(messages, min_size=1, max_size=3))
    def test_equals_the_encoded_record(self, msgs):
        expected = [reference_transcript_line(msg) for msg in msgs]
        assert [transcript_line(msg) for msg in msgs] == expected
        assert render_transcript(msgs) == expected


class _DescendingKey(str):
    """An issue key equal to its str, but sorted in reverse."""

    def __lt__(self, other):
        return str.__gt__(self, other)


class _TaggedFloat(float):
    """A float whose own repr is not the JSON number."""

    def __repr__(self):
        return "tagged"


#: Issue key sets the shaped messages draw from, so patterns are reused;
#: some keys hold format metacharacters.
KEY_SETS = (
    (),
    ("price",),
    ("memory", "price"),
    ("price", "memory"),
    ("%d", "{x}", "a%%b"),
    ("%", "%s}", "{%r"),
)
ids = st.one_of(st.sampled_from(["s-1", "buyer-%d", "{seller}", "%"]), json_text)
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
#: Issue values that are not exact finite floats.
odd_values = st.sampled_from(
    [math.nan, math.inf, -math.inf, True, False, 0, 7, _TaggedFloat(2.5)]
)


@st.composite
def shaped_messages(draw):
    """A message every check of the renderer's patterns admits."""
    keys = draw(st.sampled_from((None,) + KEY_SETS))
    package = None
    if keys is not None:
        package = OfferPackage(values={key: draw(finite_floats) for key in keys})
    return NegotiationMessage(
        session=draw(ids),
        sender=draw(ids),
        receiver=draw(ids),
        round=draw(st.integers(0, 10**6)),
        sent_at=draw(st.integers(0, 10**6)),
        kind=draw(st.sampled_from(MessageKind)),
        package=package,
        reason=draw(st.one_of(st.none(), ids)),
    )


def _with_values(msg, values):
    return msg._replace(package=OfferPackage(values=values))


# Each takes a message and a draw; returns a message of the same shape, or of
# a neighbouring one, that some check must send to the fallback or to
# another pattern; None when the message has nothing to change.
def _odd_value(msg, draw):
    if msg.package is None or not msg.package.values:
        return None
    values = dict(msg.package.values)
    values[draw(st.sampled_from(sorted(values)))] = draw(odd_values)
    return _with_values(msg, values)


def _reordered(msg, draw):
    if msg.package is None:
        return None
    return _with_values(msg, dict(reversed(msg.package.values.items())))


def _str_subclass_keys(msg, draw):
    if msg.package is None:
        return None
    return _with_values(
        msg, {_DescendingKey(k): v for k, v in msg.package.values.items()}
    )


def _non_str_keys(msg, draw):
    if msg.package is None:
        return None
    return _with_values(msg, dict(enumerate(msg.package.values.values())))


def _empty_package(msg, draw):
    return _with_values(msg, {})


def _other_reason(msg, draw):
    return msg._replace(reason=None if msg.reason is not None else draw(ids))


def _other_kind(msg, draw):
    others = [kind for kind in MessageKind if kind is not msg.kind]
    return msg._replace(kind=draw(st.sampled_from(others)))


def _bool_clock(msg, draw):
    field = draw(st.sampled_from(["sent_at", "round"]))
    return msg._replace(**{field: draw(st.booleans())})


TWISTS = (
    _odd_value,
    _reordered,
    _str_subclass_keys,
    _non_str_keys,
    _empty_package,
    _other_reason,
    _other_kind,
    _bool_clock,
)


@st.composite
def transcripts(draw):
    """Up to 40 messages: plain ones first, then for each twist up to two
    twisted copies of earlier messages, so every twist meets a cached
    pattern of its message's shape; then plain ones again."""
    msgs = draw(st.lists(shaped_messages(), min_size=1, max_size=14))
    for twist in TWISTS:
        for _ in range(draw(st.integers(1, 2))):
            twisted = twist(msgs[draw(st.integers(0, len(msgs) - 1))], draw)
            if twisted is not None:
                msgs.append(twisted)
    msgs += draw(st.lists(shaped_messages(), max_size=8))
    return msgs


def every_twist():
    """Each case transcripts() draws, once, every one after the pattern of
    its base message is cached."""
    offer = NegotiationMessage(
        "s-%d", "a{b}", "%s", 3, 5, MessageKind.OFFER,
        OfferPackage(values={"price": 1.5, "%d": 0.1, "{x}": -0.0}),
    )
    terminate = offer._replace(kind=MessageKind.TERMINATE, package=None, reason="%s{}")
    values = offer.package.values
    msgs = [offer, terminate]
    for odd in (math.nan, math.inf, -math.inf, True, 7, _TaggedFloat(2.5)):
        msgs.append(_with_values(offer, {**values, "price": odd}))
    return msgs + [
        _with_values(offer, dict(reversed(values.items()))),
        _with_values(offer, {_DescendingKey(k): v for k, v in values.items()}),
        _with_values(offer, dict(enumerate(values.values()))),
        _with_values(offer, {}),
        offer._replace(reason="why%s"),
        offer._replace(kind=MessageKind.ACQUIRE),
        terminate._replace(reason=None),
        terminate._replace(kind=MessageKind.COMMENCE),
        offer._replace(sent_at=True),
        offer._replace(round=False),
        offer,
        terminate,
    ]


class TestRenderTranscript:
    @settings(max_examples=300, deadline=None)
    @given(transcripts())
    @example(every_twist())
    def test_every_line_equals_the_encoded_record(self, msgs):
        assert render_transcript(msgs) == [reference_transcript_line(m) for m in msgs]


def reference_trust_line(rec: TrustRecord) -> str:
    """The trust record built as a dict and encoded whole: what
    export_lines writes out field by field."""
    stats = rec.stats
    return marketplace._COMPACT_JSON.encode(
        {
            "agent": rec.agent,
            "behavior_norm": rec.behavior_norm,
            "stance": rec.stance.value,
            "reputation": rec.reputation,
            "stats": {
                "sessions_observed": stats.sessions_observed,
                "agreements": stats.agreements,
                "violations": stats.violations,
                "messages_sent": stats.messages_sent,
                "mean_rounds_to_agreement": (
                    stats.rounds_total / stats.agreements if stats.agreements else None
                ),
            },
        }
    )


class TestTrustExport:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        from_fields(TrustRecord, {**JSON_SCALARS, Stance: st.sampled_from(Stance)}),
        max_size=3,
        unique_by=lambda rec: rec.agent,
    ))
    def test_equals_the_encoded_records(self, recs):
        archive = TrustArchive()
        for rec in recs:
            archive._records[rec.agent] = rec
        expected = [reference_trust_line(rec) for rec in sorted(recs, key=lambda r: r.agent)]
        assert archive.export_lines() == expected


class TestRepository:
    def test_first_ad_gets_sequence_id(self):
        repo = default_repo()
        assert repo.submit_advertisement("seller-1", "vm") == "ad-1"

    def test_unregistered_agent_rejected(self):
        repo = default_repo()
        with pytest.raises(UnknownAgentError):
            repo.submit_advertisement("ghost", "vm")

    def test_ids_are_distinct(self):
        repo = default_repo()
        first = repo.submit_advertisement("seller-1", "vm")
        second = repo.submit_advertisement("seller-1", "vm")
        assert first != second

    def test_explicit_duplicate_id_rejected(self):
        repo = default_repo()
        repo.submit_advertisement("seller-1", "vm", ad_id="ad-x")
        with pytest.raises(DuplicateIdError):
            repo.submit_advertisement("seller-1", "vm", ad_id="ad-x")

    def test_rfq_sequence_ids(self):
        repo = default_repo()
        assert repo.submit_rfq("buyer-1", "vm") == "rfq-1"
        assert repo.submit_rfq("buyer-1", "vm") == "rfq-2"

    def test_ad_requires_declared_agenda(self):
        repo = default_repo()
        with pytest.raises(UnknownAgentError):
            repo.submit_advertisement("seller-1", "unknown-product")


class TestQueries:
    def test_empty_repo(self):
        assert default_repo().query_advertisements() == []

    def test_filter_by_product(self):
        repo = repo_with(
            ("s1", Perspective.SELLER, "vm", {"price": (10, 20)}),
            ("s2", Perspective.SELLER, "db", {"price": (10, 20)}),
        )
        repo.declare_agenda("s1", "db", make_agenda(make_issue()))
        a1 = repo.submit_advertisement("s1", "vm", posted_at=0)
        a2 = repo.submit_advertisement("s2", "db", posted_at=1)
        a3 = repo.submit_advertisement("s1", "db", posted_at=2)
        found = repo.query_advertisements(product="db")
        assert [ad.ad_id for ad in found] == [a2, a3]
        assert a1 not in [ad.ad_id for ad in found]

    def test_no_filter_returns_all_in_order(self):
        repo = default_repo()
        ids = [repo.submit_advertisement("seller-1", "vm", posted_at=i) for i in range(3)]
        assert [ad.ad_id for ad in repo.query_advertisements()] == ids

    def test_issue_subset_filter(self):
        repo = repo_with(
            ("s1", Perspective.SELLER, "vm", {"price": (10, 20), "memory": (1, 8)}),
        )
        repo.submit_advertisement("s1", "vm")
        assert repo.query_advertisements(issues=["price"])
        assert repo.query_advertisements(issues=["price", "memory"])
        assert repo.query_advertisements(issues=["disk"]) == []

    def test_matches_bruteforce_scan(self):
        rng = random.Random(31)
        repo = AdvertisementRepository()
        products = ["p1", "p2", "p3"]
        all_issues = ["price", "memory", "disk"]
        for i in range(6):
            agent = f"s{i}"
            repo.register_agent(agent, Perspective.SELLER)
            for product in products:
                chosen = rng.sample(all_issues, rng.randint(1, 3))
                issues = tuple(
                    make_issue(iid, weight=1.0 / len(chosen), lo=0, hi=10)
                    for iid in sorted(chosen)
                )
                repo.declare_agenda(agent, product, make_agenda(*issues))
        submitted = []
        for i in range(20):
            agent = f"s{rng.randrange(6)}"
            product = rng.choice(products)
            ad_id = repo.submit_advertisement(agent, product, posted_at=rng.randrange(5))
            submitted.append(ad_id)
        for _ in range(30):
            agent = None if rng.random() < 0.5 else f"s{rng.randrange(6)}"
            product = None if rng.random() < 0.5 else rng.choice(products)
            got = repo.query_advertisements(agent=agent, product=product)
            expected = [
                ad
                for ad in sorted(
                    repo.query_advertisements(), key=lambda a: (a.posted_at, a.ad_id)
                )
                if (agent is None or ad.agent == agent)
                and (product is None or ad.product == product)
            ]
            assert got == expected


class TestMatchmaking:
    def market_pair(self, buyer_range=(10, 20), seller_range=(10, 20),
                    buyer_issues=None, seller_issues=None):
        buyer_issues = buyer_issues or {"price": buyer_range}
        seller_issues = seller_issues or {"price": seller_range}
        return repo_with(
            ("buyer-1", Perspective.BUYER, "vm", buyer_issues),
            ("seller-1", Perspective.SELLER, "vm", seller_issues),
        )

    def test_basic_match(self):
        market = Marketplace()
        repo = self.market_pair()
        market.repo = repo
        repo.submit_advertisement("seller-1", "vm")
        repo.submit_rfq("buyer-1", "vm")
        matches = match_alliances(repo, market.trust)
        assert len(matches) == 1
        match = matches[0]
        assert (match.buyer, match.seller) == ("buyer-1", "seller-1")
        assert match.issue_ids == ("price",)

    def test_disjoint_issue_sets_do_not_match(self):
        repo = self.market_pair(
            buyer_issues={"disk": (1, 5)}, seller_issues={"price": (10, 20)}
        )
        trust = Marketplace().trust
        repo.submit_advertisement("seller-1", "vm")
        repo.submit_rfq("buyer-1", "vm")
        assert match_alliances(repo, trust) == []

    def test_reputation_gate(self):
        market = Marketplace()
        repo = self.market_pair()
        repo.submit_advertisement("seller-1", "vm")
        repo.submit_rfq("buyer-1", "vm", min_reputation=0.6)
        market.trust.record("seller-1").reputation = 0.4
        assert match_alliances(repo, market.trust) == []
        market.trust.record("seller-1").reputation = 0.6
        assert len(match_alliances(repo, market.trust)) == 1

    def test_same_role_never_matches(self):
        repo = repo_with(
            ("b1", Perspective.BUYER, "vm", {"price": (10, 20)}),
            ("b2", Perspective.BUYER, "vm", {"price": (10, 20)}),
        )
        repo.submit_advertisement("b2", "vm")
        repo.submit_rfq("b1", "vm")
        assert match_alliances(repo, Marketplace().trust) == []

    def test_range_overlap_required(self):
        repo = self.market_pair(buyer_range=(10, 20), seller_range=(30, 40))
        trust = Marketplace().trust
        repo.submit_advertisement("seller-1", "vm")
        repo.submit_rfq("buyer-1", "vm")
        assert match_alliances(repo, trust) == []
        assert len(match_alliances(repo, trust, require_overlap=False)) == 1

    def test_touching_ranges_overlap(self):
        assert ranges_overlap(10, 20, 20, 30)
        assert not ranges_overlap(10, 20, 21, 30)

    def test_excluded_pairs_are_skipped(self):
        repo = self.market_pair()
        trust = Marketplace().trust
        ad = repo.submit_advertisement("seller-1", "vm")
        rfq = repo.submit_rfq("buyer-1", "vm")
        assert match_alliances(repo, trust, exclude={(rfq, ad)}) == []

    def test_matches_bruteforce_enumeration(self):
        # 2 RFQs x 3 ads; oracle re-applies the five predicates pairwise
        repo = repo_with(
            ("b1", Perspective.BUYER, "vm", {"price": (10, 20), "memory": (1, 8)}),
            ("b2", Perspective.BUYER, "vm", {"price": (50, 60)}),
            ("s1", Perspective.SELLER, "vm", {"price": (15, 25), "memory": (2, 16)}),
            ("s2", Perspective.SELLER, "vm", {"price": (10, 12)}),
            ("s3", Perspective.SELLER, "vm", {"memory": (1, 4)}),
        )
        trust = Marketplace().trust
        trust.record("s2").reputation = 0.2
        ads = [repo.submit_advertisement(s, "vm") for s in ("s1", "s2", "s3")]
        rfqs = [
            repo.submit_rfq("b1", "vm", issues=["price"], min_reputation=0.4),
            repo.submit_rfq("b2", "vm"),
        ]
        got = {(m.rfq_id, m.ad_id) for m in match_alliances(repo, trust)}
        expected = set()
        for rfq in repo.query_rfqs():
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
                agenda = repo.declared_agenda(rfq.agent, rfq.product)
                if not all(
                    ranges_overlap(
                        agenda.issue(i).min_value, agenda.issue(i).max_value,
                        ad_map[i].min_value, ad_map[i].max_value,
                    )
                    for i in rfq.issues
                ):
                    continue
                expected.add((rfq.rfq_id, ad.ad_id))
        assert got == expected
        assert ("rfq-1", "ad-1") in got  # price ranges overlap, reputation ok
        assert ("rfq-1", "ad-2") not in got  # reputation 0.2 < 0.4


class TestSessions:
    def fresh_market(self):
        market = Marketplace()
        market.repo = repo_with(
            ("buyer-1", Perspective.BUYER, "vm", {"price": (10, 20)}),
            ("seller-1", Perspective.SELLER, "vm", {"price": (10, 20)}),
        )
        return market

    def match(self):
        return Match(
            rfq_id="rfq-1", ad_id="ad-1", product="vm",
            buyer="buyer-1", seller="seller-1", issue_ids=("price",),
        )

    def offer(self, session, value=15.0, sender="seller-1", receiver="buyer-1",
              round=0, sent_at=1):
        return NegotiationMessage(
            session=session, sender=sender, receiver=receiver, round=round,
            sent_at=sent_at, kind=MessageKind.OFFER,
            package=OfferPackage(values={"price": value}),
        )

    def test_commence_creates_open_session(self):
        market = self.fresh_market()
        session = market.commence_negotiation(self.match(), now=0)
        assert session.outcome is SessionOutcome.OPEN
        assert session.t_max == 20
        inboxes = market.due_messages(1)
        assert set(inboxes) == {"buyer-1", "seller-1"}
        assert all(
            msgs[0].kind is MessageKind.COMMENCE for msgs in inboxes.values()
        )

    def test_commence_after_agreement_rejected(self):
        market = self.fresh_market()
        session = market.commence_negotiation(self.match(), now=0)
        market.route_message(self.offer(session.session, sent_at=1))
        market.route_message(
            NegotiationMessage(
                session=session.session, sender="buyer-1", receiver="seller-1",
                round=0, sent_at=2, kind=MessageKind.ACQUIRE,
                package=OfferPackage(values={"price": 15.0}),
            )
        )
        with pytest.raises(AlreadyAgreedError):
            market.commence_negotiation(self.match(), now=3)

    def test_concurrent_sessions_for_one_rfq(self):
        market = Marketplace()
        market.repo = repo_with(
            ("buyer-1", Perspective.BUYER, "vm", {"price": (10, 20)}),
            ("s1", Perspective.SELLER, "vm", {"price": (10, 20)}),
            ("s2", Perspective.SELLER, "vm", {"price": (12, 18)}),
        )
        m1 = Match("rfq-1", "ad-1", "vm", "buyer-1", "s1", ("price",))
        m2 = Match("rfq-1", "ad-2", "vm", "buyer-1", "s2", ("price",))
        s1 = market.commence_negotiation(m1, now=0)
        s2 = market.commence_negotiation(m2, now=0)
        assert s1.session != s2.session
        assert [sid for sid, rec in market.sessions.items() if rec.is_open] == [
            s1.session, s2.session,
        ]

    def test_route_appends_and_delivers_next_tick(self):
        market = self.fresh_market()
        session = market.commence_negotiation(self.match(), now=0)
        result = market.route_message(self.offer(session.session, sent_at=1))
        assert result.status is DeliveryStatus.DELIVERED
        assert session.transcript[-1].kind is MessageKind.OFFER
        inboxes = market.due_messages(2)
        assert [m.kind for m in inboxes["buyer-1"]] == [MessageKind.OFFER]

    def test_unknown_session(self):
        market = self.fresh_market()
        result = market.route_message(self.offer("s-ghost"))
        assert result.status is DeliveryStatus.UNKNOWN_SESSION

    def test_non_participant_message_dropped(self):
        market = self.fresh_market()
        market.repo.register_agent("outsider", Perspective.BUYER)
        session = market.commence_negotiation(self.match(), now=0)
        commenced = market.transcript_lines()
        result = market.route_message(
            NegotiationMessage(
                session=session.session, sender="outsider", receiver="seller-1",
                round=0, sent_at=1, kind=MessageKind.ACQUIRE,
                package=OfferPackage(values={"price": 15.0}),
            )
        )
        assert result.status is DeliveryStatus.NOT_PARTICIPANT
        assert result.violations == ("not-participant",)
        assert session.is_open
        assert len(session.transcript) == 2
        assert market.transcript_lines() == commenced
        assert market.due_messages(2) == {}
        stats = market.trust.record("outsider").stats
        assert (stats.violations, stats.messages_sent) == (1, 0)

    def test_commence_from_participant_dropped(self):
        # Only the marketplace opens a session; a forged COMMENCE must not
        # reach the other side, which would open an entry from its info.
        market = self.fresh_market()
        session = market.commence_negotiation(self.match(), now=0)
        commenced = market.transcript_lines()
        forged = CommenceInfo(
            product="vm", issue_ids=("price",), t_max=10**6,
            buyer="buyer-1", seller="seller-1", initiator="buyer-1",
        )
        result = market.route_message(
            NegotiationMessage(
                session=session.session, sender="seller-1", receiver="buyer-1",
                round=0, sent_at=1, kind=MessageKind.COMMENCE, commence=forged,
            )
        )
        assert result.status is DeliveryStatus.NOT_FROM_MARKET
        assert result.violations == ("not-from-market",)
        assert session.is_open
        assert market.transcript_lines() == commenced
        assert market.due_messages(2) == {}
        stats = market.trust.record("seller-1").stats
        assert (stats.violations, stats.messages_sent) == (1, 0)

    def assert_forged_acquire_dropped(self, market, session, price):
        routed = market.transcript_lines()
        sent_before = market.trust.record("buyer-1").stats.messages_sent
        result = market.route_message(
            NegotiationMessage(
                session=session.session, sender="buyer-1", receiver="seller-1",
                round=5, sent_at=3, kind=MessageKind.ACQUIRE,
                package=OfferPackage(values={"price": price}),
            )
        )
        assert result.status is DeliveryStatus.NOT_LAST_OFFER
        assert result.violations == ("not-last-offer",)
        assert session.is_open
        assert market.transcript_lines() == routed
        assert market.due_messages(4) == {}
        stats = market.trust.record("buyer-1").stats
        assert (stats.violations, stats.messages_sent) == (1, sent_before)

    def test_acquire_before_any_offer_dropped(self):
        market = self.fresh_market()
        session = market.commence_negotiation(self.match(), now=0)
        self.assert_forged_acquire_dropped(market, session, 15.0)

    def test_acquire_of_another_package_dropped(self):
        market = self.fresh_market()
        session = market.commence_negotiation(self.match(), now=0)
        market.route_message(self.offer(session.session, sent_at=1))
        market.due_messages(2)
        self.assert_forged_acquire_dropped(market, session, 14.0)

    @pytest.mark.parametrize("values", [
        {"price": 14.0},
        {"price": 15.000000000000002},
        {"price": 15.0, "cpu": 2.0},
        {},
    ], ids=["other-value", "next-float", "extra-issue", "no-issue"])
    def test_acquire_of_a_differing_package_dropped(self, values):
        market = self.fresh_market()
        session = market.commence_negotiation(self.match(), now=0)
        market.route_message(self.offer(session.session, value=15.0, sent_at=1))
        market.due_messages(2)
        acquire = NegotiationMessage(
            session=session.session, sender="buyer-1", receiver="seller-1",
            round=0, sent_at=2, kind=MessageKind.ACQUIRE,
            package=OfferPackage(values=values),
        )
        result = market.route_message(acquire)
        assert result.status is DeliveryStatus.NOT_LAST_OFFER
        assert session.is_open
        # The same values in a package of their own are the last offer.
        accepted = market.route_message(
            acquire._replace(package=OfferPackage(values={"price": 15.0}))
        )
        assert accepted.status is DeliveryStatus.DELIVERED
        assert session.outcome is SessionOutcome.AGREED

    def test_closed_session_rejects_offers(self):
        market = self.fresh_market()
        session = market.commence_negotiation(self.match(), now=0)
        market.route_message(
            NegotiationMessage(
                session=session.session, sender="buyer-1", receiver="seller-1",
                round=0, sent_at=1, kind=MessageKind.TERMINATE, reason="deadline",
            )
        )
        before = len(session.transcript)
        result = market.route_message(self.offer(session.session, sent_at=2))
        assert result.status is DeliveryStatus.SESSION_CLOSED
        assert len(session.transcript) == before  # nothing routed after closure

    def test_acquire_sets_agreed_outcome(self):
        market = self.fresh_market()
        session = market.commence_negotiation(self.match(), now=0)
        market.route_message(self.offer(session.session, sent_at=1))
        market.route_message(
            NegotiationMessage(
                session=session.session, sender="buyer-1", receiver="seller-1",
                round=0, sent_at=2, kind=MessageKind.ACQUIRE,
                package=OfferPackage(values={"price": 15.0}),
            )
        )
        assert session.outcome is SessionOutcome.AGREED
        assert session.final_package.values == {"price": 15.0}
        assert session.closed_at == 2

    def test_outcome_set_exactly_once(self):
        market = self.fresh_market()
        session = market.commence_negotiation(self.match(), now=0)
        market.route_message(
            NegotiationMessage(
                session=session.session, sender="buyer-1", receiver="seller-1",
                round=0, sent_at=1, kind=MessageKind.TERMINATE, reason="deadline",
            )
        )
        result = market.route_message(
            NegotiationMessage(
                session=session.session, sender="seller-1", receiver="buyer-1",
                round=0, sent_at=1, kind=MessageKind.TERMINATE, reason="deadline",
            )
        )
        assert result.status is DeliveryStatus.SESSION_CLOSED
        assert session.outcome is SessionOutcome.TERMINATED
        assert session.closed_at == 1

    def test_transcript_timestamps_non_decreasing(self):
        market = self.fresh_market()
        session = market.commence_negotiation(self.match(), now=0)
        market.route_message(self.offer(session.session, sent_at=1))
        market.route_message(
            self.offer(session.session, value=14.0, sender="buyer-1",
                       receiver="seller-1", sent_at=2)
        )
        stamps = [m.sent_at for m in session.transcript]
        assert stamps == sorted(stamps)

    def test_violations_counted_for_late_and_out_of_space(self):
        market = self.fresh_market()
        session = market.commence_negotiation(self.match(), now=0)
        market.route_message(self.offer(session.session, sent_at=25))
        assert market.trust.record("seller-1").stats.violations == 1
        market.route_message(
            self.offer(session.session, value=99.0, sent_at=2, round=1)
        )
        assert market.trust.record("seller-1").stats.violations == 2


ISSUES = ("cpu", "price", "ram")


def scanned_violations(market, session, msg):
    """Compliance violations as routing found them by scanning the sender's
    declared agenda with Agenda.issue() for every offer; the reference for
    the bounds captured at COMMENCE."""
    found = []
    if (
        msg.kind is not MessageKind.TERMINATE
        and msg.sent_at - session.commence_at > session.t_max
    ):
        found.append("past-deadline")
    if msg.kind is MessageKind.OFFER and msg.package is not None:
        agenda = market.repo.declared_agenda(msg.sender, session.product)
        if agenda is not None:
            for issue_id in session.issue_ids:
                try:
                    spec = agenda.issue(issue_id)
                except KeyError:
                    continue
                offered = msg.package.values.get(issue_id)
                if offered is None or not spec.min_value <= offered <= spec.max_value:
                    found.append(f"out-of-space:{issue_id}")
    return tuple(found)


@settings(max_examples=200, deadline=None)
@given(
    seller_issues=st.sets(st.sampled_from(ISSUES), min_size=1),
    session_issues=st.lists(st.sampled_from(ISSUES), min_size=1, max_size=3, unique=True),
    sender=st.sampled_from(["buyer-1", "seller-1"]),
    values=st.none() | st.dictionaries(
        st.sampled_from(ISSUES),
        st.sampled_from([10.0, 12.0, 20.0, 25.0]) | st.floats(0.0, 40.0),
    ),
    sent_at=st.integers(0, 40),
)
def test_route_violations_match_declared_agenda_scan(
    seller_issues, session_issues, sender, values, sent_at
):
    # The buyer declares every issue on [10, 20]; the seller declares some
    # on [12, 25], so a session issue may be missing from its agenda.
    market = Marketplace()
    market.repo = repo_with(
        ("buyer-1", Perspective.BUYER, "vm", {i: (10, 20) for i in ISSUES}),
        ("seller-1", Perspective.SELLER, "vm", {i: (12, 25) for i in seller_issues}),
    )
    match = Match("rfq-1", "ad-1", "vm", "buyer-1", "seller-1", tuple(session_issues))
    session = market.commence_negotiation(match, now=0)
    msg = NegotiationMessage(
        session=session.session, sender=sender,
        receiver="seller-1" if sender == "buyer-1" else "buyer-1",
        round=0, sent_at=sent_at, kind=MessageKind.OFFER,
        package=None if values is None else OfferPackage(values=values),
    )
    expected = scanned_violations(market, session, msg)
    result = market.route_message(msg)
    assert result.status is DeliveryStatus.DELIVERED
    assert result.violations == expected
    assert market.trust.record(sender).stats.violations == len(expected)


def offer_count(session):
    """The offers in a transcript: the reference for SessionState.offer_count."""
    return sum(1 for m in session.transcript if m.kind is MessageKind.OFFER)


def offer_trails(session):
    """One pass over a transcript: its offer count and each sender's offered
    values per issue, in transcript order. The reference for the count and
    trails that route_message folds as offers are routed."""
    count = 0
    by_sender = {}
    for msg in session.transcript:
        if msg.kind is not MessageKind.OFFER:
            continue
        count += 1
        if msg.package is None:
            continue
        trails = by_sender.setdefault(msg.sender, {})
        for issue_id, value in msg.package.values.items():
            trails.setdefault(issue_id, []).append(value)
    return count, by_sender


def assert_reputation_matches_bruteforce(market):
    """Every registered agent's R equals a full rescan of closed sessions."""
    closed = [s for s in market.sessions.values() if not s.is_open]
    max_rounds = max(
        (offer_count(s) for s in closed if s.outcome is SessionOutcome.AGREED),
        default=0,
    )
    for agent in market.repo.agents():
        rec = market.trust.record(agent)
        assert rec.reputation == compute_reputation(rec.stats, max_rounds)


def assert_behavior_matches_bruteforce(market):
    """score_behavior sets every registered agent's B and stance to a full
    rescan of the closed transcripts in creation order; a second pass
    changes nothing."""
    market.score_behavior()
    exported = market.trust.export_lines()
    market.score_behavior()
    assert market.trust.export_lines() == exported
    closed = [s for s in market.sessions.values() if not s.is_open]
    for agent in market.repo.agents():
        rec = market.trust.record(agent)
        norm = compute_behavior_norm(closed, agent)
        assert rec.behavior_norm == norm
        assert rec.stance is classify_concession(norm)


def reference_due_messages(queued, now):
    """Delivery from one list per tick: the messages queued for `now` (sent
    at now - 1), in the order they were queued, split by receiver."""
    inboxes = {}
    for msg in queued:
        if msg.sent_at + 1 == now:
            inboxes.setdefault(msg.receiver, []).append(msg)
    return inboxes


#: One step of a delivery interleaving: commence the next session, or have
#: a sender send an offer or a terminate in one of the two sessions at a tick
#: and round. A send in a session not yet commenced or closed, or from an
#: outsider, is rejected and queues nothing.
DELIVERY_STEPS = st.one_of(
    st.just(("commence",)),
    st.tuples(
        st.just("send"),
        st.sampled_from(("s-9", "s-10")),
        st.sampled_from(("buyer-1", "seller-1", "seller-2", "outsider")),
        st.sampled_from((MessageKind.OFFER, MessageKind.OFFER, MessageKind.TERMINATE)),
        st.integers(0, 2),
        st.integers(0, 3),
    ),
)


class TestDelivery:
    """The queue files each message under its receiver; due_messages must
    hand the same messages to the same receivers, in queue order, as one
    list per tick split by receiver. Each agent sorts its own inbox."""

    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(DELIVERY_STEPS, max_size=14))
    def test_due_messages_equals_the_queued_split(self, steps):
        market = Marketplace()
        market.repo = repo_with(
            ("buyer-1", Perspective.BUYER, "vm", {"price": (10, 20)}),
            ("seller-1", Perspective.SELLER, "vm", {"price": (10, 20)}),
            ("seller-2", Perspective.SELLER, "vm", {"price": (10, 20)}),
            ("outsider", Perspective.BUYER, "vm", {"price": (10, 20)}),
        )
        # s-9 is created before s-10, which sorts first.
        market._session_seq = 8
        sellers = iter(("seller-1", "seller-2"))
        for step in steps:
            if step[0] == "commence":
                seller = next(sellers, None)
                if seller is not None:
                    match = Match(f"rfq-{seller}", f"ad-{seller}", "vm", "buyer-1",
                                  seller, ("price",))
                    market.commence_negotiation(match, now=0)
                continue
            _, session, sender, kind, sent_at, round_ = step
            receiver = "buyer-1" if sender != "buyer-1" else (
                "seller-1" if session == "s-9" else "seller-2"
            )
            market.route_message(NegotiationMessage(
                session=session, sender=sender, receiver=receiver, round=round_,
                sent_at=sent_at, kind=kind,
                package=OfferPackage({"price": 15.0}) if kind is MessageKind.OFFER else None,
                reason="deadline" if kind is MessageKind.TERMINATE else None,
            ))
        queued = list(market._log)
        for now in range(5):
            expected = reference_due_messages(queued, now)
            got = market.due_messages(now)
            assert got == expected
        assert not market.has_pending_messages()


class TestWatchdog:
    def closed_session_with_offers(self, values, agent="seller-1", session="s-1"):
        state = SessionState(
            session=session, product="vm", buyer="buyer-1", seller="seller-1",
            issue_ids=("price",), commence_at=0, t_max=50,
        )
        for i, value in enumerate(values):
            state.transcript.append(
                NegotiationMessage(
                    session=session, sender=agent, receiver="buyer-1", round=i,
                    sent_at=i + 1, kind=MessageKind.OFFER,
                    package=OfferPackage(values={"price": value}),
                )
            )
        state.outcome = SessionOutcome.TERMINATED
        state.closed_at = len(values) + 1
        return state

    def test_equal_steps_classified_linear(self):
        session = self.closed_session_with_offers([100.0, 90.0, 80.0, 70.0])
        b = compute_behavior_norm([session], "seller-1")
        assert b == 1.0
        assert classify_concession(b) is Stance.LINEAR

    def test_halving_steps_classified_headstrong(self):
        session = self.closed_session_with_offers([100.0, 90.0, 85.0, 82.5])
        b = compute_behavior_norm([session], "seller-1")
        assert b == pytest.approx(0.5, abs=1e-12)
        assert classify_concession(b) is Stance.HEADSTRONG

    def test_no_triples_defaults_to_one(self):
        session = self.closed_session_with_offers([100.0, 90.0])
        assert compute_behavior_norm([session], "seller-1") == 1.0
        assert compute_behavior_norm([], "seller-1") == 1.0

    def test_open_sessions_ignored(self):
        session = self.closed_session_with_offers([100.0, 90.0, 85.0])
        session.outcome = SessionOutcome.OPEN
        assert compute_behavior_norm([session], "seller-1") == 1.0

    @pytest.mark.parametrize("lam,stance", [
        (0.5, Stance.HEADSTRONG), (1.0, Stance.LINEAR), (2.0, Stance.CONCEDER),
    ])
    def test_scripted_constant_ratio_recovered(self, lam, stance):
        values = [200.0]
        delta = -8.0
        for _ in range(6):
            values.append(values[-1] + delta)
            delta *= lam
        session = self.closed_session_with_offers(values)
        b = compute_behavior_norm([session], "seller-1")
        assert b == pytest.approx(lam, abs=1e-9)
        assert classify_concession(b) is stance

    def test_reputation_defaults(self):
        assert compute_reputation(TrustStats(), 0) == 0.5

    def test_reputation_maximum(self):
        stats = TrustStats(
            sessions_observed=2, agreements=2, violations=0,
            messages_sent=10, rounds_total=0,
        )
        assert compute_reputation(stats, 8) == 1.0

    def test_reputation_minimum(self):
        stats = TrustStats(
            sessions_observed=2, agreements=0, violations=10, messages_sent=10,
        )
        assert compute_reputation(stats, 8) == 0.0

    def test_reputation_bounded(self):
        rng = random.Random(13)
        for _ in range(300):
            sessions = rng.randint(0, 10)
            agreements = rng.randint(0, sessions) if sessions else 0
            messages = rng.randint(0, 40)
            stats = TrustStats(
                sessions_observed=sessions,
                agreements=agreements,
                violations=rng.randint(0, messages) if messages else 0,
                messages_sent=messages,
                rounds_total=sum(rng.randint(1, 12) for _ in range(agreements)),
            )
            r = compute_reputation(stats, 12)
            assert 0.0 <= r <= 1.0

    def test_trust_export_is_stable(self):
        market = Marketplace()
        market.repo.register_agent("a1", Perspective.BUYER)
        market.repo.register_agent("a2", Perspective.SELLER)
        market.recompute_trust()
        assert market.trust.export_lines() == market.trust.export_lines()
        assert len(market.trust.export_lines()) == 2


def reference_trail_ratios(trails):
    """trail_ratios as one concession_rate call per offer triple."""
    ratios = []
    for issue_id in sorted(trails):
        trail = trails[issue_id]
        for i in range(2, len(trail)):
            lam = concession_rate(trail[i - 2], trail[i - 1], trail[i])
            if lam is not None:
                ratios.append(lam)
    return ratios


def left_to_right_mean(ratios):
    total = 0.0
    for ratio in ratios:
        total += ratio
    return max(0.0, total / len(ratios)) if ratios else 1.0


class TestRatioLoops:
    bits = staticmethod(struct.Struct("<d").pack)

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(
        st.sampled_from(("price", "memory", "disk")),
        st.lists(
            st.sampled_from((0.0, 1.0, 2.0, math.nan, math.inf, -math.inf)) | st.floats(),
            max_size=8,
        ),
    ))
    def test_trail_ratios_equal_concession_rate(self, trails):
        got = trail_ratios(trails)
        assert [self.bits(r) for r in got] == [
            self.bits(r) for r in reference_trail_ratios(trails)
        ]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(allow_nan=False) | st.sampled_from((1e16, -1e16, 1.0))))
    def test_behavior_norm_sums_left_to_right(self, ratios):
        assert self.bits(behavior_norm(ratios)) == self.bits(left_to_right_mean(ratios))

    def test_behavior_norm_is_not_compensated(self):
        # A compensated sum (Python 3.12's sum()) keeps the 1.0: mean 1/3.
        assert behavior_norm([1e16, 1.0, -1e16]) == 0.0
        assert behavior_norm([1e16, 1.0, -1e16]) == left_to_right_mean([1e16, 1.0, -1e16])


class TestIncrementalWatchdog:
    AGENTS = ("b1", "b2", "s1", "s2")

    def market(self):
        market = Marketplace()
        ranges = {"price": (10, 20), "memory": (1, 8)}
        market.repo = repo_with(
            *((a, Perspective.BUYER if a[0] == "b" else Perspective.SELLER, "vm", ranges)
              for a in self.AGENTS)
        )
        return market

    def commence(self, market, i, buyer="b1", seller="s1"):
        match = Match(f"rfq-{i}", f"ad-{i}", "vm", buyer, seller, ("price", "memory"))
        return market.commence_negotiation(match, now=0)

    def send(self, market, session, sender, kind, sent_at, values=None):
        buyer, seller = session.participants()
        package = OfferPackage(values=values) if values is not None else None
        return market.route_message(
            NegotiationMessage(
                session=session.session, sender=sender,
                receiver=seller if sender == buyer else buyer,
                round=len(session.transcript), sent_at=sent_at, kind=kind,
                package=package, reason="deadline" if kind is MessageKind.TERMINATE else None,
            )
        )

    @pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.name)
    def test_scores_equal_bruteforce_after_every_close(self, path, monkeypatch):
        # R after every close; B and stance once, from the end-of-run pass.
        checked = []
        refresh = Marketplace.recompute_trust

        def refresh_and_check(market):
            refresh(market)
            assert_reputation_matches_bruteforce(market)
            checked.append(market)

        monkeypatch.setattr(Marketplace, "recompute_trust", refresh_and_check)
        _, _, market = run_simulation_with_market(
            load_scenario(path.read_text(encoding="utf-8"))
        )
        closed = sum(1 for s in market.sessions.values() if not s.is_open)
        assert closed > 0
        assert len(checked) == closed
        assert_behavior_matches_bruteforce(market)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_out_of_order_closes_equal_bruteforce(self, data):
        market = self.market()
        sessions = [
            self.commence(
                market, i,
                buyer=data.draw(st.sampled_from(["b1", "b2"])),
                seller=data.draw(st.sampled_from(["s1", "s2"])),
            )
            for i in range(data.draw(st.integers(1, 8)))
        ]
        # Each sender concedes by a drawn step per offer, so its ratios are
        # positive and B is not floored at 0; wide-ranging steps make the
        # float sum of B depend on its order.
        step = st.floats(min_value=0.001, max_value=3.0)
        standing = {}
        order = data.draw(st.permutations(sessions))
        # Tick 1 closes nothing, so the first session to close has offers
        # too; sessions left open keep offers that B must not count.
        closes = [None, *order[:data.draw(st.integers(1, len(order)))]]
        for tick, closing in enumerate(closes, start=1):
            for session in [s for s in sessions if s.is_open]:
                for _ in range(data.draw(st.integers(0, 6))):
                    # Any agent may try to send; outsiders are rejected.
                    sender = data.draw(st.sampled_from(session.participants() + self.AGENTS))
                    price, memory = standing.get((session.session, sender), (30.0, 30.0))
                    values = {"price": price - data.draw(step), "memory": memory - data.draw(step)}
                    standing[session.session, sender] = (values["price"], values["memory"])
                    self.send(market, session, sender, MessageKind.OFFER, tick, values)
            if closing is None:
                continue
            kind = data.draw(st.sampled_from([MessageKind.ACQUIRE, MessageKind.TERMINATE]))
            sender = data.draw(st.sampled_from(closing.participants()))
            values = {"price": 15.0, "memory": 4.0}
            if kind is MessageKind.ACQUIRE:
                # An acquire must echo the other side's last offer.
                other = closing.seller if sender == closing.buyer else closing.buyer
                offered = closing.last_offer(other)
                if offered is None:
                    self.send(market, closing, other, MessageKind.OFFER, tick, values)
                else:
                    values = dict(offered.values)
            self.send(market, closing, sender, kind, tick, values)
            assert not closing.is_open
            assert_reputation_matches_bruteforce(market)
        assert_behavior_matches_bruteforce(market)

    def test_close_folds_only_that_session(self, monkeypatch):
        # Neither the close nor the end-of-run pass walks a transcript: B is
        # scored from the trails folded as offers were routed.
        market = self.market()
        sessions = [self.commence(market, i) for i in range(3)]
        for tick in range(1, 5):
            for session in sessions:
                for sender in session.participants():
                    values = {"price": 20.0 - tick * tick, "memory": 1.0 + tick}
                    self.send(market, session, sender, MessageKind.OFFER, tick, values)
        for session in sessions[:2]:
            self.send(market, session, "b1", MessageKind.TERMINATE, 5)

        class Unwalkable(list):
            def __iter__(self):
                raise AssertionError("the watchdog walked a transcript")

            __reversed__ = __iter__

        def forbidden(*args):
            raise AssertionError("the watchdog rescanned closed transcripts")

        for session in sessions:
            session.transcript = Unwalkable(session.transcript)
        monkeypatch.setattr(marketplace, "session_ratios", forbidden)
        monkeypatch.setattr(marketplace, "compute_behavior_norm", forbidden)
        # Neither transcript scan is left in the marketplace to call.
        assert not hasattr(marketplace, "offer_trails")
        assert not callable(sessions[2].offer_count)
        self.send(market, sessions[2], "s1", MessageKind.TERMINATE, 5)
        assert not sessions[2].is_open
        market.score_behavior()
        for session in sessions:
            session.transcript = list.copy(session.transcript)
        monkeypatch.undo()
        assert_reputation_matches_bruteforce(market)
        assert_behavior_matches_bruteforce(market)

    def test_a_run_that_closes_nothing_adds_no_record(self):
        # Cut off at tick 2, every session is still open. Only routing has
        # made records: one per agent that sent a message, at the default B
        # and stance. buyer-01 has sent nothing, so it has no record.
        scenario = load_scenario(
            (SCENARIOS[0].parent / "market-10x5.yaml").read_text(encoding="utf-8")
        )
        _, _, market = run_simulation_with_market(replace(scenario, t_end=2))
        assert market.sessions and all(s.is_open for s in market.sessions.values())
        senders = {msg.sender for msg in market._log} - {MARKETPLACE_ID}
        assert "buyer-01" in set(market.repo.agents()) - senders
        assert [rec.agent for rec in market.trust.records()] == sorted(senders)
        for rec in market.trust.records():
            assert (rec.behavior_norm, rec.stance) == (1.0, Stance.LINEAR)

    @pytest.mark.parametrize("path", SCENARIOS, ids=lambda p: p.name)
    def test_each_session_binds_the_archived_stats(self, path):
        # Routing counts a message on the stats it bound to the session at the
        # sender's first routed message there, so each bound object must be
        # the one the archive holds, and bound exactly for the parties that
        # had a message routed.
        _, _, market = run_simulation_with_market(load_scenario(path.read_text(encoding="utf-8")))
        bound = 0
        for session in market.sessions.values():
            routed = {msg.sender for msg in session.transcript} - {MARKETPLACE_ID}
            for party, stats in (
                (session.buyer, session.buyer_stats), (session.seller, session.seller_stats)
            ):
                assert (stats is not None) == (party in routed)
                if stats is not None:
                    assert stats is market.trust.record(party).stats
                    bound += 1
        assert bound

    def test_offer_trails_match_the_references(self):
        market = self.market()
        session = self.commence(market, 0)
        for tick in range(1, 7):
            for sender in session.participants():
                values = {"price": 20.0 - tick * tick, "memory": 1.0 + tick % 3}
                self.send(market, session, sender, MessageKind.OFFER, tick, values)
        count, trails = offer_trails(session)
        assert count == session.offer_count == 12
        assert trails == session.trails
        for agent in session.participants():
            assert marketplace.trail_ratios(trails[agent]) == (
                marketplace.session_ratios(session, agent)
            )

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_routed_trails_equal_a_transcript_pass(self, data):
        # Every kind of rejected send is drawn: an unknown session, an
        # outsider, a routed commence, a send after the close and an acquire
        # of anything but the other side's last offer. None may reach the
        # count or the trails, which must equal a pass over the transcript
        # before and after the close, which leaves both as they are.
        market = self.market()
        sessions = [
            self.commence(market, i, buyer=data.draw(st.sampled_from(["b1", "b2"])))
            for i in range(data.draw(st.integers(1, 3)))
        ]
        value = st.sampled_from([10.0, 15.0, 20.0]) | st.floats(0.0, 30.0)
        package = st.none() | st.dictionaries(
            st.sampled_from(["price", "memory", "disk"]), value, max_size=3
        )
        for tick in range(1, data.draw(st.integers(1, 25)) + 1):
            session = data.draw(st.sampled_from(sessions))
            kind = data.draw(st.sampled_from(list(MessageKind)))
            sender = data.draw(st.sampled_from(self.AGENTS))
            values = data.draw(package)
            if kind is MessageKind.ACQUIRE and data.draw(st.booleans()):
                other = session.seller if sender == session.buyer else session.buyer
                offered = session.last_offer(other)
                values = None if offered is None else dict(offered.values)
            target = data.draw(st.sampled_from([session.session, "s-unknown"]))
            before = [(s.offer_count, copy.deepcopy(s.trails)) for s in sessions]
            result = market.route_message(NegotiationMessage(
                session=target, sender=sender, receiver="b1", round=tick,
                sent_at=data.draw(st.sampled_from([tick, tick - 1])), kind=kind,
                package=None if values is None else OfferPackage(values=values),
            ))
            event(result.status.value)
            routed = result.status is DeliveryStatus.DELIVERED
            for s, (count, trails) in zip(sessions, before):
                if not (routed and s is session and kind is MessageKind.OFFER):
                    assert (s.offer_count, s.trails) == (count, trails)
                assert offer_trails(s) == (s.offer_count, s.trails)


class TestIncrementalMatchmaking:
    """run_matchmaking and prospective_matches scan only the stale products;
    both must equal a full pass over every RFQ."""

    BUYERS = ("b1", "b2", "b3")
    SELLERS = ("s1", "s2", "s3")
    PRODUCTS = ("db", "gpu", "vm")
    FLIPPED = {Perspective.BUYER: Perspective.SELLER, Perspective.SELLER: Perspective.BUYER}

    def market(self, price_ranges, require_overlap=True):
        """price_ranges: agent -> (lo, hi), the same for every product."""
        market = Marketplace(require_overlap=require_overlap)
        for agent in self.BUYERS + self.SELLERS:
            market.repo.register_agent(
                agent, Perspective.BUYER if agent[0] == "b" else Perspective.SELLER
            )
            for product in self.PRODUCTS:
                self.declare(market, agent, product, price_ranges.get(agent, (10, 20)))
        return market

    def declare(self, market, agent, product, price):
        issues = (make_issue("memory", 0.5, 1, 8), make_issue("price", 0.5, *price))
        market.repo.declare_agenda(agent, product, make_agenda(*issues))

    def send(self, market, session, sender, kind, tick, price=12.0):
        market.route_message(NegotiationMessage(
            session=session.session, sender=sender,
            receiver=session.seller if sender == session.buyer else session.buyer,
            round=len(session.transcript), sent_at=tick, kind=kind,
            package=OfferPackage(values={"memory": 4.0, "price": price}),
            reason="deadline" if kind is MessageKind.TERMINATE else None,
        ))

    def test_reputation_rise_rematches(self):
        market = self.market({})
        market.repo.submit_advertisement("s1", "vm")
        market.repo.submit_rfq("b1", "vm", min_reputation=0.7)
        market.repo.submit_advertisement("s1", "db")
        market.repo.submit_rfq("b2", "db")
        [deal] = market.run_matchmaking(0)
        assert market.run_matchmaking(1) == []
        self.send(market, deal, "s1", MessageKind.OFFER, 1)
        self.send(market, deal, "b2", MessageKind.ACQUIRE, 1)  # s1's R: 0.5 -> 0.8
        assert market.repo.stale_products() == {"db", "vm"}
        [session] = market.run_matchmaking(2)
        assert (session.buyer, session.seller, session.product) == ("b1", "s1", "vm")

    def test_agenda_change_rematches(self):
        market = self.market({"b1": (1, 5)})
        market.repo.submit_advertisement("s1", "vm")
        market.repo.submit_rfq("b1", "vm")
        assert market.run_matchmaking(0) == []
        self.declare(market, "b1", "vm", (5, 15))
        [session] = market.run_matchmaking(1)
        assert (session.buyer, session.seller) == ("b1", "s1")

    def test_role_change_rematches(self):
        market = self.market({})
        market.repo.submit_advertisement("b2", "vm")
        market.repo.submit_rfq("b1", "vm")
        assert market.run_matchmaking(0) == []
        market.repo.register_agent("b2", Perspective.SELLER)
        [session] = market.run_matchmaking(1)
        assert (session.buyer, session.seller) == ("b1", "b2")

    def test_quiet_tick_scans_nothing(self, monkeypatch):
        market = self.market({})
        market.repo.submit_advertisement("s1", "vm")
        market.repo.submit_rfq("b1", "vm")
        assert len(market.run_matchmaking(0)) == 1

        def forbidden(*args, **kwargs):
            raise AssertionError("a quiet tick ran a match pass")

        monkeypatch.setattr(marketplace, "match_alliances", forbidden)
        assert market.prospective_matches() == []
        assert market.run_matchmaking(1) == []

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_stale_scan_equals_full_pass(self, data):
        agents = st.sampled_from(self.BUYERS + self.SELLERS)
        products = st.sampled_from(self.PRODUCTS)
        prices = st.integers(0, 20).flatmap(
            lambda lo: st.tuples(st.just(lo), st.integers(lo + 1, 30))
        )
        market = self.market(
            data.draw(st.dictionaries(agents, prices)), require_overlap=data.draw(st.booleans())
        )
        repo = market.repo
        matched: set[tuple[str, str]] = set()
        spied: list[list[Match]] = []

        def spy(*args, **kwargs):
            spied.append(full_pass(*args, **kwargs))
            return spied[-1]

        full_pass = marketplace.match_alliances
        events = st.sampled_from(["ad", "rfq", "agenda", "role", "offer", "close", "close"])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(marketplace, "match_alliances", spy)
            for tick in range(data.draw(st.integers(1, 16))):
                for event in data.draw(st.lists(events, max_size=3)):
                    agent, product = data.draw(agents), data.draw(products)
                    open_now = sorted(
                        sid for sid, rec in market.sessions.items() if rec.is_open
                    )
                    if event == "ad":
                        repo.submit_advertisement(
                            agent, product, posted_at=tick,
                            issues=data.draw(st.sampled_from([None, ("price",)])),
                        )
                    elif event == "rfq":
                        repo.submit_rfq(
                            agent, product, posted_at=tick,
                            issues=data.draw(st.sampled_from([None, ("price",)])),
                            min_reputation=data.draw(st.sampled_from([0.0, 0.4, 0.6, 0.9])),
                        )
                    elif event == "agenda":
                        self.declare(market, agent, product, data.draw(prices))
                    elif event == "role":
                        repo.register_agent(agent, self.FLIPPED[repo.agent_role(agent)])
                    elif open_now:
                        # Offers out of the sender's range lower its compliance;
                        # closes change agreement rates and rounds.
                        session = market.sessions[data.draw(st.sampled_from(open_now))]
                        sender = data.draw(st.sampled_from(session.participants()))
                        if event == "offer":
                            price = data.draw(st.sampled_from([12.0, 99.0]))
                            self.send(market, session, sender, MessageKind.OFFER, tick, price)
                        else:
                            kind = data.draw(st.sampled_from(
                                [MessageKind.ACQUIRE, MessageKind.TERMINATE]
                            ))
                            self.send(market, session, sender, kind, tick)

                expected = full_pass(
                    repo, market.trust, exclude=matched,
                    require_overlap=market.require_overlap,
                )
                agreed = {
                    (agent, s.product)
                    for s in market.sessions.values()
                    if s.outcome is SessionOutcome.AGREED
                    for agent in s.participants()
                }
                commencing = [
                    m for m in expected
                    if (m.buyer, m.product) not in agreed
                    and (m.seller, m.product) not in agreed
                ]
                assert market.prospective_matches() == commencing

                spied.clear()
                created = market.run_matchmaking(tick)
                assert (spied[-1] if spied else []) == expected
                assert [(s.buyer, s.seller, s.product, s.issue_ids) for s in created] == [
                    (m.buyer, m.seller, m.product, m.issue_ids) for m in commencing
                ]
                matched.update((m.rfq_id, m.ad_id) for m in expected)
                assert market.open_count == sum(
                    rec.is_open for rec in market.sessions.values()
                )
