"""Core type validation and score normalization."""

import dataclasses
import random
import typing

import pytest
from hypothesis import given, strategies as st

from agorasim.core import (
    Agenda,
    BadDeadlineError,
    BadRangeError,
    Direction,
    EmptyAgendaError,
    IssueSpec,
    MessageKind,
    NegotiationMessage,
    OfferPackage,
    OutOfRangeError,
    Perspective,
    WeightSumViolation,
    issue_score,
    restrict_agenda,
    validate_agenda,
)
from agorasim.tactics import Response, ResponseKind
from conftest import ISSUE_POOL, agendas, make_agenda, make_issue


class TestValidateAgenda:
    def test_single_issue_identity(self):
        agenda = Agenda(issues=(make_issue(weight=1.0),), t_max=20)
        assert validate_agenda(agenda) is agenda

    def test_weight_sum_violation(self):
        agenda = Agenda(
            issues=(
                make_issue("price", weight=0.5),
                make_issue("memory", weight=0.6),
            ),
            t_max=20,
        )
        with pytest.raises(WeightSumViolation):
            validate_agenda(agenda)

    def test_three_issue_valid(self):
        agenda = Agenda(
            issues=(
                make_issue("price", weight=0.5),
                make_issue("memory", weight=0.3),
                make_issue("disk", weight=0.2),
            ),
            t_max=20,
        )
        assert validate_agenda(agenda) is agenda

    def test_empty_agenda(self):
        with pytest.raises(EmptyAgendaError):
            validate_agenda(Agenda(issues=(), t_max=20))

    def test_bad_range(self):
        agenda = Agenda(issues=(make_issue(lo=20.0, hi=10.0),), t_max=20)
        with pytest.raises(BadRangeError):
            validate_agenda(agenda)

    def test_width_beyond_float_range_rejected(self):
        # min < max holds, but max - min is inf and offers would be NaN.
        agenda = Agenda(issues=(make_issue(lo=-1.0e308, hi=1.0e308),), t_max=20)
        with pytest.raises(BadRangeError, match="beyond float range"):
            validate_agenda(agenda)

    def test_equal_range_rejected(self):
        agenda = Agenda(issues=(make_issue(lo=10.0, hi=10.0),), t_max=20)
        with pytest.raises(BadRangeError):
            validate_agenda(agenda)

    def test_bad_deadline(self):
        agenda = Agenda(issues=(make_issue(),), t_max=-1)
        with pytest.raises(BadDeadlineError):
            validate_agenda(agenda)

    def test_duplicate_issue_ids(self):
        agenda = Agenda(
            issues=(make_issue("price", weight=0.5), make_issue("price", weight=0.5)),
            t_max=20,
        )
        with pytest.raises(BadRangeError):
            validate_agenda(agenda)

    @pytest.mark.parametrize("weight", [0.0, -0.1, 1.5])
    def test_weight_outside_unit_interval(self, weight):
        agenda = Agenda(issues=(make_issue(weight=weight),), t_max=20)
        with pytest.raises(BadRangeError):
            validate_agenda(agenda)

    def test_mutations_of_valid_agenda_each_fail(self):
        # Accepting iff every invariant holds: flip one invariant at a time.
        base = (
            make_issue("price", weight=0.5),
            make_issue("memory", weight=0.3),
            make_issue("disk", weight=0.2),
        )
        validate_agenda(Agenda(issues=base, t_max=20))
        broken = [
            Agenda(issues=(), t_max=20),
            Agenda(issues=base[:2], t_max=20),  # weights no longer sum to 1
            Agenda(issues=base, t_max=-1),
            Agenda(
                issues=(base[0], base[1], make_issue("disk", weight=0.2, lo=5, hi=5)),
                t_max=20,
            ),
        ]
        for agenda in broken:
            with pytest.raises(ValueError):
                validate_agenda(agenda)


class TestIssueScore:
    def test_buyer_best_boundary(self):
        assert issue_score(make_issue(), 10.0, Perspective.BUYER) == 1.0

    def test_seller_best_boundary(self):
        assert issue_score(make_issue(), 20.0, Perspective.SELLER) == 1.0

    def test_buyer_midpoint(self):
        assert issue_score(make_issue(), 15.0, Perspective.BUYER) == pytest.approx(0.5)

    @pytest.mark.parametrize("offered", [9.999, 20.001])
    def test_out_of_range(self, offered):
        with pytest.raises(OutOfRangeError):
            issue_score(make_issue(), offered, Perspective.BUYER)

    def test_perspectives_are_complementary(self):
        rng = random.Random(42)
        for _ in range(500):
            lo = rng.uniform(-100, 100)
            hi = lo + rng.uniform(0.1, 200)
            spec = make_issue(lo=lo, hi=hi)
            offered = rng.uniform(lo, hi)
            buyer = issue_score(spec, offered, Perspective.BUYER)
            seller = issue_score(spec, offered, Perspective.SELLER)
            assert 0.0 <= buyer <= 1.0
            assert 0.0 <= seller <= 1.0
            assert buyer + seller == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_offered(self):
        rng = random.Random(7)
        spec = make_issue(lo=0.0, hi=50.0)
        for _ in range(200):
            a = rng.uniform(0, 50)
            b = rng.uniform(0, 50)
            lo, hi = min(a, b), max(a, b)
            if lo == hi:
                continue
            assert issue_score(spec, lo, Perspective.BUYER) >= issue_score(
                spec, hi, Perspective.BUYER
            )
            assert issue_score(spec, lo, Perspective.SELLER) <= issue_score(
                spec, hi, Perspective.SELLER
            )


class TestRestrictAgenda:
    def test_renormalizes_weights(self):
        agenda = make_agenda(
            make_issue("price", weight=0.5),
            make_issue("memory", weight=0.3),
            make_issue("disk", weight=0.2),
        )
        restricted = restrict_agenda(agenda, ["price", "memory"])
        assert restricted.issue_ids() == ("price", "memory")
        assert sum(s.weight for s in restricted.issues) == pytest.approx(1.0, abs=1e-12)
        assert restricted.issues[0].weight == pytest.approx(0.625)

    def test_identity_when_all_kept(self):
        agenda = make_agenda(
            make_issue("price", weight=0.5), make_issue("memory", weight=0.5)
        )
        restricted = restrict_agenda(agenda, ["price", "memory"])
        assert restricted.issue_ids() == agenda.issue_ids()

    def test_empty_restriction_rejected(self):
        with pytest.raises(EmptyAgendaError):
            restrict_agenda(make_agenda(), ["nonexistent"])

    def test_invalid_restriction_rejected_on_every_call(self):
        agenda = Agenda(issues=(make_issue("price", lo=20.0, hi=10.0),), t_max=20)
        for _ in range(2):
            with pytest.raises(BadRangeError):
                restrict_agenda(agenda, ["price"])


def _reference_restrict(agenda: Agenda, issue_ids) -> Agenda:
    """restrict_agenda as it was before it kept its results."""
    wanted = set(issue_ids)
    kept = [spec for spec in agenda.issues if spec.issue_id in wanted]
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
    return validate_agenda(Agenda(issues=rescaled, t_max=agenda.t_max))


class TestRestrictionMemo:
    @given(agendas(), st.data())
    def test_memo_equals_a_fresh_restriction(self, agenda, data):
        before = (hash(agenda), repr(agenda))
        twin = Agenda(issues=agenda.issues, t_max=agenda.t_max)
        declared = set(agenda.issue_ids())
        ids = data.draw(st.lists(st.sampled_from(ISSUE_POOL), max_size=8))
        if not declared & set(ids):
            for _ in range(2):
                with pytest.raises(EmptyAgendaError):
                    restrict_agenda(agenda, ids)
        else:
            restricted = restrict_agenda(agenda, ids)
            assert restricted == _reference_restrict(agenda, ids)
            again = data.draw(st.permutations(ids + data.draw(st.lists(st.sampled_from(ids)))))
            assert restrict_agenda(agenda, again) is restricted
            assert restrict_agenda(agenda, iter(again)) is restricted
            later = dataclasses.replace(agenda, t_max=agenda.t_max + 1)
            assert restrict_agenda(later, ids).t_max == agenda.t_max + 1
            assert restrict_agenda(agenda, ids).t_max == agenda.t_max
        assert (hash(agenda), repr(agenda)) == before
        assert agenda == twin and twin == agenda


class TestIssueRows:
    @given(agendas(), st.data())
    def test_rows_are_built_once_and_kept_out_of_equality(self, agenda, data):
        before = (hash(agenda), repr(agenda))
        twin = Agenda(issues=agenda.issues, t_max=agenda.t_max)
        rows = agenda.rows()
        n = len(agenda.issues)
        assert rows == tuple(
            (s.issue_id, s.weight, s.min_value, s.max_value,
             s.direction is Direction.ASCENDING, 1.0 / (n * s.weight))
            for s in agenda.issues
        )
        assert agenda.rows() is rows
        assert (hash(agenda), repr(agenda)) == before
        assert agenda == twin and twin == agenda and hash(twin) == hash(agenda)
        assert "_rows" not in repr(agenda)
        assert dataclasses.replace(agenda, t_max=agenda.t_max + 1)._rows is None
        # A restriction is shared, so each issue set builds its rows once.
        ids = data.draw(st.lists(st.sampled_from(agenda.issue_ids()), min_size=1))
        restricted = restrict_agenda(agenda, ids)
        assert restrict_agenda(agenda, reversed(ids)).rows() is restricted.rows()


class TestRecords:
    """The per-message records are NamedTuples: immutable, tuple-equal."""

    RECORDS = {
        "offer-package": OfferPackage({"price": 15.0}),
        "message": NegotiationMessage(
            session="s-1", sender="seller-1", receiver="buyer-1", round=0,
            sent_at=1, kind=MessageKind.OFFER, package=OfferPackage({"price": 15.0}),
        ),
        "response": Response(kind=ResponseKind.COUNTER, package=OfferPackage({"price": 15.0})),
    }

    @pytest.mark.parametrize("name", sorted(RECORDS))
    def test_fields_cannot_be_assigned(self, name):
        record = self.RECORDS[name]
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None

    def test_copies_are_made_with_replace(self):
        msg = self.RECORDS["message"]
        later = msg._replace(round=1, sent_at=3)
        assert (later.round, later.sent_at) == (1, 3)
        assert later._replace(round=0, sent_at=1) == msg
        assert (msg.round, msg.sent_at) == (0, 1)

    def test_equal_to_the_tuple_of_their_fields(self):
        package = OfferPackage({"price": 15.0})
        assert package == ({"price": 15.0},)
        (values,) = package
        assert values == {"price": 15.0}
        assert Response(ResponseKind.TERMINATE) == (ResponseKind.TERMINATE, None)


def assert_complete(record):
    """A record holds one item per field of its type and equals the record
    that its type builds from those fields by keyword. A record built by
    tuple.__new__ without a field added to its type fails both."""
    cls = type(record)
    assert len(record) == len(cls._fields), (cls.__name__, cls._fields, record)
    assert record == cls(**dict(zip(cls._fields, record)))


class TestRecordBuilders:
    """The per-message builders make each record in one C call
    (tuple.__new__), which fills no defaults: each must pass every field."""

    AGENDA = make_agenda(make_issue("price", 0.6, 10, 20), make_issue("memory", 0.4, 1, 8))

    def offer(self, price=14.0, memory=4.0, sent_at=3):
        return NegotiationMessage(
            session="s-1", sender="seller-1", receiver="buyer-1", round=2,
            sent_at=sent_at, kind=MessageKind.OFFER,
            package=OfferPackage(values={"price": price, "memory": memory}),
        )

    @pytest.mark.parametrize("kind, package, reason", [
        (MessageKind.OFFER, OfferPackage({"price": 12.0}), None),
        (MessageKind.TERMINATE, None, "deadline"),
        (MessageKind.ACQUIRE, OfferPackage({"price": 13.0}), None),
    ])
    def test_emit(self, kind, package, reason):
        from agorasim.agent import _emit
        from conftest import make_agent, make_entry

        entry = make_entry(session="s-7", opponent="seller-3")
        entry.next_round = 4
        msg = _emit(make_agent(agent_id="buyer-2"), entry, 9, kind, package, reason)
        assert msg == NegotiationMessage(
            session="s-7", sender="buyer-2", receiver="seller-3", round=4,
            sent_at=9, kind=kind, package=package, reason=reason,
        )
        assert entry.next_round == 5
        assert_complete(msg)

    def test_commence_negotiation(self):
        from agorasim.core import MARKETPLACE_ID, CommenceInfo
        from agorasim.marketplace import Marketplace, Match

        market = Marketplace()
        for agent, role in (("b1", Perspective.BUYER), ("s1", Perspective.SELLER)):
            market.repo.register_agent(agent, role)
            market.repo.declare_agenda(agent, "vm", self.AGENDA)
        session = market.commence_negotiation(
            Match("rfq-1", "ad-1", "vm", "b1", "s1", ("price", "memory")), now=6
        )
        info = CommenceInfo(
            product="vm", issue_ids=("price", "memory"), t_max=20,
            buyer="b1", seller="s1", initiator="s1",
        )
        assert session.transcript == [
            NegotiationMessage(
                session=session.session, sender=MARKETPLACE_ID, receiver=receiver,
                round=i, sent_at=6, kind=MessageKind.COMMENCE, commence=info,
            )
            for i, receiver in enumerate(("b1", "s1"))
        ]
        for msg in session.transcript:
            assert_complete(msg)

    @pytest.mark.parametrize("t, t_max_eff", [(0.0, 20.0), (7.0, 20.0), (3.0, 0.0)])
    def test_generate_offer_package(self, t, t_max_eff):
        from agorasim.tactics import TacticParams, generate_offer_package

        package = generate_offer_package(self.AGENDA, t, t_max_eff, TacticParams(k=0.1))
        assert package == OfferPackage(values=dict(package.values))
        assert_complete(package)

    def test_jittered(self):
        from agorasim.agent import _jittered
        from conftest import make_agent

        state = make_agent(jitter=0.3, rng=random.Random(5))
        package = _jittered(state, self.AGENDA, OfferPackage({"price": 15.0, "memory": 4.0}))
        assert package == OfferPackage(values=dict(package.values))
        assert package.values != {"price": 15.0, "memory": 4.0}
        assert_complete(package)

    @pytest.mark.parametrize("incoming, expected_kind", [
        ({"sent_at": 30}, ResponseKind.TERMINATE),
        ({"price": 10.0, "memory": 1.0}, ResponseKind.ACQUIRE),
        ({"price": 19.0, "memory": 7.0}, ResponseKind.COUNTER),
    ])
    def test_decide_response(self, incoming, expected_kind):
        from agorasim.tactics import decide_response

        msg = self.offer(**incoming)
        planned = OfferPackage({"price": 12.0, "memory": 2.0})
        response = decide_response(self.AGENDA, Perspective.BUYER, msg, planned, 20.0)
        package = {
            ResponseKind.TERMINATE: None,
            ResponseKind.ACQUIRE: msg.package,
            ResponseKind.COUNTER: planned,
        }[expected_kind]
        assert response == Response(kind=expected_kind, package=package)
        assert_complete(response)

    def test_check_fails_when_a_field_is_added(self):
        # A type grown by one defaulted field, its record built as the
        # builders build theirs, from the old fields only.
        class Grown(typing.NamedTuple):
            kind: ResponseKind
            package: typing.Optional[OfferPackage] = None
            note: typing.Optional[str] = None

        with pytest.raises(AssertionError):
            assert_complete(tuple.__new__(Grown, (ResponseKind.TERMINATE, None)))
        assert_complete(tuple.__new__(Grown, (ResponseKind.TERMINATE, None, None)))
