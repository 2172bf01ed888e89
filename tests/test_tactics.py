"""Negotiation math: utility, concession curve, response rule, adaptation."""

import math
import random
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from agorasim import kernels
from agorasim.core import (
    Agenda,
    Direction,
    MissingIssueError,
    OfferPackage,
    OutOfRangeError,
    Perspective,
    check_in_range,
    issue_score,
)
from agorasim.tactics import (
    BETA_MAX,
    BETA_MIN,
    ResourceProjection,
    Response,
    ResponseKind,
    Stance,
    TacticParams,
    adapt_tactic,
    aggregate_utility,
    classify_concession,
    concession_rate,
    decide_response,
    effective_deadline,
    generate_offer_package,
    generate_offer_value,
    issue_beta,
    time_function,
)
from conftest import agendas, make_agenda, make_issue, make_offer


def unit_issue(issue_id: str, weight: float) -> "IssueSpec":
    # On a [0, 1] range the buyer score of value v is exactly 1 - v.
    return make_issue(issue_id, weight=weight, lo=0.0, hi=1.0)


class TestAggregateUtility:
    def test_all_scores_one(self):
        agenda = make_agenda(
            make_issue("price", weight=0.5),
            make_issue("memory", weight=0.5),
        )
        package = OfferPackage(values={"price": 10.0, "memory": 10.0})
        assert aggregate_utility(agenda, package, Perspective.BUYER) == 1.0

    def test_weighted_sum(self):
        agenda = make_agenda(
            unit_issue("a", 0.5), unit_issue("b", 0.3), unit_issue("c", 0.2)
        )
        # buyer scores 0.4, 0.6, 0.5
        package = OfferPackage(values={"a": 0.6, "b": 0.4, "c": 0.5})
        u = aggregate_utility(agenda, package, Perspective.BUYER)
        assert u == pytest.approx(0.48, abs=1e-12)

    def test_single_issue_identity(self):
        agenda = make_agenda(unit_issue("a", 1.0))
        package = OfferPackage(values={"a": 0.3})
        assert aggregate_utility(agenda, package, Perspective.BUYER) == pytest.approx(
            0.7, abs=1e-12
        )

    def test_missing_issue(self):
        agenda = make_agenda(
            make_issue("price", weight=0.5), make_issue("memory", weight=0.5)
        )
        package = OfferPackage(values={"price": 15.0})
        with pytest.raises(MissingIssueError):
            aggregate_utility(agenda, package, Perspective.BUYER)

    def test_out_of_range(self):
        agenda = make_agenda(make_issue("price"))
        package = OfferPackage(values={"price": 25.0})
        with pytest.raises(OutOfRangeError):
            aggregate_utility(agenda, package, Perspective.BUYER)

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(2024)
        for _ in range(300):
            n = rng.randint(1, 8)
            raw = [rng.uniform(0.05, 1.0) for _ in range(n)]
            total = sum(raw)
            issues = []
            values = {}
            for i in range(n):
                lo = rng.uniform(-50, 50)
                hi = lo + rng.uniform(0.5, 100)
                spec = make_issue(f"i{i}", weight=raw[i] / total, lo=lo, hi=hi)
                issues.append(spec)
                values[spec.issue_id] = rng.uniform(lo, hi)
            agenda = make_agenda(*issues)
            package = OfferPackage(values=values)
            for perspective in (Perspective.BUYER, Perspective.SELLER):
                expected = sum(
                    spec.weight * issue_score(spec, values[spec.issue_id], perspective)
                    for spec in issues
                )
                got = aggregate_utility(agenda, package, perspective)
                assert got == pytest.approx(expected, abs=1e-12)


def bits(value):
    """A float's IEEE bytes, so NaN equals NaN and 0.0 differs from -0.0."""
    return struct.pack("<d", value)


def reference_utility(agenda, package, perspective):
    """aggregate_utility as the per-issue checks then kernels.weighted_utility."""
    for spec in agenda.issues:
        check_in_range(spec, package.value(spec.issue_id))
    return kernels.weighted_utility(
        agenda.issues, package.values, perspective is Perspective.BUYER
    )


def outcome(fn, *args):
    """fn's result as bits, or the type and message of what it raised."""
    try:
        return bits(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)


class TestPackageUtilityLoop:
    @settings(max_examples=300, deadline=None)
    @given(agendas(), st.data())
    def test_equals_the_weighted_kernel(self, agenda, data):
        values = {}
        for spec in agenda.issues:
            lo, hi = spec.min_value, spec.max_value
            value = data.draw(
                st.floats(lo, hi)
                | st.sampled_from((lo, hi, math.nan, lo - 1.0, hi + 1.0, math.inf))
                | st.none(),
                label=spec.issue_id,
            )
            if value is not None:  # None: the issue is missing
                values[spec.issue_id] = value
        if data.draw(st.booleans(), label="extra key"):
            values["extra"] = 0.0
        package = OfferPackage(values)
        for perspective in Perspective:
            assert outcome(aggregate_utility, agenda, package, perspective) == outcome(
                reference_utility, agenda, package, perspective
            )

    @pytest.mark.parametrize("value, error", [
        (None, MissingIssueError), (25.0, OutOfRangeError),
        (5.0, OutOfRangeError), (math.nan, OutOfRangeError),
    ])
    def test_bad_value_raises_what_the_check_raises(self, value, error):
        agenda = make_agenda(make_issue("price", weight=0.5), make_issue("memory", weight=0.5))
        values = {"price": 15.0}
        if value is not None:
            values["memory"] = value
        package = OfferPackage(values)
        with pytest.raises(error) as raised:
            aggregate_utility(agenda, package, Perspective.BUYER)
        with pytest.raises(error) as expected:
            reference_utility(agenda, package, Perspective.BUYER)
        assert str(raised.value) == str(expected.value)


def reference_package(agenda, t, t_max_eff, params):
    """The per-issue composition generate_offer_package inlines."""
    n = len(agenda.issues)
    return {
        spec.issue_id: kernels.offer_value(
            spec.min_value,
            spec.max_value,
            kernels.time_fraction(
                t, t_max_eff, params.k, issue_beta(params.beta, spec.weight, n)
            ),
            spec.direction is Direction.ASCENDING,
        )
        for spec in agenda.issues
    }


class TestPackageOfferLoop:
    # Deadlines that are zero, negative, NaN, tiny, huge and infinite; times
    # before 0 and past the deadline; exponents that hit each clamp; k out
    # of [0, 1] so that f hits its clamps.
    DEADLINES = st.sampled_from((0.0, -0.0, -5.0, math.nan, 1e-9, 20.0, 4000.0, math.inf))
    TIMES = st.sampled_from((-3, 0, 7, 20, 5000, -0.5, math.inf, math.nan))
    BETAS = st.sampled_from((0.0, 1e-9, 0.05, 1.0, 20.0, 1e9, math.nan, -1.0))

    @settings(max_examples=300, deadline=None)
    @given(
        agendas(),
        DEADLINES | st.floats(-10.0, 1e4),
        TIMES | st.integers(-10, 10_000) | st.floats(-10.0, 1e4),
        BETAS | st.floats(1e-6, 1e6),
        st.sampled_from((0.0, 1.0, -0.5, 1.5)) | st.floats(0.0, 1.0),
    )
    # On [-5.6, -0.9], min + 1.0 * (max - min) rounds below max, so only the
    # clamp of f into [0, 1] gives the kernels' value at k = 1.5 (ascending)
    # and k = -0.5 (descending).
    @example(make_agenda(make_issue(lo=-5.6, hi=-0.9)), 10.0, 0, 1.0, 1.5)
    @example(
        make_agenda(make_issue(lo=-5.6, hi=-0.9, direction=Direction.DESCENDING)),
        10.0, 0, 1.0, -0.5,
    )
    def test_equals_the_per_issue_kernels(self, agenda, t_max_eff, t, beta, k):
        params = TacticParams(k=k, beta=beta)
        got = generate_offer_package(agenda, t, t_max_eff, params).values
        expected = reference_package(agenda, t, t_max_eff, params)
        assert list(got) == list(expected)
        assert [bits(v) for v in got.values()] == [bits(v) for v in expected.values()]


class TestTimeFunction:
    def test_at_deadline(self):
        params = TacticParams(k=0.3, beta=2.0)
        assert time_function(20, 20, params) == pytest.approx(1.0, abs=1e-12)

    def test_at_zero(self):
        for k in (0.0, 0.3, 0.9):
            params = TacticParams(k=k, beta=3.0)
            assert time_function(0, 20, params) == k

    def test_linear_midpoint(self):
        params = TacticParams(k=0.0, beta=1.0)
        assert time_function(10, 20, params) == pytest.approx(0.5, abs=1e-12)

    def test_zero_deadline_full_concession(self):
        assert time_function(0, 0, TacticParams(k=0.2, beta=1.0)) == 1.0

    def test_beyond_deadline_clamps(self):
        params = TacticParams(k=0.0, beta=0.5)
        assert time_function(50, 20, params) == pytest.approx(1.0, abs=1e-12)

    def test_constraint_suite_small(self):
        rng = random.Random(5)
        t_max = 37.0
        for beta in (0.05, 0.2, 1.0, 5.0, 20.0):
            for k in (0.0, 0.3, 0.9):
                params = TacticParams(k=k, beta=beta)
                ts = sorted(rng.uniform(0, t_max) for _ in range(100))
                values = [time_function(t, t_max, params) for t in ts]
                assert all(0.0 <= v <= 1.0 for v in values)
                assert all(b >= a for a, b in zip(values, values[1:]))
                assert time_function(0, t_max, params) == k
                assert time_function(t_max, t_max, params) == pytest.approx(
                    1.0, abs=1e-12
                )


class TestGenerateOfferValue:
    def test_full_concession_ascending(self):
        spec = make_issue(direction=Direction.ASCENDING)
        params = TacticParams(k=0.0, beta=1.0)
        assert generate_offer_value(spec, 20, 20, params) == 20.0

    def test_full_concession_descending(self):
        spec = make_issue(direction=Direction.DESCENDING)
        params = TacticParams(k=0.0, beta=1.0)
        assert generate_offer_value(spec, 20, 20, params) == 10.0

    def test_linear_midpoint(self):
        spec = make_issue(direction=Direction.ASCENDING)
        params = TacticParams(k=0.0, beta=1.0)
        assert generate_offer_value(spec, 5, 10, params) == pytest.approx(15.0)

    def test_directions_are_reflections(self):
        rng = random.Random(11)
        for _ in range(300):
            lo = rng.uniform(-100, 100)
            hi = lo + rng.uniform(0.1, 50)
            asc = make_issue("x", lo=lo, hi=hi, direction=Direction.ASCENDING)
            desc = make_issue("x", lo=lo, hi=hi, direction=Direction.DESCENDING)
            params = TacticParams(k=rng.uniform(0, 1), beta=rng.uniform(0.05, 20))
            t = rng.uniform(0, 30)
            a = generate_offer_value(asc, t, 25, params)
            d = generate_offer_value(desc, t, 25, params)
            assert a + d == pytest.approx(lo + hi, abs=1e-9 * max(1.0, abs(lo + hi)))
            assert lo <= a <= hi
            assert lo <= d <= hi


class TestOfferPackageGeneration:
    def test_low_weight_issues_concede_faster(self):
        agenda = make_agenda(
            make_issue("big", weight=0.8, direction=Direction.ASCENDING),
            make_issue("small", weight=0.2, direction=Direction.ASCENDING),
        )
        params = TacticParams(k=0.0, beta=1.0)
        package = generate_offer_package(agenda, 5, 20, params)
        # both ascend from 10; the low-weight issue must have moved further
        assert package.values["small"] > package.values["big"]

    def test_uniform_weights_match_scalar_path(self):
        agenda = make_agenda(
            make_issue("a", weight=0.5), make_issue("b", weight=0.5)
        )
        params = TacticParams(k=0.1, beta=2.0)
        package = generate_offer_package(agenda, 7, 20, params)
        for spec in agenda.issues:
            assert package.values[spec.issue_id] == generate_offer_value(
                spec, 7, 20, params
            )

    def test_issue_beta_clamped(self):
        assert issue_beta(1.0, 1.0, 1) == 1.0
        assert issue_beta(10.0, 0.01, 8) == BETA_MAX
        assert issue_beta(0.05, 1.0, 1) == BETA_MIN


class TestConcessionRate:
    def test_halving_steps(self):
        assert concession_rate(100, 90, 85) == pytest.approx(0.5, abs=1e-12)

    def test_equal_steps(self):
        assert concession_rate(100, 90, 80) == pytest.approx(1.0, abs=1e-12)

    def test_accelerating_steps(self):
        assert concession_rate(100, 98, 90) == pytest.approx(4.0, abs=1e-12)

    def test_flat_previous_step_undefined(self):
        assert concession_rate(100, 100, 90) is None

    def test_arithmetic_progression_is_exactly_one(self):
        rng = random.Random(99)
        for _ in range(500):
            start = float(rng.randint(-10**6, 10**6))
            step = float(rng.randint(1, 10**3) * rng.choice((1, -1)))
            assert concession_rate(start, start + step, start + 2 * step) == 1.0


class TestAdaptTactic:
    def test_unchanged_before_third_round(self):
        params = TacticParams(k=0.1, beta=1.0)
        for rnd in (1, 2):
            for lam in (0.1, 1.0, 5.0):
                assert adapt_tactic(params, lam, rnd) is params

    def test_linear_band_unchanged(self):
        params = TacticParams(k=0.1, beta=1.0)
        for lam in (1.0, 0.96, 1.04):
            assert adapt_tactic(params, lam, 3) is params

    def test_headstrong_opponent_triggers_concession(self):
        params = TacticParams(k=0.0, beta=1.0)
        adapted = adapt_tactic(params, 0.5, 3)
        assert adapted.stance is Stance.CONCEDER
        assert adapted.beta == 5.0

    def test_conceding_opponent_imitated(self):
        adapted = adapt_tactic(TacticParams(), 2.0, 3)
        assert adapted.stance is Stance.CONCEDER
        assert adapted.beta == pytest.approx(2.0, abs=1e-9)

    def test_imitation_clamps_beta(self):
        assert adapt_tactic(TacticParams(), 100.0, 5).beta == BETA_MAX

    def test_idempotent_in_band(self):
        params = adapt_tactic(TacticParams(), 1.0, 7)
        assert adapt_tactic(params, 1.0, 8) is params

    def test_never_leaves_beta_bounds(self):
        rng = random.Random(3)
        params = TacticParams()
        for rnd in range(3, 50):
            params = adapt_tactic(params, rng.uniform(0, 50), rnd)
            assert BETA_MIN <= params.beta <= BETA_MAX


class TestPressureShortcut:
    """A projection with one level above its threshold is never under
    pressure, so pressed_at skips level_at for it; any other projection is
    evaluated."""

    @settings(max_examples=300, deadline=None)
    @given(
        level=st.floats(allow_nan=False),
        threshold=st.floats(allow_nan=False),
        ticks=st.lists(st.floats(allow_nan=False), min_size=1, max_size=4),
        at=st.lists(st.floats() | st.sampled_from((math.inf, -math.inf)), max_size=8),
    )
    def test_a_single_level_above_the_threshold_is_never_at_or_below_it(
        self, level, threshold, ticks, at
    ):
        projection = ResourceProjection(
            points=tuple((x, level) for x in sorted(ticks)), r_threshold=threshold
        )
        assert projection.never_pressed is (level > threshold)
        if projection.never_pressed:
            for t in at:
                read = projection.level_at(t)
                # The level itself, or NaN where the level or the span is
                # infinite: neither is at or below the threshold.
                assert read == level or math.isnan(read)
                assert not read <= threshold
                assert not projection.pressed_at(t)

    @pytest.mark.parametrize("points, threshold", [
        pytest.param(((0.0, 0.1),), 0.1, id="at-threshold"),
        pytest.param(((0.0, math.nan),), 0.1, id="nan-level"),
        pytest.param(((0.0, 0.5),), math.nan, id="nan-threshold"),
        pytest.param(
            ((0.0, 1.0), (10.0, math.nextafter(0.1, math.inf))), 0.1, id="two-levels"
        ),
    ])
    def test_the_shortcut_does_not_apply(self, points, threshold):
        projection = ResourceProjection(points=points, r_threshold=threshold)
        assert not projection.never_pressed
        for t in (-1.0, 0.0, 5.0, 10.0, 11.0):
            assert projection.pressed_at(t) is (projection.level_at(t) <= threshold)

    def test_interpolation_can_round_below_both_levels(self):
        # Both levels lie above the threshold, yet the interpolation at the
        # first segment's end rounds below it.
        threshold = math.nextafter(0.1, -math.inf)
        projection = ResourceProjection(
            points=((0.0, 1.0), (10.0, 0.1), (20.0, 0.1)), r_threshold=threshold
        )
        assert not projection.never_pressed
        assert projection.level_at(10.0) == math.nextafter(threshold, -math.inf)
        assert projection.pressed_at(10.0)


class TestClassifyConcession:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.5, Stance.HEADSTRONG),
            (0.94, Stance.HEADSTRONG),
            (1.0, Stance.LINEAR),
            (0.96, Stance.LINEAR),
            (1.04, Stance.LINEAR),
            (1.06, Stance.CONCEDER),
            (2.0, Stance.CONCEDER),
        ],
    )
    def test_bands(self, value, expected):
        assert classify_concession(value) is expected


class TestEffectiveDeadline:
    def test_never_crossing_schedule(self):
        projection = ResourceProjection(points=((0, 0.9), (20, 0.9)), r_threshold=0.2)
        assert effective_deadline(20, projection) == 20

    def test_linear_depletion(self):
        projection = ResourceProjection(points=((0, 1.0), (10, 0.0)), r_threshold=0.2)
        assert effective_deadline(20, projection) == pytest.approx(8.0, abs=1e-12)

    def test_depleted_at_start(self):
        projection = ResourceProjection(points=((0, 0.1),), r_threshold=0.2)
        assert effective_deadline(20, projection) == 0

    def test_crossing_beyond_t_max(self):
        projection = ResourceProjection(points=((0, 1.0), (100, 0.0)), r_threshold=0.2)
        assert effective_deadline(20, projection) == 20

    def test_shifted_projection(self):
        projection = ResourceProjection(points=((5, 1.0), (15, 0.0)), r_threshold=0.2)
        assert effective_deadline(20, projection.shifted(5)) == pytest.approx(8.0)


class TestDecideResponse:
    # One buyer issue on [10, 20]: at t = 0 under a positive deadline the
    # counter is 10 + 10 * k, worth 1 - k to the buyer.
    def agenda(self):
        return make_agenda(make_issue())

    def respond(self, incoming, k=0.0, t=0.0, agenda=None):
        return decide_response(
            agenda or self.agenda(), Perspective.BUYER, incoming,
            t, 20.0, TacticParams(k=k),
        )

    def test_acquire_when_offer_beats_planned_counter(self):
        # buyer utility: incoming 12 -> 0.8, counter 12.5 -> 0.75
        incoming = make_offer(sent_at=5, values={"price": 12.0})
        response = self.respond(incoming, k=0.25)
        assert response.kind is ResponseKind.ACQUIRE
        assert response.package is incoming.package

    def test_counter_otherwise(self):
        # buyer utility: incoming 12 -> 0.8, counter 11 -> 0.9
        incoming = make_offer(sent_at=5, values={"price": 12.0})
        response = self.respond(incoming, k=0.1)
        assert response.kind is ResponseKind.COUNTER
        assert response.package == OfferPackage(values={"price": 11.0})
        assert response.package == generate_offer_package(
            self.agenda(), 0.0, 20.0, TacticParams(k=0.1)
        )

    def test_equal_utilities_acquire(self):
        # the counter is 12 too
        incoming = make_offer(sent_at=5, values={"price": 12.0})
        assert self.respond(incoming, k=0.2).kind is ResponseKind.ACQUIRE

    def test_branches_exhaustive_and_exclusive(self):
        rng = random.Random(17)
        agenda = self.agenda()
        for _ in range(300):
            incoming = make_offer(
                sent_at=rng.randint(0, 40), values={"price": rng.uniform(10, 20)}
            )
            k, t = rng.uniform(0, 1), rng.uniform(0, 30)
            response = self.respond(incoming, k=k, t=t, agenda=agenda)
            planned = generate_offer_package(agenda, t, 20.0, TacticParams(k=k))
            mine = aggregate_utility(agenda, planned, Perspective.BUYER)
            theirs = aggregate_utility(agenda, incoming.package, Perspective.BUYER)
            expected = ResponseKind.ACQUIRE if mine <= theirs else ResponseKind.COUNTER
            assert response.kind is expected


def uncached(agenda):
    """The agenda as a new object, so a reference built on it reads no slot
    that the code under test filled."""
    return Agenda(issues=agenda.issues, t_max=agenda.t_max)


def reference_response(agenda, perspective, incoming, t, t_max_eff, params):
    """decide_response as the composition it fuses: generate_offer_package
    for the counter, aggregate_utility for both packages, acquire iff the
    counter is worth no more."""
    if incoming.package is None:
        raise MissingIssueError("incoming message carries no offer package")
    counter = generate_offer_package(uncached(agenda), t, t_max_eff, params)
    mine = aggregate_utility(agenda, counter, perspective)
    theirs = aggregate_utility(agenda, incoming.package, perspective)
    if mine <= theirs:
        return Response(ResponseKind.ACQUIRE, incoming.package)
    return Response(ResponseKind.COUNTER, counter)


def response_outcome(fn, incoming, *args):
    """fn's response, its counter as bits, or the type and message of what
    it raised."""
    agenda, perspective, t, t_max_eff, params = args
    try:
        kind, package = fn(agenda, perspective, incoming, t, t_max_eff, params)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    if kind is ResponseKind.COUNTER:
        return kind, [(key, bits(value)) for key, value in package.values.items()]
    # Acquire answers with the incoming package itself.
    return kind, package is incoming.package


class TestDecideResponseLoop:
    """The fused pass against the composition, over both perspectives, both
    directions, exponents on and past the clamps, deadlines at or below
    zero and times past the deadline. The incoming offer ties
    the counter, sits one ulp off it on one issue, lies anywhere in range,
    or has one value missing, NaN or out of range."""

    BETAS = TestPackageOfferLoop.BETAS | st.floats(1e-3, 1e3)
    DEADLINES = st.sampled_from((0.0, -0.0, -5.0, 1e-9, 20.0)) | st.floats(-10.0, 100.0)
    TIMES = st.sampled_from((0, 7, 20, 150)) | st.floats(-5.0, 150.0)
    HOSTILE = st.sampled_from(("missing", None, math.nan, math.inf, -math.inf, "below", "above"))

    @classmethod
    def incoming(cls, data, agenda, counter):
        mode = data.draw(st.sampled_from(("tie", "ulp", "free", "hostile")), label="mode")
        values = dict(counter)
        if mode == "free":
            for spec in agenda.issues:
                lo, hi = spec.min_value, spec.max_value
                values[spec.issue_id] = data.draw(
                    st.floats(lo, hi) | st.sampled_from((lo, hi, counter[spec.issue_id])),
                    label=spec.issue_id,
                )
        elif mode != "tie":
            spec = data.draw(st.sampled_from(agenda.issues), label="issue")
            tie = values[spec.issue_id]
            if mode == "ulp":
                up = data.draw(st.booleans(), label="up")
                value = math.nextafter(tie, math.inf if up else -math.inf)
                value = min(spec.max_value, max(spec.min_value, value))
            else:
                value = data.draw(cls.HOSTILE, label="hostile")
                value = {"below": spec.min_value - 1.0, "above": spec.max_value + 1.0}.get(
                    value, value
                )
            values[spec.issue_id] = value
            if value == "missing":
                del values[spec.issue_id]
        return OfferPackage(values)

    @settings(max_examples=400, deadline=None)
    @given(agendas(), st.data())
    def test_equals_the_composition(self, agenda, data):
        perspective = data.draw(st.sampled_from(Perspective), label="perspective")
        # Two exponents interleaved on the one agenda: a slot that answered
        # for the wrong one would show.
        betas = data.draw(
            st.lists(self.BETAS, min_size=2, max_size=2, unique=True), label="betas"
        )
        for beta in (*betas, betas[0]):
            params = TacticParams(k=data.draw(st.floats(0.0, 1.0), label="k"), beta=beta)
            t_max_eff = data.draw(self.DEADLINES, label="t_max_eff")
            t = data.draw(self.TIMES, label="t")
            counter = reference_package(agenda, t, t_max_eff, params)
            package = self.incoming(data, agenda, counter)
            incoming = make_offer(values=package.values)
            args = (agenda, perspective, t, t_max_eff, params)
            assert response_outcome(decide_response, incoming, *args) == response_outcome(
                reference_response, incoming, *args
            )

    def test_interleaved_exponents_each_get_their_own_rows(self):
        agenda = make_agenda(make_issue("a", weight=0.3), make_issue("b", weight=0.7))
        incoming = make_offer(sent_at=5, values={"a": 10.0, "b": 10.0})
        for beta in (1.0, 3.0, 1.0, 0.5, 3.0):
            params = TacticParams(k=0.1, beta=beta)
            response = decide_response(
                agenda, Perspective.SELLER, incoming, 7.0, 20.0, params
            )
            assert response.kind is ResponseKind.COUNTER
            assert response.package == generate_offer_package(
                uncached(agenda), 7.0, 20.0, params
            )

    def test_offer_without_package_raises(self):
        incoming = make_offer()._replace(package=None)
        with pytest.raises(MissingIssueError):
            decide_response(
                make_agenda(), Perspective.BUYER, incoming, 0.0, 20.0, TacticParams()
            )
