"""Edge cases and properties of the negotiation kernels."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agorasim import kernels
from conftest import make_issue


class TestKernelEdgeCases:
    def test_piecewise_outside_domain(self):
        points = ((2.0, 0.8), (10.0, 0.2))
        assert kernels.piecewise_level(points, 0.0) == 0.8
        assert kernels.piecewise_level(points, 99.0) == 0.2
        assert kernels.piecewise_level(points, 6.0) == pytest.approx(0.5)

    def test_piecewise_step_schedule(self):
        points = ((0.0, 1.0), (5.0, 1.0), (5.0, 0.3), (10.0, 0.3))
        assert kernels.piecewise_level(points, 4.9) == pytest.approx(1.0)
        assert kernels.piecewise_level(points, 5.0) == pytest.approx(1.0)
        assert kernels.piecewise_level(points, 5.1) == pytest.approx(0.3)

    def test_crossing_at_step(self):
        points = ((0.0, 1.0), (5.0, 1.0), (5.0, 0.3), (10.0, 0.3))
        assert kernels.threshold_crossing(points, 0.5, 20.0) == pytest.approx(5.0)

    def test_crossing_never(self):
        assert kernels.threshold_crossing(((0.0, 0.9), (10.0, 0.8)), 0.2, 15.0) == 15.0

    def test_crossing_capped_by_window(self):
        points = ((0.0, 1.0), (100.0, 0.0))
        assert kernels.threshold_crossing(points, 0.2, 20.0) == 20.0

    def test_flat_exactly_at_threshold(self):
        points = ((0.0, 1.0), (4.0, 0.2), (8.0, 0.2))
        assert kernels.threshold_crossing(points, 0.2, 20.0) == pytest.approx(4.0)

    def test_step_down_at_tick_zero_crosses_at_zero(self):
        points = ((0.0, 1.0), (0.0, 0.05), (10.0, 0.05))
        assert kernels.threshold_crossing(points, 0.1, 20.0) == 0.0

    def test_step_up_at_tick_zero_starts_from_the_step(self):
        points = ((0.0, 0.6), (0.0, 0.9), (10.0, 0.0))
        crossing = kernels.threshold_crossing(points, 0.5, 20.0)
        assert crossing == pytest.approx(10.0 * 0.4 / 0.9)
        assert kernels.piecewise_level(points, crossing) == pytest.approx(0.5)

    def test_level_at_a_step_is_the_first_breakpoints_also_at_the_end(self):
        step = ((0.0, 1.0), (5.0, 1.0), (5.0, 0.3))
        assert kernels.piecewise_level(step, 5.0) == 1.0
        assert kernels.piecewise_level(step + ((10.0, 0.3),), 5.0) == 1.0
        assert kernels.piecewise_level(step, 5.5) == 0.3

    def test_zero_width_dip_is_no_crossing(self):
        dip = ((0.0, 1.0), (5.0, 1.0), (5.0, 0.0), (5.0, 1.0), (10.0, 1.0))
        assert max(kernels.piecewise_level(dip, t / 4) for t in range(60)) == 1.0
        assert kernels.threshold_crossing(dip, 0.5, 100.0) == 100.0

    def test_step_down_at_last_tick_crosses_at_the_step(self):
        step = ((0.0, 1.0), (5.0, 1.0), (5.0, 0.3))
        assert kernels.threshold_crossing(step, 0.5, 100.0) == 5.0
        assert kernels.threshold_crossing(step, 0.5, 3.0) == 3.0

    def test_nan_for_flat_denominator(self):
        assert math.isnan(kernels.concession_ratio(5.0, 5.0, 4.0))

    def test_weighted_utility_sums_in_spec_order(self):
        specs = (make_issue("price", 0.25, 10.0, 20.0), make_issue("cpu", 0.75, 0.0, 8.0))
        values = {"cpu": 2.0, "price": 12.0}
        expected = 0.0
        expected += 0.25 * kernels.issue_score(10.0, 20.0, 12.0, True)
        expected += 0.75 * kernels.issue_score(0.0, 8.0, 2.0, True)
        assert kernels.weighted_utility(specs, values, True) == expected


# Ticks on a quarter-tick grid: near 1e-300 the crossing's product underflows.
_TICKS = st.integers(min_value=-200, max_value=800).map(lambda q: q / 4)
_LEVELS = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def _schedules(draw):
    ticks = sorted(draw(st.lists(_TICKS, min_size=1, max_size=6)))
    return tuple((t, draw(_LEVELS)) for t in ticks)


class TestThresholdCrossingProperty:
    @settings(max_examples=300, deadline=None)
    @given(
        points=_schedules(),
        threshold=st.floats(min_value=0.01, max_value=0.99),
        t_max=st.floats(min_value=0.0, max_value=250.0),
    )
    def test_first_crossing_within_window(self, points, threshold, t_max):
        result = kernels.threshold_crossing(points, threshold, t_max)
        assert 0.0 <= result <= t_max
        ticks = [x for x, _ in points]
        for i, (x, y) in enumerate(points):
            # Between the first and the last breakpoint at one tick lies a
            # zero-width dip, which is no level.
            inner = 0 < i < len(points) - 1 and ticks[i - 1] == x == ticks[i + 1]
            # The crossing inside a segment may round past its end.
            if 0.0 < x < result and not math.isclose(x, result) and not inner:
                assert y > threshold
        if result < t_max:
            # At a step down the level drops just after the step's tick; a
            # zero-width dip shows only as a breakpoint at that tick.
            after = math.nextafter(result, math.inf)
            level = min(
                kernels.piecewise_level(points, result),
                kernels.piecewise_level(points, after),
                *(y for x, y in points if x == result),
            )
            assert level <= threshold + 1e-9
