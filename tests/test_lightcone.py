"""Interval classification, past cones, the allowed region, and boosts."""

import math

import numpy as np
import pytest

from paradoxlab import lightcone
from paradoxlab.errors import BoostError, DomainError

ALICE = lightcone.Event(5.0, -3.0)
BOB = lightcone.Event(5.0, 3.0)


class TestInterval:
    def test_timelike(self):
        s2, kind = lightcone.interval(lightcone.Event(0, 0), lightcone.Event(5, 3))
        assert s2 == 16.0 and kind == "timelike"

    def test_spacelike_measurement_pair(self):
        s2, kind = lightcone.interval(ALICE, BOB)
        assert s2 == -36.0 and kind == "spacelike"

    def test_lightlike(self):
        s2, kind = lightcone.interval(lightcone.Event(0, 0), lightcone.Event(1, 1))
        assert kind == "lightlike"
        assert abs(s2) <= 1e-12

    def test_coincident_events(self):
        event = lightcone.Event(2.0, 2.0)
        assert lightcone.interval(event, event) == (0.0, "lightlike")


class TestPastCone:
    def test_apex_included(self):
        apex = lightcone.Event(1.0, 1.0)
        assert lightcone.in_past_cone(apex, apex)

    def test_origin_inside(self):
        assert lightcone.in_past_cone(lightcone.Event(0, 0), lightcone.Event(5, 3))

    def test_too_far_sideways(self):
        assert not lightcone.in_past_cone(lightcone.Event(4.9, 9.0), lightcone.Event(5, 3))

    def test_future_excluded(self):
        assert not lightcone.in_past_cone(lightcone.Event(6.0, 3.0), lightcone.Event(5, 3))


class TestCollapseAllowed:
    def test_intersection_apex(self):
        assert lightcone.collapse_allowed(lightcone.Event(2.0, 0.0), ALICE, BOB)

    def test_just_past_the_apex(self):
        assert not lightcone.collapse_allowed(
            lightcone.Event(2.0 + 1e-9, 0.0), ALICE, BOB
        )

    def test_inside_one_cone_only(self):
        assert not lightcone.collapse_allowed(lightcone.Event(3.0, 0.0), ALICE, BOB)

    def test_source_event_allowed(self):
        assert lightcone.collapse_allowed(lightcone.Event(0.0, 0.0), ALICE, BOB)

    def test_symmetric_in_measurement_events(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = lightcone.Event(*rng.uniform(-10, 10, size=2))
            a = lightcone.Event(*rng.uniform(-10, 10, size=2))
            b = lightcone.Event(*rng.uniform(-10, 10, size=2))
            assert lightcone.collapse_allowed(p, a, b) == lightcone.collapse_allowed(
                p, b, a
            )

    def test_latest_allowed_event_by_grid_scan(self):
        ts = [round(-1.0 + 0.25 * i, 6) for i in range(29)]
        xs = [round(-6.0 + 0.25 * j, 6) for j in range(49)]
        best = max(
            ((t, x) for t in ts for x in xs
             if lightcone.collapse_allowed(lightcone.Event(t, x), ALICE, BOB)),
            key=lambda pair: pair[0],
        )
        assert best == (2.0, 0.0)


def scalar_grid(step, t_lo=-1.0, t_hi=6.0, x_lo=-6.0, x_hi=6.0):
    """The CLI's region grid, point by point in row-major (t, x) order."""
    n_t = int(math.floor((t_hi - t_lo) / step + 1e-9)) + 1
    n_x = int(math.floor((x_hi - x_lo) / step + 1e-9)) + 1
    return [(t_lo + i * step, x_lo + j * step) for i in range(n_t) for j in range(n_x)]


TIMELIKE_A = lightcone.Event(5.0, 0.0)
TIMELIKE_B = lightcone.Event(2.0, 1.0)


class TestCollapseRegion:
    @pytest.mark.parametrize("step", [0.25, 0.02], ids=["default-grid", "step-0.02"])
    @pytest.mark.parametrize(
        "a, b", [(ALICE, BOB), (TIMELIKE_A, TIMELIKE_B)], ids=["spacelike", "timelike"]
    )
    def test_matches_collapse_allowed_on_every_grid_point(self, step, a, b):
        points = scalar_grid(step)
        t, x = (np.array(axis) for axis in zip(*points))
        region = lightcone.collapse_region(t, x, a, b)
        expected = [lightcone.collapse_allowed(lightcone.Event(*p), a, b) for p in points]
        assert region.dtype == bool
        assert region.tolist() == expected
        assert region.any() and not region.all()

    def test_cone_boundaries_and_their_neighbours(self):
        points = []
        for apex in (ALICE, BOB, TIMELIKE_A, TIMELIKE_B, lightcone.Event(2.0, 0.0)):
            for d in (0.0, 0.5, 1.0, 2.75, 3.0, 8.0):
                for t, x in ((apex.t - d, apex.x - d), (apex.t - d, apex.x + d)):
                    for dt in (-1, 0, 1):
                        for dx in (-1, 0, 1):
                            points.append(
                                (
                                    math.nextafter(t, dt * math.inf) if dt else t,
                                    math.nextafter(x, dx * math.inf) if dx else x,
                                )
                            )
        t, x = (np.array(axis) for axis in zip(*points))
        for a, b in ((ALICE, BOB), (TIMELIKE_A, TIMELIKE_B)):
            region = lightcone.collapse_region(t, x, a, b)
            expected = [lightcone.collapse_allowed(lightcone.Event(*p), a, b) for p in points]
            assert region.tolist() == expected
        # the intersection apex of the default pair and its boundary are inside
        edge = lightcone.collapse_region(np.array([2.0, 1.0]), np.array([0.0, 1.0]), ALICE, BOB)
        assert edge.all()


class TestBoost:
    def test_identity_at_rest(self):
        event = lightcone.Event(3.2, -1.5)
        frame = lightcone.Boost(0.0)
        moved = lightcone.boost(event, frame)
        assert moved.t == event.t and moved.x == event.x

    def test_reference_reversal(self):
        # simultaneous spacelike events swap order at half lightspeed
        a = lightcone.Event(0.0, 0.0)
        b = lightcone.Event(0.0, 6.0)
        frame = lightcone.Boost(0.5)
        moved_b = lightcone.boost(b, frame)
        assert moved_b.t == pytest.approx(-3.0 / math.sqrt(0.75), rel=1e-14)
        assert lightcone.boost(a, frame).t == 0.0

    def test_interval_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(10000):
            e1 = lightcone.Event(*rng.uniform(-20, 20, size=2))
            e2 = lightcone.Event(*rng.uniform(-20, 20, size=2))
            frame = lightcone.Boost(rng.uniform(-0.99, 0.99))
            s2, _ = lightcone.interval(e1, e2)
            s2_boosted, _ = lightcone.interval(
                lightcone.boost(e1, frame), lightcone.boost(e2, frame)
            )
            assert abs(s2 - s2_boosted) <= 1e-10 * (1.0 + abs(s2))

    def test_causal_structure_preserved(self):
        rng = np.random.default_rng(7)
        kept = 0
        for _ in range(2000):
            apex = lightcone.Event(*rng.uniform(-5, 5, size=2))
            point = lightcone.Event(
                apex.t - rng.uniform(0, 5), apex.x + rng.uniform(-5, 5)
            )
            if not lightcone.in_past_cone(point, apex):
                continue
            kept += 1
            frame = lightcone.Boost(rng.uniform(-0.95, 0.95))
            assert lightcone.in_past_cone(
                lightcone.boost(point, frame), lightcone.boost(apex, frame)
            )
        assert kept > 500

    def test_superluminal_rejected(self):
        with pytest.raises(BoostError):
            lightcone.Boost(1.0)
        with pytest.raises(BoostError):
            lightcone.Boost(-1.5)


class TestOrderingReport:
    def test_spacelike_admits_every_ordering(self):
        report = lightcone.ordering_report(ALICE, BOB, [-0.9, 0.0, 0.9])
        assert report.interval_kind == "spacelike"
        assert [o.order for o in report.orderings] == [
            "a_first",
            "simultaneous",
            "b_first",
        ]
        assert report.admits_reversal

    def test_reversal_at_half_lightspeed(self):
        report = lightcone.ordering_report(ALICE, BOB, [-0.5, 0.5])
        assert report.admits_reversal

    def test_timelike_never_reverses(self):
        a = lightcone.Event(0.0, 0.0)
        b = lightcone.Event(5.0, 1.0)
        sweep = np.linspace(-0.99, 0.99, 199)
        report = lightcone.ordering_report(a, b, sweep.tolist())
        assert report.interval_kind == "timelike"
        assert {o.order for o in report.orderings} == {"a_first"}
        assert not report.admits_reversal

    def test_kind_is_frame_invariant(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            e1 = lightcone.Event(*rng.uniform(-10, 10, size=2))
            e2 = lightcone.Event(*rng.uniform(-10, 10, size=2))
            _, kind = lightcone.interval(e1, e2)
            if kind == "lightlike":
                continue
            frame = lightcone.Boost(rng.uniform(-0.9, 0.9))
            _, boosted_kind = lightcone.interval(
                lightcone.boost(e1, frame), lightcone.boost(e2, frame)
            )
            assert boosted_kind == kind


class TestEventValidation:
    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            lightcone.Event(float("nan"), 0.0)
        with pytest.raises(DomainError):
            lightcone.Event(0.0, float("inf"))
