import math
import re

import pytest
from hypothesis import given, strategies as st

from sacmine.credibility import (
    ModuleTermRecord,
    SacStrength,
    WeekObservation,
    attendance_average,
    sac,
    strength_bin,
    z_components,
)
from sacmine.errors import InvalidAverage, InvalidCounts, NoAttendanceTaken, OutOfRange


def record(observations, weeks_total=11, code="MOD001", semester=1):
    return ModuleTermRecord(code, semester, weeks_total, tuple(observations))


class TestAttendanceAverage:
    def test_full_attendance_is_100(self):
        obs = [WeekObservation(w, 20, 20) for w in range(1, 12)]
        assert attendance_average(record(obs)) == 100.0

    def test_single_taken_week_full_house_is_100(self):
        # attendance recorded once out of eleven weeks, everyone present
        obs = [WeekObservation(3, 25, 25)]
        assert attendance_average(record(obs)) == 100.0

    def test_two_weeks_hand_computed(self):
        # (10/20 + 15/20) / 2 * 100 = 62.5
        obs = [WeekObservation(1, 10, 20), WeekObservation(2, 15, 20)]
        assert attendance_average(record(obs)) == pytest.approx(62.5, abs=1e-9)

    def test_no_taken_week_raises(self):
        with pytest.raises(NoAttendanceTaken):
            attendance_average(record([]))

    @given(
        st.lists(
            st.tuples(st.integers(1, 40), st.integers(0, 40)),
            min_size=1,
            max_size=11,
        )
    )
    def test_always_within_0_100(self, pairs):
        obs = [
            WeekObservation(w + 1, min(x, y), y)
            for w, (y, x) in enumerate(pairs)
        ]
        avg = attendance_average(record(obs))
        assert 0.0 <= avg <= 100.0


class TestSac:
    def test_perfect_module_is_exactly_one(self):
        assert sac(100, 11, 11) == 1.0

    def test_published_high_credibility_module(self):
        assert sac(81.2, 11, 11) == pytest.approx(0.812, abs=1e-9)

    def test_partial_recording(self):
        assert sac(50, 7, 11) == pytest.approx(50 * 7 / 1100, abs=1e-12)

    def test_invalid_counts(self):
        with pytest.raises(InvalidCounts):
            sac(50, 0, 11)
        with pytest.raises(InvalidCounts):
            sac(50, 12, 11)
        with pytest.raises(InvalidCounts):
            sac(50, 1, 0)

    def test_invalid_average(self):
        with pytest.raises(InvalidAverage):
            sac(-0.1, 1, 11)
        with pytest.raises(InvalidAverage):
            sac(100.1, 1, 11)


class TestZComponents:
    def test_full_recording(self):
        z = z_components(70, 11, 11)
        assert (z.z1, z.z2) == (0.70, 1.0)

    def test_zero_average(self):
        z = z_components(0, 1, 11)
        assert z.z1 == 0.0
        assert z.z2 == pytest.approx(1 / 11, abs=1e-12)

    def test_midrange(self):
        z = z_components(50, 7, 11)
        assert z.z1 == pytest.approx(0.5, abs=1e-12)
        assert z.z2 == pytest.approx(7 / 11, abs=1e-12)


class TestStrengthBin:
    def test_published_low_module(self):
        assert strength_bin(0.067).value == 1

    def test_boundaries_map_upward(self):
        assert strength_bin(0.1).value == 2
        assert strength_bin(0.9).value == 10

    def test_top_is_closed(self):
        assert strength_bin(1.0).value == 10

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            strength_bin(-1e-9)
        with pytest.raises(OutOfRange):
            strength_bin(1.0000001)

    @given(st.floats(0, 1, allow_nan=False))
    def test_total_and_single_valued(self, v):
        assert 1 <= strength_bin(v).value <= 10

    @given(st.floats(0, 1), st.floats(0, 1))
    def test_monotone(self, a, b):
        lo, hi = min(a, b), max(a, b)
        assert strength_bin(lo).value <= strength_bin(hi).value


weeks = st.integers(1, 52)


class TestSacProperties:
    @given(avg=st.floats(0, 100), c2=weeks, data=st.data())
    def test_range_and_factorization(self, avg, c2, data):
        c1 = data.draw(st.integers(1, c2))
        value = sac(avg, c1, c2)
        assert 0.0 <= value <= 1.0
        z = z_components(avg, c1, c2)
        assert value == pytest.approx(z.z1 * z.z2, abs=1e-12)

    @given(a1=st.floats(0, 100), a2=st.floats(0, 100), c2=weeks, data=st.data())
    def test_monotone_in_average(self, a1, a2, c2, data):
        c1 = data.draw(st.integers(1, c2))
        lo, hi = min(a1, a2), max(a1, a2)
        assert sac(lo, c1, c2) <= sac(hi, c1, c2)

    @given(avg=st.floats(0, 100), c2=weeks, data=st.data())
    def test_monotone_in_taken_count(self, avg, c2, data):
        c1 = data.draw(st.integers(1, c2))
        if c1 < c2:
            assert sac(avg, c1, c2) <= sac(avg, c1 + 1, c2)

    @given(avg=st.floats(0.1, 100), c1=st.integers(1, 52), c2=st.integers(1, 5000))
    def test_strictly_decreasing_in_weeks_total(self, avg, c1, c2):
        if c1 > c2:
            c1, c2 = 1, c2
        assert sac(avg, c1, c2 + 1) < sac(avg, c1, c2)

    @given(avg=st.floats(0, 100), c1=st.integers(1, 52), eps=st.sampled_from([0.1, 0.01, 0.001]))
    def test_vanishes_for_long_semesters(self, avg, c1, eps):
        # any weeks_total strictly beyond avg*c1/(100*eps) pushes sac under eps;
        # ceil+1 keeps the choice strictly above the bound despite float rounding
        bound = avg * c1 / (100.0 * eps)
        c2 = max(c1, int(math.ceil(bound)) + 1)
        assert sac(avg, c1, c2) < eps

    def test_perfect_recording_identity(self):
        for c in range(1, 53):
            assert sac(100, c, c) == 1.0


class TestInvariants:
    def test_attended_cannot_exceed_registered(self):
        with pytest.raises(ValueError):
            WeekObservation(1, 21, 20)

    def test_registered_must_be_positive(self):
        with pytest.raises(ValueError):
            WeekObservation(1, 0, 0)

    def test_duplicate_weeks_rejected(self):
        with pytest.raises(ValueError):
            record([WeekObservation(1, 5, 20), WeekObservation(1, 6, 20)])

    def test_week_beyond_semester_rejected(self):
        with pytest.raises(ValueError):
            record([WeekObservation(12, 5, 20)], weeks_total=11)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: WeekObservation(0, 5, 20), "week_index must be >= 1, got 0"),
            (lambda: WeekObservation(1, -1, 20), "attended must be >= 0, got -1"),
            (lambda: record([], semester=3), "semester must be 1 or 2, got 3"),
            (lambda: record([], weeks_total=0), "weeks_total must be >= 1, got 0"),
            (lambda: SacStrength(0), "strength class must be in [1, 10], got 0"),
            (lambda: SacStrength(11), "strength class must be in [1, 10], got 11"),
        ],
        ids=["week-0", "attended-negative", "semester-3", "weeks-total-0", "strength-0", "strength-11"],
    )
    def test_constructors_reject_out_of_range_fields(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_flagged_record_has_no_score(self):
        r = record([])
        assert r.flagged
        with pytest.raises(NoAttendanceTaken):
            _ = r.attend_avg
