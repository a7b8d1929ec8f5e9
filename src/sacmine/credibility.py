"""Student Attendance Credibility (SAC) scoring.

The credibility of a module's attendance record is the product of two
ratios: the average fraction of registered students present on the weeks
attendance was actually recorded (student side, Z1), and the fraction of
semester weeks on which the instructor recorded attendance at all
(instructor side, Z2). Both factors live in [0, 1], so SAC does too. A
module where everyone shows up but attendance was only taken once scores
low, which is the whole point of the measure.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .errors import InvalidAverage, InvalidCounts, NoAttendanceTaken, OutOfRange

#: Number of nominal strength classes the unit interval is cut into.
STRENGTH_CLASSES = 10
#: The lower bounds of strength classes 2 to 10.
_BOUNDS = tuple(k / 10 for k in range(1, STRENGTH_CLASSES))


@dataclass(frozen=True)
class WeekObservation:
    """One module-week of the attendance register.

    ``attended`` is the number of registered students present that week
    (X) and ``registered`` the module's enrolment for that week (Y).
    When ``taken`` is false the instructor never recorded attendance, so
    ``attended`` carries no information and is ignored by every
    computation.
    """

    week_index: int
    attended: int
    registered: int
    taken: bool = True

    def __post_init__(self) -> None:
        if self.week_index < 1:
            raise ValueError(f"week_index must be >= 1, got {self.week_index}")
        if self.registered < 1:
            raise ValueError(f"registered must be >= 1, got {self.registered}")
        if self.attended < 0:
            raise ValueError(f"attended must be >= 0, got {self.attended}")
        if self.taken and self.attended > self.registered:
            raise ValueError(
                f"week {self.week_index}: attended {self.attended} exceeds "
                f"registered {self.registered}"
            )


@dataclass(frozen=True)
class ModuleTermRecord:
    """Per module-semester aggregate of weekly attendance observations.

    ``weeks_total`` is the semester length C2; the number of observations
    with ``taken`` set is the recording count C1. The attendance average
    and SAC are derived and only defined when C1 >= 1.
    """

    module_code: str
    semester: int
    weeks_total: int
    observations: tuple[WeekObservation, ...] = ()

    def __post_init__(self) -> None:
        if self.semester not in (1, 2):
            raise ValueError(f"semester must be 1 or 2, got {self.semester}")
        if self.weeks_total < 1:
            raise ValueError(f"weeks_total must be >= 1, got {self.weeks_total}")
        object.__setattr__(self, "observations", tuple(self.observations))
        weeks = [o.week_index for o in self.observations]
        if len(set(weeks)) != len(weeks):
            raise ValueError(f"{self.module_code}: duplicate week_index values")
        for w in weeks:
            if w > self.weeks_total:
                raise ValueError(
                    f"{self.module_code}: week {w} beyond weeks_total {self.weeks_total}"
                )

    @property
    def taken_count(self) -> int:
        """Number of weeks on which attendance was recorded (C1)."""
        return sum(1 for o in self.observations if o.taken)

    @property
    def attend_avg(self) -> float:
        return attendance_average(self)

    @property
    def sac(self) -> float:
        return sac(self.attend_avg, self.taken_count, self.weeks_total)

    @property
    def flagged(self) -> bool:
        """True when attendance was never taken, so no score exists."""
        return self.taken_count == 0


@dataclass(frozen=True)
class ZComponents:
    """The two factors of SAC: z1 = average/100, z2 = taken/total weeks."""

    z1: float
    z2: float


@dataclass(frozen=True)
class SacStrength:
    """Nominal strength class of a SAC value, 1 (weakest) to 10."""

    value: int

    def __post_init__(self) -> None:
        if not 1 <= self.value <= STRENGTH_CLASSES:
            raise ValueError(f"strength class must be in [1, 10], got {self.value}")

    def __int__(self) -> int:
        return self.value


def attendance_average(record: ModuleTermRecord) -> float:
    """Mean percentage of registered students present over taken weeks.

    Weeks where attendance was not taken contribute nothing; the per-week
    ratio uses that week's own enrolment, so a varying register is fine.

    Raises:
        NoAttendanceTaken: if the record has no taken week.
    """
    taken = [o for o in record.observations if o.taken]
    if not taken:
        raise NoAttendanceTaken(
            f"{record.module_code} semester {record.semester}: "
            "attendance was never recorded"
        )
    ratio_sum = sum(o.attended / o.registered for o in taken)
    return 100.0 * ratio_sum / len(taken)


def _check_counts(taken_count: int, weeks_total: int) -> None:
    if weeks_total < 1 or taken_count < 1 or taken_count > weeks_total:
        raise InvalidCounts(
            f"need 1 <= taken_count <= weeks_total, got "
            f"taken_count={taken_count}, weeks_total={weeks_total}"
        )


def _check_sac_inputs(attend_avg: float, taken_count: int, weeks_total: int) -> None:
    _check_counts(taken_count, weeks_total)
    if not 0.0 <= attend_avg <= 100.0:
        raise InvalidAverage(f"attend_avg must be in [0, 100], got {attend_avg}")


def sac(attend_avg: float, taken_count: int, weeks_total: int) -> float:
    """Credibility score: (average * taken_count) / (100 * weeks_total).

    Equals the product of the two normalized factors returned by
    :func:`z_components`. Always in [0, 1]; reaches 1 only with a 100%
    average and attendance taken every single week.
    """
    _check_sac_inputs(attend_avg, taken_count, weeks_total)
    return _sac(attend_avg, taken_count, weeks_total)


def _sac(attend_avg: float, taken_count: int, weeks_total: int) -> float:
    """The formula of :func:`sac`, for inputs already checked."""
    return (attend_avg * taken_count) / (100.0 * weeks_total)


def z_components(attend_avg: float, taken_count: int, weeks_total: int) -> ZComponents:
    """Split the credibility score into its student and instructor factors."""
    _check_sac_inputs(attend_avg, taken_count, weeks_total)
    return ZComponents(z1=attend_avg / 100.0, z2=taken_count / weeks_total)


def strength_bin(value: float) -> SacStrength:
    """Map a SAC value onto its nominal strength class.

    Classes are the deciles of [0, 1]: [0, 0.1) is class 1, [0.1, 0.2) is
    class 2 and so on; the top interval [0.9, 1.0] is closed, so 1.0 is
    class 10. Boundaries map upward: 0.1 is class 2, not 1.
    """
    if value < 0.0 or value > 1.0:
        raise OutOfRange(f"SAC must be in [0, 1], got {value}")
    return SacStrength(_strength(value))


def _strength(value: float) -> int:
    """The class of :func:`strength_bin` of a value in [0, 1]: 1 + the bounds at or below it."""
    return bisect_right(_BOUNDS, value) + 1
