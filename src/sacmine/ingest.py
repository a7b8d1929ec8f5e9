"""Attendance event-log ingestion: CSV parsing, cleaning, aggregation.

Raw event logs are noisy: duplicated scans, contradictory rows for the
same student-week, malformed fields. Everything dropped or rewritten is
counted in a :class:`CleaningReport`; nothing disappears silently.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

from . import tables
from .credibility import ModuleTermRecord, WeekObservation, attendance_average, strength_bin
from .credibility import sac as sac_score
from .errors import SchemaMismatch, WeekOutOfRange

EVENTS_HEADER = ("student_id", "module_code", "semester", "week", "status")
ROSTER_HEADER = ("module_code", "semester", "registered")
MODULE_INPUT_HEADER = ("module_code", "semester", "weeks_total", "attendance_taken", "attend_avg")
AGGREGATE_HEADER = (
    "module_code",
    "semester",
    "weeks_total",
    "attendance_taken",
    "attend_avg",
    "sac",
    "sac_strength",
)


@dataclass(frozen=True)
class AttendanceEvent:
    """One student-module-week attendance record."""

    student_id: str
    module_code: str
    semester: int
    week_index: int
    present: bool

    @property
    def key(self) -> tuple[str, int, int, str]:
        """The student-module-week this event records, ordered as cleaned output is."""
        return (self.module_code, self.semester, self.week_index, self.student_id)

    @property
    def status(self) -> str:
        return "present" if self.present else "absent"


@dataclass(frozen=True)
class RosterEntry:
    """Registered head count for a module-semester."""

    module_code: str
    semester: int
    registered: int

    def __post_init__(self) -> None:
        if self.registered < 1:
            raise ValueError(f"{self.module_code}: registered must be >= 1")


@dataclass
class CleaningReport:
    """Row accounting for one pipeline stage.

    Invariant: rows_read == rows_kept + duplicates_dropped + rows_rejected.
    A conflicting duplicate (same key, contradictory status) counts toward
    duplicates_dropped too; conflicts_resolved tallies how many keys
    needed the present-beats-absent rule.
    """

    rows_read: int = 0
    rows_kept: int = 0
    duplicates_dropped: int = 0
    conflicts_resolved: int = 0
    rejection_reasons: dict[str, int] = field(default_factory=dict)

    @property
    def rows_rejected(self) -> int:
        return sum(self.rejection_reasons.values())

    def reject(self, reason: str) -> None:
        self.rejection_reasons[reason] = self.rejection_reasons.get(reason, 0) + 1

    def check(self) -> None:
        if self.rows_read != self.rows_kept + self.duplicates_dropped + self.rows_rejected:
            raise AssertionError(f"cleaning report does not balance: {self}")


def parse_events(stream) -> tuple[list[AttendanceEvent], CleaningReport]:
    """Parse an events CSV, given as any source :func:`tables.read` takes.

    The header must be exactly ``student_id,module_code,semester,week,status``.
    Malformed rows (wrong arity, bad semester, week < 1, unknown status,
    empty identifiers) are rejected with a counted reason.
    """
    events: list[AttendanceEvent] = []
    report = CleaningReport()
    with tables.read(stream) as table:
        table.expect(EVENTS_HEADER)
        for row in table:
            report.rows_read += 1
            if len(row) != len(EVENTS_HEADER):
                report.reject("wrong field count")
                continue
            student_id, module_code, semester_s, week_s, status_s = row
            if not student_id:
                report.reject("empty student_id")
                continue
            if not module_code:
                report.reject("empty module_code")
                continue
            if semester_s not in ("1", "2"):
                report.reject("bad semester")
                continue
            try:
                week = int(week_s)
            except ValueError:
                week = 0
            if week < 1:
                report.reject("bad week")
                continue
            status = status_s.lower()
            if status not in ("present", "absent"):
                report.reject("unknown status")
                continue
            events.append(
                AttendanceEvent(student_id, module_code, int(semester_s), week, status == "present")
            )
    report.rows_kept = len(events)
    report.check()
    return events, report


def clean_events(events: list[AttendanceEvent]) -> tuple[list[AttendanceEvent], CleaningReport]:
    """Deduplicate events down to one per :attr:`AttendanceEvent.key`.

    When the same key carries both a present and an absent row, present
    wins: double scans are far more common than phantom ones. Output is
    sorted by key (module, semester, week, student), so the result is a
    pure function of the input set.
    """
    winners: dict[tuple, AttendanceEvent] = {}
    conflicts: set[tuple] = set()
    for event in events:
        key = event.key
        winner = winners.get(key)
        if winner is None:
            winners[key] = event
        elif event.present != winner.present:
            conflicts.add(key)
            if event.present:
                winners[key] = event
    report = CleaningReport(
        rows_read=len(events),
        rows_kept=len(winners),
        duplicates_dropped=len(events) - len(winners),
        conflicts_resolved=len(conflicts),
    )
    report.check()
    return [winners[key] for key in sorted(winners)], report


def aggregate(
    events: list[AttendanceEvent],
    roster: list[RosterEntry] | None = None,
    weeks_total: int = 11,
) -> tuple[list[ModuleTermRecord], list[str]]:
    """Roll cleaned events up into one record per module-semester.

    A week counts as taken iff at least one event (present or absent)
    exists for it. The weekly denominator Y comes from the roster when
    given, otherwise from the distinct students observed for the module
    over the whole semester. Returns the records plus diagnostics for
    records rejected because a week's present count exceeded the roster
    (corrupt data is dropped, never clamped). Roster modules with no
    events at all are emitted flagged, with zero taken weeks.
    """
    if weeks_total < 1:
        raise ValueError(f"weeks_total must be >= 1, got {weeks_total}")
    roster_map = {(entry.module_code, entry.semester): entry.registered for entry in roster or []}

    present: dict[tuple[str, int], dict[int, int]] = {}
    students: dict[tuple[str, int], set[str]] = {}
    for event in events:
        if event.week_index > weeks_total:
            raise WeekOutOfRange(
                f"{event.module_code} week {event.week_index} beyond weeks_total {weeks_total}"
            )
        key = (event.module_code, event.semester)
        weeks = present.setdefault(key, {})
        weeks[event.week_index] = weeks.get(event.week_index, 0) + event.present
        students.setdefault(key, set()).add(event.student_id)

    keys = sorted(set(present) | set(roster_map))
    records: list[ModuleTermRecord] = []
    rejections: list[str] = []
    for key in keys:
        module_code, semester = key
        if key not in present:
            records.append(ModuleTermRecord(module_code, semester, weeks_total, ()))
            continue
        registered = roster_map.get(key, len(students[key]))
        observations = []
        for week, attended in sorted(present[key].items()):
            if attended > registered:
                rejections.append(
                    f"{module_code} semester {semester} week {week}: "
                    f"{attended} present exceeds {registered} registered"
                )
                break
            observations.append(WeekObservation(week, attended, registered))
        else:
            records.append(ModuleTermRecord(module_code, semester, weeks_total, tuple(observations)))
    return records, rejections


# --- CSV surfaces -----------------------------------------------------------


def write_events_csv(events: list[AttendanceEvent], fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(EVENTS_HEADER)
    for e in events:
        writer.writerow([e.student_id, e.module_code, e.semester, e.week_index, e.status])


def read_roster_csv(path) -> list[RosterEntry]:
    """Read a roster: one row per module-semester, with a count >= 1."""
    entries: dict[tuple[str, str], RosterEntry] = {}
    with tables.read(Path(path)) as table:
        table.expect(ROSTER_HEADER)
        for module_code, semester_s, registered in table.rows(ROSTER_HEADER, {2: int}):
            if not module_code or semester_s not in ("1", "2"):
                raise SchemaMismatch(f"bad module_code or semester: {module_code!r},{semester_s!r}")
            if (module_code, semester_s) in entries:
                raise SchemaMismatch(f"duplicate row for {module_code} semester {semester_s}")
            entries[module_code, semester_s] = RosterEntry(module_code, int(semester_s), registered)
    return list(entries.values())


def _scored(module_code: str, semester: int, weeks: int, taken: int, avg: float | None) -> tuple:
    """One aggregate-CSV row; with no week taken, ``avg`` is None and the row blank."""
    if taken == 0:
        return (module_code, semester, weeks, 0, None, None, 0)
    value = sac_score(avg, taken, weeks)
    return (module_code, semester, weeks, taken, avg, value, strength_bin(value).value)


def score_rows(records: list[ModuleTermRecord]) -> list[tuple]:
    """Turn records into aggregate-CSV rows; flagged records get blanks."""
    rows = []
    for r in records:
        taken = r.taken_count
        avg = attendance_average(r) if taken else None
        rows.append(_scored(r.module_code, r.semester, r.weeks_total, taken, avg))
    return rows


def read_module_inputs_csv(path) -> list[tuple]:
    """Read pre-aggregated module inputs and score them.

    Expects header ``module_code,semester,weeks_total,attendance_taken,attend_avg``;
    returns the same row shape as :func:`score_rows`.
    """
    rows = []
    with tables.read(Path(path)) as table:
        table.expect(MODULE_INPUT_HEADER)
        counts = {1: int, 2: int, 3: int}
        for module_code, semester, weeks, taken, avg_s in table.rows(MODULE_INPUT_HEADER, counts):
            if not module_code or semester not in (1, 2):
                raise SchemaMismatch(f"bad module_code or semester: {module_code!r},{semester}")
            avg = tables.number("attend_avg", avg_s, float) if taken else None
            rows.append(_scored(module_code, semester, weeks, taken, avg))
    return rows


def write_aggregate_csv(rows: list[tuple], fh) -> None:
    """Write scored rows: attend_avg to 1 decimal, sac to 3, blanks when flagged."""
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(AGGREGATE_HEADER)
    for module_code, semester, weeks, taken, avg, value, strength in rows:
        writer.writerow(
            [
                module_code,
                semester,
                weeks,
                taken,
                "" if avg is None else f"{avg:.1f}",
                "" if value is None else f"{value:.3f}",
                strength,
            ]
        )
