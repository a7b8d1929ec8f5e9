"""Attendance event-log ingestion: CSV parsing, cleaning, aggregation.

Raw event logs are noisy: duplicated scans, contradictory rows for the
same student-week, malformed fields. Everything dropped or rewritten is
counted in a :class:`CleaningReport`; nothing disappears silently.

The CLI streams an events CSV straight into an event map (:func:`read_event_map`)
with no object per row: one register per module, semester and week, each
``student_id -> present``, the registers and the students of each in
first-seen order. :func:`parse_events`, :func:`clean_events`, :func:`aggregate`
and :func:`write_events_csv` take the same steps over :class:`AttendanceEvent`
lists. Both paths share one function per rule: row validation, the
present-wins dedupe and the weekly tally. Both hold each distinct id as one
shared string, however many rows name it.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

from . import tables
from .credibility import ModuleTermRecord, WeekObservation, _check_counts, _sac, _strength, attendance_average
from .errors import InvalidAverage, SchemaMismatch, WeekOutOfRange

EVENTS_HEADER = ("student_id", "module_code", "semester", "week", "status")
ROSTER_HEADER = ("module_code", "semester", "registered")
MODULE_INPUT_HEADER = ("module_code", "semester", "weeks_total", "attendance_taken", "attend_avg")
AGGREGATE_HEADER = MODULE_INPUT_HEADER + ("sac", "sac_strength")

# An events log after cleaning, one register per module, semester and week:
# (module_code, semester, week) -> {student_id: present}. Each distinct module
# code and student id is one string object, shared by its registers.
EventMap = dict[tuple[str, int, int], dict[str, bool]]


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
    Malformed rows (wrong arity, empty identifiers, bad semester, week < 1,
    unknown status) are rejected with a counted reason, their first defect
    in that order.
    """
    report = CleaningReport()
    events = [
        AttendanceEvent(student_id, module_code, semester, week, present)
        for (module_code, semester, week), student_id, present in _valid_rows(stream, report)
    ]
    report.check()
    return events, report


def clean_events(events: list[AttendanceEvent]) -> tuple[list[AttendanceEvent], CleaningReport]:
    """Deduplicate events down to one per :attr:`AttendanceEvent.key`.

    When the same key carries both a present and an absent row, present
    wins: double scans are far more common than phantom ones. Output is
    sorted by key (module, semester, week, student), so the result is a
    pure function of the input set.
    """
    rows = (((e.module_code, e.semester, e.week_index), e.student_id, e.present) for e in events)
    winners, report = _dedupe(rows)
    return [AttendanceEvent(student_id, *group, present) for group, student_id, present in _sorted(winners)], report


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
    groups = (((e.module_code, e.semester, e.week_index), e.present, (e.student_id,)) for e in events)
    return _tally(groups, roster, weeks_total)


def read_event_map(
    source, weeks_total: int | None = None
) -> tuple[EventMap, CleaningReport, CleaningReport]:
    """Stream an events CSV straight into its event map, one register per
    ``(module_code, semester, week)``, each ``student_id -> present``.

    Rows are validated as :func:`parse_events` does and deduplicated as
    :func:`clean_events` does, with no object or key kept per row, so memory
    grows with the distinct keys, not with the file. Returns the map, its
    registers and each one's students in first-seen order, with the parse
    and the cleaning report. With ``weeks_total``, a valid row for a later
    week raises WeekOutOfRange naming its line.
    """
    limit = math.inf if weeks_total is None else _week_limit(weeks_total)
    parsed = CleaningReport()
    winners, cleaning = _dedupe(_valid_rows(source, parsed, limit))
    parsed.check()
    return winners, parsed, cleaning


def aggregate_event_map(
    winners: EventMap, roster: list[RosterEntry] | None = None, weeks_total: int = 11
) -> tuple[list[ModuleTermRecord], list[str]]:
    """:func:`aggregate` over an event map from :func:`read_event_map`, unsorted."""
    groups = ((group, sum(students.values()), students) for group, students in winners.items())
    return _tally(groups, roster, weeks_total)


# --- the rules: row validation, present-wins dedupe, weekly tally ----------

#: The semester rule of the events, roster and module-input readers: the trimmed text 1 or 2.
_SEMESTERS = {"1": 1, "2": 2}
_STATUSES = {"present": True, "absent": False}
#: Distinct raw (semester, week, status) cells that :func:`_valid_rows` decodes and keeps;
#: a log has a few dozen, and a file of distinct junk cells must not grow the memo with it.
_CELL_TRIPLES = 1024


def _week_limit(weeks_total: int) -> int:
    if weeks_total < 1:
        raise ValueError(f"weeks_total must be >= 1, got {weeks_total}")
    return weeks_total


def _semester(module_code: str, semester_s: str) -> int:
    """The semester of a roster or module-input row, which must name a module and semester 1 or 2."""
    semester = _SEMESTERS.get(semester_s)
    if not module_code or semester is None:
        raise SchemaMismatch(f"bad module_code or semester: {module_code!r},{semester_s}")
    return semester


def _week_beyond(module_code: str, week: int, weeks_total: int) -> WeekOutOfRange:
    return WeekOutOfRange(f"{module_code} week {week} beyond weeks_total {weeks_total}")


def _valid_rows(source, report: CleaningReport, weeks_total: float = math.inf):
    """Each valid row of the events table ``source``, any source that
    :func:`tables.read` takes, as ``((module_code, semester, week),
    student_id, present)``, in file order.

    The header must be :data:`EVENTS_HEADER`. Every other row is counted in
    ``report`` under its first defect in this order: wrong field count, empty
    student_id, empty module_code, bad semester, bad week, unknown status. A
    valid row for a week beyond ``weeks_total`` raises WeekOutOfRange. Cells are
    judged trimmed. Each distinct id is one string object, shared by its rows.
    """
    ids: dict[str, str] = {}  # each id kept so far, to itself
    decoded: dict[tuple[str, str, str], tuple] = {}  # raw cell triple -> _decode of it
    with tables.read(source) as table:
        table.expect(EVENTS_HEADER)
        for row in table:
            report.rows_read += 1
            if len(row) != len(EVENTS_HEADER):
                report.reject("wrong field count")
                continue
            student_id, module_code, semester_s, week_s, status_s = row
            student_id = student_id.strip()
            if not student_id:
                report.reject("empty student_id")
                continue
            module_code = module_code.strip()
            if not module_code:
                report.reject("empty module_code")
                continue
            try:
                reason, semester, week, present = decoded[semester_s, week_s, status_s]
            except KeyError:
                reason, semester, week, present = _decode(semester_s, week_s, status_s)
                if len(decoded) < _CELL_TRIPLES:
                    decoded[semester_s, week_s, status_s] = reason, semester, week, present
            if reason:
                report.reject(reason)
                continue
            if week > weeks_total:
                raise _week_beyond(module_code, week, weeks_total)
            report.rows_kept += 1
            module_code = ids.setdefault(module_code, module_code)
            yield (module_code, semester, week), ids.setdefault(student_id, student_id), present


def _decode(semester_s: str, week_s: str, status_s: str) -> tuple[str, int, int, bool]:
    """``(reason, semester, week, present)`` of an events row's trimmed semester, week and status
    cells: the reason to reject the row, by the first rule it breaks, or "" and the values they name."""
    semester = _SEMESTERS.get(semester_s.strip())
    if semester is None:
        return "bad semester", 0, 0, False
    try:
        week = int(week_s.strip())
    except ValueError:
        week = 0
    if week < 1:
        return "bad week", 0, 0, False
    present = _STATUSES.get(status_s.strip().lower())
    if present is None:
        return "unknown status", 0, 0, False
    return "", semester, week, present


def _dedupe(rows) -> tuple[dict, CleaningReport]:
    """Keep one status per key of ``(group, student_id, present)`` rows, as ``group ->
    {student_id: present}`` in first-seen order; present wins. True and False are singletons."""
    winners: dict = {}
    conflicts: set = set()
    read = 0
    for read, (group, student_id, present) in enumerate(rows, 1):
        students = winners.setdefault(group, {})
        if students.setdefault(student_id, present) is not present:
            conflicts.add((group, student_id))
            if present:
                students[student_id] = present
    kept = sum(map(len, winners.values()))
    return winners, CleaningReport(read, kept, read - kept, len(conflicts))


def _sorted(winners: dict):
    """Each ``(group, student_id, value)`` of a map from :func:`_dedupe`, by group, then student."""
    for group, students in sorted(winners.items()):
        for student_id in sorted(students):
            yield group, student_id, students[student_id]


def _tally(groups, roster: list[RosterEntry] | None, weeks_total: int):
    """:func:`aggregate` over ``(group, present count, student ids)`` triples, in any order."""
    _week_limit(weeks_total)
    roster_map = {(entry.module_code, entry.semester): entry.registered for entry in roster or []}

    present = defaultdict(Counter)  # (module_code, semester) -> week -> present count
    students = defaultdict(set)  # (module_code, semester) -> student ids, unless on the roster
    for (module_code, semester, week), attended, student_ids in groups:
        if week > weeks_total:
            raise _week_beyond(module_code, week, weeks_total)
        present[module_code, semester][week] += attended
        if (module_code, semester) not in roster_map:
            students[module_code, semester].update(student_ids)

    records: list[ModuleTermRecord] = []
    rejections: list[str] = []
    for key in sorted(present.keys() | roster_map.keys()):
        module_code, semester = key
        if key not in present:
            records.append(ModuleTermRecord(module_code, semester, weeks_total, ()))
            continue
        registered = roster_map[key] if key in roster_map else len(students[key])
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
    _write_events((((e.module_code, e.semester, e.week_index), e.student_id, e.present) for e in events), fh)


def write_event_map_csv(winners: EventMap, fh) -> None:
    """Write an event map as cleaned events, sorted by key as :func:`clean_events` sorts."""
    _write_events(_sorted(winners), fh)


def _write_events(rows, fh) -> None:
    writer = tables.writer(fh)
    writer.writerow(EVENTS_HEADER)
    writer.writerows(
        (student_id, module_code, semester, week, "present" if present else "absent")
        for (module_code, semester, week), student_id, present in rows
    )


def read_roster_csv(path) -> list[RosterEntry]:
    """Read a roster: one row per module-semester, with a count >= 1."""
    entries: dict[tuple[str, int], RosterEntry] = {}
    with tables.read(Path(path)) as table:
        table.expect(ROSTER_HEADER)
        for module_code, semester_s, registered in table.rows(ROSTER_HEADER, {2: int}):
            semester = _semester(module_code, semester_s)
            if (module_code, semester) in entries:
                raise SchemaMismatch(f"duplicate row for {module_code} semester {semester}")
            entries[module_code, semester] = RosterEntry(module_code, semester, registered)
    return list(entries.values())


def _scored(module_code: str, semester: int, weeks: int, taken: int, avg: float | None) -> tuple:
    """One aggregate-CSV row of checked inputs; with no week taken, the row is blank."""
    if taken == 0:
        return (module_code, semester, weeks, 0, None, None, 0)
    value = _sac(avg, taken, weeks)
    return (module_code, semester, weeks, taken, avg, value, _strength(value))


def score_rows(records: list[ModuleTermRecord]) -> list[tuple]:
    """Turn records into aggregate-CSV rows; flagged records get blanks."""
    rows = []
    for r in records:
        taken = r.taken_count
        avg = attendance_average(r) if taken else None
        rows.append(_scored(r.module_code, r.semester, r.weeks_total, taken, avg))
    return rows


def module_input_rows(source):
    """Score pre-aggregated module inputs (a path or an open ``tables.Table``), a chunk of rows at a time.

    Expects header ``module_code,semester,weeks_total,attendance_taken,attend_avg``;
    yields rows of the same shape as :func:`score_rows`. Each row is checked in
    this order: a module code and a semester of ``1`` or ``2``, ``weeks_total
    >= 1``, an ``attendance_taken`` of 0 or in [1, weeks_total], and an
    ``attend_avg`` in [0, 100], which may be blank only when no week was taken.
    A chunk that fails its column checks is checked again row by row.
    """
    with tables.read(source if isinstance(source, tables.Table) else Path(source)) as table:
        table.expect(MODULE_INPUT_HEADER)
        for rows in table.chunks(MODULE_INPUT_HEADER, {2: int, 3: int}, {}, _module_input):
            yield [_scored(*_module_input(row)) for row in table.each(rows)]


def _module_input(cells) -> tuple:
    """The checked ``(module_code, semester, weeks, taken, avg)`` of a row's cells."""
    module_code, semester_s, weeks, taken, avg_s = cells
    semester = _semester(module_code, semester_s)
    _week_limit(weeks)
    if taken:
        _check_counts(taken, weeks)
    avg = tables.number("attend_avg", avg_s, float) if avg_s or taken else None
    if avg is not None and not 0.0 <= avg <= 100.0:
        raise InvalidAverage(f"attend_avg must be in [0, 100], got {avg}")
    return module_code, semester, weeks, taken, avg


def read_module_inputs_csv(path) -> list[tuple]:
    """All the rows of :func:`module_input_rows` as a list."""
    return list(chain.from_iterable(module_input_rows(path)))


def write_aggregate_csv(rows: list[tuple], fh) -> None:
    """Write scored rows: attend_avg to 1 decimal, sac to 3, blanks when flagged."""
    writer = tables.writer(fh)
    writer.writerow(AGGREGATE_HEADER)
    writer.writerows(
        (code, semester, weeks, taken, "" if avg is None else f"{avg:.1f}", "" if value is None else f"{value:.3f}", bin_)
        for code, semester, weeks, taken, avg, value, bin_ in rows
    )


def write_aggregate_json(chunks, fh) -> None:
    """Write scored rows, given in non-empty chunks, unrounded, as
    ``json.dumps(objects, indent=2) + "\\n"`` does, one object per row: each
    chunk is encoded by one call (each call builds the pure-Python indenting
    encoder anew) and written without its brackets, inside one ``[`` ... ``]``."""
    opening = "[\n"
    for chunk in chunks:
        fh.write(opening + json.dumps([dict(zip(AGGREGATE_HEADER, row)) for row in chunk], indent=2)[2:-2])
        opening = ",\n"
    fh.write("[]\n" if opening == "[\n" else "\n]\n")
