"""Attendance event-log ingestion: CSV parsing, cleaning, aggregation.

Raw event logs are noisy: duplicated scans, contradictory rows for the
same student-week, malformed fields. Everything dropped or rewritten is
counted in a :class:`CleaningReport`; nothing disappears silently.

The CLI streams an events CSV straight into a packed event map
(:func:`read_event_map`) with no object per row: each distinct student id
numbered once, and one register per module, semester and week, in first-seen
order, each an ``array('i')`` of one code per student. :func:`parse_events`,
:func:`clean_events`, :func:`aggregate` and :func:`write_events_csv` take the
same steps over :class:`AttendanceEvent` lists. Both paths share one function
per rule: row validation, the present-wins dedupe, the weekly tally and the
register writer. Both hold each distinct id as one shared string, however many
rows name it.
"""

from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_left
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import chain, groupby, islice, repeat, starmap
from operator import attrgetter, invert
from pathlib import Path

from . import tables
from .credibility import ModuleTermRecord, WeekObservation, _check_counts, _sac, _strength, attendance_average
from .errors import InvalidAverage, SchemaMismatch, WeekOutOfRange

EVENTS_HEADER = ("student_id", "module_code", "semester", "week", "status")
ROSTER_HEADER = ("module_code", "semester", "registered")
MODULE_INPUT_HEADER = ("module_code", "semester", "weeks_total", "attendance_taken", "attend_avg")
AGGREGATE_HEADER = MODULE_INPUT_HEADER + ("sac", "sac_strength")

# An events log after cleaning, (ids, registers): each distinct student id once, numbered from 0 in
# first-seen order, and (module_code, semester, week) -> its students as a sorted array of codes, n if
# ids[n] was present and ~n if absent, in first-seen order. Each module code is one shared string.
EventMap = tuple[list[str], dict[tuple[str, int, int], array]]


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
    ids: list[str] = []
    events = [
        AttendanceEvent(ids[n], module_code, semester, week, present)
        for (module_code, semester, week), n, present in _valid_rows(stream, report, ids)
    ]
    report.check()
    return events, report


def clean_events(events: list[AttendanceEvent]) -> tuple[list[AttendanceEvent], CleaningReport]:
    """Deduplicate events down to one per :attr:`AttendanceEvent.key`.

    When the same key carries both a present and an absent row, present
    wins: double scans are far more common than phantom ones. Output is
    sorted by key (module, semester, week, student), so the result is a
    pure function of the input set. Each winner is the first of its key's
    events with the winning status.
    """
    rows = [((e.module_code, e.semester, e.week_index), e.student_id, e.present) for e in events]
    first = dict(zip(reversed(rows), reversed(events)))  # each row's first event
    number: dict[str, int] = {}  # each student id -> its number, in first-seen order
    registers, report = _pack((group, number.setdefault(student_id, len(number)), present)
                              for group, student_id, present in rows)
    return [first[group, student_id, present] for group, student_ids, presents in _in_key_order(list(number), registers)
            for student_id, present in zip(student_ids, presents)], report


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
    """Stream an events CSV straight into its packed :data:`EventMap`.

    Rows are validated as :func:`parse_events` does and deduplicated as
    :func:`clean_events` does, with one 4-byte code kept per row until its
    register is compacted, so memory grows with the distinct keys, not with
    the file. Returns the map, its registers in first-seen order and each
    one's students by number, with the parse and the cleaning report. With
    ``weeks_total``, a valid row for a later week raises WeekOutOfRange
    naming its line.
    """
    limit = math.inf if weeks_total is None else _week_limit(weeks_total)
    parsed, ids = CleaningReport(), []
    registers, cleaning = _pack(_valid_rows(source, parsed, ids, limit))
    parsed.check()
    return (ids, registers), parsed, cleaning


def aggregate_event_map(
    winners: EventMap, roster: list[RosterEntry] | None = None, weeks_total: int = 11
) -> tuple[list[ModuleTermRecord], list[str]]:
    """:func:`aggregate` over an event map from :func:`read_event_map`, unsorted."""
    splits = ((group, codes, bisect_left(codes, 0)) for group, codes in winners[1].items())
    groups = ((group, len(codes) - i, chain(codes[i:], map(invert, codes[:i]))) for group, codes, i in splits)
    return _tally(groups, roster, weeks_total)


# --- the rules: row validation, present-wins dedupe, weekly tally ----------

#: The semester rule of the events, roster and module-input readers: the trimmed text 1 or 2.
_SEMESTERS = {"1": 1, "2": 2}
_STATUSES = {"present": True, "absent": False}
#: Distinct raw (semester, week, status) cells that :func:`_valid_rows` decodes and keeps;
#: a log has a few dozen, and a file of distinct junk cells must not grow the memo with it.
_CELL_TRIPLES = 1024
#: Rows packed between sweeps. A sweep compacts each register that holds more than twice its codes after
#: its last compaction and more than 64, about the bytes of its own array and key. So a register holds at
#: most twice its keys' codes or 64, whichever is more, plus the codes of this many rows, 4 bytes each.
_SWEEP = 1 << 16


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


def _valid_rows(source, report: CleaningReport, ids: list[str], weeks_total: float = math.inf):
    """Each valid row of the events table ``source``, any source that
    :func:`tables.read` takes, as ``((module_code, semester, week), n,
    present)``, in file order, where ``n`` numbers the row's student id: each
    distinct id is appended once to ``ids``, in first-seen order.

    The header must be :data:`EVENTS_HEADER`. Every other row is counted in
    ``report`` under its first defect in this order: wrong field count, empty
    student_id, empty module_code, bad semester, bad week, unknown status. A
    valid row for a week beyond ``weeks_total`` raises WeekOutOfRange. Cells are
    judged trimmed. Each distinct module code is one string object, shared by its rows.
    """
    number: dict[str, int] = {}  # each student id -> its index in ids
    modules: dict[str, str] = {}  # each module code kept so far, to itself
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
            n = number.get(student_id)
            if n is None:
                n = number[student_id] = len(ids)
                ids.append(student_id)
            yield (modules.setdefault(module_code, module_code), semester, week), n, present


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


def _pack(rows) -> tuple[dict[tuple[str, int, int], array], CleaningReport]:
    """The registers of an :data:`EventMap` of ``(group, n, present)`` rows, and their cleaning report.
    Rows are packed :data:`_SWEEP` at a time; each batch is followed by a sweep, and the last sweep
    compacts every register that grew. Compacting keeps each student once, sorted, and ``n``
    (present) wins over ``~n`` (absent)."""
    registers: dict = {}
    bounds = array("i")  # each register's length after its last compaction, in register order
    conflicts: set = set()
    rows, read, more = enumerate(rows, 1), 0, True
    while more:
        start = read
        for read, (group, n, present) in islice(rows, _SWEEP):
            try:
                registers[group].append(n if present else ~n)
            except KeyError:
                registers[group] = array("i", (n if present else ~n,))
                bounds.append(0)
        more = read - start == _SWEEP
        for i, (group, codes) in enumerate(registers.items()):
            if len(codes) > (max(2 * bounds[i], 64) if more else bounds[i]):
                kept = set(codes)
                unique = sorted(kept)
                both = kept.intersection(map(invert, unique[: bisect_left(unique, 0)]))  # n with ~n kept
                if both:
                    conflicts.update(zip(repeat(group), both))
                    unique = sorted(kept.difference(map(invert, both)))
                codes[:] = array("i", unique)
                bounds[i] = len(codes)
    kept = sum(bounds)
    return registers, CleaningReport(read, kept, read - kept, len(conflicts))


def _in_key_order(ids: list[str], registers: dict):
    """Each ``(group, student_ids, presents)`` of packed ``registers``, by group, its students by id."""
    for group in sorted(registers):
        codes = registers[group]
        absent = bisect_left(codes, 0)
        status = dict(zip(map(ids.__getitem__, map(invert, codes[:absent])), repeat(False)))
        status.update(zip(map(ids.__getitem__, codes[absent:]), repeat(True)))
        student_ids = sorted(status)
        yield group, student_ids, map(status.__getitem__, student_ids)


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
                    f"{tables.shown([module_code])[0]} semester {semester} week {week}: "
                    f"{attended} present exceeds {registered} registered"
                )
                break
            observations.append(WeekObservation(week, attended, registered))
        else:
            records.append(ModuleTermRecord(module_code, semester, weeks_total, tuple(observations)))
    return records, rejections


# --- CSV surfaces -----------------------------------------------------------


def write_events_csv(events: list[AttendanceEvent], fh) -> None:
    """Write events as cleaned events, in list order."""
    runs = ((group, list(run)) for group, run in groupby(events, attrgetter("module_code", "semester", "week_index")))
    _write_events(((group, [e.student_id for e in run], [e.present for e in run]) for group, run in runs), fh)


def write_event_map_csv(winners: EventMap, fh) -> None:
    """Write an event map as cleaned events, sorted by key as :func:`clean_events` sorts."""
    _write_events(_in_key_order(*winners), fh)


def _write_events(registers, fh) -> None:
    """Write cleaned events from ``(group, student_ids, presents)`` registers, in the order given, one
    write each. Ids are quoted only in a register where one needs it, after they are sorted."""
    fh.write(",".join(EVENTS_HEADER) + "\n")
    for (module_code, semester, week), student_ids, presents in registers:
        tail = f",{tables.quoted(module_code)},{semester},{week},"
        tails = (tail + "absent\n", tail + "present\n")
        if tables.NEEDS_QUOTES.search("".join(student_ids)):
            student_ids = map(tables.quoted, student_ids)
        fh.write("".join(map(str.__add__, student_ids, map(tails.__getitem__, presents))))


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
    Each row is checked once, as :meth:`tables.Table.rows` hands it on, so a
    fault of these rules and a cell that does not parse come out in row order.
    """
    with tables.read(source if isinstance(source, tables.Table) else Path(source)) as table:
        table.expect(MODULE_INPUT_HEADER)
        rows = table.rows(MODULE_INPUT_HEADER, {2: int, 3: int})
        yield from tables.chunks(starmap(_scored, map(_module_input, rows)))


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
    tables.write(fh, chain((AGGREGATE_HEADER,), (
        (code, semester, weeks, taken, "" if avg is None else f"{avg:.1f}", "" if value is None else f"{value:.3f}", bin_)
        for code, semester, weeks, taken, avg, value, bin_ in rows)))


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
