"""Reference event validation and cleaning for the equivalence tests.

``valid_events`` reads an events CSV text with the ``csv`` module, trims
every cell, and applies the row rules the README documents, in their
documented order; it shares no code with the library's row loop.

``clean_events`` groups every event into a list per student-module-week,
then picks each group's winner: its first row when all its rows agree,
otherwise its first present row. It holds every row until the end, but it
states the present-beats-absent rule directly, and the library's single
winner map must reproduce its output and its report exactly. Only the
event and report types come from the library.

``expand`` unpacks the library's packed event map into nested dicts, so
that tests can compare its contents with these references.
"""

from __future__ import annotations

import csv
import io

from sacmine.ingest import AttendanceEvent, CleaningReport

STATUSES = {"present": True, "absent": False}


def defect(cells: list[str]) -> str | None:
    """The first broken rule of a trimmed events row, or None for a valid one."""
    if len(cells) != 5:
        return "wrong field count"
    student_id, module_code, semester, week, status = cells
    if student_id == "":
        return "empty student_id"
    if module_code == "":
        return "empty module_code"
    if semester not in ("1", "2"):
        return "bad semester"
    try:
        if int(week) < 1:
            return "bad week"
    except ValueError:
        return "bad week"
    if status.lower() not in STATUSES:
        return "unknown status"
    return None


def valid_events(text: str) -> tuple[list[AttendanceEvent], CleaningReport]:
    """The valid rows of an events CSV text, after its header, in file order."""
    report = CleaningReport()
    events = []
    for row in list(csv.reader(io.StringIO(text, newline="")))[1:]:
        if not row:
            continue
        report.rows_read += 1
        cells = [cell.strip() for cell in row]
        reason = defect(cells)
        if reason is not None:
            report.reject(reason)
            continue
        student_id, module_code, semester, week, status = cells
        present = STATUSES[status.lower()]
        events.append(AttendanceEvent(student_id, module_code, int(semester), int(week), present))
    report.rows_kept = len(events)
    report.check()
    return events, report


def clean_events(events: list[AttendanceEvent]) -> tuple[list[AttendanceEvent], CleaningReport]:
    groups: dict[tuple, list[AttendanceEvent]] = {}
    for event in events:
        key = (event.student_id, event.module_code, event.semester, event.week_index)
        groups.setdefault(key, []).append(event)

    report = CleaningReport(rows_read=len(events))
    kept: list[AttendanceEvent] = []
    for key, group in groups.items():
        statuses = {e.present for e in group}
        winner = group[0] if len(statuses) == 1 else next(e for e in group if e.present)
        kept.append(winner)
        report.duplicates_dropped += len(group) - 1
        if len(statuses) > 1:
            report.conflicts_resolved += 1
    kept.sort(key=lambda e: (e.module_code, e.semester, e.week_index, e.student_id))
    report.rows_kept = len(kept)
    report.check()
    return kept, report


def expand(event_map) -> dict[tuple[str, int, int], dict[str, bool]]:
    """A packed event map as ``{(module_code, semester, week): {student_id: present}}``, in its register order."""
    ids, registers = event_map
    return {group: {ids[max(code, ~code)]: code >= 0 for code in codes} for group, codes in registers.items()}
