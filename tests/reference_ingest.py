"""Reference event cleaning for the dedupe equivalence tests.

Groups every event into a list per student-module-week, then picks each
group's winner: its first row when all its rows agree, otherwise its first
present row. It holds every row until the end, but it states the
present-beats-absent rule directly, and the library's single winner map
must reproduce its output and its report exactly. Only the event and
report types come from the library.
"""

from __future__ import annotations

from sacmine.ingest import AttendanceEvent, CleaningReport


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
