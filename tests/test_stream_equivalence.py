"""The CLI's streaming event map against the event-list chain and the reference.

``read_event_map`` validates and deduplicates straight off the CSV rows;
``parse_events`` -> ``clean_events`` -> ``aggregate`` does the same over
``AttendanceEvent`` lists, and ``reference_ingest`` states the dedupe rule
by grouping. On logs with trimmed and quoted cells, mixed-case statuses,
every rejection reason, and exact duplicates and conflicts in any order,
all three must agree on the winners, the reports, the records and the
bytes ``ingest --out`` writes.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference_ingest as ref
from sacmine import ingest
from sacmine.cli import run
from sacmine.errors import WeekOutOfRange

WEEKS = 3
HEADER = ",".join(ingest.EVENTS_HEADER)

KEYS = st.tuples(
    st.sampled_from(["s1", "s2", "s10", "s 3"]),
    st.sampled_from(["M1", "M2", "m1"]),
    st.sampled_from(["1", "2"]),
    st.sampled_from(["1", "2", "3", "03"]),
)
STATUS = {
    True: st.sampled_from(["present", "Present", "PRESENT"]),
    False: st.sampled_from(["absent", "Absent", "ABSENT"]),
}
# One row per rejection reason, each with exactly that defect.
MALFORMED = st.sampled_from(
    [
        ["s1", "M1", "1", "1"],
        ["s1", "M1", "1", "1", "present", "x"],
        ["", "M1", "1", "1", "present"],
        ["s1", " ", "1", "1", "present"],
        ["s1", "M1", "3", "1", "present"],
        ["s1", "M1", "1", "0", "present"],
        ["s1", "M1", "1", "two", "present"],
        ["s1", "M1", "1", "1", "late"],
    ]
)
ROSTERS = st.lists(
    st.builds(
        ingest.RosterEntry,
        st.sampled_from(["M1", "M2", "M9"]),
        st.sampled_from([1, 2]),
        st.integers(1, 3),
    ),
    unique_by=lambda entry: (entry.module_code, entry.semester),
    max_size=3,
)


@st.composite
def event_logs(draw, keys=KEYS):
    """An events CSV text with duplicates, conflicts and malformed rows, in any order."""
    rows = []
    for key in draw(st.lists(keys, max_size=12)):
        for present in draw(st.lists(st.booleans(), min_size=1, max_size=4)):
            rows.append([*key, draw(STATUS[present])])
    rows += draw(st.lists(MALFORMED, max_size=4))
    rows = draw(st.permutations(rows))
    lines = [HEADER]
    for cells in rows:
        lines.append(",".join(draw(st.sampled_from([c, f" {c} ", f'"{c}"', f'" {c}"'])) for c in cells))
        if draw(st.booleans()) and draw(st.booleans()):
            lines.append("")
    return "\n".join(lines) + "\n"


def ingest_out(text: str) -> bytes:
    """The bytes ``sacmine ingest --out`` writes for ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        source, out = Path(tmp, "events.csv"), Path(tmp, "cleaned.csv")
        source.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(["ingest", "--in", str(source), "--out", str(out)]) == 0
        return out.read_bytes()


@settings(max_examples=200, deadline=None)
@given(event_logs(), ROSTERS)
def test_event_map_matches_event_lists_and_reference(text, roster):
    winners, parsed, cleaning = ingest.read_event_map(text)
    events, lib_parsed = ingest.parse_events(text)
    cleaned, lib_cleaning = ingest.clean_events(events)
    ref_cleaned, ref_cleaning = ref.clean_events(events)

    assert parsed == lib_parsed
    assert cleaning == lib_cleaning == ref_cleaning
    assert cleaned == ref_cleaned
    flat = [((*group, s), present) for group, students in ref.expand(winners).items() for s, present in students.items()]
    assert sorted(flat) == [(event.key, event.present) for event in ref_cleaned]
    assert ingest.aggregate_event_map(winners, roster, WEEKS) == ingest.aggregate(cleaned, roster, WEEKS)
    assert ingest.read_event_map(text, WEEKS)[0] == winners

    expected = io.StringIO()
    ingest.write_events_csv(ref_cleaned, expected)
    assert ingest_out(text) == expected.getvalue().encode()


@settings(max_examples=100, deadline=None)
@given(event_logs(st.tuples(st.just("s1"), st.just("M1"), st.just("1"), st.sampled_from(["3", "4"]))))
def test_a_week_beyond_the_limit_raises_on_both_paths(text):
    events, _ = ingest.parse_events(text)
    beyond = any(event.week_index > WEEKS for event in events)
    winners = ingest.read_event_map(text)[0]
    if not beyond:
        assert ingest.read_event_map(text, WEEKS)[0] == winners
        return
    with pytest.raises(WeekOutOfRange):
        ingest.read_event_map(text, WEEKS)
    with pytest.raises(WeekOutOfRange):
        ingest.aggregate_event_map(winners, None, WEEKS)
    with pytest.raises(WeekOutOfRange):
        ingest.aggregate(ingest.clean_events(events)[0], None, WEEKS)
