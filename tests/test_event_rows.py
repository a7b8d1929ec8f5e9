"""The events row loop against a reference that states the row rules directly.

``read_event_map`` and ``parse_events`` validate rows in one lean loop
that trims only the cells it checks and decodes each distinct raw
semester, week and status triple once. ``reference_ingest.valid_events``
trims every cell first and then applies the documented rules in order,
with no code shared with that loop. On cells with surrounding whitespace
(``\\x1c`` and ``\\x85`` among it, which ``str.strip`` removes but ``int``
does not accept), underscores and non-ASCII digits in weeks, mixed-case
statuses, blank ids and wrong widths, the two must keep the same rows, in
the same order, with the same reports.
"""

import csv
import io
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import reference_ingest as ref
from sacmine import ingest

STUDENTS = st.sampled_from(["s1", " s1", "s1 ", "s2", "s10", "", " ", "\x1c"])
MODULES = st.sampled_from(["M1", " M1 ", "M2", "m1", "", "\x85"])
SEMESTERS = st.sampled_from(["1", "2", " 2", "\x1c1", "3", "", "01"])
WEEKS = st.sampled_from(["1", "3", " 3", "03", "\x1c3", "\x853", "1_0", "\u0663", "0", "-1", "+2", "x", ""])
STATUSES = st.sampled_from(["present", "absent", " Present ", "ABSENT", "\x1cabsent", "late", ""])
ROW = st.tuples(STUDENTS, MODULES, SEMESTERS, WEEKS, STATUSES).map(list)
ODD_WIDTH = st.lists(st.sampled_from(["s1", "M1", "1", "3", "present", ""]), min_size=1, max_size=7).filter(
    lambda cells: len(cells) != 5
)


@st.composite
def event_logs(draw):
    """An events CSV text: mostly five-cell rows, with repeats, odd widths and blank lines."""
    rows = draw(st.lists(st.one_of(ROW, ROW, ROW, ODD_WIDTH), max_size=30))
    rows += draw(st.lists(st.sampled_from(rows), max_size=10)) if rows else []
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(ingest.EVENTS_HEADER)
    for row in draw(st.permutations(rows)):
        writer.writerow(row)
        if draw(st.integers(0, 5)) == 0:
            out.write("\n")
    return out.getvalue()


@settings(max_examples=300, deadline=None)
@given(event_logs())
def test_the_row_loop_keeps_the_documented_rules(text):
    events, ref_parsed = ref.valid_events(text)
    ref_cleaned, ref_cleaning = ref.clean_events(events)
    winners, parsed, cleaning = ingest.read_event_map(text)

    assert parsed == ref_parsed
    assert cleaning == ref_cleaning
    first_seen = list(dict.fromkeys(event.key[:3] for event in events))
    assert list(ref.expand(winners)) == first_seen
    cleaned: dict = {}
    for event in ref_cleaned:
        cleaned.setdefault(event.key[:3], {})[event.student_id] = event.present
    assert ref.expand(winners) == cleaned
    assert ingest.parse_events(text) == (events, ref_parsed)


@pytest.mark.parametrize(
    "row, reason", [("s{},M1,1,w{},present", "bad week"), ("s{},M1,1,1,status{}", "unknown status")]
)
def test_distinct_junk_cells_do_not_grow_the_memo(tmp_path, row, reason):
    """The loop keeps the decoded cells of at most ``ingest._CELL_TRIPLES`` triples."""
    events = tmp_path / "events.csv"
    events.write_text(",".join(ingest.EVENTS_HEADER) + "\n" + "".join(row.format(i, i) + "\n" for i in range(50_000)))
    tracemalloc.start()
    try:
        winners, parsed, _ = ingest.read_event_map(events)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (ref.expand(winners), parsed.rows_read, parsed.rows_kept) == ({}, 50_000, 0)
    assert parsed.rejection_reasons == {reason: 50_000}
    assert peak < 2**20
