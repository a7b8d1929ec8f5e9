import io
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import reference_ingest as ref
from sacmine.errors import MissingHeader, WeekOutOfRange
from sacmine.ingest import (
    AGGREGATE_HEADER,
    AttendanceEvent,
    RosterEntry,
    aggregate,
    clean_events,
    parse_events,
    read_event_map,
    score_rows,
    write_aggregate_csv,
    write_event_map_csv,
)

HEADER = "student_id,module_code,semester,week,status\n"


class NullSink:
    """A text sink that keeps nothing but a count of the lines written to it."""

    lines = 0

    def write(self, text):
        self.lines += text.count("\n")


def ev(student="s1", module="M1", semester=1, week=1, present=True):
    return AttendanceEvent(student, module, semester, week, present)


class TestParse:
    def test_empty_input_is_header_only(self):
        events, report = parse_events(HEADER)
        assert events == []
        assert report.rows_read == 0

    def test_missing_header(self):
        with pytest.raises(MissingHeader):
            parse_events("just,some,garbage\n")
        with pytest.raises(MissingHeader):
            parse_events(b"")

    def test_case_insensitive_status_and_trimming(self):
        events, report = parse_events(HEADER + " s1 , M1 ,1,3, Present \n")
        assert len(events) == 1
        assert events[0] == ev(week=3)
        assert report.rows_rejected == 0

    def test_week_zero_rejected(self):
        events, report = parse_events(HEADER + "s1,M1,1,0,present\n")
        assert events == []
        assert report.rejection_reasons == {"bad week": 1}

    def test_bad_rows_counted_by_reason(self):
        rows = (
            "s1,M1,3,1,present\n"      # bad semester
            "s1,M1,1,x,present\n"      # bad week
            "s1,M1,1,1,late\n"         # unknown status
            "s1,M1,1,1\n"              # wrong arity
            ",M1,1,1,present\n"        # empty student
            "s2,M1,2,4,ABSENT\n"       # fine
        )
        events, report = parse_events(HEADER + rows)
        assert len(events) == 1
        assert events[0].status == "absent"
        assert report.rows_read == 6
        assert report.rows_rejected == 5
        assert report.rows_read == report.rows_kept + report.duplicates_dropped + report.rows_rejected

    def test_a_report_that_does_not_balance_fails_its_check(self):
        _, report = parse_events(HEADER + "s1,M1,1,1,present\n")
        report.check()
        report.rows_kept += 1
        with pytest.raises(AssertionError, match="^cleaning report does not balance: "):
            report.check()

    def test_weeks_past_the_week_cache_are_read_the_same(self):
        cells = [f"{'0' * i}3" for i in range(1_100)] + ["x", " 4"]
        events, report = parse_events(HEADER + "".join(f"s1,M1,1,{cell},present\n" for cell in cells))
        assert [event.week_index for event in events] == [3] * 1_100 + [4]
        assert report.rejection_reasons == {"bad week": 1}

    def test_accepts_bytes_and_streams(self):
        blob = (HEADER + "s1,M1,1,1,present\n").encode()
        for source in (blob, io.BytesIO(blob), io.StringIO(blob.decode())):
            events, _ = parse_events(source)
            assert len(events) == 1


class TestClean:
    def test_exact_duplicate_dropped(self):
        cleaned, report = clean_events([ev(), ev()])
        assert cleaned == [ev()]
        assert report.duplicates_dropped == 1
        assert report.conflicts_resolved == 0

    def test_present_beats_absent(self):
        cleaned, report = clean_events([ev(present=False), ev(present=True)])
        assert cleaned == [ev(present=True)]
        assert report.conflicts_resolved == 1
        assert report.duplicates_dropped == 1  # the losing row is still a dropped row

    def test_already_clean_is_unchanged(self):
        events = [ev(student="s1"), ev(student="s2", week=2)]
        cleaned, report = clean_events(events)
        assert sorted(cleaned, key=lambda e: e.key) == sorted(events, key=lambda e: e.key)
        assert report.duplicates_dropped == 0
        assert report.conflicts_resolved == 0

    def test_output_order_is_canonical(self):
        events = [ev(student="s2", week=2), ev(student="s1", week=2), ev(student="s9", week=1)]
        cleaned, _ = clean_events(events)
        expected = sorted(events, key=lambda e: (e.module_code, e.semester, e.week_index, e.student_id))
        assert cleaned == expected

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["s1", "s2", "s3"]),
                st.sampled_from(["M1", "M2"]),
                st.sampled_from([1, 2]),
                st.integers(1, 4),
                st.booleans(),
            ),
            max_size=30,
        )
    )
    def test_idempotent(self, rows):
        events = [AttendanceEvent(*row) for row in rows]
        once, _ = clean_events(events)
        twice, report = clean_events(once)
        assert twice == once
        assert report.duplicates_dropped == 0
        assert report.conflicts_resolved == 0


class TestEventMap:
    def test_memory_grows_with_distinct_keys_not_rows(self, tmp_path):
        events = tmp_path / "events.csv"
        events.write_text(HEADER + "s1,M1,1,1,present\n" * 50_000)
        tracemalloc.start()
        try:
            winners, parsed, cleaning = read_event_map(events)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ref.expand(winners) == {("M1", 1, 1): {"s1": True}}
        assert (parsed.rows_kept, cleaning.duplicates_dropped) == (50_000, 49_999)
        assert peak < 2**20

    def test_a_register_is_compacted_while_it_is_read(self, tmp_path):
        # 300k codes of one register take 1.2 MB until it is compacted, more than
        # any number of rows between compactions.
        events = tmp_path / "events.csv"
        events.write_text(HEADER + "s1,M1,1,1,present\n" * 300_000)
        tracemalloc.start()
        try:
            winners, parsed, cleaning = read_event_map(events)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ref.expand(winners) == {("M1", 1, 1): {"s1": True}}
        assert (parsed.rows_kept, cleaning.duplicates_dropped) == (300_000, 299_999)
        assert peak < 2**20

    @staticmethod
    def write_log(path, students=200, modules=10, weeks=10):
        """An events CSV with one row per key, each id on many rows; returns its path."""
        rows = [
            f"student-{s:04d},MODULE-{m:03d},1,{w},{'absent' if (s + w) % 3 == 0 else 'present'}"
            for m in range(modules)
            for w in range(1, weeks + 1)
            for s in range(students)
        ]
        path.write_text(HEADER + "\n".join(rows) + "\n")
        return path

    def test_each_distinct_id_is_one_string_object(self, tmp_path):
        events = self.write_log(tmp_path / "events.csv", students=30, modules=4, weeks=3)
        winners = read_event_map(events)[0]
        ids = [s for group, students in ref.expand(winners).items() for s in (group[0], *students)]
        assert len(set(ids)) == 34
        assert len({id(s) for s in ids}) == len(set(ids))
        parsed = parse_events(events)[0]
        ids = [s for event in parsed for s in (event.student_id, event.module_code)]
        assert len({id(s) for s in ids}) == len(set(ids)) == 34

    def test_memory_per_distinct_key_is_the_key_and_its_map_entry(self, tmp_path):
        # 20k keys over 200 students, 10 modules and 10 weeks, in 100 registers:
        # about 11 bytes a key, one 4-byte code in its register's array; about 37
        # with a student map per register, and 105 when each key is a tuple of
        # its own in one flat map.
        events = self.write_log(tmp_path / "events.csv")
        tracemalloc.start()
        try:
            winners = read_event_map(events)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        registers = ref.expand(winners)
        keys = sum(map(len, registers.values()))
        assert (len(registers), keys) == (100, 20_000)
        assert peak / keys < 20

    def test_writing_a_map_holds_no_list_of_its_keys(self, tmp_path):
        # Four times the registers, of 400 students each, within twice the peak.
        peaks = []
        for modules in (4, 16):
            winners = read_event_map(self.write_log(tmp_path / "events.csv", 400, modules, 10))[0]
            sink = NullSink()
            tracemalloc.start()
            try:
                write_event_map_csv(winners, sink)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert sink.lines == 1 + 400 * modules * 10
        assert peaks[1] < 2 * peaks[0]


class TestAggregate:
    def test_perfect_module(self):
        events = [
            ev(student=f"s{i}", week=w)
            for w in range(1, 12)
            for i in range(20)
        ]
        roster = [RosterEntry("M1", 1, 20)]
        records, rejections = aggregate(events, roster, weeks_total=11)
        assert rejections == []
        (r,) = records
        assert r.taken_count == 11
        assert r.attend_avg == 100.0
        assert r.sac == 1.0

    def test_two_taken_weeks(self):
        events = [ev(student=f"s{i}", week=w) for w in (3, 7) for i in range(20)]
        records, _ = aggregate(events, [RosterEntry("M1", 1, 20)], weeks_total=11)
        (r,) = records
        assert r.taken_count == 2
        assert r.attend_avg == 100.0
        assert r.sac == pytest.approx(100 * 2 / (100 * 11), abs=1e-12)

    def test_default_denominator_is_distinct_students(self):
        # 4 students seen over the semester, 2 present in week 1
        events = [
            ev(student="s1", week=1),
            ev(student="s2", week=1),
            ev(student="s3", week=1, present=False),
            ev(student="s4", week=2),
        ]
        records, _ = aggregate(events, None, weeks_total=11)
        (r,) = records
        assert r.observations[0].registered == 4
        assert r.observations[0].attended == 2

    def test_roster_module_without_events_is_flagged(self):
        records, rejections = aggregate([], [RosterEntry("M9", 2, 30)], weeks_total=11)
        assert rejections == []
        (r,) = records
        assert r.module_code == "M9"
        assert r.flagged

    def test_present_count_above_roster_rejects_record(self):
        events = [ev(student=f"s{i}", week=1) for i in range(5)]
        records, rejections = aggregate(events, [RosterEntry("M1", 1, 3)], weeks_total=11)
        assert records == []
        assert len(rejections) == 1
        assert "exceeds" in rejections[0]

    def test_week_beyond_semester_raises(self):
        with pytest.raises(WeekOutOfRange):
            aggregate([ev(week=12)], None, weeks_total=11)

    def test_absent_only_week_still_counts_as_taken(self):
        events = [ev(student="s1", week=5, present=False)]
        records, _ = aggregate(events, None, weeks_total=11)
        (r,) = records
        assert r.taken_count == 1
        assert r.attend_avg == 0.0


class TestAggregateCsv:
    def test_formatting(self):
        events = [ev(student=f"s{i}", week=w) for w in (3, 7) for i in range(20)]
        records, _ = aggregate(events, [RosterEntry("M1", 1, 20)], weeks_total=11)
        records += aggregate([], [RosterEntry("M2", 1, 10)], weeks_total=11)[0]
        buf = io.StringIO()
        write_aggregate_csv(score_rows(records), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(AGGREGATE_HEADER)
        assert lines[1] == "M1,1,11,2,100.0,0.182,2"
        assert lines[2] == "M2,1,11,0,,,0"
