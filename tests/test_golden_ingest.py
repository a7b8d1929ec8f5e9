"""Golden outputs of the events pipeline on a hand-written conflict fixture.

The fixture holds an exact duplicate, conflicts in both orders, a triple
(absent, present, absent), a lone absent, a rejected row, status case
variants, a student id that sorts between others as text, and a roster
module without events. ``score`` (CSV and JSON) and ``ingest --out``
must reproduce the committed text byte for byte.
"""

import pytest

from sacmine import ingest
from sacmine.cli import run

EVENTS = """\
student_id,module_code,semester,week,status
s2,M1,1,1,absent
s1,M1,1,1,present
s1,M1,1,1,present
s2,M1,1,1,present
s1,M1,1,2,present
s1,M1,1,2,absent
s2,M1,1,2,absent
s2,M1,1,2,present
s2,M1,1,2,absent
s10,M1,1,3,ABSENT
s3,M1,1,3,late
s1,M2,2,1,absent
s1,M2,2,1,absent
s4,M2,2,1,Present
s4,M2,2,4,absent
s4,M2,2,4,present
s4,M2,2,4,present
"""

ROSTER = """\
module_code,semester,registered
M1,1,3
M2,2,2
M3,1,5
"""

ACCOUNTING = """\
read 17 rows: kept 16, rejected 1
  rejected 1: unknown status
cleaned to 8 events: 8 duplicates dropped, 4 conflicts resolved
"""

SCORE_STDOUT = """\
M1 sem 1: sac 0.121 strength 2 (taken 3)
M2 sem 2: sac 0.091 strength 1 (taken 2)
M3 sem 1: no attendance taken
"""

SCORED_CSV = """\
module_code,semester,weeks_total,attendance_taken,attend_avg,sac,sac_strength
M1,1,11,3,44.4,0.121,2
M2,2,11,2,50.0,0.091,1
M3,1,11,0,,,0
"""

SCORED_JSON = """\
[
  {
    "module_code": "M1",
    "semester": 1,
    "weeks_total": 11,
    "attendance_taken": 3,
    "attend_avg": 44.444444444444436,
    "sac": 0.1212121212121212,
    "sac_strength": 2
  },
  {
    "module_code": "M2",
    "semester": 2,
    "weeks_total": 11,
    "attendance_taken": 2,
    "attend_avg": 50.0,
    "sac": 0.09090909090909091,
    "sac_strength": 1
  },
  {
    "module_code": "M3",
    "semester": 1,
    "weeks_total": 11,
    "attendance_taken": 0,
    "attend_avg": null,
    "sac": null,
    "sac_strength": 0
  }
]
"""

CLEANED_CSV = """\
student_id,module_code,semester,week,status
s1,M1,1,1,present
s2,M1,1,1,present
s1,M1,1,2,present
s2,M1,1,2,present
s10,M1,1,3,absent
s1,M2,2,1,absent
s4,M2,2,1,present
s4,M2,2,4,present
"""


@pytest.fixture
def fixture_files(tmp_path):
    (tmp_path / "events.csv").write_text(EVENTS)
    (tmp_path / "roster.csv").write_text(ROSTER)
    return tmp_path


@pytest.mark.parametrize("fmt, expected", [("csv", SCORED_CSV), ("json", SCORED_JSON)], ids=["csv", "json"])
def test_score_matches_golden(capsys, fixture_files, fmt, expected):
    out = fixture_files / f"scored.{fmt}"
    argv = ["score", "--in", str(fixture_files / "events.csv"), "--roster",
            str(fixture_files / "roster.csv"), "--out", str(out), "--format", fmt]
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == SCORE_STDOUT
    assert captured.err == ACCOUNTING
    assert out.read_bytes() == expected.encode()


def test_ingest_matches_golden(capsys, fixture_files):
    out = fixture_files / "cleaned.csv"
    assert run(["ingest", "--in", str(fixture_files / "events.csv"), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ACCOUNTING
    assert captured.err == ""
    assert out.read_bytes() == CLEANED_CSV.encode()


def test_cli_builds_no_event_objects(monkeypatch, capsys, fixture_files):
    def refuse(*args):
        raise AssertionError("an AttendanceEvent was built")

    monkeypatch.setattr(ingest, "AttendanceEvent", refuse)
    events, roster = str(fixture_files / "events.csv"), str(fixture_files / "roster.csv")
    scored, cleaned = fixture_files / "scored.csv", fixture_files / "cleaned.csv"
    assert run(["score", "--in", events, "--roster", roster, "--out", str(scored)]) == 0
    assert capsys.readouterr() == (SCORE_STDOUT, ACCOUNTING)
    assert run(["ingest", "--in", events, "--out", str(cleaned)]) == 0
    assert capsys.readouterr() == (ACCOUNTING, "")
    assert scored.read_bytes() == SCORED_CSV.encode()
    assert cleaned.read_bytes() == CLEANED_CSV.encode()
