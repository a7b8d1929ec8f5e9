"""The ingest library calls the benchmark's traced run makes, as it makes them.

``perfbench/tracing.py`` replays ``score --roster``, ``ingest`` and
``score`` on module inputs as direct library calls. These tests make the
same calls with the same argument forms on a small generated log and
require the CLI's bytes, so a change to a name, a signature or a report
field the traced run uses fails here first.
"""

import pytest

from sacmine import fixtures, ingest, synthgen
from sacmine.cli import run

WEEKS = 11


@pytest.fixture
def work(tmp_path):
    """A generated log with an exact duplicate, a conflict and a malformed row, plus a roster."""
    payload = synthgen.generate_events(synthgen.GenParams(module_count=4, weeks_total=WEEKS, seed=3))
    header, *rows = payload.decode().splitlines()
    registered = {}
    for row in rows:
        student, module, semester = row.split(",")[:3]
        registered.setdefault((module, semester), set()).add(student)
    (tmp_path / "roster.csv").write_text(
        "module_code,semester,registered\n"
        + "".join(f"{m},{s},{len(ids)}\n" for (m, s), ids in sorted(registered.items()))
    )
    *fields, status = rows[5].split(",")
    conflict = ",".join([*fields, "absent" if status == "present" else "present"])
    rows[1:1] = [rows[7], conflict, "s1,M9,3,1,present"]
    (tmp_path / "events.csv").write_text("\n".join([header, *rows]) + "\n")
    return tmp_path


def test_score_chain_matches_cli(capsys, work, tmp_path):
    with open(work / "events.csv", "rb") as fh:
        events, parsed = ingest.parse_events(fh)
    cleaned, cleaning = ingest.clean_events(events)
    roster = ingest.read_roster_csv(work / "roster.csv")
    records, _ = ingest.aggregate(cleaned, roster, WEEKS)
    rows = ingest.score_rows(records)
    with open(tmp_path / "lib.csv", "w", newline="", encoding="utf-8") as fh:
        ingest.write_aggregate_csv(rows, fh)

    argv = ["score", "--in", str(work / "events.csv"), "--roster", str(work / "roster.csv")]
    assert run([*argv, "--out", str(tmp_path / "cli.csv")]) == 0
    assert (tmp_path / "lib.csv").read_bytes() == (tmp_path / "cli.csv").read_bytes()
    assert len(records) == 4
    assert (parsed.rows_read, parsed.rows_rejected) == (len(events) + 1, 1)
    assert (cleaning.duplicates_dropped, cleaning.conflicts_resolved) == (2, 1)
    assert cleaning.rows_kept / parsed.rows_read < 1
    assert f"{cleaning.duplicates_dropped} duplicates dropped" in capsys.readouterr().err


def test_ingest_chain_matches_cli(work, tmp_path):
    with open(work / "events.csv", "rb") as fh:
        events, _ = ingest.parse_events(fh)
    cleaned, _ = ingest.clean_events(events)
    with open(tmp_path / "lib.csv", "w", newline="", encoding="utf-8") as fh:
        ingest.write_events_csv(cleaned, fh)

    assert run(["ingest", "--in", str(work / "events.csv"), "--out", str(tmp_path / "cli.csv")]) == 0
    assert (tmp_path / "lib.csv").read_bytes() == (tmp_path / "cli.csv").read_bytes()


def test_module_inputs_chain_matches_cli(tmp_path):
    source = fixtures.path(fixtures.MODULE_SAMPLE)
    scored = ingest.read_module_inputs_csv(source)
    with open(tmp_path / "lib.csv", "w", newline="", encoding="utf-8") as fh:
        ingest.write_aggregate_csv(scored, fh)

    assert run(["score", "--in", str(source), "--out", str(tmp_path / "cli.csv")]) == 0
    assert (tmp_path / "lib.csv").read_bytes() == (tmp_path / "cli.csv").read_bytes()
    assert len(scored) == 3
