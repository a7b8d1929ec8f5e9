"""Commands read their own and each other's output back the same.

Small events logs, whose ids and module codes hold commas, quotes, spaces,
line breaks and non-ASCII text, run through ``cli.run``:

- ``ingest`` of its own ``--out`` writes the same bytes;
- ``score --out`` of the cleaned file equals ``score --out`` of the raw
  file, with and without a roster, with the same exit code;
- ``score --format json`` values, rounded as the CSV rounds them, equal the
  ``--format csv`` cells;
- ``parse_events`` and ``read_event_map`` give the same parse report;
- ``predict --out`` classes equal ``dtree.predict`` and ``RuleSet.classify``
  on every row of a dataset whose names, values and labels hold such text;
- ``evaluate --model --format json`` on such a dataset equals the library's
  ``dtree.evaluate`` of the tree on ``read_dataset_csv`` of it.

Every table sacmine writes goes through ``tables.write``, which quotes a
cell that holds a comma, a quote, ``\\r`` or ``\\n`` on every interpreter, as
Python 3.13's ``csv`` does, so ids, module codes, nominal values, labels and
column names that hold a carriage return read back too.
"""

import csv
import io
import json
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

import reference_ingest as ref
from sacmine import dtree, ingest, tables
from sacmine.cli import run

TEXT = st.lists(
    st.characters(blacklist_categories=("Cs", "Cc")) | st.sampled_from([",", '"', " ", "\n", "\r", "\r\n"]), max_size=6
).map("".join)
IDS = st.sampled_from(["s1", " s2 ", "s,3", ""]) | TEXT
MODULES = st.sampled_from(["M1", "M 2", '"M3"', "M\n4"]) | TEXT
SEMESTERS = st.sampled_from(["1", "2", " 2 ", "3", "x"])
WEEKS = st.sampled_from(["1", "2", " 3", "11", "1_0", "12", "0", "x"])
STATUSES = st.sampled_from(["present", "absent", " Present ", "ABSENT", "late"])
ROW = st.tuples(IDS, MODULES, SEMESTERS, WEEKS, STATUSES).map(list)


def write_csv(path: Path, header, rows) -> Path:
    """An input CSV with every cell quoted, so that each cell reads back on every interpreter."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(header)
        writer.writerows(rows)
    return path


@st.composite
def logs(draw):
    """Events rows, some repeated and some of the wrong width, and roster rows for some of their modules."""
    rows = draw(st.lists(ROW | st.just(["s1", "M1", "1"]), max_size=20))
    rows += draw(st.lists(st.sampled_from(rows), max_size=8)) if rows else []
    rows = draw(st.permutations(rows))
    modules = sorted(
        {(row[1].strip(), row[2].strip()) for row in rows if len(row) == 5 and row[1].strip() and row[2] in ("1", "2")}
    )
    named = draw(st.lists(st.sampled_from(modules), unique=True)) if modules else []
    roster = [(module_code, semester, draw(st.integers(1, 6))) for module_code, semester in named]
    return rows, roster


def scored(argv, out: Path) -> tuple[int, bytes | None]:
    """The exit code of a ``score`` run and the bytes of its ``--out``, None when it wrote none."""
    out.unlink(missing_ok=True)
    code = run([*argv, "--out", str(out)])
    return code, out.read_bytes() if out.exists() else None


def csv_cells(row: dict) -> list[str]:
    """The cells ``score --format csv`` writes for a ``score --format json`` object."""
    avg, sac = row["attend_avg"], row["sac"]
    return [
        row["module_code"], str(row["semester"]), str(row["weeks_total"]), str(row["attendance_taken"]),
        "" if avg is None else f"{avg:.1f}", "" if sac is None else f"{sac:.3f}", str(row["sac_strength"]),
    ]


def check_read_back(work: Path, rows, roster) -> None:
    raw = write_csv(work / "raw.csv", ingest.EVENTS_HEADER, rows)
    cleaned, again = work / "cleaned.csv", work / "again.csv"
    assert run(["ingest", "--in", str(raw), "--out", str(cleaned)]) == 0
    assert run(["ingest", "--in", str(cleaned), "--out", str(again)]) == 0
    assert again.read_bytes() == cleaned.read_bytes()

    assert ingest.parse_events(raw)[1] == ingest.read_event_map(raw)[1]

    roster_csv = write_csv(work / "roster.csv", ingest.ROSTER_HEADER, roster)
    for extra in ([], ["--roster", str(roster_csv)]):
        raw_scored = scored(["score", "--in", str(raw), *extra], work / "raw-scored.csv")
        assert scored(["score", "--in", str(cleaned), *extra], work / "cleaned-scored.csv") == raw_scored
        code, text = scored(["score", "--in", str(raw), *extra, "--format", "json"], work / "scored.json")
        assert code == raw_scored[0]
        if code == 0:
            with (work / "raw-scored.csv").open(encoding="utf-8", newline="") as fh:
                assert [csv_cells(row) for row in json.loads(text)] == list(csv.reader(fh))[1:]


@settings(max_examples=100, deadline=None)
@given(logs())
def test_events_read_back_through_ingest_and_score(log):
    rows, roster = log
    with tempfile.TemporaryDirectory() as work:
        check_read_back(Path(work), rows, roster)


def test_a_lone_carriage_return_reads_back(tmp_path):
    rows = [["s\r1", "M\r1", "1", "1", "present"], ["s2", "M\r1", "1", "1", "absent"]]
    check_read_back(tmp_path, rows, [("M\r1", "1", 3)])


# The bytes every interpreter's `ingest --out` writes for CARRIAGE_RETURNS: those of Python 3.13's
# csv.writer(lineterminator="\n"), which quotes a cell that holds a lone \r.
CARRIAGE_RETURNS = [["s\r1", "M\r1", "1", "1", "present"], ["s2", "M\r1", "1", "1", "absent"]]
CLEANED = b'student_id,module_code,semester,week,status\n"s\r1","M\r1",1,1,present\ns2,"M\r1",1,1,absent\n'


def test_ingest_quotes_a_lone_carriage_return(tmp_path):
    raw = write_csv(tmp_path / "raw.csv", ingest.EVENTS_HEADER, CARRIAGE_RETURNS)
    cleaned, again = tmp_path / "cleaned.csv", tmp_path / "again.csv"
    assert run(["ingest", "--in", str(raw), "--out", str(cleaned)]) == 0
    assert cleaned.read_bytes() == CLEANED
    assert run(["ingest", "--in", str(cleaned), "--out", str(again)]) == 0
    assert again.read_bytes() == CLEANED


def csv_313(rows) -> str:
    """``rows`` as Python 3.13's ``csv.writer(lineterminator="\\n")`` writes them: before 3.13, a
    ``\\r\\n`` line terminator makes ``csv`` quote a lone ``\\r`` or ``\\n`` as 3.13 does."""
    out = io.StringIO()
    if sys.version_info >= (3, 13):
        csv.writer(out, lineterminator="\n").writerows(rows)
        return out.getvalue()
    for row in rows:
        csv.writer(out, lineterminator="\r\n").writerow(row)
        out.seek(out.tell() - 2)
        out.write("\n")
        out.truncate()
    return out.getvalue()


HOSTILE = st.lists(st.sampled_from(["s", "1", ",", '"', " ", "\r", "\n", "\r\n", "\u00e9", "\u5b57"]), min_size=1,
                   max_size=5).map("".join)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(HOSTILE, HOSTILE, st.sampled_from(["1", "2"]), st.sampled_from(["1", "2"]),
                          st.sampled_from(["present", "absent"])).map(list), max_size=15))
def test_both_event_writers_write_hostile_cells_as_python_313_does(rows):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL).writerows([ingest.EVENTS_HEADER, *rows])
    events, _ = ref.valid_events(out.getvalue())
    cleaned, _ = ref.clean_events(events)
    expected = csv_313([ingest.EVENTS_HEADER, *((e.student_id, e.module_code, e.semester, e.week_index, e.status)
                                                  for e in cleaned)])
    for write, written in ((ingest.write_events_csv, cleaned), (ingest.write_event_map_csv,
                                                                ingest.read_event_map(out.getvalue())[0])):
        text = io.StringIO()
        write(written, text)
        assert text.getvalue() == expected
        assert ingest.parse_events(text.getvalue())[0] == cleaned


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(HOSTILE, HOSTILE, st.floats(allow_nan=False), st.integers(), st.none()).map(list),
                max_size=3 * tables.CHUNK))
def test_tables_write_writes_every_chunk_as_python_313_does(rows):
    text = io.StringIO()
    tables.write(text, rows)
    assert text.getvalue() == csv_313(rows)


# Cells that the readers' trim leaves as they are: names, nominal values and module codes are trimmed when read.
EDGE = st.sampled_from(["v", "1", ",", '"', "\u00e9"])
TRIMMED = st.builds("{}{}{}".format, EDGE, HOSTILE | st.just(""), EDGE)


@st.composite
def module_inputs(draw):
    """A module-inputs row whose module code is hostile and whose average has one decimal, as scored CSVs write it."""
    weeks = draw(st.integers(1, 11))
    taken = draw(st.integers(0, weeks))
    avg = f"{draw(st.integers(0, 1000)) / 10:.1f}" if taken else ""
    return [draw(TRIMMED), draw(st.sampled_from(["1", "2"])), str(weeks), str(taken), avg]


@settings(max_examples=100, deadline=None)
@given(st.lists(module_inputs(), max_size=10))
def test_the_aggregate_writer_writes_hostile_module_codes_as_python_313_does(rows):
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        inputs = write_csv(work / "inputs.csv", ingest.MODULE_INPUT_HEADER, rows)
        code, text = scored(["score", "--in", str(inputs), "--format", "json"], work / "scored.json")
        assert code == 0
        expected = csv_313([ingest.AGGREGATE_HEADER, *map(csv_cells, json.loads(text))]).encode()
        assert scored(["score", "--in", str(inputs)], work / "scored.csv") == (0, expected)
        # The first five columns of the output are module inputs that score the same.
        with (work / "scored.csv").open(encoding="utf-8", newline="") as fh:
            again = write_csv(work / "again.csv", ingest.MODULE_INPUT_HEADER, [row[:5] for row in csv.reader(fh)][1:])
        assert scored(["score", "--in", str(again)], work / "again-scored.csv") == (0, expected)


@st.composite
def datasets(draw, min_size=0):
    """A dataset of two nominal and one numeric attribute whose names, domain values and labels are hostile."""
    names = draw(st.lists(TRIMMED, min_size=4, max_size=4, unique=True))
    domains = [draw(st.lists(TRIMMED, min_size=1, max_size=3, unique=True)) for _ in range(3)]
    attributes = (*(dtree.AttributeSpec(name, dtree.NOMINAL, domain) for name, domain in zip(names, domains[:2])),
                  dtree.AttributeSpec(names[2], dtree.NUMERIC))
    rows = draw(st.lists(st.tuples(*map(st.sampled_from, domains[:2]), st.floats(-1e6, 1e6),
                                   st.sampled_from(domains[2])), min_size=min_size, max_size=16))
    label = dtree.AttributeSpec(names[3], dtree.NOMINAL, domains[2])
    return dtree.Dataset(attributes, label, [dtree.Instance(row[:3], row[3]) for row in rows])


@settings(max_examples=100, deadline=None)
@given(datasets())
def test_the_dataset_writer_writes_hostile_cells_as_python_313_does(data):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "ds.csv"
        dtree.write_dataset_csv(data, path)
        rows = [[spec.name for spec in (*data.attributes, data.label)]]
        rows += [inst.values + (inst.label,) for inst in data.instances]
        assert path.read_bytes() == csv_313(rows).encode()
        assert dtree.read_dataset_csv(path) == data


@settings(max_examples=25, deadline=None)
@given(datasets(min_size=4))
def test_predict_out_classes_equal_the_tree_and_its_rules(data):
    with tempfile.TemporaryDirectory() as work:
        ds, model, out = (Path(work) / name for name in ("ds.csv", "model.json", "predicted.csv"))
        dtree.write_dataset_csv(data, ds)
        assert run(["train", "--in", str(ds), "--out", str(model), "--min-leaf", "1"]) == 0
        assert run(["predict", "--in", str(ds), "--model", str(model), "--out", str(out)]) == 0
        tree = dtree.load_model(model)[0]
        rules = dtree.extract_rules(tree)
        with out.open(encoding="utf-8", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == [spec.name for spec in data.attributes] + ["predicted", "confidence"]
        assert len(rows) == len(data.instances)
        for row, inst in zip(rows, data.instances):
            assert row[:3] == list(map(str, inst.values))
            assert row[3] == dtree.predict(tree, inst)[0] == rules.classify(inst)


@settings(max_examples=25, deadline=None)
@given(datasets(min_size=4))
def test_evaluate_model_equals_the_library_evaluate(data):
    with tempfile.TemporaryDirectory() as work:
        ds, model, out = (Path(work) / name for name in ("ds.csv", "model.json", "evaluation.json"))
        dtree.write_dataset_csv(data, ds)
        assert run(["train", "--in", str(ds), "--out", str(model), "--min-leaf", "1"]) == 0
        assert run(["evaluate", "--in", str(ds), "--model", str(model), "--format", "json", "--out", str(out)]) == 0
        report = dtree.evaluate(dtree.load_model(model)[0], dtree.read_dataset_csv(ds))
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["accuracy"] == report.accuracy
        assert doc["rmse"].hex() == report.rmse.hex()
        assert doc["confusion"] == [list(row) for row in report.confusion]
        assert doc["classes"] == list(report.classes) == list(data.label.domain)
        assert doc["sizes"] == {"train": None, "test": len(data.instances)}
