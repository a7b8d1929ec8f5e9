"""Every table is read by one loop, a chunk at a time.

The first test puts one fault at a random row of a multi-chunk file, with
``tables.CHUNK`` set small, and reads it from a source that can seek and
from one that cannot. Both must raise the same message, which names the line
where the faulty row begins; the test counts that line with a ``csv.reader``
pass of its own over the text before the row. The second test counts the
lines that ``csv`` has pulled from the source when each reader hands on its
first row or chunk: at most the header and one chunk of rows.
"""

import csv
import io
import json
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sacmine import dtree, ingest, reliability, tables
from sacmine.dtree import NOMINAL, NUMERIC, AttributeSpec
from sacmine.errors import MalformedInput, SchemaMismatch, WeekOutOfRange


class Unseekable(io.BytesIO):
    def seekable(self):
        return False


def read_events(source):
    ingest.read_event_map(source, 11)


def read_two_columns(source):
    with tables.read(source) as table:
        for _ in table.rows(["a", "b"], {0: float}, {}, None):
            pass


# table -> (header, valid row i with a quoted cell over two lines or not, its fault rows, read)
TABLES = {
    "events": (
        ",".join(ingest.EVENTS_HEADER),
        lambda i, two_lines, pad: f'"s{pad}\n{i}",M1,1,{1 + i % 11},present' if two_lines
        else f"s{pad}{i},M1,2,{1 + i % 11},absent",
        {"week beyond weeks_total": (b"s9,M1,1,12,present", WeekOutOfRange, "M1 week 12 beyond weeks_total 11"),
         "open quote": (b'"s9,M1,1,1,present', MalformedInput, "unexpected end of data"),
         "text after a closing quote": (b'"s9"x,M1,1,1,present', MalformedInput, None),
         "bad UTF-8": (b"s\xff9,M1,1,1,present", MalformedInput, "not UTF-8: invalid start byte")},
        read_events,
    ),
    "two columns": (
        "a,b",
        lambda i, two_lines, pad: f'{i}.5,"t{pad}\n{i}"' if two_lines else f"{i},t{pad}",
        {"bad cell": (b"x,t", SchemaMismatch, "a: expected a finite number, got 'x'"),
         "open quote": (b'"1,t', MalformedInput, "unexpected end of data"),
         "text after a closing quote": (b'"1"x,t', MalformedInput, None),
         "bad UTF-8": (b"1,\xff", MalformedInput, "not UTF-8: invalid start byte")},
        read_two_columns,
    ),
}


@st.composite
def faulty_file(draw, name):
    """The bytes of a file for table ``name`` with one fault, its error and
    message, and the line where the faulty row begins."""
    header, valid, faults, _ = TABLES[name]
    fault = draw(st.sampled_from(sorted(faults)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    pad = "p" * draw(st.sampled_from([0, 700]))  # long rows put the fault past the first 8 KiB decoded
    lines = [header]
    for i in range(draw(st.integers(0, 14))):
        lines.append(valid(i, draw(st.booleans()), pad).replace("\n", newline))
        lines += [""] * draw(st.integers(0, 2))
    before = newline.join(lines) + newline
    reader = csv.reader(io.StringIO(before, newline=""))
    for _ in reader:
        pass
    row, error, message = faults[fault]
    after = "".join(valid(20 + i, False, pad) + newline for i in range(draw(st.integers(0, 6))))
    data = before.encode() + row + newline.encode() + after.encode()
    return data, error, message, reader.line_num + 1


@pytest.mark.parametrize("name", sorted(TABLES))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_source_names_the_line_where_the_faulty_row_begins(monkeypatch, name, data):
    data_bytes, error, message, line = data.draw(faulty_file(name))
    monkeypatch.setattr(tables, "CHUNK", data.draw(st.integers(1, 4)))
    raised = []
    for source in (io.BytesIO(data_bytes), Unseekable(data_bytes)):
        with pytest.raises(error) as caught:
            TABLES[name][3](source)
        raised.append((type(caught.value), str(caught.value)))
    assert raised[0] == raised[1]
    assert raised[0][0] is error
    assert raised[0][1].startswith(f"<input>:{line}: ")
    if message is not None:
        assert raised[0][1] == f"<input>:{line}: {message}"


ATTRIBUTES = (AttributeSpec("x", NUMERIC), AttributeSpec("sem", NOMINAL, ("1", "2")))
LABEL = AttributeSpec("k", NOMINAL, ("a", "b"))


def first_handed_on(path, hooks, monkeypatch, read):
    """Read ``path`` with ``read`` until it hands on its first row or chunk,
    and return how many lines ``csv`` had then pulled from the source."""
    pulled = []

    def counted(lines):
        for line in lines:
            pulled.append(line)
            yield line

    monkeypatch.setattr(tables, "csv", SimpleNamespace(
        reader=lambda source, **options: csv.reader(counted(source), **options), Error=csv.Error))
    at_first = []
    for module, name in hooks:  # a function each reader calls on each row it is handed
        function = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, f=function: at_first.append(len(pulled)) or f(*args))
    handed_on = read(path)
    if hooks:
        return at_first[0]
    next(handed_on)  # the first row or chunk of a reader that yields them
    return len(pulled)


# reader -> (header, valid row i with a quoted cell over two lines or not, hooks, read)
READERS = {
    "events": (",".join(ingest.EVENTS_HEADER), lambda i, two: f'"s\n{i}",M1,1,1,present' if two
               else f"s{i},M1,1,1,present", (), lambda path: ingest._valid_rows(path, ingest.CleaningReport(), [])),
    "roster": ("module_code,semester,registered", lambda i, two: f'"R\n{i}",1,5' if two else f"R{i},1,5",
               ((ingest, "_semester"),), ingest.read_roster_csv),
    "panel": ("module_code,y1,y2", lambda i, two: f'"P\n{i}",0.5,0.5' if two else f"P{i},0.5,0.5",
              ((reliability, "_check_row"),), reliability.read_panel_csv),
    "instances": ("x,sem,k", lambda i, two: f'"{i}\n",1,a' if two else f"{i},2,b", (),
                  lambda path: dtree.instance_rows(path, ATTRIBUTES)),
    "labelled": ("x,sem,k", lambda i, two: f'"{i}\n",1,a' if two else f"{i},2,b", (),
                 lambda path: dtree.labelled_rows(path, ATTRIBUTES, LABEL)),
    "module inputs": (",".join(ingest.MODULE_INPUT_HEADER), lambda i, two: f'"M\n{i}",1,11,3,50' if two
                      else f"M{i},2,11,0,", (), ingest.module_input_rows),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_reader_reads_at_most_one_chunk_ahead(tmp_path, monkeypatch, reader, data):
    header, valid, hooks, read = READERS[reader]
    chunk = data.draw(st.sampled_from([1, 2, 3, 4, tables.CHUNK]))
    two_lines = data.draw(st.lists(st.booleans(), min_size=chunk + 3, max_size=3 * chunk + 3))
    newline = data.draw(st.sampled_from(["\n", "\r\n"]))
    path = tmp_path / "data.csv"
    rows = [valid(i, two).replace("\n", newline) for i, two in enumerate(two_lines)]
    path.write_bytes(newline.join([header, *rows, ""]).encode())
    dtree.default_schema_path(path).write_text(json.dumps(dtree.schema_to_json(ATTRIBUTES, LABEL)))
    with monkeypatch.context() as patch:
        patch.setattr(tables, "CHUNK", chunk)
        pulled = first_handed_on(path, hooks, patch, read)
    assert pulled <= 1 + chunk + sum(two_lines[:chunk])
