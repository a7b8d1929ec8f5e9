import io
import re
from pathlib import Path

import pytest

import sacmine
from sacmine import tables
from sacmine.errors import MalformedInput, SchemaMismatch
from sacmine.ingest import parse_events

HEADER = "student_id,module_code,semester,week,status\n"


@pytest.mark.parametrize("call", ["csv.reader(", "csv.writer("])
def test_only_one_module_calls_csv_reader(call):
    package = Path(sacmine.__file__).parent
    callers = [p.name for p in sorted(package.glob("*.py")) if call in p.read_text()]
    assert callers == ["tables.py"]


def test_a_binary_handle_is_left_open():
    handle = io.BytesIO((HEADER + "s1,M1,1,1,present\n").encode())
    events, _ = parse_events(handle)
    assert len(events) == 1 and not handle.closed


@pytest.mark.parametrize("bad_line", [2, 3000])
def test_bad_utf8_names_its_line_past_the_first_chunk(bad_line):
    rows = [b"s%d,M1,1,1,present\n" % i for i in range(4000)]
    rows[bad_line - 2] = b"s\xff,M1,1,1,present\n"
    with pytest.raises(MalformedInput, match=f"^<input>:{bad_line}: not UTF-8"):
        parse_events(HEADER.encode() + b"".join(rows))


def test_a_quote_left_open_is_malformed_input_at_the_end_of_data():
    # The reader gives up at the end of the data; the line named is where the quote opened.
    source = HEADER + '"s0,M1,1,1,present\ns1,M1,1,1,present\ns2,M1,1,1,absent\n'
    with pytest.raises(MalformedInput, match="^<input>:2: unexpected end of data$"):
        parse_events(source)


@pytest.mark.parametrize(
    "source, line",
    [
        ('a,b\n1,2\n3,"x\ny"z\n5,6\n', 3),
        ('\ufeffa,b\n1,2\n"3,4\n5,6\n', 3),
        ('a,"b\n1,2\n', 1),
    ],
    ids=["two-line-field-broken-on-its-second", "byte-order-mark", "in-the-header"],
)
def test_a_csv_fault_names_the_line_where_its_row_begins(source, line):
    with pytest.raises(MalformedInput, match=f"^<input>:{line}: "):
        with tables.read(source.encode("utf-8")) as table:
            list(table)


def test_a_csv_fault_in_a_source_that_cannot_seek_names_the_line_where_its_row_begins():
    class Unseekable(io.BytesIO):
        def seekable(self):
            return False

    with pytest.raises(MalformedInput, match="^<input>:2: unexpected end of data$"):
        with tables.read(Unseekable(b'a,b\n"1,2\n3,4\n')) as table:
            list(table)


def test_a_text_handle_already_read_by_next_is_read_from_where_it_stands():
    handle = io.TextIOWrapper(io.BytesIO(b"a preamble line\na,b\n1,2\n"), newline="")
    next(handle)  # a text handle read by next() cannot tell its position
    with tables.read(handle) as table:
        assert (table.header, list(table)) == (("a", "b"), [["1", "2"]])


def test_row_errors_name_the_line_of_the_row():
    source = "a,b\n1,2\n\n3,x\n"
    with pytest.raises(SchemaMismatch, match=re.escape("<input>:4: b: expected a finite number, got 'x'")):
        with tables.read(source) as table:
            list(table.rows(["a", "b"], {0: float, 1: float}))


@pytest.mark.parametrize("fault", ["open-quote", "bad-utf8"])
def test_a_bad_cell_before_a_csv_fault_in_its_chunk_is_named_first(fault):
    # Read a chunk ahead, the rows read before a csv or UTF-8 fault are still
    # checked before it is raised, as when the table was read row by row.
    rows = [b"1000000,2\n"] * 1000  # 10 bytes a row, so row 819 is the first one past 8 KiB
    rows[799] = b"1000000,x\n"
    rows[829] = b'"1000000,2\n' if fault == "open-quote" else b"1000000,\xff\n"
    with pytest.raises(SchemaMismatch, match=re.escape("<input>:801: b: expected a finite number, got 'x'")):
        with tables.read(b"a,b\n" + b"".join(rows)) as table:
            list(table.rows(["a", "b"], {0: float, 1: float}, {}, None))
