"""A chunk that the column-at-a-time checks accept reads as the row-at-a-time
path reads it: the same values, of the same types.

Each example writes a valid input for one reader, with cells padded with
Unicode white space (some of which ``str.strip`` trims but ``float`` and
``int`` do not), numbers written as ``1_0``, ``-0``, ``+7``, ``.5``, with
exponents, and integers in float columns, and quoted cells that span lines.
It is read twice, with ``tables.CHUNK`` small or at its default: as the
readers read it, and with every column-at-a-time check made to fail, so that
every chunk takes the row-at-a-time path. Both must give the same ``repr``.
A column check looser than the row rule would show here as a value that
the row rule rejects or reads otherwise.
"""

import csv
import io
import json
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sacmine import dtree, ingest, reliability, tables
from sacmine.dtree import NOMINAL, NUMERIC, AttributeSpec

ATTRIBUTES = (
    AttributeSpec("x", NUMERIC),
    AttributeSpec("sem", NOMINAL, ("1", "2", "two words", "é\nè")),
    AttributeSpec("y", NUMERIC),
)
LABEL = AttributeSpec("k", NOMINAL, ("a", "b", "c"))

WHITE = " \t\n\x0b\x0c\x1c\x1d\x1f\x85\xa0  　"
PAD = st.text(alphabet=WHITE, max_size=2)
TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00\r"), min_size=1, max_size=6)


def padded(texts):
    return st.tuples(PAD, texts, PAD).map("".join)


def integer_text(n):
    """Ways to write the integer ``n`` that ``int`` reads."""
    digits = str(abs(n))
    sign = "-" if n < 0 else ""
    return st.sampled_from([str(n), f"{sign}0{digits}", sign + "_".join(digits), f"+{n}" if n >= 0 else str(n)])


def float_text(lo=-1e6, hi=1e6):
    """Ways to write a finite float in [lo, hi] that ``float`` reads."""
    values = st.floats(lo, hi, allow_nan=False)
    return (
        values.map(repr)
        | values.map(lambda v: f"{v:.3e}").filter(lambda t: lo <= float(t) <= hi)
        | st.integers(max(int(lo), -10**6), min(int(hi), 10**6)).flatmap(integer_text)
        | st.sampled_from(["-0", "-0.0", "0", ".5", "5.", "1_0", "1e1", "2.5E-1", "1_0.2_5"]).filter(
            lambda t: lo <= float(t) <= hi)
    )


def write(rows, newline):
    out = io.StringIO()
    csv.writer(out, lineterminator=newline).writerows(rows)
    return out.getvalue()


@st.composite
def schema_input(draw):
    rows = draw(st.lists(st.tuples(
        padded(float_text()), padded(st.sampled_from(ATTRIBUTES[1].domain)), padded(float_text()),
        padded(st.sampled_from(LABEL.domain)),
    ), max_size=12))
    return [("x", "sem", "y", "k"), *rows]


@st.composite
def module_input(draw):
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        weeks = draw(st.integers(1, 30))
        taken = draw(st.integers(0, weeks))
        average = padded(float_text(0, 100))
        cell = draw(average if taken else st.just("") | average | PAD)
        rows.append((draw(padded(TEXT).filter(str.strip)), draw(padded(st.sampled_from("12"))),
                     draw(padded(integer_text(weeks))), draw(padded(integer_text(taken) if taken else
                                                                      st.sampled_from(["0", "-0", "00"]))),
                     cell))
    return [ingest.MODULE_INPUT_HEADER, *rows]


@st.composite
def roster_input(draw):
    keys = draw(st.lists(st.tuples(TEXT.filter(str.strip), st.sampled_from("12")),
                         unique_by=lambda key: (key[0].strip(), key[1]), max_size=12))
    rows = [(draw(padded(st.just(code))), draw(padded(st.just(semester))),
             draw(padded(st.integers(1, 10**6).flatmap(integer_text)))) for code, semester in keys]
    return [("module_code", "semester", "registered"), *rows]


@st.composite
def panel_input(draw):
    codes = draw(st.lists(TEXT.filter(str.strip), unique_by=str.strip, min_size=2, max_size=12))
    rows = [(code, draw(padded(float_text(0, 1))), draw(padded(float_text(0, 1)))) for code in codes]
    return [("module_code", "2019", "2020"), *rows]


def read_labelled(path):
    return [row for chunk in dtree.labelled_rows(path, ATTRIBUTES, LABEL) for row in chunk]


def read_dataset(path):
    return dtree.read_dataset_csv(path).instances


READERS = {
    "instances": (schema_input(), lambda path: dtree.read_instances_csv(path, ATTRIBUTES)),
    "labelled": (schema_input(), read_labelled),
    "dataset": (schema_input(), read_dataset),
    "module inputs": (module_input(), ingest.read_module_inputs_csv),
    "roster": (roster_input(), ingest.read_roster_csv),
    "panel": (panel_input(), reliability.read_panel_csv),
}


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_the_column_checks_read_what_the_row_path_reads(tmp_path, monkeypatch, reader, data):
    inputs, read = READERS[reader]
    rows = data.draw(inputs)
    path = tmp_path / "data.csv"
    path.write_bytes(write(rows, data.draw(st.sampled_from(["\n", "\r\n"]))).encode("utf-8"))
    dtree.default_schema_path(path).write_text(json.dumps(dtree.schema_to_json(ATTRIBUTES, LABEL)))
    with monkeypatch.context() as patch:
        patch.setattr(tables, "CHUNK", data.draw(st.sampled_from([1, 3, tables.CHUNK])))
        by_column = read(path)
        patch.setattr(tables, "_by_column", lambda *args: None)
        by_row = read(path)
    assert repr(by_column) == repr(by_row)


def test_float_and_int_read_a_padded_cell_as_the_trimmed_one_or_not_at_all():
    """The premise of the unstripped number columns: ``float`` and ``int``
    skip no white space that ``str.strip`` keeps, so they read a padded cell
    as its trimmed text, or raise and leave it to the row path."""
    for pad in filter(str.isspace, map(chr, range(sys.maxunicode + 1))):
        for kind, text in ((float, "-1_0.5e1"), (int, "+1_0")):
            try:
                value = kind(pad + text + pad)
            except ValueError:
                continue
            assert value == kind(text)
