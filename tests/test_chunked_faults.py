"""A fault in a table read a chunk at a time keeps the message and the
``file:line`` that reading it a row at a time gives.

Each example writes a multi-chunk input for one reader that goes through
``tables.Table``, with ``tables.CHUNK`` set small. Blank rows and a quoted
cell that spans two lines come before one fault at a random row, and valid
rows after it. The test works out the error the fault's rule raises and the
line of the fault's row (where it ends, as ``csv`` counts lines, for a
duplicate of the two-line row), and requires exactly that, whether the check that
fails is the table's (a number, a domain, the width) or its reader's (the
module-input rules, a panel value outside [0, 1], a duplicate row).
"""

import json
from itertools import chain

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sacmine import dtree, ingest, reliability, tables
from sacmine.dtree import NOMINAL, NUMERIC, AttributeSpec
from sacmine.errors import InvalidAverage, InvalidCounts, SchemaMismatch

ATTRIBUTES = (
    AttributeSpec("x", NUMERIC),
    AttributeSpec("sem", NOMINAL, ("1", "2 2\nb")),
    AttributeSpec("y", NUMERIC),
)
LABEL = AttributeSpec("k", NOMINAL, ("a", "b", "c"))


TWO_LINE_SEM = '"2 2\nb"'  # a quoted cell that spans two lines, in sem's domain


def schema_rows(i, two_lines):
    return f"{i}.5,{TWO_LINE_SEM if two_lines else '1'},{i % 7},{'abc'[i % 3]}"


SCHEMA_FAULTS = {
    "non-finite": ("inf,1,2,a", SchemaMismatch, "x: expected a finite number, got 'inf'"),
    "overflow": ("1e999,1,2,a", SchemaMismatch, "x: expected a finite number, got '1e999'"),
    "non-numeric": ("1.5,1,two,a", SchemaMismatch, "y: expected a finite number, got 'two'"),
    "out of domain": ("1.5, 3 ,2,a", SchemaMismatch, f"sem: '3' not in domain {ATTRIBUTES[1].domain}"),
    "wrong width": ("1.5,1,2,a,extra", SchemaMismatch, "expected 4 fields, got 5"),
}
LABEL_FAULT = {"label": ("1.5,1,2,z", SchemaMismatch, f"label 'z' not in {LABEL.domain}")}


def code(prefix, i, two_lines):
    return f'"{prefix}\n{i}"' if two_lines else f"{prefix}{i}"


def module_row(i, two_lines):
    taken = i % 12
    return f"{code('M', i, two_lines)},{1 + i % 2},11,{taken},{f'{i * 7 % 101}.0' if taken else ''}"


MODULE_FAULTS = {
    "empty code": (" ,1,11,3,50.0", SchemaMismatch, "bad module_code or semester: '',1"),
    "semester 3": ("MX,3,11,3,50.0", SchemaMismatch, "bad module_code or semester: 'MX',3"),
    "weeks 0": ("MX,1,0,0,", ValueError, "weeks_total must be >= 1, got 0"),
    "taken > weeks": ("MX,1,11,12,50.0", InvalidCounts,
                      "need 1 <= taken_count <= weeks_total, got taken_count=12, weeks_total=11"),
    "taken < 0": ("MX,1,11,-1,50.0", InvalidCounts,
                  "need 1 <= taken_count <= weeks_total, got taken_count=-1, weeks_total=11"),
    "blank average": ("MX,1,11,3,", SchemaMismatch, "attend_avg: expected a finite number, got ''"),
    "average 100.5": ("MX,1,11,3,100.5", InvalidAverage, "attend_avg must be in [0, 100], got 100.5"),
    "average -0.5 untaken": ("MX,1,11,0,-0.5", InvalidAverage, "attend_avg must be in [0, 100], got -0.5"),
    "non-numeric": ("MX,1,eleven,3,50.0", SchemaMismatch, "weeks_total: expected an integer, got 'eleven'"),
    "non-finite": ("MX,1,11,3,nan", SchemaMismatch, "attend_avg: expected a finite number, got 'nan'"),
    "wrong width": ("MX,1,11,3", SchemaMismatch, "expected 5 fields, got 4"),
}

ROSTER_FAULTS = {
    "semester 3": ("RX,3,10", SchemaMismatch, "bad module_code or semester: 'RX',3"),
    "non-numeric": ("RX,1,ten", SchemaMismatch, "registered: expected an integer, got 'ten'"),
    "registered 0": ("RX,1,0", ValueError, "RX: registered must be >= 1"),
    "wrong width": ("RX,1", SchemaMismatch, "expected 3 fields, got 2"),
}

PANEL_FAULTS = {
    "outside [0, 1]": ("PX,1.5,0.5", ValueError, "PX: SAC value 1.5 outside [0, 1]"),
    "non-numeric": ("PX,x,0.5", SchemaMismatch, "y1: expected a finite number, got 'x'"),
    "non-finite": ("PX,0.5,-inf", SchemaMismatch, "y2: expected a finite number, got '-inf'"),
    "wrong width": ("PX,0.5,0.5,0.5", SchemaMismatch, "expected 3 fields, got 4"),
}


def read_labelled(path):
    return list(chain.from_iterable(dtree.labelled_rows(path, ATTRIBUTES, LABEL)))


# reader name -> (header, valid row of index i, faults, read, duplicate fault)
READERS = {
    "instances": ("x,sem,y,k", schema_rows, SCHEMA_FAULTS,
                  lambda path: dtree.read_instances_csv(path, ATTRIBUTES), None),
    "labelled": ("x,sem,y,k", schema_rows, {**SCHEMA_FAULTS, **LABEL_FAULT}, read_labelled, None),
    "dataset": ("x,sem,y,k", schema_rows, {**SCHEMA_FAULTS, **LABEL_FAULT}, dtree.read_dataset_csv, None),
    "module inputs": (",".join(ingest.MODULE_INPUT_HEADER), module_row, MODULE_FAULTS,
                      ingest.read_module_inputs_csv, None),
    "roster": ("module_code,semester,registered", lambda i, two: f"{code('R', i, two)},1,{10 + i}",
               ROSTER_FAULTS, ingest.read_roster_csv, (SchemaMismatch, "duplicate row for {} semester 1")),
    "panel": ("module_code,y1,y2", lambda i, two: f"{code('P', i, two)},0.{i % 10},0.5",
              PANEL_FAULTS, reliability.read_panel_csv, (SchemaMismatch, "duplicate module row {}")),
}


@st.composite
def faulty_input(draw, reader):
    """The text of an input for ``reader`` with one fault, and the error it must raise."""
    header, valid, faults, _, duplicate = READERS[reader]
    names = sorted(faults) + (["duplicate"] if duplicate else [])
    fault = draw(st.sampled_from(names))
    before = draw(st.integers(1, 12))  # valid rows before the fault
    two_lines = draw(st.integers(0, before - 1))  # the one whose quoted cell spans two lines
    blanks = draw(st.lists(st.booleans(), min_size=before, max_size=before).filter(any))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines, line = [header], 1
    for i in range(before):
        lines.append(valid(i, i == two_lines))
        line += 2 if i == two_lines else 1
        if blanks[i]:
            lines.append("")
            line += 1
    if fault == "duplicate":
        first = ("R" if reader == "roster" else "P") + ("\n0" if two_lines == 0 else "0")
        row = valid(0, two_lines == 0)
        error, message = duplicate[0], duplicate[1].format(first)
    else:
        row, error, message = faults[fault]
    lines.append(row)
    line += 1 + row.count("\n")  # as csv counts, the line on which the row ends
    lines += [valid(before + 1 + i, False) for i in range(draw(st.integers(0, 6)))]
    return newline.join(lines) + newline, error, f"{line}: {message}"


@pytest.mark.parametrize("reader", sorted(READERS))
@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_fault_keeps_its_message_and_line(tmp_path, monkeypatch, reader, data):
    text, error, where = data.draw(faulty_input(reader))
    monkeypatch.setattr(tables, "CHUNK", data.draw(st.sampled_from([1, 2, 3, 4])))
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    dtree.default_schema_path(path).write_text(json.dumps(dtree.schema_to_json(ATTRIBUTES, LABEL)))
    with pytest.raises(error) as raised:
        READERS[reader][3](path)
    assert type(raised.value) is error
    assert str(raised.value) == f"{path}:{where}"
