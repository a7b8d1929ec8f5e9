"""Of two faults in one chunk, the first in row order is the one raised.

A sibling of ``test_chunked_faults.test_a_fault_keeps_its_message_and_line``,
over the same readers and with ``tables.CHUNK`` set small. Each input puts a
second, different fault after the first, both in the same chunk, so a chunk
that fails its column checks must still hand its rows on in order: a fault
of the reader's own (a duplicate, a module-input rule, a panel value outside
[0, 1]) that comes first must win over a cell that does not parse later in
the chunk, and the other way round.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sacmine import dtree, tables
from test_chunked_faults import ATTRIBUTES, LABEL, READERS


@st.composite
def two_faults(draw, reader, pair):
    """The text of an input for ``reader`` with two faults in one chunk, the error the first must raise,
    and a chunk size that puts both in one chunk; ``pair`` names the faults, or None to draw them."""
    header, valid, faults, _, duplicate = READERS[reader]
    names = sorted(faults) + (["duplicate"] if duplicate else [])
    first, second = pair or draw(st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True))
    before = draw(st.integers(1, 8))  # valid rows before the first fault
    two_lines = draw(st.integers(0, before - 1))  # the one whose quoted cell spans two lines
    blanks = draw(st.lists(st.booleans(), min_size=before, max_size=before))
    lines, line = [header], 1
    for i in range(before):
        lines.append(valid(i, i == two_lines))
        line += 2 if i == two_lines else 1
        if blanks[i]:
            lines.append("")
            line += 1

    def fault(name):
        if name == "duplicate":
            row = valid(0, two_lines == 0)
            code = ("R" if reader == "roster" else "P") + ("\n0" if two_lines == 0 else "0")
            return row, duplicate[0], duplicate[1].format(code)
        return faults[name]

    row, error, message = fault(first)
    lines.append(row)
    line += 1 + row.count("\n")  # as csv counts, the line on which the first faulty row ends
    at = len(lines) - 2  # the first fault's place among the raw rows after the header
    lines += [valid(before + 1 + i, False) for i in range(draw(st.integers(0, 2)))]
    lines.append(fault(second)[0])
    chunk = draw(st.sampled_from([c for c in (2, 3, 4, 6, 64) if at // c == (len(lines) - 2) // c]))
    lines += [valid(before + 9 + i, False) for i in range(draw(st.integers(0, 3)))]
    return "\n".join(lines) + "\n", chunk, error, f"{line}: {message}"


# The pairs each reader must get right, first fault first; the other cases draw any two of its faults.
NAMED = [
    ("roster", ("duplicate", "non-numeric")),
    ("panel", ("duplicate", "non-numeric")),
    ("panel", ("outside [0, 1]", "non-numeric")),
    ("module inputs", ("taken > weeks", "non-numeric")),
    ("module inputs", ("non-finite", "wrong width")),
    ("module inputs", ("blank average", "wrong width")),
    ("instances", ("out of domain", "non-finite")),
    ("labelled", ("out of domain", "non-finite")),
    ("dataset", ("label", "non-numeric")),
]


@pytest.mark.parametrize("reader, pair", NAMED + [(reader, None) for reader in sorted(READERS)])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_the_first_of_two_faults_in_a_chunk_keeps_its_message_and_line(tmp_path, monkeypatch, reader, pair, data):
    text, chunk, error, where = data.draw(two_faults(reader, pair))
    monkeypatch.setattr(tables, "CHUNK", chunk)
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    dtree.default_schema_path(path).write_text(json.dumps(dtree.schema_to_json(ATTRIBUTES, LABEL)))
    with pytest.raises(error) as raised:
        READERS[reader][3](path)
    assert type(raised.value) is error
    assert str(raised.value) == f"{path}:{where}"
