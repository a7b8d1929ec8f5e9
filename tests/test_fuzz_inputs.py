"""Mutated inputs of every format the CLI reads end in exit code 0, 1 or 2.

Each example damages one valid input (events, roster, module inputs,
panel, dataset, its sidecar schema, instances or a model) with a few
byte- or structure-level mutations and runs the commands that read it.
``cli.run`` must return an exit code; an escaping exception fails.
"""

import csv
import io
import json
import shutil

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sacmine import fixtures
from sacmine.cli import run

CELLS = st.sampled_from(
    ["", " ", "nan", "inf", "-1", "0", "1e999", "9" * 400, "x", '"', "a,b", "\ufeff", "\x00"]
) | st.text(max_size=8)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def mutation(draw, data: bytes) -> bytes:
    lines = data.split(b"\n")
    i = draw(st.integers(0, len(lines) - 1))
    fields = lines[i].split(b",")
    j = draw(st.integers(0, len(fields) - 1))
    at = draw(st.integers(0, len(data)))
    kind = draw(
        st.sampled_from(
            ["truncate", "drop field", "extra field", "cell", "bom", "quote header",
             "nul", "oversized", "bad utf-8", "drop line", "repeat line"]
        )
    )
    if kind == "truncate":
        return data[:at]
    if kind == "drop field":
        del fields[j]
    elif kind == "extra field":
        fields.append(b"x")
    elif kind == "cell":
        fields[j] = draw(CELLS).encode("utf-8", "surrogatepass")
    elif kind == "bom":
        return b"\xef\xbb\xbf" + data
    elif kind == "quote header":
        lines[0] = b",".join(b'"' + f + b'"' for f in lines[0].split(b","))
        return b"\n".join(lines)
    elif kind == "nul":
        return data[:at] + b"\x00" + data[at:]
    elif kind == "oversized":
        return data[:at] + b"x" * 200_000 + data[at:]
    elif kind == "bad utf-8":
        return data[:at] + b"\xff\xc3" + data[at:]
    elif kind == "drop line":
        del lines[i]
        return b"\n".join(lines)
    else:
        lines.insert(i, lines[i])
        return b"\n".join(lines)
    lines[i] = b",".join(fields)
    return b"\n".join(lines)


@st.composite
def damaged(draw, data: bytes) -> bytes:
    for _ in range(draw(st.integers(1, 3))):
        data = draw(mutation(data))
    return data


@st.composite
def damaged_json(draw, data: bytes) -> bytes:
    """A JSON document with one subtree replaced or removed, or damaged bytes."""
    if draw(st.booleans()):
        return draw(damaged(data))
    doc = json.loads(data)
    node, key = None, None
    cursor = doc
    while isinstance(cursor, (dict, list)) and cursor and draw(st.booleans()):
        keys = list(cursor) if isinstance(cursor, dict) else list(range(len(cursor)))
        node, key = cursor, draw(st.sampled_from(keys))
        cursor = cursor[key]
    if node is None:
        return json.dumps(draw(JSON_VALUES)).encode()
    if draw(st.booleans()):
        del node[key]
    else:
        node[key] = draw(JSON_VALUES)
    return json.dumps(doc).encode()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid inputs of every format, each read by the commands listed."""
    base = tmp_path_factory.mktemp("valid")
    assert run(["gen", "--kind", "events", "--modules", "2", "--seed", "3",
                "--out", str(base / "events.csv")]) == 0
    assert run(["gen", "--kind", "dataset", "--n", "30", "--seed", "3",
                "--out", str(base / "ds.csv")]) == 0
    assert run(["train", "--in", str(base / "ds.csv"), "--out", str(base / "model.json")]) == 0
    (base / "roster.csv").write_text("module_code,semester,registered\nMOD001,1,40\nMOD002,2,9\n")
    shutil.copy(fixtures.path(fixtures.MODULE_SAMPLE), base / "module.csv")
    shutil.copy(fixtures.path(fixtures.PANEL), base / "panel.csv")
    return base


COMMANDS = {
    "events.csv": [["ingest", "--in", "{f}"], ["score", "--in", "{f}"]],
    "roster.csv": [["score", "--in", "{base}/events.csv", "--roster", "{f}"]],
    "module.csv": [["score", "--in", "{f}"]],
    "panel.csv": [["reliability", "--in", "{f}"]],
    "ds.csv": [["train", "--in", "{f}"], ["evaluate", "--in", "{f}", "--model", "{base}/model.json"],
               ["predict", "--in", "{f}", "--model", "{base}/model.json"]],
    "ds.schema.json": [["train", "--in", "{dir}/ds.csv"], ["evaluate", "--in", "{dir}/ds.csv"]],
    "model.json": [["rules", "--in", "{f}"], ["predict", "--in", "{base}/ds.csv", "--model", "{f}"]],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_input_ends_in_an_exit_code(inputs, tmp_path, name, data):
    valid = (inputs / name).read_bytes()
    strategy = damaged_json(valid) if name.endswith(".json") else damaged(valid)
    work = tmp_path / "work"
    work.mkdir(exist_ok=True)
    for other in ("ds.csv", "ds.schema.json"):
        shutil.copy(inputs / other, work / other)
    target = work / name
    target.write_bytes(data.draw(strategy))
    for argv in COMMANDS[name]:
        argv = [a.format(f=target, base=inputs, dir=work) for a in argv]
        assert run(argv) in (0, 1, 2), argv


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_out_of_domain_nominal_value_exits_1_naming_its_line(inputs, tmp_path, capsys, data):
    """``train``, ``predict`` and ``evaluate --model`` check every nominal cell
    against its domain, not only the cells a split reads."""
    rows = list(csv.reader(io.StringIO((inputs / "ds.csv").read_text())))
    column = rows[0].index("sem_no")
    bad = data.draw(st.lists(st.integers(1, len(rows) - 1), min_size=1, max_size=3, unique=True))
    values = st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=6)
    for i in bad:
        rows[i][column] = data.draw(values.filter(lambda v: v.strip() not in ("1", "2")))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    target = tmp_path / "ds.csv"
    target.write_text(buf.getvalue(), encoding="utf-8")
    shutil.copy(inputs / "ds.schema.json", tmp_path / "ds.schema.json")
    first = min(bad)
    expected = f"{target}:{first + 1}: sem_no: {rows[first][column].strip()!r} not in domain"
    model = ["--model", str(inputs / "model.json")]
    for command, extra in (("train", []), ("predict", model), ("evaluate", model)):
        assert run([command, "--in", str(target), *extra]) == 1
        assert expected in capsys.readouterr().err
