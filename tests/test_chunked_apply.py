"""``predict``, ``evaluate --model`` and module-input ``score`` read their input
one chunk of ``tables.CHUNK`` rows at a time.

Whatever the chunk size, and whether a file ends on a chunk boundary or not,
each command writes what one pass over the whole file gives: the predictions
of the nested tree, the report of ``tests/reference_evaluate.py`` bit for bit,
and the scores of ``read_module_inputs_csv``; ``score --format json`` encodes
``tables.CHUNK`` rows at a time and writes what one ``json.dumps`` of every
row gives. A bad row in a later chunk still ends the run with its ``file:line``
before anything reaches stdout or ``--out``, and memory does not grow with the
number of rows.
"""

import contextlib
import io
import json
import os
import random
import tracemalloc

import pytest
from reference_evaluate import evaluate as reference_evaluate
from reference_evaluate import leaf_of

from sacmine import dtree, ingest, tables
from sacmine.cli import run
from sacmine.dtree import NOMINAL, NUMERIC, AttributeSpec, Dataset, Instance

ATTRIBUTES = (
    AttributeSpec("x", NUMERIC),
    AttributeSpec("sem", NOMINAL, ("1", "2")),
    AttributeSpec("y", NUMERIC),
)
LABEL = AttributeSpec("k", NOMINAL, ("a", "b", "c"))
REAL_CHUNK = tables.CHUNK
SMALL_CHUNK = 4


def noisy_dataset(n, seed):
    """Rows whose class follows x and sem with noise, so leaves are impure."""
    rng = random.Random(seed)
    instances = []
    for _ in range(n):
        x, sem, y = round(rng.uniform(0, 100), 3), rng.choice("12"), float(rng.randint(0, 11))
        score = x + (15 if sem == "2" else 0) + rng.gauss(0, 12)
        instances.append(Instance((x, sem, y), "a" if score < 40 else "b" if score < 75 else "c"))
    return Dataset(ATTRIBUTES, LABEL, instances)


@pytest.fixture(scope="module")
def model(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.json"
    tree = dtree.build_tree(noisy_dataset(400, 1), min_leaf=8)
    assert dtree.count_leaves(tree) > 4
    dtree.save_model(tree, ATTRIBUTES, LABEL, path)
    return path


def write_labelled(tmp_path, n, seed=2):
    path = tmp_path / "labelled.csv"
    dtree.write_dataset_csv(noisy_dataset(n, seed), path)
    return path


def write_module_inputs(tmp_path, n, seed=3):
    rng = random.Random(seed)
    lines = ["module_code,semester,weeks_total,attendance_taken,attend_avg"]
    for i in range(n):
        taken = rng.choice([0, 1, 5, 11])
        avg = f"{rng.uniform(0, 100):.1f}" if taken else ""
        lines.append(f"M{i},{rng.choice('12')},11,{taken},{avg}")
    path = tmp_path / "module_inputs.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def one_pass_predict(model, path):
    """The stdout and --out of predict from one list of every row."""
    tree, attributes, label = dtree.load_model(model)
    rows = dtree.read_instances_csv(path, attributes)
    leaves = [leaf_of(tree, row) for row in rows]
    printed = [
        f"{row} -> {label.name} = {leaf.label} (p={leaf.distribution[leaf.label]:.3f})\n"
        for row, leaf in zip(rows[:10], leaves)
    ]
    if len(rows) > 10:
        printed.append(f"... {len(rows) - 10} more\n")
    out = io.StringIO()
    out.write(",".join([a.name for a in attributes] + ["predicted", "confidence"]) + "\n")
    for row, leaf in zip(rows, leaves):
        cells = [repr(v) if isinstance(v, float) else v for v in row]
        out.write(",".join(cells + [leaf.label, repr(leaf.distribution[leaf.label])]) + "\n")
    return "".join(printed), out.getvalue()


def one_pass_score(path):
    """The stdout and --out of module-input score from one list of every row."""
    rows = ingest.read_module_inputs_csv(path)
    printed = [
        f"{m} sem {s}: no attendance taken\n" if value is None
        else f"{m} sem {s}: sac {value:.3f} strength {strength} (taken {taken})\n"
        for m, s, _, taken, _, value, strength in rows
    ]
    out = io.StringIO()
    ingest.write_aggregate_csv(rows, out)
    return "".join(printed), out.getvalue()


@pytest.mark.parametrize("chunk", [SMALL_CHUNK, REAL_CHUNK], ids=["small-chunk", "real-chunk"])
@pytest.mark.parametrize("rows", ["0", "1", "10", "11", "C-1", "C", "C+1", "2C+1"])
def test_every_chunk_split_gives_the_one_pass_outputs(capsys, monkeypatch, tmp_path, model, chunk, rows):
    n = {"0": 0, "1": 1, "10": 10, "11": 11, "C-1": chunk - 1, "C": chunk, "C+1": chunk + 1,
         "2C+1": 2 * chunk + 1}[rows]
    monkeypatch.setattr(tables, "CHUNK", chunk)
    labelled = write_labelled(tmp_path, n)
    out = tmp_path / "predictions.csv"

    assert run(["predict", "--in", str(labelled), "--model", str(model), "--out", str(out)]) == 0
    printed, written = one_pass_predict(model, labelled)
    assert (capsys.readouterr().out, out.read_text(encoding="utf-8")) == (printed, written)

    out = tmp_path / "evaluation.json"
    if n:
        assert run(["evaluate", "--in", str(labelled), "--model", str(model), "--out", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        expected = reference_evaluate(dtree.load_model(model)[0], dtree.read_dataset_csv(labelled))
        assert report["accuracy"] == expected.accuracy and report["rmse"] == expected.rmse
        assert report["confusion"] == [list(r) for r in expected.confusion]
        assert report["sizes"] == {"train": None, "test": n}
        assert capsys.readouterr().out == (
            f"accuracy {expected.accuracy:.3f} rmse {expected.rmse:.4f} (test n={n})\n"
        )

    inputs = write_module_inputs(tmp_path, n)
    out = tmp_path / "scores.csv"
    assert run(["score", "--in", str(inputs), "--out", str(out)]) == 0
    assert (capsys.readouterr().out, out.read_text(encoding="utf-8")) == one_pass_score(inputs)


@pytest.mark.parametrize("batch", [SMALL_CHUNK, REAL_CHUNK], ids=["small-batch", "real-batch"])
@pytest.mark.parametrize("rows", ["0", "1", "B-1", "B", "B+1", "2B+1"])
def test_every_batch_split_gives_the_one_pass_json(capsys, monkeypatch, tmp_path, batch, rows):
    n = {"0": 0, "1": 1, "B-1": batch - 1, "B": batch, "B+1": batch + 1, "2B+1": 2 * batch + 1}[rows]
    monkeypatch.setattr(tables, "CHUNK", batch)
    inputs = write_module_inputs(tmp_path, n)
    out = tmp_path / "scores.json"
    assert run(["score", "--in", str(inputs), "--out", str(out), "--format", "json"]) == 0
    scored = ingest.read_module_inputs_csv(inputs)
    assert n < 2 or any(value is None for *_, value, _ in scored)  # rows never taken give nulls
    doc = [dict(zip(ingest.AGGREGATE_HEADER, row)) for row in scored]
    assert out.read_text(encoding="utf-8") == json.dumps(doc, indent=2) + "\n"
    assert capsys.readouterr().out == one_pass_score(inputs)[0]


@pytest.mark.parametrize("chunk", [SMALL_CHUNK, REAL_CHUNK], ids=["small-chunk", "real-chunk"])
def test_library_evaluate_in_chunks_gives_the_reference_report(monkeypatch, model, chunk):
    """``dtree.evaluate`` of a Dataset routes it a chunk at a time, and its
    report equals the one of ``tests/reference_evaluate.py`` bit for bit."""
    monkeypatch.setattr(tables, "CHUNK", chunk)
    route, routed = dtree.NodeTable.route, []
    monkeypatch.setattr(dtree.NodeTable, "route", lambda self, rows: routed.append(len(rows)) or route(self, rows))
    tree = dtree.load_model(model)[0]
    test = noisy_dataset(2 * chunk + 3, 4)
    assert dtree.evaluate(tree, test) == reference_evaluate(tree, test)
    assert routed == [chunk, chunk, 3]


def bad_row_case(command, tmp_path, model, n, bad):
    """Arguments for ``command`` on an n-row input whose row ``bad`` (1-based,
    after the header) is malformed, and the error line it must end with."""
    if command == "score":
        path = write_module_inputs(tmp_path, n)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[bad] = "MBAD,3,11,1,50.0"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        message = "bad module_code or semester: 'MBAD',3"
        return ["score", "--in", str(path)], f"SchemaMismatch: {path}:{bad + 1}: {message}"
    path = write_labelled(tmp_path, n)
    lines = path.read_text(encoding="utf-8").splitlines()
    if command == "predict":
        lines[bad] = "inf,1,2.0,a"
        message = "x: expected a finite number, got 'inf'"
    else:
        lines[bad] = "50.0,1,2.0,z"
        message = "label 'z' not in ('a', 'b', 'c')"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return [command, "--in", str(path), "--model", str(model)], f"SchemaMismatch: {path}:{bad + 1}: {message}"


@pytest.mark.parametrize("command", ["predict", "evaluate", "score", "score-json"])
@pytest.mark.parametrize(
    "chunk, n, bad",
    [(SMALL_CHUNK, 2 * SMALL_CHUNK + 5, 2 * SMALL_CHUNK + 3), (REAL_CHUNK, REAL_CHUNK + 20, REAL_CHUNK + 7)],
    ids=["small-chunk", "real-chunk"],
)
def test_a_bad_row_in_a_later_chunk_prints_nothing_and_leaves_out_as_it_was(
    capsys, monkeypatch, tmp_path, model, command, chunk, n, bad
):
    assert bad > 10 and bad > chunk
    monkeypatch.setattr(tables, "CHUNK", chunk)
    argv, error = bad_row_case(command.removesuffix("-json"), tmp_path, model, n, bad)
    if command == "score-json":
        argv += ["--format", "json"]
    out = tmp_path / "out.txt"
    out.write_bytes(b"an earlier run's output\n")
    assert run([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"
    assert out.read_bytes() == b"an earlier run's output\n"


def test_header_only_inputs(capsys, tmp_path, model):
    labelled = write_labelled(tmp_path, 0)
    out = tmp_path / "evaluation.json"
    assert run(["evaluate", "--in", str(labelled), "--model", str(model), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: EmptyDataset: evaluate needs a non-empty test set\n")
    assert not out.exists()
    out = tmp_path / "predictions.csv"
    assert run(["predict", "--in", str(labelled), "--model", str(model), "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == "x,sem,y,predicted,confidence\n"


@pytest.mark.parametrize("command", ["predict", "evaluate", "score"])
def test_an_out_in_a_missing_directory_exits_2(capsys, tmp_path, model, command):
    if command == "score":
        argv = ["score", "--in", str(write_module_inputs(tmp_path, 12))]
    else:
        argv = [command, "--in", str(write_labelled(tmp_path, 12)), "--model", str(model)]
    assert run([*argv, "--out", str(tmp_path / "missing" / "out")]) == 2
    assert "No such file or directory" in capsys.readouterr().err


def traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert run(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", ["predict", "evaluate", "score-csv", "score-json"])
def test_peak_memory_does_not_grow_with_the_rows(tmp_path, model, command):
    """Ten times the rows must not near double the traced peak: no command
    may hold a list of the whole file. stdout goes to the null device, so
    that the lines score prints are not held by the test's capture."""
    peaks = []
    for n in (2000, 20000):
        if command.startswith("score"):
            inputs = write_module_inputs(tmp_path, n)
            argv = ["score", "--in", str(inputs), "--format", command.removeprefix("score-")]
        else:
            argv = [command, "--in", str(write_labelled(tmp_path, n)), "--model", str(model)]
        argv += ["--out", str(tmp_path / "out")]
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            assert run(argv) == 0  # imports and first-use caches are not what is measured
            peaks.append(traced_peak(argv))
    assert peaks[1] < 2 * peaks[0], peaks


@pytest.mark.parametrize("to", ["out", "stdout"])
def test_gen_events_peak_memory_does_not_grow_with_the_events(tmp_path, to):
    """gen --kind events writes a module's taken week at a time: 8 and 80
    modules (about 2k and 20k events) must not near double the traced peak."""
    peaks = []
    for modules in (8, 80):
        argv = ["gen", "--kind", "events", "--modules", str(modules), "--seed", "0"]
        if to == "out":
            argv += ["--out", str(tmp_path / "events.csv")]
        with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
            assert run(argv) == 0  # imports and first-use caches are not what is measured
            peaks.append(traced_peak(argv))
    assert peaks[1] < 2 * peaks[0], peaks
