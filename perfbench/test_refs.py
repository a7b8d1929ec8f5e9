"""The benchmark's references agree with sacmine on the bundled fixtures.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json

import pytest

from sacmine import cli, dtree, fixtures, reliability, synthgen

import checks
import inputs
import refs


def _cli(*argv) -> None:
    assert cli.run([str(a) for a in argv]) == 0


def test_module_input_scores_match_fixture(tmp_path, capsys):
    source = fixtures.path(fixtures.MODULE_SAMPLE)
    _cli("score", "--in", source, "--out", tmp_path / "scored.csv")
    _, rows = refs.read_rows(source)
    scored = refs.score_module_inputs(rows)
    assert (tmp_path / "scored.csv").read_text() == refs.aggregate_csv(scored)
    assert capsys.readouterr().out == refs.score_stdout(scored)


@pytest.mark.parametrize("estimator", reliability.ESTIMATORS)
def test_numpy_alpha_matches_panel_fixture(estimator):
    source = fixtures.path(fixtures.PANEL)
    want = reliability.cronbach_alpha(reliability.read_panel_csv(source), estimator).alpha
    assert refs.cronbach_alpha(refs.read_panel(source), estimator) == pytest.approx(want, rel=1e-12)


@pytest.fixture(params=["gain", "gain_ratio"])
def rule_labeled_model(request, tmp_path):
    thresholds = json.loads(fixtures.path(fixtures.RULE_THRESHOLDS).read_text())
    data = synthgen.generate_rule_labeled_dataset(thresholds, 59, 0)
    dtree.write_dataset_csv(data, tmp_path / "data.csv")
    criterion = request.param
    _cli("train", "--in", tmp_path / "data.csv", "--criterion", criterion.replace("_", "-"), "--out", tmp_path / "model.json")
    _cli("rules", "--in", tmp_path / "model.json", "--format", "json", "--out", tmp_path / "rules.json")
    schema = refs.load_json(tmp_path / "data.schema.json")
    rows, labels = refs.load_dataset(tmp_path / "data.csv", schema)
    return data, schema, rows, labels, refs.load_json(tmp_path / "model.json"), tmp_path, criterion


def test_tree_references_on_rule_labeled_fixture(rule_labeled_model):
    data, schema, rows, labels, model, tmp_path, criterion = rule_labeled_model
    tree = dtree.tree_from_json(model["tree"])
    assert [refs.walk(model["tree"], r)["class"] for r in rows] == [
        dtree.predict(tree, inst)[0] for inst in data.instances
    ]
    assert checks._model_problems(model, schema, rows, labels, criterion) == []
    assert refs.tree_stats(model["tree"])[:2] == (dtree.count_nodes(tree), dtree.count_leaves(tree))
    rules = refs.load_json(tmp_path / "rules.json")
    assert refs.rules_problems(rules, model["tree"], rows, [c["name"] for c in schema["columns"][:-1]]) == []


def test_tree_references_reject_a_moved_root_threshold(rule_labeled_model):
    _, schema, rows, labels, model, _, criterion = rule_labeled_model
    model["tree"]["threshold"] += 1.0
    assert checks._model_problems(model, schema, rows, labels, criterion)


def test_event_references_match_cli_on_noisy_log(tmp_path, capsys):
    payload = synthgen.generate_events(synthgen.GenParams(module_count=12, seed=3))
    header, rows, noise = inputs.noisy_events(payload, 3)
    inputs._write_lines(tmp_path / "events.csv", header, rows)
    roster_lines = inputs.roster_lines(payload.decode().splitlines()[1:], 3)
    inputs._write_lines(tmp_path / "roster.csv", "module_code,semester,registered", roster_lines)
    (tmp_path / "noise.json").write_text(json.dumps(noise))
    assert noise["exact_duplicates"] and noise["conflicting_duplicates"] and noise["malformed"]

    _cli("score", "--in", tmp_path / "events.csv", "--roster", tmp_path / "roster.csv", "--out", tmp_path / "scored.csv")
    (tmp_path / "score.stdout").write_text(capsys.readouterr().out)
    _cli("ingest", "--in", tmp_path / "events.csv", "--out", tmp_path / "cleaned.csv")
    (tmp_path / "ingest.stdout").write_text(capsys.readouterr().out)
    assert checks.check_events(tmp_path) == {}

    scored = tmp_path / "scored.csv"
    scored.write_text(scored.read_text().replace(",11,", ",12,", 1))
    assert list(checks.check_events(tmp_path)) == ["score"]


def test_inputs_are_a_function_of_the_seed():
    assert inputs.tree_rows(50, 7, 3) == inputs.tree_rows(50, 7, 3)
    assert inputs.tree_rows(50, 7, 3) != inputs.tree_rows(50, 8, 3)
    assert inputs.module_input_lines(7) == inputs.module_input_lines(7)


@pytest.mark.parametrize("criterion", dtree.CRITERIA)
def test_replayed_candidate_count_equals_split_scores(tmp_path, monkeypatch, criterion):
    import tracing

    inputs.write_dataset(tmp_path / "data.csv", inputs.tree_rows(300, 5, 3))
    data = dtree.read_dataset_csv(tmp_path / "data.csv")
    calls = []
    score = dtree._split_score
    monkeypatch.setattr(dtree, "_split_score", lambda *a: calls.append(1) or score(*a))
    tree = dtree.build_tree(data, criterion=criterion, min_leaf=tracing.MIN_LEAF)
    monkeypatch.undo()
    assert tracing.replay_candidates(tracing.NoTracer(), tree, data) == len(calls) > 0
