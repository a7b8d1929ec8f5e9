"""Each command that reads or trains a model walks its tree once.

``predict``, ``evaluate --model`` and ``rules`` read and check the model
once, into one ``NodeTable``, and take everything else from that table;
``train`` counts nodes and leaves in one walk, and a split ``evaluate``
checks its tree once. The walks are counted by wrapping ``dtree._preorder``.
"""

import pytest

from sacmine import dtree
from sacmine.cli import run


@pytest.fixture
def walks(monkeypatch):
    count = []
    preorder = dtree._preorder
    monkeypatch.setattr(dtree, "_preorder", lambda tree: count.append(1) or preorder(tree))
    return count


@pytest.fixture
def dataset(tmp_path):
    path = tmp_path / "ds.csv"
    assert run(["gen", "--kind", "dataset", "--n", "59", "--seed", "7", "--out", str(path)]) == 0
    return path


@pytest.fixture
def model(tmp_path, dataset):
    path = tmp_path / "model.json"
    assert run(["train", "--in", str(dataset), "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("command", ["train", "rules", "predict", "evaluate --model", "evaluate"])
def test_one_walk_per_command(capsys, tmp_path, dataset, model, walks, command):
    argv = {
        "train": ["train", "--in", str(dataset)],
        "rules": ["rules", "--in", str(model), "--format", "json", "--out", str(tmp_path / "rules.json")],
        "predict": ["predict", "--in", str(dataset), "--model", str(model)],
        "evaluate --model": ["evaluate", "--in", str(dataset), "--model", str(model)],
        "evaluate": ["evaluate", "--in", str(dataset)],
    }[command]
    walks.clear()  # the fixtures' own train
    assert run(argv) == 0, capsys.readouterr().err
    assert len(walks) == 1


def test_the_rules_of_a_table_are_those_of_its_tree(model):
    table = dtree.NodeTable.load(model)
    assert table.rules() == dtree.extract_rules(table.root)
    assert dtree.load_model(model) == (table.root, table.attributes, table.label)
