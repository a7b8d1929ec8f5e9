"""Output checks, one per workload.

Each check recomputes its steps' outputs with ``refs`` (no sacmine) and
returns the problems found per step name; an empty dict means every output
is correct. Set-up problems are filed under "setup".
"""

from __future__ import annotations

import math
from pathlib import Path

import inputs
import refs

MIN_LEAF = 2


def _text(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _same(problems: list[str], what: str, got: str, want: str) -> None:
    if got != want:
        got_lines, want_lines = got.splitlines(), want.splitlines()
        first = next(
            (i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b),
            min(len(got_lines), len(want_lines)),
        )
        problems.append(
            f"{what} differs from the reference at line {first + 1}: "
            f"{got_lines[first:first + 1]} != {want_lines[first:first + 1]}"
        )


# --- events_ingest ---------------------------------------------------------------


def check_events(work: Path) -> dict[str, list[str]]:
    noise = refs.load_json(work / "noise.json")
    _, rows = refs.read_rows(work / "events.csv")
    status = refs.clean_events(rows)
    del rows
    _, roster_rows = refs.read_rows(work / "roster.csv")
    roster = {(m, int(s)): int(r) for m, s, r in roster_rows}
    scored = refs.aggregate_scores(status, roster, inputs.WEEKS)
    score: list[str] = []
    _same(score, "scored.csv", _text(work / "scored.csv"), refs.aggregate_csv(scored))
    _same(score, "score stdout", _text(work / "score.stdout"), refs.score_stdout(scored))
    ingest: list[str] = []
    if len(status) != noise["clean_rows"]:
        ingest.append(f"reference keeps {len(status)} events, generator wrote {noise['clean_rows']}")
    _same(ingest, "ingest stdout", _text(work / "ingest.stdout"), refs.ingest_stdout(noise))
    _same(ingest, "cleaned.csv", _text(work / "cleaned.csv"), refs.cleaned_events_csv(status))
    return {k: v for k, v in (("score", score), ("ingest", ingest)) if v}


# --- tree_induction --------------------------------------------------------------

def _model_problems(model: dict, schema: dict, rows, labels, criterion: str) -> list[str]:
    problems = []
    if model.get("format") != "sacmine-tree" or model.get("schema") != schema:
        problems.append("model format or schema differs from the dataset's")
    domain = refs.label_domain(schema)
    tree = model["tree"]
    problems += refs.leaf_routing_problems(tree, rows, labels, domain, MIN_LEAF)
    best = refs.best_split(rows, labels, schema, MIN_LEAF, criterion)
    root = (tree["attribute"], tree.get("threshold")) if tree["type"] == "split" else None
    if root != best:
        problems.append(f"root split {root} != brute-force {criterion} split {best}")
    return problems


def _evaluation_problems(work: Path, ev: dict, sizes: dict, domain) -> list[str]:
    problems = []
    n = sizes["test"]
    if ev["sizes"] != sizes or ev["classes"] != domain:
        problems.append(f"evaluation sizes {ev['sizes']} / classes {ev['classes']} unexpected")
    confusion = ev["confusion"]
    if sum(map(sum, confusion)) != n:
        problems.append("confusion matrix does not sum to the test size")
    if ev["accuracy"] != sum(confusion[i][i] for i in range(len(domain))) / n:
        problems.append("accuracy is not the confusion-matrix diagonal share")
    want = f"accuracy {ev['accuracy']:.3f} rmse {ev['rmse']:.4f} (test n={n})\n"
    _same(problems, "evaluate stdout", _text(work / "evaluate.stdout"), want)
    return problems


def check_tree(work: Path) -> dict[str, list[str]]:
    schema = refs.load_json(work / "dataset.schema.json")
    rows, labels = refs.load_dataset(work / "dataset.csv", schema)
    model = refs.load_json(work / "model.json")
    train = _model_problems(model, schema, rows, labels, "gain")
    nodes, leaves, _ = refs.tree_stats(model["tree"])
    _same(train, "train stdout", _text(work / "train.stdout"), f"trained tree: {nodes} nodes, {leaves} leaves\n")
    n_train = math.floor(len(rows) * 0.7 + 0.5)
    evaluate = _evaluation_problems(
        work, refs.load_json(work / "evaluation.json"), {"train": n_train, "test": len(rows) - n_train},
        refs.label_domain(schema),
    )
    return {k: v for k, v in (("train", train), ("evaluate", evaluate)) if v}


# --- model_apply -----------------------------------------------------------------


def check_apply(work: Path) -> dict[str, list[str]]:
    problems: dict[str, list[str]] = {}
    schema = refs.load_json(work / "train.schema.json")
    model = refs.load_json(work / "model.json")
    tree = model["tree"]
    train_rows, train_labels = refs.load_dataset(work / "train.csv", schema)
    problems["setup"] = _model_problems(model, schema, train_rows, train_labels, "gain_ratio")

    rows, labels = refs.load_dataset(work / "labelled.csv", schema)
    reached = [refs.walk(tree, values) for values in rows]

    predict: list[str] = []
    _, predicted = refs.read_rows(work / "predictions.csv")
    if len(predicted) != len(rows):
        predict.append(f"{len(predicted)} predictions for {len(rows)} rows")
    for values, leaf, out in zip(rows, reached, predicted):
        echo = [repr(v) if isinstance(v, float) else v for v in values]
        if out != echo + [leaf["class"], repr(leaf["distribution"][leaf["class"]])]:
            predict.append(f"prediction {out} differs from the model walk {leaf['class']}")
            break
    problems["predict"] = predict

    domain = refs.label_domain(schema)
    pos = {c: i for i, c in enumerate(domain)}
    confusion = [[0] * len(domain) for _ in domain]
    sq = 0.0
    for label, leaf in zip(labels, reached):
        confusion[pos[label]][pos[leaf["class"]]] += 1
        for c in domain:
            sq += (leaf["distribution"].get(c, 0.0) - (1.0 if c == label else 0.0)) ** 2
    ev = refs.load_json(work / "evaluation.json")
    evaluate = _evaluation_problems(work, ev, {"train": None, "test": len(rows)}, domain)
    if ev["confusion"] != confusion:
        evaluate.append("confusion matrix differs from the model walk")
    if not math.isclose(ev["rmse"], math.sqrt(sq / (len(rows) * len(domain))), rel_tol=1e-12):
        evaluate.append(f"rmse {ev['rmse']} differs from the model walk")
    problems["evaluate"] = evaluate

    columns = [c["name"] for c in schema["columns"][:-1]]
    problems["rules"] = refs.rules_problems(refs.load_json(work / "rules.json"), tree, rows[:2000], columns)

    reliability: list[str] = []
    doc = refs.load_json(work / "alpha.json")
    alpha = refs.cronbach_alpha(refs.read_panel(work / "panel.csv"), "paper-mixed")
    if not math.isclose(doc["alpha"], alpha, rel_tol=1e-9):
        reliability.append(f"alpha {doc['alpha']} != numpy {alpha}")
    if (doc["estimator"], doc["k"], doc["m"]) != ("paper-mixed", inputs.PANEL_YEARS, inputs.PANEL_MODULES):
        reliability.append(f"alpha breakdown labels {doc['estimator']}, k={doc['k']}, m={doc['m']}")
    want = f"alpha {doc['alpha']:.3f} (estimator paper-mixed, k={doc['k']}, m={doc['m']})\n"
    _same(reliability, "reliability stdout", _text(work / "reliability.stdout"), want)
    problems["reliability"] = reliability

    score: list[str] = []
    _, module_rows = refs.read_rows(work / "module_inputs.csv")
    scored = refs.score_module_inputs(module_rows)
    _same(score, "module_scores.csv", _text(work / "module_scores.csv"), refs.aggregate_csv(scored))
    _same(score, "score stdout", _text(work / "score.stdout"), refs.score_stdout(scored))
    problems["score"] = score
    return {k: v for k, v in problems.items() if v}


CHECKS = {"events_ingest": check_events, "tree_induction": check_tree, "model_apply": check_apply}
