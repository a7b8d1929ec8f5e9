"""Command-line front end for the attendance credibility pipeline.

Subcommands: ingest, score, reliability, train, rules, evaluate, predict,
gen. Human-readable summaries go to stdout; machine artifacts are written
to --out. Exit codes: 0 success, 1 validation or domain error, 2 I/O
error. Identical arguments plus identical input files always produce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import csv
import json
import operator
import sys
from pathlib import Path

from . import __version__
from .errors import Error

# Each subcommand imports the modules it uses, so startup loads none it does
# not need. The --estimator names are reliability.ESTIMATORS, POPULATION first.
_ESTIMATORS = ("population", "sample", "paper-mixed")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sacmine",
        description="Attendance credibility scoring, reliability and classification.",
    )
    parser.add_argument("--version", action="version", version=f"sacmine {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse and clean an events CSV")
    p.add_argument("--in", dest="infile", required=True, help="events CSV")
    p.add_argument("--out", help="cleaned events CSV")

    p = sub.add_parser("score", help="score modules; accepts events or module-input CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--roster", help="roster CSV (module_code,semester,registered)")
    p.add_argument("--out", help="scored aggregate artifact")
    p.add_argument("--weeks", type=int, help="weeks per semester of an events CSV (default 11)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("reliability", help="Cronbach's alpha over a SAC panel CSV")
    p.add_argument("--in", dest="infile", help="panel CSV (default: bundled panel)")
    p.add_argument(
        "--estimator",
        choices=list(_ESTIMATORS),
        default=_ESTIMATORS[0],
    )
    p.add_argument("--out", help="breakdown artifact")
    p.add_argument("--format", choices=["json", "text"], default="json")

    p = sub.add_parser("train", help="build a decision tree from a dataset CSV")
    p.add_argument("--in", dest="infile", required=True, help="dataset CSV with sidecar schema")
    p.add_argument("--out", help="model JSON")
    p.add_argument("--criterion", choices=["gain", "gain-ratio"], default="gain-ratio")
    p.add_argument("--min-leaf", type=int, default=2)

    p = sub.add_parser("rules", help="extract IF/THEN rules from a model")
    p.add_argument("--in", dest="infile", required=True, help="model JSON")
    p.add_argument("--out", help="rules artifact")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("evaluate", help="evaluate a model, or split/train/evaluate")
    p.add_argument("--in", dest="infile", required=True, help="dataset CSV")
    p.add_argument("--model", help="model JSON; omit to split, train and evaluate")
    p.add_argument("--fraction", type=float, default=0.70, help="train fraction (default 0.70)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--criterion", choices=["gain", "gain-ratio"], default="gain-ratio")
    p.add_argument("--min-leaf", type=int, default=2)
    p.add_argument("--out", help="evaluation report artifact")
    p.add_argument("--format", choices=["json", "text"], default="json")

    p = sub.add_parser("predict", help="classify instances with a trained model")
    p.add_argument("--in", dest="infile", required=True, help="instances CSV")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--out", help="predictions CSV")

    p = sub.add_parser("gen", help="generate synthetic fixtures")
    p.add_argument("--kind", choices=["events", "dataset"], required=True)
    p.add_argument("--out", help="output path (events CSV or dataset CSV)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weeks", type=int, help="weeks per semester for --kind events (default 11)")
    p.add_argument("--modules", type=int, help="module count for --kind events (default 12)")
    p.add_argument("--n", type=int, help="instance count for --kind dataset (default 59)")
    p.add_argument(
        "--thresholds", help="JSON list of rule thresholds for --kind dataset (default: bundled)"
    )

    return parser


def _write_text(path: str | None, text: str) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")


def _criterion(name: str) -> str:
    from . import dtree

    return dtree.GAIN if name == "gain" else dtree.GAIN_RATIO


def _read_events(path: str, weeks_total: int | None, file):
    """Stream an events CSV into its event map, printing its row accounting to ``file``."""
    from . import ingest

    winners, parsed, cleaning = ingest.read_event_map(Path(path), weeks_total)
    print(
        f"read {parsed.rows_read} rows: kept {parsed.rows_kept}, rejected {parsed.rows_rejected}",
        file=file,
    )
    for reason, count in sorted(parsed.rejection_reasons.items()):
        print(f"  rejected {count}: {reason}", file=file)
    print(
        f"cleaned to {cleaning.rows_kept} events: {cleaning.duplicates_dropped} duplicates "
        f"dropped, {cleaning.conflicts_resolved} conflicts resolved",
        file=file,
    )
    return winners


def _cmd_ingest(args) -> int:
    from . import ingest

    winners = _read_events(args.infile, None, sys.stdout)
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            ingest.write_event_map_csv(winners, fh)
    return 0


def _score_rows_from_input(args) -> list[tuple]:
    """Score an events CSV (row accounting goes to stderr) or module inputs."""
    from . import ingest, tables

    with tables.read(Path(args.infile)) as table:
        is_events = table.header == ingest.EVENTS_HEADER
    if not is_events:
        if args.weeks is not None:
            raise ValueError(
                f"{args.infile}: --weeks applies only to an events CSV; module inputs carry weeks_total"
            )
        return ingest.read_module_inputs_csv(args.infile)
    weeks = 11 if args.weeks is None else args.weeks
    winners = _read_events(args.infile, weeks, sys.stderr)
    roster = ingest.read_roster_csv(args.roster) if args.roster else None
    records, rejections = ingest.aggregate_event_map(winners, roster, weeks)
    for diag in rejections:
        print(f"rejected record: {diag}", file=sys.stderr)
    return ingest.score_rows(records)


def _cmd_score(args) -> int:
    from . import ingest

    rows = _score_rows_from_input(args)
    for module_code, semester, _, taken, _, value, strength in rows:
        if value is None:
            print(f"{module_code} sem {semester}: no attendance taken")
        else:
            print(f"{module_code} sem {semester}: sac {value:.3f} strength {strength} (taken {taken})")
    if args.out:
        if args.format == "csv":
            with open(args.out, "w", newline="", encoding="utf-8") as fh:
                ingest.write_aggregate_csv(rows, fh)
        else:
            doc = [dict(zip(ingest.AGGREGATE_HEADER, r)) for r in rows]
            _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_reliability(args) -> int:
    from . import fixtures, reliability

    source = args.infile if args.infile else fixtures.path(fixtures.PANEL)
    panel = reliability.read_panel_csv(source)
    breakdown = reliability.cronbach_alpha(panel, args.estimator)
    print(
        f"alpha {breakdown.alpha:.3f} (estimator {breakdown.estimator}, "
        f"k={breakdown.k}, m={breakdown.m})"
    )
    if args.out:
        if args.format == "json":
            _write_text(
                args.out,
                json.dumps(reliability.breakdown_to_json(breakdown), indent=2) + "\n",
            )
        else:
            lines = [
                f"alpha {breakdown.alpha:.3f}",
                f"estimator {breakdown.estimator}",
                f"sum_item_variance {breakdown.sum_item_variance!r}",
                f"total_score_variance {breakdown.total_score_variance!r}",
            ]
            _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_train(args) -> int:
    from . import dtree

    data = dtree.read_dataset_csv(args.infile)
    tree = dtree.build_tree(data, criterion=_criterion(args.criterion), min_leaf=args.min_leaf)
    print(f"trained tree: {dtree.count_nodes(tree)} nodes, {dtree.count_leaves(tree)} leaves")
    if args.out:
        dtree.save_model(tree, data.attributes, data.label, args.out)
    return 0


def _cmd_rules(args) -> int:
    from . import dtree

    tree, _, label = dtree.load_model(args.infile)
    ruleset = dtree.extract_rules(tree)
    lines = ruleset.to_text(label.name)
    for line in lines:
        print(line)
    if args.out:
        if args.format == "text":
            _write_text(args.out, "\n".join(lines) + "\n")
        else:
            doc = [
                {
                    "conditions": [
                        {"attribute": c.attribute, "op": c.op, "value": c.value}
                        for c in rule.conditions
                    ],
                    "class": rule.label,
                    "coverage": rule.coverage,
                    "confidence": rule.confidence,
                }
                for rule in ruleset.rules
            ]
            _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_evaluate(args) -> int:
    from . import dtree

    if args.model:
        tree, attributes, label = dtree.load_model(args.model)
        rows = dtree.read_labelled_csv(args.infile, attributes, label)
        report = dtree.NodeTable(tree).evaluate(rows, [row[-1] for row in rows], label.domain)
        sizes = {"train": None, "test": len(rows)}
    else:
        data = dtree.read_dataset_csv(args.infile)
        train, test = dtree.split_dataset(data, args.fraction, args.seed)
        tree = dtree.build_tree(train, criterion=_criterion(args.criterion), min_leaf=args.min_leaf)
        report = dtree.evaluate(tree, test)
        sizes = {"train": len(train.instances), "test": len(test.instances)}
    print(f"accuracy {report.accuracy:.3f} rmse {report.rmse:.4f} (test n={sizes['test']})")
    if args.out:
        doc = {
            "accuracy": report.accuracy,
            "rmse": report.rmse,
            "classes": list(report.classes),
            "confusion": [list(row) for row in report.confusion],
            "sizes": sizes,
        }
        if args.format == "json":
            _write_text(args.out, json.dumps(doc, indent=2) + "\n")
        else:
            _write_text(
                args.out,
                f"accuracy {report.accuracy!r}\nrmse {report.rmse!r}\n",
            )
    return 0


def _cmd_predict(args) -> int:
    from . import dtree

    tree, attributes, label = dtree.load_model(args.model)
    table = dtree.NodeTable(tree)
    rows = dtree.read_instances_csv(args.infile, attributes)
    leaf_ids = table.route(rows)
    for row, j in zip(rows[:10], leaf_ids):
        leaf = table.leaves[j]
        print(f"{row} -> {label.name} = {leaf.label} (p={leaf.distribution[leaf.label]:.3f})")
    if len(rows) > 10:
        print(f"... {len(rows) - 10} more")
    if args.out:
        # The class and confidence cells of each leaf; csv writes a float as its repr.
        tails = [(leaf.label, repr(leaf.distribution[leaf.label])) for leaf in table.leaves]
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([a.name for a in attributes] + ["predicted", "confidence"])
            writer.writerows(map(operator.add, rows, map(tails.__getitem__, leaf_ids)))
    return 0


#: The gen options of each --kind; an option of the other kind is an error.
_GEN_OPTIONS = {"events": ("weeks", "modules"), "dataset": ("n", "thresholds")}


def _cmd_gen(args) -> int:
    from . import dtree, fixtures, synthgen

    other = "dataset" if args.kind == "events" else "events"
    for name in _GEN_OPTIONS[other]:
        if getattr(args, name) is not None:
            raise ValueError(f"--{name} applies only to gen --kind {other}")
    if args.kind == "events":
        modules = 12 if args.modules is None else args.modules
        weeks = 11 if args.weeks is None else args.weeks
        payload = synthgen.generate_events(
            synthgen.GenParams(module_count=modules, weeks_total=weeks, seed=args.seed)
        )
        if args.out:
            Path(args.out).write_bytes(payload)
            print(f"wrote {args.out} ({len(payload)} bytes, {modules} modules)")
        else:
            sys.stdout.write(payload.decode("utf-8"))
        return 0
    source = Path(args.thresholds) if args.thresholds else fixtures.path(fixtures.RULE_THRESHOLDS)
    try:
        thresholds = json.loads(source.read_text(encoding="utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ValueError(f"{source}: {type(exc).__name__}: {exc}") from None
    n = 59 if args.n is None else args.n
    data = synthgen.generate_rule_labeled_dataset(thresholds, n, args.seed)
    if not args.out:
        raise ValueError("gen --kind dataset requires --out")
    dtree.write_dataset_csv(data, args.out)
    classes = sorted({inst.label for inst in data.instances}, key=int)
    print(f"wrote {args.out} ({n} instances, classes {','.join(classes)})")
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "score": _cmd_score,
    "reliability": _cmd_reliability,
    "train": _cmd_train,
    "rules": _cmd_rules,
    "evaluate": _cmd_evaluate,
    "predict": _cmd_predict,
    "gen": _cmd_gen,
}


def run(argv) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (Error, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
