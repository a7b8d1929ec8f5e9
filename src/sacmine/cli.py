"""Command-line front end for the attendance credibility pipeline.

Subcommands: ingest, score, reliability, train, rules, evaluate, predict,
gen. Human-readable summaries go to stdout; machine artifacts are written
to --out. One rule holds for every subcommand: --out (with the sidecar
schema of gen --kind dataset) and stdout are held in temporary files and
written only when the command returns, --out before stdout, so a run that
fails prints nothing on stdout and leaves an existing --out as it was.
Exit codes: 0 success, 1 validation or domain error, 2 I/O error (an empty
path option among them). run alone decides the exit code: a subcommand
returns nothing, and run turns the error it raises into 1 or 2. Identical
arguments plus identical input files always produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import operator
import os
import shutil
import stat
import sys
import tempfile
from contextlib import ExitStack, contextmanager, redirect_stdout
from pathlib import Path

from . import __version__
from .errors import Error, InvalidFraction, InvalidParams

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
    p.add_argument("--fraction", type=float, help="train fraction (default 0.70)")
    p.add_argument("--seed", type=int)
    p.add_argument("--criterion", choices=["gain", "gain-ratio"])
    p.add_argument("--min-leaf", type=int)
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


@contextmanager
def _held(*targets):
    """A file to write the text for each of ``targets``, an ``--out`` path or
    a stream such as ``sys.stdout``. The text waits in a write-only temporary
    file (one that can also read resets its decoder on every write) and
    reaches its targets, in the order given, only if the block ends without
    an error. Then every path is opened before any target is written: in
    append mode, so that no open truncates a file while a later one may still
    fail, and if one fails, each path the run created is removed. A run that
    fails thus writes, truncates and creates none of its targets."""
    with ExitStack() as stack:
        spools = [
            stack.enter_context(tempfile.TemporaryFile("w", encoding="utf-8", newline=""))
            for _ in targets
        ]
        yield spools
        sinks, created = [], []
        try:
            for target in targets:
                if not isinstance(target, str):
                    sinks.append(target)
                    continue
                new = not os.path.lexists(target)
                sinks.append(stack.enter_context(open(target, "a", newline="", encoding="utf-8")))
                if new:
                    created.append(target)
        except OSError:
            for name in created:
                os.remove(name)
            raise
        for target, sink, spool in zip(targets, sinks, spools):
            if isinstance(target, str) and stat.S_ISREG(os.fstat(sink.fileno()).st_mode):
                sink.truncate(0)  # as opening with "w" does; that leaves a device or pipe as it is
            spool.flush()
            with open(spool.fileno(), encoding="utf-8", newline="", closefd=False) as text:
                text.seek(0)
                shutil.copyfileobj(text, sink)


def _mode_options(args, mode: str, active: bool, **defaults) -> None:
    """Give each option of ``defaults``, one that only ``mode`` takes, its default
    where unset; outside that mode (``active`` false), one that is set is an error."""
    for name, default in defaults.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif not active:
            raise ValueError(f"--{name.replace('_', '-')} applies only to {mode}")


def _artifact(out, as_json: bool, doc, text: str) -> None:
    """Write ``doc`` as indented JSON, or else ``text``, to ``out`` if there is one."""
    if out is not None:
        out.write(json.dumps(doc, indent=2) + "\n" if as_json else text)


def _tree(data, args):
    """The tree that ``args.criterion`` and ``args.min_leaf`` build from ``data``."""
    from . import dtree

    criterion = dtree.GAIN if args.criterion == "gain" else dtree.GAIN_RATIO
    try:
        return dtree.build_tree(data, criterion=criterion, min_leaf=args.min_leaf)
    except ValueError as exc:
        if args.min_leaf >= 1 or not data.attributes:  # build_tree checks the attributes first
            raise
        raise ValueError(f"--min-leaf: {exc}") from None


def _read_events(source, weeks_total: int | None, file):
    """Stream an events CSV into its event map, printing its row accounting to ``file``."""
    from . import ingest

    winners, parsed, cleaning = ingest.read_event_map(source, weeks_total)
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


def _cmd_ingest(args, out=None) -> None:
    from . import ingest

    winners = _read_events(Path(args.infile), None, sys.stdout)
    if out is not None:
        ingest.write_event_map_csv(winners, out)


def _score_rows_from_input(args):
    """Score an events CSV (row accounting goes to stderr) or module inputs, in chunks of rows.
    --in is opened once, so it may be a pipe. An option the input rules out is raised before
    any row is read, but outside the table, which would put a line number on its message."""
    from . import ingest, tables

    with tables.read(Path(args.infile)) as table:
        is_events = table.header == ingest.EVENTS_HEADER
        if not is_events and args.weeks is None and args.roster is None:
            yield from ingest.module_input_rows(table)
            return
        weeks = 11 if args.weeks is None else args.weeks
        winners = _read_events(table, weeks, sys.stderr) if is_events and weeks >= 1 else None
    del table  # the reader and its last chunk, before the roster is read
    for name, column in (("weeks", "weeks_total"), ("roster", "attend_avg")):
        if not is_events and getattr(args, name) is not None:
            raise ValueError(f"{args.infile}: --{name} applies only to an events CSV; module inputs carry {column}")
    if weeks < 1:
        raise ValueError(f"--weeks: weeks_total must be >= 1, got {weeks}")
    roster = None if args.roster is None else ingest.read_roster_csv(args.roster)
    records, rejections = ingest.aggregate_event_map(winners, roster, weeks)
    del winners  # the map, before the rows are scored and written
    for diag in rejections:
        print(f"rejected record: {diag}", file=sys.stderr)
    yield from tables.chunks(ingest.score_rows(records))


def _summarised(chunks):
    """Each of the ``chunks`` of scored rows, once the summary lines of its rows are printed."""
    from . import tables

    for chunk in chunks:
        codes = tables.shown([row[0] for row in chunk])
        sys.stdout.write("".join(
            f"{module_code} sem {semester}: no attendance taken\n" if value is None
            else f"{module_code} sem {semester}: sac {value:.3f} strength {strength} (taken {taken})\n"
            for module_code, (_, semester, _, taken, _, value, strength) in zip(codes, chunk)
        ))
        yield chunk


def _cmd_score(args, out=None) -> None:
    from . import ingest

    chunks = _summarised(_score_rows_from_input(args))
    if out is None:
        collections.deque(chunks, maxlen=0)
    elif args.format == "csv":
        ingest.write_aggregate_csv(itertools.chain.from_iterable(chunks), out)
    else:
        ingest.write_aggregate_json(chunks, out)


def _cmd_reliability(args, out=None) -> None:
    from . import fixtures, reliability

    source = fixtures.path(fixtures.PANEL) if args.infile is None else args.infile
    panel = reliability.read_panel_csv(source)
    breakdown = reliability.cronbach_alpha(panel, args.estimator)
    print(
        f"alpha {breakdown.alpha:.3f} (estimator {breakdown.estimator}, "
        f"k={breakdown.k}, m={breakdown.m})"
    )
    _artifact(
        out, args.format == "json", reliability.breakdown_to_json(breakdown),
        f"alpha {breakdown.alpha:.3f}\n"
        f"estimator {breakdown.estimator}\n"
        f"sum_item_variance {breakdown.sum_item_variance!r}\n"
        f"total_score_variance {breakdown.total_score_variance!r}\n",
    )


def _cmd_train(args, out=None) -> None:
    from . import dtree

    data = dtree.read_dataset_csv(args.infile)
    tree = _tree(data, args)
    print("trained tree: {} nodes, {} leaves".format(*dtree.tree_counts(tree)))
    if out is not None:
        out.write(dtree.model_text(tree, data.attributes, data.label))


def _cmd_rules(args, out=None) -> None:
    from . import dtree

    table = dtree.NodeTable.load(args.infile)
    ruleset = table.rules()
    lines = ruleset.to_text(table.label.name)
    for line in lines:
        print(line)
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
    _artifact(out, args.format == "json", doc, "\n".join(lines) + "\n")


def _cmd_evaluate(args, out=None) -> None:
    from . import dtree

    # Only a run without --model splits, so only it takes these options.
    _mode_options(args, "evaluate without --model", args.model is None,
                  fraction=0.70, seed=0, criterion="gain-ratio", min_leaf=2)
    if args.model is not None:
        table = dtree.NodeTable.load(args.model)
        report = table.evaluate(dtree.labelled_rows(args.infile, table.attributes, table.label))
        sizes = {"train": None, "test": sum(map(sum, report.confusion))}
    else:
        data = dtree.read_dataset_csv(args.infile)
        try:
            train, test = dtree.split_dataset(data, args.fraction, args.seed)
        except InvalidFraction as exc:  # split_dataset's error for the fraction alone
            raise InvalidFraction(f"--fraction: {exc}") from None
        tree = _tree(train, args)
        report = dtree.evaluate(tree, test)
        sizes = {"train": len(train.instances), "test": len(test.instances)}
    print(f"accuracy {report.accuracy:.3f} rmse {report.rmse:.4f} (test n={sizes['test']})")
    doc = {
        "accuracy": report.accuracy,
        "rmse": report.rmse,
        "classes": list(report.classes),
        "confusion": [list(row) for row in report.confusion],
        "sizes": sizes,
    }
    _artifact(out, args.format == "json", doc, f"accuracy {report.accuracy!r}\nrmse {report.rmse!r}\n")


def _cmd_predict(args, out=None) -> None:
    from . import dtree, tables

    table = dtree.NodeTable.load(args.model)
    # The class and confidence cells of each leaf; csv writes a float as its repr.
    tails = [(leaf.label, repr(leaf.distribution[leaf.label])) for leaf in table.leaves]
    n = 0
    if out is not None:
        tables.write(out, [[a.name for a in table.attributes] + ["predicted", "confidence"]])
    for chunk in dtree.instance_rows(args.infile, table.attributes):
        leaf_ids = table.route(chunk)
        for row, j in zip(chunk[: max(10 - n, 0)], leaf_ids):
            leaf = table.leaves[j]
            name, label = tables.shown([table.label.name, leaf.label])
            print(f"{row} -> {name} = {label} (p={leaf.distribution[leaf.label]:.3f})")
        n += len(chunk)
        if out is not None:
            tables.write(out, map(operator.add, chunk, map(tails.__getitem__, leaf_ids)))
    if n > 10:
        print(f"... {n - 10} more")


def _cmd_gen(args, out=None, schema=None) -> None:
    from . import dtree, fixtures, synthgen

    _mode_options(args, "gen --kind events", args.kind == "events", weeks=11, modules=12)
    _mode_options(args, "gen --kind dataset", args.kind == "dataset", n=59, thresholds=None)
    if args.kind == "dataset" and out is None:
        raise ValueError("gen --kind dataset requires --out")
    if args.kind == "events":
        try:
            params = synthgen.GenParams(module_count=args.modules, weeks_total=args.weeks, seed=args.seed)
        except InvalidParams as exc:  # a count below 1, module_count checked first
            raise InvalidParams(f"{'--modules' if args.modules < 1 else '--weeks'}: {exc}") from None
        size = synthgen.write_events(params, sys.stdout if out is None else out)
        if out is not None:
            print(f"wrote {args.out} ({size} bytes, {args.modules} modules)")
        return
    source = fixtures.path(fixtures.RULE_THRESHOLDS) if args.thresholds is None else Path(args.thresholds)
    try:
        thresholds = json.loads(source.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
        raise ValueError(f"{source}: {type(exc).__name__}: {exc}") from None
    try:
        data = synthgen.generate_rule_labeled_dataset(thresholds, args.n, args.seed)
    except InvalidParams as exc:  # the row count is its only parameter error
        raise InvalidParams(f"--n: {exc}") from None
    dtree.write_dataset(data, out, schema)
    classes = sorted({inst.label for inst in data.instances}, key=int)
    print(f"wrote {args.out} ({args.n} instances, classes {','.join(classes)})")


#: The path options, by their argparse dest; an empty one names no file.
_PATH_OPTIONS = {
    "infile": "--in", "out": "--out", "roster": "--roster", "model": "--model", "thresholds": "--thresholds"
}


def _paths(args) -> list:
    """The paths a run writes: --out, if given, then the sidecar schema of the
    dataset that gen --kind dataset writes there."""
    if args.out is None:
        return []
    if args.command == "gen" and args.kind == "dataset":
        from . import dtree

        return [args.out, str(dtree.default_schema_path(args.out))]
    return [args.out]


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
        for dest, option in _PATH_OPTIONS.items():
            if getattr(args, dest, None) == "":
                raise OSError(f"{option}: empty path")
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ValueError(f"--seed: expected a non-negative integer, got {args.seed}")
        # stdout and the paths wait in spools that are written only if the
        # command returns, the paths first; a failed run writes none of them.
        with _held(*_paths(args), sys.stdout) as (*outs, stdout), redirect_stdout(stdout):
            _COMMANDS[args.command](args, *outs)
        return 0
    except OSError as exc:
        message, code = f"error: {exc}", 2
    except (Error, ValueError) as exc:
        message, code = f"error: {type(exc).__name__}: {exc}", 1
    # one line whatever a name in it holds: each character str.isprintable rejects, as its escape
    print("".join(c if c.isprintable() else repr(c)[1:-1] for c in message), file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
