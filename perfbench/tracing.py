"""The traced in-process run: spans around every call into sacmine.

Each workload's CLI sequence is replayed in-process as the library calls
its subcommands make, once with spans off and once with spans on, and the
difference is the tracing overhead. Spans live only in this file, around
the calls; sacmine itself is not instrumented. The CLI's own glue
(argument parsing, printing, its private output writers) is measured by
the ``cli.*`` child metrics instead.

Span layers are the sacmine module names. ``credibility`` has no span of
its own: its scoring runs inside ``ingest.score_rows`` and
``ingest.read_module_inputs_csv``.
"""

from __future__ import annotations

import contextlib
import statistics
import time
import tracemalloc
from bisect import bisect_right
from collections import defaultdict
from pathlib import Path

from sacmine import dtree, ingest, reliability, synthgen

import inputs
import refs

MIN_LEAF = 2


class Tracer:
    """In-memory spans: [name, start, end, parent index]; counts by name."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value) -> None:
        self.counts[name] = value


class NoTracer:
    """Same interface as Tracer, recording nothing."""

    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, value) -> None:
        pass


# --- in-process jobs: the library calls each CLI step makes ------------------------


def events_job(t, work: Path, out: Path) -> None:
    with t.span("cmd.score"):
        with t.span("ingest.parse_events"), open(work / "events.csv", "rb") as fh:
            events, parsed = ingest.parse_events(fh)
        with t.span("ingest.clean_events"):
            cleaned, cleaning = ingest.clean_events(events)
        with t.span("ingest.read_roster_csv"):
            roster = ingest.read_roster_csv(work / "roster.csv")
        with t.span("ingest.aggregate"):
            records, _ = ingest.aggregate(cleaned, roster, inputs.WEEKS)
        with t.span("ingest.score_rows"):
            rows = ingest.score_rows(records)
        with t.span("ingest.write_aggregate_csv"), open(out / "scored.csv", "w", newline="", encoding="utf-8") as fh:
            ingest.write_aggregate_csv(rows, fh)
    del events, cleaned
    with t.span("cmd.ingest"):
        with t.span("ingest.parse_events"), open(work / "events.csv", "rb") as fh:
            events, _ = ingest.parse_events(fh)
        with t.span("ingest.clean_events"):
            cleaned, _ = ingest.clean_events(events)
        with t.span("ingest.write_events_csv"), open(out / "cleaned.csv", "w", newline="", encoding="utf-8") as fh:
            ingest.write_events_csv(cleaned, fh)
    t.count("ingest.rows_read", parsed.rows_read)
    t.count("ingest.rows_rejected", parsed.rows_rejected)
    t.count("ingest.duplicates_dropped", cleaning.duplicates_dropped)
    t.count("ingest.conflicts_resolved", cleaning.conflicts_resolved)
    t.count("ingest.records", len(records))
    t.count("ingest.kept_ratio", cleaning.rows_kept / parsed.rows_read)


def tree_job(t, work: Path, out: Path) -> None:
    with t.span("cmd.train"):
        with t.span("dtree.read_dataset_csv"):
            data = dtree.read_dataset_csv(work / "dataset.csv")
        with t.span("dtree.build_tree"):
            tree = dtree.build_tree(data, criterion=dtree.GAIN, min_leaf=MIN_LEAF)
        with t.span("dtree.save_model"):
            dtree.save_model(tree, data.attributes, data.label, out / "model.json")
    with t.span("cmd.evaluate"):
        with t.span("dtree.read_dataset_csv"):
            data = dtree.read_dataset_csv(work / "dataset.csv")
        with t.span("dtree.split_dataset"):
            train, test = dtree.split_dataset(data, 0.7, 0)
        with t.span("dtree.build_tree"):
            tree = dtree.build_tree(train, criterion=dtree.GAIN, min_leaf=MIN_LEAF)
        with t.span("dtree.evaluate"):
            dtree.evaluate(tree, test)


def apply_job(t, work: Path, out: Path) -> None:
    model = work / "model.json"
    with t.span("cmd.predict"):
        with t.span("dtree.load_model"):
            tree, attributes, _ = dtree.load_model(model)
        with t.span("dtree.read_instances_csv"):
            rows = dtree.read_instances_csv(work / "instances.csv", attributes)
        with t.span("dtree.predict"):
            [dtree.predict(tree, row) for row in rows]
    del rows
    with t.span("cmd.evaluate"):
        with t.span("dtree.read_dataset_csv"):
            data = dtree.read_dataset_csv(work / "labelled.csv")
        with t.span("dtree.load_model"):
            tree, _, _ = dtree.load_model(model)
        with t.span("dtree.evaluate"):
            dtree.evaluate(tree, data)
    del data
    with t.span("cmd.rules"):
        with t.span("dtree.load_model"):
            tree, _, _ = dtree.load_model(model)
        with t.span("dtree.extract_rules"):
            dtree.extract_rules(tree)
    with t.span("cmd.reliability"):
        with t.span("reliability.read_panel_csv"):
            panel = reliability.read_panel_csv(work / "panel.csv")
        with t.span("reliability.cronbach_alpha"):
            reliability.cronbach_alpha(panel, reliability.MIXED)
    with t.span("cmd.score"):
        with t.span("ingest.read_module_inputs_csv"):
            scored = ingest.read_module_inputs_csv(work / "module_inputs.csv")
        with t.span("ingest.write_aggregate_csv"), open(out / "module_scores.csv", "w", newline="", encoding="utf-8") as fh:
            ingest.write_aggregate_csv(scored, fh)
    t.count("ingest.records", len(scored))


JOBS = {"events_ingest": events_job, "tree_induction": tree_job, "model_apply": apply_job}


# --- set-up and probes: layer work outside the CLI job -----------------------------


def setup_calls(t, workload: str, work: Path, seed: int) -> None:
    """The sacmine calls the workload's set-up makes."""
    with t.span("setup"):
        if workload == "events_ingest":
            with t.span("synthgen.generate_events"):
                synthgen.generate_events(
                    synthgen.GenParams(module_count=inputs.EVENT_MODULES, weeks_total=inputs.WEEKS, seed=seed)
                )
        elif workload == "model_apply":
            with t.span("dtree.read_dataset_csv"):
                data = dtree.read_dataset_csv(work / "train.csv")
            with t.span("dtree.build_tree"):
                dtree.build_tree(data, criterion=dtree.GAIN_RATIO, min_leaf=MIN_LEAF)


def replay_candidates(t, tree, data) -> int:
    """Exact count of split scores build_tree computed for this tree.

    Routes the training rows through the learned tree. Every node that ran
    split search (impure, at least 2*min_leaf rows) gets numeric_candidates
    per numeric attribute; a candidate is scored when both sides keep
    min_leaf rows, and a nominal split when every branch does.
    """
    scored = 0

    def visit(node, instances):
        nonlocal scored
        labels = {inst.label for inst in instances}
        if len(instances) >= 2 * MIN_LEAF and len(labels) > 1:
            for pos, spec in enumerate(data.attributes):
                if spec.kind == dtree.NUMERIC:
                    with t.span("dtree.numeric_candidates"):
                        candidates = dtree.numeric_candidates(instances, pos)
                    values = sorted(inst.values[pos] for inst in instances)
                    n = len(values)
                    scored += sum(
                        1 for c in candidates if MIN_LEAF <= bisect_right(values, c) <= n - MIN_LEAF
                    )
                else:
                    sizes = defaultdict(int)
                    for inst in instances:
                        sizes[inst.values[pos]] += 1
                    scored += all(sizes[v] >= MIN_LEAF for v in spec.domain)
        if isinstance(node, dtree.Split):
            if node.threshold is not None:
                visit(node.le, [i for i in instances if i.values[node.index] <= node.threshold])
                visit(node.gt, [i for i in instances if i.values[node.index] > node.threshold])
            else:
                for value, child in node.branches.items():
                    visit(child, [i for i in instances if i.values[node.index] == value])

    visit(tree, list(data.instances))
    return scored


def probe_tree(t, work: Path, dataset_name: str, criterion: str) -> None:
    """Layer-only numbers for a workload's trained model: ranking and split-search counts."""
    with t.span("probe"):
        tree, _, _ = dtree.load_model(work / "model.json")
        data = dtree.read_dataset_csv(work / dataset_name)
        with t.span("dtree.rank_attributes"):
            dtree.rank_attributes(data, criterion)
        scored = replay_candidates(t, tree, data)
    nodes, leaves, depth = refs.tree_stats(dtree.tree_to_json(tree))
    t.count("dtree.candidates_scored", scored)
    t.count("dtree.nodes", nodes)
    t.count("dtree.leaves", leaves)
    t.count("dtree.depth", depth)
    t.count("dtree.split_yield", (nodes - leaves) / scored if scored else 0.0)


def ingest_peak_mib(work: Path) -> float:
    """tracemalloc peak of the score path's parse, clean and aggregate, in its own pass."""
    tracemalloc.start()
    try:
        with open(work / "events.csv", "rb") as fh:
            events, _ = ingest.parse_events(fh)
        cleaned, _ = ingest.clean_events(events)
        del events
        ingest.aggregate(cleaned, ingest.read_roster_csv(work / "roster.csv"), inputs.WEEKS)
        del cleaned
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# --- the run -------------------------------------------------------------------------


def subtree(children, root: int):
    """Indices of a span and all its descendants."""
    stack = [root]
    while stack:
        i = stack.pop()
        yield i
        stack.extend(children[i])


def run(workload: str, work: Path, seed: int, seconds: float) -> tuple[dict, list]:
    """Traced in-process run; returns per-layer numbers and the spans."""
    out = work / "inprocess"
    out.mkdir(exist_ok=True)
    t = Tracer()
    setup_calls(t, workload, work, seed)
    job = JOBS[workload]
    untraced, roots = [], []
    start = time.perf_counter()
    while not roots or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        job(NoTracer(), work, out)
        untraced.append(time.perf_counter() - t0)
        roots.append(len(t.spans))
        with t.span("job"):
            job(t, work, out)
    if workload == "tree_induction":
        probe_tree(t, work, "dataset.csv", dtree.GAIN)
    elif workload == "model_apply":
        probe_tree(t, work, "train.csv", dtree.GAIN_RATIO)
    metrics: dict[str, float] = dict(t.counts)
    if workload == "events_ingest":
        metrics["ingest.peak_traced_mib"] = ingest_peak_mib(work)

    # per-name totals: job spans as the median over passes, other spans once
    spans = t.spans
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    dur = [span[2] - span[1] for span in spans]
    self_dur = [d - sum(dur[k] for k in children[i]) for i, d in enumerate(dur)]
    per_pass, layer_self = [], []
    in_job: set[int] = set()
    for root in roots:
        totals: dict[str, float] = defaultdict(float)
        selfs: dict[str, float] = defaultdict(float)
        for i in subtree(children, root):
            in_job.add(i)
            totals[spans[i][0]] += dur[i]
            selfs[spans[i][0].split(".")[0]] += self_dur[i]
        per_pass.append(totals)
        layer_self.append(selfs)
    for name in {span[0] for span in spans} - {"job", "setup", "probe"}:
        once = sum(dur[i] for i, span in enumerate(spans) if span[0] == name and i not in in_job)
        metrics[f"{name}_s"] = statistics.median(p.get(name, 0.0) for p in per_pass) + once
    traced = [t.spans[r][2] - t.spans[r][1] for r in roots]
    for layer in ("ingest", "dtree", "reliability"):
        metrics[f"self.{layer}_share"] = statistics.median(
            selfs[layer] / d for selfs, d in zip(layer_self, traced)
        )
    metrics["trace.inprocess_s"] = statistics.median(traced)
    metrics["trace.untraced_s"] = statistics.median(untraced)
    metrics["trace.overhead_s"] = metrics["trace.inprocess_s"] - metrics["trace.untraced_s"]
    metrics["trace.passes"] = len(roots)
    return metrics, t.spans
