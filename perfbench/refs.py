"""Output references that do not import sacmine.

Each function recomputes one artifact, or one property of it, from the
inputs alone, following the formulas the README and docstrings state.
Where sacmine's floating-point order is part of the contract (averages,
entropies), the reference evaluates in that same order, so results are
compared exactly.
"""

from __future__ import annotations

import csv
import io
import json
import math
from bisect import bisect_right
from collections import defaultdict

import numpy as np

STATUSES = ("present", "absent")


def read_rows(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, [row for row in reader if row]


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


# --- ingest / score ---------------------------------------------------------------


def clean_events(rows) -> dict[tuple[str, int, int, str], bool]:
    """Well-formed events deduplicated to (module, semester, week, student) -> present.

    A key seen both present and absent is present.
    """
    status: dict[tuple[str, int, int, str], bool] = {}
    for row in rows:
        if len(row) != 5:
            continue
        student, module, semester, week, state = (c.strip() for c in row)
        state = state.lower()
        if not student or not module or semester not in ("1", "2") or state not in STATUSES:
            continue
        try:
            w = int(week)
        except ValueError:
            continue
        if w < 1:
            continue
        key = (module, int(semester), w, student)
        status[key] = status.get(key, False) or state == "present"
    return status


def cleaned_events_csv(status) -> str:
    """The ``ingest --out`` artifact: one row per key, sorted by module, semester, week, student."""
    rows = [(s, m, sem, w, "present" if p else "absent") for (m, sem, w, s), p in sorted(status.items())]
    return _csv_text(("student_id", "module_code", "semester", "week", "status"), rows)


def strength(value: float) -> int:
    """Decile class of a SAC value; boundaries map upward, 1.0 is class 10."""
    for klass in range(1, 10):
        if value < klass / 10:
            return klass
    return 10


def aggregate_scores(status, roster: dict[tuple[str, int], int], weeks: int) -> list[tuple]:
    """Scored rows (module, semester, weeks, taken, avg, sac, strength) from cleaned events.

    A week is taken when it has any event; the weekly denominator is the
    roster count, else the distinct students seen in the semester. Roster
    modules without events are flagged with blanks.
    """
    present: dict[tuple[str, int], dict[int, int]] = defaultdict(lambda: defaultdict(int))
    students: dict[tuple[str, int], set[str]] = defaultdict(set)
    for (module, semester, week, student), is_present in status.items():
        present[(module, semester)][week] += is_present
        students[(module, semester)].add(student)
    rows = []
    for key in sorted(set(present) | set(roster)):
        module, semester = key
        if key not in present:
            rows.append((module, semester, weeks, 0, None, None, 0))
            continue
        registered = roster.get(key, len(students[key]))
        counts = present[key]
        if any(c > registered for c in counts.values()):
            continue
        ratio = sum(counts[w] / registered for w in sorted(counts))
        avg = 100.0 * ratio / len(counts)
        value = (avg * len(counts)) / (100.0 * weeks)
        rows.append((module, semester, weeks, len(counts), avg, value, strength(value)))
    return rows


def score_module_inputs(rows) -> list[tuple]:
    """Scored rows from ``module_code,semester,weeks_total,attendance_taken,attend_avg``."""
    out = []
    for module, semester, weeks, taken, avg in ([c.strip() for c in r] for r in rows):
        semester, weeks, taken = int(semester), int(weeks), int(taken)
        if taken == 0:
            out.append((module, semester, weeks, 0, None, None, 0))
            continue
        value = (float(avg) * taken) / (100.0 * weeks)
        out.append((module, semester, weeks, taken, float(avg), value, strength(value)))
    return out


def aggregate_csv(rows) -> str:
    header = ("module_code", "semester", "weeks_total", "attendance_taken", "attend_avg", "sac", "sac_strength")
    return _csv_text(
        header,
        [
            (m, s, w, t, "" if a is None else f"{a:.1f}", "" if v is None else f"{v:.3f}", k)
            for m, s, w, t, a, v, k in rows
        ],
    )


def score_stdout(rows) -> str:
    lines = [
        f"{m} sem {s}: no attendance taken"
        if v is None
        else f"{m} sem {s}: sac {v:.3f} strength {k} (taken {t})"
        for m, s, _, t, _, v, k in rows
    ]
    return "".join(line + "\n" for line in lines)


def ingest_stdout(noise: dict) -> str:
    """Expected ``ingest`` accounting from the counts of injected noise."""
    bad = sum(noise["malformed"].values())
    dups = noise["exact_duplicates"] + noise["conflicting_duplicates"]
    lines = [f"read {noise['rows']} rows: kept {noise['rows'] - bad}, rejected {bad}"]
    lines += [f"  rejected {count}: {reason}" for reason, count in sorted(noise["malformed"].items())]
    lines.append(
        f"cleaned to {noise['clean_rows']} events: {dups} duplicates dropped, "
        f"{noise['conflicting_duplicates']} conflicts resolved"
    )
    return "".join(line + "\n" for line in lines)


# --- trees ---------------------------------------------------------------------------


def walk(node: dict, values) -> dict:
    """Leaf of a model-JSON tree that a row (in schema order) reaches."""
    while node["type"] == "split":
        v = values[node["index"]]
        if "threshold" in node:
            node = node["le"] if v <= node["threshold"] else node["gt"]
        else:
            node = node["branches"][v]
    return node


def _children(node: dict) -> list[dict]:
    return [node["le"], node["gt"]] if "threshold" in node else list(node["branches"].values())


def leaves(node: dict) -> list[dict]:
    """Leaves in left-to-right order."""
    if node["type"] == "leaf":
        return [node]
    return [leaf for child in _children(node) for leaf in leaves(child)]


def tree_stats(node: dict, depth: int = 0) -> tuple[int, int, int]:
    """(nodes, leaves, depth) of a model-JSON tree."""
    if node["type"] == "leaf":
        return 1, 1, depth
    stats = [tree_stats(c, depth + 1) for c in _children(node)]
    return 1 + sum(s[0] for s in stats), sum(s[1] for s in stats), max(s[2] for s in stats)


def label_domain(schema: dict) -> list[str]:
    return next(c["domain"] for c in schema["columns"] if c["name"] == schema["label"])


def load_dataset(csv_path, schema: dict) -> tuple[list[tuple], list[str]]:
    """Rows in schema attribute order (numeric as float) and their labels."""
    header, rows = read_rows(csv_path)
    header = [h.strip() for h in header]
    cols = [c for c in schema["columns"] if c["name"] != schema["label"]]
    pos = [header.index(c["name"]) for c in cols]
    numeric = [c["kind"] == "numeric" for c in cols]
    label_pos = header.index(schema["label"]) if schema["label"] in header else None
    values = [
        tuple(float(r[p]) if num else r[p].strip() for p, num in zip(pos, numeric)) for r in rows
    ]
    labels = [r[label_pos].strip() for r in rows] if label_pos is not None else []
    return values, labels


def leaf_routing_problems(tree: dict, rows, labels, domain, min_leaf: int) -> list[str]:
    """Training rows routed through the tree must reproduce every leaf's n,
    class distribution and majority; every leaf holds at least min_leaf rows."""
    routed: dict[int, list[str]] = defaultdict(list)
    for values, label in zip(rows, labels):
        routed[id(walk(tree, values))].append(label)
    problems = []
    for leaf in leaves(tree):
        got = routed.get(id(leaf), [])
        if leaf["n"] < min_leaf:
            problems.append(f"leaf with n={leaf['n']} < min_leaf {min_leaf}")
        if len(got) != leaf["n"]:
            problems.append(f"leaf n={leaf['n']} but {len(got)} training rows reach it")
            continue
        counts = [got.count(c) for c in domain]
        dist = {c: counts[i] / len(got) for i, c in enumerate(domain)}
        if dist != leaf["distribution"]:
            problems.append(f"leaf distribution {leaf['distribution']} != routed {dist}")
        if domain[counts.index(max(counts))] != leaf["class"]:
            problems.append(f"leaf class {leaf['class']} is not the routed majority")
    return problems[:5]


def _entropy(counts, total) -> float:
    h = math.fsum((c / total) * math.log2(c / total) for c in counts if c)
    return -h if h else 0.0


def _split_score(parent, parts, n, criterion: str) -> float:
    child_h = 0.0
    for part in parts:
        size = sum(part)
        if size:
            child_h += (size / n) * _entropy(part, size)
    gain = _entropy(parent, n) - child_h
    if criterion == "gain":
        return gain
    split_info = _entropy([sum(p) for p in parts], n)
    return gain / split_info if split_info > 0.0 else 0.0


def best_split(rows, labels, schema: dict, min_leaf: int, criterion: str):
    """Brute-force split of one node by "gain" or "gain_ratio": (attribute, threshold or None), or None.

    Every attribute in schema order; for numeric ones every midpoint
    between consecutive distinct values whose class sets differ. A split
    must leave min_leaf rows in every branch; the first strictly better
    score wins.
    """
    cols = [c for c in schema["columns"] if c["name"] != schema["label"]]
    domain = label_domain(schema)
    cls = np.array([domain.index(lab) for lab in labels])
    onehot = np.eye(len(domain), dtype=np.int64)[cls]
    parent = [int(c) for c in onehot.sum(axis=0)]
    n = len(labels)
    best, best_score = None, 0.0
    for j, col in enumerate(cols):
        column = [r[j] for r in rows]
        if col["kind"] == "nominal":
            parts = [[0] * len(domain) for _ in col["domain"]]
            for v, c in zip(column, cls):
                parts[col["domain"].index(v)][c] += 1
            if any(sum(p) < min_leaf for p in parts):
                continue
            score = _split_score(parent, parts, n, criterion)
            if score > best_score:
                best, best_score = (col["name"], None), score
            continue
        order = np.argsort(np.array(column), kind="stable")
        values = [column[i] for i in order]
        prefix = np.vstack([np.zeros(len(domain), dtype=np.int64), np.cumsum(onehot[order], axis=0)])
        classes: dict[float, set[int]] = defaultdict(set)
        for v, c in zip(column, cls):
            classes[v].add(int(c))
        distinct = sorted(classes)
        for v1, v2 in zip(distinct, distinct[1:]):
            if classes[v1] == classes[v2]:
                continue
            t = (v1 + v2) / 2.0
            k = bisect_right(values, t)
            if k < min_leaf or n - k < min_leaf:
                continue
            le = [int(c) for c in prefix[k]]
            gt = [p - c for p, c in zip(parent, le)]
            score = _split_score(parent, [le, gt], n, criterion)
            if score > best_score:
                best, best_score = (col["name"], t), score
    return best


def rules_problems(rules: list[dict], tree: dict, rows, columns) -> list[str]:
    """One rule per leaf, in leaf order with leaf coverage and class; the
    first matching rule classifies each row as the tree does."""
    problems = []
    tree_leaves = leaves(tree)
    if len(rules) != len(tree_leaves):
        return [f"{len(rules)} rules for {len(tree_leaves)} leaves"]
    for rule, leaf in zip(rules, tree_leaves):
        if (rule["class"], rule["coverage"]) != (leaf["class"], leaf["n"]):
            problems.append(f"rule {rule} does not match leaf {leaf['class']}/{leaf['n']}")
    pos = {name: i for i, name in enumerate(columns)}
    ops = {"<=": lambda a, b: a <= b, ">": lambda a, b: a > b, "=": lambda a, b: a == b}
    for values in rows:
        first = next(
            (
                r for r in rules
                if all(ops[c["op"]](values[pos[c["attribute"]]], c["value"]) for c in r["conditions"])
            ),
            None,
        )
        if first is None or first["class"] != walk(tree, values)["class"]:
            problems.append(f"first matching rule {first} disagrees with the tree on {values}")
    return problems[:5]


# --- reliability ------------------------------------------------------------------------


def cronbach_alpha(panel: np.ndarray, estimator: str) -> float:
    """Alpha with years as items; paper-mixed pairs sample items with a population total."""
    item_ddof = 0 if estimator == "population" else 1
    total_ddof = 1 if estimator == "sample" else 0
    k = panel.shape[1]
    items = panel.var(axis=0, ddof=item_ddof).sum()
    total = panel.sum(axis=1).var(ddof=total_ddof)
    return (k / (k - 1)) * (1.0 - items / total)


def read_panel(path) -> np.ndarray:
    _, rows = read_rows(path)
    return np.array([[float(c) for c in r[1:]] for r in rows])


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
