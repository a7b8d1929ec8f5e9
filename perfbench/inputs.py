"""Seeded input generators for the benchmark workloads.

Every input is a pure function of (workload, seed): the same seed writes
byte-identical files. Run as a script to write one workload's inputs into
a directory; the benchmark does that in a child process so its own
memory stays small (a child's ``ru_maxrss`` starts at its parent's peak).

    PYTHONPATH=src python3 perfbench/inputs.py <workload> <seed> <dir>
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

WEEKS = 11

# events_ingest: about 500k rows from 2,000 modules over 11 weeks
EVENT_MODULES = 2000
EXACT_DUP_SHARE = 0.02
CONFLICT_SHARE = 0.01
MALFORMED_SHARE = 0.005
ABSENT_MODULES = 40

# tree_induction: the >=4k continuous, noisy case
TREE_ROWS = 4000
LABEL_FLIP_SHARE = 0.10

# model_apply: the reading side of the same layers
APPLY_TRAIN_ROWS = 2000
APPLY_ROWS = 200_000
PANEL_MODULES = 2000
PANEL_YEARS = 20
MODULE_INPUT_ROWS = 100_000

TREE_COLUMNS = ("attend_avg", "attend_taken", "noise", "sem_no")
TREE_LABEL = "SAC_Strength"
TREE_SCHEMA = {
    "columns": [
        {"name": "attend_avg", "kind": "numeric"},
        {"name": "attend_taken", "kind": "numeric"},
        {"name": "noise", "kind": "numeric"},
        {"name": "sem_no", "kind": "nominal", "domain": ["1", "2"]},
        {"name": TREE_LABEL, "kind": "nominal", "domain": [str(c) for c in range(1, 11)]},
    ],
    "label": TREE_LABEL,
}

# one defect per malformed row, so each row has exactly one rejection reason
MALFORMED_KINDS = (
    "wrong field count",
    "empty student_id",
    "empty module_code",
    "bad semester",
    "bad week",
    "unknown status",
)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, stream]))


def _write_lines(path: Path, header: str, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for line in lines:
            fh.write(line + "\n")


# --- events_ingest -----------------------------------------------------------


def _malformed(fields: list[str], kind: str) -> str:
    student, module, semester, week, status = fields
    if kind == "wrong field count":
        return ",".join((student, module, semester, week))
    if kind == "empty student_id":
        student = ""
    elif kind == "empty module_code":
        module = ""
    elif kind == "bad semester":
        semester = "3"
    elif kind == "bad week":
        week = "0"
    else:
        status = "late"
    return ",".join((student, module, semester, week, status))


def noisy_events(payload: bytes, seed: int) -> tuple[str, list[str], dict]:
    """Inject seeded duplicates, conflicts and malformed rows into a clean log.

    Exact and conflicting duplicates copy disjoint sets of clean rows, so
    each conflict is its own key. Returns the header, the noisy rows and
    the injected counts, from which the expected ``ingest`` accounting
    follows without running sacmine.
    """
    text = payload.decode("utf-8")
    header, _, body = text.partition("\n")
    rows = body.splitlines()
    n = len(rows)
    rng = _rng(seed, 1)
    n_exact = round(n * EXACT_DUP_SHARE)
    n_conflict = round(n * CONFLICT_SHARE)
    n_bad = round(n * MALFORMED_SHARE)
    picks = rng.choice(n, n_exact + n_conflict, replace=False)
    noise = [rows[int(i)] for i in picks[:n_exact]]
    for i in picks[n_exact:]:
        fields = rows[int(i)].split(",")
        fields[4] = "absent" if fields[4] == "present" else "present"
        noise.append(",".join(fields))
    malformed: dict[str, int] = {}
    for j, i in enumerate(rng.integers(0, n, n_bad)):
        kind = MALFORMED_KINDS[j % len(MALFORMED_KINDS)]
        noise.append(_malformed(rows[int(i)].split(","), kind))
        malformed[kind] = malformed.get(kind, 0) + 1
    # each noise row goes in front of a random clean row; ties keep noise order
    slots = rng.integers(0, n + 1, len(noise))
    order = np.argsort(slots, kind="stable")
    out: list[str] = []
    prev = 0
    for k in order:
        slot = int(slots[k])
        out.extend(rows[prev:slot])
        out.append(noise[k])
        prev = slot
    out.extend(rows[prev:])
    counts = {
        "clean_rows": n,
        "rows": len(out),
        "exact_duplicates": n_exact,
        "conflicting_duplicates": n_conflict,
        "malformed": dict(sorted(malformed.items())),
    }
    return header, out, counts


def roster_lines(clean_rows: list[str], seed: int) -> list[str]:
    """Distinct students per logged module, plus modules absent from the log."""
    students: dict[tuple[str, str], set[str]] = defaultdict(set)
    for row in clean_rows:
        student, module, semester, _, _ = row.split(",")
        students[(module, semester)].add(student)
    rng = _rng(seed, 2)
    entries = {key: len(s) for key, s in students.items()}
    for i in range(ABSENT_MODULES):
        entries[(f"ABS{i + 1:03d}", str(int(rng.integers(1, 3))))] = int(rng.integers(15, 61))
    return [f"{m},{s},{r}" for (m, s), r in sorted(entries.items())]


def write_events_ingest(seed: int, out: Path) -> None:
    from sacmine import synthgen

    payload = synthgen.generate_events(
        synthgen.GenParams(module_count=EVENT_MODULES, weeks_total=WEEKS, seed=seed)
    )
    header, rows, counts = noisy_events(payload, seed)
    clean_rows = payload.decode("utf-8").splitlines()[1:]
    _write_lines(out / "events.csv", header, rows)
    _write_lines(out / "roster.csv", "module_code,semester,registered", roster_lines(clean_rows, seed))
    (out / "noise.json").write_text(json.dumps(counts, indent=2) + "\n", encoding="utf-8")


# --- tree datasets -------------------------------------------------------------


def tree_rows(n: int, seed: int, stream: int) -> list[tuple[str, str, str, str, str]]:
    """Noisy rows whose label is the SAC decile, 10% of labels flipped.

    attend_avg keeps two decimals, so nearly every row has its own value
    and split search sees about n candidate thresholds per node. About
    4.5% of rows sit exactly at 0 and at 100, as in registers where nobody
    or everybody attended; without those masses a few pure rows at either
    end invite tiny splits whose number varies a lot between seeds.
    """
    rng = _rng(seed, stream)
    avg = np.clip(rng.integers(-500, 10501, n), 0, 10000)  # hundredths of a percent
    taken = rng.integers(1, WEEKS + 1, n)
    noise = rng.integers(0, 100, n)  # hundredths
    sem = rng.integers(1, 3, n)
    flip = rng.random(n) < LABEL_FLIP_SHARE
    shift = rng.integers(1, 10, n)
    rows = []
    for i in range(n):
        sac = (int(avg[i]) / 100.0) * int(taken[i]) / (100.0 * WEEKS)
        label = min(int(math.floor(sac * 10)) + 1, 10)
        if flip[i]:
            label = (label - 1 + int(shift[i])) % 10 + 1
        rows.append(
            (
                f"{int(avg[i]) / 100:.2f}",
                str(int(taken[i])),
                f"{int(noise[i]) / 100:.2f}",
                str(int(sem[i])),
                str(label),
            )
        )
    return rows


def write_dataset(path: Path, rows) -> None:
    _write_lines(path, ",".join(TREE_COLUMNS + (TREE_LABEL,)), (",".join(r) for r in rows))
    path.with_suffix(".schema.json").write_text(
        json.dumps(TREE_SCHEMA, indent=2) + "\n", encoding="utf-8"
    )


def write_tree_induction(seed: int, out: Path) -> None:
    write_dataset(out / "dataset.csv", tree_rows(TREE_ROWS, seed, 3))


# --- model_apply -------------------------------------------------------------------


def panel_lines(seed: int) -> tuple[str, list[str]]:
    """Modules-by-years SAC panel: a per-module level plus yearly noise."""
    rng = _rng(seed, 6)
    level = rng.uniform(0.2, 0.8, PANEL_MODULES)
    cells = np.clip(level[:, None] + rng.normal(0.0, 0.08, (PANEL_MODULES, PANEL_YEARS)), 0.0, 1.0)
    header = "module_code," + ",".join(f"{2000 + y}/{(y + 1) % 100:02d}" for y in range(PANEL_YEARS))
    lines = [
        f"P{m + 1:05d}," + ",".join(f"{v:.3f}" for v in cells[m]) for m in range(PANEL_MODULES)
    ]
    return header, lines


def module_input_lines(seed: int) -> list[str]:
    """Pre-aggregated module inputs; about 1 in 12 rows never took attendance."""
    rng = _rng(seed, 7)
    sem = rng.integers(1, 3, MODULE_INPUT_ROWS)
    taken = rng.integers(0, WEEKS + 1, MODULE_INPUT_ROWS)
    avg = rng.integers(0, 1001, MODULE_INPUT_ROWS)  # tenths of a percent
    return [
        f"M{i + 1:06d},{int(sem[i])},{WEEKS},{int(taken[i])},"
        + ("" if taken[i] == 0 else f"{int(avg[i]) / 10:.1f}")
        for i in range(MODULE_INPUT_ROWS)
    ]


def write_model_apply(seed: int, out: Path) -> None:
    write_dataset(out / "train.csv", tree_rows(APPLY_TRAIN_ROWS, seed, 4))
    labelled = tree_rows(APPLY_ROWS, seed, 5)
    write_dataset(out / "labelled.csv", labelled)
    _write_lines(out / "instances.csv", ",".join(TREE_COLUMNS), (",".join(r[:4]) for r in labelled))
    del labelled
    header, lines = panel_lines(seed)
    _write_lines(out / "panel.csv", header, lines)
    _write_lines(
        out / "module_inputs.csv",
        "module_code,semester,weeks_total,attendance_taken,attend_avg",
        module_input_lines(seed),
    )


WRITERS = {
    "events_ingest": write_events_ingest,
    "tree_induction": write_tree_induction,
    "model_apply": write_model_apply,
}


def main(argv) -> int:
    workload, seed, out = argv
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    WRITERS[workload](int(seed), out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
