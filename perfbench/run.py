"""sacmine benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload events_ingest --seed 1 --seconds 20 --trace 0

Run from the repository root. Inputs are generated from the seed, the
workload's CLI sequence runs as ``python -m sacmine`` children with
PYTHONPATH=src, one at a time, and every output is checked against a
reference that does not use sacmine. ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` prints the per-layer metrics of a traced in-process
run. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Everything else
(environment, hashes, samples, spans) goes to .bench_out/results/.
See perfbench/README.md for every metric and workload.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# A shared machine may change speed by a quarter within seconds, so
# every median gathers samples from the whole run: rounds of set-up and job
# repeat, with a timed --version call after each.
SETUP_REPS = 3  # at least; one set-up before every job
STARTUP_REPS = 5  # --version calls in the traced run
SUBCOMMANDS = ("score", "ingest", "train", "evaluate", "predict", "rules", "reliability")
MIN_LEAF = "2"


@dataclass(frozen=True)
class Workload:
    name: str
    #: timed job: (subcommand, arguments); each step's stdout is <subcommand>.stdout
    steps: tuple[tuple[str, tuple[str, ...]], ...]
    #: files set-up writes; all are hashed
    inputs: tuple[str, ...]
    #: CLI steps set-up runs after generating inputs
    setup_steps: tuple[tuple[str, tuple[str, ...]], ...] = ()


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# tree_induction splits by information gain: under gain ratio the number of
# tiny near-root splits, and with it the split-search work, varies by about
# 20% between seeds. Gain ratio still runs, and is checked, in model_apply's
# set-up.
EVENTS_INGEST = Workload(
    name="events_ingest",
    steps=(
        ("score", ("--in", "events.csv", "--roster", "roster.csv", "--out", "scored.csv")),
        ("ingest", ("--in", "events.csv", "--out", "cleaned.csv")),
    ),
    inputs=("events.csv", "roster.csv", "noise.json"),
)


TREE_INDUCTION = Workload(
    name="tree_induction",
    steps=(
        ("train", ("--in", "dataset.csv", "--criterion", "gain", "--min-leaf", MIN_LEAF, "--out", "model.json")),
        (
            "evaluate",
            ("--in", "dataset.csv", "--fraction", "0.7", "--criterion", "gain", "--min-leaf", MIN_LEAF,
             "--out", "evaluation.json"),
        ),
    ),
    inputs=("dataset.csv", "dataset.schema.json"),
)


MODEL_APPLY = Workload(
    name="model_apply",
    steps=(
        ("predict", ("--in", "instances.csv", "--model", "model.json", "--out", "predictions.csv")),
        ("evaluate", ("--in", "labelled.csv", "--model", "model.json", "--out", "evaluation.json")),
        ("rules", ("--in", "model.json", "--format", "json", "--out", "rules.json")),
        ("reliability", ("--in", "panel.csv", "--estimator", "paper-mixed", "--out", "alpha.json")),
        ("score", ("--in", "module_inputs.csv", "--out", "module_scores.csv")),
    ),
    inputs=(
        "train.csv", "train.schema.json", "labelled.csv", "labelled.schema.json", "instances.csv",
        "panel.csv", "module_inputs.csv", "model.json",
    ),
    setup_steps=(
        ("train", ("--in", "train.csv", "--criterion", "gain-ratio", "--min-leaf", MIN_LEAF, "--out", "model.json")),
    ),
)

WORKLOADS = {w.name: w for w in (EVENTS_INGEST, TREE_INDUCTION, MODEL_APPLY)}


@dataclass
class Child:
    command: str
    wall_s: float
    cpu_s: float
    rss_mib: float
    code: int


class Runner:
    """Runs sacmine CLI children one at a time in the work directory."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        self.perfbench = root / "perfbench"

    def _spawn(self, name: str, argv: list[str]) -> Child:
        with open(self.work / f"{name}.stdout", "wb") as out, open(self.work / f"{name}.stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=out, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(name, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode)

    def sacmine(self, name: str, args) -> Child:
        return self._spawn(name, [sys.executable, "-m", "sacmine", *args])

    def generate(self, workload: str, seed: int) -> Child:
        return self._spawn("setup-inputs", [sys.executable, str(self.perfbench / "inputs.py"), workload, str(seed), "."])

    def stderr_tail(self, name: str) -> str:
        return (self.work / f"{name}.stderr").read_text(encoding="utf-8", errors="replace")[-300:]


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def hash_files(work: Path, names) -> dict[str, str]:
    return {name: sha256(work / name) if (work / name).exists() else "missing" for name in names}


def environment(root: Path) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # a checkout without git metadata
    src = hashlib.sha256()
    for path in sorted((root / "src" / "sacmine").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def ledger_problems(path: Path, hashes: dict[str, str]) -> list[str]:
    """Compare hashes with the first run of the same seed in this checkout, which wrote them."""
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return []
    earlier = json.loads(path.read_text(encoding="utf-8"))
    return [
        f"{name} sha256 differs from an earlier run of this seed"
        for name in sorted(set(earlier) & set(hashes))
        if earlier[name] != hashes[name]
    ]


class Tally:
    """Operations attempted and failed, with the problems that failed them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)

    def note(self, problems: list[str]) -> None:
        """Problems not tied to one operation; they make the run incorrect."""
        self.problems.extend(problems)


def set_up(wl: Workload, seed: int, runner: Runner, tally: Tally) -> tuple[float, dict[str, str]]:
    """Generate inputs (and train, for model_apply) from scratch.

    Returns the summed wall time of the set-up children and the input hashes.
    """
    for entry in runner.work.iterdir():
        if entry.is_file():
            entry.unlink()
    children = [runner.generate(wl.name, seed)]
    for command, args in wl.setup_steps:
        if children[-1].code != 0:
            break
        children.append(runner.sacmine(f"setup-{command}", [command, *args]))
    for child in children:
        tally.op(f"set-up {child.command}", [] if child.code == 0 else [f"exit {child.code}: {runner.stderr_tail(child.command)}"])
    return sum(c.wall_s for c in children), hash_files(runner.work, wl.inputs)


def check_outputs(wl: Workload, work: Path, tally: Tally) -> dict[str, list[str]]:
    """Problems per job step; problems of set-up, or a check that crashed, go to the tally."""
    # imported only now: numpy and the references would otherwise grow this
    # process, and a child's ru_maxrss starts at its parent's peak
    import checks

    try:
        checked = checks.CHECKS[wl.name](work)
    except Exception:  # a broken artifact must fail the run, not end it
        checked = {"check": [traceback.format_exc(limit=-3)]}
    steps = {command for command, _ in wl.steps}
    tally.note([f"{key}: {p}" for key, problems in checked.items() if key not in steps for p in problems])
    return checked


def run_job(wl: Workload, runner: Runner) -> tuple[float, list[Child]]:
    """Run the job's CLI steps in order; returns their summed wall time and the children."""
    children = [runner.sacmine(command, [command, *args]) for command, args in wl.steps]
    return sum(c.wall_s for c in children), children


def job_ops(wl: Workload, runner: Runner, jobs, first: dict, checked: dict, tally: Tally) -> None:
    """Count each job step as one operation: exit code, artifact identity and output checks."""
    for children, hashes in jobs:
        for child in children:
            problems = [] if child.code == 0 else [f"exit {child.code}: {runner.stderr_tail(child.command)}"]
            outputs = step_outputs(wl, child.command)
            problems += [f"{n} was not written" for n in outputs if hashes[n] == "missing"]
            problems += [f"{n} differs between jobs" for n in outputs if hashes[n] != first[n]]
            problems += checked.get(child.command, [])
            tally.op(child.command, problems)


def step_outputs(wl: Workload, command: str) -> tuple[str, ...]:
    """Files one job step writes: its --out file and its stdout."""
    args = dict(wl.steps)[command]
    return tuple(args[i + 1] for i, a in enumerate(args) if a == "--out") + (f"{command}.stdout",)


def artifact_names(wl: Workload) -> tuple[str, ...]:
    return tuple(name for command, _ in wl.steps for name in step_outputs(wl, command))


def percentile_tail(samples: list[float]):
    """Highest of p90/p99/p99.9 (nearest rank) with at least ten samples beyond it, else None."""
    n = len(samples)
    for p in (99.9, 99.0, 90.0):
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, sorted(samples)[rank - 1]
    return None


def untraced(wl: Workload, seed: int, seconds: float, runner: Runner, tally: Tally) -> tuple[dict, dict, dict]:
    startup: list[float] = []

    def time_startup() -> None:
        child = runner.sacmine("version", ["--version"])
        tally.op("--version", [] if child.code == 0 else [f"exit {child.code}"])
        startup.append(child.wall_s)

    setup_times, job_times, jobs, input_hashes = [], [], [], None
    start = time.perf_counter()
    while len(setup_times) < SETUP_REPS or time.perf_counter() - start < seconds:
        elapsed, hashes = set_up(wl, seed, runner, tally)
        setup_times.append(elapsed)
        if input_hashes is not None and hashes != input_hashes:
            tally.note(["set-up wrote different inputs for the same seed"])
        input_hashes = hashes
        time_startup()
        elapsed, children = run_job(wl, runner)
        job_times.append(elapsed)
        jobs.append((children, hash_files(runner.work, artifact_names(wl))))
        time_startup()
    first = jobs[0][1]
    job_ops(wl, runner, jobs, first, check_outputs(wl, runner.work, tally), tally)

    tail = percentile_tail(job_times)
    summary = {
        "job_s_samples": job_times,
        "job_s_tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
        "setup_s_samples": setup_times,
        "startup_s": statistics.median(startup),
        "startup_s_samples": startup,
        "failed_ratio": tally.failed / tally.attempted,
    }
    metrics = {
        "job_s": (statistics.median(job_times), "s"),
        "peak_rss_mib": (max(c.rss_mib for children, _ in jobs for c in children), "MiB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    return metrics, summary, {**input_hashes, **first}


def traced(wl: Workload, seed: int, seconds: float, runner: Runner, tally: Tally, units: dict[str, str]) -> tuple[dict, dict, dict]:
    _, input_hashes = set_up(wl, seed, runner, tally)
    # CLI children first, while this process is still small
    _, children = run_job(wl, runner)
    hashes = hash_files(runner.work, artifact_names(wl))
    job_ops(wl, runner, [(children, hashes)], hashes, check_outputs(wl, runner.work, tally), tally)
    startup = [runner.sacmine("version", ["--version"]) for _ in range(STARTUP_REPS)]
    for child in startup:
        tally.op("--version", [] if child.code == 0 else [f"exit {child.code}"])
    metrics = {"cli.startup_s": (statistics.median(c.wall_s for c in startup), "s")}
    for sub in SUBCOMMANDS:
        child = next((c for c in children if c.command == sub), None)
        metrics[f"cli.{sub}_s"] = (child.wall_s if child else 0.0, "s")
        metrics[f"cli.{sub}_cpu_s"] = (child.cpu_s if child else 0.0, "s")
        metrics[f"cli.{sub}_rss_mib"] = (child.rss_mib if child else 0.0, "MiB")

    import tracing

    layer, spans = tracing.run(wl.name, runner.work, seed, seconds)
    for name, unit in units.items():
        if name not in metrics:
            metrics[name] = (float(layer.get(name, 0.0)), unit)
    summary = {"spans": [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3]} for s in spans]}
    return metrics, summary, {**input_hashes, **hashes}


def per_layer_units(root: Path) -> dict[str, str]:
    """Every per-layer metric BENCHMARK.json declares, with its unit."""
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through Runner._spawn so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = Path.cwd()
    if not (root / "src" / "sacmine" / "__init__.py").is_file():
        print(f"error: no sacmine source at {root / 'src' / 'sacmine'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    out = root / ".bench_out"
    work = out / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment(root)
    wl = WORKLOADS[args.workload]
    runner = Runner(root, work)
    tally = Tally()
    try:
        if args.trace:
            metrics, summary, hashes = traced(wl, args.seed, args.seconds, runner, tally, per_layer_units(root))
        else:
            metrics, summary, hashes = untraced(wl, args.seed, args.seconds, runner, tally)
        tally.note(ledger_problems(out / "ledger" / f"{wl.name}-seed{args.seed}.json", hashes))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    label = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "hashes": hashes, "problems": tally.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **{k: v for k, v in summary.items() if k != "spans"},
    }
    (results / f"{label}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if "spans" in summary:
        (results / f"{label}-spans.json").write_text(json.dumps(summary["spans"]) + "\n", encoding="utf-8")

    print(f"# {label}: git {env['git_sha']} src {env['src_sha256'][:12]} python {env['python']} "
          f"numpy {env['numpy']} nproc {env['nproc']}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    if not args.trace:
        n = len(summary["job_s_samples"])
        tail = summary["job_s_tail"]
        print(f"job_s samples: {n}; tail: "
              + (f"p{tail['percentile']:g} {tail['value']:.6g} s" if tail else "none (needs at least 10 samples beyond p90)"))
        print(f"startup_s: {summary['startup_s']:.6g} s (median of {len(summary['startup_s_samples'])} --version calls)")
        print(f"failed_ratio: {summary['failed_ratio']:.6g} ({tally.failed}/{tally.attempted})")
    for problem in tally.problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
