"""A/B timing of two sacmine source trees on one perfbench workload.

    python3 tools/ab.py BASE CHANGE --workload tree_induction --seed 11 --pairs 10

BASE and CHANGE are checkouts, each with ``src/sacmine``. The workload's
inputs are generated once, by running this repository's
``perfbench/inputs.py``; a workload with set-up steps (``model_apply``
trains its model) runs them once with each tree, and both sides' timed steps
use BASE's set-up outputs. Then each pair runs the workload's CLI steps from
both trees, one after the other, alternating which goes first. Each side
works in its own copy of the inputs.

Printed per step and for the whole job: each side's median wall time, CPU
time and peak RSS (a job's peak is its largest step's), the median [Q1, Q3]
of the CHANGE/BASE ratio over the pairs, and in how many pairs CHANGE was
faster, or for RSS lower. On Linux a child's peak RSS (``ru_maxrss``)
starts at the peak of the process that forks it, so each child is run
through a fresh ``python -I -S`` helper that has read no input: it forks,
execs the child and waits for it, and each step reads its own peak. The
header states this process's own peak and the floor, the peak of a child
that does nothing. The last lines say whether both trees wrote
byte-identical outputs (each step's ``--out`` file and stdout), for the
set-up steps, if the workload has any, and then for the timed steps.
perfbench is only read: its workload table, child runner and file hashes
are imported.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # import perfbench without writing into it
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS, Child, Runner, hash_files, step_outputs  # noqa: E402

# The helper that run_child starts for each child. It forks, points the
# child's stdout and stderr at the two files, execs it in its directory, waits
# for it and prints one JSON line: wall and CPU seconds, peak RSS in MiB and
# the exit code. A child that cannot be started exits 1 with its traceback in
# its stderr file.
_HELPER = """
import json, os, sys, time
argv, cwd, env, stdout, stderr = json.loads(sys.argv[1])
t0 = time.perf_counter()
pid = os.fork()
if pid == 0:
    for fd, path in ((1, stdout), (2, stderr)):
        os.dup2(os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666), fd)
    os.chdir(cwd)
    os.execvpe(argv[0], argv, env)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
print(json.dumps([wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status)]))
"""


def run_child(argv, cwd, env, stdout, stderr) -> tuple[float, float, float, int]:
    """Run ``argv`` in ``cwd`` with ``env``, its output to the files ``stdout``
    and ``stderr``, through a fresh helper: its wall and CPU seconds, peak RSS
    in MiB and exit code. The helper has read no input, so the peak is the child's own."""
    request = json.dumps([list(map(str, argv)), str(cwd), env, str(stdout), str(stderr)])
    done = subprocess.run([sys.executable, "-I", "-S", "-c", _HELPER, request], stdout=subprocess.PIPE, check=True)
    return tuple(json.loads(done.stdout))


class SpawnedRunner(Runner):
    """perfbench's Runner, whose children :func:`run_child` runs."""

    def _spawn(self, name: str, argv: list[str]) -> Child:
        out, err = self.work / f"{name}.stdout", self.work / f"{name}.stderr"
        return Child(name, *run_child(argv, self.work, self.env, out, err))


def _ok(runner: Runner, child) -> tuple[float, float, float]:
    """The wall time, CPU time and peak RSS of a child that exited 0; otherwise
    stop with its stderr."""
    if child.code != 0:
        tail = runner.stderr_tail(child.command)
        raise SystemExit(f"{runner.work}: {child.command} exited {child.code}: {tail}")
    return child.wall_s, child.cpu_s, child.rss_mib


def _floor_mib() -> float:
    """The peak RSS of a Python child that does nothing, run by :func:`run_child`, in MiB."""
    return run_child([sys.executable, "-c", "pass"], ROOT, dict(os.environ), os.devnull, os.devnull)[2]


def _own_mib() -> float:
    """This process's own peak RSS, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _spread(values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return f"{statistics.median(values):.3f} [{q1:.3f}, {q3:.3f}]"


def _differ(names, base: Path, change: Path) -> list[str]:
    """The files of ``names`` whose bytes differ between two directories."""
    base_hashes, change_hashes = hash_files(base, names), hash_files(change, names)
    return [name for name in names if base_hashes[name] != change_hashes[name]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="source tree A")
    parser.add_argument("change", type=Path, help="source tree B")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--work", type=Path, help="scratch directory (default: a new temporary one)")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "sacmine" / "__init__.py").is_file():
            parser.error(f"no sacmine source at {tree / 'src' / 'sacmine'}")
    work = args.work or Path(tempfile.mkdtemp(prefix="sacmine-ab-"))
    try:
        return compare(wl, args.seed, args.pairs, trees, work)
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)


def compare(wl, seed: int, pairs: int, trees: dict[str, Path], work: Path) -> int:
    inputs = SpawnedRunner(ROOT, work / "inputs")
    inputs.work.mkdir(parents=True, exist_ok=True)
    _ok(inputs, inputs.generate(wl.name, seed))
    # The set-up steps run with each tree in its own copy of the generated
    # inputs; only BASE's outputs feed the timed steps.
    setups = {
        "base": SpawnedRunner(trees["base"], inputs.work),
        "change": SpawnedRunner(trees["change"], work / "setup-change"),
    }
    if wl.setup_steps:
        shutil.copytree(inputs.work, setups["change"].work, dirs_exist_ok=True)
    setup_outputs = []
    for command, step_args in wl.setup_steps:
        for setup in setups.values():
            _ok(setup, setup.sacmine(f"setup-{command}", [command, *step_args]))
        setup_outputs += [step_args[i + 1] for i, a in enumerate(step_args) if a == "--out"]
        setup_outputs.append(f"setup-{command}.stdout")
    runners = {}
    for side, tree in trees.items():
        (work / side).mkdir(exist_ok=True)
        for name in wl.inputs:
            shutil.copy(inputs.work / name, work / side / name)
        runners[side] = SpawnedRunner(tree, work / side)

    steps = [command for command, _ in wl.steps]
    times = {side: {key: [] for key in ["job", *steps]} for side in trees}
    for pair in range(pairs):
        for side in (("base", "change") if pair % 2 == 0 else ("change", "base")):
            job = [0.0, 0.0, 0.0]
            for command, step_args in wl.steps:
                runner = runners[side]
                wall, cpu, rss = _ok(runner, runner.sacmine(command, [command, *step_args]))
                times[side][command].append((wall, cpu, rss))
                job = [job[0] + wall, job[1] + cpu, max(job[2], rss)]
            times[side]["job"].append(tuple(job))

    print(f"# {wl.name} seed {seed}, {pairs} pairs; base {trees['base']}, change {trees['change']}")
    print(f"# each child's rss_mib is its own peak, read through a small helper while this process peaked at "
          f"{_own_mib():.3f} MiB; it is at least that of a child that does nothing, {_floor_mib():.3f} MiB")
    print("# row: base median, change median, change/base ratio median [Q1, Q3], pairs change faster or lower")
    for key in ["job", *steps]:
        for i, (metric, better) in enumerate((("wall_s", "faster"), ("cpu_s", "faster"), ("rss_mib", "lower"))):
            base = [t[i] for t in times["base"][key]]
            change = [t[i] for t in times["change"][key]]
            ratios = [c / b for b, c in zip(base, change)]
            wins = sum(c < b for b, c in zip(base, change))
            print(f"{key} {metric}: {statistics.median(base):.3f} -> {statistics.median(change):.3f}; "
                  f"ratio {_spread(ratios)}; {better} in {wins}/{len(ratios)}")
    setup_differ = _differ(setup_outputs, setups["base"].work, setups["change"].work)
    if setup_outputs:
        print("setup outputs: " + (f"differ in {', '.join(setup_differ)}" if setup_differ else "identical"))
    outputs = [name for command in steps for name in step_outputs(wl, command)]
    differ = _differ(outputs, work / "base", work / "change")
    print("outputs: identical" if not differ else f"outputs: differ in {', '.join(differ)}")
    return 1 if differ or setup_differ else 0


if __name__ == "__main__":
    sys.exit(main())
