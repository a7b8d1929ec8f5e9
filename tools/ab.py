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
starts at the peak of the process that spawns it, so every child is spawned
by a small process forked before this one imports perfbench or reads any
input, and each step reads its own peak. The header states this process's
own peak and the spawner's floor, the peak of a child that does nothing.
The last lines say whether both trees wrote byte-identical outputs (each
step's ``--out`` file and stdout), for the set-up steps, if the workload has
any, and then for the timed steps. perfbench is only read: its workload
table, child runner and file hashes are imported.
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
import time
import traceback
from pathlib import Path


class Spawner:
    """A process, forked while this one is small, that runs children one at a
    time and reports each one's wall time, CPU time, peak RSS and exit code."""

    def __init__(self) -> None:
        requests, self._requests = os.pipe()
        self._replies, replies = os.pipe()
        if os.fork() == 0:
            os.close(self._requests)
            os.close(self._replies)
            _serve(requests, replies)
        os.close(requests)
        os.close(replies)
        self._send = os.fdopen(self._requests, "w", encoding="utf-8")
        self._receive = os.fdopen(self._replies, encoding="utf-8")

    def run(self, argv, cwd, env, stdout, stderr) -> tuple[float, float, float, int]:
        """Run ``argv`` in ``cwd`` with ``env``, its output to the files
        ``stdout`` and ``stderr``: its wall and CPU seconds, peak RSS in MiB
        and exit code."""
        self._send.write(json.dumps([list(map(str, argv)), str(cwd), env, str(stdout), str(stderr)]) + "\n")
        self._send.flush()
        reply = self._receive.readline()
        if not reply:
            raise SystemExit(f"the spawner stopped before it ran {argv}")
        return tuple(json.loads(reply))


def _serve(requests: int, replies: int) -> None:
    """The spawner's loop: one child per request line, until the requests end."""
    try:
        with open(requests, encoding="utf-8") as inbox, open(replies, "w", encoding="utf-8") as outbox:
            for line in inbox:
                argv, cwd, env, stdout, stderr = json.loads(line)
                with open(stdout, "wb") as out, open(stderr, "wb") as err:
                    t0 = time.perf_counter()
                    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
                    _, status, usage = os.wait4(proc.pid, 0)
                    wall = time.perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
                reply = [wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode]
                outbox.write(json.dumps(reply) + "\n")
                outbox.flush()
    except BaseException:
        traceback.print_exc()
    finally:
        os._exit(0)


# Run as a script, the spawner is forked here, while this process is small.
SPAWNER = Spawner() if __name__ == "__main__" else None

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # import perfbench without writing into it
sys.path.insert(0, str(ROOT / "perfbench"))
from run import WORKLOADS, Child, Runner, hash_files, step_outputs  # noqa: E402


class SpawnedRunner(Runner):
    """perfbench's Runner, whose children ``spawner`` runs."""

    def __init__(self, spawner: Spawner, root: Path, work: Path):
        super().__init__(root, work)
        self.spawner = spawner

    def _spawn(self, name: str, argv: list[str]) -> Child:
        out, err = self.work / f"{name}.stdout", self.work / f"{name}.stderr"
        return Child(name, *self.spawner.run(argv, self.work, self.env, out, err))


def _ok(runner: Runner, child) -> tuple[float, float, float]:
    """The wall time, CPU time and peak RSS of a child that exited 0; otherwise
    stop with its stderr."""
    if child.code != 0:
        tail = runner.stderr_tail(child.command)
        raise SystemExit(f"{runner.work}: {child.command} exited {child.code}: {tail}")
    return child.wall_s, child.cpu_s, child.rss_mib


def _floor_mib(spawner: Spawner) -> float:
    """The peak RSS of a Python child that does nothing, run by ``spawner``, in MiB."""
    return spawner.run([sys.executable, "-c", "pass"], ROOT, dict(os.environ), os.devnull, os.devnull)[2]


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
        return compare(wl, args.seed, args.pairs, trees, work, SPAWNER or Spawner())
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)


def compare(wl, seed: int, pairs: int, trees: dict[str, Path], work: Path, spawner: Spawner) -> int:
    inputs = SpawnedRunner(spawner, ROOT, work / "inputs")
    inputs.work.mkdir(parents=True, exist_ok=True)
    _ok(inputs, inputs.generate(wl.name, seed))
    # The set-up steps run with each tree in its own copy of the generated
    # inputs; only BASE's outputs feed the timed steps.
    setups = {
        "base": SpawnedRunner(spawner, trees["base"], inputs.work),
        "change": SpawnedRunner(spawner, trees["change"], work / "setup-change"),
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
        runners[side] = SpawnedRunner(spawner, tree, work / side)

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
    print(f"# each child's rss_mib is its own peak, read by a spawner forked before this process peaked at "
          f"{_own_mib():.3f} MiB; it is at least that of a child that does nothing, {_floor_mib(spawner):.3f} MiB")
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
