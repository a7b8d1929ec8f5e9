"""tools/ab.py runs a workload's steps from two trees and compares their outputs."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_pair_of_a_tree_against_itself(tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), str(ROOT),
         "--workload", "tree_induction", "--seed", "1", "--pairs", "1", "--work", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[3:-1]] == [
        f"{step} {metric}" for step in ("job", "train", "evaluate") for metric in ("wall_s", "cpu_s", "rss_mib")
    ]
    assert all(("lower in " if "rss_mib" in line else "faster in ") in line and line.endswith("/1")
               for line in lines[3:-1])
    # A job's peak RSS is its largest step's; the header gives the least a child can read.
    floor = float(lines[1].split(", ")[-1].split()[0])
    rss = {line.split()[0]: line.split(";")[0].split(": ")[1].split(" -> ") for line in lines[3:-1] if "rss_mib" in line}
    for side in (0, 1):
        assert float(rss["job"][side]) == max(float(rss["train"][side]), float(rss["evaluate"][side]))
    assert floor > 0
    assert lines[-1] == "outputs: identical"
    assert (tmp_path / "base" / "model.json").read_bytes() == (tmp_path / "change" / "model.json").read_bytes()


def test_the_spawner_reads_each_child_below_this_process_peak():
    """A child's ``ru_maxrss`` starts at the peak of the process that forks it.
    tools/ab.py's run_child, through its small helper, reads a child that does
    nothing below the peak of a parent that has grown by 64 MiB, and a child
    that allocates 50 MiB within 5 MiB of 50 MiB plus that floor."""
    script = f"""
import json, os, resource, sys
sys.path.insert(0, {str(ROOT / "tools")!r})
import ab
ballast = b"x" * (64 << 20)
def rss(code):
    return ab.run_child([sys.executable, "-c", code], ".", dict(os.environ), os.devnull, os.devnull)[2]
print(json.dumps([rss("pass"), rss("b = b'x' * (50 << 20)"), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]))
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    floor, allocating, own = json.loads(done.stdout)
    assert floor < own - 32
    assert abs(allocating - (50 + floor)) < 5
