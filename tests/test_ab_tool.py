"""tools/ab.py runs a workload's steps from two trees and compares their outputs."""

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
    assert [line.split(":")[0] for line in lines[2:-1]] == [
        "job wall_s", "job cpu_s", "train wall_s", "train cpu_s", "evaluate wall_s", "evaluate cpu_s"
    ]
    assert all("faster in " in line and line.endswith("/1") for line in lines[2:-1])
    assert lines[-1] == "outputs: identical"
    assert (tmp_path / "base" / "model.json").read_bytes() == (tmp_path / "change" / "model.json").read_bytes()
