"""scripts/op_digests.py: its refusal of a used --work, and one round's printout."""

import pathlib
import re
import subprocess
import sys

_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _op_digests(work):
    # half a second of the verify workload is one round: one op, no set-up
    return subprocess.run([sys.executable, str(_ROOT / "scripts" / "op_digests.py"),
                           "--workload", "verify", "--seconds", "0.5", "--work", str(work)],
                          capture_output=True, text=True)


def test_non_empty_work_exits_2_and_writes_nothing(tmp_path):
    (tmp_path / "left.txt").write_text("")
    done = _op_digests(tmp_path)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == f"error: --work {tmp_path} is not empty\n"
    assert [p.name for p in tmp_path.iterdir()] == ["left.txt"]


def test_empty_work_prints_one_digest_and_the_total(tmp_path):
    done = _op_digests(tmp_path / "work")
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(r"0 verify [0-9a-f]{64}\ntotal [0-9a-f]{64}\n", done.stdout)
