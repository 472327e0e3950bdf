"""scripts/ci.py: the workflow runs each of its steps once, its comparisons, its usage errors."""

import importlib.util
import itertools
import pathlib
import re
import subprocess
import sys

import pytest

_ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ci", _ROOT / "scripts" / "ci.py")
ci = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ci)


def test_workflow_runs_every_step_once_in_order():
    # read without a YAML parser and without its comments: each item of the
    # job's step list starts "      - "
    lines = (_ROOT / ".github" / "workflows" / "tier1.yml").read_text().splitlines()
    text = "\n".join(line for line in lines if not line.lstrip().startswith("#"))
    items = text.split("\n      - ")[1:]
    steps = [re.findall(r"python3 scripts/ci\.py (\S+)", item) for item in items]
    assert all(len(named) <= 1 for named in steps)
    runs = [named[0] for named in steps if named]
    assert runs == list(ci.STEPS)
    assert all(callable(getattr(ci.Steps, step.replace("-", "_"))) for step in ci.STEPS)
    lenient = {named[0] for item, named in zip(items, steps) if "continue-on-error: true" in item}
    assert lenient == set(ci.PRINT_ONLY) == {"compare-base"}
    assert text.count("continue-on-error") == 1
    compare = next(item for item in items if "ci.py compare-base" in item)
    assert "if: github.event_name == 'pull_request'" in compare
    assert "--base ${{ github.event.pull_request.base.sha }}" in compare
    assert not re.search(r"python3? -c|awk|paste", text)



def _scripts_named_in(path):
    return set(re.findall(r"scripts/(\w+\.py)", (_ROOT / path).read_text()))


def test_every_named_script_exists_and_readme_names_every_script():
    scripts = {p.name for p in (_ROOT / "scripts").glob("*.py")}
    for path in ("README.md", "scripts/ci.py", ".github/workflows/tier1.yml"):
        assert _scripts_named_in(path) <= scripts, path
    assert scripts <= _scripts_named_in("README.md")


_HEAD = "0 fit_rbf 1a\n1 geodesic 2b\n2 volume 3c\ntotal 9f\n"


@pytest.mark.parametrize(
    "base, n, changes",
    [
        (_HEAD, 3, {}),
        (_HEAD.replace("2b", "2x"), 3, {1: "geodesic 2x in the base, geodesic 2b"}),
        ("0 fit_rbf 1a\n1 geodesic 2b\ntotal 77\n", 3, {2: "volume only in the head printout"}),
        (_HEAD.replace("total", "3 fit_rbf 4d\ntotal"), 4, {3: "fit_rbf only in the base printout"}),
        (_HEAD.replace("1 geodesic", "1 indicatrix"), 3, {1: "indicatrix 2b in the base, geodesic 2b"}),
    ],
    ids=["identical", "one_digest", "base_one_op_shorter", "base_one_op_longer", "kind_mismatch"],
)
def test_compare_digests_by_op_index(base, n, changes):
    assert ci.compare_digests(base, _HEAD, names=("base", "head")) == (n, changes)


def test_twice_compares_trees_written_from_one_path(tmp_path):
    def same(path):
        pathlib.Path(path, "sub").mkdir(parents=True)
        pathlib.Path(path, "sub", "where.txt").write_text(path)

    assert ci._twice(str(tmp_path / "a"), same, ci._diff_trees) == str(tmp_path / "a" / "first")
    count = itertools.count()

    def counting(path):
        same(path)
        pathlib.Path(path, f"run{next(count)}.txt").write_text("")

    with pytest.raises(ci.Failed, match="only in .*first: run0.txt") as exc:
        ci._twice(str(tmp_path / "b"), counting, ci._diff_trees)
    assert f"only in {tmp_path}/b/second: run1.txt" in str(exc.value)


@pytest.mark.parametrize("argv", [["no-such-step"], ["compare-base"]], ids=["unknown", "no_base"])
def test_usage_errors_exit_2(argv):
    done = subprocess.run([sys.executable, str(_ROOT / "scripts" / "ci.py"), *argv],
                          capture_output=True, text=True)
    assert done.returncode == 2 and "usage:" in done.stderr
