"""scripts/compare_outputs.py on small hand-written output trees."""

import importlib.util
import json
import math
import pathlib

import pytest

_SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", _SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def _write_tree(root, curve="0.5,2.0,a\n1.0,-4.0,b\n", data="1.0,2.0\n3.0,4.0\n",
                model=None, notes="ok\n"):
    (root / "ops" / "1").mkdir(parents=True)
    (root / "ops" / "1" / "geo_pair1_finsler.csv").write_text("t,x,label\n" + curve)
    (root / "data.csv").write_text(data)
    model = model if model is not None else {"kernel": {"lengthscale": 0.8}, "outputs": [[1.0, 2.0]]}
    (root / "model.json").write_text(json.dumps(model))
    (root / "notes.txt").write_text(notes)
    return root


def _run(capsys, a, b):
    code = compare_outputs.main([str(a), str(b)])
    out, err = capsys.readouterr()
    rows = {}
    for line in out.splitlines():
        diff, kind, col, _ = line.split("\t")
        rows[(kind, col)] = float(diff)
    return code, rows, err


def test_identical_trees_read_zero_and_exit_0(tmp_path, capsys):
    a, b = _write_tree(tmp_path / "a"), _write_tree(tmp_path / "b")
    code, rows, err = _run(capsys, a, b)
    assert code == 0 and err == ""
    assert rows == {
        ("data.csv", "column 1"): 0.0,
        ("data.csv", "column 2"): 0.0,
        ("model.json", "kernel.lengthscale"): 0.0,
        ("model.json", "outputs[][]"): 0.0,
        ("ops/#/geo_pair#_finsler.csv", "t"): 0.0,
        ("ops/#/geo_pair#_finsler.csv", "x"): 0.0,
    }


def test_numeric_cells_report_the_worst_relative_difference(tmp_path, capsys):
    a = _write_tree(tmp_path / "a", data="1.0,nan\n3.0,4.0\n")
    b = _write_tree(tmp_path / "b", curve="0.5,2.5,a\n1.0,-4.0,b\n", data="1.0,nan\n3.0,inf\n",
                    model={"kernel": {"lengthscale": 0.8}, "outputs": [[1.0, 2.0 + 2e-9]]})
    code, rows, err = _run(capsys, a, b)
    assert code == 1 and "3 column(s) differ" in err
    assert rows[("ops/#/geo_pair#_finsler.csv", "x")] == pytest.approx(0.2)
    assert rows[("ops/#/geo_pair#_finsler.csv", "t")] == 0.0
    assert rows[("data.csv", "column 1")] == 0.0
    assert rows[("data.csv", "column 2")] == math.inf  # NaN = NaN, 4 against inf
    assert rows[("model.json", "outputs[][]")] == pytest.approx(1e-9)
    assert rows[("model.json", "kernel.lengthscale")] == 0.0


def test_string_cells_rows_and_files_must_match(tmp_path, capsys):
    a = _write_tree(tmp_path / "a")
    for name, kw in [
        ("label", {"curve": "0.5,2.0,a\n1.0,-4.0,c\n"}),
        ("rows", {"curve": "0.5,2.0,a\n"}),
        ("width", {"data": "1.0,2.0\n3.0\n"}),
        ("bytes", {"notes": "changed\n"}),
    ]:
        b = _write_tree(tmp_path / name, **kw)
        code, rows, err = _run(capsys, a, b)
        assert code == 1 and err.startswith("differ: "), name
        assert all(diff == 0.0 for diff in rows.values()), name
    (tmp_path / "label" / "notes.txt").unlink()
    code, _, err = _run(capsys, a, tmp_path / "label")
    assert code == 1 and f"only in {a}: notes.txt" in err


def test_a_missing_tree_exits_2(tmp_path, capsys):
    a = _write_tree(tmp_path / "a")
    assert compare_outputs.main([str(a), str(tmp_path / "none")]) == 2
    assert "is not a directory" in capsys.readouterr().err
