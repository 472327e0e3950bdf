"""Worst relative difference per (file kind, CSV column) between two output trees.

    python3 scripts/compare_outputs.py A B

A and B are directories written by the same commands, such as two
`scripts/op_digests.py --work` directories or two
`scripts/pinwheel_pipeline.py --out` trees, from two checkouts or two
thread counts. A file's kind is its path relative to its tree with every
run of digits replaced by '#' (`ops/#/geo_pair#_finsler.csv`).

CSV files are compared cell by cell, each cell under the column named by the
file's first row ("column <j>" when that row is all numbers, as in a data
file). Two numbers differ by |a - b| / max(|a|, |b|), which is 0 when they
are equal (NaN against NaN included) and inf when only one is finite; any
other pair of cells must be equal. JSON files (models and sidecars) are
compared the same way leaf by leaf, a leaf's column being its key path with
list indices dropped (`kernel.lengthscale`, `outputs[][]`). Other files
must be equal byte for byte.

Prints one line per (file kind, column) that holds numbers: the worst
relative difference, the kind, the column and the number of files. Exits 1
when the trees hold different files, when two files differ in rows, keys
or a non-numeric cell, or when a worst difference is not 0; 2 when A or B
is not a directory; 0 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import re
import sys


def _files(root: str) -> set:
    return {
        os.path.relpath(os.path.join(folder, name), root)
        for folder, _, names in os.walk(root)
        for name in names
    }


def _csv_cells(path: str) -> list:
    # one (column, cell) pair per cell; a row wider or narrower than the
    # first also yields a non-numeric "row width" cell, which must match
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0] if rows else []
    if all(_number(cell) is not None for cell in header):
        header = [f"column {j + 1}" for j in range(len(header))]
    else:
        rows = rows[1:]
    cells = []
    for row in rows:
        if len(row) != len(header):
            cells.append(("row width", f"{len(row)} cells"))
        cells += zip(header, row)
    return cells


def _json_leaves(node, key: str = "") -> list:
    if isinstance(node, dict):
        return [leaf for k, v in node.items() for leaf in _json_leaves(v, f"{key}.{k}" if key else k)]
    if isinstance(node, list):
        return [leaf for v in node for leaf in _json_leaves(v, key + "[]")]
    return [(key, node)]


def _number(value):
    if isinstance(value, bool) or value is None:
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _relative(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    d = abs(a - b) / max(abs(a), abs(b))
    return math.inf if math.isnan(d) else d


def compare(root_a: str, root_b: str) -> tuple[dict, list]:
    """({(kind, column): [worst relative difference, files]}, [problems])."""
    files_a, files_b = _files(root_a), _files(root_b)
    problems = [f"only in {root_a}: {p}" for p in sorted(files_a - files_b)]
    problems += [f"only in {root_b}: {p}" for p in sorted(files_b - files_a)]
    worst = {}
    for rel in sorted(files_a & files_b):
        a, b = os.path.join(root_a, rel), os.path.join(root_b, rel)
        if rel.endswith(".csv"):
            cells_a, cells_b = _csv_cells(a), _csv_cells(b)
        elif rel.endswith(".json"):
            with open(a) as fa, open(b) as fb:
                cells_a, cells_b = _json_leaves(json.load(fa)), _json_leaves(json.load(fb))
        else:
            with open(a, "rb") as fa, open(b, "rb") as fb:
                if fa.read() != fb.read():
                    problems.append(f"{rel}: bytes differ")
            continue
        if len(cells_a) != len(cells_b):
            problems.append(f"{rel}: {len(cells_a)} cells against {len(cells_b)}")
            continue
        kind = re.sub(r"\d+", "#", rel)
        seen = set()
        for (col, x), (col_b, y) in zip(cells_a, cells_b):
            nx, ny = _number(x), _number(y)
            if col != col_b or ((nx is None or ny is None) and x != y):
                problems.append(f"{rel}: column {col!r} holds {x!r}, column {col_b!r} holds {y!r}")
                break
            if nx is None or ny is None:
                continue
            entry = worst.setdefault((kind, col), [0.0, 0])
            entry[0] = max(entry[0], _relative(nx, ny))
            if col not in seen:
                seen.add(col)
                entry[1] += 1
    return worst, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a")
    ap.add_argument("b")
    args = ap.parse_args(argv)
    for root in (args.a, args.b):
        if not os.path.isdir(root):
            print(f"error: {root} is not a directory", file=sys.stderr)
            return 2
    worst, problems = compare(args.a, args.b)
    for (kind, col), (diff, n) in sorted(worst.items(), key=lambda item: item[0][0]):
        print(f"{diff:.3g}\t{kind}\t{col}\t{n} file(s)")
    for problem in problems:
        print(f"differ: {problem}", file=sys.stderr)
    moved = [key for key, (diff, _) in worst.items() if diff != 0.0]
    if moved:
        print(f"{len(moved)} column(s) differ", file=sys.stderr)
    return 1 if problems or moved else 0


if __name__ == "__main__":
    sys.exit(main())
