"""Synthetic sphere datasets and tabular I/O.

Generators build 2-D point clouds and push them onto the unit sphere with
the inverse stereographic projection (x, y) -> (2x, 2y, x^2+y^2-1)/(x^2+y^2+1),
so every output row has unit norm. CSV writing is RFC-4180 with 17
significant digits, making export -> load lossless and reruns byte-identical.
Every input file is read here, beside its writer: numeric CSV (datasets,
endpoint pairs) by `_read_table`, and JSON objects (model files, dataset
sidecars with the `labels` that `write_dataset` records) by `_read_json_object`.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "ParseError",
    "gen_pinwheel_sphere",
    "gen_circles_sphere",
    "load_csv",
    "write_csv",
    "write_sidecar",
    "write_dataset",
    "inverse_stereographic",
]

FLOAT_FORMAT = "%.17g"


class ParseError(ValueError):
    """Malformed tabular input, with the offending location in the message."""


@dataclass(frozen=True, eq=False)
class Dataset:
    """A named point cloud with optional integer labels.

    provenance records how the points came to be: the generator
    configuration for synthetic data, or the source file's content hash
    for ingested data.
    """

    name: str
    points: np.ndarray
    labels: np.ndarray | None
    provenance: dict

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 2:
            raise ValueError("points must be an N x D matrix with N >= 2")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", pts)
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=int)
            if labels.shape != (pts.shape[0],):
                raise ValueError("labels must be one integer per point")
            object.__setattr__(self, "labels", labels)


def inverse_stereographic(xy: np.ndarray) -> np.ndarray:
    """Map the plane onto the unit sphere through the north-pole chart."""
    xy = np.asarray(xy, dtype=float)
    r2 = np.sum(xy**2, axis=1)
    out = np.column_stack([2.0 * xy[:, 0], 2.0 * xy[:, 1], r2 - 1.0])
    return out / (r2 + 1.0)[:, None]


def _pinwheel_plane(n: int, arms: int, noise: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Planar pinwheel coordinates and arm labels, before sphere projection."""
    spacing = 2.0 * np.pi / arms
    arm = np.arange(n) % arms
    radius = np.abs(rng.normal(1.0, 0.5, n)) * spacing
    angle = arm * spacing + 0.3 * radius
    xy = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    return xy + noise * rng.standard_normal((n, 2)), arm


def _check_noise(noise: float) -> None:
    if not 0.0 <= noise < math.inf:
        raise ValueError(f"noise must be finite and >= 0, got {noise}")


def gen_pinwheel_sphere(n: int = 1000, arms: int = 5, noise: float = 0.05, seed: int = 0) -> Dataset:
    """Pinwheel point cloud projected onto the unit sphere.

    Arms are assigned round-robin so class sizes are balanced; each point
    sits at radius |N(1, 0.25)| scaled by the angular arm spacing and is
    rotated by its arm's base angle plus a twist of 0.3 rad per unit radius,
    with Gaussian coordinate noise before projection. Labels are arm indices.
    """
    if not 1 <= arms <= n:
        raise ValueError("need n >= arms >= 1")
    _check_noise(noise)
    xy, arm = _pinwheel_plane(n, arms, noise, np.random.default_rng(seed))
    return Dataset(
        name="pinwheel",
        points=inverse_stereographic(xy),
        labels=arm,
        provenance={"generator": "pinwheel", "n": n, "arms": arms, "noise": noise, "seed": seed},
    )


def gen_circles_sphere(
    n: int = 1000, radii: tuple = (0.6, 1.3), noise: float = 0.03, seed: int = 0
) -> Dataset:
    """Concentric circles projected onto the unit sphere.

    Class sizes are fixed by integer division (any remainder goes to the
    first circles), so the per-label counts are exact functions of n.
    """
    radii = tuple(float(r) for r in radii)
    if len(radii) < 1 or n < len(radii):
        raise ValueError("need at least one radius and n >= len(radii)")
    _check_noise(noise)
    rng = np.random.default_rng(seed)
    base, extra = divmod(n, len(radii))
    sizes = [base + (1 if i < extra else 0) for i in range(len(radii))]
    chunks, labels = [], []
    for i, (r, size) in enumerate(zip(radii, sizes)):
        theta = rng.uniform(0.0, 2.0 * np.pi, size)
        xy = np.column_stack([r * np.cos(theta), r * np.sin(theta)])
        chunks.append(xy + noise * rng.standard_normal((size, 2)))
        labels.append(np.full(size, i))
    return Dataset(
        name="circles",
        points=inverse_stereographic(np.vstack(chunks)),
        labels=np.concatenate(labels),
        provenance={
            "generator": "circles",
            "n": n,
            "radii": list(radii),
            "noise": noise,
            "seed": seed,
        },
    )


# ---------------------------------------------------------------------------
# tabular I/O


def _format_cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return FLOAT_FORMAT % float(x)


def write_csv(path: str, rows, header: list[str] | None = None) -> None:
    """RFC-4180 CSV with 17-significant-digit floats (lossless round trip)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header is not None:
            writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(x) for x in row])


def write_sidecar(path: str, config: dict) -> str:
    """Write the run configuration next to an output file; returns the path."""
    sidecar = f"{path}.config.json"
    with open(sidecar, "w") as fh:
        json.dump(config, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return sidecar


def write_dataset(path: str, ds: Dataset, config: dict | None = None) -> None:
    """Dataset CSV (points, then a final label column if present) + sidecar:
    `config` with the name, provenance and `labels` (whether there is one)."""
    if ds.labels is None:
        rows = ds.points
    else:
        rows = [list(p) + [int(label)] for p, label in zip(ds.points, ds.labels)]
    write_csv(path, rows)
    write_sidecar(path, {**(config or {}), "name": ds.name, "provenance": ds.provenance,
                         "labels": ds.labels is not None})


def _read_table(path: str) -> tuple[str, list[list[float]]]:
    """The SHA-256 of a CSV file's bytes and its rows of numbers, all of one
    width, from one read. Blank rows and a first row holding a non-number (a
    header) are skipped; text that is not UTF-8, a ragged row or any other
    non-number raises ParseError naming the file, row and column."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    rows = []
    for i, cells in enumerate(csv.reader(io.StringIO(text, newline="")), start=1):
        if not cells:
            continue
        values = []
        for c, cell in enumerate(cells, start=1):
            try:
                values.append(float(cell))
            except ValueError:
                if i == 1:
                    break  # header line
                raise ParseError(
                    f"{path}: row {i}, column {c}: not a number: {cell!r}"
                ) from None
        else:
            if rows and len(values) != len(rows[0]):
                raise ParseError(f"{path}: row {i} has {len(values)} columns, "
                                 f"expected {len(rows[0])}")
            rows.append(values)
    return hashlib.sha256(raw).hexdigest(), rows


def load_csv(path: str, has_labels: bool = False) -> Dataset:
    """Read a rectangular numeric CSV, optionally with a final label column.

    Ragged rows and non-numeric cells raise ParseError naming the offending
    row and column (1-based, header-aware). The dataset's provenance is the
    SHA-256 of the file bytes.
    """
    digest, rows = _read_table(path)
    if len(rows) < 2:
        raise ParseError(f"{path}: need at least two data rows")
    if len(rows[0]) < (2 if has_labels else 1):
        raise ParseError(f"{path}: too few columns for the requested layout")
    matrix = np.array(rows)
    labels = None
    if has_labels:
        label_col = matrix[:, -1]
        if np.any(label_col != np.round(label_col)):
            raise ParseError(f"{path}: final column must hold integer labels")
        labels = label_col.astype(int)
        matrix = matrix[:, :-1]
    return Dataset(
        name=path,
        points=matrix,
        labels=labels,
        provenance={"source": path, "sha256": digest},
    )


def _read_json_object(path: str, what: str) -> dict:
    """The one JSON object that a UTF-8 file holds; anything else raises
    ParseError naming the file and calling it `what`."""
    with open(path, "rb") as fh:
        try:
            doc = json.loads(fh.read().decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ParseError(f"{path}: not a JSON {what}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: a {what} holds one JSON object")
    return doc


def _sidecar_labels(path: str) -> bool:
    """The sidecar's `labels` for the dataset at `path` (False if absent);
    anything but a JSON boolean raises ParseError naming the sidecar."""
    sidecar = f"{path}.config.json"
    if not os.path.exists(sidecar):
        return False
    labels = _read_json_object(sidecar, "sidecar").get("labels", False)
    if not isinstance(labels, bool):
        raise ParseError(f"{sidecar}: labels must be true or false, got {labels!r}")
    return labels
