"""Synthetic sphere datasets and tabular I/O.

Generators build 2-D point clouds and push them onto the unit sphere with
the inverse stereographic projection (x, y) -> (2x, 2y, x^2+y^2-1)/(x^2+y^2+1),
so every output row has unit norm. CSV writing is RFC-4180 with 17
significant digits, making export -> load lossless and reruns byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
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


def write_dataset(path: str, ds: Dataset) -> None:
    """Dataset CSV (points, then a final label column if present) + sidecar."""
    if ds.labels is None:
        rows = ds.points
    else:
        rows = [list(p) + [int(label)] for p, label in zip(ds.points, ds.labels)]
    write_csv(path, rows)
    write_sidecar(path, {"name": ds.name, "provenance": ds.provenance})


def load_csv(path: str, has_labels: bool = False) -> Dataset:
    """Read a rectangular numeric CSV, optionally with a final label column.

    Ragged rows and non-numeric cells raise ParseError naming the offending
    row and column (1-based, header-aware). The dataset's provenance is the
    SHA-256 of the file bytes.
    """
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for i, row in enumerate(reader, start=1):
            if not row:
                continue
            if i == 1 and any(not _is_number(c) for c in row):
                continue  # header line
            rows.append((i, row))
    if len(rows) < 2:
        raise ParseError(f"{path}: need at least two data rows")
    width = len(rows[0][1])
    if width < (2 if has_labels else 1):
        raise ParseError(f"{path}: too few columns for the requested layout")
    matrix = np.empty((len(rows), width))
    for r, (lineno, row) in enumerate(rows):
        if len(row) != width:
            raise ParseError(
                f"{path}: row {lineno} has {len(row)} columns, expected {width}"
            )
        for c, cell in enumerate(row):
            try:
                matrix[r, c] = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: row {lineno}, column {c + 1}: not a number: {cell!r}"
                ) from None
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


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False
