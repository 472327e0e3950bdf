"""The benchmark workloads: their set-up, seeded op lists and output checks.

Each op is one `finslergp` command, given as the argv list that
`finslergp.cli.main` receives. Op lists are built from the workload seed
alone, so one seed always yields the same commands. Every check rests on an
invariant or a closed form rather than on golden bytes:

- geodesic: E >= L^2 for every curve; sphere curves within 1% of the
  great-circle arc.
- volume: v_alpha_sigma <= v_finsler <= v_riemann, ratio <= the volume-ratio
  bound, and v_riemann equal to sqrt(det E[G]) within the error bound of a
  K-angle polar quadrature; the bound and E[G] are computed here from the
  Jacobian posterior.
- indicatrix: r_riemann <= r_finsler <= r_alpha_sigma at every angle.
- fit: finite log marginal likelihood, not below its value at the initial
  hyperparameters, and a model file that reloads to the same value.
- verify: `violations: 0`.
"""

from __future__ import annotations

import csv
import math
import os
import re

import numpy as np

from finslergp.fields import GpField
from finslergp.gp import (
    MATERN52,
    RBF,
    Kernel,
    load_model,
    log_marginal_likelihood,
    make_model,
    pca_latents,
)
from finslergp.data import load_csv

# pinwheel, fit flags and endpoint pairs of scripts/pinwheel_pipeline.py
PIPELINE_DATA = ["--noise", "0.05", "--seed", "0"]
PIPELINE_FIT = ["--kernel", "rbf", "--noise", "0.005", "--lengthscale", "0.6"]
PIPELINE_PAIRS = [((-1.2, -0.4), (1.2, 0.4)), ((-0.4, 1.2), (0.4, -1.2)),
                  ((-1.0, 0.8), (1.0, -0.8))]
FIT_STEPS = "5"
# kernel and --optimize-latents of the refits, taken in turn
FIT_CONFIGS = ((RBF, False), (MATERN52, False), (RBF, True))
MODEL_FIT_STEPS = "30"
GEODESIC_NC = "9"
SPHERE_NC = "17"
GRID = "10"
VOLUME_K = "256"
INDICATRIX_K = "64"
VERIFY_ARGS = ["--n", "100", "--dims", "2:1024:dyadic", "--v-samples", "8"]

REL_SLACK = 1e-9
ARC_TOLERANCE = 0.01
DETERMINISTIC_SIGMA = 1e-14


# file each command writes under its op's directory, passed as --out
OUT_NAMES = {"fit": "model.json", "geodesic": "geo.csv", "volume": "volume.csv",
             "indicatrix": "ind.csv", "verify": ""}


class Op:
    """One command of a workload, with the check its outputs must pass.
    `out` is the op's own output directory, set when the op list is built."""

    def __init__(self, kind: str, argv: list[str], check, **info):
        self.kind = kind
        self.argv = argv
        self.check = check
        self.info = info
        self.out = None

    def place(self, out: str) -> None:
        self.out = out
        self.argv = [*self.argv, "--out", os.path.join(out, OUT_NAMES[self.argv[0]])]


def _fmt(z) -> str:
    return ",".join(f"{c:.6f}" for c in z)


def _rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _column(rows, name) -> np.ndarray:
    return np.array([float(r[name]) for r in rows])


def _not_above(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.all(a <= b + REL_SLACK * np.abs(b)))


# ---------------------------------------------------------------------------
# checks: each returns None when the outputs are right, else a reason


def check_verify(op, stdout):
    if not re.search(r"^checks: \d+, violations: 0$", stdout, re.M):
        return "verify reported violations"
    return None


class FitCheck:
    """Log marginal likelihood against its value at the initial
    hyperparameters (and latents), cached per initial configuration."""

    def __init__(self):
        self._initial = {}

    def initial(self, data, family, lengthscale, noise, optimize_latents):
        key = (data, family, lengthscale, noise, optimize_latents)
        if key not in self._initial:
            Y = load_csv(data, has_labels=True).points
            X = pca_latents(Y, 2)
            m0 = make_model(X, Y, Kernel(family, lengthscale, 1.0), noise)
            value = log_marginal_likelihood(m0)
            if optimize_latents:
                value -= 0.5 * float(np.sum(X * X))
            self._initial[key] = value
        return self._initial[key]

    def __call__(self, op, stdout):
        found = re.search(r"^log marginal likelihood: (\S+)$", stdout, re.M)
        if not found:
            return "no log marginal likelihood printed"
        printed = float(found.group(1))
        if not math.isfinite(printed):
            return "log marginal likelihood is not finite"
        model = load_model(os.path.join(op.out, "model.json"))
        value = log_marginal_likelihood(model)
        if abs(value - printed) > 5e-7 + 1e-12 * abs(value):
            return f"reloaded model gives {value!r}, printed {printed!r}"
        i = op.info
        if i["optimize_latents"]:
            value -= 0.5 * float(np.sum(model.latent_inputs ** 2))
        start = self.initial(i["data"], i["family"], i["lengthscale"], i["noise"],
                             i["optimize_latents"])
        if value < start - REL_SLACK * abs(start):
            return f"fit objective {value!r} below its initial value {start!r}"
        return None


def _sphere_point(z):
    t, p = z
    return np.array([math.cos(t) * math.sin(p), math.sin(t) * math.sin(p), math.cos(p)])


def check_geodesic(op, stdout):
    rows = _rows(os.path.join(op.out, "geo.csv"))
    if len(rows) != 1:
        return f"expected one table row, got {len(rows)}"
    row = rows[0]
    kind = row["metric"]
    energy = float(row["energy"])
    length = float(row[f"length_{kind}"])
    if not energy >= length * length * (1.0 - REL_SLACK):
        return f"energy {energy!r} below squared length {length * length!r}"
    curve = _rows(os.path.join(op.out, f"geo_pair0_{kind}.csv"))
    if len(curve) != op.info["nc"]:
        return f"curve has {len(curve)} points, expected {op.info['nc']}"
    if "arc" in op.info:
        arc = op.info["arc"]
        if abs(length - arc) > ARC_TOLERANCE * arc:
            return f"sphere length {length!r} off the great-circle arc {arc!r}"
    return None


def check_indicatrix(op, stdout):
    rows = _rows(os.path.join(op.out, "ind.csv"))
    r_r = _column(rows, "r_riemann")
    r_f = _column(rows, "r_finsler")
    r_a = _column(rows, "r_alpha_sigma")
    if len(rows) != int(INDICATRIX_K):
        return f"expected {INDICATRIX_K} angles, got {len(rows)}"
    if not (_not_above(r_r, r_f) and _not_above(r_f, r_a)):
        return "indicatrix radii out of order"
    return None


def _quadrature_tolerance(condition: np.ndarray, k: int) -> np.ndarray:
    """Largest relative error of pi / area of a K-gon inscribed at equal
    polar angles in an ellipse whose quadratic form has condition number
    `condition`, as an estimate of sqrt(det) of that form.

    A linear map takes the ellipse to the unit circle and the vertex angles
    to arcs of at most sqrt(condition) * 2 pi / K, and keeps area ratios. A
    chord over an arc a cuts off (a - sin a) / 2 <= a^3 / 12, so the polygon
    misses at most a share e = condition * (2 pi / K)^2 / 6 of the area and
    the estimate exceeds sqrt(det) by at most e / (1 - e).
    """
    e = condition * (2.0 * math.pi / k) ** 2 / 6.0
    with np.errstate(divide="ignore"):
        return np.where(e < 1.0, e / np.maximum(1.0 - e, 0.0), np.inf)


class VolumeCheck:
    """Volume orderings, the ratio bound and the Riemannian closed form."""

    def __init__(self):
        self._fields = {}

    def field(self, path):
        if path not in self._fields:
            self._fields[path] = GpField(load_model(path))
        return self._fields[path]

    def __call__(self, op, stdout):
        rows = _rows(os.path.join(op.out, "volume.csv"))
        grid = op.info["grid"]
        if len(rows) != grid * grid:
            return f"expected {grid * grid} grid rows, got {len(rows)}"
        v_r = _column(rows, "v_riemann")
        v_f = _column(rows, "v_finsler")
        v_a = _column(rows, "v_alpha_sigma")
        ratio = _column(rows, "ratio")
        if not (_not_above(v_a, v_f) and _not_above(v_f, v_r)):
            return "volumes out of order"
        field = self.field(op.info["model"])
        pts = np.column_stack([_column(rows, "z1"), _column(rows, "z2")])
        means, covs = field.jacobian_batch(pts)
        d = field.data_dim
        # E[G] = E[J]^T E[J] + D * Sigma; v_riemann must be sqrt(det E[G])
        # up to the error of a K-angle polar quadrature of its unit ellipse
        metric = np.einsum("ndq,ndp->nqp", means, means) + d * covs
        eig = np.linalg.eigvalsh(metric)
        exact = np.sqrt(eig[:, 0] * eig[:, 1])
        tolerance = _quadrature_tolerance(eig[:, 1] / eig[:, 0], int(VOLUME_K))
        if not np.all(np.abs(v_r - exact) <= tolerance * exact + REL_SLACK * exact):
            worst = int(np.argmax(np.abs(v_r / exact - 1.0) - tolerance))
            return (f"v_riemann {v_r[worst]!r} differs from sqrt(det E[G]) "
                    f"{exact[worst]!r} by more than the quadrature error")
        k = int(VOLUME_K)
        angles = 2.0 * math.pi * np.arange(k) / k
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])
        sigma = np.maximum(np.einsum("kq,nqp,kp->nk", dirs, covs, dirs), 0.0)
        jv = np.einsum("ndq,kq->nkd", means, dirs)
        signal = np.einsum("nkd,nkd->nk", jv, jv)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = signal / sigma
            gap = np.where(sigma < DETERMINISTIC_SIGMA, 0.0,
                           1.0 / (d + w) + w / (d + w) ** 2)
        bound = 1.0 - (1.0 - gap.max(axis=1)) ** 2
        if not np.all(ratio <= bound + REL_SLACK):
            return "volume ratio above its bound"
        return None


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Set-up commands, and an op list of `rounds` rounds built from a seed.

    round_s is the time one round took on the commit that defined the
    benchmark (2-core x86 host); a run of S seconds holds round(S / round_s)
    rounds, so the op list is fixed for a given seed and run length.
    """

    name = ""
    round_s = 1.0

    def __init__(self, work: str):
        self.work = work

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    def setup_commands(self, seed: int) -> list[list[str]]:
        return []

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_s))

    def ops(self, seed: int, seconds: float) -> list[Op]:
        rng = np.random.default_rng([seed, 7])
        rounds = self.rounds(seconds)
        ops = []
        for r in range(rounds):
            ops.extend(self.round(rng, r, rounds))
        for i, op in enumerate(ops):
            op.place(self.path("ops", str(i)))
        return ops


class PipelineWorkload(Workload):
    """The stages of scripts/pinwheel_pipeline.py on its 500-point pinwheel,
    fitted and saved in the set-up: short refits, geodesics, volume fields
    and indicatrices, interleaved in every round."""

    name = "pipeline"
    round_s = 3.6

    def __init__(self, work):
        super().__init__(work)
        self.fit_check = FitCheck()
        self.volume_check = VolumeCheck()

    @property
    def data(self):
        return self.path("pinwheel500.csv")

    @property
    def model(self):
        return self.path("model.json")

    def setup_commands(self, seed):
        return [
            ["generate", "pinwheel", "--n", "500", *PIPELINE_DATA, "--out", self.data],
            ["fit", "--data", self.data, "--out", self.model, "--steps", MODEL_FIT_STEPS,
             *PIPELINE_FIT],
        ]

    def round(self, rng, r, rounds):
        ops = self.geodesics(rng, r, rounds)
        grid = 16 if r % 4 == 1 else 8
        ops.append(Op(f"volume_grid{grid}", ["volume", "--model", self.model, "--grid",
                                             str(grid), "--k", VOLUME_K],
                      self.volume_check, grid=grid, model=self.model))
        at = rng.uniform(-1.5, 1.5, 2)
        ops.append(Op("indicatrix", ["indicatrix", "--model", self.model,
                                     f"--at={_fmt(at)}", "--k", INDICATRIX_K],
                      check_indicatrix))
        if r % 3 == 2:
            ops.append(self.refit(rng, FIT_CONFIGS[(r // 3) % len(FIT_CONFIGS)]))
        return ops

    def geodesics(self, rng, r, rounds):
        # the pipeline's own pairs first, then seeded endpoints on opposite
        # sides of the origin, so the straight path crosses the low-density
        # voids between the pinwheel arms; one direction per stratum of
        # [0, pi) so every run crosses every arm
        if r < len(PIPELINE_PAIRS):
            start, end = (np.array(z) for z in PIPELINE_PAIRS[r])
        else:
            seeded = max(1, rounds - len(PIPELINE_PAIRS))
            theta = math.pi * (r - len(PIPELINE_PAIRS) + rng.uniform()) / seeded
            radius = rng.uniform(1.0, 1.3, 2)
            turn = rng.uniform(-0.2, 0.2)
            start = radius[0] * np.array([math.cos(theta), math.sin(theta)])
            end = -radius[1] * np.array([math.cos(theta + turn), math.sin(theta + turn)])
        ops = [
            Op(f"gp_{kind}", ["geodesic", "--model", self.model, f"--start={_fmt(start)}",
                              f"--end={_fmt(end)}", "--metric", kind, "--nc", GEODESIC_NC,
                              "--grid", GRID], check_geodesic, nc=int(GEODESIC_NC))
            for kind in ("riemann", "finsler")
        ]
        if r % 2 == 0:
            a, b = (np.array([rng.uniform(0.4, 2.8), rng.uniform(0.6, 2.5)])
                    for _ in range(2))
            # round to the printed digits so the arc matches the command
            a, b = np.round(a, 6), np.round(b, 6)
            arc = math.acos(float(np.clip(_sphere_point(a) @ _sphere_point(b), -1, 1)))
            ops.append(Op("sphere_riemann",
                          ["geodesic", "--model", "sphere", f"--start={_fmt(a)}",
                           f"--end={_fmt(b)}", "--metric", "riemann", "--nc", SPHERE_NC,
                           "--grid", GRID], check_geodesic, nc=int(SPHERE_NC), arc=arc))
        return ops

    def refit(self, rng, config):
        family, latents = config
        lengthscale = float(np.round(rng.uniform(0.4, 0.8), 3))
        argv = ["fit", "--data", self.data, "--kernel", family, "--steps", FIT_STEPS,
                "--noise", "0.005", "--lengthscale", repr(lengthscale)]
        if latents:
            argv.append("--optimize-latents")
        kind = f"fit_{family}" + ("_latents" if latents else "")
        return Op(kind, argv, self.fit_check, data=self.data, family=family,
                  lengthscale=lengthscale, noise=0.005, optimize_latents=latents)


class VerifyWorkload(Workload):
    name = "verify"
    round_s = 0.55

    def round(self, rng, r, rounds):
        return [Op("verify", ["verify", *VERIFY_ARGS, "--seed",
                              str(int(rng.integers(0, 2**31)))], check_verify)]


WORKLOADS = {w.name: w for w in (PipelineWorkload, VerifyWorkload)}
