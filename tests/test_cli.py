"""End-to-end command-line tests, run in-process through main(argv)."""

import json
import math

import numpy as np
import pytest

from finslergp import specfun
from finslergp.cli import _parse_dims, main
from finslergp.gp import load_model


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def circles_model(workdir):
    """A small fitted model shared by the read-only command tests."""
    data = workdir / "circ.csv"
    model = workdir / "circ_model.json"
    assert main(["generate", "circles", "--n", "400", "--noise", "0.01",
                 "--seed", "3", "--out", str(data)]) == 0
    assert main(["fit", "--data", str(data), "--out", str(model), "--steps", "60",
                 "--noise", "0.001", "--lengthscale", "0.8"]) == 0
    return model


def test_usage_and_version(capsys):
    assert main([]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["generate", "pinwheel"]) == 2  # --out is required
    assert main(["--help"]) == 0
    assert main(["--version"]) == 0
    capsys.readouterr()


def test_generate_pinwheel_thousand(tmp_path):
    out = tmp_path / "d.csv"
    assert main(["generate", "pinwheel", "--n", "1000", "--seed", "7",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()]
    assert len(rows) == 1000
    pts = np.array([[float(c) for c in r[:3]] for r in rows])
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    cfg = json.loads((tmp_path / "d.csv.config.json").read_text())
    assert cfg["command"] == "generate pinwheel"
    assert cfg["seed"] == 7 and cfg["labels"] is True
    assert cfg["version"]


def test_generate_rerun_byte_identical(tmp_path):
    out = tmp_path / "d.csv"
    argv = ["generate", "pinwheel", "--n", "64", "--seed", "5", "--out", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    first_cfg = (tmp_path / "d.csv.config.json").read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first
    assert (tmp_path / "d.csv.config.json").read_bytes() == first_cfg


def test_generate_circles_labels(tmp_path):
    out = tmp_path / "c.csv"
    assert main(["generate", "circles", "--n", "10", "--radii", "0.5,1.0",
                 "--seed", "1", "--out", str(out)]) == 0
    labels = [int(line.rsplit(",", 1)[1]) for line in out.read_text().splitlines()]
    assert labels.count(0) == 5 and labels.count(1) == 5


def test_fit_steps_zero_echoes_initials(workdir, circles_model, capsys):
    model_path = workdir / "echo_model.json"
    argv = ["fit", "--data", str(workdir / "circ.csv"), "--out", str(model_path),
            "--steps", "0", "--lengthscale", "0.7", "--variance", "1.1",
            "--noise", "0.02"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "log marginal likelihood:" in out
    doc = json.loads(model_path.read_text())
    assert doc["kernel"]["lengthscale"] == 0.7
    assert doc["kernel"]["variance"] == 1.1
    assert doc["noise"] == 0.02
    first = model_path.read_bytes()
    assert main(argv) == 0
    assert model_path.read_bytes() == first
    assert (workdir / "echo_model.json.config.json").exists()


def test_fit_pinwheel_sanity_range(tmp_path):
    data = tmp_path / "pin.csv"
    model = tmp_path / "m.json"
    assert main(["generate", "pinwheel", "--n", "200", "--seed", "2",
                 "--out", str(data)]) == 0
    assert main(["fit", "--data", str(data), "--out", str(model), "--kernel", "rbf",
                 "--steps", "40", "--noise", "0.005", "--lengthscale", "0.6"]) == 0
    doc = json.loads(model.read_text())
    assert 0.01 < doc["kernel"]["lengthscale"] < 100.0
    assert 0.01 < doc["kernel"]["variance"] < 100.0


def test_fit_factorization_failure_exits_one(workdir, circles_model, capsys):
    rc = main(["fit", "--data", str(workdir / "circ.csv"), "--out",
               str(workdir / "bad.json"), "--steps", "0", "--variance", "nan"])
    assert rc == 1
    assert "factorization failed" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--latent-dim", "0"], "latent dimension"),
        (["--latent-dim", "4", "--steps", "0"], "latent dimension 4 not in [1, 3]"),
        (["--noise", "-1", "--steps", "1"], "noise"),
        (["--steps", "-3"], "steps"),
        (["--lr", "0"], "lr > 0"),
        (["--lr", "-0.05", "--steps", "0"], "lr > 0"),
    ],
    ids=["latent_dim_zero", "latent_dim_above_data_dim", "negative_noise", "negative_steps",
         "zero_lr", "negative_lr"],
)
def test_fit_bad_input_exits_2(workdir, circles_model, capsys, flags, named):
    # the circles data are 3-d; nothing is written, not even a sidecar
    out = workdir / "rejected.json"
    rc = main(["fit", "--data", str(workdir / "circ.csv"), "--out", str(out), *flags])
    err = capsys.readouterr().err
    assert rc == 2
    assert _one_error_line(err) and named in err
    assert not out.exists() and not (workdir / "rejected.json.config.json").exists()


def test_geodesic_euclid_straight_line(circles_model, tmp_path):
    out = tmp_path / "geo.csv"
    assert main(["geodesic", "--model", str(circles_model), "--start=-0.8,-0.4",
                 "--end", "0.8,0.4", "--metric", "euclid", "--nc", "17",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    curve = np.genfromtxt(tmp_path / "geo_pair0_euclid.csv", delimiter=",", skip_header=1)
    t = np.linspace(0.0, 1.0, 17)
    assert np.allclose(curve[:, 1], -0.8 + 1.6 * t, atol=1e-9)
    assert np.allclose(curve[:, 2], -0.4 + 0.8 * t, atol=1e-9)


def test_geodesic_all_metrics_table(circles_model, tmp_path):
    out = tmp_path / "geo.csv"
    assert main(["geodesic", "--model", str(circles_model), "--start=-1.0,-0.5",
                 "--end", "1.0,0.5", "--nc", "17", "--max-iter", "800",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    for line in lines[1:]:
        cells = line.split(",")
        length_r, length_f = float(cells[2]), float(cells[3])
        assert length_f <= length_r
        assert cells[8] in ("0", "1")
    for kind in ("riemann", "finsler", "euclid"):
        assert (tmp_path / f"geo_pair0_{kind}.csv").exists()
    assert (tmp_path / "geo.csv.config.json").exists()


def test_geodesic_pairs_file(circles_model, tmp_path):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("s1,s2,e1,e2\n-0.5,-0.3,0.5,0.3\n-0.4,0.4,0.4,-0.4\n")
    out = tmp_path / "geo.csv"
    assert main(["geodesic", "--model", str(circles_model), "--pairs", str(pairs),
                 "--metric", "euclid", "--nc", "9", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert (tmp_path / "geo_pair0_euclid.csv").exists()
    assert (tmp_path / "geo_pair1_euclid.csv").exists()


def test_geodesic_sphere_great_circle(tmp_path):
    out = tmp_path / "sph.csv"
    assert main(["geodesic", "--model", "sphere", "--start", "0.2,1.0",
                 "--end", "1.4,1.8", "--metric", "riemann", "--nc", "33",
                 "--max-iter", "800", "--out", str(out)]) == 0
    cells = out.read_text().splitlines()[1].split(",")
    length = float(cells[2])

    def unit(t, p):
        return np.array([math.cos(t) * math.sin(p), math.sin(t) * math.sin(p), math.cos(p)])

    arc = math.acos(float(np.dot(unit(0.2, 1.0), unit(1.4, 1.8))))
    assert abs(length - arc) / arc < 0.01


def test_geodesic_missing_endpoints(circles_model, tmp_path, capsys):
    rc = main(["geodesic", "--model", str(circles_model), "--out",
               str(tmp_path / "geo.csv")])
    assert rc == 2
    assert "--start" in capsys.readouterr().err


def test_verify_clean_and_reproducible(tmp_path, capsys):
    outdir = tmp_path / "v"
    argv = ["verify", "--n", "120", "--dims", "2:32:dyadic", "--v-samples", "4",
            "--seed", "1", "--out", str(outdir)]
    assert main(argv) == 0
    assert "violations: 0" in capsys.readouterr().out
    conv = (outdir / "convergence.csv").read_text().splitlines()
    assert [int(r.split(",")[0]) for r in conv[1:]] == [2, 4, 8, 16, 32]
    viol = (outdir / "violations.csv").read_text().splitlines()
    assert all(line.endswith(",0") for line in viol[1:])
    assert (outdir / "violations.csv.config.json").exists()
    snapshot = [(p.name, p.read_bytes()) for p in sorted(outdir.iterdir())]
    assert main(argv) == 0
    assert [(p.name, p.read_bytes()) for p in sorted(outdir.iterdir())] == snapshot


def test_verify_injected_violation(tmp_path, capsys):
    rc = main(["verify", "--n", "100", "--dims", "2,4", "--v-samples", "2",
               "--out", str(tmp_path / "v"), "--inject-violation"])
    assert rc == 1
    assert "injected_self_test" in capsys.readouterr().out


def test_verify_dims_parsing(tmp_path, capsys):
    assert _parse_dims("2:1024:dyadic") == [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
    assert _parse_dims("3:24:dyadic") == [3, 6, 12, 24]
    assert _parse_dims("2,8,32") == [2, 8, 32]
    for bad in ("a:b:dyadic", "8:2:dyadic", "1,two"):
        rc = main(["verify", "--n", "100", "--dims", bad, "--out", str(tmp_path / "x")])
        assert rc == 2
    capsys.readouterr()


def test_volume_default_grid(circles_model, tmp_path):
    out = tmp_path / "vol.csv"
    assert main(["volume", "--model", str(circles_model), "--k", "64",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 32 * 32
    ratio = np.array([float(r.split(",")[5]) for r in lines[1:]])
    assert np.all(ratio >= 0.0) and np.all(ratio < 1.0)


def test_latent_dim_must_be_two_for_fields(workdir, circles_model, tmp_path, capsys):
    model3 = tmp_path / "m3.json"
    assert main(["fit", "--data", str(workdir / "circ.csv"), "--out", str(model3),
                 "--steps", "0", "--latent-dim", "3"]) == 0
    rc = main(["volume", "--model", str(model3), "--grid", "4",
               "--out", str(tmp_path / "v.csv")])
    assert rc == 2
    rc = main(["indicatrix", "--model", str(model3), "--at", "0,0,0",
               "--out", str(tmp_path / "i.csv")])
    assert rc == 2
    assert "2-d" in capsys.readouterr().err


def test_indicatrix_near_data_and_nesting(circles_model, tmp_path):
    model = load_model(str(circles_model))
    z = model.latent_inputs[0]
    out = tmp_path / "ind.csv"
    argv = ["indicatrix", "--model", str(circles_model),
            "--at", f"{z[0]},{z[1]}", "--k", "64", "--out", str(out)]
    assert main(argv) == 0
    rows = np.genfromtxt(out, delimiter=",", skip_header=1)
    assert rows.shape == (64, 4)
    r_r, r_f, r_a = rows[:, 1], rows[:, 2], rows[:, 3]
    assert np.all(r_r <= r_f * (1 + 1e-12)) and np.all(r_f <= r_a * (1 + 1e-12))
    # metrics nearly agree where the model has data
    assert np.max(np.abs(r_f - r_r) / r_r) < 0.05
    cfg = json.loads((tmp_path / "ind.csv.config.json").read_text())
    assert cfg["center"] == [float(z[0]), float(z[1])]
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first


def _one_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_model_file_missing_key_exits_2(circles_model, tmp_path, capsys):
    doc = json.loads(circles_model.read_text())
    del doc["latent_inputs"]
    bad = tmp_path / "no_latents.json"
    bad.write_text(json.dumps(doc))
    rc = main(["volume", "--model", str(bad), "--grid", "4", "--out", str(tmp_path / "v.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert _one_error_line(err) and "latent_inputs" in err


def test_model_file_mismatched_rows_exits_2(circles_model, tmp_path, capsys):
    doc = json.loads(circles_model.read_text())
    doc["outputs"] = doc["outputs"][:-1]
    bad = tmp_path / "short_outputs.json"
    bad.write_text(json.dumps(doc))
    rc = main(["indicatrix", "--model", str(bad), "--at", "0,0",
               "--out", str(tmp_path / "i.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert _one_error_line(err) and "same N" in err


def test_series_convergence_failure_exits_1(circles_model, tmp_path, monkeypatch, capsys):
    def diverge(*args):
        raise specfun.ConvergenceError("1F1 series did not converge")

    monkeypatch.setattr(specfun, "_series_1f1_lockstep", diverge)
    rc = main(["indicatrix", "--model", str(circles_model), "--at", "0,0",
               "--out", str(tmp_path / "i.csv")])
    err = capsys.readouterr().err
    assert rc == 1
    assert _one_error_line(err) and "did not converge" in err


@pytest.mark.parametrize(
    "flags, named",
    [
        (["--pairs", "PAIRS"], "has 6 coordinates; two points of the model's 2-d latent space"),
        (["--start", "0,0,0", "--end", "0.5,0.5"],
         "has 3 coordinates; the model's latent space is 2-d"),
        (["--start", "0,0", "--end", "0.5,0.5", "--tol", "-1"], "tol >= 0"),
        (["--start", "0,0", "--end", "0.5,0.5", "--max-iter", "0"], "max_iter >= 1"),
    ],
    ids=["pairs_3d_on_2d", "start_3d_on_2d", "negative_tol", "zero_max_iter"],
)
def test_geodesic_bad_input_exits_2(circles_model, tmp_path, capsys, flags, named):
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("-0.5,-0.3,0,0.5,0.3,0\n")
    flags = [str(pairs) if f == "PAIRS" else f for f in flags]
    out = tmp_path / "geo.csv"
    rc = main(["geodesic", "--model", str(circles_model), "--metric", "riemann",
               "--nc", "9", *flags, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert _one_error_line(err) and named in err
    assert not out.exists() and not (tmp_path / "geo_pair0_riemann.csv").exists()


@pytest.mark.parametrize("model", ["circles", "sphere"])
def test_indicatrix_latent_dimension_mismatch_exits_2(circles_model, tmp_path, capsys, model):
    spec = str(circles_model) if model == "circles" else "sphere"
    rc = main(["indicatrix", "--model", spec, "--at", "0,0,0", "--out", str(tmp_path / "i.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert _one_error_line(err) and "has 3 coordinates; the model's latent space is 2-d" in err


def test_indicatrix_non_finite_point_exits_2(circles_model, tmp_path, capsys):
    rc = main(["indicatrix", "--model", str(circles_model), "--at=nan,0",
               "--out", str(tmp_path / "i.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert _one_error_line(err) and "finite" in err
