"""End-to-end command-line tests, run in-process through main(argv)."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

import finslergp
from finslergp import cli, gp, specfun
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


def test_parser_built_once_for_successive_commands(tmp_path, capsys):
    # one parser serves every main call of a process: different subcommands
    # in a row, a usage error (exit 2) between them, and each call's flags
    # and defaults stay its own
    cli._build_parser.cache_clear()
    data = tmp_path / "d.csv"
    assert main(["generate", "circles", "--n", "20", "--out", str(data)]) == 0
    assert main(["verify", "--n", "100", "--dims", "2,4", "--v-samples", "2",
                 "--out", str(tmp_path / "v")]) == 0
    assert main(["verify", "--dims", "2,4", "--no-such-flag"]) == 2
    assert main(["generate", "pinwheel", "--n", "30", "--out", str(tmp_path / "p.csv")]) == 0
    assert main(["fit"]) == 2
    assert main(["generate", "circles", "--n", "20", "--out", str(tmp_path / "e.csv")]) == 0
    assert (tmp_path / "e.csv").read_bytes() == data.read_bytes()
    pinwheel = json.loads((tmp_path / "p.csv.config.json").read_text())
    assert pinwheel["n"] == 30 and pinwheel["arms"] == 5 and "radii" not in pinwheel
    verify = json.loads((tmp_path / "v" / "convergence.csv.config.json").read_text())
    assert verify["v_samples"] == 2 and "shape" not in verify
    assert cli._build_parser.cache_info().misses == 1
    err = capsys.readouterr().err
    assert "--no-such-flag" in err and "the following arguments are required" in err


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


@pytest.mark.parametrize(
    "flags, named",
    [
        (["pinwheel", "--noise", "-1"], "noise must be finite and >= 0"),
        (["circles", "--noise", "nan"], "noise must be finite and >= 0"),
        (["circles", "--radii", "1,x"], "--radii '1,x'"),
    ],
    ids=["pinwheel_negative_noise", "circles_nan_noise", "circles_bad_radii"],
)
def test_generate_bad_input_exits_2(tmp_path, capsys, flags, named):
    out = tmp_path / "d.csv"
    assert main(["generate", *flags, "--n", "20", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err) and named in err
    assert not out.exists() and not (tmp_path / "d.csv.config.json").exists()


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


@pytest.mark.parametrize("labels, columns", [("yes", 3), ("no", 4), ("auto", 4)])
def test_fit_labels_flag_without_a_sidecar(workdir, circles_model, tmp_path, labels, columns):
    # a copy of the circles CSV without its sidecar: --labels yes drops the
    # label column, and no or auto (no sidecar to read) fit it as an output
    data = tmp_path / "circ_copy.csv"
    data.write_bytes((workdir / "circ.csv").read_bytes())
    model_path = tmp_path / "m.json"
    assert main(["fit", "--data", str(data), "--out", str(model_path), "--steps", "0",
                 "--labels", labels]) == 0
    outputs = np.array(json.loads(model_path.read_text())["outputs"])
    assert outputs.shape == (400, columns)


@pytest.mark.parametrize("content", [b"[1,2]", b"{bad", b"\xde\xad\xbe\xef"],
                         ids=["list", "not_json", "not_utf8"])
def test_fit_data_sidecar_not_a_json_object_names_the_file(workdir, circles_model, tmp_path,
                                                           capsys, content):
    data = tmp_path / "circ_copy.csv"
    data.write_bytes((workdir / "circ.csv").read_bytes())
    sidecar = tmp_path / "circ_copy.csv.config.json"
    sidecar.write_bytes(content)
    assert main(["fit", "--data", str(data), "--out", str(tmp_path / "m.json"),
                 "--steps", "0"]) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err) and err.startswith(f"error: {sidecar}: ")
    assert not (tmp_path / "m.json").exists()


def test_fit_huge_lr_fails_its_trials_and_keeps_the_initial_model(workdir, circles_model, capsys):
    # every trial step overflows exp(log theta): each is a failed line-search
    # trial, not an error, and the fit returns its initial point
    model_path = workdir / "huge_lr.json"
    data = str(workdir / "circ.csv")
    assert main(["fit", "--data", data, "--out", str(model_path), "--steps", "5",
                 "--lr", "1e300", "--lengthscale", "0.7", "--variance", "1.1"]) == 0
    doc = json.loads(model_path.read_text())
    assert doc["kernel"]["lengthscale"] == pytest.approx(0.7, rel=1e-14)
    assert doc["kernel"]["variance"] == pytest.approx(1.1, rel=1e-14)
    assert capsys.readouterr().err == ""


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


def test_fit_factorization_failure_exits_one(workdir, circles_model, monkeypatch, capsys):
    # every Cholesky attempt fails, so the jitter ladder runs out
    monkeypatch.setattr(gp, "_finite_cholesky", lambda kmat: None)
    rc = main(["fit", "--data", str(workdir / "circ.csv"), "--out",
               str(workdir / "bad.json"), "--steps", "0"])
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
        (["--lr", "inf"], "finite lr > 0"),
        (["--lengthscale", "nan", "--steps", "0"], "lengthscale"),
        (["--variance", "inf", "--steps", "0"], "variance"),
        (["--variance", "nan", "--steps", "0"], "variance"),
    ],
    ids=["latent_dim_zero", "latent_dim_above_data_dim", "negative_noise", "negative_steps",
         "zero_lr", "negative_lr", "inf_lr", "nan_lengthscale", "inf_variance", "nan_variance"],
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


def test_identical_points_decode_equal(circles_model, tmp_path):
    # the decoded mean of a point does not depend on its row in the batch:
    # nine copies of one point decode to nine equal rows, so the geodesic
    # between a point and itself has ambient length 0
    means, var = gp._posterior_mean_var_batch(load_model(str(circles_model)), np.zeros((9, 2)))
    assert np.all(means == means[0]) and np.all(var == var[0])
    out = tmp_path / "geo.csv"
    assert main(["geodesic", "--model", str(circles_model), "--start", "0,0", "--end", "0,0",
                 "--nc", "9", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert all(float(r["length_ambient"]) == 0.0 for r in rows)


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


def test_geodesic_unconverged_curve_is_reported_and_exits_0(tmp_path, capsys):
    # one L-BFGS iteration cannot converge: the documented outcome is exit 0,
    # a "not converged" line on stderr and converged = 0 in the table
    out = tmp_path / "geo.csv"
    assert main(["geodesic", "--model", "sphere", "--start=0.5,1.0", "--end=2.0,2.0",
                 "--metric", "riemann", "--nc", "17", "--grid", "10", "--max-iter", "1",
                 "--out", str(out)]) == 0
    assert "pair 0 riemann: not converged" in capsys.readouterr().err
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and rows[0]["converged"] == "0"


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


def test_verify_writes_a_row_per_counted_check(tmp_path, capsys):
    # violations.csv lists every check verify counts on stdout, the two
    # truncation checks included, whose trials are the dimensions swept
    outdir = tmp_path / "v"
    assert main(["verify", "--n", "100", "--dims", "2,4,8", "--v-samples", "2",
                 "--out", str(outdir)]) == 0
    assert "checks: 11, violations: 0" in capsys.readouterr().out
    with open(outdir / "violations.csv", newline="") as fh:
        rows = {r["check"]: r for r in csv.DictReader(fh)}
    assert len(rows) == 11
    for name in ("trunc_gap_range", "trunc_gap_scaled"):
        assert rows[name]["trials"] == "3" and rows[name]["violations"] == "0"


def test_verify_injected_violation(monkeypatch, tmp_path, capsys):
    # one violation added to the bound sweep's report: verify names it and
    # exits 1
    def sweep_with_a_violation(*args, **kwargs):
        report = bound_sweep(*args, **kwargs)
        injected.append(min(report.counts))
        return dataclasses.replace(report, counts={**report.counts, injected[0]: 1})

    bound_sweep, injected = cli.bound_sweep, []
    monkeypatch.setattr(cli, "bound_sweep", sweep_with_a_violation)
    rc = main(["verify", "--n", "100", "--dims", "2,4", "--v-samples", "2",
               "--out", str(tmp_path / "v")])
    out = capsys.readouterr().out
    assert rc == 1
    assert f"VIOLATION {injected[0]}: 1" in out and "violations: 1" in out
    assert main(["verify", "--inject-violation", "--out", str(tmp_path / "w")]) == 2


def test_verify_dims_parsing(tmp_path, capsys):
    assert _parse_dims("2:1024:dyadic") == [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
    assert _parse_dims("3:24:dyadic") == [3, 6, 12, 24]
    assert _parse_dims("2,8,32") == [2, 8, 32]
    for bad in ("a:b:dyadic", "8:2:dyadic", "1,two"):
        rc = main(["verify", "--n", "100", "--dims", bad, "--out", str(tmp_path / "x")])
        assert rc == 2
    capsys.readouterr()


def test_verify_names_the_malformed_dims_flag(tmp_path, capsys):
    for bad in ("2:1024:foo", "a:b:dyadic", "8:2:dyadic", "1,two", "-4", "0"):
        rc = main(["verify", "--n", "100", "--dims", bad, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "--dims" in capsys.readouterr().err


def test_verify_checks_its_flags_before_the_bound_sweep(monkeypatch, tmp_path, capsys):
    def long_sweep(*args, **kwargs):
        raise AssertionError("the bound sweep ran before the flags were checked")

    monkeypatch.setattr(cli, "bound_sweep", long_sweep)
    for flags in (["--v-samples", "0"], ["--dims", "4,2"], ["--dims", "2:1024:foo"]):
        rc = main(["verify", "--n", "10000", *flags, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


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


def test_sphere_volume_and_indicatrix(tmp_path):
    # a deterministic field: Sigma = 0 makes alpha-Sigma 0 in every
    # direction, an unbounded unit ball (radius inf, volume 0), while the
    # other two metrics are the round one, whose volume is sin(polar)
    vol = tmp_path / "vol.csv"
    assert main(["volume", "--model", "sphere", "--grid", "4", "--out", str(vol)]) == 0
    rows = np.genfromtxt(vol, delimiter=",", skip_header=1)
    polar, v_r, v_f, v_a = rows[:, 1], rows[:, 2], rows[:, 3], rows[:, 4]
    assert np.array_equal(v_r, v_f) and np.all(v_a == 0.0)
    assert np.allclose(v_r, np.sin(polar), rtol=0.02, atol=0)
    ind = tmp_path / "ind.csv"
    assert main(["indicatrix", "--model", "sphere", "--at", "0.3,1.2", "--k", "16",
                 "--out", str(ind)]) == 0
    rows = np.genfromtxt(ind, delimiter=",", skip_header=1)
    theta, r_r, r_f, r_a = rows.T
    assert np.array_equal(r_r, r_f) and np.all(r_a == np.inf)
    want = 1.0 / np.hypot(math.sin(1.2) * np.cos(theta), np.sin(theta))
    assert np.allclose(r_r, want, rtol=1e-14, atol=0)


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


def test_model_file_nan_noise_exits_2(circles_model, tmp_path, capsys):
    doc = json.loads(circles_model.read_text())
    doc["noise"] = math.nan
    bad = tmp_path / "nan_noise.json"
    bad.write_text(json.dumps(doc))  # written as NaN, which json reads back
    out = tmp_path / "geo.csv"
    rc = main(["geodesic", "--model", str(bad), "--start=-0.5,0", "--end", "0.5,0",
               "--metric", "euclid", "--nc", "9", "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert _one_error_line(err) and "noise" in err
    assert not out.exists()


def test_model_file_nan_variance_exits_2(circles_model, tmp_path, capsys):
    doc = json.loads(circles_model.read_text())
    doc["kernel"]["variance"] = math.nan
    bad = tmp_path / "nan_variance.json"
    bad.write_text(json.dumps(doc))
    rc = main(["indicatrix", "--model", str(bad), "--at", "0,0",
               "--out", str(tmp_path / "i.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert _one_error_line(err) and "variance" in err
    assert not (tmp_path / "i.csv").exists()


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


@pytest.mark.parametrize(
    "key, value",
    [("latent_inputs", math.inf), ("outputs", math.nan), ("outputs", -math.inf)],
    ids=["inf_latent", "nan_output", "inf_output"],
)
def test_model_file_non_finite_data_exits_2(circles_model, tmp_path, capsys, key, value):
    doc = json.loads(circles_model.read_text())
    doc[key][3][0] = value
    bad = tmp_path / "non_finite.json"
    bad.write_text(json.dumps(doc))  # written as Infinity or NaN, which json reads back
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["indicatrix", "--model", str(bad), "--at", "0,0",
                   "--out", str(tmp_path / "i.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert _one_error_line(err) and f"{key} must be finite" in err
    assert not caught
    assert not (tmp_path / "i.csv").exists()


@pytest.mark.parametrize(
    "key, index, value",
    [("latent_inputs", (3, 0), math.inf), ("outputs", (3, 0), math.nan), ("noise", None, -0.5)],
    ids=["inf_latent", "nan_output", "negative_noise"],
)
def test_model_file_rejected_by_make_model_names_the_file(
    circles_model, tmp_path, capsys, key, index, value
):
    doc = json.loads(circles_model.read_text())
    if index is None:
        doc[key] = value
    else:
        doc[key][index[0]][index[1]] = value
    bad = tmp_path / "rejected_model.json"
    bad.write_text(json.dumps(doc))
    rc = main(["indicatrix", "--model", str(bad), "--at", "0,0",
               "--out", str(tmp_path / "i.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert _one_error_line(err) and err.startswith(f"error: {bad}: ") and key in err


@pytest.mark.parametrize(
    "family, lengthscale", [("rbf", 1e-170), ("matern52", 1e-100)],
    ids=["rbf_lengthscale_squared_underflows", "matern52_u4_overflows"],
)
def test_kernel_constants_out_of_range_exit_2(
    workdir, circles_model, tmp_path, capsys, family, lengthscale
):
    # fit rejects the initial kernel in one line, without warnings, and
    # writes nothing; a model file holding that kernel is named
    out = tmp_path / "tiny.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["fit", "--data", str(workdir / "circ.csv"), "--out", str(out),
                   "--kernel", family, "--lengthscale", repr(lengthscale), "--steps", "0",
                   "--noise", "0.1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert _one_error_line(err) and "lengthscale" in err
    assert not caught and not out.exists()
    doc = json.loads(circles_model.read_text())
    doc["kernel"].update(family=family, lengthscale=lengthscale)
    bad = tmp_path / "tiny_lengthscale.json"
    bad.write_text(json.dumps(doc))
    rc = main(["geodesic", "--model", str(bad), "--start=-0.5,0", "--end", "0.5,0",
               "--nc", "9", "--out", str(tmp_path / "geo.csv")])
    err = capsys.readouterr().err
    assert rc == 2
    assert _one_error_line(err) and err.startswith(f"error: {bad}: ") and "lengthscale" in err


@pytest.mark.parametrize("content", [None, b"\xde\xad\xbe\xef"], ids=["csv", "not_utf8"])
def test_model_file_not_json_names_the_file(workdir, circles_model, tmp_path, capsys, content):
    data = workdir / "circ.csv"
    if content is not None:
        data = tmp_path / "binary.json"
        data.write_bytes(content)
    assert main(["geodesic", "--model", str(data), "--start=-0.5,0", "--end", "0.5,0",
                 "--out", str(tmp_path / "geo.csv")]) == 2
    err = capsys.readouterr().err
    assert _one_error_line(err) and err.startswith(f"error: {data}: not a JSON model file")


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
        (["--start", "0,0", "--end", "0.5,0.5", "--tol", "inf"], "tol >= 0"),
        (["--start", "0,0", "--end", "0.5,0.5", "--max-iter", "0"], "max_iter >= 1"),
    ],
    ids=["pairs_3d_on_2d", "start_3d_on_2d", "negative_tol", "inf_tol", "zero_max_iter"],
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


def test_scipy_stays_off_the_import_path(tmp_path):
    # a fresh interpreter: importing the CLI, generate and verify load
    # neither gp nor any scipy module; a fit then loads gp, and scipy's
    # LAPACK and BLAS extension modules alone at its first factorization,
    # without the scipy or scipy.linalg package, and a grid-seeded geodesic
    # on a model file loads nothing more
    code = textwrap.dedent("""
        import json, sys

        def gp_and_scipy():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")
                          or m == "finslergp.gp")

        from finslergp.cli import main
        loaded = {"import": gp_and_scipy()}
        assert main(["generate", "circles", "--n", "60", "--seed", "1", "--out", "d.csv"]) == 0
        loaded["generate"] = gp_and_scipy()
        assert main(["verify", "--n", "100", "--dims", "2:64:dyadic", "--v-samples", "8",
                     "--out", "verify"]) == 0
        loaded["verify"] = gp_and_scipy()
        assert main(["fit", "--data", "d.csv", "--out", "m.json", "--steps", "2"]) == 0
        loaded["fit"] = gp_and_scipy()
        assert main(["geodesic", "--model", "m.json", "--start=-0.5,-0.5", "--end=0.5,0.5",
                     "--grid", "10", "--nc", "9", "--out", "geo.csv"]) == 0
        loaded["geodesic"] = gp_and_scipy()
        print(json.dumps(loaded))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(finslergp.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert loaded["import"] == loaded["generate"] == loaded["verify"] == []
    assert loaded["fit"] == ["finslergp.gp", "scipy.linalg._fblas", "scipy.linalg._flapack"]
    assert (tmp_path / "m.json").exists()
    assert loaded["geodesic"] == loaded["fit"]
    assert (tmp_path / "geo.csv").exists()
