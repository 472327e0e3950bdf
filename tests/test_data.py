"""Synthetic sphere datasets and CSV round trips."""

import hashlib
import json

import numpy as np
import pytest

from finslergp.data import (
    Dataset,
    ParseError,
    gen_circles_sphere,
    gen_pinwheel_sphere,
    inverse_stereographic,
    load_csv,
    write_csv,
    write_dataset,
    write_sidecar,
)


def test_inverse_stereographic_known_points():
    out = inverse_stereographic(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, -1.0]]))
    assert np.allclose(out[0], [0.0, 0.0, -1.0])
    assert np.allclose(out[1], [1.0, 0.0, 0.0])
    assert np.allclose(out[2], [0.0, -1.0, 0.0])
    far = inverse_stereographic(np.array([[1e8, 0.0]]))[0]
    assert np.allclose(far, [0.0, 0.0, 1.0], atol=1e-7)


def test_pinwheel_unit_norms_and_shape():
    ds = gen_pinwheel_sphere(n=1000, seed=7)
    assert ds.points.shape == (1000, 3)
    norms = np.linalg.norm(ds.points, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_pinwheel_balanced_arm_labels():
    ds = gen_pinwheel_sphere(n=1000, arms=5, seed=0)
    counts = np.bincount(ds.labels)
    assert np.array_equal(counts, [200] * 5)


def test_pinwheel_seed_determinism():
    a = gen_pinwheel_sphere(n=64, seed=3)
    b = gen_pinwheel_sphere(n=64, seed=3)
    c = gen_pinwheel_sphere(n=64, seed=4)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_pinwheel_validation():
    with pytest.raises(ValueError):
        gen_pinwheel_sphere(n=3, arms=5)
    with pytest.raises(ValueError):
        gen_pinwheel_sphere(n=10, arms=0)


@pytest.mark.parametrize("noise", [-1.0, -1e-300, float("nan"), float("inf")])
@pytest.mark.parametrize("generate", [gen_pinwheel_sphere, gen_circles_sphere])
def test_generators_reject_noise_that_is_negative_or_not_finite(generate, noise):
    with pytest.raises(ValueError, match="noise must be finite and >= 0"):
        generate(n=20, noise=noise)
    assert generate(n=20, noise=0.0).points.shape == (20, 3)


def test_circles_exact_split_and_norms():
    ds = gen_circles_sphere(n=1000, radii=(0.6, 1.3), seed=1)
    counts = np.bincount(ds.labels)
    assert np.array_equal(counts, [500, 500])
    assert np.max(np.abs(np.linalg.norm(ds.points, axis=1) - 1.0)) < 1e-12
    odd = gen_circles_sphere(n=7, radii=(0.5, 0.9), seed=1)
    assert np.array_equal(np.bincount(odd.labels), [4, 3])


def test_circles_seed_determinism():
    a = gen_circles_sphere(n=50, seed=9)
    b = gen_circles_sphere(n=50, seed=9)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.labels, b.labels)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset("x", np.array([[1.0, np.nan]] * 2), None, {})
    with pytest.raises(ValueError):
        Dataset("x", np.ones((1, 2)), None, {})
    with pytest.raises(ValueError):
        Dataset("x", np.ones((3, 2)), np.array([1, 2]), {})


def test_csv_round_trip_is_lossless(tmp_path):
    rng = np.random.default_rng(0)
    pts = np.concatenate(
        [rng.standard_normal((5, 3)), [[1e-300, np.pi, -1e17], [2.0 / 3.0, 1e300, 5e-324]]]
    )
    path = str(tmp_path / "pts.csv")
    write_csv(path, pts)
    loaded = load_csv(path)
    assert np.array_equal(loaded.points, pts)


def test_load_csv_header_and_labels(tmp_path):
    path = str(tmp_path / "d.csv")
    with open(path, "w") as fh:
        fh.write("x,y,label\n1.0,2.0,0\n3.0,4.0,1\n5.5,6.5,1\n")
    ds = load_csv(path, has_labels=True)
    assert np.array_equal(ds.points, [[1.0, 2.0], [3.0, 4.0], [5.5, 6.5]])
    assert np.array_equal(ds.labels, [0, 1, 1])


def test_load_csv_provenance_hash(tmp_path):
    path = str(tmp_path / "d.csv")
    with open(path, "w") as fh:
        fh.write("1,2\n3,4\n")
    ds = load_csv(path)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest in str(ds.provenance)


def test_load_csv_opens_its_file_once(tmp_path, opened_paths):
    path = str(tmp_path / "d.csv")
    write_csv(path, [[1.0, 2.0], [3.0, 4.0]])
    opened_paths.clear()
    load_csv(path)
    assert opened_paths == [path]


def test_load_csv_ragged_row_names_location(tmp_path):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write("1,2\n3,4,5\n6,7\n")
    with pytest.raises(ParseError, match="row 2"):
        load_csv(path)


def test_load_csv_non_numeric_names_location(tmp_path):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write("1,2\n3,oops\n5,6\n")
    with pytest.raises(ParseError, match="row 2.*column 2"):
        load_csv(path)


def test_load_csv_too_short(tmp_path):
    path = str(tmp_path / "tiny.csv")
    with open(path, "w") as fh:
        fh.write("1,2\n")
    with pytest.raises(ParseError):
        load_csv(path)


def test_write_dataset_round_trip(tmp_path):
    ds = gen_circles_sphere(n=20, seed=2)
    path = str(tmp_path / "c.csv")
    write_dataset(path, ds)
    back = load_csv(path, has_labels=True)
    assert np.array_equal(back.points, ds.points)
    assert np.array_equal(back.labels, ds.labels)
    with open(path + ".config.json") as fh:
        sidecar = json.load(fh)
    assert sidecar["provenance"]["seed"] == 2


def test_write_dataset_byte_identical(tmp_path):
    ds = gen_pinwheel_sphere(n=30, seed=5)
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_dataset(p1, ds)
    write_dataset(p2, ds)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_write_sidecar_path_and_content(tmp_path):
    base = str(tmp_path / "out.csv")
    got = write_sidecar(base, {"b": 1, "a": [2, 3]})
    assert got == base + ".config.json"
    with open(got) as fh:
        text = fh.read()
    assert json.loads(text) == {"a": [2, 3], "b": 1}
    # keys sorted for byte-stable reruns
    assert text.index('"a"') < text.index('"b"')
