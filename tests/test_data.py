import math

import numpy as np
import pytest

from assistlearn import errors as err
from assistlearn.core import FeaturePartition, TaskLabels
from assistlearn.data import (SplitSpec, SyntheticSpec, gen_friedman1,
                              gen_linear, generate, load_csv, save_csv, split,
                              split_counts)

# E[sin(pi*x1*x2)] over the unit square, scipy.integrate.dblquad
# (abs error bound 8e-15), plus 20/12 + 10*0.5 + 5*0.5:
FRIEDMAN_POPULATION_MEAN = 14.413297342419856


def test_friedman1_matches_its_formula():
    part, labels = gen_friedman1(SyntheticSpec(kind="friedman1", n=50,
                                               noise_sd=0.0, seed=4))
    X = part.features
    expect = (10.0 * np.sin(np.pi * X[:, 0] * X[:, 1])
              + 20.0 * (X[:, 2] - 0.5) ** 2 + 10.0 * X[:, 3] + 5.0 * X[:, 4])
    assert np.array_equal(labels.values, expect)
    assert part.feature_names == ("x1", "x2", "x3", "x4", "x5")


def test_friedman1_population_mean():
    _, labels = gen_friedman1(SyntheticSpec(kind="friedman1", n=200_000,
                                            noise_sd=0.0, seed=5))
    # sd of the response is ~4.88, so 4 standard errors is ~0.044
    se = labels.values.std() / math.sqrt(labels.values.size)
    assert abs(labels.values.mean() - FRIEDMAN_POPULATION_MEAN) < 4 * se


def test_friedman1_noise_and_extra_features():
    base = SyntheticSpec(kind="friedman1", n=500, noise_sd=0.0, seed=7)
    noisy = SyntheticSpec(kind="friedman1", n=500, noise_sd=1.0, seed=7)
    _, y0 = gen_friedman1(base)
    _, y1 = gen_friedman1(noisy)
    diff = y1.values - y0.values
    assert 0.8 < diff.std() < 1.2
    part, y2 = gen_friedman1(SyntheticSpec(kind="friedman1", n=500,
                                           noise_sd=1.0, seed=7,
                                           extra_noise_features=3))
    assert part.feature_names == ("x1", "x2", "x3", "x4", "x5",
                                  "x6", "x7", "x8")
    # inert columns must not change the labels
    assert np.array_equal(y2.values, y1.values)


def test_gen_linear_exact_sample_moments():
    spec = SyntheticSpec(kind="linear", n=400, noise_sd=0.0, seed=3,
                         coefficients=(1.0, -1.0, 2.0, 0.5), correlation=0.6)
    part, labels = gen_linear(spec)
    X = part.features
    n, p = X.shape
    assert (n, p) == (400, 4)
    assert np.allclose(X.mean(axis=0), 0.0, atol=1e-12)
    target = np.full((p, p), 0.6)
    np.fill_diagonal(target, 1.0)
    assert np.allclose(X.T @ X / n, target, atol=1e-10)
    assert np.allclose(labels.values, X @ np.array([1.0, -1.0, 2.0, 0.5]))


def test_gen_linear_independence_is_exact():
    spec = SyntheticSpec(kind="linear", n=200, noise_sd=1.0, seed=9,
                         coefficients=(1.0, 2.0, 3.0), correlation=0.0)
    part, _ = gen_linear(spec)
    X = part.features
    assert np.allclose(X.T @ X / 200, np.eye(3), atol=1e-10)


def test_gen_linear_small_n_falls_back_to_raw_draw():
    spec = SyntheticSpec(kind="linear", n=3, noise_sd=0.0, seed=1,
                         coefficients=(1.0, 1.0, 1.0, 1.0))
    part, _ = gen_linear(spec)
    X = part.features
    assert X.shape == (3, 4)
    assert not np.allclose(X.mean(axis=0), 0.0, atol=1e-6)


def test_generate_dispatch_and_ids_sort_numerically():
    part, _ = generate(SyntheticSpec(kind="friedman1", n=12, seed=0))
    assert list(part.ids) == sorted(part.ids)  # zero-padded decimal ids
    with pytest.raises(ValueError):
        SyntheticSpec(kind="mystery", n=5)
    with pytest.raises(ValueError):
        SyntheticSpec(kind="linear", n=5, correlation=1.0)
    with pytest.raises(ValueError):
        gen_linear(SyntheticSpec(kind="linear", n=5))  # no coefficients


def test_generation_is_deterministic():
    a1, l1 = generate(SyntheticSpec(kind="friedman1", n=100, seed=11))
    a2, l2 = generate(SyntheticSpec(kind="friedman1", n=100, seed=11))
    assert np.array_equal(a1.features, a2.features)
    assert np.array_equal(l1.values, l2.values)
    b, _ = generate(SyntheticSpec(kind="friedman1", n=100, seed=12))
    assert not np.array_equal(a1.features, b.features)


def test_split_partitions_ids():
    ids = tuple(f"{i:03d}" for i in range(10))
    train, test = split(ids, SplitSpec(fraction=0.7, seed=5))
    assert len(train) == 7 and len(test) == 3
    assert sorted(train + test) == sorted(ids)
    assert not set(train) & set(test)
    assert list(train) == sorted(train) and list(test) == sorted(test)
    again = split(ids, SplitSpec(fraction=0.7, seed=5))
    assert again == (train, test)
    other = split(ids, SplitSpec(fraction=0.7, seed=6))
    assert other != (train, test)


def test_split_validation():
    with pytest.raises(ValueError):
        SplitSpec(fraction=0.0)
    with pytest.raises(ValueError):
        SplitSpec(fraction=1.0)
    with pytest.raises(ValueError):
        split(("only",), SplitSpec(fraction=0.5))


def test_split_counts_exact():
    ids = tuple(f"{i:03d}" for i in range(10))
    train, test = split_counts(ids, 4, seed=0)
    assert len(train) == 4 and len(test) == 6
    with pytest.raises(ValueError):
        split_counts(ids, 0, seed=0)
    with pytest.raises(ValueError):
        split_counts(ids, 10, seed=0)


def test_csv_round_trip_is_lossless(tmp_path):
    part, labels = generate(SyntheticSpec(kind="friedman1", n=40, seed=2))
    path = tmp_path / "data.csv"
    save_csv(path, part, labels)
    back, lab_back = load_csv(path, "id", label_column="y")
    assert back.ids == part.ids
    assert back.feature_names == part.feature_names
    assert np.array_equal(back.features, part.features)
    assert np.array_equal(lab_back.values, labels.values)


def test_csv_without_labels(tmp_path):
    part, _ = generate(SyntheticSpec(kind="friedman1", n=5, seed=2))
    path = tmp_path / "plain.csv"
    save_csv(path, part)
    back = load_csv(path, "id")
    assert np.array_equal(back.features, part.features)


def _per_row_csv(path, part, labels):
    """The row-at-a-time writer that save_csv's one writerows call replaced."""
    import csv
    y = labels.lookup(part.ids).tolist() if labels else None
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", *part.feature_names]
                        + (["y"] if y is not None else []))
        for i, sid in enumerate(part.ids):
            row = [sid] + [repr(v) for v in part.features[i].tolist()]
            if y is not None:
                row.append(repr(y[i]))
            writer.writerow(row)


def test_save_csv_writes_the_per_row_writer_bytes(tmp_path):
    ids = ("a,b", 'say "hi"', "two words", "naïve-Ω", "00000001", " lead")
    rng = np.random.default_rng(9)
    feats = rng.standard_normal((len(ids), 3)) * 10.0 ** rng.integers(
        -300, 300, (len(ids), 3))
    feats[0] = [0.1, -0.0, 1e-320]
    part = FeaturePartition(ids=ids, features=feats,
                            feature_names=("x 1", "x,2", "x3"))
    labels = TaskLabels(ids=ids[::-1], values=rng.standard_normal(len(ids)))
    no_cols = FeaturePartition(ids=ids, features=np.empty((len(ids), 0)),
                               feature_names=())
    for name, p, lab in (("both", part, labels), ("plain", part, None),
                         ("no-columns", no_cols, labels)):
        got, expect = tmp_path / f"{name}.csv", tmp_path / f"{name}-ref.csv"
        save_csv(got, p, lab)
        _per_row_csv(expect, p, lab)
        assert got.read_bytes() == expect.read_bytes(), name
        back = load_csv(got, "id", label_column="y" if lab else None)
        back = back[0] if lab else back
        assert back.ids == ids
        assert back.features.tobytes() == p.features.tobytes()


def test_load_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("id,x\n1,2.0\n1,3.0\n")
    with pytest.raises(err.DuplicateId):
        load_csv(p, "id")
    p.write_text("id,x\n1,apple\n")
    with pytest.raises(err.NonNumericCell):
        load_csv(p, "id")
    p.write_text("id,x\n1,2.0\n")
    with pytest.raises(err.MissingColumn):
        load_csv(p, "key")
    with pytest.raises(err.MissingColumn):
        load_csv(p, "id", label_column="y")
    p.write_text("")
    with pytest.raises(err.MissingColumn):
        load_csv(p, "id")
