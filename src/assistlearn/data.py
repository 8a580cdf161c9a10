"""Synthetic data generators, CSV loading and deterministic splits.

All randomness flows through ``numpy.random.default_rng`` (PCG64), so a seed
pins the byte-exact stream across runs, platforms and transports. Row ids are
zero-padded decimal strings: lexicographic order equals numeric order.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import FeaturePartition, TaskLabels
from .errors import DuplicateId, MissingColumn, NonNumericCell

_ID_WIDTH = 8


def _row_ids(n: int) -> tuple[str, ...]:
    return tuple(f"{i:0{_ID_WIDTH}d}" for i in range(n))


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a generated dataset."""

    kind: str                      # "friedman1" | "linear"
    n: int
    noise_sd: float = 1.0
    seed: int = 0
    coefficients: tuple[float, ...] | None = None   # linear only
    correlation: float = 0.0                        # linear only
    extra_noise_features: int = 0                   # friedman1 only

    def __post_init__(self):
        if self.kind not in ("friedman1", "linear"):
            raise ValueError(f"unknown synthetic kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be >= 0")
        if not 0.0 <= self.correlation < 1.0:
            raise ValueError("correlation must be in [0, 1)")
        if self.extra_noise_features < 0:
            raise ValueError("extra_noise_features must be >= 0")
        if self.coefficients is not None:
            object.__setattr__(self, "coefficients",
                               tuple(float(c) for c in self.coefficients))


@dataclass(frozen=True)
class SplitSpec:
    """Train fraction + seed for a disjoint train/test id split."""

    fraction: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.fraction < 1.0:
            raise ValueError("fraction must be in (0, 1)")


def gen_friedman1(spec: SyntheticSpec) -> tuple[FeaturePartition, TaskLabels]:
    """Benchmark regression surface over five independent uniform features.

    y = 10*sin(pi*x1*x2) + 20*(x3 - 0.5)^2 + 10*x4 + 5*x5 + noise, features
    uniform on [0, 1). Only the five active features are emitted unless
    ``extra_noise_features`` asks for inert uniform columns x6, x7, ...
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    X = rng.random((n, 5))
    y = (10.0 * np.sin(np.pi * X[:, 0] * X[:, 1])
         + 20.0 * (X[:, 2] - 0.5) ** 2
         + 10.0 * X[:, 3]
         + 5.0 * X[:, 4])
    if spec.noise_sd > 0:
        y = y + spec.noise_sd * rng.standard_normal(n)
    names = ["x1", "x2", "x3", "x4", "x5"]
    if spec.extra_noise_features:
        extra = rng.random((n, spec.extra_noise_features))
        X = np.column_stack([X, extra])
        names += [f"x{5 + j}" for j in range(1, spec.extra_noise_features + 1)]
    ids = _row_ids(n)
    part = FeaturePartition(ids=ids, features=X, feature_names=tuple(names))
    return part, TaskLabels(ids=ids, values=y)


def gen_linear(spec: SyntheticSpec) -> tuple[FeaturePartition, TaskLabels]:
    """Gaussian design with equicorrelated columns and a linear response.

    Columns have pairwise correlation ``spec.correlation``. When n > p the
    design is *exactly* moment-matched: columns are centered and recolored so
    the sample Gram equals n times the target covariance. That makes
    population statements (orthogonality at rho=0, principal angles at
    rho>0) hold in the sample itself, which the convergence guarantees of the
    residual chain are about. For n <= p the raw draw is returned.
    """
    if spec.coefficients is None:
        raise ValueError("gen_linear needs coefficients")
    beta = np.asarray(spec.coefficients, dtype=np.float64)
    p = beta.shape[0]
    if p < 1:
        raise ValueError("need at least one coefficient")
    n = spec.n
    rng = np.random.default_rng(spec.seed)
    G = rng.standard_normal((n, p))
    rho = spec.correlation
    sigma = np.full((p, p), rho, dtype=np.float64)
    np.fill_diagonal(sigma, 1.0)
    L = np.linalg.cholesky(sigma)
    if n > p:
        G = G - G.mean(axis=0)
        Q, _ = np.linalg.qr(G)          # n x p, orthonormal, columns ⟂ ones
        X = math.sqrt(n) * (Q @ L.T)    # sample Gram is exactly n * sigma
    else:
        X = G @ L.T
    y = X @ beta
    if spec.noise_sd > 0:
        y = y + spec.noise_sd * rng.standard_normal(n)
    ids = _row_ids(n)
    names = tuple(f"x{j}" for j in range(1, p + 1))
    part = FeaturePartition(ids=ids, features=X, feature_names=names)
    return part, TaskLabels(ids=ids, values=y)


def generate(spec: SyntheticSpec) -> tuple[FeaturePartition, TaskLabels]:
    if spec.kind == "friedman1":
        return gen_friedman1(spec)
    return gen_linear(spec)


def load_csv(path, id_column: str, label_column: str | None = None):
    """Read a partition (and optionally labels) from a CSV file.

    Every non-id column must parse as a float. Returns a FeaturePartition, or
    a (FeaturePartition, TaskLabels) pair when ``label_column`` is given.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MissingColumn(f"{path}: empty file") from None
        if id_column not in header:
            raise MissingColumn(f"{path}: no id column {id_column!r}")
        if label_column is not None and label_column not in header:
            raise MissingColumn(f"{path}: no label column {label_column!r}")
        id_pos = header.index(id_column)
        label_pos = header.index(label_column) if label_column else None
        feat_pos = [j for j, name in enumerate(header)
                    if j != id_pos and j != label_pos]
        ids: list[str] = []
        rows: list[list[float]] = []
        labels: list[float] = []
        seen: set[str] = set()
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            sid = row[id_pos]
            if sid in seen:
                raise DuplicateId(f"{path}:{line_no}: duplicate id {sid!r}")
            seen.add(sid)
            ids.append(sid)
            try:
                rows.append([float(row[j]) for j in feat_pos])
                if label_pos is not None:
                    labels.append(float(row[label_pos]))
            except (ValueError, IndexError) as exc:
                raise NonNumericCell(f"{path}:{line_no}: {exc}") from None
    feats = np.array(rows, dtype=np.float64).reshape(len(ids), len(feat_pos))
    part = FeaturePartition(ids=tuple(ids), features=feats,
                            feature_names=tuple(header[j] for j in feat_pos))
    if label_column is None:
        return part
    return part, TaskLabels(ids=tuple(ids), values=np.array(labels))


def save_csv(path, partition: FeaturePartition,
             labels: TaskLabels | None = None,
             id_column: str = "id", label_column: str = "y") -> None:
    """Write a partition (and optional labels) so load_csv round-trips it.

    Floats are written with repr, the shortest string that parses back to
    the identical double.
    """
    y = labels.lookup(partition.ids).tolist() if labels else None
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        head = [id_column, *partition.feature_names]
        if y is not None:
            head.append(label_column)
        writer.writerow(head)
        for i, sid in enumerate(partition.ids):
            row = [sid] + [repr(v) for v in partition.features[i].tolist()]
            if y is not None:
                row.append(repr(y[i]))
            writer.writerow(row)


def split(ids: Sequence[str],
          spec: SplitSpec) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Split ids into (train, test), both sorted, disjoint, covering.

    The train side gets floor(fraction * n) ids, drawn by a seeded
    permutation.
    """
    ids = tuple(ids)
    n = len(ids)
    if n < 2:
        raise ValueError("need at least two ids to split")
    return _permuted_split(ids, _train_count(n, spec.fraction), spec.seed)


def split_counts(ids: Sequence[str], n_train: int,
                 seed: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Exact-count variant of :func:`split` for harness configs."""
    ids = tuple(ids)
    if not 0 < n_train < len(ids):
        raise ValueError("n_train must leave both sides non-empty")
    return _permuted_split(ids, n_train, seed)


def _permuted_split(ids: tuple[str, ...], k: int,
                    seed: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The first ``k`` ids of a seeded permutation, and the rest; both
    sorted."""
    perm = np.random.default_rng(seed).permutation(len(ids))
    train = tuple(sorted(ids[i] for i in perm[:k]))
    test = tuple(sorted(ids[i] for i in perm[k:]))
    return train, test


def _train_count(n: int, fraction: float) -> int:
    # floor with a hair of slack so 0.7 * 10 reliably lands on 7
    return int(math.floor(fraction * n + 1e-9))
