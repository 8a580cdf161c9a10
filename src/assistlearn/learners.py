"""Local supervised learners.

Each participant trains only on its own columns, so the learners here are
ordinary single-table regressors with one shared contract: a fit is a
deterministic function of (inputs, hyperparameters, seed), and prediction on
the training matrix reproduces the fitted values bit-for-bit. That second
property is what lets the engine's bookkeeping (summed predictions plus final
residual equals the labels) hold at float precision. ``fit_learner`` returns
those fitted values beside the model, so callers never re-predict the rows
they trained on.

Kinds:

* ``least_squares`` / ``ridge`` - column-pivoted QR, SVD minimum-norm
  fallback on rank deficiency; the intercept is always fit and never
  penalized.
* ``regression_tree`` - exhaustive midpoint split search, ties broken toward
  the lowest feature index then the lowest threshold. Each column is
  stably argsorted once per fit ("pre-sorted column blocks", as in exact
  greedy XGBoost); every node filters those orders to its rows and scores
  all features in one pass, and the tree's fitted values come out of the
  growth itself. Prediction gives each row the number of its leaf as
  uint8, from a compare and a few integer passes per node, and reads every
  leaf value with one ``take``; trees taller than ``_CODE_HEIGHT`` split
  rows by index above it.
* ``gradient_boosting`` - mean start plus shrunken trees on residuals; one
  presort serves every stage, and prediction copies the columns once for
  all trees.
* ``dense_net`` - one tanh hidden layer trained by seeded mini-batch gradient
  descent on squared loss. ``sgd_epochs`` keeps the parameters in one flat
  buffer and gathers the rows once per epoch, bit-identical whether a run
  is cut into round slices or split between parties over any transport.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import check_int, derive_seed
from .errors import DimensionMismatch, NonFiniteLoss

LEARNER_KINDS = ("least_squares", "ridge", "regression_tree",
                 "gradient_boosting", "dense_net")
_CODE_HEIGHT = 8  # see _tree_apply; 2 ** 8 leaves fit uint8 codes

_DEFAULTS = {
    "least_squares": {"lam": 0.0},
    "ridge": {"lam": 0.0},
    "regression_tree": {"max_depth": 3, "min_leaf": 5},
    "gradient_boosting": {"stages": 100, "max_depth": 3, "min_leaf": 5,
                          "shrinkage": 0.1},
    "dense_net": {"hidden": 16, "rate": 0.01, "batch": 32, "epochs": 20,
                  "seed": 0},
}


@dataclass(frozen=True)
class LearnerSpec:
    """Learner kind plus hyperparameters, validated at construction."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in LEARNER_KINDS:
            raise ValueError(f"unknown learner kind {self.kind!r}")
        merged = dict(_DEFAULTS[self.kind])
        for key, val in self.params.items():
            if key not in merged:
                raise ValueError(f"{self.kind}: unknown parameter {key!r}")
            merged[key] = val
        _check_params(merged)
        object.__setattr__(self, "params", merged)

    @classmethod
    def from_string(cls, text: str) -> "LearnerSpec":
        """Parse "kind" or "kind:key=value,key=value" (CLI form)."""
        kind, _, rest = text.partition(":")
        params = {}
        if rest:
            for item in rest.split(","):
                key, sep, raw = item.partition("=")
                if not sep or not key or not raw:
                    raise ValueError(f"bad learner parameter {item!r}")
                try:
                    params[key.strip()] = int(raw)
                except ValueError:
                    params[key.strip()] = float(raw)
        return cls(kind=kind.strip(), params=params)


# smallest legal value of a parameter, and bounds that are themselves illegal
_AT_LEAST = {"lam": 0, "stages": 1, "max_depth": 1, "min_leaf": 1,
             "hidden": 1, "batch": 1, "epochs": 0}
_ABOVE = {"shrinkage": 0, "rate": 0}
_INTEGER = {*_AT_LEAST, "seed"} - {"lam"}  # counts, depths and seeds


def _check_params(p: dict) -> None:
    """Type and range checks shared by LearnerSpec and the fit_* functions."""
    for key, value in p.items():
        if key in _INTEGER:
            check_int(key, value)
        if key in _AT_LEAST and value < _AT_LEAST[key]:
            raise ValueError(f"{key} must be >= {_AT_LEAST[key]}")
        if key in _ABOVE and value <= _ABOVE[key]:
            raise ValueError(f"{key} must be > {_ABOVE[key]}")


# ---------------------------------------------------------------------------
# fitted models
# ---------------------------------------------------------------------------

@dataclass
class FittedModel:
    kind: str
    n: int
    p: int

    def _predict(self, X: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError


@dataclass
class LinearModel(FittedModel):
    coef: np.ndarray = None
    intercept: float = 0.0
    lam: float = 0.0

    def _predict(self, X):
        return X @ self.coef + self.intercept


@dataclass(slots=True)
class _Node:
    value: float
    feature: Optional[int] = None
    threshold: float = 0.0
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None
    height: int = field(init=False, default=0)
    leaves: int = field(init=False, default=1)
    # leaf values right to left, built on first use and stored by one
    # assignment, so no thread sees a half-filled table; derived, so it
    # takes no part in == or repr
    _values: Optional[np.ndarray] = field(init=False, default=None,
                                          compare=False, repr=False)

    def __post_init__(self):
        if not self.is_leaf:
            self.height = 1 + max(self.left.height, self.right.height)
            self.leaves = self.left.leaves + self.right.leaves

    @property
    def is_leaf(self) -> bool:
        return self.feature is None

    def leaf_values(self) -> np.ndarray:
        """The values of this subtree's leaves, numbered right to left."""
        if self._values is None:
            values, stack = [], [self]
            while stack:
                node = stack.pop()
                if node.is_leaf:
                    values.append(node.value)
                else:
                    stack += (node.left, node.right)
            self._values = np.array(values, dtype=np.float64)
        return self._values

    def codes(self, cols, first: int = 0) -> np.ndarray:
        """Number of the leaf each row lands in, as uint8.

        Leaves are numbered right to left from ``first``; all of them must
        fit below 256. ``cols[f]`` holds feature f of every row. With ``le``
        1 where a row goes left, the code is ``r + le * (l - r)``, where l
        and r are the children's codes; ``l - r >= 1`` on every row, since
        every left leaf is numbered above every right one, so nothing wraps.
        Numbered this way, a split over two leaves numbered from 0 needs no
        pass beyond its comparison.
        """
        le = (cols[self.feature] <= self.threshold).view(np.uint8)
        if self.height == 1:                 # two leaves: first + le
            return le + first if first else le
        left, right = self.left, self.right
        split = first + right.leaves         # the left child's first leaf
        l = left.codes(cols, split) if left.height else split
        if right.height:
            r = right.codes(cols, first)
            le *= l - r
            le += r
        elif first:
            le *= l - first
            le += first
        else:
            le *= l
        return le


@dataclass
class TreeModel(FittedModel):
    root: _Node = None
    max_depth: int = 0
    min_leaf: int = 0

    def _predict(self, X):
        return _tree_apply(self.root, X)


@dataclass
class BoostingModel(FittedModel):
    base_value: float = 0.0
    shrinkage: float = 0.0
    trees: tuple = ()

    def _predict(self, X):
        # accumulate in the exact order used during fitting, so the residual
        # identity holds bit-for-bit on the training matrix
        cols = _columns(X)
        out = np.full(X.shape[0], self.base_value, dtype=np.float64)
        for tree in self.trees:
            out += self.shrinkage * _tree_apply(tree, X, cols)
        return out


@dataclass
class DenseNetModel(FittedModel):
    w_in: np.ndarray = None
    b_hidden: np.ndarray = None
    w_out: np.ndarray = None
    b_out: float = 0.0

    def _predict(self, X):
        return dense_forward(X, None, self.w_in, self.b_hidden,
                             self.w_out, self.b_out)


def predict(model: FittedModel, X) -> np.ndarray:
    """Evaluate a fitted model on rows of ``X`` (n x model.p)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatch(f"X must be 2-D, got shape {X.shape}")
    if X.shape[1] != model.p:
        raise DimensionMismatch(
            f"model expects {model.p} columns, got {X.shape[1]}")
    return model._predict(X)


# ---------------------------------------------------------------------------
# least squares / ridge
# ---------------------------------------------------------------------------

def fit_least_squares(X, y, lam: float = 0.0) -> LinearModel:
    """Linear regression with an always-fit, never-penalized intercept.

    lam = 0: column-pivoted QR on the intercept-augmented design; on rank
    deficiency falls back to the SVD pseudo-inverse, i.e. the minimum-norm
    coefficient vector. lam > 0: ridge on centered data, solved as an
    augmented least-squares system, intercept recovered from the means.
    """
    X, y = _check_xy(X, y)
    _check_params({"lam": lam})
    n, p = X.shape
    if lam == 0.0:
        import scipy.linalg  # deferred: it is most of the package's import time
        A = np.column_stack([np.ones(n), X])
        q, r, piv = scipy.linalg.qr(A, mode="economic", pivoting=True)
        diag = np.abs(np.diag(r))
        ncols = A.shape[1]
        rank = 0
        if diag.size and diag[0] > 0.0:
            tol = diag[0] * max(n, ncols) * np.finfo(np.float64).eps
            rank = int(np.count_nonzero(diag > tol))
        if rank == ncols:
            sol = scipy.linalg.solve_triangular(r, q.T @ y)
            full = np.empty(ncols)
            full[piv] = sol
        else:
            full, *_ = np.linalg.lstsq(A, y, rcond=None)
        intercept, coef = float(full[0]), full[1:]
    else:
        x_mean = X.mean(axis=0)
        y_mean = float(y.mean())
        Xc = X - x_mean
        aug = np.vstack([Xc, math.sqrt(lam) * np.eye(p)])
        rhs = np.concatenate([y - y_mean, np.zeros(p)])
        coef, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
        intercept = y_mean - float(x_mean @ coef)
    return LinearModel(kind="least_squares", n=n, p=p, coef=coef,
                       intercept=intercept, lam=lam)


# ---------------------------------------------------------------------------
# regression tree
# ---------------------------------------------------------------------------

def fit_regression_tree(X, y, max_depth: int = 3,
                        min_leaf: int = 5) -> TreeModel:
    """CART-style regression tree, squared error, exhaustive split search.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values (the lower value where the midpoint rounds up to the upper one,
    as it can between adjacent doubles). The split maximizing the
    sum-of-squares reduction wins; exact ties go to the lowest feature
    index, then the lowest threshold. A zero reduction still splits (two
    constant half-planes can need it); a pure or too-small node becomes a
    leaf holding the mean.
    """
    return _fit_tree(X, y, max_depth, min_leaf)[0]


def _fit_tree(X, y, max_depth, min_leaf):
    X, y = _check_xy(X, y)
    _check_params({"max_depth": max_depth, "min_leaf": min_leaf})
    root, fitted = _grow_tree(_SortedColumns(X), y, max_depth, min_leaf)
    model = TreeModel(kind="regression_tree", n=X.shape[0], p=X.shape[1],
                      root=root, max_depth=max_depth, min_leaf=min_leaf)
    return model, fitted


class _SortedColumns:
    """The columns of X, each stably argsorted once per fit.

    ``order[f]`` lists the rows by ascending ``X[:, f]``, ties by row number.
    Filtering it to a node's rows gives exactly what a stable argsort of the
    node's own column would, so no node sorts again; boosting shares one
    instance across all its stages, since X does not change.
    """

    def __init__(self, X: np.ndarray):
        self.values = np.ascontiguousarray(X.T)
        self.order = np.ascontiguousarray(
            np.argsort(X, axis=0, kind="stable").T)
        # where each feature's row starts in values.ravel()
        self.offsets = np.arange(X.shape[1])[:, None] * X.shape[0]

    def sorted_values(self, order: np.ndarray) -> np.ndarray:
        """values[f, order[f]] for every f, as one flat gather."""
        return self.values.ravel().take(order + self.offsets)


def _grow_tree(cols: _SortedColumns, y: np.ndarray, max_depth: int,
               min_leaf: int):
    """Grow one tree on presorted columns; returns (root, fitted values).

    A node carries its rows twice: ``idx`` in ascending row order, over which
    its mean and parent SSE are summed (``np.mean`` sums pairwise, so the
    order fixes the bits), and ``order``, a (p, n_node) array of the same
    rows sorted by each feature. ``fitted[i]`` is the value of the leaf that
    row i lands in, which is what ``predict`` gives on the training rows.
    """
    fitted = np.empty(y.shape[0])
    goes_left = np.empty(y.shape[0], dtype=bool)

    def grow(idx, order, depth):
        ys = y[idx]
        mean = float(ys.mean())
        if depth >= max_depth or len(idx) < 2 * min_leaf or np.all(ys == ys[0]):
            fitted[idx] = mean
            return _Node(value=mean)
        parent = float(np.sum((ys - mean) ** 2))
        found = _best_split(cols.sorted_values(order), y[order], parent,
                            min_leaf)
        if found is None:
            fitted[idx] = mean
            return _Node(value=mean)
        feat, thresh = found
        left = cols.values[feat, idx] <= thresh
        goes_left[idx] = left
        sel = goes_left[order]
        p, n_left = order.shape[0], int(np.count_nonzero(left))
        n_right = len(idx) - n_left
        return _Node(value=mean, feature=feat, threshold=thresh,
                     left=grow(idx[left], order[sel].reshape(p, n_left),
                               depth + 1),
                     right=grow(idx[~left], order[~sel].reshape(p, n_right),
                                depth + 1))

    root = grow(np.arange(y.shape[0]), cols.order, 0)
    return root, fitted


def _best_split(vs, yo, parent, min_leaf):
    """Score every cut of every feature in one pass; (feature, threshold).

    Row f of ``vs`` holds the node's values of feature f in ascending order
    and row f of ``yo`` the targets in that order. A cut after the first c
    sorted rows is legal when both sides keep ``min_leaf`` rows and the
    values on either side of it differ. The first maximum in row-major order
    is the lowest feature, then the lowest threshold. None if no cut is
    legal.
    """
    p, n = vs.shape
    if p == 0:
        return None
    lo, hi = min_leaf, n - min_leaf          # left block sizes lo..hi
    csum = np.cumsum(yo, axis=1)
    csq = np.cumsum(yo * yo, axis=1)
    n_l = np.arange(lo, hi + 1, dtype=np.float64)
    n_r = n - n_l
    s_l = csum[:, lo - 1:hi]
    q_l = csq[:, lo - 1:hi]
    sse = (q_l - s_l * s_l / n_l) \
        + ((csq[:, -1:] - q_l) - (csum[:, -1:] - s_l) ** 2 / n_r)
    gains = parent - sse
    gains[vs[:, lo:hi + 1] <= vs[:, lo - 1:hi]] = -np.inf
    # per feature, the first maximum; a feature whose maximum is NaN never
    # wins, and none wins unless it beats -inf
    cut = gains.argmax(axis=1)
    best = gains[np.arange(p), cut]
    best[np.isnan(best)] = -np.inf
    feat = int(best.argmax())
    if not best[feat] > -np.inf:
        return None
    c = lo + int(cut[feat])
    a, b = float(vs[feat, c - 1]), float(vs[feat, c])
    mid = (a + b) / 2.0
    # between adjacent doubles the midpoint can round up to b (or overflow
    # to inf), and x <= b would send every row left; a splits them as meant
    return feat, mid if mid < b else a


def _columns(X: np.ndarray) -> list:
    """X's columns, each a contiguous copy.

    One copy per column rather than one transposed matrix: a (15000, 3)
    transpose is 360 KB, past glibc malloc's 128 KB mmap threshold, and
    once a larger predict had run in the process, freeing and regrowing it
    made a stump's predict on those rows 4-5 times slower (page faults). A
    column of up to 16384 doubles stays below the threshold, as the output
    vector does.
    """
    return [np.ascontiguousarray(X[:, f]) for f in range(X.shape[1])]


def _tree_apply(root: _Node, X: np.ndarray,
                cols: list | None = None) -> np.ndarray:
    """Leaf value of each row of X; ``x <= threshold`` goes left, NaN right.

    ``cols`` is ``_columns(X)``, made here if not given. A subtree at most
    ``_CODE_HEIGHT`` tall routes all its rows at once: ``_Node.codes``
    gives each row its leaf's number as uint8, one compare and at most
    three uint8 passes per node, and one ``take`` from the leaf values
    reads the output, so no double goes through arithmetic. A taller one
    splits its rows by index, so deep trees stay O(depth x rows), not
    O(nodes x rows).
    """
    if cols is None:
        cols = _columns(X)
    if root.height <= _CODE_HEIGHT:
        if root.height:
            return root.leaf_values().take(root.codes(cols))
        return np.full(X.shape[0], root.value)
    out = np.empty(X.shape[0], dtype=np.float64)
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            out[idx] = node.value
        elif node.height <= _CODE_HEIGHT:
            out[idx] = node.leaf_values().take(
                node.codes([col.take(idx) for col in cols]))
        else:
            mask = cols[node.feature].take(idx) <= node.threshold
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
    return out


# ---------------------------------------------------------------------------
# gradient boosting
# ---------------------------------------------------------------------------

def fit_gradient_boosting(X, y, stages: int = 100, max_depth: int = 3,
                          min_leaf: int = 5,
                          shrinkage: float = 0.1) -> BoostingModel:
    """Mean start, then ``stages`` shrunken trees fit to current residuals.

    The running prediction is kept explicitly and every residual is computed
    as y minus that accumulator, so re-predicting on the training matrix
    reproduces the fitting residuals bit-for-bit, and a prefix of ``trees``
    predicts exactly what a fit with that many stages would. With shrinkage
    in (0, 2] the training MSE never increases from one stage to the next.
    """
    return _fit_boosting(X, y, stages, max_depth, min_leaf, shrinkage)[0]


def _fit_boosting(X, y, stages, max_depth, min_leaf, shrinkage):
    X, y = _check_xy(X, y)
    _check_params({"stages": stages, "max_depth": max_depth,
                   "min_leaf": min_leaf, "shrinkage": shrinkage})
    cols = _SortedColumns(X)
    base = float(y.mean())
    pred = np.full(y.shape[0], base, dtype=np.float64)
    trees = []
    for _ in range(stages):
        root, fitted = _grow_tree(cols, y - pred, max_depth, min_leaf)
        pred += shrinkage * fitted
        trees.append(root)
    model = BoostingModel(kind="gradient_boosting", n=X.shape[0],
                          p=X.shape[1], base_value=base, shrinkage=shrinkage,
                          trees=tuple(trees))
    return model, pred


# ---------------------------------------------------------------------------
# dense net (one tanh hidden layer) - shared core also drives the
# split-network engine, which adds a partner's pre-activation as an offset
# ---------------------------------------------------------------------------

def dense_init(p: int, hidden: int, seed: int):
    """Seeded symmetric-uniform init: weights ±1/sqrt(fan_in), zero biases.

    Input weights are drawn first, row-major, then output weights; a caller
    holding only a block of input rows can reproduce its slice by drawing the
    full matrix and keeping its rows.
    """
    rng = np.random.default_rng(seed)
    lim_in = 1.0 / math.sqrt(p) if p > 0 else 0.0
    w_in = rng.uniform(-lim_in, lim_in, size=(p, hidden))
    b_hidden = np.zeros(hidden)
    lim_out = 1.0 / math.sqrt(hidden)
    w_out = rng.uniform(-lim_out, lim_out, size=hidden)
    return w_in, b_hidden, w_out, 0.0


def dense_forward(X, offset, w_in, b_hidden, w_out, b_out) -> np.ndarray:
    """Network output; ``offset`` is an optional additive pre-activation."""
    z = X @ w_in + b_hidden
    if offset is not None:
        z = z + offset
    return np.tanh(z) @ w_out + b_out


def _dense_views(flat: np.ndarray, p: int, hidden: int):
    """(w_in, b_hidden, w_out, b_out) as views of one flat buffer."""
    k = p * hidden
    return (flat[:k].reshape(p, hidden), flat[k:k + hidden],
            flat[k + hidden:k + 2 * hidden], flat[k + 2 * hidden:])


def dense_loss_and_grads(X, offset, y, w_in, b_hidden, w_out, b_out,
                         grads=None):
    """Mean-squared loss and analytic gradients for one parameter block set.

    Gradients flow to (w_in, b_hidden, w_out, b_out) only; ``offset`` is a
    constant. Central finite differences with step 1e-5 agree to a relative
    1e-4, which the tests pin down. The gradients are written into
    ``grads``, views as ``_dense_views`` lays them out, or a fresh buffer.
    """
    n = y.shape[0]
    g_win, g_bhid, g_wout, g_bout = grads or _dense_views(
        np.empty(w_in.size + 2 * w_in.shape[1] + 1), *w_in.shape)
    h = X @ w_in
    h += b_hidden
    if offset is not None:
        h += offset
    np.tanh(h, out=h)
    d = h @ w_out
    d += b_out
    d -= y                                   # the error
    loss = float(np.add.reduce(d * d) / n)   # what np.mean computes
    d *= 2.0 / n
    np.matmul(h.T, d, out=g_wout)
    g_bout[0] = np.add.reduce(d)
    h *= h
    np.subtract(1.0, h, out=h)               # tanh' = 1 - h^2
    dz = d[:, None] * w_out                  # np.outer(d, w_out)
    dz *= h
    np.matmul(X.T, dz, out=g_win)
    np.add.reduce(dz, axis=0, out=g_bhid)
    return loss, (g_win, g_bhid, g_wout, float(g_bout[0]))


def _epoch_order(n: int, batch: int, seed: int, epoch: int) -> np.ndarray:
    # full-batch epochs skip the shuffle: one batch sees every row anyway,
    # and a stable order keeps mirrored updates bit-identical
    if batch >= n:
        return np.arange(n)
    return np.random.default_rng(derive_seed(seed, "epoch", epoch)).permutation(n)


def sgd_epochs(X, offset, y, params, rate, batch, epochs, seed,
               first_epoch: int = 0):
    """Run seeded mini-batch SGD epochs; returns updated parameter copies.

    ``first_epoch`` positions the batch-shuffle stream, so a training run cut
    into round-sized slices consumes the identical stream as one uncut run.
    Raises NonFiniteLoss the moment a batch loss stops being finite.
    """
    p, hidden = np.shape(params[0])
    if np.shape(params[1]) != (hidden,) or np.shape(params[2]) != (hidden,):
        raise DimensionMismatch(f"b_hidden and w_out need {hidden} entries")
    theta = np.concatenate([np.ravel(params[0]), params[1], params[2],
                            [params[3]]], dtype=np.float64)
    grad = np.empty_like(theta)
    w_in, b_hidden, w_out, b_out = _dense_views(theta, p, hidden)
    grads = _dense_views(grad, p, hidden)
    n = y.shape[0]
    for e in range(first_epoch, first_epoch + epochs):
        order = _epoch_order(n, batch, seed, e)
        Xe, ye = X[order], y[order]
        oe = offset[order] if offset is not None else None
        for start in range(0, n, batch):
            stop = start + batch
            loss, _ = dense_loss_and_grads(
                Xe[start:stop], None if oe is None else oe[start:stop],
                ye[start:stop], w_in, b_hidden, w_out, b_out, grads)
            if not math.isfinite(loss):
                raise NonFiniteLoss(f"loss diverged at epoch {e}")
            grad *= rate
            theta -= grad
    return w_in, b_hidden, w_out, float(b_out[0])


def fit_dense_net(X, y, hidden: int = 16, epochs: int = 20,
                  rate: float = 0.01, batch: int = 32,
                  seed: int = 0) -> DenseNetModel:
    """One-hidden-layer tanh net trained by seeded mini-batch SGD."""
    X, y = _check_xy(X, y)
    _check_params({"hidden": hidden, "rate": rate, "batch": batch,
                   "epochs": epochs, "seed": seed})
    params = dense_init(X.shape[1], hidden, seed)
    params = sgd_epochs(X, None, y, params, rate, batch, epochs, seed)
    w_in, b_hidden, w_out, b_out = params
    if not (np.all(np.isfinite(w_in)) and np.all(np.isfinite(b_hidden))
            and np.all(np.isfinite(w_out)) and math.isfinite(b_out)):
        raise NonFiniteLoss("parameters diverged")
    return DenseNetModel(kind="dense_net", n=X.shape[0], p=X.shape[1],
                         w_in=w_in, b_hidden=b_hidden, w_out=w_out,
                         b_out=b_out)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def fit_learner(spec: LearnerSpec, X, y, seed: int | None = None):
    """Fit by spec; returns ``(model, fitted)``.

    ``fitted`` is the model's output on the training rows ``X`` and equals
    ``predict(model, X)`` bit for bit. Trees and boosting read it off their
    growth, which already places every training row in a leaf; linear and
    dense kinds compute it with that ``predict`` call. ``seed`` overrides the
    spec seed for stochastic kinds.
    """
    p = spec.params
    if spec.kind == "regression_tree":
        return _fit_tree(X, y, p["max_depth"], p["min_leaf"])
    if spec.kind == "gradient_boosting":
        return _fit_boosting(X, y, p["stages"], p["max_depth"],
                             p["min_leaf"], p["shrinkage"])
    if spec.kind in ("least_squares", "ridge"):
        model = fit_least_squares(X, y, lam=p["lam"])
    else:
        model = fit_dense_net(X, y, hidden=p["hidden"], epochs=p["epochs"],
                              rate=p["rate"], batch=p["batch"],
                              seed=p["seed"] if seed is None else seed)
    return model, predict(model, X)


def _check_xy(X, y):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise DimensionMismatch(f"X must be 2-D, got shape {X.shape}")
    if y.ndim != 1:
        raise DimensionMismatch(f"y must be 1-D, got shape {y.shape}")
    if X.shape[0] != y.shape[0]:
        raise DimensionMismatch(
            f"{X.shape[0]} feature rows vs {y.shape[0]} labels")
    if X.shape[0] < 1:
        raise DimensionMismatch("need at least one row")
    return X, y
