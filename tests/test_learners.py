import dataclasses
import math
import sys
import threading
import warnings

import numpy as np
import pytest

from assistlearn import learners
from assistlearn.core import derive_seed
from assistlearn.errors import DimensionMismatch, NonFiniteLoss
from assistlearn.learners import (LEARNER_KINDS, BoostingModel, LearnerSpec,
                                  _Node, _tree_apply, dense_init,
                                  dense_loss_and_grads, fit_dense_net,
                                  fit_gradient_boosting, fit_learner,
                                  fit_least_squares, fit_regression_tree,
                                  predict, sgd_epochs)


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------

def test_spec_defaults_and_overrides():
    spec = LearnerSpec("gradient_boosting", {"stages": 10})
    assert spec.params["stages"] == 10
    assert spec.params["shrinkage"] == 0.1
    with pytest.raises(ValueError):
        LearnerSpec("nearest_neighbour")
    with pytest.raises(ValueError):
        LearnerSpec("ridge", {"alpha": 1.0})
    with pytest.raises(ValueError):
        LearnerSpec("regression_tree", {"max_depth": 0})


def test_spec_from_string():
    spec = LearnerSpec.from_string("regression_tree:max_depth=4,min_leaf=2")
    assert spec.kind == "regression_tree"
    assert spec.params["max_depth"] == 4 and spec.params["min_leaf"] == 2
    assert LearnerSpec.from_string("ridge:lam=0.5").params["lam"] == 0.5
    assert LearnerSpec.from_string("least_squares").kind == "least_squares"
    with pytest.raises(ValueError):
        LearnerSpec.from_string("ridge:lam")


# ---------------------------------------------------------------------------
# least squares / ridge
# ---------------------------------------------------------------------------

def test_least_squares_recovers_exact_line():
    # y = 2x - 1 through four points: normal equations give (2, -1) exactly
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = 2.0 * X[:, 0] - 1.0
    m = fit_least_squares(X, y)
    assert m.coef[0] == pytest.approx(2.0, abs=1e-12)
    assert m.intercept == pytest.approx(-1.0, abs=1e-12)
    assert np.allclose(predict(m, X), y, atol=1e-12)


def test_least_squares_matches_lstsq_oracle():
    rng = np.random.default_rng(8)
    for trial in range(10):
        n, p = int(rng.integers(10, 60)), int(rng.integers(1, 6))
        X = rng.standard_normal((n, p))
        y = rng.standard_normal(n)
        m = fit_least_squares(X, y)
        A = np.column_stack([np.ones(n), X])
        ref, *_ = np.linalg.lstsq(A, y, rcond=None)
        assert np.allclose(np.r_[m.intercept, m.coef], ref,
                           rtol=1e-9, atol=1e-9), f"trial {trial}"


def test_least_squares_rank_deficient_uses_minimum_norm():
    X = np.column_stack([np.arange(5.0), np.arange(5.0)])  # duplicate column
    y = np.array([1.0, 2.0, 2.5, 4.0, 5.1])
    m = fit_least_squares(X, y)
    A = np.column_stack([np.ones(5), X])
    ref = np.linalg.pinv(A) @ y
    assert np.allclose(np.r_[m.intercept, m.coef], ref, atol=1e-10)
    # both duplicate columns share the weight
    assert m.coef[0] == pytest.approx(m.coef[1], abs=1e-10)


def test_ridge_matches_closed_form():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((40, 3))
    y = rng.standard_normal(40)
    lam = 0.7
    m = fit_least_squares(X, y, lam=lam)
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    ref = np.linalg.solve(Xc.T @ Xc + lam * np.eye(3), Xc.T @ yc)
    assert np.allclose(m.coef, ref, atol=1e-10)
    assert m.intercept == pytest.approx(
        y.mean() - X.mean(axis=0) @ ref, abs=1e-10)
    with pytest.raises(ValueError):
        fit_least_squares(X, y, lam=-1.0)


def test_ridge_shrinks_towards_zero():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((30, 4))
    y = X @ np.array([3.0, -2.0, 1.0, 0.5]) + 0.1 * rng.standard_normal(30)
    norms = [np.linalg.norm(fit_least_squares(X, y, lam=lam).coef)
             for lam in (0.0, 1.0, 10.0, 100.0)]
    assert norms == sorted(norms, reverse=True)


# ---------------------------------------------------------------------------
# regression tree
# ---------------------------------------------------------------------------

def test_tree_four_point_oracle():
    # best cut of [0 0 1 1] is between rows 1 and 2; threshold is the midpoint
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    t = fit_regression_tree(X, y, max_depth=1, min_leaf=1)
    assert t.root.feature == 0
    assert t.root.threshold == 1.5
    assert t.root.left.value == 0.0 and t.root.right.value == 1.0
    assert predict(t, X).tolist() == y.tolist()
    assert predict(t, [[1.5]]).tolist() == [0.0]  # boundary goes left


def test_tree_fits_xor_at_depth_two():
    # the first split has zero gain; refusing it would lose the exact fit
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0.0, 1.0, 1.0, 0.0])
    t = fit_regression_tree(X, y, max_depth=2, min_leaf=1)
    assert np.array_equal(predict(t, X), y)
    assert fit_regression_tree(X, y, max_depth=1, min_leaf=1) \
        .root.feature is not None


def test_tree_tie_goes_to_lowest_feature_and_threshold():
    X = np.column_stack([np.arange(4.0), np.arange(4.0)])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    t = fit_regression_tree(X, y, max_depth=1, min_leaf=1)
    assert t.root.feature == 0
    yflat = np.array([1.0, 1.0, 1.0, 1.0])
    leaf = fit_regression_tree(X, yflat, max_depth=3, min_leaf=1)
    assert leaf.root.is_leaf and leaf.root.value == 1.0


def test_tree_min_leaf_is_respected():
    X = np.arange(6.0).reshape(-1, 1)
    y = np.array([0.0, 0.0, 0.0, 5.0, 5.0, 5.0])
    t = fit_regression_tree(X, y, max_depth=3, min_leaf=3)
    # only the middle cut leaves 3 rows on each side
    assert t.root.threshold == 2.5
    assert t.root.left.is_leaf and t.root.right.is_leaf
    small = fit_regression_tree(X, y, max_depth=3, min_leaf=4)
    assert small.root.is_leaf  # 6 < 2*4 rows: no legal split at all


def test_cut_between_adjacent_doubles_splits_the_rows():
    # (a + b) / 2 rounds up to b here, so a midpoint threshold would send
    # every row left and leave a NaN leaf on the right
    a = np.nextafter(1.0, 2.0)
    b = np.nextafter(a, 2.0)
    assert (a + b) / 2.0 == b
    X = np.array([[a], [a], [b], [b], [b]])
    y = np.array([0.0, 0.0, 1.0, 1.0, 1.0])

    def leaf_values(node):
        if node.is_leaf:
            return [node.value]
        return leaf_values(node.left) + leaf_values(node.right)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model, fitted = fit_learner(
            LearnerSpec("regression_tree", {"max_depth": 2, "min_leaf": 1}),
            X, y)
        assert fitted.tolist() == [0.0, 0.0, 1.0, 1.0, 1.0]
        assert predict(model, X).tolist() == fitted.tolist()
        assert model.root.threshold == a
        assert not np.isnan(leaf_values(model.root)).any()


def test_tree_depth_limit():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((200, 3))
    y = rng.standard_normal(200)

    def depth(node):
        if node.is_leaf:
            return 0
        return 1 + max(depth(node.left), depth(node.right))

    for d in (1, 2, 4):
        t = fit_regression_tree(X, y, max_depth=d, min_leaf=1)
        assert depth(t.root) <= d


def test_tree_training_error_drops_with_depth():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((300, 4))
    y = np.sin(X[:, 0]) + X[:, 1] ** 2 + 0.1 * rng.standard_normal(300)
    errs = [float(np.mean((y - predict(fit_regression_tree(
        X, y, max_depth=d, min_leaf=5), X)) ** 2)) for d in (1, 2, 3, 5)]
    assert all(a >= b - 1e-12 for a, b in zip(errs, errs[1:]))


def test_tree_input_validation():
    with pytest.raises(ValueError):
        fit_regression_tree(np.ones((3, 1)), np.ones(3), max_depth=0)
    with pytest.raises(ValueError):
        fit_regression_tree(np.ones((3, 1)), np.ones(3), min_leaf=0)
    with pytest.raises(DimensionMismatch):
        fit_regression_tree(np.ones((3, 1)), np.ones(4))


# The per-node grower the presorted one replaced: each node argsorts its own
# rows of every column and scores one feature at a time. The new grower must
# build the same tree, node for node and bit for bit.

def _ref_grow_tree(X, y, idx, depth, max_depth, min_leaf):
    ys = y[idx]
    mean = float(ys.mean())
    if depth >= max_depth or len(idx) < 2 * min_leaf or np.all(ys == ys[0]):
        return _Node(value=mean)
    found = _ref_best_split(X[idx], ys, min_leaf)
    if found is None:
        return _Node(value=mean)
    feat, thresh = found
    mask = X[idx, feat] <= thresh
    left = _ref_grow_tree(X, y, idx[mask], depth + 1, max_depth, min_leaf)
    right = _ref_grow_tree(X, y, idx[~mask], depth + 1, max_depth, min_leaf)
    return _Node(value=mean, feature=feat, threshold=thresh,
                 left=left, right=right)


def _ref_best_split(Xs, ys, min_leaf):
    n = ys.shape[0]
    parent = float(np.sum((ys - ys.mean()) ** 2))
    best_gain = -np.inf
    best = None
    for feat in range(Xs.shape[1]):
        col = Xs[:, feat]
        order = np.argsort(col, kind="stable")
        vs = col[order]
        yo = ys[order]
        cuts = np.nonzero(vs[1:] > vs[:-1])[0] + 1   # left block sizes
        if cuts.size == 0:
            continue
        cuts = cuts[(cuts >= min_leaf) & (n - cuts >= min_leaf)]
        if cuts.size == 0:
            continue
        csum = np.cumsum(yo)
        csq = np.cumsum(yo * yo)
        n_l = cuts.astype(np.float64)
        n_r = n - n_l
        s_l = csum[cuts - 1]
        q_l = csq[cuts - 1]
        sse = (q_l - s_l * s_l / n_l) \
            + ((csq[-1] - q_l) - (csum[-1] - s_l) ** 2 / n_r)
        gains = parent - sse
        j = int(np.argmax(gains))        # first max = lowest threshold
        if gains[j] > best_gain:         # strict > keeps lowest feature
            best_gain = float(gains[j])
            best = (feat, float((vs[cuts[j] - 1] + vs[cuts[j]]) / 2.0))
    return best


def _ref_tree(X, y, max_depth, min_leaf):
    return _ref_grow_tree(X, y, np.arange(len(y)), 0, max_depth, min_leaf)


def _ref_boosting(X, y, stages, max_depth, min_leaf, shrinkage):
    pred = np.full(y.shape[0], float(y.mean()))
    trees = []
    for _ in range(stages):
        root = _ref_tree(X, y - pred, max_depth, min_leaf)
        pred += shrinkage * _tree_apply(root, X)
        trees.append(root)
    return trees, pred


def _nodes(node):
    """Pre-order (feature, threshold, value) triples, as exact bytes."""
    out = [(node.feature, np.float64(node.threshold).tobytes(),
            np.float64(node.value).tobytes())]
    if not node.is_leaf:
        out += _nodes(node.left) + _nodes(node.right)
    return out


def _sweep_shapes():
    """(name, X, y): ties, constant and single columns, tiny and no-column
    inputs, plus plain continuous data."""
    rng = np.random.default_rng(31)
    ties = rng.integers(0, 3, (90, 3)).astype(float)
    const = rng.standard_normal((70, 2))
    const[:, 0] = 4.0
    return [
        ("continuous", rng.standard_normal((120, 3)), rng.standard_normal(120)),
        # continuous targets: the bits of a cumulative sum over a tie block
        # depend on the row order within it
        ("ties", ties, rng.standard_normal(90)),
        ("ties-integer-targets", ties, rng.integers(0, 4, 90).astype(float)),
        # mirror-image targets: cuts c and n - c gain the same in exact
        # arithmetic
        ("mirror", np.arange(16.0).reshape(-1, 1),
         np.array([3.0, 1, 4, 1, 5, 9, 2, 6, 6, 2, 9, 5, 1, 4, 1, 3])),
        ("coarse", np.round(rng.standard_normal((80, 2)), 1),
         rng.standard_normal(80)),
        ("constant-column", const, rng.standard_normal(70)),
        ("one-column", rng.standard_normal((60, 1)), rng.standard_normal(60)),
        ("duplicate-columns", np.repeat(rng.standard_normal((50, 1)), 2, 1),
         rng.standard_normal(50)),
        ("twelve-rows", rng.standard_normal((12, 2)), rng.standard_normal(12)),
        ("one-row", np.ones((1, 2)), np.array([3.0])),
        ("no-columns", np.empty((9, 0)), rng.standard_normal(9)),
    ]


_SHAPES = _sweep_shapes()


@pytest.mark.parametrize("name, X, y", _SHAPES, ids=[s[0] for s in _SHAPES])
def test_tree_matches_the_per_node_reference_grower(name, X, y):
    n = len(y)
    # min_leaf = n // 2 is the largest that can split (n >= 2 * min_leaf);
    # one more leaves no legal cut
    for min_leaf in sorted({1, 2, 5, max(1, n // 2), n // 2 + 1}):
        for depth in (1, 2, 3, 4):
            tree = fit_regression_tree(X, y, max_depth=depth,
                                       min_leaf=min_leaf)
            expect = _ref_tree(X, y, depth, min_leaf)
            assert _nodes(tree.root) == _nodes(expect), (min_leaf, depth)
            _, fitted = fit_learner(
                LearnerSpec("regression_tree",
                            {"max_depth": depth, "min_leaf": min_leaf}), X, y)
            assert fitted.tobytes() == _tree_apply(expect, X).tobytes()


@pytest.mark.parametrize("name, X, y", _SHAPES, ids=[s[0] for s in _SHAPES])
def test_boosting_matches_the_per_node_reference_grower(name, X, y):
    for depth, min_leaf, shrinkage in ((1, 1, 1.0), (3, 2, 0.1), (4, 5, 0.5)):
        spec = LearnerSpec("gradient_boosting",
                           {"stages": 6, "max_depth": depth,
                            "min_leaf": min_leaf, "shrinkage": shrinkage})
        model, fitted = fit_learner(spec, X, y)
        trees, pred = _ref_boosting(X, y, 6, depth, min_leaf, shrinkage)
        assert [_nodes(t) for t in model.trees] == [_nodes(t) for t in trees]
        assert fitted.tobytes() == pred.tobytes()
        assert predict(model, X).tobytes() == pred.tobytes()


# The index-partition router that leaf codes replaced below the height cut:
# each node gathers its column for its rows, compares, and splits the row
# indices. The router must give the same bytes on every tree and input.

def _ref_tree_apply(root, X):
    out = np.empty(X.shape[0], dtype=np.float64)
    stack = [(root, np.arange(X.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            out[idx] = node.value
        else:
            mask = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[mask]))
            stack.append((node.right, idx[~mask]))
    return out


_GRID = np.arange(-4.0, 4.5, 0.5)   # X's values and the thresholds both


def _random_tree(rng, depth, p, leaf_chance):
    """A tree at most ``depth`` tall whose root splits; below the root each
    node is a leaf with ``leaf_chance``, so leaves sit at every level."""
    def grow(d, top):
        if d == 0 or (not top and rng.random() < leaf_chance):
            return _Node(value=float(rng.standard_normal()))
        return _Node(value=0.0, feature=int(rng.integers(p)),
                     threshold=float(rng.choice(_GRID)),
                     left=grow(d - 1, False), right=grow(d - 1, False))
    return grow(depth, True)


def _spine(depth, p):
    """A tree ``depth`` tall with one leaf beside every split, alternating
    sides: the most lopsided shape, crossing every height once."""
    node = _Node(value=-1.0)
    for d in range(depth):
        leaf = _Node(value=float(d))
        kids = (leaf, node) if d % 2 else (node, leaf)
        node = _Node(value=0.0, feature=d % p, threshold=_GRID[d],
                     left=kids[0], right=kids[1])
    return node


def _grid_rows(rng, n, p):
    """Rows on the threshold grid (so many sit exactly at a threshold), with
    some NaN features."""
    X = rng.choice(_GRID, size=(n, p))
    X[rng.random((n, p)) < 0.1] = np.nan
    return X


def _assert_routes_like_the_reference(tree, X):
    got, expect = _tree_apply(tree, X), _ref_tree_apply(tree, X)
    assert got.dtype == np.float64 and got.shape == (X.shape[0],)
    assert got.tobytes() == expect.tobytes()


# depths 9-12 pass the height cut, so leaf codes route the subtrees below
# it and index splits the nodes above
@pytest.mark.parametrize("depth", range(1, 13))
def test_tree_routing_matches_the_index_partition_reference(depth):
    rng = np.random.default_rng(40 + depth)
    p = 3
    trees = [_random_tree(rng, depth, p, 0.0), _spine(depth, p)] + [
        _random_tree(rng, depth, p, 0.3) for _ in range(6)]
    assert trees[0].height == trees[1].height == depth
    assert trees[0].leaves == 2 ** depth
    for tree in trees:
        for n in (0, 1, 2, 57, 3000):
            _assert_routes_like_the_reference(tree, _grid_rows(rng, n, p))


def _full_tree(depth, values):
    """A full tree whose level k splits on feature k at 0, so a row's signs
    pick its leaf and every leaf can be reached."""
    def grow(d):
        if d == depth:
            return _Node(value=float(next(values)))
        return _Node(value=0.0, feature=d, threshold=0.0,
                     left=grow(d + 1), right=grow(d + 1))
    return grow(0)


def test_a_full_tree_at_the_height_cut_reaches_all_256_leaves():
    assert 2 ** learners._CODE_HEIGHT <= 256   # codes are uint8
    tree = _full_tree(8, iter(np.arange(256.0) + 0.5))
    assert (tree.height, tree.leaves) == (8, 256)
    X = _grid_rows(np.random.default_rng(47), 15000, 8)
    _assert_routes_like_the_reference(tree, X)
    assert np.unique(_tree_apply(tree, X)).size == 256
    # under an index split, as the top of a taller tree
    taller = _Node(value=0.0, feature=0, threshold=-1.0,
                   left=_Node(value=-1.0), right=tree)
    assert taller.height == learners._CODE_HEIGHT + 1
    _assert_routes_like_the_reference(taller, X)


def test_tree_routing_edge_cases():
    node = _Node(value=0.0, feature=0, threshold=0.5,
                 left=_Node(value=1.0), right=_Node(value=2.0))
    assert (node.height, node.left.height) == (1, 0)
    at = np.array([[0.5], [np.nextafter(0.5, 1.0)], [np.nan], [-np.inf]])
    # a row exactly at the threshold goes left; NaN compares false: right
    assert _tree_apply(node, at).tolist() == [1.0, 2.0, 2.0, 1.0]
    deep = _spine(8, 2)
    assert deep.height == 8
    for X in (np.empty((0, 2)), np.array([[0.5, -4.0]]),
              np.full((3, 2), np.nan), np.array([[-4.0, -3.5], [3.0, 3.0]])):
        for tree in (node, deep):
            _assert_routes_like_the_reference(tree, X)
    leaf = _Node(value=3.25)
    for X in (np.empty((0, 0)), np.empty((4, 0)), np.ones((1, 2))):
        _assert_routes_like_the_reference(leaf, X)


def _layouts(X):
    """X in C and Fortran order and as a strided view of a wider matrix,
    then its first column alone and none of its rows."""
    wide = np.repeat(X, 2, axis=1)
    wide[:, 1::2] = np.nan
    return {"C": X, "fortran": np.asfortranarray(X), "strided": wide[:, ::2],
            "one-column": X[:, :1], "no-rows": X[:0]}


def test_routing_is_the_same_on_every_memory_layout():
    rng = np.random.default_rng(48)
    X = _grid_rows(rng, 2000, 3)
    layouts = _layouts(X)
    assert not layouts["strided"].flags["C_CONTIGUOUS"]
    assert layouts["fortran"].flags["F_CONTIGUOUS"]
    for depth in (1, 3, 8, 10):
        for p in (3, 1):
            tree = _random_tree(rng, depth, p, 0.2)
            for rows in layouts.values():
                if rows.shape[1] == p:
                    _assert_routes_like_the_reference(tree, rows)
    train = rng.standard_normal((300, 3))
    y = np.sin(2 * train[:, 0]) + train[:, 1] * train[:, 2]
    for p in (3, 1):
        for depth in (1, 3, 9):
            model = fit_gradient_boosting(train[:, :p], y, stages=5,
                                          max_depth=depth, min_leaf=2,
                                          shrinkage=0.5)
            tree = fit_regression_tree(train[:, :p], y, max_depth=depth,
                                       min_leaf=2)
            for name, rows in layouts.items():
                if rows.shape[1] != p:
                    continue
                expect = np.full(rows.shape[0], model.base_value)
                for t in model.trees:
                    expect += model.shrinkage * _ref_tree_apply(t, rows)
                got = predict(model, rows)
                assert got.tobytes() == expect.tobytes(), (p, depth, name)
                assert predict(tree, rows).tobytes() == \
                    _ref_tree_apply(tree.root, rows).tobytes()


def test_threads_predicting_a_fresh_model_get_the_same_bytes():
    # the leaf-value tables fill lazily on first use, so threads that start
    # together race to fill them
    rng = np.random.default_rng(49)
    X = _grid_rows(rng, 1000, 3)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for attempt in range(10):
            # full trees, whose tables take longest to fill, then lopsided
            # ones and trees taller than the height cut
            trees = tuple(_random_tree(rng, depth, 3, chance)
                          for depth, chance in ((8, 0.0),) * 4 + (
                              (3, 0.2), (8, 0.2), (11, 0.3)))
            model = BoostingModel(kind="gradient_boosting", n=1, p=3,
                                  base_value=0.25, shrinkage=0.1,
                                  trees=trees)
            expect = np.full(X.shape[0], 0.25)
            for tree in trees:
                expect += 0.1 * _ref_tree_apply(tree, X)
            start = threading.Barrier(4)
            got = [None] * 4

            def work(i):
                start.wait(timeout=10.0)
                got[i] = predict(model, X).tobytes()

            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads)
            assert got == [expect.tobytes()] * 4, attempt
    finally:
        sys.setswitchinterval(switch)


def test_boosting_predict_is_the_in_order_sum_of_its_trees():
    rng = np.random.default_rng(44)
    X = rng.standard_normal((300, 3))
    y = np.sin(2 * X[:, 0]) + X[:, 1] * X[:, 2] \
        + 0.1 * rng.standard_normal(300)
    test = rng.standard_normal((500, 3))
    test[::17, 1] = np.nan
    test[5] = X[7]
    for depth in (1, 3, 4, 7):
        model = fit_gradient_boosting(X, y, stages=12, max_depth=depth,
                                      min_leaf=3, shrinkage=0.3)
        assert max(t.height for t in model.trees) == depth
        for rows in (X, test):
            expect = np.full(rows.shape[0], model.base_value)
            for tree in model.trees:
                expect += model.shrinkage * _ref_tree_apply(tree, rows)
            assert predict(model, rows).tobytes() == expect.tobytes()


# ---------------------------------------------------------------------------
# gradient boosting
# ---------------------------------------------------------------------------

def test_boosting_single_stage_equals_mean_plus_tree():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((50, 2))
    y = rng.standard_normal(50)
    boost = fit_gradient_boosting(X, y, stages=1, max_depth=2, min_leaf=5,
                                  shrinkage=1.0)
    tree = fit_regression_tree(X, y - y.mean(), max_depth=2, min_leaf=5)
    assert np.array_equal(predict(boost, X), y.mean() + predict(tree, X))


def test_boosting_training_mse_never_increases():
    rng = np.random.default_rng(9)
    X = rng.standard_normal((200, 3))
    y = X[:, 0] * X[:, 1] + 0.3 * rng.standard_normal(200)
    m = fit_gradient_boosting(X, y, stages=40, max_depth=2, min_leaf=5,
                              shrinkage=0.1)
    assert len(m.trees) == 40
    mses = [float(np.mean((y - predict(
        dataclasses.replace(m, trees=m.trees[:k]), X)) ** 2))
        for k in range(1, 41)]
    assert all(a >= b - 1e-12 for a, b in zip(mses, mses[1:]))
    assert mses[-1] < np.var(y)


def test_boosting_residual_replays_bit_for_bit():
    rng = np.random.default_rng(10)
    X = rng.standard_normal((80, 2))
    y = rng.standard_normal(80)
    long = fit_gradient_boosting(X, y, stages=15, max_depth=3, min_leaf=5,
                                 shrinkage=0.1)
    for k in (1, 7, 15):
        short = fit_gradient_boosting(X, y, stages=k, max_depth=3,
                                      min_leaf=5, shrinkage=0.1)
        prefix = dataclasses.replace(long, trees=long.trees[:k])
        assert np.array_equal(predict(short, X), predict(prefix, X))


def test_boosting_validation():
    with pytest.raises(ValueError):
        fit_gradient_boosting(np.ones((5, 1)), np.ones(5), stages=0)
    with pytest.raises(ValueError):
        fit_gradient_boosting(np.ones((5, 1)), np.ones(5), shrinkage=-0.1)


# (kind, fit function, a legal boundary value, the first illegal one)
_BOUNDARIES = [
    ("regression_tree", fit_regression_tree, "max_depth", 1, 0),
    ("regression_tree", fit_regression_tree, "min_leaf", 1, 0),
    ("gradient_boosting", fit_gradient_boosting, "stages", 1, 0),
    ("gradient_boosting", fit_gradient_boosting, "max_depth", 1, 0),
    ("gradient_boosting", fit_gradient_boosting, "min_leaf", 1, 0),
    ("gradient_boosting", fit_gradient_boosting, "shrinkage", 1e-9, 0.0),
    ("dense_net", fit_dense_net, "hidden", 1, 0),
    ("dense_net", fit_dense_net, "rate", 1e-9, 0.0),
    ("dense_net", fit_dense_net, "batch", 1, 0),
    ("dense_net", fit_dense_net, "epochs", 0, -1),
    ("ridge", fit_least_squares, "lam", 0.0, -1e-9),
]


@pytest.mark.parametrize("kind, fit, name, ok, bad", _BOUNDARIES,
                         ids=[f"{b[0]}-{b[2]}" for b in _BOUNDARIES])
def test_fit_functions_and_spec_share_each_boundary(kind, fit, name, ok, bad):
    X = np.arange(12.0).reshape(6, 2)
    y = np.arange(6.0)
    fit(X, y, **{name: ok})
    LearnerSpec(kind, {name: ok})
    with pytest.raises(ValueError, match=name) as from_fit:
        fit(X, y, **{name: bad})
    with pytest.raises(ValueError) as from_spec:
        LearnerSpec(kind, {name: bad})
    assert str(from_fit.value) == str(from_spec.value)


# (kind, fit function, a parameter that must be an integer)
_INTEGER_PARAMS = [
    ("regression_tree", fit_regression_tree, "max_depth"),
    ("regression_tree", fit_regression_tree, "min_leaf"),
    ("gradient_boosting", fit_gradient_boosting, "stages"),
    ("gradient_boosting", fit_gradient_boosting, "max_depth"),
    ("gradient_boosting", fit_gradient_boosting, "min_leaf"),
    ("dense_net", fit_dense_net, "hidden"),
    ("dense_net", fit_dense_net, "batch"),
    ("dense_net", fit_dense_net, "epochs"),
    ("dense_net", fit_dense_net, "seed"),
]


@pytest.mark.parametrize("bad", [2.0, 2.5, True, "2"],
                         ids=["integral-float", "float", "bool", "str"])
@pytest.mark.parametrize("kind, fit, name", _INTEGER_PARAMS,
                         ids=[f"{b[0]}-{b[2]}" for b in _INTEGER_PARAMS])
def test_counts_and_seeds_must_be_integers(kind, fit, name, bad):
    X = np.arange(12.0).reshape(6, 2)
    y = np.arange(6.0)
    assert LearnerSpec(kind, {name: 2}).params[name] == 2
    assert LearnerSpec(kind, {name: np.int64(2)}).params[name] == 2
    with pytest.raises(ValueError, match=f"^{name} must be an integer") \
            as from_spec:
        LearnerSpec(kind, {name: bad})
    with pytest.raises(ValueError) as from_fit:
        fit(X, y, **{name: bad})
    assert str(from_fit.value) == str(from_spec.value)


def test_spec_strings_with_fractional_counts_are_refused():
    for text in ("dense_net:hidden=16.0", "dense_net:batch=8.5",
                 "dense_net:epochs=2.0", "dense_net:seed=1.5",
                 "gradient_boosting:stages=3.5",
                 "regression_tree:min_leaf=2.5",
                 "regression_tree:max_depth=2.5"):
        name = text.partition(":")[2].partition("=")[0]
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            LearnerSpec.from_string(text)
    assert LearnerSpec.from_string("dense_net:hidden=16").params["hidden"] == 16


def test_float_parameters_still_take_integers():
    assert LearnerSpec("ridge", {"lam": 2}).params["lam"] == 2
    assert LearnerSpec("gradient_boosting",
                       {"shrinkage": 1}).params["shrinkage"] == 1
    assert LearnerSpec.from_string("dense_net:rate=1").params["rate"] == 1
    fit_dense_net(np.ones((4, 1)), np.ones(4), rate=1, epochs=1)


# ---------------------------------------------------------------------------
# dense net
# ---------------------------------------------------------------------------

def test_dense_init_is_seeded_and_bounded():
    w_in, b_hid, w_out, b_out = dense_init(6, 8, seed=3)
    w2 = dense_init(6, 8, seed=3)
    assert np.array_equal(w_in, w2[0]) and np.array_equal(w_out, w2[2])
    assert not np.array_equal(w_in, dense_init(6, 8, seed=4)[0])
    assert np.all(np.abs(w_in) <= 1 / np.sqrt(6))
    assert np.all(np.abs(w_out) <= 1 / np.sqrt(8))
    assert np.all(b_hid == 0.0) and b_out == 0.0


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    n, p, h = 5, 3, 4
    for trial in range(3):
        X = rng.standard_normal((n, p))
        off = 0.5 * rng.standard_normal((n, h))
        y = rng.standard_normal(n)
        w_in, b_hid, w_out, b_out = dense_init(p, h, seed=trial)
        w_in = w_in + 0.1 * rng.standard_normal(w_in.shape)
        _, grads = dense_loss_and_grads(X, off, y, w_in, b_hid, w_out, b_out)
        flat = np.concatenate([grads[0].ravel(), grads[1], grads[2],
                               [grads[3]]])
        theta = np.concatenate([w_in.ravel(), b_hid, w_out, [b_out]])

        def loss_at(vec):
            wi = vec[:p * h].reshape(p, h)
            l, _ = dense_loss_and_grads(X, off, y, wi, vec[p * h:p * h + h],
                                        vec[p * h + h:p * h + 2 * h],
                                        float(vec[-1]))
            return l

        eps = 1e-5
        num = np.empty_like(theta)
        for j in range(theta.size):
            up, dn = theta.copy(), theta.copy()
            up[j] += eps
            dn[j] -= eps
            num[j] = (loss_at(up) - loss_at(dn)) / (2 * eps)
        rel = np.linalg.norm(flat - num) / np.linalg.norm(num)
        assert rel < 1e-6


def test_sgd_round_slicing_matches_uncut_run():
    """Cutting an SGD run into per-round slices must not change anything."""
    rng = np.random.default_rng(7)
    X = rng.standard_normal((90, 4))
    y = rng.standard_normal(90)
    params = dense_init(4, 6, seed=1)
    whole = sgd_epochs(X, None, y, params, 0.01, 16, 6, seed=1)
    sliced = params
    for k in range(3):
        sliced = sgd_epochs(X, None, y, sliced, 0.01, 16, 2, seed=1,
                            first_epoch=2 * k)
    for a, b in zip(whole, sliced):
        assert np.array_equal(np.asarray(a), np.asarray(b))


# A plain SGD loop over separate parameter arrays, gathering each batch by
# fancy indexing: the oracle that sgd_epochs must match byte for byte.

def _oracle_loss_and_grads(X, offset, y, w_in, b_hidden, w_out, b_out):
    n = y.shape[0]
    z = X @ w_in + b_hidden
    if offset is not None:
        z = z + offset
    h = np.tanh(z)
    pred = h @ w_out + b_out
    err = pred - y
    loss = float(np.mean(err * err))
    d = (2.0 / n) * err
    g_wout = h.T @ d
    g_bout = float(d.sum())
    dz = np.outer(d, w_out) * (1.0 - h * h)
    g_win = X.T @ dz
    g_bhid = dz.sum(axis=0)
    return loss, (g_win, g_bhid, g_wout, g_bout)


def _oracle_sgd_epochs(X, offset, y, params, rate, batch, epochs, seed,
                       first_epoch=0):
    w_in, b_hidden, w_out, b_out = (np.array(params[0], dtype=np.float64),
                                    np.array(params[1], dtype=np.float64),
                                    np.array(params[2], dtype=np.float64),
                                    float(params[3]))
    n = y.shape[0]
    for e in range(first_epoch, first_epoch + epochs):
        if batch >= n:
            order = np.arange(n)
        else:
            order = np.random.default_rng(
                derive_seed(seed, "epoch", e)).permutation(n)
        for start in range(0, n, batch):
            idx = order[start:start + batch]
            xb = X[idx]
            ob = offset[idx] if offset is not None else None
            loss, (g_win, g_bhid, g_wout, g_bout) = _oracle_loss_and_grads(
                xb, ob, y[idx], w_in, b_hidden, w_out, b_out)
            if not math.isfinite(loss):
                raise NonFiniteLoss(f"loss diverged at epoch {e}")
            w_in -= rate * g_win
            b_hidden -= rate * g_bhid
            w_out -= rate * g_wout
            b_out -= rate * g_bout
    return w_in, b_hidden, w_out, b_out


def _sgd_case(cols, offset, n):
    rng = np.random.default_rng([cols, n, int(offset)])
    X = rng.standard_normal((n, cols))
    y = rng.standard_normal(n)
    off = 0.5 * rng.standard_normal((n, 16)) if offset else None
    w_in, _, w_out, _ = dense_init(cols, 16, seed=n)
    # nonzero biases, so every parameter block carries its own bits
    params = (w_in, 0.1 * rng.standard_normal(16), w_out, 0.25)
    return X, off, y, params


def _assert_same_bytes(got, want):
    assert len(got) == len(want) == 4
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


# (rows, batch, first_epoch): a short last batch, a full batch (no
# shuffle) and a run that starts at a later epoch
_SGD_SHAPES = [(100, 16, 0), (40, 64, 0), (96, 32, 3)]


@pytest.mark.parametrize("n, batch, first", _SGD_SHAPES,
                         ids=["short-last-batch", "no-shuffle", "first-epoch"])
@pytest.mark.parametrize("offset", [False, True], ids=["own", "offset"])
@pytest.mark.parametrize("cols", [0, 1, 3])
def test_sgd_epochs_matches_the_oracle_byte_for_byte(cols, offset, n, batch,
                                                     first):
    X, off, y, params = _sgd_case(cols, offset, n)
    want = _oracle_sgd_epochs(X, off, y, params, 0.05, batch, 3, seed=4,
                              first_epoch=first)
    got = sgd_epochs(X, off, y, params, 0.05, batch, 3, seed=4,
                     first_epoch=first)
    _assert_same_bytes(got, want)
    assert isinstance(got[3], float)


@pytest.mark.parametrize("offset", [False, True], ids=["own", "offset"])
def test_dense_loss_and_grads_matches_the_oracle(offset):
    X, off, y, params = _sgd_case(3, offset, 24)
    want_loss, want = _oracle_loss_and_grads(X, off, y, *params)
    loss, got = dense_loss_and_grads(X, off, y, *params)
    assert loss == want_loss
    _assert_same_bytes(got, want)
    # caller-given gradient views are filled in place with the same bytes
    views = (np.empty((3, 16)), np.empty(16), np.empty(16), np.empty(1))
    _, into = dense_loss_and_grads(X, off, y, *params, grads=views)
    _assert_same_bytes(into, want)
    assert views[3][0] == want[3]
    for view, grad in zip(views[:3], into[:3]):
        assert view is grad


def test_sgd_epochs_leaves_read_only_inputs_alone():
    # envelope frames arrive as read-only arrays
    X, off, y, params = _sgd_case(2, True, 50)
    arrays = [X, off, y, *params[:3]]
    before = [a.copy() for a in arrays]
    for a in arrays:
        a.flags.writeable = False
    got = sgd_epochs(X, off, y, params, 0.05, 16, 2, seed=1)
    for a, b in zip(arrays, before):
        assert a.tobytes() == b.tobytes()
    for out, given in zip(got[:3], params[:3]):
        assert out.flags.writeable
        assert not np.shares_memory(out, given)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        assert not np.shares_memory(got[a], got[b])
    # zero epochs still hands back fresh copies
    idle = sgd_epochs(X, off, y, params, 0.05, 16, 0, seed=1)
    _assert_same_bytes(idle, params)
    for out, given in zip(idle[:3], params[:3]):
        assert out.flags.writeable and not np.shares_memory(out, given)


def test_sgd_divergence_names_the_oracle_epoch():
    X, off, y, params = _sgd_case(3, True, 64)
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteLoss) as want:
            _oracle_sgd_epochs(X, off, y, params, 1e12, 16, 6, seed=2,
                               first_epoch=5)
        with pytest.raises(NonFiniteLoss) as got:
            sgd_epochs(X, off, y, params, 1e12, 16, 6, seed=2,
                       first_epoch=5)
    assert str(got.value) == str(want.value)
    assert "epoch" in str(got.value)


def test_sgd_epochs_refuses_mismatched_shared_vectors():
    X, off, y, (w_in, b_hid, w_out, b_out) = _sgd_case(2, False, 20)
    with pytest.raises(DimensionMismatch):
        sgd_epochs(X, off, y, (w_in, b_hid[:-1], w_out, b_out), 0.05, 8, 1,
                   seed=0)


def test_dense_net_training_reduces_loss_deterministically():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((150, 3))
    y = np.tanh(X @ np.array([1.0, -1.0, 0.5])) + 0.05 * rng.standard_normal(150)
    init = fit_dense_net(X, y, hidden=8, epochs=0, seed=2)
    m1 = fit_dense_net(X, y, hidden=8, epochs=25, seed=2)
    m2 = fit_dense_net(X, y, hidden=8, epochs=25, seed=2)
    assert np.array_equal(m1.w_in, m2.w_in)
    assert np.array_equal(m1.w_out, m2.w_out)
    mse = lambda m: float(np.mean((y - predict(m, X)) ** 2))  # noqa: E731
    assert mse(m1) < 0.5 * mse(init)


def test_dense_net_divergence_raises():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((64, 3))
    y = rng.standard_normal(64)
    with np.errstate(all="ignore"):
        with pytest.raises(NonFiniteLoss):
            fit_dense_net(X, y, hidden=4, epochs=50, rate=1e12, batch=16,
                          seed=0)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def test_fit_learner_covers_every_kind():
    # the fitted values a fit returns are predict on the training rows, to
    # the byte
    rng = np.random.default_rng(20)
    X = rng.standard_normal((60, 3))
    y = rng.standard_normal(60)
    for kind in LEARNER_KINDS:
        model, fitted = fit_learner(LearnerSpec(kind), X, y)
        out = predict(model, X)
        assert out.shape == (60,)
        assert np.all(np.isfinite(out))
        assert fitted.dtype == out.dtype
        assert fitted.tobytes() == out.tobytes(), kind


def test_fit_learner_seed_override_for_dense_net():
    rng = np.random.default_rng(21)
    X = rng.standard_normal((50, 2))
    y = rng.standard_normal(50)
    spec = LearnerSpec("dense_net", {"hidden": 4, "epochs": 3, "seed": 0})
    a, _ = fit_learner(spec, X, y, seed=99)
    b = fit_dense_net(X, y, hidden=4, epochs=3, seed=99)
    assert np.array_equal(a.w_in, b.w_in)
    assert np.array_equal(a.w_out, b.w_out)


def test_predict_checks_dimensions():
    X = np.ones((4, 2))
    m = fit_least_squares(X + np.arange(4).reshape(-1, 1), np.arange(4.0))
    with pytest.raises(DimensionMismatch):
        predict(m, np.ones((3, 5)))
    with pytest.raises(DimensionMismatch):
        predict(m, np.ones(3))
