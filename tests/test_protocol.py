import numpy as np
import pytest

from assistlearn import errors as err
from assistlearn.core import (FeaturePartition, LocalModule, TaskLabels,
                              align, derive_seed, vertical_split)
from assistlearn.data import SyntheticSpec, generate, split_counts
from assistlearn.learners import LearnerSpec, predict
from assistlearn.metrics import rmse
from assistlearn.protocol import (BaselineMetrics, Peer, ProtocolConfig,
                                  TrainedTask, argmin_round,
                                  assist_fit, oracle_baseline,
                                  per_round_predictions, predict_stage,
                                  run_learning_stage, stacking_baseline,
                                  stop_check, stopped_round)
from assistlearn.transport import Envelope, id_digest, local_endpoint

LS = LearnerSpec("least_squares")
BETA = (1.0, -2.0, 0.5, 3.0, -1.5, 2.0)
GROUPS = (("x1", "x2"), ("x3", "x4"), ("x5", "x6"))


def _linear_setup(n=300, correlation=0.5, seed=11, noise_sd=1.0):
    spec = SyntheticSpec(kind="linear", n=n, noise_sd=noise_sd, seed=seed,
                         coefficients=BETA, correlation=correlation)
    full, labels = generate(spec)
    parts = vertical_split(full, GROUPS)
    return full, parts, labels


def _chain(parts, learner=LS, names=("alice", "bright", "carol")):
    alice = LocalModule(names[0], parts[0], learner)
    helpers = [LocalModule(nm, p, learner)
               for nm, p in zip(names[1:], parts[1:])]
    return alice, [local_endpoint(m) for m in helpers], helpers


# ---------------------------------------------------------------------------
# stopping rule
# ---------------------------------------------------------------------------

def test_stop_check_worked_examples():
    assert stop_check([5.0, 4.0, 4.001, 4.0005], patience=2) is True
    assert stop_check([5.0, 4.0, 3.0], patience=2) is False
    assert stop_check([5.0, 4.0], patience=2) is False  # not enough evidence
    assert stopped_round([5.0, 4.0, 4.001, 4.0005], patience=2) == 4


def test_stop_check_tolerance_and_edges():
    # an improvement just above the relative margin keeps going
    assert stop_check([4.0, 4.0 - 4e-4 * 1.01], patience=1) is False
    assert stop_check([4.0, 4.0 - 4e-4 * 0.99], patience=1) is True
    assert stop_check([5.0, 5.0], patience=1, tol_rel=0.0) is True
    assert stop_check([], patience=3) is False
    with pytest.raises(ValueError):
        stop_check([1.0, 2.0], patience=0)


def test_stopped_round_runs_to_the_end_without_a_plateau():
    assert stopped_round([5.0, 4.0, 3.0, 2.0], patience=2) == 4


def test_argmin_round_is_one_based_earliest_tie():
    assert argmin_round([3.0, 1.0, 2.0]) == 2
    assert argmin_round([2.0, 1.0, 1.0]) == 2
    assert argmin_round([7.0]) == 1


# ---------------------------------------------------------------------------
# the module-side fit
# ---------------------------------------------------------------------------

def test_assist_fit_returns_residual_and_records_model():
    _, parts, labels = _linear_setup(n=80)
    module = LocalModule("bob", parts[1], LS)
    ids = parts[1].ids
    out = assist_fit(module, "t", 1, ids, labels.values)
    model = module.stored_model("t", 1)
    expect = labels.values - predict(model, parts[1].features)
    assert np.allclose(out, expect, atol=1e-12)
    with pytest.raises(err.StorageConflict):
        assist_fit(module, "t", 1, ids, labels.values)
    with pytest.raises(err.ShapeMismatch):
        assist_fit(module, "t", 2, ids[:-1], labels.values)
    with pytest.raises(err.ShapeMismatch):
        assist_fit(module, "t", 2, ids, labels.values[:, None])
    with pytest.raises(err.MissingId):
        assist_fit(module, "t", 2, ("nope",), [1.0])


# ---------------------------------------------------------------------------
# learning stage
# ---------------------------------------------------------------------------

def test_chain_round_records_have_full_participation():
    _, parts, labels = _linear_setup()
    alice, eps, _ = _chain(parts)
    cfg = ProtocolConfig(max_rounds=4, patience=4, seed=3)
    task = run_learning_stage(alice, eps, labels, cfg, task_id="t")
    assert isinstance(task, TrainedTask)
    assert task.module_ids == ("alice", "bright", "carol")
    assert 1 <= len(task.records) <= 4
    for k, rec in enumerate(task.records, start=1):
        assert rec.round == k
        assert len(rec.halfstep_rmse) == len(task.module_ids)
        assert rec.seconds >= 0.0
    assert task.best_round == argmin_round(task.validation_history)


@pytest.mark.parametrize("kind", ["regression_tree", "gradient_boosting"])
def test_learning_stage_predicts_only_held_out_rows(kind, monkeypatch):
    # fits return their fitted values, so each round's predict calls are
    # one holdout prediction per module: 3R for 3 modules and R rounds,
    # where re-predicting the training rows made 6R
    from assistlearn import learners, protocol
    calls = []
    real = learners.predict

    def counting(model, X):
        calls.append(len(X))
        return real(model, X)

    monkeypatch.setattr(learners, "predict", counting)
    monkeypatch.setattr(protocol, "predict", counting)
    _, parts, labels = _linear_setup(n=100)
    spec = LearnerSpec(kind, {"stages": 3} if kind == "gradient_boosting"
                       else {})
    alice, eps, _ = _chain(parts, learner=spec)
    rounds = 4
    cfg = ProtocolConfig(max_rounds=rounds, patience=rounds, seed=3)
    task = run_learning_stage(alice, eps, labels, cfg, task_id="t")
    assert len(task.records) == rounds
    assert calls == [len(task.holdout_ids)] * (3 * rounds)


def test_halfstep_training_error_never_increases_for_least_squares():
    _, parts, labels = _linear_setup(seed=19)
    alice, eps, _ = _chain(parts)
    cfg = ProtocolConfig(max_rounds=6, patience=6, holdout_fraction=0.0,
                         seed=1)
    task = run_learning_stage(alice, eps, labels, cfg, task_id="t")
    flat = [h for rec in task.records for h in rec.halfstep_rmse]
    for prev, nxt in zip(flat, flat[1:]):
        assert nxt <= prev + 1e-9


def test_holdout_split_is_deterministic_and_disjoint():
    _, parts, labels = _linear_setup()
    cfg = ProtocolConfig(max_rounds=2, patience=2, seed=7)
    ids_seen = []
    for _ in range(2):
        alice, eps, _ = _chain(parts)
        task = run_learning_stage(alice, eps, labels, cfg,
                                  task_id=f"t{len(ids_seen)}")
        ids_seen.append((task.train_ids, task.holdout_ids))
    assert ids_seen[0] == ids_seen[1]
    train, hold = ids_seen[0]
    assert not set(train) & set(hold)
    assert sorted(set(train) | set(hold)) == sorted(labels.ids)
    assert len(hold) == pytest.approx(0.2 * len(labels.ids), abs=1)


def test_flat_history_triggers_the_stop_rule():
    # uncorrelated designs are exactly orthogonal by construction, so the
    # all-linear chain converges in one round and the curve goes flat
    _, parts, labels = _linear_setup(correlation=0.0, seed=5)
    alice, eps, _ = _chain(parts)
    cfg = ProtocolConfig(max_rounds=10, patience=2, holdout_fraction=0.0,
                         seed=2)
    task = run_learning_stage(alice, eps, labels, cfg, task_id="t")
    assert len(task.records) == 3  # round 1 converges, two flat rounds, stop
    hist = task.validation_history
    assert max(hist) - min(hist) <= 1e-10 * hist[0]


def test_default_task_id_comes_from_seed():
    _, parts, labels = _linear_setup(n=60)
    alice, eps, _ = _chain(parts)
    cfg = ProtocolConfig(max_rounds=1, patience=1, seed=42)
    task = run_learning_stage(alice, eps, labels, cfg)
    assert task.task_id == "task-42"


def test_no_common_ids_raises():
    _, parts, labels = _linear_setup(n=40)
    alice, eps, _ = _chain(parts)
    other = TaskLabels(ids=("zz-1", "zz-2"), values=np.array([1.0, 2.0]))
    with pytest.raises(err.CollationFailure):
        run_learning_stage(alice, eps, other, ProtocolConfig(max_rounds=1))


# ---------------------------------------------------------------------------
# prediction stage
# ---------------------------------------------------------------------------

def test_training_rows_telescope_back_to_the_labels():
    _, parts, labels = _linear_setup(seed=29)
    alice, eps, _ = _chain(parts)
    cfg = ProtocolConfig(max_rounds=5, patience=5, holdout_fraction=0.0,
                         seed=4)
    task = run_learning_stage(alice, eps, labels, cfg, task_id="t")
    y = labels.lookup(task.train_ids)
    final_residual = task.records[-1].residual_after
    pred = predict_stage(task, alice, eps, task.train_ids,
                         upto=len(task.records))
    gap = np.linalg.norm(y - pred - final_residual)
    assert gap <= 1e-9 * np.linalg.norm(y)


def test_per_round_rows_match_predict_stage():
    _, parts, labels = _linear_setup(n=120, seed=31)
    alice, eps, _ = _chain(parts)
    cfg = ProtocolConfig(max_rounds=3, patience=3, seed=6)
    task = run_learning_stage(alice, eps, labels, cfg, task_id="t")
    ids = task.holdout_ids
    table = per_round_predictions(task, alice, eps, ids)
    assert table.shape == (len(task.records), len(ids))
    for k in range(len(task.records)):
        direct = predict_stage(task, alice, eps, ids, upto=k + 1)
        assert np.allclose(table[k], direct, atol=1e-9)


def test_predict_stage_bounds_and_missing_rows():
    _, parts, labels = _linear_setup(n=60)
    alice, eps, _ = _chain(parts)
    cfg = ProtocolConfig(max_rounds=2, patience=2, seed=8)
    task = run_learning_stage(alice, eps, labels, cfg, task_id="t")
    with pytest.raises(err.UnknownRound):
        predict_stage(task, alice, eps, task.train_ids, upto=0)
    with pytest.raises(err.UnknownRound):
        predict_stage(task, alice, eps, task.train_ids,
                      upto=len(task.records) + 1)
    with pytest.raises(err.MissingTestRows):
        predict_stage(task, alice, eps, ("nope-1",))
    for stage in (predict_stage, per_round_predictions):
        with pytest.raises(err.MissingTestRows):  # no endpoint for carol
            stage(task, alice, eps[:1], task.train_ids)
    # rows the assistants hold but alice never stored
    narrow = LocalModule("alice", FeaturePartition(
        ids=task.train_ids, features=align(parts[0], task.train_ids),
        feature_names=parts[0].feature_names), LS,
        model_store=alice.model_store)
    for stage in (predict_stage, per_round_predictions):
        with pytest.raises(err.MissingTestRows):
            stage(task, narrow, eps, task.holdout_ids)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def test_oracle_baseline_matches_a_direct_least_squares_fit():
    full, parts, labels = _linear_setup(n=240, seed=43)
    train_ids, test_ids = split_counts(full.ids, 180, seed=2)
    out = oracle_baseline(parts, labels, LS, (train_ids, test_ids))
    X_tr = np.column_stack([align(p, train_ids) for p in parts])
    X_te = np.column_stack([align(p, test_ids) for p in parts])
    y_tr = labels.lookup(train_ids)
    y_te = labels.lookup(test_ids)
    ones = np.ones((len(train_ids), 1))
    coef, *_ = np.linalg.lstsq(np.hstack([ones, X_tr]), y_tr, rcond=None)
    pred_tr = coef[0] + X_tr @ coef[1:]
    pred_te = coef[0] + X_te @ coef[1:]
    assert out.train_rmse == pytest.approx(rmse(y_tr, pred_tr), abs=1e-9)
    assert out.test_rmse == pytest.approx(rmse(y_te, pred_te), abs=1e-9)


def test_solo_baseline_equals_the_first_half_step():
    """Alice alone is exactly round 1 before any assistant contributes."""
    _, parts, labels = _linear_setup(seed=47)
    alice, eps, _ = _chain(parts)
    cfg = ProtocolConfig(max_rounds=2, patience=2, holdout_fraction=0.0,
                         seed=14)
    task = run_learning_stage(alice, eps, labels, cfg, task_id="t")
    solo = oracle_baseline([parts[0]], labels, LS,
                           (task.train_ids, task.train_ids))
    assert abs(solo.train_rmse - task.records[0].halfstep_rmse[0]) <= 1e-12


def test_chain_training_error_never_beats_the_oracle():
    _, parts, labels = _linear_setup(seed=53)
    alice, eps, _ = _chain(parts)
    cfg = ProtocolConfig(max_rounds=8, patience=8, holdout_fraction=0.0,
                         seed=15)
    task = run_learning_stage(alice, eps, labels, cfg, task_id="t")
    oracle = oracle_baseline(parts, labels, LS,
                             (task.train_ids, task.train_ids))
    for rec in task.records:
        assert rec.halfstep_rmse[-1] >= oracle.train_rmse - 1e-9


def test_stacking_baseline_is_deterministic_and_validates():
    full, parts, labels = _linear_setup(n=200, seed=59)
    train_ids, test_ids = split_counts(full.ids, 150, seed=3)
    runs = [stacking_baseline(parts, labels, LS, LS,
                              (train_ids, test_ids), folds=4, seed=5)
            for _ in range(2)]
    assert runs[0] == runs[1]
    assert isinstance(runs[0], BaselineMetrics)
    assert runs[0].test_rmse < rmse(labels.lookup(test_ids),
                                    np.zeros(len(test_ids)))
    with pytest.raises(ValueError):
        stacking_baseline(parts, labels, LS, LS, (train_ids, test_ids),
                          folds=1)
    with pytest.raises(ValueError):
        stacking_baseline(parts, labels, [LS], LS, (train_ids, test_ids))


def test_stacking_accepts_per_partition_spec_lists():
    full, parts, labels = _linear_setup(n=160, seed=61)
    train_ids, test_ids = split_counts(full.ids, 120, seed=4)
    split = (train_ids, test_ids)
    tree = LearnerSpec("regression_tree", {"max_depth": 2})
    shared = stacking_baseline(parts, labels, LS, LS, split, folds=3, seed=6)
    listed = stacking_baseline(parts, labels, [LS, LS, LS], LS, split,
                               folds=3, seed=6)
    assert listed == shared
    mixed = stacking_baseline(parts, labels, [tree, LS, LS], LS, split,
                              folds=3, seed=6)
    assert np.isfinite(mixed.test_rmse) and mixed != shared
    with pytest.raises(ValueError):  # several bases per partition
        stacking_baseline(parts, labels, [[LS, tree], [LS], [LS]], LS, split,
                          folds=3, seed=6)


def test_config_validation():
    for bad in ({"max_rounds": 0}, {"patience": 0}, {"max_rounds": 2.5},
                {"patience": True}, {"max_rounds": "3"}, {"seed": "x"},
                {"seed": 1.5}, {"seed": None}, {"timeout": 0},
                {"timeout": -1}, {"timeout": True}, {"timeout": "5"}):
        with pytest.raises(ValueError):
            ProtocolConfig(**bad)
    assert ProtocolConfig(max_rounds=np.int64(3), patience=np.int32(1)) \
        .max_rounds == 3
    with pytest.raises(ValueError):
        ProtocolConfig(tol_rel=-1.0)
    with pytest.raises(ValueError):
        ProtocolConfig(holdout_fraction=1.0)


def test_seed_derivation_feeds_distinct_streams():
    a = derive_seed(0, "t", "alice", 1)
    b = derive_seed(0, "t", "alice", 2)
    c = derive_seed(0, "t", "bob", 1)
    assert len({a, b, c}) == 3


# ---------------------------------------------------------------------------
# reply checks
# ---------------------------------------------------------------------------

class _CannedEndpoint:
    """Answers every request with ``kind`` and ``payload(request ids)``."""

    module_id = "stub"

    def __init__(self, kind, payload):
        self.kind, self.payload = kind, payload

    def request(self, env, timeout=30.0):
        return Envelope(kind=self.kind, task=env.task, round=env.round,
                        sender="stub", receiver=env.sender,
                        payload=self.payload(env.payload.get("ids")))


def _peer(ep, known=None):
    return Peer(ep, "t", "alice", 5.0, {} if known is None else known)


def _fit(ep):
    return _peer(ep).fit(1, ["a", "b"], [1.0, 2.0])


def _predict(ep):
    return _peer(ep).predict([1], ["a", "b"])


def _partial(ep):
    return _peer(ep).partial(1, ["a", "b"], 1)


_SETUP = {"values": [1.0, 2.0], "seed": 0, "hidden": 1, "peer_cols": 1}
_WTILDE = {"matrix": [[0.0], [1.0]], "b_hidden": [0.0], "w_out": [0.5],
           "b_out": 0.0, "rate": 0.01, "batch": 2, "epochs": 1}


def _labels(ep):
    return _peer(ep).labels({"ids": ["a", "b"], **_SETUP})


def _wtilde(ep):
    return _peer(ep).wtilde(2, ["a", "b"], _WTILDE, 1)


@pytest.mark.parametrize("call, kind, payload, error", [
    (_fit, "PREDICT_RESPONSE",
     lambda ids: {"ids": ids, "values": [0.0, 0.0]}, err.MalformedMessage),
    (_fit, "FIT_RESPONSE",
     lambda ids: {"ids": ids[::-1], "values": [0.0, 0.0]}, err.ShapeMismatch),
    (_predict, "PREDICT_RESPONSE",
     lambda ids: {"ids": ids, "values": [0.0]}, err.ShapeMismatch),
    (_partial, "PARTIAL_PREACT", lambda ids: {"ids": ids},
     err.MalformedMessage),
    (_partial, "PARTIAL_PREACT",
     lambda ids: {"ids": ids, "matrix": [[0.0]]}, err.ShapeMismatch),
    (_labels, "LABELS_TRANSFER", lambda ids: {}, err.MalformedMessage),
    (_labels, "LABELS_TRANSFER", lambda ids: {"own_cols": -2},
     err.MalformedMessage),
    (_wtilde, "WTILDE_TRANSFER", lambda ids: {
        "b_hidden": [0.0], "w_out": [0.5, 0.5], "b_out": 0.0},
     err.ShapeMismatch),
    # a reply that echoes its request's form
    (_wtilde, "WTILDE_TRANSFER", lambda ids: {"ids": ids, **_WTILDE},
     err.MalformedMessage),
    (_labels, "LABELS_TRANSFER", lambda ids: {"ids": ids, **_SETUP},
     err.MalformedMessage),
])
def test_reply_kind_ids_and_length_are_checked(call, kind, payload, error):
    with pytest.raises(error):
        call(_CannedEndpoint(kind, payload))


def test_matching_replies_pass_their_values_through():
    ep = _CannedEndpoint("PREDICT_RESPONSE",
                         lambda ids: {"ids": ids, "values": [0.5, -1.0]})
    assert _predict(ep).tolist() == [0.5, -1.0]
    ep = _CannedEndpoint("PARTIAL_PREACT",
                         lambda ids: {"ids": ids, "matrix": [[1.0], [2.0]]})
    assert _partial(ep).shape == (2, 1)


def test_partial_reply_needs_hidden_columns():
    ep = _CannedEndpoint("PARTIAL_PREACT",
                         lambda ids: {"ids": ids, "matrix": np.zeros((2, 2))})
    with pytest.raises(err.ShapeMismatch):
        _partial(ep)  # one hidden column expected
    assert _peer(ep).partial(1, ["a", "b"], 2).shape == (2, 2)


@pytest.mark.parametrize("echo", [
    {"id_set": id_digest(["b", "a"])},      # another list's digest
    {"ids": ["a", "b"]},                    # the list, not its digest
], ids=["other-id-set", "full-ids"])
def test_a_reply_must_echo_the_id_set_it_was_sent(echo):
    # the stub holds the list and has refused its digest 0 times
    known = {("a", "b"): [None, {"stub": 0}]}
    ep = _CannedEndpoint("PREDICT_RESPONSE",
                         lambda ids: {**echo, "values": [0.5, -1.0]})
    with pytest.raises(err.ShapeMismatch):
        _peer(ep, known).predict([1], ["a", "b"])
    ep = _CannedEndpoint("PREDICT_RESPONSE", lambda ids: {
        "id_set": id_digest(["a", "b"]), "values": [0.5, -1.0]})
    assert _peer(ep, known).predict([1], ["a", "b"]).tolist() == [0.5, -1.0]


class _FormCount:
    """Counts each request's id form per (receiver, kind)."""

    def __init__(self, inner, counts):
        self._inner, self._counts = inner, counts

    @property
    def module_id(self):
        return self._inner.module_id

    def request(self, env, timeout=30.0):
        form = "ids" if "ids" in env.payload else "id_set"
        key = (env.receiver, env.kind, form)
        self._counts[key] = self._counts.get(key, 0) + 1
        return self._inner.request(env, timeout=timeout)


def test_each_stage_sends_an_id_list_in_full_once_per_peer():
    full, parts, labels = _linear_setup(n=120)
    alice, eps, _ = _chain(parts)
    counts = {}
    eps = [_FormCount(ep, counts) for ep in eps]
    rounds = 3
    cfg = ProtocolConfig(max_rounds=rounds, patience=rounds, seed=3)
    task = run_learning_stage(alice, eps, labels, cfg, task_id="t")
    learn = dict(counts)
    counts.clear()
    test_ids = full.ids[:30]
    curves = per_round_predictions(task, alice, eps, test_ids)
    for peer in ("bright", "carol"):
        for kind in ("FIT_REQUEST", "PREDICT_REQUEST"):
            assert learn[(peer, kind, "ids")] == 1
            assert learn[(peer, kind, "id_set")] == rounds - 1
        assert {k: n for k, n in counts.items() if k[0] == peer} == {
            (peer, "PREDICT_REQUEST", "ids"): 1,
            (peer, "PREDICT_REQUEST", "id_set"): rounds - 1}
    # a later stage call of the task names the lists by digest, with the
    # same bits: the record belongs to the task, not to the call
    again = per_round_predictions(task, alice, eps, test_ids)
    assert again.tobytes() == curves.tobytes()
    assert counts[("bright", "PREDICT_REQUEST", "ids")] == 1
    assert counts[("bright", "PREDICT_REQUEST", "id_set")] == 2 * rounds - 1
    predict_stage(task, alice, eps, test_ids)
    assert counts[("bright", "PREDICT_REQUEST", "ids")] == 1
    assert counts[("bright", "PREDICT_REQUEST", "id_set")] == 2 * rounds


def test_a_fresh_responder_for_the_same_module_predicts_the_same_bits():
    """The task's record says each peer holds the test ids; a new responder
    for the same module does not, answers UnknownIdSet, gets the list in
    full once, is named it by digest after that and predicts the same
    bits."""
    full, parts, labels = _linear_setup(n=120)
    alice, eps, helpers = _chain(parts)
    rounds = 3
    cfg = ProtocolConfig(max_rounds=rounds, patience=rounds, seed=3)
    task = run_learning_stage(alice, eps, labels, cfg, task_id="t")
    test_ids = full.ids[:30]
    curves = per_round_predictions(task, alice, eps, test_ids)
    summed = predict_stage(task, alice, eps, test_ids)
    counts = {}
    fresh = [_FormCount(local_endpoint(m), counts) for m in helpers]
    assert per_round_predictions(task, alice, fresh, test_ids).tobytes() \
        == curves.tobytes()
    assert predict_stage(task, alice, fresh, test_ids).tobytes() \
        == summed.tobytes()
    for peer in ("bright", "carol"):
        assert {k: n for k, n in counts.items() if k[0] == peer} == {
            (peer, "PREDICT_REQUEST", "id_set"): rounds + 1,
            (peer, "PREDICT_REQUEST", "ids"): 1}
