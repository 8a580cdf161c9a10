import numpy as np
import pytest

from assistlearn import errors as err
from assistlearn.core import (FeaturePartition, LocalModule, TaskLabels,
                              vertical_split)
from assistlearn.data import SyntheticSpec, generate
from assistlearn.learners import LearnerSpec, dense_init, fit_dense_net
from assistlearn.nn_protocol import (NetOptConfig, NnConfig, NnTrainResult,
                                     SharedWeights, bob_update_round,
                                     nn_predict, run_nn_learning)
from assistlearn.transport import local_endpoint, serve_module

DENSE = LearnerSpec("dense_net", {"hidden": 8, "rate": 0.02, "batch": 16})


def _two_party(n=120, seed=17, bob_cols=("x4", "x5")):
    spec = SyntheticSpec(kind="friedman1", n=n, noise_sd=0.5, seed=seed)
    full, labels = generate(spec)
    alice_cols = tuple(c for c in full.feature_names if c not in bob_cols)
    parts = vertical_split(full, (alice_cols, bob_cols))
    alice = LocalModule("alice", parts[0], DENSE)
    bob = LocalModule("bob", parts[1], DENSE)
    return alice, bob, labels


def _config(**kw):
    base = dict(hidden=8, rate=0.02, batch=16, epochs_per_round=1,
                max_rounds=4, patience=4, holdout_fraction=0.0, seed=3)
    base.update(kw)
    return NnConfig(**base)


# ---------------------------------------------------------------------------
# small pieces
# ---------------------------------------------------------------------------

def test_shared_weights_validation():
    sw = SharedWeights(b_hidden=np.zeros(4), w_out=np.ones(4), b_out=0.5)
    assert sw.b_hidden.shape == sw.w_out.shape == (4,) and sw.b_out == 0.5
    with pytest.raises(err.ShapeMismatch):
        SharedWeights(b_hidden=np.zeros(4), w_out=np.ones(3), b_out=0.0)
    with pytest.raises(err.ShapeMismatch):
        SharedWeights(b_hidden=np.zeros((2, 2)), w_out=np.ones(4), b_out=0.0)


def test_opt_config_validation():
    with pytest.raises(ValueError):
        NetOptConfig(rate=0.0)
    with pytest.raises(ValueError):
        NetOptConfig(batch=0)
    with pytest.raises(ValueError):
        NetOptConfig(epochs=0)
    with pytest.raises(ValueError):
        NnConfig(hidden=0)
    with pytest.raises(ValueError):
        NnConfig(holdout_fraction=1.0)
    with pytest.raises(ValueError):
        NnConfig(tol_rel=-1.0)


def test_round_parity_is_enforced():
    sw = SharedWeights(b_hidden=np.zeros(2), w_out=np.zeros(2), b_out=0.0)
    X = np.zeros((4, 2))
    y = np.zeros(4)
    opt = NetOptConfig(batch=4)
    with pytest.raises(ValueError):  # round 3 belongs to the label owner
        bob_update_round(np.zeros((2, 2)), 3, X, np.zeros((4, 2)), y, sw, opt)


# ---------------------------------------------------------------------------
# degenerate partner: alice trains an ordinary dense net
# ---------------------------------------------------------------------------

def test_zero_column_partner_reproduces_the_monolithic_net():
    spec = SyntheticSpec(kind="friedman1", n=100, noise_sd=0.5, seed=7)
    full, labels = generate(spec)
    empty = FeaturePartition(ids=full.ids,
                             features=np.zeros((full.n_rows, 0)),
                             feature_names=())
    alice = LocalModule("alice", full, DENSE)
    bob = LocalModule("bob", empty, DENSE)
    rounds = 5
    cfg = _config(max_rounds=rounds, patience=rounds, seed=11)
    ep = local_endpoint(bob)
    out = run_nn_learning(alice, ep, labels, cfg, task_id="solo")
    assert out.bob_cols == 0
    mono = fit_dense_net(full.features, labels.values, hidden=cfg.hidden,
                         epochs=rounds * cfg.epochs_per_round, rate=cfg.rate,
                         batch=cfg.batch, seed=cfg.seed)
    w_alice, shared = out.alice_rounds[rounds]
    assert np.array_equal(w_alice, mono.w_in)
    assert np.array_equal(shared.b_hidden, mono.b_hidden)
    assert np.array_equal(shared.w_out, mono.w_out)
    assert shared.b_out == mono.b_out
    pred = nn_predict(out, alice, ep, full.ids[:10], upto=rounds)
    from assistlearn.learners import predict
    assert np.array_equal(pred, predict(mono, full.features[:10]))


# ---------------------------------------------------------------------------
# two real parties
# ---------------------------------------------------------------------------

def test_roles_alternate_by_round_parity():
    alice, bob, labels = _two_party()
    cfg = _config(max_rounds=4)
    out = run_nn_learning(alice, local_endpoint(bob), labels, cfg,
                          task_id="alt")
    assert sorted(out.alice_rounds) == [0, 1, 2, 3, 4]
    w1, s1 = out.alice_rounds[1]
    w2, s2 = out.alice_rounds[2]
    w3, s3 = out.alice_rounds[3]
    # bob's round touches the shared remainder but never alice's block
    assert np.array_equal(w1, w2)
    assert not np.array_equal(s1.w_out, s2.w_out)
    # alice's next round moves her block again
    assert not np.array_equal(w2, w3)
    assert len(out.round_seconds) == len(out.validation_history) == 4


def test_both_parties_derive_the_same_initial_weights():
    alice, bob, labels = _two_party(seed=33)
    cfg = _config(max_rounds=1)
    out = run_nn_learning(alice, local_endpoint(bob), labels, cfg,
                          task_id="init")
    w_full, _, _, _ = dense_init(out.alice_cols + out.bob_cols, cfg.hidden,
                                 cfg.seed)
    w0, _ = out.alice_rounds[0]
    assert np.array_equal(w0, w_full[:out.alice_cols])


def test_training_actually_reduces_the_training_error():
    alice, bob, labels = _two_party(n=200, seed=9)
    cfg = _config(max_rounds=8, patience=8, seed=5)
    out = run_nn_learning(alice, local_endpoint(bob), labels, cfg,
                          task_id="learn")
    hist = out.validation_history
    assert min(hist) < 0.7 * hist[0]
    assert out.best_round == int(np.argmin(hist)) + 1


def test_holdout_validation_and_live_stopping():
    alice, bob, labels = _two_party(n=240, seed=13)
    cfg = _config(max_rounds=40, patience=2, tol_rel=0.05,
                  holdout_fraction=0.25, seed=8)
    out = run_nn_learning(alice, local_endpoint(bob), labels, cfg,
                          task_id="stop")
    assert out.holdout_ids and not set(out.holdout_ids) & set(out.train_ids)
    assert len(out.validation_history) < 40  # the coarse tolerance stops it


def test_nn_predict_round_selection_and_errors():
    alice, bob, labels = _two_party(seed=25)
    cfg = _config(max_rounds=3)
    ep = local_endpoint(bob)  # one endpoint for training and prediction
    out = run_nn_learning(alice, ep, labels, cfg, task_id="pred")
    ids = out.train_ids[:7]
    by_round = [nn_predict(out, alice, ep, ids, upto=k) for k in (1, 2, 3)]
    assert not np.array_equal(by_round[0], by_round[2])
    default = nn_predict(out, alice, ep, ids)
    assert np.array_equal(default, by_round[out.best_round - 1])
    with pytest.raises(err.UnknownRound):
        nn_predict(out, alice, ep, ids, upto=9)
    with pytest.raises(err.MissingTestRows):
        nn_predict(out, alice, ep, ("missing-id",))


def test_alice_features_override_in_nn_predict():
    alice, bob, labels = _two_party(seed=29)
    cfg = _config(max_rounds=2)
    ep = local_endpoint(bob)
    out = run_nn_learning(alice, ep, labels, cfg, task_id="ovr")
    ids = out.train_ids[:5]
    X = alice.partition.features[alice.partition.rows_for(ids)]
    direct = nn_predict(out, alice, ep, ids)
    overridden = nn_predict(out, alice, ep, ids, alice_features=X)
    assert np.array_equal(direct, overridden)
    with pytest.raises(err.ShapeMismatch):
        nn_predict(out, alice, ep, ids, alice_features=X[:1])


def test_collation_failure_without_shared_ids():
    alice, bob, _ = _two_party(n=40)
    foreign = TaskLabels(ids=("q-1", "q-2"), values=np.array([0.0, 1.0]))
    with pytest.raises(err.CollationFailure):
        run_nn_learning(alice, local_endpoint(bob), foreign,
                        _config(max_rounds=1))


def test_default_task_id_uses_the_seed():
    alice, bob, labels = _two_party(n=60)
    out = run_nn_learning(alice, local_endpoint(bob), labels,
                          _config(max_rounds=1, seed=77))
    assert out.task_id == "nn-task-77"
    assert isinstance(out, NnTrainResult)


# ---------------------------------------------------------------------------
# over tcp
# ---------------------------------------------------------------------------

def test_tcp_training_is_bit_identical_to_in_process():
    alice, bob, labels = _two_party(n=100, seed=37)
    cfg = _config(max_rounds=4, seed=19)
    local_ep = local_endpoint(bob)
    inproc = run_nn_learning(alice, local_ep, labels, cfg, task_id="wire")

    alice2, bob2, _ = _two_party(n=100, seed=37)
    with serve_module(bob2) as server:
        tcp = run_nn_learning(alice2, server.endpoint(), labels, cfg,
                              task_id="wire")
        assert tcp.validation_history == inproc.validation_history
        assert tcp.best_round == inproc.best_round
        w_tcp, shared_tcp = tcp.alice_rounds[tcp.best_round]
        w_in, shared_in = inproc.alice_rounds[inproc.best_round]
        assert np.array_equal(w_tcp, w_in)
        assert np.array_equal(shared_tcp.w_out, shared_in.w_out)
        ids = inproc.train_ids[:6]
        a = nn_predict(inproc, alice, local_ep, ids)
        b = nn_predict(tcp, alice2, server.endpoint(), ids)
        assert np.array_equal(a, b)
