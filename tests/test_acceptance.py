"""End-to-end acceptance checks at pinned tolerances.

Each criterion prints one [PASS]/[FAIL] line (visible under plain pytest)
and enforces its stated runtime budget. The reduced-scale stacking grid
always runs; the full-scale variant (n_train=10000, n_test=100000, five
replications) is expensive and only runs when ASSIST_ACCEPT_FULL=1.
"""

import json
import os
import socket
import time

import numpy as np
import pytest

from assistlearn import errors as err
from assistlearn.core import LocalModule, TaskLabels, align, vertical_split
from assistlearn.data import SyntheticSpec, generate, split_counts
from assistlearn.harness import ExperimentConfig, compare_stacking, run_experiment
from assistlearn.learners import (LearnerSpec, dense_init, dense_forward,
                                  dense_loss_and_grads, fit_dense_net,
                                  predict)
from assistlearn.metrics import rmse
from assistlearn.nn_protocol import NnConfig, nn_predict, run_nn_learning
from assistlearn.protocol import (ProtocolConfig, predict_stage,
                                  run_learning_stage)
from assistlearn.transport import (Envelope, decode, id_digest,
                                   local_endpoint, serve_module,
                                   validate_payload)

LS = LearnerSpec("least_squares")
COEFF = (1.5, -2.0, 1.0, 0.5, -1.0, 2.0)
GROUPS_321 = (("x1", "x2", "x3"), ("x4", "x5"), ("x6",))
FULL_SCALE = os.environ.get("ASSIST_ACCEPT_FULL") == "1"


def _emit(capsys, ok: bool, label: str, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")


# ---------------------------------------------------------------------------
# shared runs
# ---------------------------------------------------------------------------

def _linear_chain_run(correlation, transport, data_seed=2026, n=2000,
                      max_rounds=50):
    """All-least-squares chain on the 3/2/1 column split; full trace."""
    spec = SyntheticSpec(kind="linear", n=n, noise_sd=1.0, seed=data_seed,
                         coefficients=COEFF, correlation=correlation)
    full, labels = generate(spec)
    parts = vertical_split(full, GROUPS_321)
    alice = LocalModule("alice", parts[0], LS)
    helpers = [LocalModule(f"peer-{i}", p, LS)
               for i, p in enumerate(parts[1:], start=1)]
    cfg = ProtocolConfig(max_rounds=max_rounds, patience=max_rounds,
                         holdout_fraction=0.0, seed=0)
    servers, endpoints = [], []
    try:
        if transport == "tcp":
            servers = [serve_module(m) for m in helpers]
            endpoints = [s.endpoint() for s in servers]
        else:
            endpoints = [local_endpoint(m) for m in helpers]
        task = run_learning_stage(alice, endpoints, labels, cfg,
                                  task_id="accept-chain")
        pred_train = predict_stage(task, alice, endpoints, task.train_ids,
                                   upto=len(task.records))
    finally:
        for s, ep in zip(servers, endpoints):
            ep.close()
            s.stop()
    y = labels.lookup(task.train_ids)
    X = align(full, task.train_ids)
    ones = np.ones((len(y), 1))
    coef, *_ = np.linalg.lstsq(np.hstack([ones, X]), y, rcond=None)
    e_oracle = y - (coef[0] + X @ coef[1:])
    return {
        "task": task,
        "y": y,
        "e_oracle": e_oracle,
        "ols_rmse": float(np.sqrt(np.mean(e_oracle ** 2))),
        "halfsteps": [rec.halfstep_rmse for rec in task.records],
        "history": tuple(task.validation_history),
        "pred_train": pred_train,
    }


@pytest.fixture(scope="module")
def chain_inproc():
    started = time.perf_counter()
    out = _linear_chain_run(correlation=0.5, transport="inproc")
    out["seconds"] = time.perf_counter() - started
    return out


def _split_net_run(transport, data_seed=2026):
    """Two-party split net vs the same budget in one piece."""
    spec = SyntheticSpec(kind="linear", n=3000, noise_sd=1.0, seed=data_seed,
                         coefficients=COEFF, correlation=0.3)
    full, labels = generate(spec)
    train_ids, test_ids = split_counts(full.ids, 1000, seed=1)
    parts = vertical_split(full, (("x1", "x2", "x3"), ("x4", "x5", "x6")))
    dense = LearnerSpec("dense_net", {"hidden": 16, "rate": 0.01,
                                      "batch": 32})
    alice = LocalModule("alice", parts[0], dense)
    bob = LocalModule("bob", parts[1], dense)
    cfg = NnConfig(hidden=16, rate=0.01, batch=32, epochs_per_round=1,
                   max_rounds=40, patience=40, holdout_fraction=0.0, seed=0)
    train_labels = TaskLabels(ids=train_ids, values=labels.lookup(train_ids))
    server = None
    try:
        if transport == "tcp":
            server = serve_module(bob)
            ep = server.endpoint()
        else:
            ep = local_endpoint(bob)
        result = run_nn_learning(alice, ep, train_labels, cfg,
                                 task_id="accept-split")
        pred_test = nn_predict(result, alice, ep, test_ids, upto=40)
    finally:
        if server is not None:
            ep.close()
            server.stop()
    y_test = labels.lookup(test_ids)
    return {
        "history": tuple(result.validation_history),
        "split_test_rmse": rmse(y_test, pred_test),
        "pred_test": pred_test,
        "full": full,
        "labels": labels,
        "train_ids": train_ids,
        "test_ids": test_ids,
    }


@pytest.fixture(scope="module")
def split_inproc():
    started = time.perf_counter()
    out = _split_net_run(transport="inproc")
    X_train = align(out["full"], out["train_ids"])
    y_train = out["labels"].lookup(out["train_ids"])
    mono = fit_dense_net(X_train, y_train, hidden=16, epochs=40, rate=0.01,
                         batch=32, seed=0)
    X_test = align(out["full"], out["test_ids"])
    y_test = out["labels"].lookup(out["test_ids"])
    out["mono_test_rmse"] = rmse(y_test, predict(mono, X_test))
    out["seconds"] = time.perf_counter() - started
    return out


# ---------------------------------------------------------------------------
# criterion 1: the all-linear chain reaches the centralized fit
# ---------------------------------------------------------------------------

def test_criterion_1_oracle_equivalence(chain_inproc, capsys):
    run = chain_inproc
    al_rmse = run["halfsteps"][-1][-1]
    rel_gap = abs(al_rmse - run["ols_rmse"]) / run["ols_rmse"]
    flat = [h for steps in run["halfsteps"] for h in steps]
    monotone = all(nxt <= prev + 1e-12 * max(1.0, prev)
                   for prev, nxt in zip(flat, flat[1:]))
    ok = rel_gap <= 1e-6 and monotone and run["seconds"] < 10.0
    _emit(capsys, ok, "criterion 1 (chain reaches centralized least squares)",
          f"relative gap {rel_gap:.2e}, half-steps monotone: {monotone}, "
          f"{run['seconds']:.1f}s")
    assert rel_gap <= 1e-6
    assert monotone, "training SSE increased at some half-step"
    assert run["seconds"] < 10.0


# ---------------------------------------------------------------------------
# criterion 2: geometric error decay; one round when columns are independent
# ---------------------------------------------------------------------------

def test_criterion_2_geometric_decay(chain_inproc, capsys):
    run = chain_inproc
    y_norm = np.linalg.norm(run["y"])
    gaps = [np.linalg.norm(rec.residual_after - run["e_oracle"])
            for rec in run["task"].records]
    above_floor = [(k + 1, g) for k, g in enumerate(gaps)
                   if g > 1e-10 * y_norm]
    if len(above_floor) >= 2:
        ks = np.array([k for k, _ in above_floor], dtype=np.float64)
        logs = np.log([g for _, g in above_floor])
        slope = float(np.polyfit(ks, logs, 1)[0])
    else:
        slope = -np.inf  # converged essentially immediately

    started = time.perf_counter()
    indep = _linear_chain_run(correlation=0.0, transport="inproc",
                              max_rounds=3)
    indep_seconds = time.perf_counter() - started
    one_round_gap = float(
        np.linalg.norm(indep["task"].records[0].residual_after
                       - indep["e_oracle"])
        / np.linalg.norm(indep["y"]))

    ok = slope < -0.05 and one_round_gap <= 1e-9 and indep_seconds < 10.0
    _emit(capsys, ok, "criterion 2 (geometric decay to the centralized fit)",
          f"decay slope {slope:.3f} over {len(above_floor)} rounds, "
          f"independent-columns one-round gap {one_round_gap:.2e}, "
          f"{indep_seconds:.1f}s")
    assert slope < -0.05
    assert one_round_gap <= 1e-9
    assert indep_seconds < 10.0


# ---------------------------------------------------------------------------
# criterion 3: labels = summed predictions + final residual, every learner
# ---------------------------------------------------------------------------

def test_criterion_3_telescoping_identity(capsys):
    started = time.perf_counter()
    spec = SyntheticSpec(kind="friedman1", n=300, noise_sd=1.0, seed=5)
    full, labels = generate(spec)
    parts = vertical_split(full, (("x1", "x2"), ("x3", "x4"), ("x5",)))
    kinds = {
        "least_squares": LearnerSpec("least_squares"),
        "ridge": LearnerSpec("ridge", {"lam": 0.1}),
        "regression_tree": LearnerSpec("regression_tree"),
        "gradient_boosting": LearnerSpec("gradient_boosting",
                                         {"stages": 30}),
        "dense_net": LearnerSpec("dense_net",
                                 {"hidden": 8, "epochs": 5, "batch": 32,
                                  "rate": 0.01}),
    }
    worst = {}
    for name, learner in kinds.items():
        alice = LocalModule("alice", parts[0], learner)
        endpoints = [local_endpoint(LocalModule(f"peer-{i}", p, learner))
                     for i, p in enumerate(parts[1:], start=1)]
        cfg = ProtocolConfig(max_rounds=4, patience=4, seed=3)
        task = run_learning_stage(alice, endpoints, labels, cfg,
                                  task_id=f"tele-{name}")
        y = labels.lookup(task.train_ids)
        pred = predict_stage(task, alice, endpoints, task.train_ids,
                             upto=len(task.records))
        residual = task.records[-1].residual_after
        worst[name] = float(np.linalg.norm(y - pred - residual)
                            / np.linalg.norm(y))
    seconds = time.perf_counter() - started
    bad = {k: v for k, v in worst.items() if v > 1e-9}
    ok = not bad and seconds < 30.0
    _emit(capsys, ok, "criterion 3 (telescoping identity on training rows)",
          f"worst relative gap {max(worst.values()):.2e} across "
          f"{len(worst)} learner kinds, {seconds:.1f}s")
    assert not bad, f"identity violated: {bad}"
    assert seconds < 30.0


# ---------------------------------------------------------------------------
# criterion 4: assisted vs stacking grid
# ---------------------------------------------------------------------------

def _stacking_config(n_train, n_test, replications):
    return ExperimentConfig.from_dict({
        "name": "stack-grid",
        "seed": 42,
        "replications": replications,
        "data": {"kind": "friedman1", "n_train": n_train, "n_test": n_test,
                 "noise_sd": 1.0},
        "groups": [["x1", "x2"], ["x3", "x4"], ["x5"]],
        "learners": "least_squares",
        "protocol": {"max_rounds": 20, "patience": 3},
        "baselines": [],
        "cells": [
            {"name": "LR", "al": "least_squares", "base": "least_squares",
             "meta": "least_squares"},
            {"name": "GB", "al": "gradient_boosting",
             "base": "gradient_boosting", "meta": "least_squares"},
        ],
    })


def test_criterion_4_stacking_grid_reduced_scale(capsys):
    started = time.perf_counter()
    table = compare_stacking(_stacking_config(2000, 10000, replications=1))
    seconds = time.perf_counter() - started
    cells = {c["name"]: c for c in table["cells"]}
    al_gb = cells["GB"]["assisted"]["mean"]
    st_gb = cells["GB"]["stacking"]["mean"]
    ok = al_gb < st_gb and seconds < 300.0
    _emit(capsys, ok, "criterion 4 (reduced-scale stacking grid)",
          f"boosting cell: assisted {al_gb:.3f} < stacking {st_gb:.3f}; "
          f"linear cell: assisted {cells['LR']['assisted']['mean']:.3f} vs "
          f"stacking {cells['LR']['stacking']['mean']:.3f}, {seconds:.1f}s")
    assert al_gb < st_gb
    assert seconds < 300.0


@pytest.mark.skipif(not FULL_SCALE,
                    reason="set ASSIST_ACCEPT_FULL=1 for the full-scale grid")
def test_criterion_4_stacking_grid_full_scale(capsys):
    started = time.perf_counter()
    table = compare_stacking(_stacking_config(10000, 100000, replications=5))
    seconds = time.perf_counter() - started
    cells = {c["name"]: c for c in table["cells"]}
    al_lr = cells["LR"]["assisted"]["mean"]
    st_lr = cells["LR"]["stacking"]["mean"]
    al_gb = cells["GB"]["assisted"]["mean"]
    st_gb = cells["GB"]["stacking"]["mean"]
    ok = (abs(al_lr - 2.64) <= 0.15 and abs(st_lr - 2.63) <= 0.15
          and al_gb <= st_gb - 0.15 and 0.95 <= al_gb <= 1.35
          and seconds <= 1800.0)
    _emit(capsys, ok, "criterion 4 (full-scale stacking grid)",
          f"LR assisted {al_lr:.3f} / stacking {st_lr:.3f}; "
          f"GB assisted {al_gb:.3f} / stacking {st_gb:.3f}, {seconds:.0f}s")
    assert abs(al_lr - 2.64) <= 0.15
    assert abs(st_lr - 2.63) <= 0.15
    assert al_gb <= st_gb - 0.15
    assert 0.95 <= al_gb <= 1.35
    assert seconds <= 1800.0


# ---------------------------------------------------------------------------
# criterion 5: more rounds eventually overfit; the stop rule lands near
# the curve minimum
# ---------------------------------------------------------------------------

def test_criterion_5_round_curve_overfits_and_stop_rule_lands_close(capsys):
    started = time.perf_counter()
    config = ExperimentConfig.from_dict({
        "name": "rounds-curve",
        "seed": 42,
        "replications": 5,
        "data": {"kind": "friedman1", "n_train": 2000, "n_test": 10000,
                 "noise_sd": 1.0},
        "groups": [["x1", "x2"], ["x3", "x4"], ["x5"]],
        "learners": "regression_tree",
        "protocol": {"max_rounds": 40, "patience": 3,
                     "holdout_fraction": 0.2},
        "baselines": [],
    })
    report = run_experiment(config)
    seconds = time.perf_counter() - started
    mean_curve = [row["test_mad"]["mean"] for row in report.summary["rounds"]]
    se_last = report.summary["rounds"][-1]["test_mad"]["se"]
    k_star = int(np.argmin(mean_curve)) + 1
    end_excess = mean_curve[-1] - min(mean_curve)
    ratios = []
    for rep in report.replications:
        mads = [row["test_mad"] for row in rep["rounds"]]
        ratios.append(mads[rep["chosen_round"] - 1] / min(mads))
    worst_ratio = max(ratios)
    ok = (1 < k_star < 40 and end_excess > 2 * se_last
          and worst_ratio <= 1.05 and seconds < 300.0)
    _emit(capsys, ok, "criterion 5 (round curve overfits, stop rule close)",
          f"curve minimum at round {k_star}, round-40 excess {end_excess:.3f}"
          f" > 2*se {2 * se_last:.3f}, worst chosen/min MAD ratio "
          f"{worst_ratio:.4f}, {seconds:.0f}s")
    assert 1 < k_star < 40
    assert end_excess > 2 * se_last
    assert worst_ratio <= 1.05
    assert seconds < 300.0


# ---------------------------------------------------------------------------
# criterion 6: split training matches the one-piece network
# ---------------------------------------------------------------------------

def test_criterion_6_split_training_near_parity(split_inproc, capsys):
    run = split_inproc
    ratio = run["split_test_rmse"] / run["mono_test_rmse"]

    rng = np.random.default_rng(8)
    worst_rel = 0.0
    eps = 1e-5
    for _ in range(20):
        X = rng.standard_normal((5, 3))
        y = rng.standard_normal(5)
        w_in, b_hid, w_out, b_out = dense_init(3, 4, int(rng.integers(1e6)))
        w_in = w_in + 0.1 * rng.standard_normal(w_in.shape)
        w_out = w_out + 0.1 * rng.standard_normal(w_out.shape)
        _, grads = dense_loss_and_grads(X, None, y, w_in, b_hid, w_out,
                                        b_out)
        params = [w_in, b_hid, w_out, np.array(b_out)]
        for p_idx, param in enumerate(params):
            flat = np.atleast_1d(param).ravel()
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + eps
                up = _loss_of(X, y, params)
                flat[j] = orig - eps
                down = _loss_of(X, y, params)
                flat[j] = orig
                numeric = (up - down) / (2 * eps)
                analytic = np.atleast_1d(grads[p_idx]).ravel()[j]
                denom = max(abs(numeric), abs(analytic), 1e-8)
                worst_rel = max(worst_rel, abs(numeric - analytic) / denom)

    ok = (abs(ratio - 1.0) <= 0.15 and worst_rel <= 1e-4
          and run["seconds"] < 120.0)
    _emit(capsys, ok, "criterion 6 (split network near one-piece parity)",
          f"test RMSE ratio split/mono {ratio:.4f}, worst gradient "
          f"rel. error {worst_rel:.2e}, {run['seconds']:.1f}s")
    assert abs(ratio - 1.0) <= 0.15
    assert worst_rel <= 1e-4
    assert run["seconds"] < 120.0


def _loss_of(X, y, params):
    w_in, b_hid, w_out, b_out = params
    pred = dense_forward(X, None, w_in, b_hid, w_out, float(b_out))
    return float(np.mean((pred - y) ** 2))


# ---------------------------------------------------------------------------
# criterion 7: the wire changes nothing
# ---------------------------------------------------------------------------

def test_criterion_7_tcp_is_bit_identical(chain_inproc, split_inproc,
                                          capsys):
    started = time.perf_counter()
    chain_tcp = _linear_chain_run(correlation=0.5, transport="tcp")
    split_tcp = _split_net_run(transport="tcp")
    seconds = time.perf_counter() - started
    chain_same = (chain_tcp["history"] == chain_inproc["history"]
                  and chain_tcp["halfsteps"] == chain_inproc["halfsteps"]
                  and np.array_equal(chain_tcp["pred_train"],
                                     chain_inproc["pred_train"]))
    split_same = (split_tcp["history"] == split_inproc["history"]
                  and np.array_equal(split_tcp["pred_test"],
                                     split_inproc["pred_test"]))
    ok = chain_same and split_same and seconds < 60.0
    _emit(capsys, ok, "criterion 7 (tcp replays in-process bit for bit)",
          f"chain sequences identical: {chain_same}, split-net sequences "
          f"identical: {split_same}, {seconds:.1f}s")
    assert chain_same
    assert split_same
    assert seconds < 60.0


# ---------------------------------------------------------------------------
# criterion 8: payload schemas confine what can cross the wire; garbage
# cannot take a responder down
# ---------------------------------------------------------------------------

_FLOAT_FIELDS = ("values", "matrix", "features")


def _accepts(kind, payload) -> bool:
    """Whether any path admits ``payload`` as ``kind``: the schema on the
    arrays an Envelope holds, an Envelope built from the payload, or a wire
    message carrying its float fields as counted frames after the header
    line (with the column count) and its ids as their frame (with its
    byte size)."""
    held = {k: np.array(v, dtype=np.float64) if k in _FLOAT_FIELDS else v
            for k, v in payload.items()}
    wire, frames = dict(payload), {}
    for name in _FLOAT_FIELDS & payload.keys():
        wire[name] = held[name].size
        frames[name] = held[name].astype("<f8").tobytes()
        if held[name].ndim == 2:
            wire["cols"] = held[name].shape[1]
    if "ids" in payload:
        frames["ids"] = "\n".join(payload["ids"]).encode("utf-8")
        wire["ids"], wire["id_bytes"] = len(payload["ids"]), len(frames["ids"])
    line = json.dumps({"v": 4, "kind": kind, "task": "t", "round": 1,
                       "from": "a", "to": "b", "payload": wire}) + "\n"
    frames = b"".join(frames[name] for name in sorted(frames))
    attempts = (lambda: validate_payload(kind, held),
                lambda: Envelope(kind=kind, task="t", round=1, sender="a",
                                 receiver="b", payload=payload),
                lambda: decode(line.encode() + frames))
    accepted = False
    for attempt in attempts:
        try:
            attempt()
            accepted = True
        except (err.MalformedMessage, err.ShapeMismatch):
            pass
    return accepted


def test_criterion_8_schema_confinement_and_fuzz(capsys):
    started = time.perf_counter()
    matrix_smuggling = 0
    attempts = 0
    for kind in ("FIT_REQUEST", "FIT_RESPONSE", "PREDICT_REQUEST",
                 "PREDICT_RESPONSE"):
        # each payload names its ids as a list and as a digest
        for id_field in ({"ids": ["a"]}, {"id_set": id_digest(["a"])}):
            payloads = [
                {**id_field, "values": [[1.0, 2.0]]},
                {**id_field, "values": [1.0], "matrix": [[1.0]]},
                {**id_field, "values": [1.0], "features": [[1.0]]},
                {**id_field, "rounds": [[1]]},
            ]
            attempts += len(payloads)
            matrix_smuggling += sum(_accepts(kind, p) for p in payloads)

    spec = SyntheticSpec(kind="friedman1", n=20, noise_sd=1.0, seed=9)
    part, _ = generate(spec)
    module = LocalModule("target", part, LS)
    rng = np.random.default_rng(10)
    survived = True
    with serve_module(module) as server:
        with socket.create_connection((server.host, server.port),
                                      timeout=10.0) as conn:
            reader = conn.makefile("rb")
            for _ in range(1000):
                chunk = bytes(rng.integers(0, 256,
                                           size=int(rng.integers(1, 200)),
                                           dtype=np.uint8))
                conn.sendall(chunk.replace(b"\n", b"_") + b"\n")
                reply = reader.readline()
                if not reply or decode(reply).kind != "ERROR":
                    survived = False
                    break
        # the server must still do real work afterwards
        with server.endpoint() as ep:
            good = ep.request(
                Envelope(kind="FIT_REQUEST", task="after-fuzz",
                         round=1, sender="a", receiver="target",
                         payload={"ids": list(part.ids),
                                  "values": [0.0] * part.n_rows}))
        survived = survived and good.kind == "FIT_RESPONSE"
    seconds = time.perf_counter() - started
    ok = matrix_smuggling == 0 and survived and seconds < 60.0
    _emit(capsys, ok, "criterion 8 (schema confinement and fuzz)",
          f"2-D payload attempts rejected: {attempts - matrix_smuggling}/"
          f"{attempts}, "
          f"responder survived 1000 garbage lines: {survived}, "
          f"{seconds:.1f}s")
    assert matrix_smuggling == 0
    assert survived
    assert seconds < 60.0
