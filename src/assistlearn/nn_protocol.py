"""Two-party training of one net whose input layer is split by ownership.

Alice holds the labels and her feature block; Bob holds only his block. The
hidden layer sees the *sum* of both parties' input-weight products, so what
crosses the wire is an n-by-hidden partial pre-activation, never features
and never the partner's input weights. The remaining parameters (hidden
bias, output weights, output bias) shuttle between the parties: on odd
rounds Alice updates her block plus the shared remainder while Bob's block
is frozen, on even rounds the roles flip.

Both parties derive the full input-weight init from the shared task seed and
keep their own row block, so nothing about the init needs transmitting; they
exchange column counts (plain scalars) once during setup.

Alice reaches Bob only through an endpoint (in process or TCP), and Bob's
input block never leaves him: Alice keeps her block and the shared remainder
for every executed round, and asks Bob for his partial at a given round.

A partner with zero columns degenerates to Alice training an ordinary dense
net: every round is hers and the arithmetic matches fit_dense_net exactly.
"""

from __future__ import annotations

import dataclasses
import logging
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import errors as err
from .core import LocalModule, TaskLabels, align
from .learners import dense_forward, dense_init, sgd_epochs
from .metrics import rmse
from .protocol import (ProtocolConfig, argmin_round, stop_check,
                       _alice_rows, _echo_roundtrip, _roundtrip,
                       _working_sets)
from .transport import Envelope

log = logging.getLogger("assistlearn")


@dataclass(frozen=True)
class SharedWeights:
    """The shuttled remainder: hidden bias, output weights, output bias."""

    b_hidden: np.ndarray
    w_out: np.ndarray
    b_out: float

    def __post_init__(self):
        b = np.array(self.b_hidden, dtype=np.float64)
        w = np.array(self.w_out, dtype=np.float64)
        if b.ndim != 1 or w.ndim != 1 or b.shape != w.shape:
            raise err.ShapeMismatch("inconsistent shared weight shapes")
        object.__setattr__(self, "b_hidden", b)
        object.__setattr__(self, "w_out", w)
        object.__setattr__(self, "b_out", float(self.b_out))


@dataclass(frozen=True)
class NetOptConfig:
    """Per-round optimizer knobs shared by both parties."""

    rate: float = 0.01
    batch: int = 32
    epochs: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError("rate must be > 0")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


@dataclass(frozen=True)
class NnConfig:
    """Orchestrator knobs for split-network training."""

    hidden: int = 16
    rate: float = 0.01
    batch: int = 32
    epochs_per_round: int = 1
    max_rounds: int = 50
    patience: int = 3
    tol_rel: float = 1e-4
    holdout_fraction: float = 0.2
    seed: int = 0
    timeout: float = 30.0

    def __post_init__(self):
        if self.hidden < 1:
            raise ValueError("hidden must be >= 1")
        ProtocolConfig(max_rounds=self.max_rounds, patience=self.patience,
                       tol_rel=self.tol_rel,
                       holdout_fraction=self.holdout_fraction,
                       seed=self.seed, timeout=self.timeout)
        self.opt()

    def opt(self) -> NetOptConfig:
        return NetOptConfig(rate=self.rate, batch=self.batch,
                            epochs=self.epochs_per_round, seed=self.seed)


@dataclass
class NnTrainResult:
    """Alice's record of a split-network run.

    ``alice_rounds`` maps every executed round (0 is the init) to Alice's
    (input block, shared remainder), so any round can be evaluated later;
    the chosen weights are ``alice_rounds[best_round]``. Bob's blocks stay
    with Bob.
    """

    validation_history: tuple[float, ...]
    best_round: int
    train_ids: tuple[str, ...]
    holdout_ids: tuple[str, ...]
    task_id: str
    alice_cols: int
    bob_cols: int
    alice_rounds: dict = dataclasses.field(default_factory=dict, repr=False)
    round_seconds: tuple[float, ...] = ()


# ---------------------------------------------------------------------------
# updates
# ---------------------------------------------------------------------------

def _update_party(X_own, other_partial, y, w_own, shared: SharedWeights,
                  opt: NetOptConfig, round_no: int):
    """One round of SGD on (own block, shared remainder), partner frozen.

    The batch-shuffle stream is indexed by global epoch number, so both
    parties and the monolithic trainer consume the identical stream.
    """
    first = (round_no - 1) * opt.epochs
    w, b_hidden, w_out, b_out = sgd_epochs(
        X_own, other_partial, y,
        (w_own, shared.b_hidden, shared.w_out, shared.b_out),
        opt.rate, opt.batch, opt.epochs, opt.seed, first_epoch=first)
    return w, SharedWeights(b_hidden=b_hidden, w_out=w_out, b_out=b_out)


def bob_update_round(w_bob, round_no: int, X_bob, alice_partial, y,
                     shared: SharedWeights, opt: NetOptConfig):
    """Bob's turn: must be an even round. Returns (new block, new shared).

    The round number comes from the peer, so an odd one is refused here.
    """
    if round_no % 2 == 1:
        raise ValueError(f"round {round_no} belongs to the label owner")
    return _update_party(np.asarray(X_bob, dtype=np.float64), alice_partial,
                         np.asarray(y), np.asarray(w_bob, dtype=np.float64),
                         shared, opt, round_no)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def run_nn_learning(alice: LocalModule, bob_ep, labels: TaskLabels,
                    config: NnConfig = NnConfig(),
                    task_id: Optional[str] = None) -> NnTrainResult:
    """Train the split network over ``bob_ep``, an endpoint to Bob.

    The endpoint may be in process (``local_endpoint``) or TCP. The result
    keeps Alice's weights for every executed round; Bob's block stays with
    him, and ``nn_predict`` asks him for his partial at the chosen round.
    """
    task_id = task_id if task_id is not None else f"nn-task-{config.seed}"
    train_ids, hold_ids = _working_sets(alice, labels,
                                        config.holdout_fraction, config.seed)
    X_train = align(alice.partition, train_ids)
    y_train = labels.lookup(train_ids)
    p_alice = X_train.shape[1]

    setup = Envelope(kind="LABELS_TRANSFER", task=task_id, round=0,
                     sender=alice.module_id, receiver=bob_ep.module_id,
                     payload={"ids": list(train_ids), "values": y_train,
                              "seed": config.seed, "hidden": config.hidden,
                              "peer_cols": p_alice})
    ack = _roundtrip(bob_ep, setup, config.timeout, "LABELS_TRANSFER")
    if "own_cols" not in ack.payload:
        raise err.MalformedMessage("bad LABELS_TRANSFER ack")
    p_bob = int(ack.payload["own_cols"])
    solo = p_bob == 0

    w_full, b_hidden, w_out, b_out = dense_init(
        p_alice + p_bob, config.hidden, config.seed)
    w_alice = np.array(w_full[:p_alice])
    shared = SharedWeights(b_hidden=b_hidden, w_out=w_out, b_out=b_out)
    opt = config.opt()
    # validate on the holdout rows, or on the training rows when there are none
    val_ids, X_val, y_val = train_ids, X_train, y_train
    if hold_ids:
        val_ids = hold_ids
        X_val = align(alice.partition, hold_ids)
        y_val = labels.lookup(hold_ids)

    snapshots = {0: (w_alice.copy(), shared)}
    history: list[float] = []
    timings: list[float] = []
    for round_no in range(1, config.max_rounds + 1):
        started = time.perf_counter()
        if solo or round_no % 2 == 1:
            offset = None if solo else _fetch_partial(
                bob_ep, alice.module_id, task_id, round_no - 1, train_ids,
                config.timeout)
            w_alice, shared = _update_party(X_train, offset, y_train,
                                            w_alice, shared, opt, round_no)
        else:
            partial = X_train @ w_alice
            reply = _roundtrip(bob_ep, Envelope(
                kind="WTILDE_TRANSFER", task=task_id, round=round_no,
                sender=alice.module_id, receiver=bob_ep.module_id,
                payload={"b_hidden": shared.b_hidden, "w_out": shared.w_out,
                         "b_out": shared.b_out, "ids": list(train_ids),
                         "matrix": partial, "rate": opt.rate,
                         "batch": opt.batch, "epochs": opt.epochs}),
                config.timeout, "WTILDE_TRANSFER")
            shared = SharedWeights(b_hidden=np.array(reply.payload["b_hidden"]),
                                   w_out=np.array(reply.payload["w_out"]),
                                   b_out=reply.payload["b_out"])
        snapshots[round_no] = (w_alice.copy(), shared)
        other = None if solo else _fetch_partial(
            bob_ep, alice.module_id, task_id, round_no, val_ids,
            config.timeout)
        pred = dense_forward(X_val, other, w_alice, shared.b_hidden,
                             shared.w_out, shared.b_out)
        history.append(rmse(y_val, pred))
        timings.append(time.perf_counter() - started)
        if stop_check(history, config.patience, config.tol_rel):
            log.info("split network %s plateaued after round %d",
                     task_id, round_no)
            break
    return NnTrainResult(validation_history=tuple(history),
                         best_round=argmin_round(history), train_ids=tuple(train_ids),
                         holdout_ids=tuple(hold_ids), task_id=task_id,
                         alice_cols=p_alice, bob_cols=p_bob,
                         alice_rounds=snapshots,
                         round_seconds=tuple(timings))


def nn_predict(result: NnTrainResult, alice: LocalModule, bob_ep,
               ids: Sequence[str],
               alice_features: Optional[np.ndarray] = None,
               upto: Optional[int] = None,
               timeout: float = 30.0) -> np.ndarray:
    """Evaluate the trained split network on new rows.

    ``upto`` picks any executed round (default: the chosen best round). Bob
    is queried for his partial at that round; if he is unreachable, the
    transport error propagates - no partial predictions. ``alice_features``
    (one row per id) overrides alice's own lookup.
    """
    X = _alice_rows(alice, ids, alice_features)
    round_no = result.best_round if upto is None else upto
    try:
        w_alice, shared = result.alice_rounds[round_no]
    except KeyError:
        raise err.UnknownRound(
            f"round {round_no} was never executed") from None
    other = None
    if result.bob_cols > 0:
        other = _fetch_partial(bob_ep, alice.module_id, result.task_id,
                               round_no, tuple(ids), timeout)
    return dense_forward(X, other, w_alice, shared.b_hidden,
                         shared.w_out, shared.b_out)


def _fetch_partial(endpoint, sender, task_id, round_no, ids,
                   timeout) -> np.ndarray:
    env = Envelope(kind="PARTIAL_PREACT", task=task_id, round=round_no,
                   sender=sender, receiver=endpoint.module_id,
                   payload={"ids": list(ids)})
    return _echo_roundtrip(endpoint, env, timeout, "PARTIAL_PREACT", "matrix")
