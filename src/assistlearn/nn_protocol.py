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

Alice reaches Bob only through an endpoint (in process or TCP) and keeps
her block and the shared remainder for every executed round. Bob's responder
keeps a ``PartnerTask`` per task, which holds his labels and his block after
each round, never sent, and applies the rules of his rounds.

A partner with zero columns degenerates to Alice training an ordinary dense
net: every round is hers and the arithmetic matches fit_dense_net exactly.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import errors as err
from .core import LocalModule, TaskLabels, align, check_int, check_real
from .learners import dense_forward, dense_init, sgd_epochs
from .metrics import rmse
from .protocol import (Peer, ProtocolConfig, alice_rows, argmin_round,
                       stop_check, working_sets)

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
        check_real("rate", self.rate, 0)
        check_int("batch", self.batch, 1)
        check_int("epochs", self.epochs, 1)
        check_int("seed", self.seed, 0)  # LABELS_TRANSFER carries it


@dataclass(frozen=True)
class NnConfig(ProtocolConfig):
    """The chain's protocol knobs, with more rounds, and the net's knobs."""

    max_rounds: int = 50
    hidden: int = 16
    rate: float = 0.01
    batch: int = 32
    epochs_per_round: int = 1

    def __post_init__(self):
        check_int("hidden", self.hidden, 1)
        super().__post_init__()
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
    alice_rounds: dict = field(default_factory=dict, repr=False)
    round_seconds: tuple[float, ...] = ()
    # the task's id-set record, which every stage call of the task shares
    known: dict = field(default_factory=dict, repr=False, compare=False)


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


class PartnerTask:
    """Bob's half of one task: set-up, labels and ``snapshots`` by round."""

    def __init__(self, setup, own_cols: int):
        p = setup.payload
        w_in = dense_init(p["peer_cols"] + own_cols, p["hidden"], p["seed"])[0]
        self.setup = setup
        self.labels = TaskLabels(ids=p["ids"], values=p["values"])
        self.snapshots = {0: w_in[p["peer_cols"]:]}

    @classmethod
    def open(cls, tasks: dict, setup, own_cols: int) -> None:
        """Add the task to ``tasks``; a changed setup is StorageConflict."""
        if setup.task not in tasks:
            tasks[setup.task] = cls(setup, own_cols)
        elif setup != tasks[setup.task].setup:
            raise err.StorageConflict(
                f"task {setup.task!r} already has a different setup")

    def weights_at(self, round_no: int) -> np.ndarray:
        usable = [k for k in self.snapshots if k <= round_no]
        if not usable:
            raise err.UnknownRound(f"no weights at round {round_no}")
        return self.snapshots[max(usable)]

    def block_for(self, round_no: int) -> np.ndarray:
        """The latest block; ``round_no`` must be the even round after it."""
        if round_no % 2:
            raise err.MalformedMessage(f"round {round_no} is Alice's")
        latest = max(self.snapshots)
        if round_no <= latest:
            raise err.StorageConflict(
                f"round {round_no} is done; the latest is {latest}")
        if round_no > latest + 2:
            raise err.UnknownRound(
                f"round {round_no} needs round {round_no - 2}'s block; "
                f"the latest is {latest}")
        return self.snapshots[latest]

    def update(self, round_no: int, ids, X, p: dict) -> dict:
        """Bob's round on his rows ``X``; returns the new shared remainder."""
        weights = self.block_for(round_no)
        width = weights.shape[1]
        if (p["matrix"].shape, p["b_hidden"].shape) \
                != ((len(ids), width), (width,)):
            raise err.ShapeMismatch(f"shapes do not fit hidden width {width}")
        y = self.labels.lookup(ids)
        shared = SharedWeights(b_hidden=p["b_hidden"], w_out=p["w_out"],
                               b_out=p["b_out"])
        opt = NetOptConfig(rate=p["rate"], batch=p["batch"],
                           epochs=p["epochs"], seed=self.setup.payload["seed"])
        self.snapshots[round_no], shared = bob_update_round(
            weights, round_no, X, p["matrix"], y, shared, opt)
        return vars(shared)


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
    train_ids, hold_ids = working_sets(alice, labels,
                                       config.holdout_fraction, config.seed)
    X_train = align(alice.partition, train_ids)
    y_train = labels.lookup(train_ids)
    p_alice = X_train.shape[1]

    known: dict = {}
    bob = Peer(bob_ep, task_id, alice.module_id, config.timeout, known)
    p_bob = bob.labels({"ids": list(train_ids), "values": y_train,
                        "seed": config.seed, "hidden": config.hidden,
                        "peer_cols": p_alice})
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
            offset = None if solo else bob.partial(
                round_no - 1, train_ids, config.hidden)
            w_alice, shared = _update_party(X_train, offset, y_train,
                                            w_alice, shared, opt, round_no)
        else:
            shared = SharedWeights(**bob.wtilde(
                round_no, train_ids,
                {**vars(shared), "matrix": X_train @ w_alice,
                 "rate": opt.rate, "batch": opt.batch, "epochs": opt.epochs},
                config.hidden))
        snapshots[round_no] = (w_alice.copy(), shared)
        other = None if solo else bob.partial(round_no, val_ids,
                                              config.hidden)
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
                         round_seconds=tuple(timings), known=known)


def nn_predict(result: NnTrainResult, alice: LocalModule, bob_ep,
               ids: Sequence[str], upto: Optional[int] = None,
               timeout: float = 30.0) -> np.ndarray:
    """Evaluate the trained split network on new rows.

    ``upto`` picks any executed round (default: the chosen best round). Bob
    is queried for his partial at that round; if he is unreachable, the
    transport error propagates - no partial predictions.
    """
    X = alice_rows(alice, ids)
    round_no = result.best_round if upto is None else upto
    try:
        w_alice, shared = result.alice_rounds[round_no]
    except KeyError:
        raise err.UnknownRound(
            f"round {round_no} was never executed") from None
    other = None
    if result.bob_cols > 0:
        bob = Peer(bob_ep, result.task_id, alice.module_id, timeout,
                   result.known)
        other = bob.partial(round_no, ids, len(shared.b_hidden))
    return dense_forward(X, other, w_alice, shared.b_hidden,
                         shared.w_out, shared.b_out)

