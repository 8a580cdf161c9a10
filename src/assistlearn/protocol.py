"""The residual-exchange learning protocol.

One participant (by convention "alice") owns the labels. Each round she fits
her learner to the current training residual on her own columns, then pushes
the residual through the assistant chain: every assistant fits its learner to
the incoming residual on *its* columns, records the model under (task id,
round), and passes its residual on. The last residual seeds the next round.
Only ids and residual vectors ever cross module boundaries.

Prediction replays the bookkeeping: every recorded model for rounds 1..K
contributes its prediction, summed unweighted. On the training rows this sum
plus the final residual reproduces the labels to float precision, which the
tests pin as an identity.

Stopping is a patience rule on a held-out slice of the training rows; the
reported round K is the validation argmin over the executed rounds (ties go
to the smaller round).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import errors as err
from .core import (LocalModule, TaskLabels, align, check_int, check_real,
                   derive_seed)
from .data import SplitSpec, split as id_split
from .learners import LearnerSpec, fit_learner, predict
from .metrics import mad, rms, rmse
from .transport import Envelope, id_digest

log = logging.getLogger("assistlearn")


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoundRecord:
    """What one round did: residual RMSE after each module's half-step,
    the validation score, and the training residual at round end."""

    round: int
    halfstep_rmse: tuple[float, ...]
    validation_rmse: float
    residual_after: np.ndarray
    seconds: float = 0.0


@dataclass
class TrainedTask:
    """Everything the orchestrator keeps after the learning stage."""

    task_id: str
    module_ids: tuple[str, ...]          # alice first, then chain order
    train_ids: tuple[str, ...]
    holdout_ids: tuple[str, ...]
    records: tuple[RoundRecord, ...]
    best_round: int
    # the task's id-set record, which every stage call of the task shares
    known: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def validation_history(self) -> list[float]:
        return [r.validation_rmse for r in self.records]


@dataclass(frozen=True)
class ProtocolConfig:
    """Orchestrator knobs for the residual chain's learning stage."""

    max_rounds: int = 25
    patience: int = 3
    tol_rel: float = 1e-4
    holdout_fraction: float = 0.2
    seed: int = 0
    timeout: float = 30.0

    def __post_init__(self):
        check_int("max_rounds", self.max_rounds, 1)
        check_int("patience", self.patience, 1)
        check_int("seed", self.seed)
        check_real("timeout", self.timeout, 0)
        if self.tol_rel < 0:
            raise ValueError("tol_rel must be >= 0")
        if not 0.0 <= self.holdout_fraction < 1.0:
            raise ValueError("holdout_fraction must be in [0, 1)")


@dataclass(frozen=True)
class BaselineMetrics:
    train_rmse: float
    test_rmse: float
    train_mad: float
    test_mad: float


# ---------------------------------------------------------------------------
# module-side fit
# ---------------------------------------------------------------------------

def assist_fit(module: LocalModule, task_id: str, round_no: int,
               ids: Sequence[str], values: np.ndarray,
               X: Optional[np.ndarray] = None) -> np.ndarray:
    """Fit the module's learner to an incoming residual; return the new one.

    ``values`` holds one residual per id (ShapeMismatch otherwise). The
    fitted model lands in the module's store under (task id, round) -
    writing the same key twice raises StorageConflict. The returned residual
    is the incoming values minus this model's predictions on the module's
    own rows for ``ids``; ``X`` passes those rows when the caller has them.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (len(ids),):
        raise err.ShapeMismatch(
            f"{len(ids)} ids vs values of shape {values.shape}")
    if X is None:
        X = align(module.partition, ids)
    seed = derive_seed(module.learner.params.get("seed", 0),
                       task_id, module.module_id, round_no)
    model, fitted = fit_learner(module.learner, X, values, seed=seed)
    module.record_model(task_id, round_no, model)
    return values - fitted


# ---------------------------------------------------------------------------
# stopping
# ---------------------------------------------------------------------------

def stop_check(history: Sequence[float], patience: int,
               tol_rel: float = 1e-4) -> bool:
    """True when the last ``patience`` scores all failed to improve.

    "Improve" means beating the minimum of the earlier history by more than
    ``tol_rel`` relative. With fewer than patience+1 entries there is no
    evidence either way, so the answer is False (continue).
    """
    if patience < 1:
        raise ValueError("patience must be >= 1")
    if len(history) <= patience:
        return False
    cut = len(history) - patience
    floor = min(history[:cut])
    margin = tol_rel * abs(floor)
    return all(floor - h <= margin for h in history[cut:])


def stopped_round(history: Sequence[float], patience: int,
                  tol_rel: float = 1e-4) -> int:
    """Round the stop rule would have executed through on this history."""
    for k in range(1, len(history) + 1):
        if stop_check(history[:k], patience, tol_rel):
            return k
    return len(history)


def argmin_round(history: Sequence[float]) -> int:
    """1-based index of the smallest score; ties go to the earliest."""
    best = 0
    for i, h in enumerate(history):
        if h < history[best]:
            best = i
    return best + 1


# ---------------------------------------------------------------------------
# learning stage
# ---------------------------------------------------------------------------

def run_learning_stage(alice: LocalModule, assistants: Sequence,
                       labels: TaskLabels,
                       config: ProtocolConfig = ProtocolConfig(),
                       task_id: Optional[str] = None) -> TrainedTask:
    """Train a task over the assistant chain; returns the task record.

    ``assistants`` are endpoints (in-process or TCP). The working id set is
    the sorted intersection of the labels and alice's partition; assistants
    must cover it.
    """
    task_id = task_id if task_id is not None else f"task-{config.seed}"
    train_ids, hold_ids = working_sets(alice, labels,
                                       config.holdout_fraction, config.seed)
    y_train = labels.lookup(train_ids)
    X_train = align(alice.partition, train_ids)
    if hold_ids:
        y_hold = labels.lookup(hold_ids)
        X_hold = align(alice.partition, hold_ids)
        cum_hold = np.zeros(len(hold_ids))
    module_ids = [alice.module_id] + [ep.module_id for ep in assistants]

    known: dict = {}
    peers = [Peer(ep, task_id, alice.module_id, config.timeout, known)
             for ep in assistants]
    residual = y_train.copy()
    records = []
    history: list[float] = []
    for round_no in range(1, config.max_rounds + 1):
        started = time.perf_counter()
        halfsteps = []
        residual = assist_fit(alice, task_id, round_no, train_ids, residual,
                              X_train)
        halfsteps.append(rms(residual))
        if hold_ids:
            cum_hold += predict(alice.stored_model(task_id, round_no), X_hold)
        for peer in peers:
            residual = peer.fit(round_no, train_ids, residual)
            halfsteps.append(rms(residual))
            if hold_ids:
                cum_hold += peer.predict([round_no], hold_ids)
        if hold_ids:
            val = rmse(y_hold, cum_hold)
        else:
            val = rms(residual)
        history.append(val)
        records.append(RoundRecord(round=round_no,
                                   halfstep_rmse=tuple(halfsteps),
                                   validation_rmse=val,
                                   residual_after=residual.copy(),
                                   seconds=time.perf_counter() - started))
        if stop_check(history, config.patience, config.tol_rel):
            break
    return TrainedTask(task_id=task_id,
                       module_ids=tuple(module_ids),
                       train_ids=tuple(train_ids),
                       holdout_ids=tuple(hold_ids),
                       records=tuple(records),
                       best_round=argmin_round(history), known=known)


def working_sets(alice, labels, holdout_fraction: float, seed: int):
    """Sorted ids shared by the labels and alice, split into (train, holdout)."""
    work_ids = sorted(set(labels.ids) & set(alice.partition.ids))
    if not work_ids:
        raise err.CollationFailure(
            "labels and alice's partition share no sample id")
    if holdout_fraction > 0.0 and len(work_ids) >= 2:
        train_ids, hold_ids = id_split(
            tuple(work_ids),
            SplitSpec(fraction=1.0 - holdout_fraction,
                      seed=derive_seed(seed, "holdout")))
        if not train_ids:            # tiny sets can floor to zero
            train_ids, hold_ids = tuple(work_ids), ()
    else:
        train_ids, hold_ids = tuple(work_ids), ()
    return train_ids, hold_ids


# ---------------------------------------------------------------------------
# prediction stage
# ---------------------------------------------------------------------------

def alice_rows(alice: LocalModule, ids: Sequence[str]) -> np.ndarray:
    """Alice's feature rows for ``ids``; an id absent from her partition
    raises MissingTestRows."""
    try:
        return align(alice.partition, ids)
    except err.MissingId as exc:
        raise err.MissingTestRows(str(exc)) from None


def _peers(task: TrainedTask, alice: LocalModule, assistants: Sequence,
           timeout: float) -> list[Peer]:
    """One Peer per assistant of ``task``, in chain order; an assistant
    with no endpoint in ``assistants`` raises MissingTestRows."""
    by_id = {ep.module_id: ep for ep in assistants}
    for module_id in task.module_ids[1:]:
        if module_id not in by_id:
            raise err.MissingTestRows(f"no endpoint for module {module_id!r}")
    return [Peer(by_id[m], task.task_id, alice.module_id, timeout, task.known)
            for m in task.module_ids[1:]]


def predict_stage(task: TrainedTask, alice: LocalModule, assistants: Sequence,
                  ids: Sequence[str], upto: Optional[int] = None,
                  timeout: float = 30.0) -> np.ndarray:
    """Sum of every recorded chain model's prediction over rounds 1..K.

    ``ids`` must be resolvable in each module's partition. ``upto``
    overrides K (the recorded best round).
    """
    upto = task.best_round if upto is None else upto
    if upto < 1 or upto > len(task.records):
        raise err.UnknownRound(f"round {upto} outside recorded range")
    X = alice_rows(alice, ids)
    peers = _peers(task, alice, assistants, timeout)
    rounds = range(1, upto + 1)
    out = np.zeros(len(ids))
    for k in rounds:
        out += predict(alice.stored_model(task.task_id, k), X)
    for peer in peers:
        out += peer.predict(rounds, ids)
    return out


def per_round_predictions(task: TrainedTask, alice, assistants, ids,
                          timeout: float = 30.0) -> np.ndarray:
    """Cumulative prediction after each round, stacked (rounds, len(ids)).

    Row k-1 equals predict_stage with upto=k; computed incrementally so each
    model is evaluated once.
    """
    X = alice_rows(alice, ids)
    peers = _peers(task, alice, assistants, timeout)
    cum = np.zeros(len(ids))
    rows = []
    for rec in task.records:
        cum += predict(alice.stored_model(task.task_id, rec.round), X)
        for peer in peers:
            cum += peer.predict([rec.round], ids)
        rows.append(cum.copy())
    return np.vstack(rows)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def _pooled(partitions, ids):
    return np.column_stack([align(p, ids) for p in partitions])


def oracle_baseline(partitions, labels: TaskLabels, learner_spec: LearnerSpec,
                    split, seed: int = 0) -> BaselineMetrics:
    """Centralized ceiling: one learner on the column-concatenated pool,
    trained and scored on ``split``, a ``(train_ids, test_ids)`` pair."""
    train_ids, test_ids = split
    X_train = _pooled(partitions, train_ids)
    X_test = _pooled(partitions, test_ids)
    y_train = labels.lookup(train_ids)
    y_test = labels.lookup(test_ids)
    model, pred_train = fit_learner(learner_spec, X_train, y_train,
                                    seed=derive_seed(seed, "oracle"))
    return _scored(y_train, pred_train, y_test, predict(model, X_test))


def stacking_baseline(partitions, labels: TaskLabels, base_specs,
                      meta_spec: LearnerSpec, split, folds: int = 5,
                      seed: int = 0) -> BaselineMetrics:
    """Out-of-fold stacking over the partitions.

    Each partition fits its base learner straight to the labels; their
    K-fold out-of-fold predictions become meta-features for the meta learner.
    ``base_specs`` is one spec (shared) or one spec per partition, and
    ``split`` a ``(train_ids, test_ids)`` pair.
    """
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if isinstance(base_specs, LearnerSpec):
        base_specs = [base_specs] * len(partitions)
    base_specs = list(base_specs)
    if len(base_specs) != len(partitions) \
            or not all(isinstance(b, LearnerSpec) for b in base_specs):
        raise ValueError(f"expected one base spec or {len(partitions)}")
    train_ids, test_ids = split
    y_train = labels.lookup(train_ids)
    y_test = labels.lookup(test_ids)
    n_train = len(train_ids)
    if n_train < folds:
        raise ValueError("need at least one training row per fold")
    perm = np.random.default_rng(derive_seed(seed, "stack", "folds")) \
        .permutation(n_train)
    blocks = np.array_split(perm, folds)
    oof_cols = []
    test_cols = []
    for i, (part, spec) in enumerate(zip(partitions, base_specs)):
        X_tr = align(part, train_ids)
        col = np.empty(n_train)
        # every seed carries a fixed base index 0, which keeps the stacking
        # results of earlier versions reproducible
        for f, block in enumerate(blocks):
            rest = np.setdiff1d(np.arange(n_train), block)
            model, _ = fit_learner(spec, X_tr[rest], y_train[rest],
                                   seed=derive_seed(seed, "stack", i, 0, f))
            col[block] = predict(model, X_tr[block])
        full, _ = fit_learner(spec, X_tr, y_train,
                              seed=derive_seed(seed, "stack", i, 0, "full"))
        oof_cols.append(col)
        test_cols.append(predict(full, align(part, test_ids)))
    oof = np.column_stack(oof_cols)
    test_feats = np.column_stack(test_cols)
    meta, pred_train = fit_learner(meta_spec, oof, y_train,
                                   seed=derive_seed(seed, "stack", "meta"))
    return _scored(y_train, pred_train, y_test, predict(meta, test_feats))


def _scored(y_train, pred_train, y_test, pred_test) -> BaselineMetrics:
    return BaselineMetrics(train_rmse=rmse(y_train, pred_train),
                           test_rmse=rmse(y_test, pred_test),
                           train_mad=mad(y_train, pred_train),
                           test_mad=mad(y_test, pred_test))


# ---------------------------------------------------------------------------
# peer session
# ---------------------------------------------------------------------------

class Peer:
    """Alice's side of one task's exchanges with one peer.

    ``known`` is the task's id-set record, which all its peers share: each
    id list sent maps to its digest, computed when first needed, and, for
    each peer that was sent the list in full, how often that peer has
    refused the digest. A peer that holds the list gets its ``id_set``, any
    other the full ``ids``. A peer that answers UnknownIdSet gets the full
    list and holds it again; a list the peer has refused twice goes in full
    for the rest of the task, since its cache is short of room.
    """

    def __init__(self, endpoint, task_id: str, sender: str, timeout: float,
                 known: dict):
        self.endpoint, self.task_id, self.sender = endpoint, task_id, sender
        self.timeout, self.known = timeout, known

    def fit(self, round_no: int, ids, values) -> np.ndarray:
        return self._echo("FIT_REQUEST", round_no, ids, {"values": values},
                          "FIT_RESPONSE", "values")

    def predict(self, rounds, ids) -> np.ndarray:
        return self._echo("PREDICT_REQUEST", 0, ids,
                          {"rounds": [int(r) for r in rounds]},
                          "PREDICT_RESPONSE", "values")

    def partial(self, round_no: int, ids, hidden: int) -> np.ndarray:
        return self._echo("PARTIAL_PREACT", round_no, ids, {},
                          "PARTIAL_PREACT", "matrix", (hidden,))

    def wtilde(self, round_no: int, ids, payload: dict, hidden: int) -> dict:
        """The reply's ``b_hidden``, ``w_out`` and ``b_out``, which must fit
        ``hidden``."""
        reply, _ = self._send("WTILDE_TRANSFER", round_no, ids, payload,
                              "WTILDE_TRANSFER")
        if reply.payload["b_hidden"].shape != (hidden,):
            raise err.ShapeMismatch(f"WTILDE_TRANSFER reply does not fit "
                                    f"hidden width {hidden}")
        return reply.payload

    def labels(self, payload: dict) -> int:
        """Send the LABELS_TRANSFER set-up; return the peer's column count."""
        return self._request("LABELS_TRANSFER", 0, payload,
                             "LABELS_TRANSFER").payload["own_cols"]

    def _request(self, kind: str, round_no: int, payload: dict,
                 expect: str) -> Envelope:
        """The reply, if in the reply form of ``expect``; ERROR re-raises
        the remote error and anything else is MalformedMessage."""
        env = Envelope(kind=kind, task=self.task_id, round=round_no,
                       sender=self.sender, receiver=self.endpoint.module_id,
                       payload=payload)
        reply = self.endpoint.request(env, timeout=self.timeout)
        if reply.kind == "ERROR":
            _raise_remote(reply)
        if reply.kind != expect or not reply.is_reply:
            form = "reply" if reply.is_reply else "request"
            raise err.MalformedMessage(
                f"expected a {expect} reply, got a {reply.kind} {form}")
        return reply

    def _send(self, kind: str, round_no: int, ids, payload: dict,
              expect: str) -> tuple[Envelope, dict]:
        """An id-bearing request; returns the reply and the id field sent."""
        ids = tuple(ids)
        peer = self.endpoint.module_id
        entry = self.known.setdefault(ids, [None, {}])
        refused = entry[1].get(peer)
        if refused is not None and refused < 2:
            entry[0] = entry[0] or id_digest(ids)
            form = {"id_set": entry[0]}
            try:
                return self._request(kind, round_no, {**payload, **form},
                                     expect), form
            except err.UnknownIdSet:
                refused += 1
                log.info("module %s dropped id set %s; sending the ids in "
                         "full", peer, entry[0])
        form = {"ids": list(ids)}
        reply = self._request(kind, round_no, {**payload, **form}, expect)
        entry[1][peer] = refused or 0
        return reply, form

    def _echo(self, kind: str, round_no: int, ids, payload: dict,
              expect: str, field: str, cols: tuple = ()) -> np.ndarray:
        """An id-bearing request whose reply echoes the id field sent;
        returns its ``field`` as float64 of shape ``(len(ids), *cols)``."""
        reply, form = self._send(kind, round_no, ids, payload, expect)
        (name, value), = form.items()
        if reply.payload.get(name) != value:
            raise err.ShapeMismatch("reply ids differ from request ids")
        out = np.array(reply.payload[field], dtype=np.float64)
        if out.shape != (len(ids), *cols):
            raise err.ShapeMismatch(
                f"reply of shape {out.shape} for {len(ids)} ids")
        return out


def _raise_remote(reply: Envelope):
    name = reply.payload["error"]
    message = reply.payload.get("message", "")
    cls = getattr(err, name, None)
    if isinstance(cls, type) and issubclass(cls, err.AssistError):
        raise cls(message)
    raise err.TransportError(f"remote {name}: {message}")
