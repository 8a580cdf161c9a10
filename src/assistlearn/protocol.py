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
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import errors as err
from .core import LocalModule, TaskLabels, align, collate, derive_seed
from .data import SplitSpec, split as id_split
from .learners import LearnerSpec, fit_learner, predict
from .metrics import mad, rms, rmse
from .transport import Envelope

log = logging.getLogger("assistlearn")


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RoundRecord:
    """What one round did: who fit, residual RMSE after each half-step,
    the validation score, and the training residual at round end."""

    round: int
    participants: tuple[str, ...]
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
    refusals: tuple[tuple[int, str], ...] = ()

    @property
    def validation_history(self) -> list[float]:
        return [r.validation_rmse for r in self.records]

    def rounds_for(self, module_id: str, upto: Optional[int] = None) -> list[int]:
        upto = self.best_round if upto is None else upto
        return [r.round for r in self.records[:upto]
                if module_id in r.participants]


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
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
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
               ids: Sequence[str], values: np.ndarray) -> np.ndarray:
    """Fit the module's learner to an incoming residual; return the new one.

    ``values`` holds one residual per id (ShapeMismatch otherwise). The
    fitted model lands in the module's store under (task id, round) -
    writing the same key twice raises StorageConflict. The returned residual
    is the incoming values minus this model's predictions on the module's
    own rows for ``ids``.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (len(ids),):
        raise err.ShapeMismatch(
            f"{len(ids)} ids vs values of shape {values.shape}")
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
    must cover it, and a module replying REFUSE is dropped from the chain
    for the remaining rounds (the event is recorded).
    """
    task_id = task_id if task_id is not None else f"task-{config.seed}"
    chain = list(assistants)
    train_ids, hold_ids = _working_sets(alice, labels,
                                        config.holdout_fraction, config.seed)
    y_train = labels.lookup(train_ids)
    X_train = align(alice.partition, train_ids)
    if hold_ids:
        y_hold = labels.lookup(hold_ids)
        X_hold = align(alice.partition, hold_ids)
        cum_hold = np.zeros(len(hold_ids))
    module_ids = [alice.module_id] + [ep.module_id for ep in chain]

    residual = y_train.copy()
    records = []
    history: list[float] = []
    refusals: list[tuple[int, str]] = []
    for round_no in range(1, config.max_rounds + 1):
        started = time.perf_counter()
        halfsteps = []
        participants = []
        seed = derive_seed(alice.learner.params.get("seed", 0),
                           task_id, alice.module_id, round_no)
        model, fitted = fit_learner(alice.learner, X_train, residual,
                                    seed=seed)
        alice.record_model(task_id, round_no, model)
        residual = residual - fitted
        halfsteps.append(rms(residual))
        participants.append(alice.module_id)
        if hold_ids:
            cum_hold += predict(model, X_hold)
        for ep in list(chain):
            try:
                residual = _fit_round_trip(ep, alice.module_id, task_id,
                                           round_no, train_ids, residual,
                                           config.timeout)
            except err.AssistantRefused:
                chain.remove(ep)
                refusals.append((round_no, ep.module_id))
                log.info("module %s refused task %s at round %d; dropped",
                         ep.module_id, task_id, round_no)
                continue
            halfsteps.append(rms(residual))
            participants.append(ep.module_id)
            if hold_ids:
                cum_hold += _predict_round_trip(ep, alice.module_id, task_id,
                                                [round_no], hold_ids,
                                                config.timeout)
        if hold_ids:
            val = rmse(y_hold, cum_hold)
        else:
            val = rms(residual)
        history.append(val)
        records.append(RoundRecord(round=round_no,
                                   participants=tuple(participants),
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
                       best_round=argmin_round(history),
                       refusals=tuple(refusals))


def _working_sets(alice, labels, holdout_fraction: float, seed: int):
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

def _alice_rows(alice: LocalModule, ids: Sequence[str],
               alice_features: Optional[np.ndarray]) -> np.ndarray:
    """Alice's feature rows for ``ids``: her partition, or the override.

    An id absent from her partition raises MissingTestRows; an override
    must have one row per id (ShapeMismatch otherwise).
    """
    if alice_features is None:
        try:
            return align(alice.partition, ids)
        except err.MissingId as exc:
            raise err.MissingTestRows(str(exc)) from None
    X = np.asarray(alice_features, dtype=np.float64)
    if X.shape[0] != len(ids):
        raise err.ShapeMismatch(f"{X.shape[0]} feature rows for {len(ids)} ids")
    return X


def _endpoint_for(by_id: dict, module_id: str):
    try:
        return by_id[module_id]
    except KeyError:
        raise err.MissingTestRows(
            f"no endpoint for module {module_id!r}") from None


def predict_stage(task: TrainedTask, alice: LocalModule, assistants: Sequence,
                  ids: Sequence[str],
                  alice_features: Optional[np.ndarray] = None,
                  upto: Optional[int] = None,
                  timeout: float = 30.0) -> np.ndarray:
    """Sum of every recorded chain model's prediction over rounds 1..K.

    ``ids`` must be resolvable in each participating module's partition;
    ``alice_features`` (one row per id) overrides alice's own lookup for
    rows she never stored. ``upto`` overrides K (the recorded best round).
    """
    upto = task.best_round if upto is None else upto
    if upto < 1 or upto > len(task.records):
        raise err.UnknownRound(f"round {upto} outside recorded range")
    X = _alice_rows(alice, ids, alice_features)
    out = np.zeros(len(ids))
    for k in task.rounds_for(alice.module_id, upto):
        out += predict(alice.stored_model(task.task_id, k), X)
    by_id = {ep.module_id: ep for ep in assistants}
    for module_id in task.module_ids[1:]:
        rounds = task.rounds_for(module_id, upto)
        if not rounds:
            continue
        out += _predict_round_trip(_endpoint_for(by_id, module_id),
                                   alice.module_id, task.task_id, rounds, ids,
                                   timeout)
    return out


def per_round_predictions(task: TrainedTask, alice, assistants, ids,
                          alice_features: Optional[np.ndarray] = None,
                          timeout: float = 30.0) -> np.ndarray:
    """Cumulative prediction after each round, stacked (rounds, len(ids)).

    Row k-1 equals predict_stage with upto=k; computed incrementally so each
    model is evaluated once.
    """
    X = _alice_rows(alice, ids, alice_features)
    by_id = {ep.module_id: ep for ep in assistants}
    cum = np.zeros(len(ids))
    rows = []
    for rec in task.records:
        for module_id in rec.participants:
            if module_id == alice.module_id:
                cum += predict(alice.stored_model(task.task_id, rec.round), X)
            else:
                cum += _predict_round_trip(_endpoint_for(by_id, module_id),
                                           alice.module_id, task.task_id,
                                           [rec.round], ids, timeout)
        rows.append(cum.copy())
    return np.vstack(rows)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------

def _resolve_split(partitions, labels, splitspec):
    """(train, test) ids: a given pair as is, or a SplitSpec applied to the
    ids that every partition and the labels share."""
    ids = collate(partitions) if len(partitions) > 1 else partitions[0].ids
    if isinstance(splitspec, SplitSpec):
        return id_split(sorted(set(ids) & set(labels.ids)), splitspec)
    train_ids, test_ids = splitspec
    return tuple(train_ids), tuple(test_ids)


def _pooled(partitions, ids):
    return np.column_stack([align(p, ids) for p in partitions])


def oracle_baseline(partitions, labels: TaskLabels, learner_spec: LearnerSpec,
                    splitspec, seed: int = 0) -> BaselineMetrics:
    """Centralized ceiling: one learner on the column-concatenated pool."""
    train_ids, test_ids = _resolve_split(partitions, labels, splitspec)
    X_train = _pooled(partitions, train_ids)
    X_test = _pooled(partitions, test_ids)
    y_train = labels.lookup(train_ids)
    y_test = labels.lookup(test_ids)
    model, pred_train = fit_learner(learner_spec, X_train, y_train,
                                    seed=derive_seed(seed, "oracle"))
    return _scored(y_train, pred_train, y_test, predict(model, X_test))


def stacking_baseline(partitions, labels: TaskLabels, base_specs,
                      meta_spec: LearnerSpec, splitspec, folds: int = 5,
                      seed: int = 0) -> BaselineMetrics:
    """Out-of-fold stacking over the partitions.

    Each partition fits its base learner straight to the labels; their
    K-fold out-of-fold predictions become meta-features for the meta learner.
    ``base_specs`` is one spec (shared) or one spec per partition.
    """
    if folds < 2:
        raise ValueError("folds must be >= 2")
    if isinstance(base_specs, LearnerSpec):
        base_specs = [base_specs] * len(partitions)
    base_specs = list(base_specs)
    if len(base_specs) != len(partitions) \
            or not all(isinstance(b, LearnerSpec) for b in base_specs):
        raise ValueError(f"expected one base spec or {len(partitions)}")
    train_ids, test_ids = _resolve_split(partitions, labels, splitspec)
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
# wire helpers
# ---------------------------------------------------------------------------

def _roundtrip(endpoint, env: Envelope, timeout: float,
               expect: str) -> Envelope:
    """Send ``env``; return the reply if it is of kind ``expect``.

    REFUSE raises AssistantRefused, ERROR re-raises the remote error and
    any other kind is MalformedMessage.
    """
    reply = endpoint.request(env, timeout=timeout)
    if reply.kind == "REFUSE":
        raise err.AssistantRefused(
            f"module {endpoint.module_id} refused: "
            f"{reply.payload.get('reason', '')}")
    if reply.kind == "ERROR":
        _raise_remote(reply)
    if reply.kind != expect:
        raise err.MalformedMessage(f"expected {expect}, got {reply.kind}")
    return reply


def _echo_roundtrip(endpoint, env: Envelope, timeout: float, expect: str,
                    field: str) -> np.ndarray:
    """Round trip whose reply echoes the request ids; returns the reply's
    ``field`` as float64 with one row per id."""
    reply = _roundtrip(endpoint, env, timeout, expect)
    ids = env.payload["ids"]
    if reply.payload["ids"] != ids:
        raise err.ShapeMismatch("reply ids differ from request ids")
    if field not in reply.payload:
        raise err.MalformedMessage(f"{expect} reply without {field!r}")
    out = np.array(reply.payload[field], dtype=np.float64)
    if out.shape[0] != len(ids):
        raise err.ShapeMismatch("reply length differs from request")
    return out


def _raise_remote(reply: Envelope):
    name = reply.payload.get("error", "TransportError")
    message = reply.payload.get("message", "")
    cls = getattr(err, name, None)
    if isinstance(cls, type) and issubclass(cls, err.AssistError):
        raise cls(message)
    raise err.TransportError(f"remote {name}: {message}")


def _fit_round_trip(endpoint, sender, task_id, round_no, ids, values,
                    timeout) -> np.ndarray:
    env = Envelope(kind="FIT_REQUEST", task=task_id, round=round_no,
                   sender=sender, receiver=endpoint.module_id,
                   payload={"ids": list(ids), "values": values})
    return _echo_roundtrip(endpoint, env, timeout, "FIT_RESPONSE", "values")


def _predict_round_trip(endpoint, sender, task_id, rounds, ids,
                        timeout) -> np.ndarray:
    env = Envelope(kind="PREDICT_REQUEST", task=task_id, round=0,
                   sender=sender, receiver=endpoint.module_id,
                   payload={"ids": list(ids), "rounds": [int(r) for r in rounds]})
    return _echo_roundtrip(endpoint, env, timeout, "PREDICT_RESPONSE",
                           "values")
