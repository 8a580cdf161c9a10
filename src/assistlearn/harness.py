"""Experiment runner: assisted runs vs oracle/solo/stacking, with reports.

A JSON config names the data, the feature groups (first group is the label
owner), the learners, the mode (residual chain or split network), and how
many replications to run.
``run_experiment`` traces the full per-round metric curves for every
replication, applies the stopping rule after the fact, fits the requested
baselines, and aggregates means with standard errors. Reports are written as
one JSON file plus a per-round CSV in long format; a determinism hash over
everything except wall-clock fields lets tests pin reproducibility.
"""

from __future__ import annotations

import copy
import hashlib
import json
import logging
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .core import (FeaturePartition, LocalModule, TaskLabels, derive_seed,
                   vertical_split)
from .data import SplitSpec, SyntheticSpec, generate, load_csv
from .data import split as id_split
from .data import split_counts
from .learners import LearnerSpec
from .metrics import mad, rms, rmse
from .nn_protocol import NnConfig, nn_predict, run_nn_learning
from .protocol import (BaselineMetrics, ProtocolConfig, argmin_round,
                       oracle_baseline, per_round_predictions, predict_stage,
                       run_learning_stage, stacking_baseline, stopped_round)
from .transport import local_endpoint, serve_module

log = logging.getLogger("assistlearn")

MODES = ("residual_chain", "split_network")
TRANSPORTS = ("inproc", "tcp")
BASELINES = ("solo", "oracle", "stacking")

_TOP_KEYS = {"name", "seed", "replications", "mode", "transport", "data",
             "groups", "learners", "protocol", "baselines", "stacking",
             "cells", "output"}
_PROTOCOL_KEYS = {"max_rounds", "patience", "tol_rel", "holdout_fraction",
                  "epochs_per_round", "timeout"}
_DATA_KEYS = {"kind", "n_train", "n_test", "noise_sd", "correlation",
              "coefficients", "extra_noise_features", "path", "id_column",
              "label_column", "train_fraction"}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description (see :meth:`from_dict`)."""

    name: str
    data: dict
    groups: tuple[tuple[str, ...], ...]
    learners: tuple[LearnerSpec, ...]
    mode: str = "residual_chain"
    transport: str = "inproc"
    max_rounds: int = 25
    patience: int = 3
    tol_rel: float = 1e-4
    holdout_fraction: float = 0.2
    epochs_per_round: int = 1
    timeout: float = 30.0
    replications: int = 1
    seed: int = 0
    baselines: tuple[str, ...] = ("solo", "oracle")
    meta_learner: LearnerSpec = LearnerSpec("least_squares")
    folds: int = 5
    cells: tuple[dict, ...] = ()
    output: Optional[str] = None

    def __post_init__(self):
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not self.groups:
            raise ValueError("need at least one feature group")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.transport not in TRANSPORTS:
            raise ValueError(f"transport must be one of {TRANSPORTS}")
        if len(self.learners) != len(self.groups):
            raise ValueError("one learner spec per feature group")
        if self.mode == "split_network":
            if len(self.groups) != 2:
                raise ValueError("split_network takes exactly two groups")
            if self.learners[0].kind != "dense_net":
                raise ValueError("split_network needs a dense_net learner")
            if self.learners[1] != self.learners[0]:
                raise ValueError("split_network trains one net: both groups "
                                 "need the same learner spec")
        for b in self.baselines:
            if b not in BASELINES:
                raise ValueError(f"unknown baseline {b!r}")
        _check_keys(self.data, _DATA_KEYS, "data")
        kind = self.data.get("kind")
        if kind not in ("friedman1", "linear", "csv"):
            raise ValueError("data.kind must be friedman1, linear or csv")
        if kind == "csv":
            if "path" not in self.data:
                raise ValueError("csv data needs a path")
        else:
            for req in ("n_train", "n_test"):
                if req not in self.data:
                    raise ValueError(f"synthetic data needs {req}")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _check_keys(raw, _TOP_KEYS, "config")
        proto = dict(raw.get("protocol", {}))
        _check_keys(proto, _PROTOCOL_KEYS, "protocol")
        stack = dict(raw.get("stacking", {}))
        _check_keys(stack, {"meta", "folds"}, "stacking")
        groups = tuple(tuple(g) for g in raw.get("groups", ()))
        learners = _parse_learners(raw.get("learners", "least_squares"),
                                   len(groups))
        return cls(
            name=str(raw.get("name", "experiment")),
            data=dict(raw.get("data", {})),
            groups=groups,
            learners=learners,
            mode=raw.get("mode", "residual_chain"),
            transport=raw.get("transport", "inproc"),
            max_rounds=int(proto.get("max_rounds", 25)),
            patience=int(proto.get("patience", 3)),
            tol_rel=float(proto.get("tol_rel", 1e-4)),
            holdout_fraction=float(proto.get("holdout_fraction", 0.2)),
            epochs_per_round=int(proto.get("epochs_per_round", 1)),
            timeout=float(proto.get("timeout", 30.0)),
            replications=int(raw.get("replications", 1)),
            seed=int(raw.get("seed", 0)),
            baselines=tuple(raw.get("baselines", ("solo", "oracle"))),
            meta_learner=_parse_spec(stack.get("meta", "least_squares")),
            folds=int(stack.get("folds", 5)),
            cells=tuple(dict(c) for c in raw.get("cells", ())),
            output=raw.get("output"),
        )

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: not valid JSON ({exc})") from None
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: config must be a JSON object")
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "data": copy.deepcopy(self.data),
            "groups": [list(g) for g in self.groups],
            "learners": [_spec_dict(s) for s in self.learners],
            "mode": self.mode,
            "transport": self.transport,
            "protocol": {"max_rounds": self.max_rounds,
                         "patience": self.patience,
                         "tol_rel": self.tol_rel,
                         "holdout_fraction": self.holdout_fraction,
                         "epochs_per_round": self.epochs_per_round,
                         "timeout": self.timeout},
            "replications": self.replications,
            "seed": self.seed,
            "baselines": list(self.baselines),
            "stacking": {"meta": _spec_dict(self.meta_learner),
                         "folds": self.folds},
        }


def _check_keys(d: dict, allowed: set, where: str) -> None:
    unknown = set(d) - allowed
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)}")


def _parse_spec(entry) -> LearnerSpec:
    if isinstance(entry, LearnerSpec):
        return entry
    if isinstance(entry, str):
        return LearnerSpec.from_string(entry)
    if isinstance(entry, dict):
        return LearnerSpec(entry["kind"], dict(entry.get("params", {})))
    raise ValueError(f"cannot parse learner spec {entry!r}")


def _parse_learners(entry, n_groups: int) -> tuple[LearnerSpec, ...]:
    if isinstance(entry, (str, dict, LearnerSpec)):
        return tuple(_parse_spec(entry) for _ in range(n_groups))
    specs = [_parse_spec(e) for e in entry]
    if len(specs) != n_groups:
        raise ValueError(f"{len(specs)} learner specs for {n_groups} groups")
    return tuple(specs)


def _spec_dict(spec: LearnerSpec) -> dict:
    return {"kind": spec.kind, "params": dict(spec.params)}


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

_VOLATILE_KEYS = {"timestamp", "seconds"}


@dataclass
class Report:
    """Aggregated experiment outcome, ready to serialize."""

    config: dict
    replications: list
    summary: dict
    timestamp: str
    seconds: float
    failed: Optional[dict] = None

    def to_dict(self) -> dict:
        out = {
            "config": self.config,
            "replications": self.replications,
            "summary": self.summary,
            "timestamp": self.timestamp,
            "seconds": self.seconds,
        }
        if self.failed is not None:
            out["failed"] = self.failed
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def rounds_csv(self) -> str:
        cols = ("replication", "round", "train_rmse", "validation_rmse",
                "test_rmse", "test_mad", "seconds")
        lines = [",".join(cols)]
        for rep in self.replications:
            for row in rep.get("rounds", ()):
                cells = [str(rep["replication"]), str(row["round"])]
                for key in cols[2:]:
                    val = row.get(key)
                    cells.append("" if val is None else repr(float(val)))
                lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def write(self, out_dir) -> tuple[Path, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        report_path = out / "report.json"
        csv_path = out / "rounds.csv"
        report_path.write_text(self.to_json(), encoding="utf-8")
        csv_path.write_text(self.rounds_csv(), encoding="utf-8")
        return report_path, csv_path

    def determinism_hash(self) -> str:
        """Hash over everything except timestamps and wall-clock fields."""
        stripped = _strip_volatile(self.to_dict())
        blob = json.dumps(stripped, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


def _strip_volatile(obj):
    if isinstance(obj, dict):
        return {k: _strip_volatile(v) for k, v in obj.items()
                if k not in _VOLATILE_KEYS}
    if isinstance(obj, list):
        return [_strip_volatile(v) for v in obj]
    return obj


def _mean_se(values: Sequence[float]) -> dict:
    arr = np.asarray(list(values), dtype=np.float64)
    se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return {"mean": float(arr.mean()), "se": se}


def _metrics_dict(m: BaselineMetrics) -> dict:
    return {"train_rmse": m.train_rmse, "test_rmse": m.test_rmse,
            "train_mad": m.train_mad, "test_mad": m.test_mad}


# ---------------------------------------------------------------------------
# data plumbing
# ---------------------------------------------------------------------------

def _make_data(config: ExperimentConfig, rep: int):
    """One replication's dataset: (full partition, labels, train, test)."""
    d = config.data
    rep_seed = derive_seed(config.seed, "rep", rep)
    if d["kind"] == "csv":
        part, labels = load_csv(d["path"], d.get("id_column", "id"),
                                d.get("label_column", "y"))
        train_ids, test_ids = id_split(
            part.ids, SplitSpec(fraction=float(d.get("train_fraction", 0.8)),
                                seed=derive_seed(rep_seed, "split")))
        return part, labels, train_ids, test_ids
    coeff = d.get("coefficients")
    spec = SyntheticSpec(
        kind=d["kind"],
        n=int(d["n_train"]) + int(d["n_test"]),
        noise_sd=float(d.get("noise_sd", 1.0)),
        seed=derive_seed(rep_seed, "data"),
        coefficients=tuple(coeff) if coeff is not None else None,
        correlation=float(d.get("correlation", 0.0)),
        extra_noise_features=int(d.get("extra_noise_features", 0)))
    part, labels = generate(spec)
    train_ids, test_ids = split_counts(part.ids, int(d["n_train"]),
                                       derive_seed(rep_seed, "split"))
    return part, labels, train_ids, test_ids


def _build_modules(config: ExperimentConfig, full: FeaturePartition,
                   learners: Sequence[LearnerSpec]):
    """The group partitions, alice (first group) and her helpers."""
    parts = vertical_split(full, [list(g) for g in config.groups])
    alice = LocalModule(module_id="alice", partition=parts[0],
                        learner=learners[0])
    helpers = [LocalModule(module_id=f"peer-{i}", partition=parts[i],
                           learner=learners[i])
               for i in range(1, len(parts))]
    return parts, alice, helpers


class _Endpoints:
    """Endpoints for the helper modules; owns TCP servers when asked for."""

    def __init__(self, helpers, transport: str):
        self.servers = []
        if transport == "tcp":
            self.servers = [serve_module(m) for m in helpers]
            self.endpoints = [s.endpoint() for s in self.servers]
        else:
            self.endpoints = [local_endpoint(m) for m in helpers]

    def __enter__(self):
        return self.endpoints

    def __exit__(self, *exc_info):
        for server, endpoint in zip(self.servers, self.endpoints):
            endpoint.close()
            server.stop()


# ---------------------------------------------------------------------------
# single replication
# ---------------------------------------------------------------------------

def _replication_record(config, rep, train_ids, test_ids, rounds,
                        curve_min_round) -> dict:
    """Apply the stopping rule to the traced curve; score the chosen round."""
    history = [row["validation_rmse"] for row in rounds]
    stopped = stopped_round(history, config.patience, config.tol_rel)
    chosen = argmin_round(history[:stopped])
    at = rounds[chosen - 1]
    return {
        "replication": rep,
        "n_train": len(train_ids),
        "n_test": len(test_ids),
        "rounds": rounds,
        "chosen_round": chosen,
        "stopped_round": stopped,
        "curve_min_round": curve_min_round,
        "final": {"test_rmse": at["test_rmse"], "test_mad": at["test_mad"],
                  "train_rmse": at["train_rmse"]},
    }


def _chain_replication(config, rep, full, labels, train_ids, test_ids):
    rep_seed = derive_seed(config.seed, "rep", rep)
    parts, alice, helpers = _build_modules(config, full, config.learners)
    train_labels = TaskLabels(ids=train_ids, values=labels.lookup(train_ids))
    y_test = labels.lookup(test_ids)
    # patience = max_rounds disables live stopping: the full curve is traced
    # and the stopping rule is evaluated on it afterwards.
    trace_cfg = ProtocolConfig(max_rounds=config.max_rounds,
                               patience=config.max_rounds,
                               tol_rel=config.tol_rel,
                               holdout_fraction=config.holdout_fraction,
                               seed=rep_seed,
                               timeout=config.timeout)
    with _Endpoints(helpers, config.transport) as endpoints:
        task = run_learning_stage(alice, endpoints, train_labels, trace_cfg,
                                  task_id=f"{config.name}-rep{rep}")
        curves = per_round_predictions(task, alice, endpoints, test_ids,
                                       timeout=config.timeout)
    rounds = []
    for rec, row in zip(task.records, curves):
        rounds.append({"round": rec.round,
                       "train_rmse": rms(rec.residual_after),
                       "validation_rmse": rec.validation_rmse,
                       "test_rmse": rmse(y_test, row),
                       "test_mad": mad(y_test, row),
                       "seconds": rec.seconds})
    return _replication_record(config, rep, train_ids, test_ids, rounds,
                               task.best_round), parts


def _nn_replication(config, rep, full, labels, train_ids, test_ids):
    rep_seed = derive_seed(config.seed, "rep", rep)
    parts, alice, helpers = _build_modules(config, full, config.learners)
    bob = helpers[0]
    train_labels = TaskLabels(ids=train_ids, values=labels.lookup(train_ids))
    y_test = labels.lookup(test_ids)
    net = config.learners[0].params
    nn_cfg = NnConfig(hidden=net["hidden"], rate=net["rate"],
                      batch=net["batch"],
                      epochs_per_round=config.epochs_per_round,
                      max_rounds=config.max_rounds,
                      patience=config.max_rounds,  # trace the full curve
                      tol_rel=config.tol_rel,
                      holdout_fraction=config.holdout_fraction,
                      seed=rep_seed, timeout=config.timeout)
    with _Endpoints([bob], config.transport) as endpoints:
        bob_ep = endpoints[0]
        result = run_nn_learning(alice, bob_ep, train_labels, nn_cfg,
                                 task_id=f"{config.name}-rep{rep}")
        rounds = []
        for k, val in enumerate(result.validation_history, start=1):
            pred = nn_predict(result, alice, bob_ep, test_ids, upto=k,
                              timeout=config.timeout)
            rounds.append({"round": k,
                           "train_rmse": None,
                           "validation_rmse": val,
                           "test_rmse": rmse(y_test, pred),
                           "test_mad": mad(y_test, pred),
                           "seconds": result.round_seconds[k - 1]})
    return _replication_record(config, rep, train_ids, test_ids, rounds,
                               result.best_round), parts


def _baselines(config, rep, parts, labels, train_ids, test_ids) -> dict:
    rep_seed = derive_seed(config.seed, "rep", rep)
    split_pair = (train_ids, test_ids)
    out = {}
    if "solo" in config.baselines:
        out["solo"] = _metrics_dict(oracle_baseline(
            [parts[0]], labels, config.learners[0], split_pair,
            seed=rep_seed))
    if "oracle" in config.baselines:
        out["oracle"] = _metrics_dict(oracle_baseline(
            parts, labels, config.learners[0], split_pair, seed=rep_seed))
    if "stacking" in config.baselines:
        out["stacking"] = _metrics_dict(stacking_baseline(
            parts, labels, list(config.learners), config.meta_learner,
            split_pair, folds=config.folds, seed=rep_seed))
    return out


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------

def run_experiment(config: ExperimentConfig,
                   out_dir: Optional[str] = None) -> Report:
    """Run every replication, aggregate, and (optionally) write the report.

    If a replication raises, whatever completed so far is still written with
    a ``failed`` marker before the exception propagates.
    """
    started = time.perf_counter()
    out_dir = out_dir if out_dir is not None else config.output
    reps: list = []
    try:
        for rep in range(config.replications):
            full, labels, train_ids, test_ids = _make_data(config, rep)
            if config.mode == "split_network":
                payload, parts = _nn_replication(
                    config, rep, full, labels, train_ids, test_ids)
            else:
                payload, parts = _chain_replication(
                    config, rep, full, labels, train_ids, test_ids)
            payload["baselines"] = _baselines(config, rep, parts, labels,
                                              train_ids, test_ids)
            reps.append(payload)
            log.info("replication %d/%d done (chosen round %d)", rep + 1,
                     config.replications, payload["chosen_round"])
    except Exception as exc:
        if out_dir is not None:
            partial = Report(config=config.to_dict(), replications=reps,
                             summary={}, timestamp=_now(),
                             seconds=time.perf_counter() - started,
                             failed={"replication": len(reps),
                                     "error": type(exc).__name__,
                                     "message": str(exc)})
            partial.write(out_dir)
        raise
    report = Report(config=config.to_dict(), replications=reps,
                    summary=_summarize(reps), timestamp=_now(),
                    seconds=time.perf_counter() - started)
    if out_dir is not None:
        report.write(out_dir)
    return report


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _summarize(reps: list) -> dict:
    depth = min(len(r["rounds"]) for r in reps)
    per_round = []
    for k in range(depth):
        row = {"round": k + 1}
        for key in ("test_rmse", "test_mad", "validation_rmse"):
            row[key] = _mean_se([r["rounds"][k][key] for r in reps])
        per_round.append(row)
    summary = {
        "rounds": per_round,
        "chosen_rounds": [r["chosen_round"] for r in reps],
        "final_test_rmse": _mean_se([r["final"]["test_rmse"] for r in reps]),
        "final_test_mad": _mean_se([r["final"]["test_mad"] for r in reps]),
        "baselines": {},
    }
    for name in reps[0].get("baselines", {}):
        summary["baselines"][name] = {
            metric: _mean_se([r["baselines"][name][metric] for r in reps])
            for metric in ("test_rmse", "test_mad")
        }
    return summary


def compare_stacking(config: ExperimentConfig,
                     out_dir: Optional[str] = None) -> dict:
    """Assisted runs vs stacking for each configured cell.

    Every cell names the learner family for both methods, e.g.::

        {"name": "GB", "al": "gradient_boosting",
         "base": "gradient_boosting", "meta": "least_squares"}

    The assisted run stops live by the patience rule and is scored at its
    chosen round on the test rows; stacking uses out-of-fold meta features.
    """
    if not config.cells:
        raise ValueError("compare_stacking needs a non-empty cells list")
    started = time.perf_counter()
    out_dir = out_dir if out_dir is not None else config.output
    table = {"name": config.name, "replications": config.replications,
             "cells": []}
    for cell in config.cells:
        _check_keys(cell, {"name", "al", "base", "meta"}, "cell")
        al_specs = _parse_learners(cell.get("al", "least_squares"),
                                   len(config.groups))
        base_spec = _parse_spec(cell.get("base", cell.get("al",
                                                          "least_squares")))
        meta_spec = _parse_spec(cell.get("meta", "least_squares"))
        al_scores = []
        stack_scores = []
        for rep in range(config.replications):
            rep_seed = derive_seed(config.seed, "rep", rep)
            full, labels, train_ids, test_ids = _make_data(config, rep)
            parts, alice, helpers = _build_modules(config, full, al_specs)
            train_labels = TaskLabels(ids=train_ids,
                                      values=labels.lookup(train_ids))
            live_cfg = ProtocolConfig(max_rounds=config.max_rounds,
                                      patience=config.patience,
                                      tol_rel=config.tol_rel,
                                      holdout_fraction=config.holdout_fraction,
                                      seed=rep_seed, timeout=config.timeout)
            with _Endpoints(helpers, config.transport) as endpoints:
                task = run_learning_stage(
                    alice, endpoints, train_labels, live_cfg,
                    task_id=f"{config.name}-{cell.get('name')}-rep{rep}")
                pred = predict_stage(task, alice, endpoints, test_ids,
                                     timeout=config.timeout)
            y_test = labels.lookup(test_ids)
            al_scores.append(rmse(y_test, pred))
            stack = stacking_baseline(parts, labels, base_spec, meta_spec,
                                      (train_ids, test_ids),
                                      folds=config.folds, seed=rep_seed)
            stack_scores.append(stack.test_rmse)
            log.info("cell %s rep %d: assisted %.4f stacking %.4f",
                     cell.get("name"), rep, al_scores[-1], stack_scores[-1])
        table["cells"].append({
            "name": cell.get("name", "cell"),
            "assisted": {**_mean_se(al_scores), "values": al_scores},
            "stacking": {**_mean_se(stack_scores), "values": stack_scores},
        })
    table["seconds"] = time.perf_counter() - started
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "stacking.json").write_text(
            json.dumps(table, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
    return table


def format_table(table: dict) -> str:
    """Fixed-width text rendering of a compare_stacking result."""
    lines = [f"{table['name']}  (test RMSE, {table['replications']} reps)",
             f"{'cell':<12}{'assisted':>16}{'stacking':>16}"]
    for cell in table["cells"]:
        a, s = cell["assisted"], cell["stacking"]
        lines.append(f"{cell['name']:<12}"
                     f"{a['mean']:>10.4f} ±{a['se']:<5.3f}"
                     f"{s['mean']:>10.4f} ±{s['se']:<5.3f}")
    return "\n".join(lines)
