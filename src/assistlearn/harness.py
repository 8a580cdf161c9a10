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
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from .core import (LocalModule, TaskLabels, check_int, check_real,
                   derive_seed, vertical_split)
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
        for name, least in (("replications", 1), ("seed", None),
                            ("epochs_per_round", 1), ("folds", 2)):
            check_int(name, getattr(self, name), least)
        for name in ("tol_rel", "holdout_fraction", "timeout"):
            value = check_real(name, getattr(self, name))
            object.__setattr__(self, name, value)
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
                check_int(f"data.{req}", self.data[req], 1)
        # replication 0's specs check the data and protocol blocks
        rep0 = derive_seed(self.seed, "rep", 0)
        _data_spec(self, rep0)
        _stage_config(self, rep0, self.patience)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """Only the keys ``raw`` gives are passed on: every other field
        keeps its dataclass default."""
        _check_keys(raw, _TOP_KEYS, "config")
        kw = dict(raw.get("protocol", {}))
        _check_keys(kw, _PROTOCOL_KEYS, "protocol")
        stack = dict(raw.get("stacking", {}))
        _check_keys(stack, {"meta", "folds"}, "stacking")
        kw.update((k, raw[k]) for k in ("mode", "transport", "replications",
                                        "seed", "output") if k in raw)
        if "baselines" in raw:
            kw["baselines"] = tuple(raw["baselines"])
        if "cells" in raw:
            kw["cells"] = tuple(dict(c) for c in raw["cells"])
        if "meta" in stack:
            kw["meta_learner"] = _parse_spec(stack["meta"])
        if "folds" in stack:
            kw["folds"] = stack["folds"]
        groups = tuple(tuple(g) for g in raw.get("groups", ()))
        return cls(name=str(raw.get("name", "experiment")),
                   data=dict(raw.get("data", {})), groups=groups,
                   learners=_parse_learners(raw.get("learners",
                                                    "least_squares"),
                                            len(groups)), **kw)

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

def _data_spec(config: ExperimentConfig,
               rep_seed: int) -> SyntheticSpec | SplitSpec:
    """One replication's data recipe: a SyntheticSpec, or for CSV data the
    SplitSpec of its train fraction."""
    d = config.data
    if d["kind"] == "csv":
        return SplitSpec(fraction=d.get("train_fraction", 0.8),
                         seed=derive_seed(rep_seed, "split"))
    coeff = d.get("coefficients")
    return SyntheticSpec(
        kind=d["kind"], n=d["n_train"] + d["n_test"],
        noise_sd=d.get("noise_sd", 1.0), seed=derive_seed(rep_seed, "data"),
        coefficients=tuple(coeff) if coeff is not None else None,
        correlation=d.get("correlation", 0.0),
        extra_noise_features=d.get("extra_noise_features", 0))


def _make_data(config: ExperimentConfig, rep_seed: int):
    """One replication's dataset: (full partition, labels, train, test)."""
    d = config.data
    spec = _data_spec(config, rep_seed)
    if isinstance(spec, SplitSpec):
        part, labels = load_csv(d["path"], d.get("id_column", "id"),
                                d.get("label_column", "y"))
        return (part, labels, *id_split(part.ids, spec))
    part, labels = generate(spec)
    return (part, labels, *split_counts(part.ids, d["n_train"],
                                        derive_seed(rep_seed, "split")))


def _stage_config(config: ExperimentConfig, seed: int, patience: int):
    """The learning stage's config for one replication.

    ``patience`` is ``max_rounds`` to trace the full curve, whose stopping
    rule is applied afterwards, or ``config.patience`` to stop live. A split
    network adds the net's knobs.
    """
    stage = ProtocolConfig(max_rounds=config.max_rounds, patience=patience,
                           tol_rel=config.tol_rel,
                           holdout_fraction=config.holdout_fraction,
                           seed=seed, timeout=config.timeout)
    if config.mode != "split_network":
        return stage
    net = config.learners[0].params
    return NnConfig(**vars(stage), hidden=net["hidden"], rate=net["rate"],
                    batch=net["batch"],
                    epochs_per_round=config.epochs_per_round)


@contextmanager
def _setup(config: ExperimentConfig, rep: int,
             learners: Sequence[LearnerSpec]):
    """One replication's seed, data, modules and helper endpoints; TCP
    servers, when asked for, stop when the block ends."""
    seed = derive_seed(config.seed, "rep", rep)
    full, labels, train_ids, test_ids = _make_data(config, seed)
    parts = vertical_split(full, [list(g) for g in config.groups])
    alice = LocalModule(module_id="alice", partition=parts[0],
                        learner=learners[0])
    helpers = [LocalModule(module_id=f"peer-{i}", partition=parts[i],
                           learner=learners[i])
               for i in range(1, len(parts))]
    servers = []
    if config.transport == "tcp":
        servers = [serve_module(m) for m in helpers]
        endpoints = [s.endpoint() for s in servers]
    else:
        endpoints = [local_endpoint(m) for m in helpers]
    try:
        yield SimpleNamespace(
            seed=seed, labels=labels, parts=parts, alice=alice,
            endpoints=endpoints, train_ids=train_ids, test_ids=test_ids,
            train=TaskLabels(ids=train_ids, values=labels.lookup(train_ids)),
            y_test=labels.lookup(test_ids))
    finally:
        for server, endpoint in zip(servers, endpoints):
            endpoint.close()
            server.stop()


# ---------------------------------------------------------------------------
# single replication
# ---------------------------------------------------------------------------

def _replication(config: ExperimentConfig, rep: int) -> dict:
    """Trace one replication's round curve, apply the stopping rule to it,
    score the chosen round and fit the baselines."""
    task_id = f"{config.name}-rep{rep}"
    with _setup(config, rep, config.learners) as r:
        cfg = _stage_config(config, r.seed, config.max_rounds)
        if config.mode == "split_network":
            bob = r.endpoints[0]
            task = run_nn_learning(r.alice, bob, r.train, cfg, task_id=task_id)
            preds = [nn_predict(task, r.alice, bob, r.test_ids, upto=k,
                                timeout=config.timeout)
                     for k in range(1, len(task.validation_history) + 1)]
            train_rmse = [None] * len(preds)
            seconds = task.round_seconds
        else:
            task = run_learning_stage(r.alice, r.endpoints, r.train, cfg,
                                      task_id=task_id)
            preds = per_round_predictions(task, r.alice, r.endpoints,
                                          r.test_ids, timeout=config.timeout)
            train_rmse = [rms(rec.residual_after) for rec in task.records]
            seconds = [rec.seconds for rec in task.records]
    history = task.validation_history
    rounds = [{"round": k, "train_rmse": train, "validation_rmse": val,
               "test_rmse": rmse(r.y_test, pred),
               "test_mad": mad(r.y_test, pred), "seconds": sec}
              for k, (train, val, pred, sec)
              in enumerate(zip(train_rmse, history, preds, seconds), 1)]
    stopped = stopped_round(history, config.patience, config.tol_rel)
    chosen = argmin_round(history[:stopped])
    at = rounds[chosen - 1]
    return {
        "replication": rep,
        "n_train": len(r.train_ids),
        "n_test": len(r.test_ids),
        "rounds": rounds,
        "chosen_round": chosen,
        "stopped_round": stopped,
        "curve_min_round": task.best_round,
        "final": {"test_rmse": at["test_rmse"], "test_mad": at["test_mad"],
                  "train_rmse": at["train_rmse"]},
        "baselines": _baselines(config, r.seed, r.parts, r.labels,
                                r.train_ids, r.test_ids),
    }


def _baselines(config, rep_seed, parts, labels, train_ids, test_ids) -> dict:
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
            reps.append(_replication(config, rep))
            log.info("replication %d/%d done (chosen round %d)", rep + 1,
                     config.replications, reps[-1]["chosen_round"])
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
    """Assisted residual chains vs stacking for each configured cell.

    Every cell names the learner family for both methods, e.g.::

        {"name": "GB", "al": "gradient_boosting",
         "base": "gradient_boosting", "meta": "least_squares"}

    The assisted run stops live by the patience rule and is scored at its
    chosen round on the test rows; stacking uses out-of-fold meta features.
    """
    if not config.cells:
        raise ValueError("compare_stacking needs a non-empty cells list")
    if config.mode != "residual_chain":
        raise ValueError("compare_stacking compares residual chains, "
                         f"not {config.mode}")
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
            with _setup(config, rep, al_specs) as r:
                task = run_learning_stage(
                    r.alice, r.endpoints, r.train,
                    _stage_config(config, r.seed, config.patience),
                    task_id=f"{config.name}-{cell.get('name')}-rep{rep}")
                pred = predict_stage(task, r.alice, r.endpoints, r.test_ids,
                                     timeout=config.timeout)
            al_scores.append(rmse(r.y_test, pred))
            stack = stacking_baseline(r.parts, r.labels, base_spec, meta_spec,
                                      (r.train_ids, r.test_ids),
                                      folds=config.folds, seed=r.seed)
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
