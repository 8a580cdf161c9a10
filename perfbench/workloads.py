"""Experiment workloads: the stage sequence ``assistlearn run`` goes through.

Each stage calls a public function of the package, looked up on its module
at call time so the tracer's wrappers see it: generate -> split -> modules
and endpoints (setup), ``run_learning_stage`` / ``run_nn_learning`` (learn),
``per_round_predictions`` / one ``nn_predict`` per round (predict). The
seeds, ids and task ids are derived exactly as ``harness`` derives them for
replication 0 of a config with the same name and seed, so a workload
reproduces ``run_experiment``'s per-round test RMSE (``test_perfbench.py``
checks that). Baselines and report writing are skipped.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

import servers
from assistlearn import core, data, learners, metrics, nn_protocol, protocol, transport

PATIENCE = 3          # harness default: stop rule applied after the trace
TOL_REL = 1e-4
HOLDOUT = 0.2
TIMEOUT = 30.0


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    mode: str                      # "residual_chain" | "split_network"
    transport: str                 # "inproc" | "tcp"
    learner: str
    groups: tuple
    n_train: int
    n_test: int
    rounds: int
    epochs_per_round: int = 1

    def config(self, seed: int) -> dict:
        """The ``assistlearn run`` config this workload replays."""
        return {
            "name": self.name, "seed": seed, "replications": 1,
            "mode": self.mode, "transport": self.transport,
            "data": {"kind": "friedman1", "n_train": self.n_train,
                     "n_test": self.n_test, "noise_sd": 1.0},
            "groups": [list(g) for g in self.groups],
            "learners": self.learner,
            "protocol": {"max_rounds": self.rounds, "patience": PATIENCE,
                         "tol_rel": TOL_REL, "holdout_fraction": HOLDOUT,
                         "epochs_per_round": self.epochs_per_round,
                         "timeout": TIMEOUT},
            "baselines": [],
        }


EXPERIMENTS = {
    "chain_predict_tcp": ExperimentSpec(
        name="chain_predict_tcp", mode="residual_chain", transport="tcp",
        learner="regression_tree", groups=(("x1", "x2"), ("x3", "x4"), ("x5",)),
        n_train=2000, n_test=15000, rounds=10),
    "chain_boost_inproc": ExperimentSpec(
        name="chain_boost_inproc", mode="residual_chain", transport="inproc",
        learner="gradient_boosting:stages=30",
        groups=(("x1", "x2"), ("x3", "x4"), ("x5",)),
        n_train=2000, n_test=2000, rounds=10),
    "split_net_tcp": ExperimentSpec(
        name="split_net_tcp", mode="split_network", transport="tcp",
        learner="dense_net:hidden=16,batch=32", groups=(("x1", "x2", "x3"), ("x4", "x5")),
        n_train=2000, n_test=1000, rounds=16, epochs_per_round=2),
}

# request kinds that make a remote module learn / evaluate
FIT_KINDS = ("FIT_REQUEST", "WTILDE_TRANSFER")
PREDICT_KINDS = ("PREDICT_REQUEST", "PARTIAL_PREACT")
# Latency percentiles cover requests to the first assistant only: modules
# with different column counts take different times, and a median taken
# across the two modes of that mix jumps between them from run to run.
LATENCY_MODULE = "peer-1"


@dataclass
class Fixture:
    spec: ExperimentSpec
    rep_seed: int
    alice: core.LocalModule
    endpoints: list
    train_labels: core.TaskLabels
    test_ids: tuple
    y_test: np.ndarray
    local_modules: list = field(default_factory=list)
    servers: list = field(default_factory=list)
    server_stats: list = field(default_factory=list)

    def forget_models(self) -> None:
        """Drop the models of finished tasks held in this process, so memory
        does not grow with the number of repetitions a run fits in."""
        for module in self.local_modules:
            module.model_store.clear()

    def close(self) -> None:
        """Stop the serve processes and keep what each reported on exit."""
        self.server_stats += servers.stop_all(self.servers)
        self.servers = []


def setup(spec: ExperimentSpec, seed: int, trace: bool = False) -> Fixture:
    """Generate, split, build the modules and start their endpoints.

    Over TCP every assistant writes its partition file and runs as its own
    ``assistlearn serve`` process (traced when ``trace``).
    """
    rep_seed = core.derive_seed(seed, "rep", 0)
    full, labels = data.generate(data.SyntheticSpec(
        kind="friedman1", n=spec.n_train + spec.n_test, noise_sd=1.0,
        seed=core.derive_seed(rep_seed, "data")))
    train_ids, test_ids = data.split_counts(
        full.ids, spec.n_train, core.derive_seed(rep_seed, "split"))
    parts = core.vertical_split(full, [list(g) for g in spec.groups])
    learner = learners.LearnerSpec.from_string(spec.learner)
    alice = core.LocalModule("alice", parts[0], learner)
    helpers = [core.LocalModule(f"peer-{i}", parts[i], learner)
               for i in range(1, len(parts))]
    fx = Fixture(spec=spec, rep_seed=rep_seed, alice=alice, endpoints=[],
                 local_modules=[alice],
                 train_labels=core.TaskLabels(
                     ids=train_ids, values=labels.lookup(train_ids)),
                 test_ids=test_ids, y_test=labels.lookup(test_ids))
    if spec.transport == "tcp":
        servers.WORKDIR.mkdir(exist_ok=True)
        files = []
        for module in helpers:
            path = servers.WORKDIR / f"{spec.name}-{module.module_id}.csv"
            data.save_csv(path, module.partition)
            files.append((module.module_id, path))
        fx.servers = servers.start(files, spec.learner, trace=trace)
        fx.endpoints = [s.endpoint() for s in fx.servers]
    else:
        fx.endpoints = [transport.local_endpoint(m) for m in helpers]
        fx.local_modules += helpers
    return fx


def learn(fx: Fixture, endpoints=None, task_id=None):
    """The learning stage; the task id defaults to the one ``harness`` uses."""
    spec = fx.spec
    endpoints = fx.endpoints if endpoints is None else endpoints
    task_id = f"{spec.name}-rep0" if task_id is None else task_id
    if spec.mode == "split_network":
        net = learners.LearnerSpec.from_string(spec.learner).params
        cfg = nn_protocol.NnConfig(
            hidden=net["hidden"], rate=net["rate"], batch=net["batch"],
            epochs_per_round=spec.epochs_per_round, max_rounds=spec.rounds,
            patience=spec.rounds, tol_rel=TOL_REL, holdout_fraction=HOLDOUT,
            seed=fx.rep_seed, timeout=TIMEOUT)
        return nn_protocol.run_nn_learning(fx.alice, endpoints[0],
                                           fx.train_labels, cfg, task_id=task_id)
    cfg = protocol.ProtocolConfig(
        max_rounds=spec.rounds, patience=spec.rounds, tol_rel=TOL_REL,
        holdout_fraction=HOLDOUT, seed=fx.rep_seed, timeout=TIMEOUT)
    return protocol.run_learning_stage(fx.alice, endpoints, fx.train_labels,
                                       cfg, task_id=task_id)


def predict(fx: Fixture, trained, endpoints=None) -> np.ndarray:
    """Cumulative test prediction after each round, (rounds, n_test)."""
    endpoints = fx.endpoints if endpoints is None else endpoints
    if fx.spec.mode == "split_network":
        return np.vstack([
            nn_protocol.nn_predict(trained, fx.alice, endpoints[0],
                                   fx.test_ids, upto=k, timeout=TIMEOUT)
            for k in range(1, len(trained.validation_history) + 1)])
    return protocol.per_round_predictions(trained, fx.alice, endpoints,
                                          fx.test_ids, timeout=TIMEOUT)


@dataclass(frozen=True)
class Outcome:
    digest: str
    chosen_round: int
    test_rmse: tuple


def outcome(fx: Fixture, trained, curves: np.ndarray) -> Outcome:
    """Hash of validation history, chosen round and per-round predictions."""
    history = list(trained.validation_history)
    stopped = protocol.stopped_round(history, PATIENCE, TOL_REL)
    chosen = protocol.argmin_round(history[:stopped])
    h = hashlib.sha256()
    h.update(np.asarray(history, dtype="<f8").tobytes())
    h.update(str(chosen).encode())
    h.update(np.ascontiguousarray(curves, dtype="<f8").tobytes())
    return Outcome(digest=h.hexdigest(), chosen_round=chosen,
                   test_rmse=tuple(metrics.rmse(fx.y_test, row) for row in curves))


class RequestLog:
    """Endpoint proxy log: (phase, kind, receiver, seconds) per request."""

    def __init__(self, size: bool = False):
        self.phase = "learn"
        self.entries: list[tuple[str, str, str, float]] = []
        self.size = size
        self.wire_bytes = 0
        self.wire_messages = 0

    def wrap(self, endpoint):
        return TimedEndpoint(endpoint, self)

    def latencies(self, kinds, phase=None) -> list[float]:
        return [s for p, k, to, s in self.entries
                if k in kinds and to == LATENCY_MODULE
                and (phase is None or p == phase)]


class TimedEndpoint:
    """Times each request from outside; the protocol sees a plain endpoint."""

    def __init__(self, inner, log: RequestLog):
        self._inner = inner
        self._log = log

    @property
    def module_id(self) -> str:
        return self._inner.module_id

    def request(self, envelope, timeout: float = TIMEOUT):
        started = time.perf_counter()
        reply = self._inner.request(envelope, timeout=timeout)
        self._log.entries.append((self._log.phase, envelope.kind,
                                  envelope.receiver,
                                  time.perf_counter() - started))
        if self._log.size:
            for env in (envelope, reply):
                self._log.wire_bytes += len(transport.encode(env))
                self._log.wire_messages += 1
        return reply
