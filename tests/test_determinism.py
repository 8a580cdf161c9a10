"""Pinned results and wire traffic.

Six report hashes pin every number a small experiment produces, in process
and over TCP, for the residual chain and the split network. Two small runs
pin the bytes and messages per kind that cross the wire; a change that means
to move one of these values updates it here and says why.
"""

import collections

import numpy as np
import pytest
import scipy

from assistlearn import core, data, harness, nn_protocol, protocol, transport
from assistlearn.learners import LearnerSpec

RECORDED_WITH = "numpy 2.4.6 and scipy 1.17.1"

_BASE = {"data": {"kind": "friedman1", "n_train": 300, "n_test": 200},
         "seed": 3, "replications": 2, "protocol": {"max_rounds": 5},
         "baselines": ["solo", "oracle", "stacking"],
         "groups": [["x1", "x2"], ["x3", "x4"], ["x5"]]}
_SPLIT = {"mode": "split_network", "groups": [["x1", "x2", "x3"], ["x4", "x5"]],
          "learners": "dense_net:hidden=8,batch=16",
          "protocol": {"max_rounds": 6}}

_HASHES = {
    "least_squares": (
        {"learners": "least_squares"},
        "e5cbdbe07ea1c9fada72b48dbc864b03af1a9a0cabc894bee4d46b74b76a86f8"),
    "least_squares_tcp": (
        {"learners": "least_squares", "transport": "tcp"},
        "e5fb663997e917bd09c6a7e439b0c9ca5a3f6331b544db676acb0aa901446b74"),
    "trees": (
        {"learners": ["regression_tree", "least_squares",
                      "regression_tree:max_depth=2"]},
        "a09cc1a6ae0a726009a4985af9d23100db5927599f7b0cb144a9724bb00ee0a8"),
    "boosting": (
        {"learners": "gradient_boosting:stages=15,max_depth=2"},
        "8abdd11088ee1b2d2f2da7adece2198b120e96b8ca4e6525945ea50b844f074b"),
    "split_network": (
        _SPLIT,
        "2cba2f51ee5a88733af6560462a44ecd3d421a15d2c21aa393cbbf83ed6ad80a"),
    "split_network_tcp": (
        {**_SPLIT, "transport": "tcp"},
        "fc037d9436eeb38c6511ceac18ee5ed2c00775a823cc9cf3a3896170eddd75bf"),
}


@pytest.mark.parametrize("name", list(_HASHES))
def test_report_hash_is_pinned(name):
    extra, expected = _HASHES[name]
    config = harness.ExperimentConfig.from_dict({**_BASE, **extra})
    got = harness.run_experiment(config).determinism_hash()
    assert got == expected, (
        f"{name}: report hash {got} differs from the one recorded with "
        f"{RECORDED_WITH}; this run has numpy {np.__version__} and scipy "
        f"{scipy.__version__}. Least squares goes through LAPACK, so another "
        f"library version can move the last bits.")


class _SizedEndpoint:
    """Encodes every request and reply and counts them per kind."""

    def __init__(self, inner, traffic):
        self._inner = inner
        self._traffic = traffic

    @property
    def module_id(self):
        return self._inner.module_id

    def request(self, envelope, timeout=30.0):
        reply = self._inner.request(envelope, timeout=timeout)
        for env in (envelope, reply):
            self._traffic[env.kind] += np.array([len(transport.encode(env)), 1])
        return reply


def _modules(groups, learner):
    full, labels = data.generate(data.SyntheticSpec(
        kind="friedman1", n=160, noise_sd=1.0, seed=5))
    train_ids, test_ids = data.split_counts(full.ids, 120, seed=6)
    train = core.TaskLabels(ids=train_ids, values=labels.lookup(train_ids))
    parts = core.vertical_split(full, groups)
    modules = [core.LocalModule(f"m{i}", part, LearnerSpec(learner))
               for i, part in enumerate(parts)]
    return modules, train, test_ids


def _traffic(run):
    traffic = collections.defaultdict(lambda: np.zeros(2, dtype=np.int64))
    run(lambda module: _SizedEndpoint(transport.local_endpoint(module),
                                      traffic))
    return {kind: tuple(int(x) for x in counts)
            for kind, counts in sorted(traffic.items())}


def _chain(wrap):
    (alice, *helpers), labels, test_ids = _modules(
        [["x1", "x2"], ["x3", "x4"], ["x5"]], "least_squares")
    endpoints = [wrap(m) for m in helpers]
    task = protocol.run_learning_stage(
        alice, endpoints, labels, protocol.ProtocolConfig(max_rounds=3))
    protocol.per_round_predictions(task, alice, endpoints, test_ids)


def _split(wrap):
    (alice, bob), labels, test_ids = _modules(
        [["x1", "x2", "x3"], ["x4", "x5"]], "dense_net")
    bob_ep = wrap(bob)
    result = nn_protocol.run_nn_learning(
        alice, bob_ep, labels,
        nn_protocol.NnConfig(hidden=4, batch=16, max_rounds=4, patience=4))
    nn_protocol.nn_predict(result, alice, bob_ep, test_ids)


# (bytes, messages) per kind. Wire v4 sends each float vector or matrix as
# its raw float64 bytes after the header line, 8 bytes per float, and the
# header names only its float count. An id list crosses as one frame of its
# ids joined by newlines, so n 8-character ids take 9n - 1 bytes plus
# "ids" and "id_bytes" counts in the header, where v3's JSON list took
# 11n + 1. Within one task an id list crosses once per peer; later requests
# and their replies carry its 64-character digest instead.
_CHAIN_TRAFFIC = {
    "FIT_REQUEST": (7292, 6),
    "FIT_RESPONSE": (7298, 6),
    "PREDICT_REQUEST": (3124, 12),
    "PREDICT_RESPONSE": (6196, 12),
}
_SPLIT_TRAFFIC = {
    "LABELS_TRANSFER": (1906, 2),
    "PARTIAL_PREACT": (15602, 14),
    "WTILDE_TRANSFER": (7246, 4),
}


@pytest.mark.parametrize("run, expected", [(_chain, _CHAIN_TRAFFIC),
                                           (_split, _SPLIT_TRAFFIC)],
                         ids=["chain", "split_network"])
def test_wire_traffic_is_pinned(run, expected):
    assert _traffic(run) == expected
