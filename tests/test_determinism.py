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
        "5dd985f25ee3f4f2a3fbdcccee5664896939fb54ee5a444bba7522af08259c9c"),
    "least_squares_tcp": (
        {"learners": "least_squares", "transport": "tcp"},
        "d96f8726318dc8af7286d5c763fe70f35c78e285030b61d2870690ec56910631"),
    "trees": (
        {"learners": ["regression_tree", "least_squares",
                      "regression_tree:max_depth=2"]},
        "e57ba58ace6326ebc8041bbb84b31426737afa642de7e06d8e8d886d8f1c9856"),
    "boosting": (
        {"learners": "gradient_boosting:stages=15,max_depth=2"},
        "46d99ca89f99285a66af7757450605463d6f009f5ab599a473c03f167c2253d8"),
    "split_network": (
        _SPLIT,
        "5da938d645affb16a44cef581c4b18d12cfa09d348a5468ffa1e4f4ff091a78e"),
    "split_network_tcp": (
        {**_SPLIT, "transport": "tcp"},
        "80006b2f1e5846720ddbfae17f45c822af8f6144fce6aa019b8d477148be9c64"),
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


# (bytes, messages) per kind. Wire v2 sends each float vector or matrix as
# base64 of its float64 bytes, 10.67 bytes per float where v1's decimal text
# took about 19. Within one stage call an id list crosses once per peer;
# later requests and their replies carry its 64-character digest instead.
_CHAIN_TRAFFIC = {
    "FIT_REQUEST": (9182, 6),
    "FIT_RESPONSE": (9188, 6),
    "PREDICT_REQUEST": (3320, 12),
    "PREDICT_RESPONSE": (7424, 12),
}
_SPLIT_TRAFFIC = {
    "LABELS_TRANSFER": (2339, 2),
    "PARTIAL_PREACT": (19649, 14),
    "WTILDE_TRANSFER": (9396, 4),
}


@pytest.mark.parametrize("run, expected", [(_chain, _CHAIN_TRAFFIC),
                                           (_split, _SPLIT_TRAFFIC)],
                         ids=["chain", "split_network"])
def test_wire_traffic_is_pinned(run, expected):
    assert _traffic(run) == expected
