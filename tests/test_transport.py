import enum
import json
import math
import socket
import threading

import numpy as np
import pytest

from assistlearn import errors as err
from assistlearn import transport
from assistlearn.core import FeaturePartition, LocalModule
from assistlearn.learners import LearnerSpec, predict
from assistlearn.transport import (Envelope, InProcEndpoint, ModuleResponder,
                                   TcpModuleServer, decode, encode,
                                   local_endpoint, serve_module,
                                   validate_payload)


def _module(n=20, p=2, seed=0, kind="least_squares", module_id="m"):
    rng = np.random.default_rng(seed)
    ids = tuple(f"{i:04d}" for i in range(n))
    part = FeaturePartition(ids=ids, features=rng.standard_normal((n, p)),
                            feature_names=tuple(f"c{j}" for j in range(p)))
    return LocalModule(module_id, part, LearnerSpec(kind))


def _fit_env(module, ids, values, round_no=1, task="t"):
    return Envelope(kind="FIT_REQUEST", task=task, round=round_no,
                    sender="alice", receiver=module.module_id,
                    payload={"ids": list(ids), "values": values})


# ---------------------------------------------------------------------------
# codec
# ---------------------------------------------------------------------------

def test_encode_decode_round_trip_is_lossless():
    tricky = [0.1, 1e-300, 1e300, -2.5000000000000004, 3.141592653589793]
    env = Envelope(kind="FIT_REQUEST", task="t", round=1, sender="a",
                   receiver="b", payload={"ids": ["x"], "values": tricky})
    back = decode(encode(env))
    assert back == env
    assert back.payload["values"] == tricky  # bit-for-bit doubles


def test_encode_is_single_json_line():
    env = Envelope(kind="REFUSE", task="t", round=2, sender="a",
                   receiver="b", payload={"reason": "no"})
    raw = encode(env)
    assert raw.endswith(b"\n") and raw.count(b"\n") == 1
    body = json.loads(raw)
    assert set(body) == {"v", "kind", "task", "round", "from", "to",
                         "payload"}
    assert body["v"] == 1 and body["from"] == "a" and body["to"] == "b"


def test_envelope_validation():
    ok = dict(kind="REFUSE", task="t", round=0, sender="a", receiver="b")
    Envelope(**ok)
    with pytest.raises(err.UnsupportedVersion):
        Envelope(**ok, v=2)
    with pytest.raises(err.MalformedMessage):
        Envelope(**{**ok, "kind": "GOSSIP"})
    with pytest.raises(err.MalformedMessage):
        Envelope(**{**ok, "round": -1})
    with pytest.raises(err.MalformedMessage):
        Envelope(**{**ok, "round": True})
    with pytest.raises(err.MalformedMessage):
        Envelope(**{**ok, "task": 7})


def test_payload_normalizes_numpy_and_bans_non_finite():
    env = Envelope(kind="FIT_RESPONSE", task="t", round=1, sender="a",
                   receiver="b",
                   payload={"ids": ["i"], "values": np.array([1.5])})
    assert env.payload["values"] == [1.5]
    assert isinstance(env.payload["values"][0], float)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(err.NonFinitePayload):
            Envelope(kind="FIT_RESPONSE", task="t", round=1, sender="a",
                     receiver="b", payload={"ids": ["i"], "values": [bad]})
    with pytest.raises(err.MalformedMessage):
        Envelope(kind="REFUSE", task="t", round=0, sender="a", receiver="b",
                 payload={"reason": object()})


def test_decode_rejects_garbage():
    with pytest.raises(err.MalformedMessage):
        decode(b"\xff\xfe junk")
    with pytest.raises(err.MalformedMessage):
        decode(b"not json\n")
    with pytest.raises(err.MalformedMessage):
        decode(b"[1, 2]\n")
    with pytest.raises(err.MalformedMessage):
        decode(b'{"v": 1}\n')
    with pytest.raises(err.MalformedMessage):
        decode(b'{"v":1,"kind":"REFUSE"}\n{"second":1}\n')
    line = encode(Envelope(kind="REFUSE", task="t", round=0, sender="a",
                           receiver="b")).decode()
    with pytest.raises(err.UnsupportedVersion):
        decode(line.replace('"v":1', '"v":9'))
    with pytest.raises(err.MalformedMessage):
        decode(line.replace('"v":1', '"v":"1"'))
    with pytest.raises(err.MalformedMessage):
        decode(line.replace("REFUSE", "GOSSIP"))


# ---------------------------------------------------------------------------
# vectorised payload path against the per-element reference
# ---------------------------------------------------------------------------

def _ref_plain(value):
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float):
        if not math.isfinite(value):
            raise err.NonFinitePayload("payload contains NaN or infinity")
        return value
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_ref_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _ref_plain(v) for k, v in value.items()}
    raise err.MalformedMessage(f"unsupported payload value {type(value).__name__}")


def _ref_is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _ref_is_id_list(v):
    return isinstance(v, list) and all(isinstance(s, str) and s for s in v)


def _ref_is_num_list(v):
    return isinstance(v, list) and all(_ref_is_num(x) for x in v)


def _ref_is_int_list(v):
    return isinstance(v, list) and all(
        isinstance(x, int) and not isinstance(x, bool) for x in v)


def _ref_is_matrix(v):
    if not isinstance(v, list) or not v:
        return isinstance(v, list)
    if not all(isinstance(row, list) for row in v):
        return False
    width = len(v[0])
    return all(len(row) == width and all(_ref_is_num(x) for x in row)
               for row in v)


class _Colour(enum.IntEnum):
    RED = 1


class _Name(str):
    pass


_PAYLOAD_CASES = [
    [], [""], ["a", "b"], ["a", _Name("b")], [None], ("a", 1),
    [1, 2], [1.0, 2.5], [1.5, 2], [10 ** 400], [10 ** 400, 1.5],
    [True], [1.0, True], [1, False],
    [np.float64(1.5), 2.0], [np.int64(3), 4], [np.float32(0.1)],
    [_Colour.RED], [_Colour.RED, 2], _Colour.RED,
    [1.0, float("nan")], [float("inf")], [-math.inf, 1.0], [1, math.nan],
    np.array([0.1, 2.5], dtype=np.float32), np.array([1.5], dtype=np.float16),
    np.array([1, 2]), np.array([2 ** 63], dtype=np.uint64),
    np.array([True, False]), np.array([], dtype=float), np.array([], dtype=int),
    np.array(2.5), np.array(3), np.array(True), np.array(np.nan),
    np.array([1.0, np.nan]), np.array([np.inf]), np.array([-np.inf, 0.0]),
    np.zeros((2, 3)), np.array([[1.0, np.nan]]), np.arange(8).reshape(2, 2, 2),
    [[1.0, 2.0], [3.0]], [[[1.0]]], [[1.0, math.inf]], [np.array([1.0, 2.0])],
    np.array([1.0], dtype=np.longdouble), np.array([1j]), np.array(["a", "b"]),
    np.array([1, "a"], dtype=object), np.array([1.0, None], dtype=object),
    {"k": [1.0], 2: "v"}, {"k": object()}, object(),
]


def _typed(value):
    """Structure and exact element types, for an element-wise comparison."""
    if isinstance(value, list):
        return list, [_typed(v) for v in value]
    if isinstance(value, dict):
        return dict, {k: _typed(v) for k, v in value.items()}
    return type(value), value


def _outcome(fn, value):
    try:
        return "ok", _typed(fn(value))
    except err.AssistError as exc:
        return "raise", type(exc)


@pytest.mark.parametrize("value", _PAYLOAD_CASES)
def test_plain_matches_per_element_reference(value):
    assert _outcome(transport._plain, value) == _outcome(_ref_plain, value)


_CHECK_CASES = [
    [], [""], ["a"], ["a", ""], [_Name("x")], [_Name("")], [1], [1.0, 2],
    [True], [1, True], [np.float64(1.0)], [np.int64(1)], [_Colour.RED],
    [1.5], [None], [10 ** 400], [[1.0]], [[1.0, 2.0], [3.0, 4.0]],
    [[1.0], [2.0, 3.0]], [[[1.0]]], [[True]], [[]], [[], []], [["a"]],
    [[1, 2.5], [_Colour.RED, np.float64(2.0)]], "abc", None, (1, 2), 1.0,
    {"a": 1},
]


@pytest.mark.parametrize("new, ref", [
    (transport._is_id_list, _ref_is_id_list),
    (transport._is_num_list, _ref_is_num_list),
    (transport._is_int_list, _ref_is_int_list),
    (transport._is_matrix, _ref_is_matrix),
], ids=["ids", "num", "int", "matrix"])
def test_list_checks_match_per_element_reference(new, ref):
    for value in _CHECK_CASES:
        assert bool(new(value)) == bool(ref(value)), value


def test_fit_values_reject_a_two_dimensional_array():
    with pytest.raises(err.MalformedMessage):
        Envelope(kind="FIT_REQUEST", task="t", round=1, sender="a",
                 receiver="b",
                 payload={"ids": ["a", "b"], "values": np.ones((2, 1))})


def test_envelope_does_not_alias_the_callers_lists():
    ids, values, rounds = ["a", "b"], [1.0, 2.0], [1, 2]
    fit = Envelope(kind="FIT_REQUEST", task="t", round=1, sender="a",
                   receiver="b", payload={"ids": ids, "values": values})
    predict_env = Envelope(kind="PREDICT_REQUEST", task="t", round=1,
                           sender="a", receiver="b",
                           payload={"ids": ids, "rounds": rounds})
    ids[0] = "z"
    values.append(3.0)
    rounds[1] = 7
    assert fit.payload == {"ids": ["a", "b"], "values": [1.0, 2.0]}
    assert predict_env.payload == {"ids": ["a", "b"], "rounds": [1, 2]}


def test_payload_path_does_no_per_element_work(monkeypatch):
    calls = dict.fromkeys(("_is_num", "_is_int", "_plain"), 0)

    def counting(name):
        real = getattr(transport, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    for name in calls:
        monkeypatch.setattr(transport, name, counting(name))
    n = 10_000
    ids = [f"id{i:05d}" for i in range(n)]
    fit = Envelope(kind="FIT_REQUEST", task="t", round=1, sender="a",
                   receiver="b",
                   payload={"ids": ids,
                            "values": np.random.default_rng(0)
                            .standard_normal(n)})
    predict_env = Envelope(kind="PREDICT_REQUEST", task="t", round=1,
                           sender="a", receiver="b",
                           payload={"ids": ids, "rounds": list(range(1, 11))})
    for env in (fit, predict_env):
        assert decode(encode(env)) == env
    assert calls["_is_num"] == 0
    assert calls["_is_int"] == 0
    # one call per payload and per field, on each side of each trip
    assert calls["_plain"] == 12


# ---------------------------------------------------------------------------
# payload schemas: residual vectors only, never feature matrices
# ---------------------------------------------------------------------------

def test_fit_schema_rejects_two_dimensional_values():
    validate_payload("FIT_REQUEST", {"ids": ["a"], "values": [1.0]})
    with pytest.raises(err.MalformedMessage):
        validate_payload("FIT_REQUEST", {"ids": ["a"], "values": [[1.0]]})
    with pytest.raises(err.MalformedMessage):
        validate_payload("FIT_RESPONSE", {"ids": ["a"], "values": [[1.0]]})
    with pytest.raises(err.MalformedMessage):
        validate_payload("PREDICT_RESPONSE", {"ids": ["a"],
                                              "values": [[1.0, 2.0]]})


def test_fit_schema_rejects_extra_fields():
    with pytest.raises(err.MalformedMessage):
        validate_payload("FIT_REQUEST",
                         {"ids": ["a"], "values": [1.0],
                          "matrix": [[1.0]]})
    with pytest.raises(err.MalformedMessage):
        validate_payload("PREDICT_REQUEST",
                         {"ids": ["a"], "rounds": [1], "features": [1.0]})


def test_fit_schema_requires_fields_and_types():
    with pytest.raises(err.MalformedMessage):
        validate_payload("FIT_REQUEST", {"ids": ["a"]})
    with pytest.raises(err.MalformedMessage):
        validate_payload("FIT_REQUEST", {"ids": ["a"], "values": [True]})
    with pytest.raises(err.MalformedMessage):
        validate_payload("FIT_REQUEST", {"ids": [1], "values": [1.0]})
    with pytest.raises(err.MalformedMessage):
        validate_payload("PREDICT_REQUEST", {"ids": ["a"], "rounds": [1.5]})


def test_matrix_payloads_only_where_the_protocol_needs_them():
    validate_payload("PARTIAL_PREACT", {"ids": ["a"],
                                        "matrix": [[1.0, 2.0]]})
    with pytest.raises(err.MalformedMessage):
        validate_payload("PARTIAL_PREACT", {"ids": ["a"],
                                            "matrix": [[1.0], [2.0, 3.0]]})
    with pytest.raises(err.MalformedMessage):
        validate_payload("ERROR", {})
    validate_payload("ERROR", {"error": "Boom", "message": "details"})


# ---------------------------------------------------------------------------
# responder behavior
# ---------------------------------------------------------------------------

def test_fit_round_trip_stores_model_and_returns_residual():
    module = _module(seed=1)
    responder = ModuleResponder(module)
    rng = np.random.default_rng(2)
    y = rng.standard_normal(20)
    reply = responder.handle(_fit_env(module, module.partition.ids, y))
    assert reply.kind == "FIT_RESPONSE"
    assert reply.payload["ids"] == list(module.partition.ids)
    model = module.stored_model("t", 1)
    expect = y - predict(model, module.partition.features)
    assert np.allclose(reply.payload["values"], expect, atol=1e-12)


def test_fit_rejects_round_zero_and_double_write():
    module = _module(seed=3)
    ep = local_endpoint(module)
    y = list(np.zeros(20))
    bad = ep.request(_fit_env(module, module.partition.ids, y, round_no=0))
    assert bad.kind == "ERROR" and bad.payload["error"] == "MalformedMessage"
    ok = ep.request(_fit_env(module, module.partition.ids, y, round_no=1))
    assert ok.kind == "FIT_RESPONSE"
    dup = ep.request(_fit_env(module, module.partition.ids, y, round_no=1))
    assert dup.kind == "ERROR" and dup.payload["error"] == "StorageConflict"


def test_policy_refusal():
    module = _module(seed=4)
    ep = local_endpoint(module, policy=lambda env: env.round < 2)
    y = list(np.zeros(20))
    assert ep.request(_fit_env(module, module.partition.ids, y, 1)).kind \
        == "FIT_RESPONSE"
    refuse = ep.request(_fit_env(module, module.partition.ids, y, 2))
    assert refuse.kind == "REFUSE"
    assert refuse.payload["reason"] == "policy"


def test_predict_sums_requested_rounds():
    module = _module(seed=5)
    ep = local_endpoint(module)
    rng = np.random.default_rng(6)
    resid = rng.standard_normal(20)
    for r in (1, 2):
        reply = ep.request(_fit_env(module, module.partition.ids, resid, r))
        resid = np.array(reply.payload["values"])
    ids = module.partition.ids[:5]
    out = ep.request(Envelope(kind="PREDICT_REQUEST", task="t", round=2,
                              sender="alice", receiver="m",
                              payload={"ids": list(ids), "rounds": [1, 2]}))
    assert out.kind == "PREDICT_RESPONSE"
    X = module.partition.features[:5]
    expect = sum(predict(module.stored_model("t", r), X) for r in (1, 2))
    assert np.allclose(out.payload["values"], expect, atol=1e-12)
    twice = ep.request(Envelope(kind="PREDICT_REQUEST", task="t", round=2,
                                sender="alice", receiver="m",
                                payload={"ids": list(ids), "rounds": [1, 1]}))
    assert twice.kind == "ERROR"
    assert twice.payload["error"] == "MalformedMessage"


def test_predict_unknown_ids_and_rounds_become_errors():
    module = _module(seed=7)
    ep = local_endpoint(module)
    missing = ep.request(Envelope(kind="PREDICT_REQUEST", task="t", round=1,
                                  sender="a", receiver="m",
                                  payload={"ids": ["zzzz"], "rounds": [1]}))
    assert missing.kind == "ERROR"
    assert missing.payload["error"] == "MissingTestRows"
    unknown = ep.request(Envelope(kind="PREDICT_REQUEST", task="t", round=1,
                                  sender="a", receiver="m",
                                  payload={"ids": [module.partition.ids[0]],
                                           "rounds": [1]}))
    assert unknown.kind == "ERROR"
    assert unknown.payload["error"] == "UnknownRound"


@pytest.mark.parametrize("ids, values, error", [
    (["0000", "0001", "0002", "0003"], [1.0, 2.0], "ShapeMismatch"),
    (["0000"], [1.0, 2.0], "ShapeMismatch"),
    (["0000", "0001", "0000"], [1.0, 2.0, 3.0], "DuplicateId"),
])
def test_labels_transfer_rejects_mismatched_or_repeated_ids(ids, values,
                                                           error):
    module = _module(seed=8)
    ep = local_endpoint(module)
    setup = {"seed": 1, "hidden": 3, "peer_cols": 2}
    reply = ep.request(Envelope(kind="LABELS_TRANSFER", task="t", round=0,
                                sender="alice", receiver="m",
                                payload={"ids": ids, "values": values,
                                         **setup}))
    assert reply.kind == "ERROR"
    assert reply.payload["error"] == error
    ok = ep.request(Envelope(kind="LABELS_TRANSFER", task="t", round=0,
                             sender="alice", receiver="m",
                             payload={"ids": ids[:1], "values": values[:1],
                                      **setup}))
    assert ok.kind == "LABELS_TRANSFER"


def test_inproc_endpoint_reports_module_id():
    module = _module(module_id="peer-9")
    assert InProcEndpoint(ModuleResponder(module)).module_id == "peer-9"


# ---------------------------------------------------------------------------
# tcp
# ---------------------------------------------------------------------------

def test_tcp_round_trip_matches_in_process():
    module_a = _module(seed=8, module_id="srv")
    module_b = _module(seed=8, module_id="srv")
    y = np.random.default_rng(9).standard_normal(20)
    direct = ModuleResponder(module_a).handle(
        _fit_env(module_a, module_a.partition.ids, y))
    with serve_module(module_b) as server:
        over_wire = server.endpoint().request(
            _fit_env(module_b, module_b.partition.ids, y))
    assert over_wire.payload == direct.payload  # identical doubles


def test_tcp_many_requests_and_threads():
    module = _module(seed=10, n=30)
    y = list(np.zeros(30))
    with serve_module(module) as server:
        ep = server.endpoint()
        replies = {}

        def light_up(task):
            env = Envelope(kind="FIT_REQUEST", task=task, round=1,
                           sender="a", receiver="srv",
                           payload={"ids": list(module.partition.ids),
                                    "values": y})
            replies[task] = ep.request(env).kind

        threads = [threading.Thread(target=light_up, args=(f"task-{i}",))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert set(replies.values()) == {"FIT_RESPONSE"}


def test_tcp_bind_conflict_raises():
    module = _module(seed=11)
    with serve_module(module) as server:
        with pytest.raises(err.BindFailure):
            TcpModuleServer(ModuleResponder(module), host=server.host,
                            port=server.port)


def test_tcp_connection_refused_maps_to_error():
    from assistlearn.transport import TcpEndpoint
    ep = TcpEndpoint("127.0.0.1", 1, "ghost")  # port 1: nothing listens
    env = Envelope(kind="REFUSE", task="t", round=0, sender="a",
                   receiver="ghost")
    with pytest.raises(err.TransportError):
        ep.request(env, timeout=2.0)


def test_tcp_survives_garbage_lines():
    module = _module(seed=12)
    rng = np.random.default_rng(13)
    with serve_module(module) as server:
        for _ in range(200):
            chunk = bytes(rng.integers(0, 256, size=rng.integers(1, 120),
                                       dtype=np.uint8))
            chunk = chunk.replace(b"\n", b"_") + b"\n"
            with socket.create_connection((server.host, server.port),
                                          timeout=5.0) as conn:
                conn.sendall(chunk)
                line = conn.makefile("rb").readline()
            assert line, "server must always reply"
            assert decode(line).kind == "ERROR"
        # and it still serves real work afterwards
        good = server.endpoint().request(
            _fit_env(module, module.partition.ids, list(np.zeros(20))))
        assert good.kind == "FIT_RESPONSE"


def test_wrong_version_over_the_wire():
    module = _module(seed=14)
    with serve_module(module) as server:
        line = encode(Envelope(kind="REFUSE", task="t", round=0, sender="a",
                               receiver="b")).decode()
        line = line.replace('"v":1', '"v":3')
        with socket.create_connection((server.host, server.port),
                                      timeout=5.0) as conn:
            conn.sendall(line.encode() + b"\n")
            reply = decode(conn.makefile("rb").readline())
    assert reply.kind == "ERROR"
    assert reply.payload["error"] == "UnsupportedVersion"


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_literals_are_rejected_on_the_wire(literal):
    module = _module(seed=15)
    ids = list(module.partition.ids)
    good = encode(_fit_env(module, ids, [0.25] * len(ids)))
    bad = good.replace(b"0.25", literal.encode(), 1)
    assert bad != good
    with pytest.raises(err.NonFinitePayload):
        decode(bad)
    with serve_module(module) as server:
        with socket.create_connection((server.host, server.port),
                                      timeout=5.0) as conn:
            reader = conn.makefile("rb")
            conn.sendall(bad)
            reply = decode(reader.readline())
            assert reply.kind == "ERROR"
            assert reply.payload["error"] == "NonFinitePayload"
            conn.sendall(good)
            assert decode(reader.readline()).kind == "FIT_RESPONSE"
