import base64
import enum
import hashlib
import io
import itertools
import json
import logging
import math
import socket
import struct
import sys
import threading
import time

import numpy as np
import pytest

from assistlearn import core
from assistlearn import errors as err
from assistlearn import transport
from assistlearn.core import FeaturePartition, LocalModule, TaskLabels
from assistlearn.learners import LearnerSpec, predict
from assistlearn.protocol import Peer
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

def _bits(arr):
    return np.asarray(arr, dtype=np.float64).tobytes()


def test_encode_decode_round_trip_is_lossless():
    tiny = np.finfo(float).smallest_subnormal
    tricky = [0.1, -0.0, 0.0, 1e-300, 1e300, -2.5000000000000004,
              3.141592653589793, tiny, 5e-324, -5e-324, 3 * tiny,
              np.finfo(float).tiny / 2, np.finfo(float).max,
              -np.finfo(float).max]
    ids = [f"i{k}" for k in range(len(tricky))]
    env = Envelope(kind="FIT_REQUEST", task="t", round=1, sender="a",
                   receiver="b", payload={"ids": ids, "values": tricky})
    line = encode(env)
    back = decode(line)
    assert _bits(back.payload["values"]) == _bits(tricky)  # bit for bit
    assert back.payload["ids"] == ids and encode(back) == line
    matrix = np.array(tricky).reshape(7, 2)
    env = Envelope(kind="PARTIAL_PREACT", task="t", round=3, sender="a",
                   receiver="b", payload={"ids": ids[:7], "matrix": matrix})
    back = decode(encode(env))
    assert back.payload["matrix"].shape == (7, 2)
    assert _bits(back.payload["matrix"]) == _bits(matrix)


def test_encode_is_single_json_line():
    env = Envelope(kind="ERROR", task="t", round=2, sender="a",
                   receiver="b", payload={"error": "StorageConflict"})
    raw = encode(env)
    assert raw.endswith(b"\n") and raw.count(b"\n") == 1
    body = json.loads(raw)
    assert set(body) == {"v", "kind", "task", "round", "from", "to",
                         "payload"}
    assert body["v"] == 4 and body["from"] == "a" and body["to"] == "b"
    # frames follow the header line raw, in sorted field-name order; the
    # ids cross as one frame of their UTF-8 text joined by newlines
    env = Envelope(kind="WTILDE_TRANSFER", task="t", round=2, sender="a",
                   receiver="b", payload={"ids": ["x", "y"],
                                          "matrix": np.arange(6.0)
                                          .reshape(2, 3),
                                          "w_out": [7.0, 8.0, 9.0],
                                          "b_hidden": [4.0, 5.0, 6.0],
                                          "b_out": 0.5, "rate": 0.01,
                                          "batch": 2, "epochs": 1})
    header, frames = encode(env).split(b"\n", 1)
    payload = json.loads(header)["payload"]
    assert (payload["ids"], payload["id_bytes"], payload["cols"]) == (2, 3, 3)
    assert (payload["matrix"], payload["b_hidden"], payload["w_out"]) \
        == (6, 3, 3)
    assert frames == b"".join([_f8([4.0, 5.0, 6.0]), b"x\ny",
                               _f8([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]),
                               _f8([7.0, 8.0, 9.0])])


def test_envelope_validation():
    ok = dict(kind="ERROR", task="t", round=0, sender="a", receiver="b",
              payload={"error": "StorageConflict"})
    Envelope(**ok)
    for version in (1, 2, 3):
        with pytest.raises(err.UnsupportedVersion):
            Envelope(**ok, v=version)
    for kind in ("GOSSIP", "REFUSE"):
        with pytest.raises(err.MalformedMessage):
            Envelope(**{**ok, "kind": kind})
    with pytest.raises(err.MalformedMessage):
        Envelope(**{**ok, "round": -1})
    with pytest.raises(err.MalformedMessage):
        Envelope(**{**ok, "round": True})
    with pytest.raises(err.MalformedMessage):
        Envelope(**{**ok, "task": 7})


def test_payload_normalizes_numpy_and_bans_non_finite():
    for given in ([1.5], np.array([1.5]), np.array([1.5], dtype=np.float32),
                  np.array([3])):
        env = Envelope(kind="FIT_RESPONSE", task="t", round=1, sender="a",
                       receiver="b", payload={"ids": ["i"], "values": given})
        values = env.payload["values"]
        assert values.dtype == np.float64 and values.shape == (1,)
        assert not values.flags.writeable
        assert values[0] == float(np.asarray(given)[0])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(err.NonFinitePayload):
            Envelope(kind="FIT_RESPONSE", task="t", round=1, sender="a",
                     receiver="b", payload={"ids": ["i"], "values": [bad]})
        with pytest.raises(err.NonFinitePayload):
            Envelope(kind="WTILDE_TRANSFER", task="t", round=2, sender="a",
                     receiver="b", payload={"b_hidden": [0.0], "w_out": [1.0],
                                            "b_out": bad})
    for not_numbers in (["1.5"], [True], [None], [[1.0], [2.0, 3.0]],
                        np.array([1j]), np.array([1.0], dtype=np.longdouble)):
        with pytest.raises(err.MalformedMessage):
            Envelope(kind="FIT_RESPONSE", task="t", round=1, sender="a",
                     receiver="b", payload={"ids": ["i"],
                                            "values": not_numbers})
    with pytest.raises(err.MalformedMessage):
        Envelope(kind="ERROR", task="t", round=0, sender="a", receiver="b",
                 payload={"error": object()})


def test_decode_rejects_garbage():
    with pytest.raises(err.MalformedMessage):
        decode(b"\xff\xfe junk")
    with pytest.raises(err.MalformedMessage):
        decode(b"not json\n")
    with pytest.raises(err.MalformedMessage):
        decode(b"[1, 2]\n")
    with pytest.raises(err.MalformedMessage):
        decode(b'{"v": 4}\n')
    with pytest.raises(err.MalformedMessage):
        decode(b'{"v":4,"kind":"ERROR"}\n{"second":1}\n')
    line = encode(Envelope(kind="ERROR", task="t", round=0, sender="a",
                           receiver="b",
                           payload={"error": "StorageConflict"}))
    for version in (b'"v":1', b'"v":2', b'"v":3', b'"v":9'):
        with pytest.raises(err.UnsupportedVersion):
            decode(line.replace(b'"v":4', version))
    with pytest.raises(err.MalformedMessage):
        decode(line.replace(b'"v":4', b'"v":"4"'))
    for kind in (b"GOSSIP", b"REFUSE"):
        with pytest.raises(err.MalformedMessage):
            decode(line.replace(b'"ERROR"', b'"' + kind + b'"'))


def _frame_line(kind, payload, round_no=1, tail=b""):
    """A hand-built v4 message. Each bytes field of ``payload`` becomes a
    frame, declared as len // 8 floats, and an ``ids`` list becomes the id
    frame, declared by its id count and ``id_bytes``; any other value goes
    into the header as given. ``tail`` follows the frames."""
    header, frames = {}, {}
    for name, value in payload.items():
        if isinstance(value, bytes):
            frames[name], value = value, len(value) // 8
        elif name == "ids" and isinstance(value, list):
            frames[name] = "\n".join(value).encode("utf-8")
            header["id_bytes"], value = len(frames[name]), len(value)
        header[name] = value
    line = json.dumps({"v": 4, "kind": kind, "task": "t", "round": round_no,
                       "from": "a", "to": "m", "payload": header}) + "\n"
    return line.encode() + b"".join(frames[k] for k in sorted(frames)) + tail


def _f8(values):
    """The raw little-endian float64 bytes of a frame."""
    return np.asarray(values, dtype="<f8").tobytes()


def _decode_both_ways(message):
    """Decode a whole message, and its header line with the frames read
    from a stream; both must agree."""
    line, _, frames = message.partition(b"\n")
    outcomes = []
    for attempt in (lambda: decode(message),
                    lambda: decode(line + b"\n", io.BytesIO(frames))):
        try:
            outcomes.append(attempt())
        except err.AssistError as exc:
            outcomes.append(type(exc))
    assert outcomes[0] == outcomes[1]
    if isinstance(outcomes[0], type):
        raise outcomes[0]("from _decode_both_ways")
    return outcomes[0]


def _schema_refuses(responder, kind, payload, error, round_no=1):
    """Building ``payload`` as ``kind`` into an Envelope raises ``error``,
    and the same message as bytes gets an ERROR naming it from
    ``responder``."""
    with pytest.raises(getattr(err, error)):
        Envelope(kind=kind, task="t", round=round_no, sender="a",
                 receiver="m", payload=payload)
    reply = responder.answer(_frame_line(kind, _wire(payload), round_no))
    assert (reply.kind, reply.payload["error"]) == ("ERROR", error)


def test_decode_checks_frames_against_the_ids():
    def check(kind, payload):
        return _decode_both_ways(_frame_line(kind, payload))
    ids = ["a", "b", "c"]
    assert check("FIT_REQUEST", {"ids": ids, "values": _f8([1, 2, 3])})
    for k in (2, 3):  # a flattened (len(ids), k) matrix is not a vector
        with pytest.raises(err.ShapeMismatch):
            check("FIT_REQUEST", {"ids": ids,
                                  "values": _f8(np.ones(len(ids) * k))})
    for kind in ("FIT_RESPONSE", "PREDICT_RESPONSE"):
        with pytest.raises(err.ShapeMismatch):
            check(kind, {"ids": ids, "values": _f8([1, 2])})
    partial = {"ids": ids, "matrix": _f8(np.ones(6)), "cols": 2}
    assert check("PARTIAL_PREACT", partial).payload["matrix"].shape == (3, 2)
    for rows in (2, 4):
        with pytest.raises(err.ShapeMismatch):
            check("PARTIAL_PREACT", {**partial,
                                     "matrix": _f8(np.ones(rows * 2))})
    for cols in (None, 0, -2, 2.0, True, "2", [2]):
        bad = {**partial, "cols": cols} if cols is not None else \
            {"ids": ids, "matrix": partial["matrix"]}
        with pytest.raises(err.MalformedMessage):
            check("PARTIAL_PREACT", bad)
    # a column count or a matrix where the kind admits none
    with pytest.raises(err.MalformedMessage):
        check("FIT_REQUEST", {"ids": ids, "values": _f8([1, 2, 3]),
                              "cols": 1})
    with pytest.raises(err.MalformedMessage):
        check("FIT_REQUEST", {"ids": ids, "values": _f8([1, 2, 3]),
                              **partial})
    # a header that is no form is refused before any frame byte is read
    for kind, header in (
            ("PARTIAL_PREACT", {"matrix": 6, "cols": 2}),
            ("FIT_REQUEST", {"ids": ids, "values": 3, "matrix": 6,
                             "cols": 2}),
            ("PREDICT_REQUEST", {"ids": ids, "id_set": _AB, "rounds": [1]})):
        line = _frame_line(kind, header).partition(b"\n")[0] + b"\n"
        with pytest.raises(err.MalformedMessage):
            decode(line, _Unread())
    with pytest.raises(err.NonFinitePayload):
        check("FIT_REQUEST", {"ids": ids, "values": _f8([1, np.nan, 3])})
    # an empty list takes empty frames
    assert check("PARTIAL_PREACT", {"ids": [], "matrix": b"", "cols": 4}
                 ).payload["matrix"].shape == (0, 4)


@pytest.mark.parametrize("count, frames", [
    (2, _f8([1.0, 2.0])[:-3]),              # truncated
    (2, _f8([1.0, 2.0]) + b"\0"),           # a byte past the last frame
    (2, b"\0" * 3),                          # 3 bytes, not whole float64s
    (2, b"\0" * 9),                          # 9 bytes
    (2, _f8([1.0, 2.0, 3.0])),              # a whole float past the frames
    (2, b""),                               # frames missing
    (-2, b""), (True, _f8([1.0])), ("2", _f8([1.0, 2.0])),
    ("not a count!", b""), ("\u00e9\u00e9", b""), ([1.0, 2.0], b""),
    (1.5, b""), (None, b""), ({"f8": 2}, b""),
], ids=["truncated", "padding", "three-bytes", "nine-bytes", "extra-float",
        "missing", "negative", "bool", "string", "alphabet", "non-ascii",
        "list", "number", "null", "object"])
def test_bad_frames_are_malformed_and_never_a_traceback(count, frames,
                                                        caplog):
    line = _frame_line("FIT_REQUEST", {"ids": ["a", "b"], "values": count},
                       tail=frames)
    with pytest.raises(err.MalformedMessage):
        decode(line)
    with caplog.at_level(logging.ERROR, logger="assistlearn"):
        reply = ModuleResponder(_module()).answer(line)
    assert reply.kind == "ERROR"
    assert reply.payload["error"] == "MalformedMessage"
    assert not caplog.records


_WIDE = ("\u00e9t\u00e9", "\u4e2d\u6587", "\U0001f600", "a b\tc", 'q"\\')


@pytest.mark.parametrize("size", [0, 1, 15_000, "non-ascii"])
def test_id_lists_come_back_equal_through_the_codec_and_a_responder(size):
    wide = size == "non-ascii"
    ids = list(_WIDE) if wide else [f"{i:08d}" for i in range(size)]
    rows = max(len(ids), 1)  # a partition needs a row to fit on
    part = FeaturePartition(
        ids=ids or ["spare"], feature_names=("c0", "c1"),
        features=np.random.default_rng(23).standard_normal((rows, 2)))
    module = LocalModule("m", part, LearnerSpec("least_squares"))
    responder = ModuleResponder(module)
    fit = _fit_env(module, part.ids, np.ones(part.n_rows))
    assert responder.answer(fit).kind == "FIT_RESPONSE"
    request = Envelope(kind="PREDICT_REQUEST", task="t", round=0,
                       sender="alice", receiver="m",
                       payload={"ids": ids, "rounds": [1]})
    message = encode(request)
    header = json.loads(message.partition(b"\n")[0])["payload"]
    assert (header["ids"], header["id_bytes"]) \
        == (len(ids), len("\n".join(ids).encode("utf-8")))
    back = decode(message)
    assert back == request and back.payload["ids"] == ids
    assert all(type(i) is str for i in back.payload["ids"])
    in_process = InProcEndpoint(responder).request(request)
    over_bytes = decode(encode(responder.answer(message)))
    for reply in (in_process, over_bytes):
        assert reply.kind == "PREDICT_RESPONSE"
        assert reply.payload["ids"] == ids
        assert reply.payload["values"].shape == (len(ids),)
    assert _bits(in_process.payload["values"]) \
        == _bits(over_bytes.payload["values"])


def test_an_id_with_a_newline_or_no_utf8_is_malformed():
    for ids in (["a\nb"], ["a", "b\n"], ["\n"], ["\ud800"], ["a", ""],
                [1], "ab", {"a"}):
        with pytest.raises(err.MalformedMessage):
            Envelope(kind="PREDICT_REQUEST", task="t", round=0, sender="a",
                     receiver="b", payload={"ids": ids, "rounds": [1]})
    for ids in (("a\nb",), ("a", "\n")):
        with pytest.raises(ValueError, match="newline"):
            FeaturePartition(ids=ids, features=np.zeros((len(ids), 1)),
                             feature_names=("u",))
        with pytest.raises(ValueError, match="newline"):
            TaskLabels(ids=ids, values=np.zeros(len(ids)))


def _id_line(count, frame, **payload):
    """A hand-built PREDICT_REQUEST declaring ``count`` ids in ``frame``."""
    return _frame_line("PREDICT_REQUEST", {"ids": count,
                                           "id_bytes": len(frame),
                                           "rounds": [1], **payload},
                       tail=frame)


@pytest.mark.parametrize("count, frame", [
    (3, b"a\nb"), (3, b"a\nb\nc\nd"), (1, b"a\nb"), (0, b"a"), (1, b""),
    (2, b"\xff\n\xfe"), (1, b"\xed\xa0\x80"), (3, b"a\n\nb"), (2, b"a\n"),
], ids=["fewer", "more", "split", "none-declared", "empty-frame",
        "not-utf8", "surrogate", "empty-id", "trailing-newline"])
def test_an_id_frame_that_does_not_split_into_its_count_is_malformed(
        count, frame):
    with pytest.raises(err.MalformedMessage):
        _decode_both_ways(_id_line(count, frame))
    assert _decode_both_ways(_id_line(2, b"a\nb")).payload["ids"] == ["a", "b"]


@pytest.mark.parametrize("declared", [
    {"id_bytes": None}, {"id_bytes": -1}, {"id_bytes": True},
    {"id_bytes": "3"}, {"ids": -1}, {"ids": ["a", "b"]}, {"ids": "2"},
])
def test_bad_id_counts_are_malformed(declared):
    """Also a v3 style id list under a v4 header."""
    payload = {"ids": 2, "id_bytes": 3, "rounds": [1], **declared}
    if payload["id_bytes"] is None:
        del payload["id_bytes"]
    line = json.dumps({"v": 4, "kind": "PREDICT_REQUEST", "task": "t",
                       "round": 0, "from": "a", "to": "m",
                       "payload": payload}).encode() + b"\n"
    with pytest.raises(err.MalformedMessage):
        _decode_both_ways(line + b"a\nb")


class _Unread:
    """A stream that fails the test if anything reads from it."""

    def read(self, size):
        raise AssertionError("a frame byte was read")


def test_a_values_count_that_differs_from_the_ids_reads_no_frame_byte():
    for values, ids in ((2, 3), (4, 3), (1, 0), (0, 1)):
        header = json.dumps({
            "v": 4, "kind": "FIT_REQUEST", "task": "t", "round": 1,
            "from": "a", "to": "m",
            "payload": {"ids": ids, "id_bytes": 2 * ids - 1 if ids else 0,
                        "values": values}}).encode() + b"\n"
        with pytest.raises(err.ShapeMismatch):
            decode(header, _Unread())
    # a matrix with a row count other than the ids is refused the same way
    header = _frame_line("PARTIAL_PREACT", {"ids": 3, "id_bytes": 5,
                                            "matrix": 8, "cols": 2})
    with pytest.raises(err.ShapeMismatch):
        decode(header, _Unread())


def test_envelope_copies_and_never_freezes_the_callers_arrays():
    values = np.array([1.0, 2.0])
    env = Envelope(kind="FIT_REQUEST", task="t", round=1, sender="a",
                   receiver="b", payload={"ids": ["a", "b"], "values": values})
    assert values.flags.writeable
    assert not np.shares_memory(env.payload["values"], values)
    values[0] = 9.0
    assert env.payload["values"].tolist() == [1.0, 2.0]
    with pytest.raises(ValueError):
        env.payload["values"][0] = 9.0
    frozen = np.array([1.0, 2.0])
    frozen.flags.writeable = False
    env = Envelope(kind="FIT_REQUEST", task="t", round=1, sender="a",
                   receiver="b", payload={"ids": ["a", "b"], "values": frozen})
    assert not np.shares_memory(env.payload["values"], frozen)
    assert not frozen.flags.writeable


# ---------------------------------------------------------------------------
# vectorised payload path against the per-element reference
# ---------------------------------------------------------------------------

def _ref_plain(value, nested=False):
    """A scalar, or a flat list of scalars: no schema admits anything else."""
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
    if isinstance(value, (list, tuple)) and not nested:
        return [_ref_plain(v, nested=True) for v in value]
    raise err.MalformedMessage(f"unsupported payload value {type(value).__name__}")


def _ref_is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _ref_is_id_list(v):
    def valid(s):
        try:
            s.encode("utf-8")
        except UnicodeEncodeError:
            return False
        return s and "\n" not in s
    return isinstance(v, (list, tuple)) and all(
        isinstance(s, str) and valid(s) for s in v)


def _is_id_list(v):
    """Whether an Envelope takes ``v`` as its ids."""
    try:
        transport._id_list(v)
    except err.MalformedMessage:
        return False
    return True


def _ref_is_int_list(v):
    return isinstance(v, list) and all(
        isinstance(x, int) and not isinstance(x, bool) for x in v)


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
    {"a": 1}, ["a\nb"], ["a", "b\n"], ["\n"], ["\ud800"], ["a", "\u00e9"],
    ("a", "b"), ("a", ""), [b"a"],
]


@pytest.mark.parametrize("new, ref", [
    (_is_id_list, _ref_is_id_list),
    (transport._is_int_list, _ref_is_int_list),
], ids=["ids", "int"])
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
    assert fit.payload["ids"] == ["a", "b"]
    assert fit.payload["values"].tolist() == [1.0, 2.0]
    assert predict_env.payload == {"ids": ["a", "b"], "rounds": [1, 2]}


def test_payload_path_does_no_per_element_work(monkeypatch):
    """Float values never pass through per-element Python code: the calls
    into the payload helpers do not grow with the number of values, and no
    Python float reaches them."""
    seen = []

    def counting(name):
        real = getattr(transport, name)

        def counted(value, *args):
            seen.append((name, type(value)))
            return real(value, *args)
        return counted

    for name in ("_plain", "_frame", "_id_list"):
        monkeypatch.setattr(transport, name, counting(name))

    def trip(n):
        seen.clear()
        ids = [f"id{i:05d}" for i in range(n)]
        env = Envelope(kind="PREDICT_RESPONSE", task="t", round=0,
                       sender="a", receiver="b",
                       payload={"ids": ids, "values": np.random
                                .default_rng(n).standard_normal(n)})
        line = encode(env)
        back = decode(line)
        assert json.loads(line.split(b"\n")[0])["payload"]["values"] == n
        assert back.payload["values"].tobytes() == \
            env.payload["values"].tobytes()
        return list(seen)

    small, large = trip(10), trip(15_000)
    assert len(large) == len(small)
    assert not any(issubclass(t, float) for _, t in large)


# ---------------------------------------------------------------------------
# payload schemas: residual vectors only, never feature matrices
# ---------------------------------------------------------------------------

def _vec(*values):
    return np.array(values, dtype=float)


def test_fit_schema_rejects_two_dimensional_values():
    validate_payload("FIT_REQUEST", {"ids": ["a"], "values": _vec(1.0)})
    for kind in ("FIT_REQUEST", "FIT_RESPONSE", "PREDICT_RESPONSE"):
        for values in (np.ones((1, 1)), np.ones((1, 2)), [1.0], [[1.0]]):
            with pytest.raises(err.MalformedMessage):
                validate_payload(kind, {"ids": ["a"], "values": values})


def test_fit_schema_rejects_extra_fields():
    with pytest.raises(err.MalformedMessage):
        validate_payload("FIT_REQUEST",
                         {"ids": ["a"], "values": _vec(1.0),
                          "matrix": np.ones((1, 1))})
    with pytest.raises(err.MalformedMessage):
        validate_payload("PREDICT_REQUEST",
                         {"ids": ["a"], "rounds": [1], "features": _vec(1.0)})


def test_fit_schema_requires_fields_and_types():
    with pytest.raises(err.MalformedMessage):
        validate_payload("FIT_REQUEST", {"ids": ["a"]})
    with pytest.raises(err.MalformedMessage):
        Envelope(kind="FIT_REQUEST", task="t", round=1, sender="a",
                 receiver="b", payload={"ids": ["a"], "values": [True]})
    with pytest.raises(err.MalformedMessage):
        validate_payload("FIT_REQUEST", {"ids": "a", "values": _vec(1.0)})
    for ids in ([1], [""], ["a\nb"]):  # checked as the Envelope takes them
        with pytest.raises(err.MalformedMessage):
            Envelope(kind="FIT_REQUEST", task="t", round=1, sender="a",
                     receiver="b", payload={"ids": ids, "values": [1.0]})
    with pytest.raises(err.MalformedMessage):
        validate_payload("PREDICT_REQUEST", {"ids": ["a"], "rounds": [1.5]})


def test_matrix_payloads_only_where_the_protocol_needs_them():
    validate_payload("PARTIAL_PREACT", {"ids": ["a"],
                                        "matrix": np.ones((1, 2))})
    with pytest.raises(err.MalformedMessage):
        validate_payload("PARTIAL_PREACT", {"ids": ["a"],
                                            "matrix": _vec(1.0, 2.0)})
    with pytest.raises(err.MalformedMessage):
        Envelope(kind="PARTIAL_PREACT", task="t", round=1, sender="a",
                 receiver="b",
                 payload={"ids": ["a"], "matrix": [[1.0], [2.0, 3.0]]})
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
    responder = ModuleResponder(module)
    ep = InProcEndpoint(responder)
    y = list(np.zeros(20))
    bad = ep.request(_fit_env(module, module.partition.ids, y, round_no=0))
    assert bad.kind == "ERROR" and bad.payload["error"] == "MalformedMessage"
    ok = ep.request(_fit_env(module, module.partition.ids, y, round_no=1))
    assert ok.kind == "FIT_RESPONSE"
    dup = ep.request(_fit_env(module, module.partition.ids, y, round_no=1))
    assert dup.kind == "ERROR" and dup.payload["error"] == "StorageConflict"
    _schema_refuses(responder, "FIT_REQUEST",
                    {"ids": list(module.partition.ids), "values": y[:-1]},
                    "ShapeMismatch", round_no=2)
    assert list(module.model_store) == [("t", 1)]


def test_predict_sums_requested_rounds():
    module = _module(seed=5)
    responder = ModuleResponder(module)
    ep = InProcEndpoint(responder)
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
    cached = list(responder._id_sets)
    _schema_refuses(responder, "PREDICT_REQUEST",
                    {"ids": list(ids), "rounds": [1, 1]}, "MalformedMessage",
                    round_no=2)
    assert list(responder._id_sets) == cached
    assert sorted(module.model_store) == [("t", 1), ("t", 2)]


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


@pytest.mark.parametrize("ids, values, error, bad_setup", [
    (["0000", "0001", "0002", "0003"], [1.0, 2.0], "ShapeMismatch", {}),
    (["0000"], [1.0, 2.0], "ShapeMismatch", {}),
    (["0000", "0001", "0000"], [1.0, 2.0, 3.0], "DuplicateId", {}),
    (["0000"], [1.0], "MalformedMessage", {"hidden": 0}),
    (["0000"], [1.0], "MalformedMessage", {"seed": -5}),
    (["0000"], [1.0], "MalformedMessage", {"peer_cols": -1}),
])
def test_labels_transfer_rejects_mismatched_or_repeated_ids(ids, values,
                                                           error, bad_setup):
    module = _module(seed=8)
    responder = ModuleResponder(module)
    ep = InProcEndpoint(responder)
    setup = {"seed": 1, "hidden": 3, "peer_cols": 2}
    payload = {"ids": ids, "values": values, **setup, **bad_setup}
    if error == "DuplicateId":  # TaskLabels finds it, not the schema
        for request in (Envelope(kind="LABELS_TRANSFER", task="t", round=0,
                                 sender="a", receiver="m", payload=payload),
                        _frame_line("LABELS_TRANSFER", _wire(payload), 0)):
            reply = responder.answer(request)
            assert (reply.kind, reply.payload["error"]) == ("ERROR", error)
    else:
        _schema_refuses(responder, "LABELS_TRANSFER", payload, error,
                        round_no=0)
    assert responder._nn == {}
    ok = ep.request(Envelope(kind="LABELS_TRANSFER", task="t", round=0,
                             sender="alice", receiver="m",
                             payload={"ids": ids[:1], "values": values[:1],
                                      **setup}))
    assert ok.kind == "LABELS_TRANSFER"


@pytest.mark.parametrize("bad_opt", [{"rate": 0.0}, {"batch": 0},
                                     {"epochs": 0}])
def test_wtilde_rejects_bad_optimizer_settings(bad_opt):
    module = _module(seed=8)
    responder = ModuleResponder(module)
    ep = InProcEndpoint(responder)
    ids = ["0000", "0001"]
    setup = ep.request(Envelope(kind="LABELS_TRANSFER", task="t", round=0,
                                sender="alice", receiver="m",
                                payload={"ids": ids, "values": [1.0, 2.0],
                                         "seed": 1, "hidden": 3,
                                         "peer_cols": 2}))
    assert setup.kind == "LABELS_TRANSFER"
    payload = {"ids": ids, "matrix": np.zeros((2, 3)),
               "b_hidden": [0.0] * 3, "w_out": [0.1] * 3, "b_out": 0.0,
               "rate": 0.01, "batch": 2, "epochs": 1}
    ok = ep.request(Envelope(kind="WTILDE_TRANSFER", task="t", round=2,
                             sender="alice", receiver="m", payload=payload))
    assert ok.kind == "WTILDE_TRANSFER"
    _schema_refuses(responder, "WTILDE_TRANSFER", {**payload, **bad_opt},
                    "MalformedMessage", round_no=4)
    assert sorted(responder._nn["t"].snapshots) == [0, 2]


@pytest.mark.parametrize("round_no, rows, cols, b_len, w_len, error, schema", [
    (3, 10, 3, 3, 3, "MalformedMessage", False),  # odd rounds are Alice's
    (2, 10, 4, 3, 3, "ShapeMismatch", False),     # wider than Bob's block
    (2, 8, 3, 3, 3, "ShapeMismatch", True),       # fewer rows than ids
    (2, 12, 3, 3, 3, "ShapeMismatch", True),      # more rows than ids
    (2, 10, 3, 2, 2, "ShapeMismatch", False),     # not hidden long
    (2, 10, 3, 3, 2, "ShapeMismatch", True),      # b_hidden, w_out unequal
], ids=["odd-round", "width", "fewer-rows", "more-rows", "shared-length",
        "unequal-shared"])
def test_wtilde_rejects_bad_rounds_and_shapes_before_training(
        round_no, rows, cols, b_len, w_len, error, schema, caplog):
    """The schema refuses what one message shows; the responder refuses
    what its state shows."""
    module = _module(seed=8)
    responder = ModuleResponder(module)
    ids = list(module.partition.ids[:10])
    setup = responder.answer(Envelope(
        kind="LABELS_TRANSFER", task="t", round=0, sender="alice",
        receiver="m", payload={"ids": ids, "values": np.arange(10.0),
                               "seed": 1, "hidden": 3, "peer_cols": 2}))
    assert setup.kind == "LABELS_TRANSFER"
    payload = {"ids": ids, "matrix": np.zeros((rows, cols)),
               "b_hidden": np.zeros(b_len), "w_out": np.full(w_len, 0.1),
               "b_out": 0.0, "rate": 0.01, "batch": 2, "epochs": 1}
    with caplog.at_level(logging.ERROR, logger="assistlearn"):
        if schema:
            _schema_refuses(responder, "WTILDE_TRANSFER", payload, error,
                            round_no)
        else:
            request = Envelope(kind="WTILDE_TRANSFER", task="t",
                               round=round_no, sender="alice", receiver="m",
                               payload=payload)
            for reply in (responder.answer(request),
                          responder.answer(encode(request))):
                assert (reply.kind, reply.payload["error"]) == ("ERROR",
                                                                error)
    assert not caplog.records
    assert list(responder._nn["t"].snapshots) == [0]  # nothing trained
    if round_no % 2:  # the round is refused before any id is cached
        assert not responder._id_sets


def test_an_out_of_order_wtilde_transfer_changes_nothing(caplog):
    module = _module(seed=8)
    responder = ModuleResponder(module)
    ids = list(module.partition.ids[:10])
    assert responder.answer(Envelope(
        kind="LABELS_TRANSFER", task="t", round=0, sender="alice",
        receiver="m", payload={"ids": ids, "values": np.arange(10.0),
                               "seed": 1, "hidden": 3, "peer_cols": 2})
    ).kind == "LABELS_TRANSFER"

    def wtilde(round_no):
        return responder.answer(Envelope(
            kind="WTILDE_TRANSFER", task="t", round=round_no, sender="alice",
            receiver="m", payload={"ids": ids,
                                   "matrix": np.full((10, 3), 0.1),
                                   "b_hidden": np.zeros(3),
                                   "w_out": np.full(3, 0.1), "b_out": 0.0,
                                   "rate": 0.05, "batch": 2, "epochs": 1}))

    assert wtilde(2).kind == "WTILDE_TRANSFER"
    snapshots = responder._nn["t"].snapshots
    kept = {r: w.copy() for r, w in snapshots.items()}
    # round 2 sent again or round 0 replayed: done rounds are never retrained;
    # round 6 before round 4: its starting block does not exist yet
    with caplog.at_level(logging.ERROR, logger="assistlearn"):
        for round_no, error in ((2, "StorageConflict"),
                                (0, "StorageConflict"),
                                (6, "UnknownRound")):
            reply = wtilde(round_no)
            assert reply.kind == "ERROR"
            assert reply.payload["error"] == error
            assert snapshots.keys() == kept.keys()
            assert all(np.array_equal(snapshots[r], w)
                       for r, w in kept.items())
    assert not caplog.records
    assert wtilde(4).kind == "WTILDE_TRANSFER"
    assert sorted(snapshots) == [0, 2, 4]


def test_a_repeated_labels_transfer_is_a_retry_or_a_conflict():
    module = _module(seed=8)
    responder = ModuleResponder(module)
    ids = list(module.partition.ids[:10])
    setup = Envelope(kind="LABELS_TRANSFER", task="t", round=0,
                     sender="alice", receiver="m",
                     payload={"ids": ids, "values": np.arange(10.0),
                              "seed": 1, "hidden": 3, "peer_cols": 2})
    ack = responder.answer(setup)
    assert ack.kind == "LABELS_TRANSFER"
    partial = Envelope(kind="PARTIAL_PREACT", task="t", round=2,
                       sender="alice", receiver="m", payload={"ids": ids})
    first = responder.answer(partial).payload["matrix"]
    trained = responder.answer(Envelope(
        kind="WTILDE_TRANSFER", task="t", round=2, sender="alice",
        receiver="m", payload={"ids": ids, "matrix": np.full((10, 3), 0.1),
                               "b_hidden": np.zeros(3),
                               "w_out": np.full(3, 0.1), "b_out": 0.0,
                               "rate": 0.05, "batch": 2, "epochs": 1}))
    assert trained.kind == "WTILDE_TRANSFER"
    before = responder.answer(partial).payload["matrix"]
    assert not np.array_equal(before, first)  # round 2 trained Bob's block
    # a retry of the same setup, as decoded off the wire, keeps the state
    assert responder.answer(encode(setup)) == ack
    assert np.array_equal(responder.answer(partial).payload["matrix"], before)
    for changed in ({"seed": 2}, {"hidden": 4}, {"peer_cols": 1},
                    {"values": np.arange(10.0) + 1.0},
                    {"ids": ids[:5], "values": np.arange(5.0)}):
        reply = responder.answer(Envelope(
            kind="LABELS_TRANSFER", task="t", round=0, sender="alice",
            receiver="m", payload={**setup.payload, **changed}))
        assert reply.kind == "ERROR"
        assert reply.payload["error"] == "StorageConflict"
        assert np.array_equal(responder.answer(partial).payload["matrix"],
                              before)


@pytest.mark.parametrize("kind, payload", [
    ("PARTIAL_PREACT", {"ids": ["0000", "0001"], "matrix": np.ones((2, 5))}),
    ("FIT_RESPONSE", {"ids": ["0000", "0001"], "values": np.ones(2)}),
    ("PREDICT_RESPONSE", {"ids": ["0000", "0001"], "values": np.ones(2)}),
    ("WTILDE_TRANSFER", {"b_hidden": np.zeros(3), "w_out": np.full(3, 0.1),
                         "b_out": 0.0}),
    ("LABELS_TRANSFER", {"own_cols": 2}),
    ("ERROR", {"error": "StorageConflict"}),
], ids=["PARTIAL_PREACT", "FIT_RESPONSE", "PREDICT_RESPONSE",
        "WTILDE_TRANSFER", "LABELS_TRANSFER", "ERROR"])
def test_a_reply_form_sent_as_a_request_is_refused(kind, payload, caplog):
    """Also a PARTIAL_PREACT that carries a matrix, which is its reply."""
    module = _module(seed=8)
    responder = ModuleResponder(module)
    setup = Envelope(kind="LABELS_TRANSFER", task="t", round=0,
                     sender="alice", receiver="m",
                     payload={"ids": list(module.partition.ids[:10]),
                              "values": np.arange(10.0), "seed": 1,
                              "hidden": 3, "peer_cols": 2})
    assert responder.answer(setup).kind == "LABELS_TRANSFER"
    request = Envelope(kind=kind, task="t", round=2, sender="alice",
                       receiver="m", payload=payload)
    with caplog.at_level(logging.ERROR, logger="assistlearn"):
        for sent in (request, encode(request)):
            reply = responder.answer(sent)
            assert (reply.kind, reply.payload["error"]) == (
                "ERROR", "MalformedMessage")
    assert not caplog.records
    assert list(responder._nn["t"].snapshots) == [0]
    assert responder._nn["t"].setup is setup
    assert not module.model_store and not responder._id_sets
    assert request.is_reply and not setup.is_reply


def test_inproc_endpoint_reports_module_id():
    module = _module(module_id="peer-9")
    assert InProcEndpoint(ModuleResponder(module)).module_id == "peer-9"


def test_the_responder_aligns_rows_through_core_align(monkeypatch):
    """It looks ``core.align`` up per call, so a wrapper such as the
    benchmark's tracer sees the server's alignments too."""
    calls, real = [], core.align

    def counted(partition, ids):
        calls.append(len(ids))
        return real(partition, ids)
    monkeypatch.setattr(core, "align", counted)
    module = _module(seed=24)
    ep = local_endpoint(module)
    assert ep.request(_fit_env(module, module.partition.ids[:7],
                               np.zeros(7))).kind == "FIT_RESPONSE"
    assert calls == [7]


# ---------------------------------------------------------------------------
# id sets and envelope equality
# ---------------------------------------------------------------------------

_AB = transport.id_digest(["a", "b"])


def _kind_payloads(id_field):
    """One valid payload per kind; the id-bearing ones carry ``id_field``."""
    two = np.array([0.5, -1.25])
    return {
        "FIT_REQUEST": {**id_field, "values": two},
        "FIT_RESPONSE": {**id_field, "values": two},
        "PREDICT_REQUEST": {**id_field, "rounds": [1, 3]},
        "PREDICT_RESPONSE": {**id_field, "values": two},
        "PARTIAL_PREACT": {**id_field,
                           "matrix": np.arange(6.0).reshape(2, 3)},
        "WTILDE_TRANSFER": {**id_field, "matrix": np.ones((2, 3)),
                            "b_hidden": np.zeros(3), "w_out": np.full(3, 0.5),
                            "b_out": 0.25, "rate": 0.01, "batch": 2,
                            "epochs": 1},
        "LABELS_TRANSFER": {"ids": ["a", "b"], "values": two, "seed": 1,
                            "hidden": 3, "peer_cols": 2},
        "ERROR": {"error": "UnknownIdSet", "message": "gone"},
    }


def _wire(payload):
    """A payload as ``_frame_line`` takes it: frames as bytes, with cols."""
    out = {}
    for name, value in payload.items():
        if name in transport._FRAMES:
            value = np.asarray(value, dtype=np.float64)
            if value.ndim == 2:
                out["cols"] = value.shape[1]
            value = _f8(value.ravel())
        out[name] = value
    return out


def test_id_digest_is_sha256_of_the_id_frame():
    assert transport.id_digest(["a", "b"]) == hashlib.sha256(
        b"a\nb").hexdigest()
    ids = ["a", "b\u00e9", 'q"']
    assert transport.id_digest(tuple(ids)) == transport.id_digest(ids) \
        == hashlib.sha256("a\nb\u00e9\nq\"".encode("utf-8")).hexdigest()
    # injective: ids are non-empty and hold no newline
    assert transport.id_digest(["ab", "c"]) != transport.id_digest(["a", "bc"])
    assert transport.id_digest([]) != transport.id_digest(["a"])
    for bad in (["a\nb"], ["a", ""], ["\ud800"]):
        with pytest.raises(ValueError):
            transport.id_digest(bad)


@pytest.mark.parametrize("form", ["ids", "id_set"])
@pytest.mark.parametrize("kind", sorted(transport.KINDS))
def test_every_kind_round_trips_to_an_equal_envelope(kind, form):
    """Whole, and with the frames read from a stream, also when frame bytes
    hold a newline; a byte past the last frame is MalformedMessage."""
    id_field = {"ids": ["a", "b"]} if form == "ids" else {"id_set": _AB}
    payload = _kind_payloads(id_field)[kind]
    newline = np.frombuffer(b"\n" * 8, dtype="<f8")[0]  # finite, all 0x0A
    for name in transport._FRAMES & payload.keys():
        value = np.array(payload[name], dtype=np.float64)
        value.flat[0] = newline
        payload = {**payload, name: value}
    env = Envelope(kind=kind, task="t", round=2, sender="a", receiver="b",
                   payload=payload)
    message = encode(env)
    back = decode(message)
    assert back == env and not back != env
    assert back.is_reply == env.is_reply == (kind in (
        "FIT_RESPONSE", "PREDICT_RESPONSE", "PARTIAL_PREACT", "ERROR"))
    stream = io.BytesIO(message + message)  # two messages back to back
    for _ in range(2):
        assert decode(stream.readline(), stream) == env
    assert stream.read() == b""
    line, _, frames = message.partition(b"\n")
    if frames:
        with pytest.raises(err.MalformedMessage):
            decode(line, io.BytesIO(frames[:-1]))
    with pytest.raises(err.MalformedMessage):
        decode(message + b"\0")
    assert back != Envelope(kind=kind, task="t", round=3, sender="a",
                            receiver="b", payload=env.payload)
    assert env != encode(env)


def test_envelopes_compare_float_fields_by_value():
    def fit(values, **ids):
        return Envelope(kind="FIT_REQUEST", task="t", round=1, sender="a",
                        receiver="b", payload={**ids, "values": values})
    base = fit([1.0, 0.0], ids=["a", "b"])
    assert base == fit(np.array([1, -0.0]), ids=["a", "b"])
    assert base != fit([1.0, 0.5], ids=["a", "b"])
    assert base != fit([1.0, 0.0], ids=["b", "a"])
    assert base != fit([1.0, 0.0], id_set=_AB)
    partial = _kind_payloads({"id_set": _AB})["PARTIAL_PREACT"]
    flat = {**partial, "matrix": partial["matrix"].reshape(3, 2)}
    assert Envelope(kind="PARTIAL_PREACT", task="t", round=1, sender="a",
                    receiver="b", payload=partial) != Envelope(
        kind="PARTIAL_PREACT", task="t", round=1, sender="a", receiver="b",
        payload=flat)


@pytest.mark.parametrize("kind", ["FIT_REQUEST", "FIT_RESPONSE",
                                  "PREDICT_REQUEST", "PREDICT_RESPONSE",
                                  "PARTIAL_PREACT", "WTILDE_TRANSFER"])
@pytest.mark.parametrize("both", [True, False], ids=["both", "neither"])
def test_ids_and_id_set_exclude_each_other(kind, both):
    id_field = {"ids": ["a", "b"], "id_set": _AB} if both else {}
    payload = _kind_payloads(id_field)[kind]
    # a set-up task, so a WTILDE_TRANSFER that got through would train
    responder = ModuleResponder(_module())
    setup = {**_kind_payloads({})["LABELS_TRANSFER"], "ids": ["0000", "0001"]}
    assert responder.answer(Envelope(
        kind="LABELS_TRANSFER", task="t", round=0, sender="alice",
        receiver="m", payload=setup)).kind == "LABELS_TRANSFER"
    _schema_refuses(responder, kind, payload, "MalformedMessage", round_no=2)
    with pytest.raises(err.MalformedMessage):
        decode(_frame_line(kind, _wire(payload), round_no=2))
    assert list(responder._nn["t"].snapshots) == [0]
    assert not responder.module.model_store and not responder._id_sets


@pytest.mark.parametrize("digest", [
    _AB[:-1], _AB + "0", _AB.upper(), "g" * 64, " " + _AB[1:],
    _AB[:-1] + "\n", "", 7, None, ["a"]],
    ids=["short", "long", "upper", "non-hex", "space", "newline", "empty",
         "int", "null", "list"])
def test_malformed_digests_are_refused(digest):
    payload = {"id_set": digest, "rounds": [1]}
    with pytest.raises(err.MalformedMessage):
        Envelope(kind="PREDICT_REQUEST", task="t", round=0, sender="a",
                 receiver="b", payload=payload)
    with pytest.raises(err.MalformedMessage):
        decode(_frame_line("PREDICT_REQUEST", payload))


def test_labels_transfer_takes_no_id_set():
    payload = _kind_payloads({})["LABELS_TRANSFER"]
    no_ids = {k: v for k, v in payload.items() if k != "ids"}
    for given in ({**payload, "id_set": _AB}, {**no_ids, "id_set": _AB}):
        with pytest.raises(err.MalformedMessage):
            Envelope(kind="LABELS_TRANSFER", task="t", round=0, sender="a",
                     receiver="b", payload=given)


def test_id_set_frames_are_checked_against_the_resolved_ids():
    # with no id list on the line, the counts are checked once it resolves
    line = _frame_line("PARTIAL_PREACT", {"id_set": _AB,
                                          "matrix": _f8(np.ones(6)),
                                          "cols": 2})
    assert decode(line).payload["matrix"].shape == (3, 2)
    with pytest.raises(err.ShapeMismatch):
        decode(_frame_line("PARTIAL_PREACT", {
            "id_set": _AB, "matrix": _f8(np.ones(5)), "cols": 2}))
    module = _module()
    ep = local_endpoint(module)
    ids = list(module.partition.ids)
    assert ep.request(_fit_env(module, ids, np.ones(20))).kind \
        == "FIT_RESPONSE"
    short = ep.request(Envelope(
        kind="FIT_REQUEST", task="t", round=2, sender="alice", receiver="m",
        payload={"id_set": transport.id_digest(ids), "values": np.ones(19)}))
    assert short.payload["error"] == "ShapeMismatch"
    assert ("t", 2) not in module.model_store


def _id_endpoint(module, server):
    return server.endpoint() if server is not None else local_endpoint(module)


@pytest.mark.parametrize("over_tcp", [False, True], ids=["inproc", "tcp"])
def test_unknown_id_set_is_a_typed_error_and_fit_stores_nothing(over_tcp):
    module = _module(seed=3)
    ids = list(module.partition.ids)
    digest = transport.id_digest(ids)

    def request(kind, task, payload, round_no=1):
        return ep.request(Envelope(kind=kind, task=task, round=round_no,
                                   sender="alice", receiver="m",
                                   payload=payload))
    server = serve_module(module) if over_tcp else None
    try:
        ep = _id_endpoint(module, server)
        fit = {"id_set": digest, "values": np.ones(20)}
        reply = request("FIT_REQUEST", "t", fit)
        assert (reply.kind, reply.payload["error"]) == ("ERROR",
                                                        "UnknownIdSet")
        assert module.model_store == {}
        # the full list makes the digest known to this task only
        first = request("FIT_REQUEST", "t", {"ids": ids, "values": np.ones(20)})
        assert first.kind == "FIT_RESPONSE" and first.payload["ids"] == ids
        again = request("PREDICT_REQUEST", "t",
                        {"id_set": digest, "rounds": [1]}, round_no=0)
        assert again.kind == "PREDICT_RESPONSE"
        assert again.payload["id_set"] == digest and "ids" not in again.payload
        other = request("FIT_REQUEST", "u", fit)
        assert other.payload["error"] == "UnknownIdSet"
        assert list(module.model_store) == [("t", 1)]
    finally:
        if server is not None:
            ep.close()
            server.stop()


class _FormLog:
    """Endpoint wrapper that records each request's id form and reply."""

    def __init__(self, inner):
        self._inner = inner
        self.seen = []

    @property
    def module_id(self):
        return self._inner.module_id

    def request(self, env, timeout=30.0):
        reply = self._inner.request(env, timeout=timeout)
        self.seen.append(("ids" if "ids" in env.payload else "id_set",
                          reply.payload.get("error", reply.kind)))
        return reply


@pytest.mark.parametrize("over_tcp", [False, True], ids=["inproc", "tcp"])
def test_an_evicted_id_set_is_resent_once_with_the_same_bits(monkeypatch,
                                                             over_tcp):
    monkeypatch.setattr(transport, "ID_SET_CAP", 30)
    module = _module(n=40, seed=4)
    ids = module.partition.ids
    a, b, c = ids[:10], ids[10:20], ids[20:35]
    server = serve_module(module) if over_tcp else None
    try:
        ep = _FormLog(_id_endpoint(module, server))
        responder = server.responder if over_tcp \
            else ep._inner._responder
        peer = Peer(ep, "t", "alice", 5.0, {})

        def values(some):
            return peer.predict([1], some)
        peer.fit(1, a, np.arange(10.0))
        first_b = values(b)
        values(a)              # a is now the more recently used
        values(c)              # 35 ids: evicts b, the least recently used
        values(a)
        resent_b = values(b)   # dropped: sent once more in full
        assert ep.seen == [("ids", "FIT_RESPONSE"),
                           ("ids", "PREDICT_RESPONSE"),
                           ("id_set", "PREDICT_RESPONSE"),
                           ("ids", "PREDICT_RESPONSE"),
                           ("id_set", "PREDICT_RESPONSE"),
                           ("id_set", "UnknownIdSet"),
                           ("ids", "PREDICT_RESPONSE")]
        expected = predict(module.stored_model("t", 1),
                           module.partition.features[10:20])
        assert _bits(first_b) == _bits(resent_b) == _bits(expected)
        # b's return evicted c; the cache holds at most the cap
        assert [k[1] for k in responder._id_sets] == [
            transport.id_digest(a), transport.id_digest(b)]
        # the full resend means the peer holds b again
        values(b)
        values(a)
        values(c)              # b's return evicted c: resent; evicts b again
        values(b)              # b's second refusal: resent in full
        values(b)              # and from then on sent in full
        assert ep.seen[7:] == [("id_set", "PREDICT_RESPONSE"),
                               ("id_set", "PREDICT_RESPONSE"),
                               ("id_set", "UnknownIdSet"),
                               ("ids", "PREDICT_RESPONSE"),
                               ("id_set", "UnknownIdSet"),
                               ("ids", "PREDICT_RESPONSE"),
                               ("ids", "PREDICT_RESPONSE")]
        assert [k[1] for k in responder._id_sets] == [
            transport.id_digest(c), transport.id_digest(b)]
        # a list longer than the cap is kept alone
        values(ids)
        values(ids)
        assert ep.seen[-2:] == [("ids", "PREDICT_RESPONSE"),
                                ("id_set", "PREDICT_RESPONSE")]
        assert responder._id_set_size == 40 and len(responder._id_sets) == 1
    finally:
        if server is not None:
            ep._inner.close()
            server.stop()


def test_concurrent_tasks_keep_the_id_set_cache_consistent(monkeypatch):
    # more threads than cores, each its own task, over a cache small enough
    # to evict all the time; a lost update would break the size invariant
    monkeypatch.setattr(transport, "ID_SET_CAP", 50)
    module = _module(n=40, seed=6)
    responder = ModuleResponder(module)
    ep = InProcEndpoint(responder)
    ids = module.partition.ids
    failures = []

    def worker(w):
        try:
            task = f"task-{w}"
            peer = Peer(ep, task, "alice", 5.0, {})
            peer.fit(1, ids, np.random.default_rng(w).standard_normal(40))
            model = module.stored_model(task, 1)
            for step in range(30):
                lo = (w + 7 * step) % 20
                got = peer.predict([1], ids[lo:lo + 12 + step % 9])
                want = predict(model, module.partition.features[
                    lo:lo + 12 + step % 9])
                if _bits(got) != _bits(want):
                    failures.append((w, step))
        except Exception as exc:  # noqa: BLE001 - reported below
            failures.append((w, repr(exc)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(w,))
                   for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    held = [len(kept) for kept, _ in responder._id_sets.values()]
    assert responder._id_set_size == sum(held)
    assert sum(held) <= 50 or len(held) == 1


# ---------------------------------------------------------------------------
# tcp
# ---------------------------------------------------------------------------

def test_tcp_round_trip_matches_in_process():
    module_a = _module(seed=8, module_id="srv")
    module_b = _module(seed=8, module_id="srv")
    y = np.random.default_rng(9).standard_normal(20)
    direct = ModuleResponder(module_a).handle(
        _fit_env(module_a, module_a.partition.ids, y))
    with serve_module(module_b) as server, server.endpoint() as ep:
        over_wire = ep.request(_fit_env(module_b, module_b.partition.ids, y))
    assert encode(over_wire) == encode(direct)  # identical bytes


def test_tcp_many_requests_and_threads(connections):
    """Threads sharing one endpoint take turns on its one connection, and
    each gets the replies to its own requests."""
    module = _module(seed=10, n=30)
    ids = module.partition.ids
    failures = []
    with serve_module(module) as server:
        ep = server.endpoint()

        def light_up(w):
            task, mine = f"task-{w}", list(ids[w:w + 20])
            try:
                for round_no in range(1, 6):
                    reply = ep.request(_fit_env(module, mine, np.zeros(20),
                                                round_no=round_no, task=task))
                    if (reply.kind, reply.task, reply.round,
                            reply.payload["ids"]) != ("FIT_RESPONSE", task,
                                                      round_no, mine):
                        failures.append((w, round_no, reply.kind))
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append((w, repr(exc)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=light_up, args=(w,))
                       for w in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        ep.close()
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert len(module.model_store) == 30
    assert len(connections) == 1 and connections[0].fileno() == -1


def test_sequential_requests_reuse_one_connection(connections):
    module = _module(seed=19)
    ids = module.partition.ids
    with serve_module(module) as server:
        with server.endpoint() as ep:
            for round_no in range(1, 11):
                reply = ep.request(_fit_env(module, ids, np.zeros(20),
                                            round_no=round_no))
                assert (reply.kind, reply.round) == ("FIT_RESPONSE", round_no)
            assert len(connections) == 1
            ep.close()  # the next request opens a new connection
            assert connections[0].fileno() == -1
            assert ep.request(_fit_env(module, ids, np.zeros(20),
                                       round_no=11)).kind == "FIT_RESPONSE"
        assert len(connections) == 2 and connections[1].fileno() == -1


def test_a_timed_out_request_never_answers_the_next_one(monkeypatch,
                                                        connections):
    module = _module(seed=20)
    ids = list(module.partition.ids)
    with serve_module(module) as server:
        answer = server.responder.answer

        def slow_answer(request, stream=None):
            reply = answer(request, stream)
            if reply.task == "slow":
                time.sleep(0.5)
            return reply
        monkeypatch.setattr(server.responder, "answer", slow_answer)
        ep = server.endpoint()
        with pytest.raises(err.RequestTimeout):
            ep.request(_fit_env(module, ids[:5], np.zeros(5), task="slow"),
                       timeout=0.2)
        reply = ep.request(_fit_env(module, ids[5:12], np.ones(7),
                                    task="fast"), timeout=5.0)
        assert (reply.kind, reply.task) == ("FIT_RESPONSE", "fast")
        assert reply.payload["ids"] == ids[5:12]
        assert len(connections) == 2 and connections[0].fileno() == -1
        ep.close()


def test_a_connection_closed_by_the_idle_timeout_is_replaced(monkeypatch,
                                                            connections):
    monkeypatch.setattr(transport._LineHandler, "timeout", 0.2)
    module = _module(seed=21)
    ids = module.partition.ids
    with serve_module(module) as server:
        ep = server.endpoint()
        assert ep.request(_fit_env(module, ids, np.zeros(20))).kind \
            == "FIT_RESPONSE"
        time.sleep(0.5)  # the server closes the idle connection
        reply = ep.request(_fit_env(module, ids, np.ones(20), round_no=2))
        assert (reply.kind, reply.round) == ("FIT_RESPONSE", 2)
        assert len(connections) == 2
        ep.close()
    assert sorted(module.model_store) == [("t", 1), ("t", 2)]


@pytest.mark.parametrize("kind, fresh, breaks, sent", [
    ("FIT_REQUEST", False, 1, 1),      # never resent
    ("PREDICT_REQUEST", False, 1, 2),  # resent once, then answered
    ("PREDICT_REQUEST", False, 2, 2),  # resent only once
    ("PREDICT_REQUEST", True, 1, 1),   # a fresh connection is not resent
])
def test_only_a_repeatable_request_is_resent_after_a_break(
        monkeypatch, connections, kind, fresh, breaks, sent):
    """The server handles the request, then drops the connection without a
    reply ``breaks`` times."""
    module = _module(seed=22)
    ids = list(module.partition.ids)
    with serve_module(module) as server:
        answer, handled = server.responder.answer, []

        def breaking_answer(request, stream=None):
            reply = answer(request, stream)
            if reply.round > 1 or reply.kind == "PREDICT_RESPONSE":
                handled.append(reply.kind)
                if len(handled) <= breaks:
                    raise ConnectionResetError("dropped before the reply")
            return reply
        # a handler binds ``answer`` when its connection opens
        monkeypatch.setattr(server.responder, "answer", breaking_answer)
        ep = server.endpoint()
        assert ep.request(_fit_env(module, ids, np.zeros(20))).kind \
            == "FIT_RESPONSE"
        if fresh:
            ep.close()
        if kind == "FIT_REQUEST":
            env = _fit_env(module, ids, np.ones(20), round_no=2)
        else:
            env = Envelope(kind=kind, task="t", round=0, sender="alice",
                           receiver="m", payload={"ids": ids, "rounds": [1]})
        if breaks < sent:
            assert ep.request(env, timeout=5.0).kind == "PREDICT_RESPONSE"
        else:
            with pytest.raises(err.TransportError):
                ep.request(env, timeout=5.0)
        ep.close()
    assert len(handled) == sent
    assert "ERROR" not in handled  # a resent FIT would be a StorageConflict
    assert len(connections) == sent + fresh
    assert sorted(module.model_store) == [("t", 1)] \
        + [("t", 2)] * (kind == "FIT_REQUEST")


def test_tcp_bind_conflict_raises():
    module = _module(seed=11)
    with serve_module(module) as server:
        with pytest.raises(err.BindFailure):
            TcpModuleServer(ModuleResponder(module), host=server.host,
                            port=server.port)
    with pytest.raises(err.BindFailure):  # overflows before any bind
        TcpModuleServer(ModuleResponder(module), port=70000)


def test_leaving_the_with_block_stops_the_server():
    module = _module(seed=16)
    before = set(threading.enumerate())
    with serve_module(module) as server:
        ep = server.endpoint()
        assert ep.request(_fit_env(module, module.partition.ids,
                                   [0.5] * 20)).kind == "FIT_RESPONSE"
    deadline = time.monotonic() + 2.0
    while set(threading.enumerate()) - before \
            and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not set(threading.enumerate()) - before
    server.stop()  # a second stop returns
    with pytest.raises(err.ConnectionRefused):
        ep.request(Envelope(kind="ERROR", task="t", round=0, sender="a",
                            receiver="m", payload={"error": "x"}),
                   timeout=2.0)


def test_tcp_connection_refused_maps_to_error():
    from assistlearn.transport import TcpEndpoint
    ep = TcpEndpoint("127.0.0.1", 1, "ghost")  # port 1: nothing listens
    env = Envelope(kind="ERROR", task="t", round=0, sender="a",
                   receiver="ghost", payload={"error": "x"})
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
        with server.endpoint() as ep:
            good = ep.request(
                _fit_env(module, module.partition.ids, list(np.zeros(20))))
        assert good.kind == "FIT_RESPONSE"


def test_wrong_version_over_the_wire():
    module = _module(seed=14)
    ids = list(module.partition.ids)
    # a v2 FIT_REQUEST: its frame is base64 text inside the line
    v2 = (json.dumps({"v": 2, "kind": "FIT_REQUEST", "task": "t", "round": 1,
                      "from": "a", "to": "m",
                      "payload": {"ids": ids, "values": base64.b64encode(
                          _f8(np.zeros(20))).decode()}}) + "\n").encode()
    # a v3 FIT_REQUEST: its ids are a JSON list inside the line
    v3 = (json.dumps({"v": 3, "kind": "FIT_REQUEST", "task": "t", "round": 1,
                      "from": "a", "to": "m",
                      "payload": {"ids": ids, "values": 20}}) + "\n"
          ).encode() + _f8(np.zeros(20))
    with serve_module(module) as server:
        line = encode(Envelope(kind="ERROR", task="t", round=0, sender="a",
                               receiver="b", payload={"error": "x"}))
        with socket.create_connection((server.host, server.port),
                                      timeout=5.0) as conn:
            reader = conn.makefile("rb")
            for message in (line.replace(b'"v":4', b'"v":1'),
                            line.replace(b'"v":4', b'"v":5'), v2):
                conn.sendall(message)
                reply = decode(reader.readline(), reader)
                assert reply.kind == "ERROR"
                assert reply.payload["error"] == "UnsupportedVersion"
            conn.sendall(encode(_fit_env(module, ids, np.zeros(20))))
            assert decode(reader.readline(), reader).kind == "FIT_RESPONSE"
        # nothing after a refused header is read as its frames, so a v3
        # message, whose frames follow its line, goes on a connection of its own
        with socket.create_connection((server.host, server.port),
                                      timeout=5.0) as conn:
            conn.sendall(v3)
            reply = decode(conn.makefile("rb").readline())
            assert reply.payload["error"] == "UnsupportedVersion"
    with pytest.raises(err.UnsupportedVersion):
        decode(v3)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_literals_are_rejected_on_the_wire(literal):
    """Scalars stay JSON numbers; a non-finite one is refused like a
    non-finite float inside a frame."""
    module = _module(seed=15)
    ids = list(module.partition.ids)
    good = encode(_fit_env(module, ids, [0.25] * len(ids)))
    shared = _frame_line("WTILDE_TRANSFER", {
        "b_hidden": _f8([0.0]), "w_out": _f8([1.0]), "b_out": 0.25},
        round_no=2)
    bad = shared.replace(b"0.25", literal.encode(), 1)
    assert bad != shared and decode(shared).payload["b_out"] == 0.25
    with pytest.raises(err.NonFinitePayload):
        decode(bad)
    with serve_module(module) as server:
        with socket.create_connection((server.host, server.port),
                                      timeout=5.0) as conn:
            reader = conn.makefile("rb")
            conn.sendall(bad)
            reply = decode(reader.readline(), reader)
            assert reply.kind == "ERROR"
            assert reply.payload["error"] == "NonFinitePayload"
            conn.sendall(good)
            assert decode(reader.readline(), reader).kind == "FIT_RESPONSE"


def test_a_huge_declared_frame_costs_only_the_bytes_that_arrive(caplog):
    """A header may declare any float count or id frame size; the server
    reads what arrives, answers a message cut short with an ERROR, drops a
    reset connection without a traceback and keeps serving."""
    module = _module(seed=17)
    header = _frame_line("FIT_REQUEST", {"ids": ["0000"], "values": 2 ** 40})
    huge = _frame_line("PARTIAL_PREACT", {"id_set": "0" * 64,
                                          "matrix": 2 ** 40, "cols": 1})
    huge_ids = _frame_line("PREDICT_REQUEST", {"ids": 2, "id_bytes": 2 ** 40,
                                               "rounds": [1]})
    with caplog.at_level(logging.ERROR, logger="assistlearn"):
        with serve_module(module) as server:
            # the count disagrees with the ids: refused before any frame byte
            with socket.create_connection((server.host, server.port),
                                          timeout=5.0) as conn:
                conn.sendall(header)
                reply = decode(conn.makefile("rb").readline())
                assert reply.payload["error"] == "ShapeMismatch"
            for message, resets in itertools.product(
                    (huge, huge_ids + b"0000\n"), (False, True)):
                with socket.create_connection((server.host, server.port),
                                              timeout=5.0) as conn:
                    conn.sendall(message + b"\0" * 16)
                    if resets:  # close with a reset instead of a FIN
                        conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                        struct.pack("ii", 1, 0))
                        continue
                    conn.shutdown(socket.SHUT_WR)
                    reply = decode(conn.makefile("rb").readline())
                    assert reply.payload["error"] == "MalformedMessage"
            with server.endpoint() as ep:
                good = ep.request(
                    _fit_env(module, module.partition.ids, np.zeros(20)),
                    timeout=5.0)
            assert good.kind == "FIT_RESPONSE"
    assert not caplog.records  # stop() joined every handler first


def test_stop_closes_open_connections_and_joins_their_threads():
    module = _module(seed=18)
    ids = list(module.partition.ids)
    before = set(threading.enumerate())
    server = serve_module(module)
    with socket.create_connection((server.host, server.port),
                                  timeout=5.0) as conn:
        reader = conn.makefile("rb")
        conn.sendall(encode(_fit_env(module, ids, np.zeros(20))))
        assert decode(reader.readline(), reader).kind == "FIT_RESPONSE"
        started = time.monotonic()
        server.stop()
        assert not set(threading.enumerate()) - before
        conn.settimeout(2.0)
        try:
            conn.sendall(encode(_fit_env(module, ids, np.zeros(20),
                                         round_no=2)))
            reply = reader.readline()
        except (BrokenPipeError, ConnectionResetError):
            reply = b""
        assert reply == b""  # end of stream, not a reply
        assert time.monotonic() - started < 2.0
    assert list(module.model_store) == [("t", 1)]
