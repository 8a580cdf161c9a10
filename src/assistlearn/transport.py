"""Message envelopes and transports.

Wire format v4: a compact UTF-8 JSON header line, with exactly the fields
``v`` (4), ``kind``, ``task``, ``round``, ``from``, ``to`` and ``payload``,
then, in sorted field-name order with no separator, the raw little-endian
float64 bytes of each float vector or matrix (``values``, ``b_hidden``,
``w_out``, ``matrix``) and the id frame, the ``ids`` joined by newlines in
UTF-8. The header holds each float field's count, a matrix's column count
(``cols``), the id count (``ids``) and the id frame's size (``id_bytes``);
rounds and scalars stay plain JSON. Other versions are UnsupportedVersion.

Each kind has a request form, a reply form or both (``_SCHEMAS``); a form
names each field it carries, with its check, and a payload must be exactly
one form of its kind. Only PARTIAL_PREACT's reply and WTILDE_TRANSFER's
request admit a matrix, and FIT and PREDICT forms only flat vectors, which
enforces feature confinement structurally. Counts out of range and repeated
rounds are MalformedMessage, rows that do not fit the ids ShapeMismatch.
``Envelope.is_reply`` (never sent) names the form: a responder serves only
request forms, and a ``Peer`` takes only the reply form it expects.

An Envelope holds each float field as its own read-only float64 copy of the
caller's array (NaN and infinity refused), which is what ``decode`` rebuilds
from the frames, so the in-process transport is identical to TCP; its
``ids`` are a list that keeps the frame ``core.id_frame`` checked.
``decode`` checks that the header is one form whose frames fit its id count
before it touches a frame byte. Frame bytes short of the declared sizes or
left over after them, and an id frame that is not UTF-8 or does not split
into the declared ids, are MalformedMessage.

In every form that has ``ids`` but LABELS_TRANSFER's, ``id_set`` may stand
in for them: the ``id_digest`` of a list the same task already sent to this
peer, SHA-256 hex of its id frame, which is injective. A reply echoes the
id field its request used. With an ``id_set`` the frames are checked
against the ids once they resolve. A responder keeps each task's lists and
their read-only rows, least recently used first, up to ID_SET_CAP ids; a
digest it does not hold is UnknownIdSet, raised before any state changes.

A module serves peers through ``ModuleResponder.answer``, which turns any
failure into an ERROR reply; ``InProcEndpoint`` calls it directly and
``TcpModuleServer``, the standard library's threaded TCP server, calls it
once per message; a ``TcpEndpoint`` sends its requests one at a time over
one kept connection. Fit requests go to ``protocol.assist_fit(module,
task_id, round_no, ids, values, X)``, which returns the residual array. The
split network's requests go to the task's ``nn_protocol.PartnerTask``, which
holds Bob's state and rules; the responder keeps only its ids and lock.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import operator
import re
import socket
import socketserver
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from . import core, errors as err
from .core import LocalModule

log = logging.getLogger("assistlearn")

WIRE_VERSION = 4

# payload fields that travel as float64 frames
_FRAMES = frozenset({"values", "b_hidden", "w_out", "matrix"})

# frame bytes are read from a stream at most this many at a time
_CHUNK = 1 << 20

# total ids a responder's id-set cache holds; the newest set always stays
ID_SET_CAP = 1 << 12

# request kinds a responder may answer twice with the same effect
_RESENDABLE = frozenset({"PREDICT_REQUEST", "PARTIAL_PREACT"})


def id_digest(ids) -> str:
    """SHA-256 hex of the ids' frame, ``core.id_frame(ids)``."""
    return hashlib.sha256(core.id_frame(ids)).hexdigest()


class _Ids(list):
    """An Envelope's ids: a list that keeps its checked id frame."""


def _id_list(value) -> _Ids:
    """A list or tuple of ids as ``_Ids``, which a reply shares with its
    request; anything else, or ids ``core.id_frame`` refuses, is malformed."""
    if type(value) is _Ids:
        return value
    if not isinstance(value, (list, tuple)):
        raise err.MalformedMessage("ids must be a list or tuple")
    try:
        frame = core.id_frame(value)
    except ValueError as exc:
        raise err.MalformedMessage(f"ids: {exc}") from None
    ids = _Ids(value)
    ids.frame = frame
    return ids


def _plain(value, top=True):
    """A scalar or a flat list of them as JSON-able python; no NaN or Inf."""
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
    if top and isinstance(value, (list, tuple)):
        return [_plain(v, False) for v in value]
    raise err.MalformedMessage(f"unsupported payload value {type(value).__name__}")


def _frame(value) -> np.ndarray:
    """A read-only float64 copy of a numeric array; NaN and Inf refused."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        raise err.MalformedMessage("float field is not an array") from None
    if arr.dtype.kind not in "iuf" or arr.dtype.itemsize > 8:
        raise err.MalformedMessage(f"float field has dtype {arr.dtype}")
    arr = arr.astype(np.float64)
    if not np.isfinite(arr).all():
        raise err.NonFinitePayload("payload contains NaN or infinity")
    arr.flags.writeable = False
    return arr


def _is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_str(v):
    return isinstance(v, str)


def _is_array(ndim):
    return lambda v: isinstance(v, np.ndarray) and v.ndim == ndim


def _is_int_list(v):
    return isinstance(v, list) and all(_is_int(x) for x in v)


def _is_digest(v):
    return isinstance(v, str) and re.fullmatch("[0-9a-f]{64}", v) is not None


def _at_least(least):
    return lambda v: _is_int(v) and v >= least


_VECTOR, _MATRIX = _is_array(1), _is_array(2)
_IDS = {"ids": lambda v: isinstance(v, list)}  # checked in ``_id_list``
_RESIDUAL = {**_IDS, "values": _VECTOR}
_SHARED = {"b_hidden": _VECTOR, "w_out": _VECTOR, "b_out": _is_num}

# kind -> (request form, reply form), None where the kind has no such form;
# a form names every field a message of it carries, with the field's check
_SCHEMAS: dict[str, tuple[dict | None, dict | None]] = {
    "FIT_REQUEST": (_RESIDUAL, None),
    "FIT_RESPONSE": (None, _RESIDUAL),
    "PREDICT_REQUEST": ({**_IDS, "rounds": lambda v: _is_int_list(v)
                         and len(set(v)) == len(v)}, None),
    "PREDICT_RESPONSE": (None, _RESIDUAL),
    "PARTIAL_PREACT": (_IDS, {**_IDS, "matrix": _MATRIX}),
    "WTILDE_TRANSFER": (
        {**_IDS, "matrix": _MATRIX, **_SHARED,
         "rate": lambda v: _is_num(v) and v > 0,
         "batch": _at_least(1), "epochs": _at_least(1)},
        _SHARED,
    ),
    "LABELS_TRANSFER": (
        {**_IDS, "values": _VECTOR, "seed": _at_least(0),
         "hidden": _at_least(1), "peer_cols": _at_least(0)},
        {"own_cols": _at_least(0)},
    ),
    "ERROR": (None, {"error": _is_str, "message": _is_str}),
}
KINDS = frozenset(_SCHEMAS)


def _form(kind: str, names) -> tuple[dict, bool]:
    """The checks of ``kind``'s form with exactly the fields ``names``, where
    ``id_set`` stands in for ``ids`` but in the LABELS_TRANSFER set-up and an
    ERROR may leave out its ``message``, and whether it is the reply form."""
    names = set(names)
    if "id_set" in names and "ids" not in names and kind != "LABELS_TRANSFER":
        names ^= {"id_set", "ids"}
    if kind == "ERROR":
        names.add("message")
    for side, checks in enumerate(_SCHEMAS.get(kind, ())):
        if checks is not None and checks.keys() == names:
            return checks, side == 1
    raise err.MalformedMessage(f"{kind}: no form has these fields")


def validate_payload(kind: str, payload: dict) -> bool:
    """Check a payload as an Envelope holds it (float fields as float64
    arrays, ids as lists ``_id_list`` checked) against the forms of ``kind``;
    True if it is the reply form. Lengths that disagree are ShapeMismatch."""
    checks, is_reply = _form(kind, payload.keys())
    for name, value in payload.items():  # a name the form lacks is id_set
        if not checks.get(name, _is_digest)(value):
            raise err.MalformedMessage(f"{kind}: bad field {name!r}")
    rows = payload.get("values", payload.get("matrix"))
    if "ids" in payload and rows is not None \
            and len(rows) != len(payload["ids"]):
        raise err.ShapeMismatch(
            f"{kind}: {len(payload['ids'])} ids but {len(rows)} rows")
    if "w_out" in payload \
            and len(payload["w_out"]) != len(payload["b_hidden"]):
        raise err.ShapeMismatch(f"{kind}: b_hidden and w_out differ in length")
    return is_reply


_HEADER = operator.attrgetter("v", "kind", "task", "round", "sender",
                              "receiver")


@dataclass(frozen=True, eq=False)
class Envelope:
    """One protocol message. Payload is normalized and schema-checked;
    ``is_reply`` says whether it is its kind's reply form, and is never
    sent."""

    kind: str
    task: str
    round: int
    sender: str
    receiver: str
    payload: dict = field(default_factory=dict)
    v: int = WIRE_VERSION
    is_reply: bool = field(init=False, repr=False)

    def __post_init__(self):
        if self.v != WIRE_VERSION:
            raise err.UnsupportedVersion(f"version {self.v} not supported")
        if self.kind not in KINDS:
            raise err.MalformedMessage(f"unknown kind {self.kind!r}")
        if not isinstance(self.round, int) or isinstance(self.round, bool) \
                or self.round < 0:
            raise err.MalformedMessage("round must be a non-negative int")
        for name in ("task", "sender", "receiver"):
            if not isinstance(getattr(self, name), str):
                raise err.MalformedMessage(f"{name} must be a string")
        if not isinstance(self.payload, dict):
            raise err.MalformedMessage("payload must be an object")
        payload = {str(k): _frame(v) if k in _FRAMES else _id_list(v)
                   if k == "ids" else _plain(v)
                   for k, v in self.payload.items()}
        object.__setattr__(self, "is_reply",
                           validate_payload(self.kind, payload))
        object.__setattr__(self, "payload", payload)

    def __eq__(self, other):
        """Equal headers and payloads; float fields compare by value."""
        if not isinstance(other, Envelope):
            return NotImplemented
        mine, theirs = self.payload, other.payload
        return _HEADER(self) == _HEADER(other) \
            and mine.keys() == theirs.keys() \
            and all(np.array_equal(mine[k], theirs[k]) if k in _FRAMES
                    else mine[k] == theirs[k] for k in mine)


def encode(envelope: Envelope) -> bytes:
    """Serialize to the JSON header line followed by the frames."""
    payload, frames = {}, {}
    for name, value in envelope.payload.items():
        if name == "ids":
            frames[name], payload["id_bytes"] = value.frame, len(value.frame)
            value = len(value)
        elif isinstance(value, np.ndarray):
            if value.ndim == 2:
                payload["cols"] = value.shape[1]
            frames[name] = np.ascontiguousarray(value, dtype="<f8")
            value = value.size
        payload[name] = value
    body = {"v": envelope.v, "kind": envelope.kind, "task": envelope.task,
            "round": envelope.round, "from": envelope.sender,
            "to": envelope.receiver, "payload": payload}
    text = json.dumps(body, separators=(",", ":"), allow_nan=False)
    return b"".join([text.encode("utf-8"), b"\n",
                     *(frames[name] for name in sorted(frames))])


def _frame_shapes(kind: str, payload: dict) -> dict:
    """(byte size, float64 shape) of each frame the header declares, in
    frame order (the id frame's shape is None). The header less ``id_bytes``
    and ``cols`` must be one form, whose counts fit the ids it carries."""
    id_bytes = payload.pop("id_bytes", None) if "ids" in payload else None
    cols = payload.pop("cols", None) if "matrix" in payload else None
    _form(kind, payload.keys())
    rows = payload.get("ids")
    shapes = {}
    for name in sorted((_FRAMES | {"ids"}) & payload.keys()):
        count = payload[name]
        size = id_bytes if name == "ids" else 0
        if not _is_int(count) or count < 0 or not _is_int(size) or size < 0:
            raise err.MalformedMessage(f"{name}: not a count, or no id_bytes")
        shapes[name] = (size, None) if name == "ids" else (8 * count, (count,))
        if name == "matrix":
            if not _is_int(cols) or cols < 1:
                raise err.MalformedMessage("matrix needs cols >= 1")
            if count % cols or rows not in (None, count // cols):
                raise err.ShapeMismatch(f"{count} floats, {rows} x {cols}")
            shapes[name] = (8 * count, (count // cols, cols))
        elif name == "values" and rows not in (None, count):
            raise err.ShapeMismatch(f"{rows} ids but {count} values")
    return shapes


def _read(stream, size: int) -> bytes:
    """``size`` bytes from a binary stream, read in bounded chunks so memory
    grows only with the bytes that arrive."""
    chunks = []
    while size:
        chunk = stream.read(min(size, _CHUNK))
        if not chunk:
            raise err.MalformedMessage(f"stream ended {size} bytes short")
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def decode(data, stream=None) -> Envelope:
    """Parse one message back into an Envelope.

    ``data`` is a whole message, or only its header line when the frames
    are to be read from the binary ``stream``. Raises MalformedMessage for
    anything that is not a well-formed message of the expected shape,
    UnsupportedVersion for a foreign ``v``, ShapeMismatch for frame counts
    that do not fit the ids and NonFinitePayload for NaN or infinity.
    """
    end = data.find(b"\n") + 1 or len(data)
    try:
        body = json.loads(data[:end].decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise err.MalformedMessage(f"not UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise err.MalformedMessage(f"bad JSON: {exc}") from None
    if not isinstance(body, dict):
        raise err.MalformedMessage("envelope must be a JSON object")
    missing = {"v", "kind", "task", "round", "from", "to", "payload"} - set(body)
    if missing:
        raise err.MalformedMessage(f"missing fields {sorted(missing)}")
    version = body["v"]
    if not isinstance(version, int) or isinstance(version, bool):
        raise err.MalformedMessage("v must be an int")
    if version != WIRE_VERSION:
        raise err.UnsupportedVersion(f"version {version} not supported")
    kind, payload = body["kind"], body["payload"]
    if not isinstance(kind, str) or kind not in KINDS:
        raise err.MalformedMessage(f"unknown kind {kind!r}")
    if not isinstance(payload, dict):
        raise err.MalformedMessage("payload must be an object")
    shapes = _frame_shapes(kind, payload)
    size = sum(nbytes for nbytes, _ in shapes.values())
    raw = memoryview(data)[end:] if stream is None else _read(stream, size)
    if len(raw) != size:
        raise err.MalformedMessage(f"{len(raw)} frame bytes, {size} declared")
    offset = 0
    for name, (nbytes, shape) in shapes.items():
        frame, offset = raw[offset:offset + nbytes], offset + nbytes
        if shape is not None:
            payload[name] = np.frombuffer(frame, "<f8").reshape(shape)
            continue
        # the frame splits into ids with no newline, and strict UTF-8 gives
        # back these very bytes, so only the count and empty ids are left
        try:
            ids = _Ids(str(frame, "utf-8").split("\n") if nbytes else [])
        except UnicodeDecodeError as exc:
            raise err.MalformedMessage(f"id frame not UTF-8: {exc}") from None
        if len(ids) != payload[name] or not all(ids):
            raise err.MalformedMessage("id frame: wrong count or an empty id")
        ids.frame = bytes(frame)
        payload[name] = ids
    return Envelope(kind=kind, task=body["task"], round=body["round"],
                    sender=body["from"], receiver=body["to"],
                    payload=payload, v=version)


# ---------------------------------------------------------------------------
# module-side service
# ---------------------------------------------------------------------------

class ModuleResponder:
    """Serves a LocalModule's share of the protocol.

    Handles fit/predict for the residual chain and, through a PartnerTask
    per task, Bob's split-network rounds. Requests for the same task are
    serialized with a per-task lock; distinct tasks may be served at once.
    """

    def __init__(self, module: LocalModule):
        self.module = module
        self._locks: dict[str, threading.Lock] = {}
        self._guard = threading.Lock()
        self._nn: dict = {}  # task -> nn_protocol.PartnerTask
        # (task, digest) -> (ids, read-only rows), least recently used first
        self._id_sets: OrderedDict = OrderedDict()
        self._id_set_size = 0

    @property
    def module_id(self) -> str:
        return self.module.module_id

    def answer(self, request, stream=None) -> Envelope:
        """Reply to ``request``: an Envelope, one encoded message, or a
        header line whose frames ``decode`` reads from ``stream``.

        Any failure, including a line that does not decode, becomes an ERROR
        reply naming the exception type; one that is not an AssistError is
        also logged. A peer's request never raises out of here, but an
        OSError of ``stream`` does: the connection is lost mid-message.
        """
        env = request if isinstance(request, Envelope) else None
        try:
            if env is None:
                env = decode(request, stream)
            return self.handle(env)
        except OSError:
            raise
        except Exception as exc:  # noqa: BLE001 - a peer never takes us down
            if not isinstance(exc, err.AssistError):
                log.exception("unexpected responder failure")
            payload = {"error": type(exc).__name__, "message": str(exc)}
            if env is None:
                return Envelope(kind="ERROR", task="", round=0,
                                sender=self.module_id, receiver="",
                                payload=payload)
            return self._reply(env, "ERROR", payload)

    def handle(self, env: Envelope) -> Envelope:
        """Serve a request form; a reply form is MalformedMessage."""
        if env.is_reply:
            raise err.MalformedMessage(
                f"{env.kind} reply form sent as a request")
        with self._lock_for(env.task):
            return self._SERVE[env.kind](self, env)

    def _lock_for(self, task: str) -> threading.Lock:
        with self._guard:
            return self._locks.setdefault(task, threading.Lock())

    def _reply(self, env: Envelope, kind: str, payload: dict) -> Envelope:
        return Envelope(kind=kind, task=env.task, round=env.round,
                        sender=self.module_id, receiver=env.sender,
                        payload=payload)

    def _id_rows(self, env: Envelope) -> tuple[list, np.ndarray, dict]:
        """The request's ids, the module's read-only rows for them and the
        id field its reply echoes. A full ``ids`` list is cached with its
        rows under (task, its digest), evicting least recently used sets
        past ID_SET_CAP ids; an ``id_set`` must name a cached list
        (UnknownIdSet). An absent row is MissingTestRows."""
        p = env.payload
        echo = {"ids": p["ids"]} if "ids" in p else {"id_set": p["id_set"]}
        key = (env.task, echo.get("id_set")
               or hashlib.sha256(p["ids"].frame).hexdigest())
        with self._guard:
            if key in self._id_sets:
                self._id_sets.move_to_end(key)
                return (*self._id_sets[key], echo)
        if "ids" not in p:
            raise err.UnknownIdSet(
                f"task {env.task!r} has no id set {key[1]}")
        try:
            rows = core.align(self.module.partition, p["ids"])
        except err.MissingId as exc:
            raise err.MissingTestRows(str(exc)) from None
        rows.flags.writeable = False
        with self._guard:
            self._id_sets[key] = (p["ids"], rows)
            self._id_set_size += len(p["ids"])
            while self._id_set_size > ID_SET_CAP and len(self._id_sets) > 1:
                old, _ = self._id_sets.popitem(last=False)[1]
                self._id_set_size -= len(old)
        return p["ids"], rows, echo

    def _fit(self, env: Envelope) -> Envelope:
        from .protocol import assist_fit
        if env.round < 1:
            raise err.MalformedMessage("fit round must be >= 1")
        ids, X, echo = self._id_rows(env)
        residual = assist_fit(self.module, env.task, env.round, ids,
                              env.payload["values"], X)
        return self._reply(env, "FIT_RESPONSE", {**echo, "values": residual})

    def _predict(self, env: Envelope) -> Envelope:
        from .learners import predict
        ids, X, echo = self._id_rows(env)
        total = np.zeros(len(ids))
        for r in env.payload["rounds"]:
            model = self.module.stored_model(env.task, r)
            total += predict(model, X)
        return self._reply(env, "PREDICT_RESPONSE", {**echo, "values": total})

    # -- split-network partner duties ------------------------------------

    def _labels(self, env: Envelope) -> Envelope:
        from .nn_protocol import PartnerTask
        own_cols = self.module.partition.n_cols
        PartnerTask.open(self._nn, env, own_cols)
        return self._reply(env, "LABELS_TRANSFER", {"own_cols": own_cols})

    def _partner(self, task: str):
        try:
            return self._nn[task]
        except KeyError:
            raise err.UnknownRound(f"no network state for task {task!r}") from None

    def _partial(self, env: Envelope) -> Envelope:
        bob = self._partner(env.task)
        _, X, echo = self._id_rows(env)
        return self._reply(env, "PARTIAL_PREACT",
                           {**echo, "matrix": X @ bob.weights_at(env.round)})

    def _wtilde(self, env: Envelope) -> Envelope:
        bob = self._partner(env.task)
        bob.block_for(env.round)  # checked before any id is cached
        ids, X, _ = self._id_rows(env)
        return self._reply(env, "WTILDE_TRANSFER",
                           bob.update(env.round, ids, X, env.payload))

    _SERVE = {"FIT_REQUEST": _fit, "PREDICT_REQUEST": _predict,
              "LABELS_TRANSFER": _labels, "PARTIAL_PREACT": _partial,
              "WTILDE_TRANSFER": _wtilde}


# ---------------------------------------------------------------------------
# endpoints
# ---------------------------------------------------------------------------

class InProcEndpoint:
    """Same-process endpoint: envelopes are dispatched without a byte hop.

    Envelope construction already holds float fields as the float64 arrays
    that ``decode`` rebuilds from their frames, so results are bit-identical
    to TCP (the acceptance suite checks exactly that).
    """

    def __init__(self, responder: ModuleResponder):
        self._responder = responder

    @property
    def module_id(self) -> str:
        return self._responder.module_id

    def request(self, envelope: Envelope, timeout: float = 30.0) -> Envelope:
        return self._responder.answer(envelope)


def local_endpoint(module: LocalModule) -> InProcEndpoint:
    return InProcEndpoint(ModuleResponder(module))


def _peer_closed(conn) -> bool:
    """Whether an idle connection was closed or reset, or holds stray bytes."""
    conn.setblocking(False)
    try:
        conn.recv(1, socket.MSG_PEEK)
    except BlockingIOError:
        return False
    except OSError:
        pass
    return True


class TcpEndpoint:
    """Client side of the TCP transport: one kept connection, which requests
    use one at a time, in order. It is replaced once the peer has closed it
    and closed on any failure, so a late reply never answers a later
    request. Only a PREDICT_REQUEST or PARTIAL_PREACT is resent: once, on a
    fresh connection, when a reused one broke before any reply byte."""

    def __init__(self, host: str, port: int, module_id: str):
        self.host = host
        self.port = port
        self.module_id = module_id
        self._lock = threading.RLock()
        self._conn = self._rfile = None

    def request(self, envelope: Envelope, timeout: float = 30.0) -> Envelope:
        data = encode(envelope)
        with self._lock:
            reused = self._conn is not None and not _peer_closed(self._conn)
            if not reused:
                self.close()
            reply = self._exchange(data, timeout)
            if reply is None and reused and envelope.kind in _RESENDABLE:
                reply = self._exchange(data, timeout)
            if reply is None:
                raise err.TransportError("connection closed without a reply")
            return reply

    def _exchange(self, data: bytes, timeout: float) -> Envelope | None:
        """Send on the kept connection, opened if need be, and read the reply;
        None if it broke before a reply byte. Closed unless a reply is read."""
        reply = None
        try:
            if self._conn is None:
                self._conn = socket.create_connection((self.host, self.port),
                                                      timeout=timeout)
                self._rfile = self._conn.makefile("rb")
            self._conn.settimeout(timeout)
            try:
                self._conn.sendall(data)
                answered = self._rfile.peek(1)
            except ConnectionError:  # reset or broken pipe
                answered = b""
            if answered:
                reply = decode(self._rfile.readline(), self._rfile)
            return reply
        except ConnectionRefusedError as exc:
            raise err.ConnectionRefused(str(exc)) from None
        except socket.timeout as exc:
            raise err.RequestTimeout(str(exc)) from None
        except OSError as exc:
            raise err.TransportError(str(exc)) from None
        finally:
            if reply is None:
                self.close()

    def close(self) -> None:
        """Close the kept connection; a later request opens a new one."""
        with self._lock:
            if self._conn is not None:
                self._rfile.close()
                self._conn.close()
                self._conn = self._rfile = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


# ---------------------------------------------------------------------------
# TCP server
# ---------------------------------------------------------------------------

class _LineHandler(socketserver.StreamRequestHandler):
    """Answers each message of one connection until the peer closes it, goes
    quiet for ``timeout`` seconds or the connection fails."""

    timeout = 60.0

    def handle(self) -> None:
        answer = self.server.responder.answer
        try:
            for line in self.rfile:
                self.wfile.write(encode(answer(line, self.rfile)))
        except OSError:
            pass


class TcpModuleServer(socketserver.ThreadingTCPServer):
    """Threaded TCP server wrapping a ModuleResponder.

    The stdlib threaded server: ``serve_forever`` runs on a daemon thread
    started here, and each connection gets a daemon handler thread that
    answers any number of messages. A line that cannot be decoded or served
    yields an ERROR reply and the server keeps going - garbage never takes
    the process down. ``stop()``, or leaving a ``with`` block, stops
    accepting, closes the listening socket, shuts down every open
    connection and joins its handler thread; calling it again is harmless.
    """

    allow_reuse_address = True
    request_queue_size = 16

    def __init__(self, responder: ModuleResponder, host: str = "127.0.0.1",
                 port: int = 0):
        self.responder = responder
        self._open: dict[socket.socket, threading.Thread] = {}
        self._open_guard = threading.Lock()
        try:
            super().__init__((host, port), _LineHandler)
        except (OSError, OverflowError) as exc:  # a port past 65535 overflows
            raise err.BindFailure(f"cannot bind {host}:{port}: {exc}") from None
        self.host, self.port = self.server_address[:2]
        self._thread = threading.Thread(target=self.serve_forever,
                                        args=(0.2,), daemon=True)
        self._thread.start()

    @property
    def module_id(self) -> str:
        return self.responder.module_id

    def endpoint(self) -> TcpEndpoint:
        return TcpEndpoint(self.host, self.port, self.module_id)

    def process_request(self, request, client_address):
        # the stdlib tracks only non-daemon threads; stop() joins these
        thread = threading.Thread(target=self.process_request_thread,
                                  args=(request, client_address), daemon=True)
        with self._open_guard:
            self._open[request] = thread
        thread.start()

    def shutdown_request(self, request):
        with self._open_guard:
            self._open.pop(request, None)
        super().shutdown_request(request)

    def stop(self) -> None:
        self.shutdown()
        self.server_close()
        with self._open_guard:
            threads = list(self._open.values())
            for conn in self._open:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        for thread in threads:
            thread.join()

    def __exit__(self, *exc_info):
        self.stop()


def serve_module(module: LocalModule, host: str = "127.0.0.1",
                 port: int = 0) -> TcpModuleServer:
    """Bind and start serving a module; returns the running server."""
    return TcpModuleServer(ModuleResponder(module), host=host, port=port)
