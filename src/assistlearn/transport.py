"""Message envelopes and transports.

Wire format: one UTF-8 JSON object per line, newline-terminated. Envelope
fields are exactly ``v`` (version, currently 1), ``kind``, ``task``,
``round``, ``from``, ``to``, ``payload``. NaN and infinity are banned from
payloads; floats serialize as their shortest round-trip representation, so a
decode(encode(x)) trip is bit-exact and the in-process transport (which skips
the byte hop entirely) is semantically identical to TCP.

Payloads are schema-checked per kind at envelope construction. The FIT and
PREDICT kinds only admit flat lists of scalars - a matrix-shaped field cannot
even be built, which is how feature confinement is enforced structurally.

Normalising and checking a payload array is one vectorised pass: a numeric
ndarray is checked with a single ``np.isfinite`` and converted with
``tolist()``, and a list whose elements are all exactly ``str``, all ``int``
or all ``float`` is checked through the set of its element types (plus one
``math.isfinite`` sweep for floats). Anything else - bools, numpy scalars or
subclasses inside a list, nested lists, object arrays - takes the
per-element path, which makes the same decisions. ``decode`` rejects the
non-finite literals ``NaN``, ``Infinity`` and ``-Infinity`` while parsing,
anywhere in the line, with NonFinitePayload; an overflowing literal such as
``1e400`` still parses to infinity and is rejected by the envelope check.

A module serves peers through ``ModuleResponder.answer``, which turns any
failure into an ERROR reply; ``InProcEndpoint`` calls it directly and
``TcpModuleServer``, the standard library's threaded TCP server, calls it
once per line. Fit requests go to ``protocol.assist_fit(module, task_id,
round_no, ids, values)``, which returns the residual array.
"""

from __future__ import annotations

import json
import logging
import math
import socket
import socketserver
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import errors as err
from .core import LocalModule, TaskLabels, align

log = logging.getLogger("assistlearn")

WIRE_VERSION = 1

KINDS = frozenset({
    "FIT_REQUEST", "FIT_RESPONSE",
    "PREDICT_REQUEST", "PREDICT_RESPONSE",
    "PARTIAL_PREACT", "WTILDE_TRANSFER", "LABELS_TRANSFER",
    "REFUSE", "ERROR",
})


def _plain(value):
    """Convert numpy containers to JSON-able python; ban non-finite floats."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "iu":
            return value.tolist()
        # longdouble is left to the per-element path, which rejects it
        if value.dtype.kind == "f" and value.dtype.itemsize <= 8:
            if not np.isfinite(value).all():
                raise err.NonFinitePayload("payload contains NaN or infinity")
            return value.tolist()
        value = value.tolist()
    if type(value) is list:
        # a mixed int/float list takes the per-element path: math.isfinite
        # overflows on an int beyond the float range, which is a valid value
        types = set(map(type, value))
        if types <= {int} or types == {float} or types == {str}:
            if float in types and not all(map(math.isfinite, value)):
                raise err.NonFinitePayload("payload contains NaN or infinity")
            return list(value)
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float):
        if not math.isfinite(value):
            raise err.NonFinitePayload("payload contains NaN or infinity")
        return value
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    raise err.MalformedMessage(f"unsupported payload value {type(value).__name__}")


def _is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _is_str(v):
    return isinstance(v, str)


# The list checks first test the set of exact element types, which settles
# the id and number vectors that _plain and json.loads build; a list holding
# subclasses (bool, IntEnum, numpy scalars, str subclasses) or nested lists
# falls back to the per-element test.

def _is_id_list(v):
    if not isinstance(v, list):
        return False
    if set(map(type, v)) <= {str}:
        return all(v)
    return all(isinstance(s, str) and s for s in v)


def _is_num_list(v):
    if not isinstance(v, list):
        return False
    return set(map(type, v)) <= {int, float} or all(_is_num(x) for x in v)


def _is_int_list(v):
    if not isinstance(v, list):
        return False
    return set(map(type, v)) <= {int} or all(_is_int(x) for x in v)


def _is_matrix(v):
    if not isinstance(v, list) or not v:
        return isinstance(v, list)
    if not all(isinstance(row, list) for row in v):
        return False
    width = len(v[0])
    return all(len(row) == width and _is_num_list(row) for row in v)


# kind -> (required fields, optional fields)
_SCHEMAS: dict[str, tuple[dict, dict]] = {
    "FIT_REQUEST": ({"ids": _is_id_list, "values": _is_num_list}, {}),
    "FIT_RESPONSE": ({"ids": _is_id_list, "values": _is_num_list}, {}),
    "PREDICT_REQUEST": ({"ids": _is_id_list, "rounds": _is_int_list}, {}),
    "PREDICT_RESPONSE": ({"ids": _is_id_list, "values": _is_num_list}, {}),
    "PARTIAL_PREACT": ({"ids": _is_id_list}, {"matrix": _is_matrix}),
    "WTILDE_TRANSFER": (
        {"b_hidden": _is_num_list, "w_out": _is_num_list, "b_out": _is_num},
        {"ids": _is_id_list, "matrix": _is_matrix,
         "rate": _is_num, "batch": _is_int, "epochs": _is_int},
    ),
    "LABELS_TRANSFER": (
        {},
        {"ids": _is_id_list, "values": _is_num_list, "seed": _is_int,
         "hidden": _is_int, "peer_cols": _is_int, "own_cols": _is_int},
    ),
    "REFUSE": ({}, {"reason": _is_str}),
    "ERROR": ({"error": _is_str}, {"message": _is_str}),
}


def validate_payload(kind: str, payload: dict) -> None:
    """Schema-check a plain payload dict for the given kind."""
    if kind not in _SCHEMAS:
        raise err.MalformedMessage(f"unknown kind {kind!r}")
    required, optional = _SCHEMAS[kind]
    for name in payload:
        if name not in required and name not in optional:
            raise err.MalformedMessage(f"{kind}: unexpected field {name!r}")
    for name, check in required.items():
        if name not in payload:
            raise err.MalformedMessage(f"{kind}: missing field {name!r}")
        if not check(payload[name]):
            raise err.MalformedMessage(f"{kind}: bad field {name!r}")
    for name, check in optional.items():
        if name in payload and not check(payload[name]):
            raise err.MalformedMessage(f"{kind}: bad field {name!r}")


@dataclass(frozen=True)
class Envelope:
    """One protocol message. Payload is normalized and schema-checked."""

    kind: str
    task: str
    round: int
    sender: str
    receiver: str
    payload: dict = field(default_factory=dict)
    v: int = WIRE_VERSION

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
        payload = _plain(self.payload)
        if not isinstance(payload, dict):
            raise err.MalformedMessage("payload must be an object")
        validate_payload(self.kind, payload)
        object.__setattr__(self, "payload", payload)


def encode(envelope: Envelope) -> bytes:
    """Serialize to one newline-terminated UTF-8 JSON line."""
    body = {
        "v": envelope.v,
        "kind": envelope.kind,
        "task": envelope.task,
        "round": envelope.round,
        "from": envelope.sender,
        "to": envelope.receiver,
        "payload": envelope.payload,
    }
    try:
        text = json.dumps(body, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise err.NonFinitePayload(str(exc)) from None
    return text.encode("utf-8") + b"\n"


def _reject_constant(name: str):
    raise err.NonFinitePayload(f"non-finite literal {name} in message")


def decode(data) -> Envelope:
    """Parse one line back into an Envelope.

    Raises MalformedMessage for anything that is not a single well-formed
    line of the expected shape, UnsupportedVersion for a foreign ``v`` and
    NonFinitePayload for a ``NaN``/``Infinity``/``-Infinity`` literal.
    """
    if isinstance(data, (bytes, bytearray)):
        try:
            text = bytes(data).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise err.MalformedMessage(f"not UTF-8: {exc}") from None
    else:
        text = str(data)
    text = text.rstrip("\r\n")
    if "\n" in text:
        raise err.MalformedMessage("expected exactly one line")
    try:
        body = json.loads(text, parse_constant=_reject_constant)
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
    kind = body["kind"]
    if not isinstance(kind, str) or kind not in KINDS:
        raise err.MalformedMessage(f"unknown kind {kind!r}")
    if not isinstance(body["payload"], dict):
        raise err.MalformedMessage("payload must be an object")
    return Envelope(kind=kind, task=body["task"], round=body["round"],
                    sender=body["from"], receiver=body["to"],
                    payload=body["payload"], v=version)


# ---------------------------------------------------------------------------
# module-side service
# ---------------------------------------------------------------------------

class ModuleResponder:
    """Serves a LocalModule's share of the protocol.

    Handles fit/predict for the residual chain and the partner half of the
    split-network rounds. Requests for the same task are serialized with a
    per-task lock; distinct tasks may be served concurrently. ``policy`` (if
    given) is consulted per fit request and a False verdict turns into a
    REFUSE reply.
    """

    def __init__(self, module: LocalModule,
                 policy: Optional[Callable[[Envelope], bool]] = None):
        self.module = module
        self.policy = policy
        self._locks: dict[str, threading.Lock] = {}
        self._guard = threading.Lock()
        self._nn: dict[str, "_NnTaskService"] = {}

    @property
    def module_id(self) -> str:
        return self.module.module_id

    def answer(self, request) -> Envelope:
        """Reply to ``request``, an Envelope or one encoded line.

        Any failure, including a line that does not decode, becomes an ERROR
        reply naming the exception type; one that is not an AssistError is
        also logged. A peer's request never raises out of here.
        """
        env = request if isinstance(request, Envelope) else None
        try:
            if env is None:
                env = decode(request)
            return self.handle(env)
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
        with self._lock_for(env.task):
            if env.kind == "FIT_REQUEST":
                return self._fit(env)
            if env.kind == "PREDICT_REQUEST":
                return self._predict(env)
            if env.kind == "LABELS_TRANSFER":
                return self._labels(env)
            if env.kind == "PARTIAL_PREACT":
                return self._partial(env)
            if env.kind == "WTILDE_TRANSFER":
                return self._wtilde(env)
            raise err.MalformedMessage(f"cannot serve kind {env.kind}")

    def _lock_for(self, task: str) -> threading.Lock:
        with self._guard:
            return self._locks.setdefault(task, threading.Lock())

    def _reply(self, env: Envelope, kind: str, payload: dict) -> Envelope:
        return Envelope(kind=kind, task=env.task, round=env.round,
                        sender=self.module_id, receiver=env.sender,
                        payload=payload)

    def _rows(self, ids) -> np.ndarray:
        """The module's feature rows for ``ids``; MissingTestRows if one is
        absent."""
        try:
            return align(self.module.partition, ids)
        except err.MissingId as exc:
            raise err.MissingTestRows(str(exc)) from None

    def _fit(self, env: Envelope) -> Envelope:
        from .protocol import assist_fit
        if env.round < 1:
            raise err.MalformedMessage("fit round must be >= 1")
        if self.policy is not None and not self.policy(env):
            return self._reply(env, "REFUSE", {"reason": "policy"})
        ids = env.payload["ids"]
        residual = assist_fit(self.module, env.task, env.round, ids,
                              env.payload["values"])
        return self._reply(env, "FIT_RESPONSE",
                           {"ids": ids, "values": residual})

    def _predict(self, env: Envelope) -> Envelope:
        from .learners import predict
        ids = env.payload["ids"]
        rounds = env.payload["rounds"]
        if len(set(rounds)) != len(rounds):
            raise err.MalformedMessage("PREDICT_REQUEST repeats a round")
        X = self._rows(ids)
        total = np.zeros(len(ids))
        for r in rounds:
            model = self.module.stored_model(env.task, r)
            total += predict(model, X)
        return self._reply(env, "PREDICT_RESPONSE",
                           {"ids": ids, "values": total})

    # -- split-network partner duties ------------------------------------

    def _labels(self, env: Envelope) -> Envelope:
        from .learners import dense_init
        p = env.payload
        for name in ("ids", "values", "seed", "hidden", "peer_cols"):
            if name not in p:
                raise err.MalformedMessage(f"LABELS_TRANSFER missing {name!r}")
        if p["hidden"] < 1 or p["peer_cols"] < 0 or p["seed"] < 0:
            raise err.MalformedMessage(
                "LABELS_TRANSFER needs hidden >= 1, peer_cols >= 0 and "
                "seed >= 0")
        if len(p["ids"]) != len(p["values"]):
            raise err.ShapeMismatch(
                f"LABELS_TRANSFER has {len(p['ids'])} ids but "
                f"{len(p['values'])} values")
        labels = TaskLabels(ids=p["ids"], values=p["values"])
        own_cols = self.module.partition.n_cols
        w_in, _, _, _ = dense_init(p["peer_cols"] + own_cols, p["hidden"],
                                   p["seed"])
        self._nn[env.task] = _NnTaskService(
            labels=labels, seed=p["seed"],
            snapshots={0: w_in[p["peer_cols"]:]})
        return self._reply(env, "LABELS_TRANSFER", {"own_cols": own_cols})

    def _service(self, task: str) -> "_NnTaskService":
        try:
            return self._nn[task]
        except KeyError:
            raise err.UnknownRound(f"no network state for task {task!r}") from None

    def _partial(self, env: Envelope) -> Envelope:
        svc = self._service(env.task)
        ids = env.payload["ids"]
        matrix = self._rows(ids) @ svc.weights_at(env.round)
        return self._reply(env, "PARTIAL_PREACT",
                           {"ids": ids, "matrix": matrix})

    def _wtilde(self, env: Envelope) -> Envelope:
        from .nn_protocol import NetOptConfig, SharedWeights, bob_update_round
        svc = self._service(env.task)
        p = env.payload
        for name in ("ids", "matrix", "rate", "batch", "epochs"):
            if name not in p:
                raise err.MalformedMessage(f"WTILDE_TRANSFER missing {name!r}")
        try:
            opt = NetOptConfig(rate=p["rate"], batch=p["batch"],
                               epochs=p["epochs"], seed=svc.seed)
        except ValueError as exc:
            raise err.MalformedMessage(f"WTILDE_TRANSFER: {exc}") from None
        X = self._rows(p["ids"])
        y = svc.labels.lookup(p["ids"])
        shared = SharedWeights(b_hidden=np.array(p["b_hidden"]),
                               w_out=np.array(p["w_out"]),
                               b_out=float(p["b_out"]))
        w_new, shared_new = bob_update_round(
            svc.latest_weights(), env.round, X, np.array(p["matrix"]), y,
            shared, opt)
        svc.snapshots[env.round] = w_new
        return self._reply(env, "WTILDE_TRANSFER",
                           {"b_hidden": shared_new.b_hidden,
                            "w_out": shared_new.w_out,
                            "b_out": shared_new.b_out})


@dataclass
class _NnTaskService:
    labels: TaskLabels
    seed: int
    snapshots: dict  # round (completed) -> own input-weight block

    def weights_at(self, round_no: int) -> np.ndarray:
        usable = [k for k in self.snapshots if k <= round_no]
        if not usable:
            raise err.UnknownRound(f"no weights at round {round_no}")
        return self.snapshots[max(usable)]

    def latest_weights(self) -> np.ndarray:
        return self.snapshots[max(self.snapshots)]


# ---------------------------------------------------------------------------
# endpoints
# ---------------------------------------------------------------------------

class InProcEndpoint:
    """Same-process endpoint: envelopes are dispatched without a byte hop.

    Envelope construction already normalizes payloads to the JSON value
    domain and the codec is lossless for finite doubles, so results are
    bit-identical to TCP (the acceptance suite checks exactly that).
    """

    def __init__(self, responder: ModuleResponder):
        self._responder = responder

    @property
    def module_id(self) -> str:
        return self._responder.module_id

    def request(self, envelope: Envelope, timeout: float = 30.0) -> Envelope:
        return self._responder.answer(envelope)


def local_endpoint(module: LocalModule, policy=None) -> InProcEndpoint:
    return InProcEndpoint(ModuleResponder(module, policy=policy))


class TcpEndpoint:
    """Client side of the JSON-lines TCP transport (one connection per call)."""

    def __init__(self, host: str, port: int, module_id: str):
        self.host = host
        self.port = port
        self.module_id = module_id

    def request(self, envelope: Envelope, timeout: float = 30.0) -> Envelope:
        data = encode(envelope)
        try:
            with socket.create_connection((self.host, self.port),
                                          timeout=timeout) as conn:
                conn.sendall(data)
                with conn.makefile("rb") as rfile:
                    line = rfile.readline()
        except ConnectionRefusedError as exc:
            raise err.ConnectionRefused(str(exc)) from None
        except socket.timeout as exc:
            raise err.RequestTimeout(str(exc)) from None
        except OSError as exc:
            raise err.TransportError(str(exc)) from None
        if not line:
            raise err.TransportError("connection closed without a reply")
        return decode(line)


# ---------------------------------------------------------------------------
# TCP server
# ---------------------------------------------------------------------------

class _LineHandler(socketserver.StreamRequestHandler):
    """Answers each line of one connection until the peer closes it, goes
    quiet for ``timeout`` seconds or the connection fails."""

    timeout = 60.0

    def handle(self) -> None:
        try:
            for line in self.rfile:
                self.wfile.write(encode(self.server.responder.answer(line)))
        except OSError:
            pass


class TcpModuleServer(socketserver.ThreadingTCPServer):
    """Threaded JSON-lines server wrapping a ModuleResponder.

    The stdlib threaded server: ``serve_forever`` runs on a daemon thread
    started here, and each connection gets a daemon handler thread that
    answers any number of lines. A line that cannot be decoded or served
    yields an ERROR reply and the server keeps going - garbage never takes
    the process down. ``stop()``, or leaving a ``with`` block, stops
    accepting and closes the listening socket; calling it again is harmless.
    """

    allow_reuse_address = True
    daemon_threads = True
    request_queue_size = 16

    def __init__(self, responder: ModuleResponder, host: str = "127.0.0.1",
                 port: int = 0):
        self.responder = responder
        try:
            super().__init__((host, port), _LineHandler)
        except OSError as exc:
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

    def stop(self) -> None:
        self.shutdown()
        self.server_close()

    def __exit__(self, *exc_info):
        self.stop()


def serve_module(module: LocalModule, host: str = "127.0.0.1", port: int = 0,
                 policy=None) -> TcpModuleServer:
    """Bind and start serving a module; returns the running server."""
    return TcpModuleServer(ModuleResponder(module, policy=policy),
                           host=host, port=port)
