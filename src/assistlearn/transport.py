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
"""

from __future__ import annotations

import json
import logging
import math
import socket
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import errors as err
from .core import LocalModule

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

    def _fit(self, env: Envelope) -> Envelope:
        from .protocol import ResidualMessage, assist_fit
        if env.round < 1:
            raise err.MalformedMessage("fit round must be >= 1")
        if self.policy is not None and not self.policy(env):
            return self._reply(env, "REFUSE", {"reason": "policy"})
        msg = ResidualMessage(task_id=env.task, round=env.round,
                              sender=env.sender, receiver=self.module_id,
                              ids=tuple(env.payload["ids"]),
                              values=np.array(env.payload["values"]))
        out = assist_fit(self.module, msg)
        return self._reply(env, "FIT_RESPONSE",
                           {"ids": list(out.ids), "values": out.values})

    def _predict(self, env: Envelope) -> Envelope:
        from .learners import predict
        ids = tuple(env.payload["ids"])
        rounds = env.payload["rounds"]
        if len(set(rounds)) != len(rounds):
            raise err.MalformedMessage("PREDICT_REQUEST repeats a round")
        try:
            rows = self.module.partition.rows_for(ids)
        except err.MissingId as exc:
            raise err.MissingTestRows(str(exc)) from None
        X = self.module.partition.features[rows]
        total = np.zeros(len(ids))
        for r in rounds:
            model = self.module.stored_model(env.task, r)
            total += predict(model, X)
        return self._reply(env, "PREDICT_RESPONSE",
                           {"ids": list(ids), "values": total})

    # -- split-network partner duties ------------------------------------

    def _labels(self, env: Envelope) -> Envelope:
        from .learners import dense_init
        p = env.payload
        for name in ("ids", "values", "seed", "hidden", "peer_cols"):
            if name not in p:
                raise err.MalformedMessage(f"LABELS_TRANSFER missing {name!r}")
        if len(p["ids"]) != len(p["values"]):
            raise err.ShapeMismatch(
                f"LABELS_TRANSFER has {len(p['ids'])} ids but "
                f"{len(p['values'])} values")
        label_of = dict(zip(p["ids"], p["values"]))
        if len(label_of) != len(p["ids"]):
            raise err.DuplicateId("LABELS_TRANSFER repeats a sample id")
        own_cols = self.module.partition.n_cols
        w_in, _, _, _ = dense_init(p["peer_cols"] + own_cols, p["hidden"],
                                   p["seed"])
        svc = _NnTaskService(
            label_of=label_of,
            seed=p["seed"],
            snapshots={0: w_in[p["peer_cols"]:]},
        )
        self._nn[env.task] = svc
        return self._reply(env, "LABELS_TRANSFER", {"own_cols": own_cols})

    def _service(self, task: str) -> "_NnTaskService":
        try:
            return self._nn[task]
        except KeyError:
            raise err.UnknownRound(f"no network state for task {task!r}") from None

    def _partial(self, env: Envelope) -> Envelope:
        svc = self._service(env.task)
        ids = tuple(env.payload["ids"])
        try:
            rows = self.module.partition.rows_for(ids)
        except err.MissingId as exc:
            raise err.MissingTestRows(str(exc)) from None
        w = svc.weights_at(env.round)
        matrix = self.module.partition.features[rows] @ w
        return self._reply(env, "PARTIAL_PREACT",
                           {"ids": list(ids), "matrix": matrix})

    def _wtilde(self, env: Envelope) -> Envelope:
        from .nn_protocol import NetOptConfig, SharedWeights, bob_update_round
        svc = self._service(env.task)
        p = env.payload
        for name in ("ids", "matrix", "rate", "batch", "epochs"):
            if name not in p:
                raise err.MalformedMessage(f"WTILDE_TRANSFER missing {name!r}")
        ids = tuple(p["ids"])
        try:
            rows = self.module.partition.rows_for(ids)
        except err.MissingId as exc:
            raise err.MissingTestRows(str(exc)) from None
        X = self.module.partition.features[rows]
        try:
            y = np.array([svc.label_of[s] for s in ids])
        except KeyError as exc:
            raise err.MissingId(f"no label for {exc.args[0]!r}") from None
        shared = SharedWeights(b_hidden=np.array(p["b_hidden"]),
                               w_out=np.array(p["w_out"]),
                               b_out=float(p["b_out"]))
        opt = NetOptConfig(rate=p["rate"], batch=p["batch"],
                           epochs=p["epochs"], seed=svc.seed)
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
    label_of: dict
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

def _error_envelope(module_id: str, env: Optional[Envelope],
                    exc: Exception) -> Envelope:
    return Envelope(kind="ERROR",
                    task=env.task if env else "",
                    round=env.round if env else 0,
                    sender=module_id,
                    receiver=env.sender if env else "",
                    payload={"error": type(exc).__name__,
                             "message": str(exc)})


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
        try:
            return self._responder.handle(envelope)
        except err.AssistError as exc:
            return _error_envelope(self.module_id, envelope, exc)
        except Exception as exc:  # noqa: BLE001 - mirror the TCP server
            log.exception("responder failure")
            return _error_envelope(self.module_id, envelope, exc)


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

class TcpModuleServer:
    """Threaded JSON-lines server wrapping a ModuleResponder.

    One thread per connection; any number of lines per connection. A line
    that cannot be decoded or served yields an ERROR reply and the server
    keeps going - garbage never takes the process down.
    """

    def __init__(self, responder: ModuleResponder, host: str = "127.0.0.1",
                 port: int = 0):
        self._responder = responder
        self._stop = threading.Event()
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            sock.bind((host, port))
        except OSError as exc:
            sock.close()
            raise err.BindFailure(f"cannot bind {host}:{port}: {exc}") from None
        sock.listen(16)
        sock.settimeout(0.2)
        self._sock = sock
        self.host, self.port = sock.getsockname()[:2]
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._thread.start()

    @property
    def module_id(self) -> str:
        return self._responder.module_id

    def endpoint(self) -> TcpEndpoint:
        return TcpEndpoint(self.host, self.port, self.module_id)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.stop()

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            worker = threading.Thread(target=self._serve_connection,
                                      args=(conn,), daemon=True)
            worker.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            conn.settimeout(60.0)
            rfile = conn.makefile("rb")
            while not self._stop.is_set():
                try:
                    line = rfile.readline()
                except (OSError, ValueError):
                    break
                if not line:
                    break
                reply = self._serve_line(line)
                try:
                    conn.sendall(encode(reply))
                except OSError:
                    break

    def _serve_line(self, line: bytes) -> Envelope:
        env = None
        try:
            env = decode(line)
            return self._responder.handle(env)
        except err.AssistError as exc:
            return _error_envelope(self._responder.module_id, env, exc)
        except Exception as exc:  # noqa: BLE001 - keep the server alive
            log.exception("unexpected responder failure")
            return _error_envelope(self._responder.module_id, env, exc)


def serve_module(module: LocalModule, host: str = "127.0.0.1", port: int = 0,
                 policy=None) -> TcpModuleServer:
    """Bind and start serving a module; returns the running server."""
    return TcpModuleServer(ModuleResponder(module, policy=policy),
                           host=host, port=port)
