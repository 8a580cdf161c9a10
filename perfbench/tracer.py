"""In-memory span tracer that wraps assistlearn's public functions from outside.

Nothing under ``src/`` is edited: :func:`install` replaces module and class
attributes with timing wrappers and :meth:`Tracer.uninstall` puts the
originals back. A wrapper calls the original unchanged, with the same
arguments, and re-raises whatever it raises.

Names bound by ``from .x import y`` are wrapped in every module that binds
them (``protocol.fit_learner``, ``nn_protocol.sgd_epochs`` ...). The lazy
imports inside ``transport``'s handlers read the source module's attribute
at call time, so patching the source module covers them. Server handlers
run on their own threads, so each thread keeps its own span stack.

A span is ``[name, start, end, parent, thread, child_seconds]``; a parent
adds each child's duration to its ``child_seconds`` when the child ends, so
self time is ``end - start - child_seconds``.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, THREAD, CHILD = range(6)

WIRE_KINDS = ("FIT_REQUEST", "FIT_RESPONSE", "PREDICT_REQUEST",
              "PREDICT_RESPONSE", "PARTIAL_PREACT", "WTILDE_TRANSFER",
              "LABELS_TRANSFER", "REFUSE", "ERROR")

# span -> the metrics its self time adds to. Learner training and evaluation
# are counted across learner kinds: the split network trains through
# sgd_epochs and evaluates through dense_forward.
SELF_TIME = {
    "core.rows_for": ("core.rows_for_s",),
    "core.align": ("core.align_s",),
    "data.generate": ("data.generate_s",),
    "learners.fit": ("learners.fit_s",),
    "learners.sgd": ("learners.sgd_s", "learners.fit_s"),
    "learners.predict": ("learners.predict_s",),
    "learners.forward": ("learners.forward_s", "learners.predict_s"),
    "transport.envelope": ("transport.envelope_s",),
    "transport.encode": ("transport.encode_s",),
    "transport.decode": ("transport.decode_s",),
    "protocol.learn": ("protocol.self_s",),
    "protocol.predict": ("protocol.self_s",),
    "protocol.assist_fit": ("protocol.assist_fit_s",),
    "nn_protocol.learn": ("nn_protocol.self_s",),
    "nn_protocol.predict": ("nn_protocol.self_s",),
    "nn_protocol.bob_update": ("nn_protocol.bob_update_s",),
}
# whole client request and whole server handling, children included
TOTAL_TIME = {"transport.request": "transport.request_s",
              "transport.handle": "transport.handle_s"}
CALLS = {
    "core.align": "core.align_calls",
    "learners.fit": "learners.fit_calls",
    "learners.sgd": "learners.sgd_calls",
    "learners.predict": "learners.predict_calls",
    "learners.forward": "learners.forward_calls",
    "transport.envelope": "transport.envelope_calls",
    "transport.request": "transport.request_calls",
    "transport.handle": "transport.handle_calls",
    "protocol.assist_fit": "protocol.assist_fit_calls",
}
COUNTERS = ("core.rows_for_ids", "transport.connections", "transport.error_replies",
            *(f"transport.bytes.{k}" for k in WIRE_KINDS),
            *(f"transport.messages.{k}" for k in WIRE_KINDS))
METRICS = sorted({m for ms in SELF_TIME.values() for m in ms}
                 | set(TOTAL_TIME.values()) | set(CALLS.values())
                 | set(COUNTERS) | {"transport.wait_s"})


class Tracer:
    """Collects spans and counters; install() switches the wrappers on."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        stack = self._stack()
        rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else None,
               threading.get_ident(), 0.0]
        stack.append(rec)
        self.spans.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if rec[PARENT] is not None:
            rec[PARENT][CHILD] += rec[END] - rec[START]

    def count(self, key: str, n: int = 1) -> None:
        with self._count_lock:
            self.counts[key] += n

    @contextmanager
    def span(self, name: str):
        rec = self.begin(name)
        try:
            yield rec
        finally:
            self.end(rec)

    def wrap(self, name: str, fn, before=None, after=None):
        """Timing wrapper around ``fn``; ``before`` may rewrite the arguments,
        ``after`` sees them with the result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            rec = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(rec)
            if after is not None:
                after(args, result)
            return result
        return traced

    def patch(self, owner, attr: str, name: str, before=None, after=None):
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, before, after))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    # -- reporting ---------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer sums over every span recorded since the last reset."""
        out = dict.fromkeys(METRICS, 0.0)
        for rec in self.spans:
            name = rec[NAME]
            dur = rec[END] - rec[START]
            for metric in SELF_TIME.get(name, ()):
                out[metric] += dur - rec[CHILD]
            if name in TOTAL_TIME:
                out[TOTAL_TIME[name]] += dur
            if name in CALLS:
                out[CALLS[name]] += 1
            # wait = client request time minus the client's own encode/decode
            if name == "transport.request":
                out["transport.wait_s"] += dur
            elif name in ("transport.encode", "transport.decode") \
                    and rec[PARENT] is not None \
                    and rec[PARENT][NAME] == "transport.request":
                out["transport.wait_s"] -= dur
        for key, value in self.counts.items():
            out[key] += value
        return out

    def accounting(self) -> dict:
        """Per stage: wall time, layer self time under it, unaccounted rest.

        Stages are the bench's own ``stage.*`` spans. Spans on other threads
        (in-process servers) overlap the stage's waits, so they are listed
        apart and not added to the stage's sum.
        """
        stages: dict = defaultdict(lambda: {"wall_s": 0.0, "layers": defaultdict(float)})
        other: dict = defaultdict(float)
        for rec in self.spans:
            root = rec
            while root[PARENT] is not None:
                root = root[PARENT]
            own = rec[END] - rec[START] - rec[CHILD]
            layer = rec[NAME].split(".")[0]
            if not root[NAME].startswith("stage."):
                other[layer] += own
                continue
            entry = stages[root[NAME]]
            if rec is root:
                entry["wall_s"] += rec[END] - rec[START]
                entry["layers"]["unaccounted"] += own
            else:
                entry["layers"][layer] += own
        out = {}
        for name, entry in sorted(stages.items()):
            wall = entry["wall_s"]
            layers = dict(entry["layers"])
            unacc = layers.pop("unaccounted", 0.0)
            out[name] = {"wall_s": wall,
                         "layer_self_s": {k: layers[k] for k in sorted(layers)},
                         "accounted_s": sum(layers.values()),
                         "unaccounted_s": unacc,
                         "unaccounted_share": unacc / wall if wall else 0.0}
        out["other_threads_self_s"] = {k: other[k] for k in sorted(other)}
        return out

    def write_spans(self, path) -> None:
        """Dump every span as one JSON line: id, name, start, end, parent."""
        ids = {id(rec): i for i, rec in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                parent = rec[PARENT]
                fh.write(json.dumps({
                    "id": i, "name": rec[NAME], "start": rec[START],
                    "end": rec[END], "thread": rec[THREAD],
                    "parent": ids[id(parent)] if parent is not None else None,
                }) + "\n")


class _CountingSocketModule:
    """Stands in for ``transport``'s ``socket`` global; counts connects."""

    def __init__(self, real, tracer: Tracer):
        self._real = real
        self._tracer = tracer

    def create_connection(self, *args, **kwargs):
        self._tracer.count("transport.connections")
        return self._real.create_connection(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def install(tracer: Tracer) -> Tracer:
    """Wrap the public functions of every layer; returns ``tracer``."""
    from assistlearn import core, data, learners, nn_protocol, protocol, transport

    import servers

    def ids_as_tuple(args):
        # a one-shot iterable becomes a tuple so it can be counted and used
        partition, ids = args
        ids = ids if isinstance(ids, (tuple, list)) else tuple(ids)
        tracer.count("core.rows_for_ids", len(ids))
        return (partition, ids)

    def count_bytes(args, line):
        kind = args[0].kind
        tracer.count(f"transport.bytes.{kind}", len(line))
        tracer.count(f"transport.messages.{kind}")

    def count_errors(args, reply):
        if reply.kind in ("ERROR", "REFUSE"):
            tracer.count("transport.error_replies")

    tracer.patch(core.FeaturePartition, "rows_for", "core.rows_for",
                 before=ids_as_tuple)
    for mod in (core, protocol, nn_protocol):
        tracer.patch(mod, "align", "core.align")
    tracer.patch(data, "generate", "data.generate")
    tracer.patch(data, "split_counts", "data.split_counts")
    tracer.patch(data, "save_csv", "data.save_csv")
    tracer.patch(core, "vertical_split", "core.vertical_split")
    tracer.patch(core.TaskLabels, "__post_init__", "core.labels")
    for mod in (learners, protocol):
        tracer.patch(mod, "fit_learner", "learners.fit")
        tracer.patch(mod, "predict", "learners.predict")
    for mod in (learners, nn_protocol):
        tracer.patch(mod, "sgd_epochs", "learners.sgd")
        tracer.patch(mod, "dense_forward", "learners.forward")
    tracer.patch(transport.Envelope, "__post_init__", "transport.envelope")
    original_encode = transport.encode
    tracer.patch(transport, "encode", "transport.encode", after=count_bytes)
    tracer.patch(transport, "decode", "transport.decode")
    tracer.patch(transport.TcpEndpoint, "request", "transport.request",
                 after=count_errors)
    tracer.patch(transport.InProcEndpoint, "request", "transport.request",
                 after=count_errors)
    # nothing is encoded in process; size what encode would produce, in a
    # bench span outside the request span so request time excludes it
    traced_request = transport.InProcEndpoint.request

    def sized_request(self, envelope, *args, **kwargs):
        reply = traced_request(self, envelope, *args, **kwargs)
        with tracer.span("bench.sizing"):
            for env in (envelope, reply):
                tracer.count(f"transport.bytes.{env.kind}", len(original_encode(env)))
                tracer.count(f"transport.messages.{env.kind}")
        return reply
    transport.InProcEndpoint.request = sized_request
    tracer.patch(transport.ModuleResponder, "handle", "transport.handle")
    tracer.patch(transport, "serve_module", "transport.serve_module")
    # the bench's own wait for serve processes to print their serving line
    tracer.patch(servers, "start", "process.start")
    tracer.patch(protocol, "run_learning_stage", "protocol.learn")
    tracer.patch(protocol, "per_round_predictions", "protocol.predict")
    tracer.patch(protocol, "assist_fit", "protocol.assist_fit")
    tracer.patch(nn_protocol, "run_nn_learning", "nn_protocol.learn")
    tracer.patch(nn_protocol, "nn_predict", "nn_protocol.predict")
    tracer.patch(nn_protocol, "bob_update_round", "nn_protocol.bob_update")
    tracer._patches.append((transport, "socket", transport.socket))
    transport.socket = _CountingSocketModule(transport.socket, tracer)
    return tracer
