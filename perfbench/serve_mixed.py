"""The ``serve_mixed`` workload: a closed-loop load on one ``serve`` process.

One ``assistlearn serve`` process (see ``servers.py``)
hosts columns x3, x4 of a 5000-row friedman1 table with a regression tree.
Each of two client threads keeps one request in flight and repeats a step:
a FIT_REQUEST on 256 random ids under a fresh task (the server stores a
model), then a PREDICT_REQUEST on the same ids. A FIT reply carries
``values - fit``, a PREDICT reply ``fit``, so the two add back to the sent
values; every step is checked against that identity.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import servers
from assistlearn import core, data, errors, transport

TABLE_ROWS = 5000
COLUMNS = ("x3", "x4")
IDS_PER_REQUEST = 256
CLIENTS = 2
HASHED_STEPS = 25         # per client: replies of steps 0..24 form the hash
MODULE_ID = "peer-1"
LEARNER = "regression_tree"
TIMEOUT = 30.0


@dataclass(frozen=True)
class Table:
    csv_path: Path
    ids: tuple
    labels: np.ndarray


def make_table(seed: int) -> Table:
    """Generate the shared table and write the server's partition CSV."""
    full, labels = data.generate(data.SyntheticSpec(
        kind="friedman1", n=TABLE_ROWS, noise_sd=1.0,
        seed=core.derive_seed(seed, "serve_mixed", "data")))
    part = core.vertical_split(full, [list(COLUMNS)])[0]
    servers.WORKDIR.mkdir(exist_ok=True)
    path = servers.WORKDIR / "serve_mixed-peer-1.csv"
    data.save_csv(path, part)
    return Table(csv_path=path, ids=full.ids, labels=labels.values)


def step_inputs(seed: int, client: int, step: int, table: Table):
    rng = np.random.default_rng([seed, client, step])
    rows = np.sort(rng.choice(TABLE_ROWS, IDS_PER_REQUEST, replace=False))
    return [table.ids[r] for r in rows], table.labels[rows], f"mix-{seed}-{client}-{step}"


@dataclass
class ClientResult:
    # (step start, FIT latency, PREDICT latency) per completed step
    samples: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)
    wire_bytes: int = 0
    wire_messages: int = 0


def _exchange(endpoint, kind: str, task: str, payload: dict, want: str, ids):
    env = transport.Envelope(kind=kind, task=task, round=1 if kind == "FIT_REQUEST" else 0,
                             sender="alice", receiver=MODULE_ID, payload=payload)
    reply = endpoint.request(env, timeout=TIMEOUT)
    if reply.kind != want:
        raise errors.TransportError(f"{kind}: got {reply.kind} {reply.payload}")
    if reply.payload["ids"] != ids:
        raise errors.ShapeMismatch(f"{kind}: reply ids differ from request")
    return env, reply, np.asarray(reply.payload["values"], dtype=np.float64)


def run_steps(endpoint, seed: int, client: int, table: Table, steps=None,
              deadline=None, first_step: int = 0, size: bool = False,
              tracer=None) -> ClientResult:
    """Closed loop: ``steps`` steps, or as many as fit before ``deadline``."""
    out = ClientResult()
    step = first_step
    while (steps is None or step < first_step + steps) and \
            (deadline is None or time.perf_counter() < deadline):
        ids, values, task = step_inputs(seed, client, step, table)
        step += 1
        began = time.perf_counter()
        out.attempted += 2
        try:
            with tracer.span("stage.step") if tracer is not None else nullcontext():
                fit_env, fit_reply, residual = _exchange(
                    endpoint, "FIT_REQUEST", task, {"ids": ids, "values": values},
                    "FIT_RESPONSE", ids)
                t_fit = time.perf_counter()
                pred_env, pred_reply, fitted = _exchange(
                    endpoint, "PREDICT_REQUEST", task, {"ids": ids, "rounds": [1]},
                    "PREDICT_RESPONSE", ids)
                t_pred = time.perf_counter()
        except (errors.AssistError, OSError, KeyError) as exc:
            out.failed += 1
            out.errors.append(f"{type(exc).__name__}: {exc}")
            continue
        out.samples.append((began, t_fit - began, t_pred - t_fit))
        scale = max(1.0, float(np.max(np.abs(values))))
        if np.max(np.abs(residual + fitted - values)) > 1e-9 * scale:
            out.failed += 1
            out.errors.append(f"step {step - 1}: residual + prediction != values")
        if step <= HASHED_STEPS:
            out.digest.update(residual.astype("<f8").tobytes())
            out.digest.update(fitted.astype("<f8").tobytes())
        if size:
            for env in (fit_env, fit_reply, pred_env, pred_reply):
                out.wire_bytes += len(transport.encode(env))
                out.wire_messages += 1
    return out


def run_clients(endpoints, seed: int, table: Table, **kwargs) -> tuple[list, float]:
    """One closed-loop client per endpoint, in threads; returns results, wall."""
    started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=len(endpoints)) as pool:
        futures = [pool.submit(run_steps, ep, seed, c, table, **kwargs)
                   for c, ep in enumerate(endpoints)]
        results = [f.result() for f in futures]
    return results, time.perf_counter() - started


def digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(r.digest.hexdigest().encode())
    return h.hexdigest()
