"""assistlearn benchmark: four workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from its
``src/`` directory, never from an installed copy, and the program exits with
code 2 when there is none. Inputs come from ``--seed`` only.

``--trace 0`` measures with no wrappers installed and prints every
end-to-end metric; ``--trace 1`` runs untraced and traced repetitions in
turn and prints the per-layer metrics, the tracing overhead and where each
stage's time went. Either way the last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Every run checks its
outputs against the hashes in ``expected_hashes.json``. Scratch files
(server partition CSV, span dumps) go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import servers
import tracer as tracing
from servers import SRC
from tracer import WIRE_KINDS

EXPECTED = Path(__file__).resolve().parent / "expected_hashes.json"

WORKLOADS = ("chain_predict_tcp", "chain_boost_inproc", "split_net_tcp", "serve_mixed")

END_TO_END = {
    "setup_s": "s", "learn_s": "s", "predict_s": "s", "run_s": "s",
    "wire_bytes": "bytes", "wire_messages": "count",
    "fit_p50_ms": "ms", "fit_p90_ms": "ms",
    "predict_p50_ms": "ms", "predict_p90_ms": "ms",
    "requests_per_s": "1/s", "peak_rss_mb": "MB",
}

# Per-layer metrics in the result object. Every time listed here is non-zero
# on every workload; layer times that only some workloads exercise (codec,
# SGD, orchestration self time ...) are printed and dumped, not listed.
PER_LAYER = {
    "core.rows_for_s": "s", "core.rows_for_ids": "count", "core.align_calls": "count",
    "data.generate_s": "s",
    "learners.fit_s": "s", "learners.fit_calls": "count",
    "learners.predict_s": "s", "learners.predict_calls": "count",
    "learners.sgd_calls": "count", "learners.forward_calls": "count",
    "transport.envelope_s": "s", "transport.envelope_calls": "count",
    "transport.request_s": "s", "transport.wait_s": "s",
    "transport.request_calls": "count", "transport.connections": "count",
    "transport.handle_s": "s", "transport.handle_calls": "count",
    "transport.error_replies": "count",
    "protocol.assist_fit_calls": "count",
    **{f"transport.bytes.{k}": "bytes" for k in WIRE_KINDS},
    **{f"transport.messages.{k}": "count" for k in WIRE_KINDS},
    "trace.overhead_share": "ratio", "trace.unaccounted_share": "ratio",
}
PRINTED_ONLY = ("core.align_s", "learners.sgd_s", "learners.forward_s",
                "transport.encode_s", "transport.decode_s", "protocol.self_s",
                "protocol.assist_fit_s", "nn_protocol.self_s",
                "nn_protocol.bob_update_s")

MIN_REPS = 3              # timed repetitions per experiment run, at least
SETUPS = 5                # setup_s is the median of at least this many set-ups,
SETUP_BUDGET_S = 1.0      # or of as many as fit in this time, up to MAX_SETUPS
MAX_SETUPS = 50
TRACED_REPS = 3           # traced repetitions behind the layer sums
SERVER_STARTS = 5         # serve_mixed: server starts behind setup_s
SERVE_WARMUP_STEPS = 25   # per client: untimed and sized; all of them hashed
SERVE_TRACED_STEPS = 150  # per client, in each half of the traced run
MAX_WALL_S = 150.0        # stop repeating well inside the 180 s limit


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package():
    if not (SRC / "assistlearn" / "__init__.py").is_file():
        fail(f"no assistlearn source under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import assistlearn
    if Path(assistlearn.__file__).resolve().parent != SRC / "assistlearn":
        fail(f"imported assistlearn from {assistlearn.__file__}, not {SRC}")


def expected_digest(workload: str, seed: int):
    try:
        table = json.loads(EXPECTED.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(seed))


def percentile_ms(values, q: int) -> float:
    """q-th percentile (statistics' exclusive method), in milliseconds."""
    return statistics.quantiles(values, n=100)[q - 1] * 1000.0


def p50_ms(groups) -> float:
    """Mean of the groups' medians, in milliseconds.

    The machine's speed shifts in phases of about a second, so a run's
    latencies form a fast and a slow cluster and the median of the pooled
    run jumps between them with the mix. A group (one repetition, or one
    second of load) mostly sits in one phase; the mean of the groups'
    medians moves smoothly with the mix. The p90 lies in the slow cluster
    and is taken over the pooled run.
    """
    return statistics.fmean(statistics.median(g) for g in groups if g) * 1000.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Check:
    """Result check: every digest equal, and equal to the recorded one."""

    def __init__(self, workload: str, seed: int):
        self.recorded = expected_digest(workload, seed)
        self.digests: set = set()
        self.notes: list = []
        self.attempted = 0
        self.failed = 0

    def add(self, digest: str) -> bool:
        self.digests.add(digest)
        ok = len(self.digests) == 1 and self.recorded in (None, digest)
        if not ok:
            self.notes.append(f"result hash {digest[:16]} differs "
                              f"(recorded {str(self.recorded)[:16]})")
        return ok

    def correct(self) -> bool:
        return self.failed == 0 and bool(self.digests)

    def report(self) -> None:
        if self.recorded is None:
            print("note: no recorded result hash for this seed; checked that "
                  "all repetitions agree")
        for note in self.notes[:5]:
            print(f"check: {note}")
        rate = self.failed / self.attempted if self.attempted else 0.0
        print(f"error_rate {rate:.6g} ({self.failed} failed of {self.attempted} attempted)")


# ---------------------------------------------------------------------------
# experiment workloads
# ---------------------------------------------------------------------------

def stage(tracer, name: str):
    return tracer.span(f"stage.{name}") if tracer is not None else nullcontext()


def experiment_setups(w, spec, seed, count: int, tracer=None):
    """Set up at least ``count`` times, timing each; keep the last fixture.

    Cheap set-ups repeat until SETUP_BUDGET_S is spent, so their median
    rests on more samples. With ``tracer`` the serve processes run traced.
    """
    times = []
    while True:
        started = time.perf_counter()
        with stage(tracer, "setup"):
            fx = w.setup(spec, seed, trace=tracer is not None)
        times.append(time.perf_counter() - started)
        if len(times) >= count and (sum(times) >= SETUP_BUDGET_S
                                    or len(times) >= MAX_SETUPS or count == 1):
            return fx, times
        fx.close()


def experiment_rep(w, fx, task_id: str, check: Check, log=None, tracer=None) -> dict:
    """learn -> predict under a fresh task id, timed per stage and checked."""
    endpoints = fx.endpoints if log is None else [log.wrap(ep) for ep in fx.endpoints]
    check.attempted += 1
    t0 = time.perf_counter()
    with stage(tracer, "learn"):
        trained = w.learn(fx, endpoints, task_id)
    t1 = time.perf_counter()
    if log is not None:
        log.phase = "predict"
    with stage(tracer, "predict"):
        curves = w.predict(fx, trained, endpoints)
    t2 = time.perf_counter()
    fx.forget_models()
    result = w.outcome(fx, trained, curves)
    ok = check.add(result.digest)
    # the chosen round must beat predicting the test mean
    if not result.test_rmse[result.chosen_round - 1] < float(fx.y_test.std()):
        check.notes.append("chosen-round test RMSE no better than the mean")
        ok = False
    if not ok:
        check.failed += 1
    return {"learn_s": t1 - t0, "predict_s": t2 - t1,
            "requests": len(log.entries) if log is not None else 0}


def timed_reps(w, fx, check: Check, seconds: float, started: float, prefix: str):
    """Repetitions on one fixture until ``seconds`` pass (at least MIN_REPS)."""
    reps, logs = [], []
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        if time.perf_counter() - started > MAX_WALL_S:
            break
        logs.append(w.RequestLog())
        reps.append(experiment_rep(w, fx, f"{prefix}{len(reps)}", check, log=logs[-1]))
    return reps, logs


def run_experiment(workload, seed, seconds, check: Check) -> dict:
    """Set up SETUPS times (keeping the last), warm up, then repeat
    learn -> predict on that fixture for ``seconds``."""
    import workloads as w
    spec = w.EXPERIMENTS[workload]
    started = time.perf_counter()
    fx, setups = experiment_setups(w, spec, seed, SETUPS)
    try:
        sizing = w.RequestLog(size=True)     # warm-up: fills caches, sizes the wire
        experiment_rep(w, fx, "warmup", check, log=sizing)
        reps, logs = timed_reps(w, fx, check, seconds, started, "rep")
    finally:
        fx.close()
    fit_groups = [log.latencies(w.FIT_KINDS) for log in logs]
    pred_groups = [log.latencies(w.PREDICT_KINDS, "predict") for log in logs]
    fit = [s for g in fit_groups for s in g]
    pred = [s for g in pred_groups for s in g]
    print(f"set-ups {len(setups)}; repetitions {len(reps)}; fit requests {len(fit)}; "
          f"predict requests {len(pred)}")
    # Stage times are means over the repetitions: on a shared machine the
    # speed drifts in phases of seconds to tens of seconds, and across runs
    # the mean of a run's repetitions spread less than their median did.
    setup_s = statistics.median(setups)
    learn_s = statistics.fmean(r["learn_s"] for r in reps)
    predict_s = statistics.fmean(r["predict_s"] for r in reps)
    return {
        "setup_s": setup_s,
        "learn_s": learn_s,
        "predict_s": predict_s,
        "run_s": setup_s + learn_s + predict_s,
        "wire_bytes": sizing.wire_bytes,
        "wire_messages": sizing.wire_messages,
        "fit_p50_ms": p50_ms(fit_groups),
        "fit_p90_ms": percentile_ms(fit, 90),
        "predict_p50_ms": p50_ms(pred_groups),
        "predict_p90_ms": percentile_ms(pred, 90),
        "requests_per_s": sum(r["requests"] for r in reps)
        / sum(r["learn_s"] + r["predict_s"] for r in reps),
        "peak_rss_mb": peak_rss_mb(),
    }


def merge_servers(check: Check, layers: dict, accounting: dict, stats: list) -> None:
    """Add the traced serve processes' layer sums and thread self times."""
    threads = accounting.setdefault("server_threads_self_s", {})
    for st in stats:
        if "layers" not in st:
            check.failed += 1
            check.notes.append("a traced server wrote no layer sums")
            continue
        for key, value in st["layers"].items():
            layers[key] = layers.get(key, 0.0) + value
        for key, value in st["accounting"]["other_threads_self_s"].items():
            threads[key] = threads.get(key, 0.0) + value


def trace_experiment(workload, seed, seconds, check: Check) -> dict:
    """Untraced repetitions for half the time, then one traced set-up and
    TRACED_REPS traced repetitions, so the layer sums cover fixed work."""
    import workloads as w
    spec = w.EXPERIMENTS[workload]
    started = time.perf_counter()
    fx, _ = experiment_setups(w, spec, seed, 1)
    try:
        experiment_rep(w, fx, "warmup", check)
        plain, _ = timed_reps(w, fx, check, seconds / 2, started, "rep")
    finally:
        fx.close()
    tracer = tracing.install(tracing.Tracer())
    try:
        fx, _ = experiment_setups(w, spec, seed, 1, tracer=tracer)
        try:
            traced = [experiment_rep(w, fx, f"traced{i}", check, tracer=tracer)
                      for i in range(TRACED_REPS)]
        finally:
            fx.close()
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    accounting = tracer.accounting()
    merge_servers(check, layers, accounting, fx.server_stats)
    tracer.write_spans(servers.WORKDIR / f"spans-{workload}-{seed}.jsonl")

    def rep_time(reps):
        return statistics.fmean(r["learn_s"] + r["predict_s"] for r in reps)
    layers["trace.overhead_share"] = rep_time(traced) / rep_time(plain) - 1.0
    return finish_trace(workload, seed, layers, accounting,
                        f"{len(plain)} untraced repetitions; one set-up and "
                        f"{TRACED_REPS} repetitions traced")


# ---------------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------------

def run_serve(seed, seconds, check: Check) -> dict:
    import serve_mixed as sm
    table = sm.make_table(seed)
    setups = []
    for i in range(SERVER_STARTS):
        server = servers.start([(sm.MODULE_ID, table.csv_path)], sm.LEARNER)[0]
        setups.append(server.setup_s)
        if i < SERVER_STARTS - 1:
            server.stop()
    try:
        endpoints = [server.endpoint() for _ in range(sm.CLIENTS)]
        warm = [sm.run_steps(ep, seed, c, table, steps=SERVE_WARMUP_STEPS, size=True)
                for c, ep in enumerate(endpoints)]
        results, wall = sm.run_clients(
            endpoints, seed, table, deadline=time.perf_counter() + seconds,
            first_step=SERVE_WARMUP_STEPS)
    finally:
        stats = server.stop()
    tally_serve(check, warm + results)
    if not check.add(sm.digest(warm)):
        check.failed += 1
    if "peak_rss_mb" not in stats:
        check.failed += 1
        check.notes.append("server wrote no stats")
    samples = sorted(x for r in results for x in r.samples)
    fit = [f for _, f, _ in samples]
    pred = [p for _, _, p in samples]
    seconds_of_load = {}
    for began, f, p in samples:
        seconds_of_load.setdefault(int(began - samples[0][0]), []).append((f, p))
    fit_groups = [[f for f, _ in g] for g in seconds_of_load.values()]
    pred_groups = [[p for _, p in g] for g in seconds_of_load.values()]
    print(f"server starts {len(setups)}; fit requests {len(fit)}; "
          f"predict requests {len(pred)}; load {wall:.3f} s")
    return {
        "setup_s": statistics.median(setups),
        "learn_s": statistics.fmean(fit),
        "predict_s": statistics.fmean(pred),
        "run_s": statistics.fmean(f + p for f, p in zip(fit, pred)),
        "wire_bytes": sum(r.wire_bytes for r in warm),
        "wire_messages": sum(r.wire_messages for r in warm),
        "fit_p50_ms": p50_ms(fit_groups),
        "fit_p90_ms": percentile_ms(fit, 90),
        "predict_p50_ms": p50_ms(pred_groups),
        "predict_p90_ms": percentile_ms(pred, 90),
        "requests_per_s": (len(fit) + len(pred)) / wall,
        "peak_rss_mb": stats.get("peak_rss_mb", math.nan),
    }


def tally_serve(check: Check, results) -> None:
    for r in results:
        check.attempted += r.attempted
        check.failed += r.failed
        check.notes.extend(r.errors)


def trace_serve(seed, seconds, check: Check) -> dict:
    """A fixed load untraced, then the same load traced on both sides."""
    import serve_mixed as sm
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        with tracer.span("stage.setup"):
            table = sm.make_table(seed)
    finally:
        tracer.uninstall()
    step_means = []
    for traced in (False, True):
        server = servers.start([(sm.MODULE_ID, table.csv_path)], sm.LEARNER,
                               trace=traced)[0]
        try:
            endpoints = [server.endpoint() for _ in range(sm.CLIENTS)]
            if traced:
                tracing.install(tracer)
            try:
                results, _ = sm.run_clients(
                    endpoints, seed, table, steps=SERVE_TRACED_STEPS,
                    tracer=tracer if traced else None)
            finally:
                tracer.uninstall()
        finally:
            stats = server.stop()
        tally_serve(check, results)
        if not check.add(sm.digest(results)):
            check.failed += 1
        step_means.append(statistics.fmean(f + p for r in results for _, f, p in r.samples))
    out = tracer.layer_metrics()
    accounting = tracer.accounting()
    merge_servers(check, out, accounting, [stats])
    out["trace.overhead_share"] = step_means[1] / step_means[0] - 1.0
    tracer.write_spans(servers.WORKDIR / f"spans-serve_mixed-{seed}.jsonl")
    return finish_trace("serve_mixed", seed, out, accounting,
                        f"{SERVE_TRACED_STEPS} steps per client, untraced then traced")


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def finish_trace(workload, seed, layers: dict, accounting: dict, what: str) -> dict:
    stages = {k: v for k, v in accounting.items() if k.startswith("stage.")}
    wall = sum(v["wall_s"] for v in stages.values())
    unacc = sum(v["unaccounted_s"] for v in stages.values())
    layers["trace.unaccounted_share"] = unacc / wall if wall else 0.0
    print(f"traced run: {what}")
    for key in sorted(set(layers) - set(PER_LAYER)):
        if key in PRINTED_ONLY:
            print(f"layer {key} {layers[key]!r} s")
    for name, entry in stages.items():
        parts = ", ".join(f"{k} {v:.4f}" for k, v in entry["layer_self_s"].items())
        print(f"accounting {name}: wall {entry['wall_s']:.4f} s = layers "
              f"{entry['accounted_s']:.4f} s ({parts}) + unaccounted "
              f"{entry['unaccounted_s']:.4f} s ({entry['unaccounted_share']:.1%})")
    for name in ("other_threads_self_s", "server_threads_self_s"):
        if accounting.get(name):
            parts = ", ".join(f"{k} {v:.4f}" for k, v in sorted(accounting[name].items()))
            print(f"accounting {name.split('_')[0]} threads, overlapping the waits: {parts}")
    (servers.WORKDIR / f"trace-{workload}-{seed}.json").write_text(json.dumps(
        {"layers": layers, "accounting": accounting}, indent=1, sort_keys=True),
        encoding="utf-8")
    return {key: layers.get(key, 0.0) for key in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="assistlearn benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        fail("--seed must be >= 0")
    load_package()
    servers.WORKDIR.mkdir(exist_ok=True)
    check = Check(args.workload, args.seed)
    try:
        if args.trace:
            if args.workload == "serve_mixed":
                values = trace_serve(args.seed, args.seconds, check)
            else:
                values = trace_experiment(args.workload, args.seed, args.seconds,
                                          check)
            units = PER_LAYER
        else:
            if args.workload == "serve_mixed":
                values = run_serve(args.seed, args.seconds, check)
            else:
                values = run_experiment(args.workload, args.seed, args.seconds, check)
            units = END_TO_END
    except Exception:  # noqa: BLE001 - report the failure, print no result
        traceback.print_exc()
        print("perfbench: the workload raised; no result", file=sys.stderr)
        return 1
    for key, unit in units.items():
        print(f"{key} {values[key]!r} {unit}")
    check.report()
    if any(not math.isfinite(values[k]) for k in units):
        print("perfbench: a metric could not be measured", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": check.correct(),
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
