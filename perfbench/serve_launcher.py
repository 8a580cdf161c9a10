"""Runs ``assistlearn serve`` in this process so the bench controls it.

    python3 perfbench/serve_launcher.py --src SRC --stats-out FILE [--trace] \
        serve --partition P.csv --learner regression_tree --listen 127.0.0.1:0

Everything after the launcher's own options goes to ``assistlearn.cli.main``
unchanged. With ``--trace`` the layer wrappers are installed first, so the
server-side spans (decode, handle, learner fit/predict, encode) are
recorded. When stdin closes (the bench stops it, or the bench is gone) the
launcher interrupts ``serve`` as Ctrl-C would. On exit it writes its peak
RSS, and when traced its layer sums and accounting, to ``--stats-out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import threading


def _interrupt_at_eof() -> None:
    while sys.stdin.buffer.read(4096):
        pass
    # a real signal to the main thread wakes serve's blocking wait
    signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding assistlearn")
    parser.add_argument("--stats-out", required=True, help="JSON file written on exit")
    parser.add_argument("--trace", action="store_true", help="record layer spans")
    args, cli_args = parser.parse_known_args()
    # a parent started in the background may have left SIGINT ignored, and
    # Python then installs no handler of its own
    signal.signal(signal.SIGINT, signal.default_int_handler)
    threading.Thread(target=_interrupt_at_eof, daemon=True).start()
    sys.path.insert(0, args.src)
    from assistlearn import cli

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.install(tracing.Tracer())
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        stats = {"exit": code,
                 "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        if tracer is not None:
            tracer.uninstall()
            stats["layers"] = tracer.layer_metrics()
            stats["accounting"] = tracer.accounting()
        with open(args.stats_out, "w", encoding="utf-8") as fh:
            json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
