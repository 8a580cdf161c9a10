"""``assistlearn serve`` processes, started through ``serve_launcher.py``.

Each assistant runs as its own serve process, as it would at another
organisation. (Server threads inside the orchestrator's process share its
interpreter lock; that coupling made run-to-run times swing by about 20%.)
"""

from __future__ import annotations

import itertools
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKDIR = HERE.parent / ".perfbench"
LAUNCHER = HERE / "serve_launcher.py"
START_TIMEOUT = 60.0
_names = itertools.count()


class Server:
    """One serve process; ``setup_s`` runs from launch to its serving line."""

    def __init__(self, csv_path: Path, learner: str, module_id: str,
                 trace: bool = False):
        self.module_id = module_id
        name = f"server-{os.getpid()}-{next(_names)}"
        self.stats_path = WORKDIR / f"{name}.json"
        self.stats_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(LAUNCHER), "--src", str(SRC),
               "--stats-out", str(self.stats_path)]
        if trace:
            cmd.append("--trace")
        cmd += ["serve", "--partition", str(csv_path), "--learner", learner,
                "--listen", "127.0.0.1:0", "--module-id", module_id]
        self._stderr = open(WORKDIR / f"{name}.log", "wb")
        self._started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=self._stderr, text=True)
        self.port = None
        self.setup_s = None

    def wait_ready(self) -> None:
        """Block until the serving line; stop the process if it never comes."""
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT)
            line = self.proc.stdout.readline() if ready else ""
            self.setup_s = time.perf_counter() - self._started
            if not line.startswith("serving"):
                raise RuntimeError(f"server {self.module_id} did not start: {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
        except BaseException:
            self.stop()
            raise

    def endpoint(self):
        from assistlearn import transport
        return transport.TcpEndpoint("127.0.0.1", self.port, self.module_id)

    def stop(self) -> dict:
        """Close its stdin (the launcher then stops ``serve`` as Ctrl-C
        would), wait, and return what it reported on exit."""
        self.proc.stdin.close()       # no-op when stop_all closed it already
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()
        try:
            return json.loads(self.stats_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}


def start(partitions, learner: str, trace: bool = False) -> list[Server]:
    """Launch one server per ``(module_id, csv_path)`` together; wait for all."""
    WORKDIR.mkdir(exist_ok=True)
    servers = []
    try:
        for module_id, csv_path in partitions:
            servers.append(Server(csv_path, learner, module_id, trace))
        for server in servers:
            server.wait_ready()
    except BaseException:
        stop_all(servers)
        raise
    return servers


def stop_all(running: list[Server]) -> list[dict]:
    """Stop several servers at once; returns their exit reports."""
    for server in running:
        server.proc.stdin.close()
    return [server.stop() for server in running]
