"""The benchmark's tracer must still find every name it wraps.

``perfbench/tracer.py`` patches functions and methods across the package
from outside. A refactor that moves or renames one of them breaks the
benchmark; this test catches that in the fast suite. It starts no process
and opens no socket.
"""

import importlib.util
from pathlib import Path

from assistlearn import core, data, learners, nn_protocol, protocol, transport

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
OWNERS = (core, data, learners, nn_protocol, protocol, transport,
          core.FeaturePartition, core.TaskLabels, transport.Envelope,
          transport.InProcEndpoint, transport.TcpEndpoint,
          transport.ModuleResponder)


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_patched_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # install() imports servers
    tracing = _load_tracer()
    before = {owner: dict(vars(owner)) for owner in OWNERS}
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)  # a missing name raises here
        patched = list(tracer._patches)
        assert patched
        for owner, attr, original in patched:
            current = vars(owner)[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            assert current is not original, f"{owner!r}.{attr} not wrapped"
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, f"{owner!r}.{attr} not restored"
    for owner, attrs in before.items():
        after = vars(owner)
        assert after.keys() == attrs.keys()
        for name, value in attrs.items():
            assert after[name] is value, f"{owner!r}.{name} changed"
