"""Fixtures shared by the test modules."""

import socket

import pytest

from assistlearn import transport


class _RecordingSocketModule:
    """Stands in for ``transport``'s ``socket`` global and keeps every
    connection that ``TcpEndpoint`` opens."""

    def __init__(self):
        self.opened = []

    def create_connection(self, *args, **kwargs):
        conn = socket.create_connection(*args, **kwargs)
        self.opened.append(conn)
        return conn

    def __getattr__(self, name):
        return getattr(socket, name)


@pytest.fixture
def connections(monkeypatch):
    """The client connections opened while the test runs, in order."""
    recorder = _RecordingSocketModule()
    monkeypatch.setattr(transport, "socket", recorder)
    return recorder.opened
