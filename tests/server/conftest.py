"""Shared fixtures of the network-server suite: loopback daemon factories."""

from __future__ import annotations

import pytest

from _server_helpers import event_config
from repro.server.router import RouterThread
from repro.server.server import ServerConfig, ServerThread
from repro.service.pool import DetectorPool, PoolConfig


@pytest.fixture
def loopback():
    """Factory: start a loopback server; all started servers stop at teardown."""
    threads: list[ServerThread] = []

    def start(pool_config: PoolConfig | None = None, server_config: ServerConfig | None = None):
        thread = ServerThread(DetectorPool(pool_config or event_config()), server_config)
        threads.append(thread)
        host, port = thread.start()
        return thread, host, port

    yield start
    for thread in threads:
        thread.stop()


@pytest.fixture(params=["server", "router"])
def daemon(request, loopback):
    """Factory: ``(host, port)`` of a loopback server, or of a router in
    front of one — the client-facing checks both daemons share run
    against each."""
    routers: list[RouterThread] = []

    def start(pool_config: PoolConfig | None = None):
        _, host, port = loopback(pool_config)
        if request.param == "server":
            return host, port
        router = RouterThread([f"{host}:{port}"])
        routers.append(router)
        return router.start()

    yield start
    for router in routers:
        router.stop()
