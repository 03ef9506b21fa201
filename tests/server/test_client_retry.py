"""Retrying client: typed close error, reconnect, backoff determinism.

Faults are injected server-side through the fault plan handed to
:class:`ReproServer` (``faults=``), so "the connection drops" is a
deterministic event at a scheduled reply hit — no real network flakes.
"""

import pytest

import repro
from repro.faults import FaultPlan, FaultSpec
from repro.server import (
    BadRequestError,
    ReproServer,
    ServerClient,
    ServerClosedError,
)
from repro.service import ScenarioSpec

SYSTEM = {"system": {"system": "hirise"}}


def tiny_scenario(seed=0, n_frames=3, name=""):
    return ScenarioSpec.from_dict(
        {
            "source": {"name": "pedestrian", "params": {"resolution": [48, 36]}},
            "n_frames": n_frames,
            "seed": seed,
            "name": name or f"retry-{seed}",
        }
    )


def drop_first_reply() -> FaultPlan:
    """Server closes the connection instead of sending its first reply."""
    return FaultPlan(
        name="drop-first",
        seed=0,
        faults=(
            FaultSpec(site="server.reply", kind="socket-drop", at=(0,)),
        ),
    )


class TestServerClosedError:
    def test_is_a_connection_error(self):
        assert issubclass(ServerClosedError, ConnectionError)
        assert repro.ServerClosedError is ServerClosedError

    def test_raised_when_server_drops_mid_request(self):
        server = ReproServer(
            SYSTEM, workers=1, executor="serial", faults=drop_first_reply()
        )
        with server:
            with ServerClient(*server.address) as client:
                with pytest.raises(ConnectionError):
                    client.run(tiny_scenario())


class TestReconnect:
    def test_retry_survives_a_dropped_reply(self):
        # Hit 0 of server.reply drops the socket; the retrying client
        # reconnects, replays, and gets the same answer a clean daemon
        # would have produced.
        with ReproServer(SYSTEM, workers=1, executor="serial") as clean:
            with ServerClient(*clean.address) as client:
                want = client.run(tiny_scenario())
        server = ReproServer(
            SYSTEM, workers=1, executor="serial", faults=drop_first_reply()
        )
        with server:
            client = ServerClient(*server.address, max_retries=2)
            with client:
                got = client.run(tiny_scenario())
                assert client.retry_stats["reconnect"] == 1
                # connection is live again after the transparent replay
                assert client.ping()
        assert got.outcome.frames == want.outcome.frames

    def test_zero_retries_keeps_failing_fast(self):
        server = ReproServer(
            SYSTEM, workers=1, executor="serial", faults=drop_first_reply()
        )
        with server:
            with ServerClient(*server.address, max_retries=0) as client:
                with pytest.raises(ConnectionError):
                    client.run(tiny_scenario())
                assert client.retry_stats["reconnect"] == 0

    def test_bad_requests_are_never_retried(self):
        # A deterministic rejection must surface immediately: retrying
        # an invalid request can only waste the budget.
        with ReproServer(SYSTEM, workers=1, executor="serial") as server:
            with ServerClient(*server.address, max_retries=3) as client:
                bad = tiny_scenario().to_dict()
                bad["source"] = {"name": "webcam", "params": {}}
                with pytest.raises(BadRequestError):
                    client.run(bad)
                assert client.retry_stats == {"backpressure": 0, "reconnect": 0}


class TestBackoff:
    def test_same_seed_same_backoff_sequence(self):
        a = ServerClient("localhost", 1, retry_seed=42)
        b = ServerClient("localhost", 1, retry_seed=42)
        assert [a._backoff_s(i) for i in range(6)] == [
            b._backoff_s(i) for i in range(6)
        ]

    def test_backoff_grows_then_caps(self):
        client = ServerClient(
            "localhost", 1, backoff_base_s=0.1, backoff_cap_s=0.5
        )
        delays = [client._backoff_s(i) for i in range(10)]
        assert all(0 < d <= 0.5 for d in delays)
        # the uncapped window doubles per try; by try 3 the 0.5s cap rules
        assert max(delays[3:]) <= 0.5

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            ServerClient("localhost", 1, max_retries=-1)
        with pytest.raises(ValueError, match="backoff"):
            ServerClient("localhost", 1, backoff_base_s=-0.1)
