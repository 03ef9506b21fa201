"""Daemon lifecycle: start/stop, admission control, timeouts, drain.

The deterministic tests gate a runtime-registered source on
``threading.Event``s, so "a request is in flight" / "the queue is full"
are *states the test establishes*, never sleeps racing the scheduler.
Runtime registrations don't survive process spawn, so every daemon here
uses in-process executors (serial/thread).
"""

import socket
import threading
from types import SimpleNamespace

import pytest

from repro.server import (
    BackpressureError,
    BadRequestError,
    ReproServer,
    RequestTimeoutError,
    ServerClient,
    ServerError,
    ServerShuttingDownError,
    wait_for_server,
)
from repro.server.protocol import (
    ResultResponse,
    RunRequest,
    encode_frame,
    parse_frame,
    read_frame,
)
from repro.service import Engine, ScenarioSpec, SOURCES
from repro.stream import pedestrian_clip

SYSTEM = {"system": {"system": "hirise"}}
TINY_SOURCE = {"name": "pedestrian", "params": {"resolution": [48, 36]}}


def tiny_scenario(seed=0, n_frames=3, source="pedestrian", name=""):
    return ScenarioSpec.from_dict(
        {
            "source": {"name": source, "params": {"resolution": [48, 36]}},
            "n_frames": n_frames,
            "seed": seed,
            "name": name or f"tiny-{seed}",
        }
    )


@pytest.fixture
def gated_source():
    """A source whose build blocks until the test releases it.

    ``started`` is set the moment a worker enters the build, so tests can
    deterministically establish "a request is computing right now".
    """
    gate = SimpleNamespace(
        name="gated-pedestrian",
        started=threading.Event(),
        release=threading.Event(),
    )

    @SOURCES.register(gate.name)
    def build(n_frames, seed, **params):
        gate.started.set()
        assert gate.release.wait(timeout=30), "gated source never released"
        return pedestrian_clip(n_frames=n_frames, resolution=(48, 36), seed=seed)

    yield gate
    gate.release.set()
    del SOURCES[gate.name]  # bumps the registry epoch: cold-starts caches


def raw_socket(server):
    sock = socket.create_connection(server.address, timeout=10)
    return sock, sock.makefile("rb")


class TestLifecycle:
    def test_start_serve_stop(self):
        with ReproServer(SYSTEM, workers=2, executor="thread") as server:
            host, port = server.address
            assert port > 0
            assert wait_for_server(host, port, timeout_s=5)
            with ServerClient(host, port) as client:
                assert client.ping()
        assert server.wait(timeout=0)  # context exit drained and stopped
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=0.5)

    def test_shutdown_is_idempotent(self):
        server = ReproServer(SYSTEM, workers=1, executor="serial").start()
        server.shutdown()
        server.shutdown()
        assert server.wait(timeout=0)

    def test_client_shutdown_frame_stops_daemon(self):
        server = ReproServer(SYSTEM, workers=1, executor="serial").start()
        with ServerClient(*server.address) as client:
            assert "shutting down" in client.shutdown()
        assert server.wait(timeout=10)

    def test_double_start_rejected(self):
        server = ReproServer(SYSTEM, workers=1, executor="serial").start()
        try:
            with pytest.raises(RuntimeError, match="already started"):
                server.start()
        finally:
            server.shutdown()

    def test_constructor_validates_knobs(self):
        with pytest.raises(ValueError, match="queue_size"):
            ReproServer(SYSTEM, queue_size=0)
        with pytest.raises(ValueError, match="workers"):
            ReproServer(SYSTEM, workers=0)

    def test_accepts_prebuilt_engine(self):
        engine = Engine.from_spec(SYSTEM)
        with ReproServer(engine, workers=1, executor="serial") as server:
            with ServerClient(*server.address) as client:
                result = client.run(tiny_scenario(seed=3))
        # Same engine, same cache: the daemon's run landed in it.
        assert engine.cache.results.stats.misses >= 1
        assert result.outcome.n_frames == 3


class TestRequests:
    def test_result_bit_identical_to_fresh_serial_engine(self):
        scenario = tiny_scenario(seed=11, n_frames=4)
        with ReproServer(SYSTEM, workers=2, executor="thread") as server:
            with ServerClient(*server.address) as client:
                served = client.run(scenario)
        fresh = Engine.from_spec(SYSTEM).run(scenario)
        assert served.scenario == scenario
        assert served.outcome.frames == fresh.outcome.frames
        assert served.outcome.system == fresh.outcome.system

    def test_repeat_request_is_pure_cache_hit(self):
        scenario = tiny_scenario(seed=12)
        with ReproServer(SYSTEM, workers=1, executor="serial") as server:
            with ServerClient(*server.address) as client:
                first = client.run(scenario)
                before = client.stats().cache["results"]
                second = client.run(scenario)
                after = client.stats().cache["results"]
        assert second.outcome == first.outcome  # incl. wall_time: memoized
        assert after["hits"] == before["hits"] + 1
        assert after["misses"] == before["misses"]

    def test_concurrent_clients_bit_identical_to_serial_runs(self):
        scenarios = [tiny_scenario(seed=s, n_frames=3) for s in (0, 1, 2)]
        results = {}
        errors = []

        def hammer(worker_id, server):
            try:
                with ServerClient(*server.address) as client:
                    # Each client runs every scenario; overlapping identical
                    # requests exercise the shared warm cache.
                    results[worker_id] = [client.run(s) for s in scenarios]
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        with ReproServer(SYSTEM, workers=4, executor="thread") as server:
            threads = [
                threading.Thread(target=hammer, args=(n, server)) for n in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        assert not errors
        fresh_engine = Engine.from_spec(SYSTEM)
        fresh = [fresh_engine.run(s) for s in scenarios]
        assert sorted(results) == [0, 1, 2]
        for served in results.values():
            for got, want in zip(served, fresh):
                assert got.outcome.frames == want.outcome.frames

    @pytest.mark.parametrize(
        "system, scenario",
        [
            (SYSTEM, {"source": {"name": "no-such-source"}}),
            (
                {"system": {"system": "hirise", "noise": {}}},
                {"source": TINY_SOURCE, "n_frames": 2, "frame_seeds": [-1, -2]},
            ),
            (
                {
                    "system": {
                        "system": "hirise",
                        "classifier": {"name": "tiny-cnn", "params": {"width": 0}},
                    }
                },
                {"source": TINY_SOURCE, "n_frames": 2},
            ),
        ],
        ids=["unknown-source", "negative-frame-seeds", "tiny-cnn-width-0"],
    )
    def test_unknown_component_is_typed_bad_request(self, system, scenario):
        """A request the daemon cannot serve is answered ``bad-request``,
        never ``internal``.  It goes out as a raw frame: the client's own
        spec check would refuse a negative seed before it is sent."""
        with ReproServer(system, workers=1, executor="serial") as server:
            with ServerClient(*server.address) as client:
                client._send({"type": "run", "id": "bad", "scenario": scenario})
                with pytest.raises(BadRequestError) as exc:
                    client._expect("bad", ResultResponse)
                assert exc.value.code == "bad-request"
                assert client.ping()  # connection survives the rejection

    def test_truncated_frame_drops_only_that_connection(self):
        """A peer that dies mid-frame is gone: the daemon closes the
        connection without an answer, and keeps serving others."""
        with ReproServer(SYSTEM, workers=1, executor="serial") as server:
            sock, reader = raw_socket(server)
            try:
                sock.sendall(b'{"type": "ping", "id": "cut')
                sock.shutdown(socket.SHUT_WR)
                assert reader.read() == b""
            finally:
                sock.close()
            with ServerClient(*server.address) as client:
                assert client.ping()

    def test_malformed_frame_keeps_connection_alive(self):
        with ReproServer(SYSTEM, workers=1, executor="serial") as server:
            sock, reader = raw_socket(server)
            try:
                sock.sendall(b"this is not json\n")
                error = parse_frame(read_frame(reader))
                assert error.type == "error" and error.code == "bad-frame"
                sock.sendall(b'{"type": "warp", "id": "x"}\n')
                error = parse_frame(read_frame(reader))
                assert error.code == "bad-frame"
                assert "unknown frame type" in error.message
                sock.sendall(encode_frame({"type": "ping", "id": "still-alive"}))
                pong = parse_frame(read_frame(reader))
                assert pong.type == "pong" and pong.id == "still-alive"
            finally:
                sock.close()

    @pytest.mark.parametrize(
        "line",
        [
            # A non-string discriminator once killed the handler thread
            # (unhashable dict key), so the client read EOF.
            b'{"type": ["run"], "id": "x"}',
            b'{"type": {"run": 1}, "id": "x"}',
            # A NaN deadline passed "<= 0" and timed out at once while the
            # job kept running; Infinity overflowed Future.result.
            b'{"type": "run", "id": "x", "scenario": {}, "timeout_s": NaN}',
            b'{"type": "run", "id": "x", "scenario": {}, "timeout_s": Infinity}',
            b'{"type": "run", "id": "x", "scenario": {}, "timeout_s": -Infinity}',
            b'{"type": "run", "id": "x", "scenario": {}, "timeout_s": 1e300}',
            b'{"type": "ping", "id": 1' + b"0" * 5000 + b"}",
            b"[" * 100_000,
        ],
        ids=[
            "list-type", "dict-type", "nan-timeout", "inf-timeout",
            "neg-inf-timeout", "huge-timeout", "huge-int", "deep-nesting",
        ],
    )
    def test_malformed_line_earns_bad_frame_then_ping_pongs(self, line):
        with ReproServer(SYSTEM, workers=1, executor="serial") as server:
            sock, reader = raw_socket(server)
            try:
                sock.sendall(line + b"\n")
                error = parse_frame(read_frame(reader))
                assert error.type == "error" and error.code == "bad-frame"
                sock.sendall(encode_frame({"type": "ping", "id": "after"}))
                pong = parse_frame(read_frame(reader))
                assert pong.type == "pong" and pong.id == "after"
            finally:
                sock.close()

    def test_oversized_frame_rejected_without_killing_connection(self):
        with ReproServer(
            SYSTEM, workers=1, executor="serial", max_frame_bytes=512
        ) as server:
            sock, reader = raw_socket(server)
            try:
                huge = b'{"type": "ping", "id": "' + b"x" * 2048 + b'"}\n'
                sock.sendall(huge)
                error = parse_frame(read_frame(reader))
                assert error.type == "error" and error.code == "oversized"
                sock.sendall(encode_frame({"type": "ping", "id": "ok"}))
                assert parse_frame(read_frame(reader)).type == "pong"
            finally:
                sock.close()

    def test_oversized_result_is_typed_error_suggesting_streaming(self):
        # The ledger of even a short run overflows a tiny outgoing budget;
        # the daemon must answer a typed error, not a broken half-frame.
        with ReproServer(
            SYSTEM, workers=1, executor="serial", max_frame_bytes=700
        ) as server:
            with ServerClient(
                *server.address, max_frame_bytes=8 * 1024 * 1024
            ) as client:
                with pytest.raises(ServerError) as exc:
                    client.run(tiny_scenario(seed=5, n_frames=8))
                assert exc.value.code == "oversized"
                assert "streaming" in str(exc.value)


class TestBackpressure:
    def test_queue_full_rejection_is_deterministic(self, gated_source):
        with ReproServer(
            SYSTEM, workers=1, executor="serial", queue_size=1
        ) as server:
            a = ServerClient(*server.address).connect()
            b = ServerClient(*server.address).connect()
            c = ServerClient(*server.address).connect()
            try:
                # Request 1: admitted, picked up by the single worker, now
                # blocked inside the gated build (queue back to empty).
                r1 = {}
                t1 = threading.Thread(
                    target=lambda: r1.setdefault(
                        "result", a.run(tiny_scenario(seed=1, source=gated_source.name))
                    )
                )
                t1.start()
                assert gated_source.started.wait(timeout=10)
                # Request 2: admitted, fills the queue_size=1 queue.
                r2 = {}
                t2 = threading.Thread(
                    target=lambda: r2.setdefault(
                        "result", b.run(tiny_scenario(seed=2, source=gated_source.name))
                    )
                )
                t2.start()
                deadline = threading.Event()
                for _ in range(200):
                    if c.stats().queue_depth == 1:
                        break
                    deadline.wait(0.02)
                assert c.stats().queue_depth == 1
                # Request 3: the queue is provably full -> typed rejection,
                # immediately, without waiting on the gate.
                with pytest.raises(BackpressureError) as exc:
                    c.run(tiny_scenario(seed=3, source=gated_source.name))
                assert exc.value.code == "queue-full"
                # Open the gate: both admitted requests complete normally.
                gated_source.release.set()
                t1.join(timeout=30)
                t2.join(timeout=30)
                assert r1["result"].outcome.n_frames == 3
                assert r2["result"].outcome.n_frames == 3
            finally:
                gated_source.release.set()
                for cl in (a, b, c):
                    cl.close()


class TestTimeout:
    def test_per_request_timeout_fires(self, gated_source):
        with ReproServer(SYSTEM, workers=1, executor="serial") as server:
            with ServerClient(*server.address) as client:
                with pytest.raises(RequestTimeoutError) as exc:
                    client.run(
                        tiny_scenario(seed=1, source=gated_source.name),
                        timeout_s=0.2,
                    )
                assert exc.value.code == "timeout"
                # The connection stays usable after the timeout error.
                assert client.ping()
                gated_source.release.set()

    def test_server_default_timeout_applies(self, gated_source):
        with ReproServer(
            SYSTEM, workers=1, executor="serial", request_timeout_s=0.2
        ) as server:
            with ServerClient(*server.address) as client:
                with pytest.raises(RequestTimeoutError):
                    client.run(tiny_scenario(seed=1, source=gated_source.name))
                gated_source.release.set()


class TestDrain:
    def test_graceful_drain_completes_inflight_and_queued(self, gated_source):
        server = ReproServer(
            SYSTEM, workers=1, executor="serial", queue_size=4
        ).start()
        a = ServerClient(*server.address).connect()
        b = ServerClient(*server.address).connect()
        watcher = ServerClient(*server.address).connect()
        try:
            s1 = tiny_scenario(seed=1, source=gated_source.name)
            s2 = tiny_scenario(seed=2, source=gated_source.name)
            r1, r2 = {}, {}
            t1 = threading.Thread(target=lambda: r1.setdefault("v", a.run(s1)))
            t1.start()
            assert gated_source.started.wait(timeout=10)  # s1 is computing
            t2 = threading.Thread(target=lambda: r2.setdefault("v", b.run(s2)))
            t2.start()
            for _ in range(200):
                if watcher.stats().queue_depth == 1:
                    break
                threading.Event().wait(0.02)
            assert watcher.stats().queue_depth == 1  # s2 is queued

            drained = threading.Event()
            stopper = threading.Thread(
                target=lambda: (server.shutdown(drain=True), drained.set())
            )
            stopper.start()
            # Drain must WAIT for the gated work, not kill it.
            assert not drained.wait(timeout=0.3)
            gated_source.release.set()
            stopper.join(timeout=30)
            assert drained.is_set()
            t1.join(timeout=30)
            t2.join(timeout=30)
            # Both the in-flight and the queued request completed, correctly.
            fresh = Engine.from_spec(SYSTEM)
            gated_source.release.set()  # fresh engine hits the gate too
            assert r1["v"].outcome.frames == fresh.run(s1).outcome.frames
            assert r2["v"].outcome.frames == fresh.run(s2).outcome.frames
        finally:
            gated_source.release.set()
            for cl in (a, b, watcher):
                cl.close()
            server.shutdown()

    def test_cancelled_request_is_answered_once(self, gated_source):
        server = ReproServer(
            SYSTEM, workers=1, executor="serial", queue_size=4
        ).start()
        runner = ServerClient(*server.address).connect()
        watcher = ServerClient(*server.address).connect()
        sock, reader = raw_socket(server)
        try:
            result = {}
            t = threading.Thread(
                target=lambda: result.setdefault(
                    "v", runner.run(tiny_scenario(seed=1, source=gated_source.name))
                )
            )
            t.start()
            assert gated_source.started.wait(timeout=10)  # A is computing
            sock.sendall(encode_frame(RunRequest(id="B", scenario=tiny_scenario(seed=2))))
            for _ in range(200):
                if watcher.stats().queue_depth == 1:
                    break
                threading.Event().wait(0.02)
            assert watcher.stats().queue_depth == 1  # B is queued
            stopper = threading.Thread(target=lambda: server.shutdown(drain=False))
            stopper.start()
            frames = [parse_frame(read_frame(reader))]  # B is cancelled
            gated_source.release.set()
            stopper.join(timeout=30)
            assert not stopper.is_alive()
            t.join(timeout=30)
            # Everything else the connection carries until the daemon
            # closes it: no second answer for B.
            while (data := read_frame(reader)) is not None:
                frames.append(parse_frame(data))
            assert [(f.type, f.id, f.code) for f in frames] == [
                ("error", "B", "shutting-down")
            ]
            assert result["v"].outcome.n_frames == 3
        finally:
            gated_source.release.set()
            sock.close()
            for cl in (runner, watcher):
                cl.close()
            server.shutdown()

    def test_draining_daemon_rejects_new_runs(self, gated_source):
        server = ReproServer(SYSTEM, workers=1, executor="serial").start()
        runner = ServerClient(*server.address).connect()
        probe = ServerClient(*server.address).connect()
        try:
            result = {}
            t = threading.Thread(
                target=lambda: result.setdefault(
                    "v", runner.run(tiny_scenario(seed=1, source=gated_source.name))
                )
            )
            t.start()
            assert gated_source.started.wait(timeout=10)
            stopper = threading.Thread(target=lambda: server.shutdown(drain=True))
            stopper.start()
            for _ in range(200):
                if probe.stats().draining:
                    break
                threading.Event().wait(0.02)
            assert probe.stats().draining
            with pytest.raises(ServerShuttingDownError):
                probe.run(tiny_scenario(seed=9))
            gated_source.release.set()
            stopper.join(timeout=30)
            t.join(timeout=30)
            assert result["v"].outcome.n_frames == 3
        finally:
            gated_source.release.set()
            for cl in (runner, probe):
                cl.close()
            server.shutdown()
