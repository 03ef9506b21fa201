"""Single-flight on every serving path: concurrent requests build once.

Whichever path a request takes — ``Engine.run`` with or without a
streaming callback, the daemon's streamed and whole-result replies, the
process executor — it meets the engine's result tier, so of several
concurrent requests for one spec exactly one computes it and every other
one waits on that build and counts a hit.

The in-process tests gate a runtime-registered source on
``threading.Event``s (as ``tests/server/test_daemon.py`` does), so "a
build is in flight" is a state the test establishes.  Spawned workers do
not see runtime registrations, so the process-executor tests use the
built-in source and gate the parent's dispatch instead.
"""

import socket
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.server import ReproServer, ServerClient
from repro.server import daemon
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    RunRequest,
    StreamEnd,
    encode_frame,
    parse_frame,
    read_frame,
)
from repro.service import Engine, ProcessExecutor, ScenarioSpec, SOURCES
from repro.service.cache import CacheStats, SpecCache
from repro.stream import pedestrian_clip

SYSTEM = {"system": {"system": "hirise"}}


def tiny_scenario(source="pedestrian", seed=0, n_frames=3):
    return ScenarioSpec.from_dict(
        {
            "source": {"name": source, "params": {"resolution": [48, 36]}},
            "n_frames": n_frames,
            "seed": seed,
            "name": f"flight-{seed}",
        }
    )


def eventually(predicate, timeout_s=10.0) -> bool:
    """Poll for a state another thread establishes; ``False`` on timeout."""
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


class Caller(threading.Thread):
    """Run ``fn`` on a thread, keeping its return value or its error."""

    def __init__(self, fn):
        super().__init__(daemon=True)
        self.fn = fn
        self.value = None
        self.error = None

    def run(self):
        try:
            self.value = self.fn()
        except BaseException as exc:  # noqa: BLE001 - re-raised by result()
            self.error = exc

    def result(self, timeout_s=60.0):
        self.join(timeout_s)
        assert not self.is_alive(), "caller hung"
        if self.error is not None:
            raise self.error
        return self.value


@pytest.fixture
def gated_source():
    """A source whose builds block until the test releases them.

    ``started`` is set the moment a build begins; ``builds`` counts them;
    with ``fail_first`` the first build raises once released.
    """
    gate = SimpleNamespace(
        name="flight-gated-pedestrian",
        started=threading.Event(),
        release=threading.Event(),
        builds=0,
        fail_first=False,
    )

    @SOURCES.register(gate.name)
    def build(n_frames, seed, **params):
        gate.builds += 1
        gate.started.set()
        assert gate.release.wait(timeout=30), "gated source never released"
        if gate.fail_first and gate.builds == 1:
            raise RuntimeError("first build fails")
        return pedestrian_clip(n_frames=n_frames, resolution=(48, 36), seed=seed)

    yield gate
    gate.release.set()
    del SOURCES[gate.name]  # bumps the registry epoch: cold-starts caches


@pytest.fixture(scope="module")
def process_pool():
    """One spawn pool for the module (spawning is the slow part)."""
    with ProcessExecutor(workers=1) as pool:
        yield pool


class TestClaimSettle:
    def test_many_threads_build_each_key_once(self):
        # More callers than cores, mixing get_or_build (Engine.run's path)
        # with claim/settle (the process executor's), under a short switch
        # interval so claims and settles interleave as much as they can.
        tier = SpecCache("result", capacity=8)
        keys = [f"k{i}" for i in range(3)]
        builds = {key: 0 for key in keys}
        builds_lock = threading.Lock()

        def build(key):
            with builds_lock:
                builds[key] += 1
            time.sleep(0.001)
            return f"value-{key}"

        def call(n):
            key = keys[n % len(keys)]
            if n % 2:
                return key, tier.get_or_build(key, lambda: build(key))
            entry, owner = tier.claim(key)
            if owner:
                tier.settle(key, entry, build(key))
            return key, entry.result()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [Caller(lambda n=n: call(n)) for n in range(24)]
            for caller in callers:
                caller.start()
            answers = [caller.result(timeout_s=30) for caller in callers]
        finally:
            sys.setswitchinterval(interval)
        assert all(value == f"value-{key}" for key, value in answers)
        assert builds == {key: 1 for key in keys}
        assert (tier.stats.misses, tier.stats.hits) == (3, 21)
        assert tier.sizes()[0] == 3


class TestEngineRun:
    def test_concurrent_streamed_runs_build_once(self, gated_source):
        engine = Engine.from_spec(SYSTEM)
        spec = tiny_scenario(gated_source.name, seed=1)
        rows_a, rows_b = [], []
        a = Caller(lambda: engine.run(spec, on_stats=rows_a.append))
        b = Caller(lambda: engine.run(spec, on_stats=rows_b.append))
        try:
            a.start()
            assert gated_source.started.wait(timeout=10)  # a owns the build
            b.start()
            assert eventually(lambda: engine.cache.results.stats.hits == 1)
        finally:
            gated_source.release.set()
        result = a.result()
        assert b.result() is result
        stats = engine.cache.stats().results
        assert (stats.misses, stats.hits) == (1, 1)
        # The owner streamed live, the waiter replayed: same rows.
        assert rows_a == rows_b == list(result.outcome.frames)
        assert gated_source.builds == 1

    @pytest.mark.parametrize("failure", ["source", "stream"])
    def test_failed_build_reaches_every_waiter_then_recomputes(
        self, gated_source, failure
    ):
        engine = Engine.from_spec(SYSTEM)
        spec = tiny_scenario(gated_source.name, seed=3)

        def stream_dies(stats):
            raise RuntimeError("stream died")

        if failure == "source":
            gated_source.fail_first = True
            owner = Caller(lambda: engine.run(spec))
        else:
            # A streamed owner dying mid-stream, as the daemon's stream
            # fault site makes it.
            owner = Caller(lambda: engine.run(spec, on_stats=stream_dies))
        waiter = Caller(lambda: engine.run(spec))
        try:
            owner.start()
            assert gated_source.started.wait(timeout=10)
            waiter.start()
            assert eventually(lambda: engine.cache.results.stats.hits == 1)
        finally:
            gated_source.release.set()
        for caller in (owner, waiter):
            with pytest.raises(RuntimeError, match="first build fails|stream died"):
                caller.result()
        # The failed entry was dropped: the next request owns the key again.
        retried = engine.run(spec)
        assert retried.outcome.n_frames == spec.n_frames
        stats = engine.cache.stats().results
        assert (stats.misses, stats.hits) == (2, 1)


class TestDaemon:
    @pytest.mark.parametrize("first", ["stream", "whole"])
    def test_streamed_and_whole_result_requests_compute_once(
        self, gated_source, first
    ):
        spec = tiny_scenario(gated_source.name, seed=2)
        rows = []

        def streamed():
            with ServerClient(*server.address) as client:
                return client.run_streaming(spec, on_stats=rows.append)

        def whole():
            with ServerClient(*server.address) as client:
                return client.run(spec)

        callers = {"stream": Caller(streamed), "whole": Caller(whole)}
        second = "whole" if first == "stream" else "stream"
        with ReproServer(SYSTEM, workers=2, executor="thread") as server:
            tier = server.engine.cache.results
            before = tier.stats.snapshot()
            try:
                callers[first].start()
                assert gated_source.started.wait(timeout=10)
                callers[second].start()
                assert eventually(lambda: tier.stats.hits - before.hits == 1)
            finally:
                gated_source.release.set()
            streamed_result = callers["stream"].result()
            whole_result = callers["whole"].result()
            moved = tier.stats - before
        assert (moved.misses, moved.hits) == (1, 1)
        assert gated_source.builds == 1
        assert rows == list(whole_result.outcome.frames)
        assert streamed_result.outcome.frames == whole_result.outcome.frames


    def test_stalled_stream_reader_does_not_hold_the_shared_build(
        self, gated_source, monkeypatch
    ):
        # A streamed request owns the build, then its client stops
        # reading.  A whole-result request waiting on that build must
        # still finish: the compute never writes to the stalled socket.
        # Both ends' socket buffers are shrunk so a few hundred rows fill
        # them, as a stream over MAX_FRAME_BYTES fills default-sized ones.
        accept = daemon._Connection.__init__

        def small_send_buffer(connection, sock):
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            accept(connection, sock)

        monkeypatch.setattr(daemon._Connection, "__init__", small_send_buffer)
        spec = tiny_scenario(gated_source.name, seed=4, n_frames=500)

        def whole():
            with ServerClient(*server.address) as client:
                return client.run(spec)

        with ReproServer(SYSTEM, workers=2, executor="thread") as server:
            tier = server.engine.cache.results
            with socket.socket() as stalled:
                stalled.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                stalled.connect(server.address)
                request = RunRequest(id="stalled", scenario=spec, stream=True)
                stalled.sendall(encode_frame(request))
                waiter = Caller(whole)
                try:
                    assert gated_source.started.wait(timeout=10)
                    waiter.start()
                    assert eventually(lambda: tier.stats.hits == 1)
                finally:
                    gated_source.release.set()
                result = waiter.result(timeout_s=30)
                # The stalled client reads at last: every row, then the end.
                rows = []
                with stalled.makefile("rb") as reader:
                    while True:
                        frame = parse_frame(read_frame(reader, MAX_FRAME_BYTES))
                        if isinstance(frame, StreamEnd):
                            break
                        rows.append(frame.stats)
        assert rows == list(result.outcome.frames)
        assert gated_source.builds == 1


class TestProcessExecutor:
    def test_concurrent_batches_compute_once(self, process_pool, monkeypatch):
        engine = Engine.from_spec(SYSTEM)
        spec = tiny_scenario(seed=7)
        started, release = threading.Event(), threading.Event()
        ensure_pool = process_pool._ensure_pool

        def gated_ensure_pool():
            # The first dispatch waits for the test: its claim is in flight.
            if not started.is_set():
                started.set()
                assert release.wait(timeout=30)
            return ensure_pool()

        monkeypatch.setattr(process_pool, "_ensure_pool", gated_ensure_pool)
        deltas = [CacheStats.zero(), CacheStats.zero()]
        a = Caller(lambda: process_pool.execute(engine, [spec], cache_delta=deltas[0]))
        b = Caller(lambda: process_pool.execute(engine, [spec], cache_delta=deltas[1]))
        try:
            a.start()
            assert started.wait(timeout=10)
            b.start()
            assert eventually(lambda: engine.cache.results.stats.hits == 1)
        finally:
            release.set()
        [first] = a.result()
        [second] = b.result()
        assert second is first
        stats = engine.cache.stats().results
        assert (stats.misses, stats.hits) == (1, 1)
        assert (deltas[0].results.misses, deltas[0].results.hits) == (1, 0)
        assert (deltas[1].results.misses, deltas[1].results.hits) == (0, 1)

    def test_failed_dispatch_settles_every_owned_claim(self, monkeypatch):
        engine = Engine.from_spec(SYSTEM)
        specs = [tiny_scenario(seed=8), tiny_scenario(seed=8), tiny_scenario(seed=9)]
        started, release = threading.Event(), threading.Event()

        def broken_pool():
            started.set()
            assert release.wait(timeout=30)
            raise RuntimeError("no pool")

        pool = ProcessExecutor(workers=1)
        monkeypatch.setattr(pool, "_ensure_pool", broken_pool)
        batch = Caller(lambda: pool.execute(engine, specs))
        # Another caller waiting on one of the batch's claims must not hang.
        waiter = Caller(lambda: engine.run(specs[2]))
        try:
            batch.start()
            assert started.wait(timeout=10)
            waiter.start()
            # The in-batch duplicate and the waiter: two hits.
            assert eventually(lambda: engine.cache.results.stats.hits == 2)
        finally:
            release.set()
        for caller in (batch, waiter):
            with pytest.raises(RuntimeError, match="no pool"):
                caller.result()
        for key in {engine.result_key_for(spec) for spec in specs}:
            _, owner = engine.cache.results.claim(key)
            assert owner, "a claim was left in flight"
