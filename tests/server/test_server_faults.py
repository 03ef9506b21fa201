"""Daemon under injected faults: mid-stream death, drops, stats counters.

Fault schedules are cumulative over the daemon's lifetime, so ``at=(N,)``
fires exactly once — the request after the faulted one is automatically
clean, which is exactly the "daemon keeps serving" property under test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.server import ReproServer, ServerClient, ServerError
from repro.service import Engine, ScenarioSpec

SYSTEM = {"system": {"system": "hirise"}}


def scenario(seed=0, n_frames=5, name=""):
    return ScenarioSpec.from_dict(
        {
            "source": {"name": "pedestrian", "params": {"resolution": [48, 36]}},
            "n_frames": n_frames,
            "seed": seed,
            "name": name or f"fault-{seed}",
        }
    )


def stream_plan(kind, *hits, delay_s=0.0) -> FaultPlan:
    return FaultPlan(
        name=f"stream-{kind}",
        seed=0,
        faults=(
            FaultSpec(
                site="server.stream", kind=kind, at=hits, delay_s=delay_s
            ),
        ),
    )


class TestMidStreamDeath:
    def test_worker_death_yields_typed_error_then_daemon_survives(self):
        # The stream dies after exactly 2 delivered frames; the client
        # gets a typed "internal" error — never a truncated stream or a
        # hung connection — and the daemon serves the next request.
        plan = stream_plan("worker-crash", 2)
        with ReproServer(
            SYSTEM, workers=1, executor="serial", faults=plan
        ) as server:
            with ServerClient(*server.address) as client:
                seen = []
                with pytest.raises(ServerError) as excinfo:
                    client.run_streaming(scenario(seed=1), on_stats=seen.append)
                assert excinfo.value.code == "internal"
                assert [s.frame_index for s in seen] == [0, 1]
                # same connection, same daemon: next request is clean
                follow_up = client.run_streaming(scenario(seed=2))
                assert follow_up.outcome.n_frames == 5

    def test_mid_stream_drop_replayed_bit_identically_by_retrying_client(self):
        # The socket drops after frame 0; a retrying client reconnects
        # and replays, and the reassembled result matches a fresh
        # fault-free engine bit for bit.
        spec = scenario(seed=3)
        want = Engine.from_spec(SYSTEM).run(spec)
        plan = stream_plan("socket-drop", 1)
        with ReproServer(
            SYSTEM, workers=1, executor="serial", faults=plan
        ) as server:
            with ServerClient(*server.address, max_retries=2) as client:
                result = client.run_streaming(spec)
                assert client.retry_stats["reconnect"] == 1
        assert result.outcome.frames == want.outcome.frames

    def test_reply_delay_stalls_but_completes(self):
        plan = FaultPlan(
            name="slow",
            seed=0,
            faults=(
                FaultSpec(
                    site="server.reply",
                    kind="reply-delay",
                    at=(0,),
                    delay_s=0.05,
                ),
            ),
        )
        with ReproServer(
            SYSTEM, workers=1, executor="serial", faults=plan
        ) as server:
            with ServerClient(*server.address) as client:
                result = client.run(scenario(seed=4))
                assert result.outcome.n_frames == 5


class TestResilienceStats:
    def test_fault_counters_surface_in_stats(self):
        plan = stream_plan("worker-crash", 0)
        with ReproServer(
            SYSTEM, workers=1, executor="serial", faults=plan
        ) as server:
            with ServerClient(*server.address) as client:
                with pytest.raises(ServerError):
                    client.run_streaming(scenario(seed=5))
                stats = client.stats()
        assert stats.resilience["faults"] == {
            "server.stream:worker-crash": 1
        }

    def test_no_plan_means_no_fault_counters(self):
        with ReproServer(SYSTEM, workers=1, executor="serial") as server:
            with ServerClient(*server.address) as client:
                client.run(scenario(seed=6))
                stats = client.stats()
        assert "faults" not in stats.resilience


class TestOneInjector:
    def test_server_fires_its_engines_injector(self):
        plan = FaultPlan(
            name="delays",
            seed=0,
            faults=(
                FaultSpec(site="server.reply", kind="reply-delay", at=(0,)),
                FaultSpec(site="server.stream", kind="reply-delay", at=(0,)),
            ),
        )
        engine = Engine.from_spec(SYSTEM, faults=plan)
        with ReproServer(engine, workers=1, executor="serial") as server:
            with ServerClient(*server.address) as client:
                client.run(scenario(seed=8))
                client.run_streaming(scenario(seed=9))
                stats = client.stats()
        # Both replies and all five streamed frames hit the engine's own
        # injector, and the stats report its tally.
        assert engine.faults.hits("server.reply") == 2
        assert engine.faults.hits("server.stream") == 5
        assert stats.resilience["faults"] == engine.faults.counters() == {
            "server.reply:reply-delay": 1,
            "server.stream:reply-delay": 1,
        }

    def test_faults_next_to_an_engine_rejected(self):
        engine = Engine.from_spec(SYSTEM)
        with pytest.raises(ValueError, match="faults"):
            ReproServer(engine, faults=stream_plan("socket-drop", 0))


class TestServeCommand:
    def test_fault_plan_arms_the_store(self, tmp_path):
        # `repro serve --store-dir D --fault-plan P` hands one injector to
        # the store and the engine: with every store write failing, one
        # request shows the fires and the store errors in the stats.
        plan = FaultPlan(
            name="no-put",
            seed=0,
            faults=(FaultSpec("store.put", "store-io-error", rate=1.0),),
        )
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan.to_dict()), encoding="utf-8")
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SYSTEM), encoding="utf-8")
        src = Path(__file__).resolve().parents[2] / "src"
        daemon = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", str(spec_path),
                "--executor", "serial",
                "--store-dir", str(tmp_path / "store"),
                "--fault-plan", str(plan_path),
            ],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            line = daemon.stdout.readline()
            while line and not line.startswith("serving "):
                line = daemon.stdout.readline()
            assert line.startswith("serving "), line
            host, port = line.split()[1].rsplit(":", 1)
            with ServerClient(host, int(port)) as client:
                client.run(scenario(seed=7))
                stats = client.stats()
                client.shutdown()
            assert daemon.wait(timeout=60) == 0
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()
            daemon.stdout.close()
        assert stats.resilience["faults"]["store.put:store-io-error"] >= 1
        assert stats.cache["store"]["errors"] >= 1
