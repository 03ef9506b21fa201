"""Windowed scenarios through the live daemon: stream order + bit-identity.

A windowed runner binds a window of frames up front, then serves them
one at a time: each frame runs its stages and its stats row is recorded
before the next frame starts.  This suite pins down the serving-layer
contract that windowing must not disturb: streamed :class:`FrameStats`
rows arrive one per frame, in frame order, and the reassembled result
equals both the daemon's own non-streaming reply and a fresh serial
engine — exactly.
"""

import pytest

from repro.server import ReproServer, ServerClient
from repro.service import Engine, ScenarioSpec
from repro.stream import FrameStats

SYSTEM = {"system": {"system": "hirise"}}
N_FRAMES = 6


def scenario(seed=0, window=4, policy="none"):
    return ScenarioSpec.from_dict(
        {
            "source": {"name": "pedestrian", "params": {"resolution": [48, 36]}},
            "n_frames": N_FRAMES,
            "seed": seed,
            "policy": {"name": policy},
            "window": window,
            "name": f"windowed-{policy}-{window}-{seed}",
        }
    )


@pytest.fixture(scope="module")
def server():
    with ReproServer(SYSTEM, workers=2, executor="thread") as srv:
        yield srv


class TestWindowedStreaming:
    @pytest.mark.parametrize("policy", ["none", "temporal-reuse"])
    def test_rows_arrive_per_frame_and_in_order(self, server, policy):
        """A window flush must not batch, drop, or reorder streamed rows."""
        spec = scenario(seed=1, window=4, policy=policy)
        rows = []
        with ServerClient(*server.address) as client:
            result = client.run_streaming(spec, on_stats=rows.append)
        assert [r.frame_index for r in rows] == list(range(N_FRAMES))
        assert all(isinstance(r, FrameStats) for r in rows)
        assert rows == result.outcome.frames

    def test_stream_reassembles_equal_to_whole_result(self, server):
        spec = scenario(seed=2, window=3)
        with ServerClient(*server.address) as client:
            streamed = client.run_streaming(spec)
            whole = client.run(spec)
        assert streamed.outcome == whole.outcome
        assert streamed.scenario == whole.scenario == spec

    @pytest.mark.parametrize("window", [2, 4, N_FRAMES])
    def test_windowed_stream_bit_identical_to_per_frame_serial(
        self, server, window
    ):
        """The served windowed stream equals the window=1 reference engine
        — the bit-identity contract, across the wire."""
        rows = []
        with ServerClient(*server.address) as client:
            result = client.run_streaming(
                scenario(seed=3, window=window), on_stats=rows.append
            )
        oracle = Engine.from_spec(SYSTEM).run(scenario(seed=3, window=1))
        assert rows == oracle.outcome.frames
        assert result.outcome.frames == oracle.outcome.frames
        assert result.outcome.total_bytes == oracle.outcome.total_bytes
        assert result.outcome.stage1_frames == oracle.outcome.stage1_frames

    def test_windowed_reuse_stream_matches_serial_oracle(self, server):
        """window x reuse composed, across the wire."""
        spec = scenario(seed=4, window=4, policy="temporal-reuse")
        with ServerClient(*server.address) as client:
            streamed = client.run_streaming(spec)
        oracle = Engine.from_spec(SYSTEM).run(
            scenario(seed=4, window=1, policy="temporal-reuse")
        )
        assert streamed.outcome.frames == oracle.outcome.frames
        assert streamed.outcome.reused_frames == oracle.outcome.reused_frames
