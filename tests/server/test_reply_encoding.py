"""A whole-result reply is encoded once: the size-checked bytes are sent."""

import pytest

import repro.server.daemon as daemon
from repro.server import ReproServer, ServerClient, ServerError
from repro.server.protocol import ResultResponse
from repro.service import ScenarioSpec

SYSTEM = {"system": {"system": "hirise"}}


def tiny_scenario(seed=0, n_frames=3):
    return ScenarioSpec.from_dict(
        {
            "source": {"name": "pedestrian", "params": {"resolution": [48, 36]}},
            "n_frames": n_frames,
            "seed": seed,
        }
    )


@pytest.fixture
def result_encodes(monkeypatch):
    """Ids of the ``ResultResponse`` frames the daemon encodes."""
    encoded = []
    encode = daemon.encode_frame

    def counting(frame):
        if isinstance(frame, ResultResponse):
            encoded.append(frame.id)
        return encode(frame)

    monkeypatch.setattr(daemon, "encode_frame", counting)
    return encoded


def test_one_encode_per_whole_result_reply(result_encodes):
    spec = tiny_scenario(seed=1)
    with ReproServer(SYSTEM, workers=1, executor="serial") as server:
        with ServerClient(*server.address) as client:
            computed = client.run(spec)
            replayed = client.run(spec)
            client.run_streaming(spec)  # streamed replies carry no result frame
    assert replayed.outcome == computed.outcome
    assert len(result_encodes) == 2
    assert len(set(result_encodes)) == 2


def test_oversized_reply_is_still_a_typed_error(result_encodes):
    with ReproServer(
        SYSTEM, workers=1, executor="serial", max_frame_bytes=700
    ) as server:
        with ServerClient(*server.address, max_frame_bytes=8 * 1024 * 1024) as client:
            with pytest.raises(ServerError) as exc:
                client.run(tiny_scenario(seed=5, n_frames=8))
            assert exc.value.code == "oversized"
            assert client.ping()  # the connection keeps serving
    assert len(result_encodes) == 1
