"""Wire-protocol frames: exact round-trips, validation, framing robustness."""

import io
import json

import pytest

from repro.server.protocol import (
    ERROR_CODES,
    FRAMES,
    MAX_FRAME_BYTES,
    ErrorResponse,
    FrameChunk,
    OkResponse,
    PingRequest,
    PongResponse,
    ProtocolError,
    ResultResponse,
    RunRequest,
    ShutdownRequest,
    StatsRequest,
    StatsResponse,
    StreamEnd,
    encode_frame,
    parse_frame,
    read_frame,
)
from repro.service import ScenarioSpec
from repro.stream import FrameStats, StreamOutcome

SCENARIO = {
    "source": {"name": "pedestrian", "params": {"resolution": [64, 48]}},
    "n_frames": 4,
    "seed": 1,
    "name": "proto-test",
}

STATS = FrameStats(
    frame_index=3,
    ran_stage1=True,
    reused_rois=False,
    reason="warmup",
    n_rois=2,
    stage1_bytes=100,
    roi_feedback_bytes=8,
    stage2_bytes=50,
    stage1_conversions=600,
    stage2_conversions=150,
    energy_j=1.25e-6,
    peak_image_memory_bytes=4096,
)


def sample_frames():
    """One instance of every frame type (id/field values arbitrary)."""
    scenario = ScenarioSpec.from_dict(SCENARIO)
    outcome = StreamOutcome(system="hirise", frames=[STATS], wall_time_s=0.5)
    return [
        RunRequest(id="r1", scenario=scenario, stream=True, timeout_s=2.5),
        PingRequest(id="p1"),
        StatsRequest(id="s1"),
        ShutdownRequest(id="k1", drain=False),
        ResultResponse(id="r1", scenario=scenario, outcome=outcome),
        FrameChunk(id="r1", stats=STATS),
        StreamEnd(id="r1", system="hirise", n_frames=1, wall_time_s=0.5),
        PongResponse(id="p1", version="1.1.0"),
        StatsResponse(
            id="s1",
            requests_served=7,
            queue_depth=2,
            draining=False,
            cache={"clips": {"hits": 1, "misses": 2, "evictions": 0}},
        ),
        OkResponse(id="k1", detail="shutting down"),
        ErrorResponse(id="r9", code="queue-full", message="full"),
    ]


class TestRoundTrips:
    def test_every_frame_type_is_registered(self):
        assert FRAMES.names() == sorted(
            ["run", "ping", "stats", "shutdown", "result", "frame", "end",
             "pong", "server-stats", "ok", "error"]
        )

    @pytest.mark.parametrize("frame", sample_frames(), ids=lambda f: f.type)
    def test_dict_round_trip_is_exact(self, frame):
        data = frame.to_dict()
        assert data["type"] == frame.type
        rebuilt = type(frame).from_dict(data)
        assert rebuilt == frame
        assert rebuilt.to_dict() == data

    @pytest.mark.parametrize("frame", sample_frames(), ids=lambda f: f.type)
    def test_json_wire_round_trip_is_exact(self, frame):
        line = encode_frame(frame)
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        rebuilt = parse_frame(json.loads(line.decode("utf-8")))
        assert rebuilt == frame
        assert encode_frame(rebuilt) == line

    def test_frame_stats_floats_survive_the_wire_bit_exactly(self):
        # Python repr round-trips floats exactly; the ledger rows a client
        # reassembles must compare bit-equal to the server's.
        stats = FrameStats(
            frame_index=0, ran_stage1=False, reused_rois=True, reason="stable",
            n_rois=1, stage1_bytes=0, roi_feedback_bytes=0, stage2_bytes=1,
            stage1_conversions=0, stage2_conversions=1,
            energy_j=0.1 + 0.2,  # 0.30000000000000004
            peak_image_memory_bytes=1,
        )
        line = encode_frame(FrameChunk(id="x", stats=stats))
        rebuilt = parse_frame(json.loads(line.decode("utf-8")))
        assert rebuilt.stats == stats
        assert rebuilt.stats.energy_j == stats.energy_j


class TestValidation:
    def test_parse_rejects_missing_type(self):
        with pytest.raises(ProtocolError, match="frame.type"):
            parse_frame({"id": "x"})

    def test_parse_rejects_unknown_type(self):
        with pytest.raises(ProtocolError, match="unknown frame type 'nope'"):
            parse_frame({"type": "nope"})

    def test_unknown_fields_named_in_error(self):
        with pytest.raises(ProtocolError, match=r"ping: unknown field\(s\) \['extra'\]"):
            parse_frame({"type": "ping", "id": "x", "extra": 1})

    def test_missing_id_named_in_error(self):
        with pytest.raises(ProtocolError, match="ping.id: required field is missing"):
            parse_frame({"type": "ping"})

    def test_non_string_id_rejected(self):
        with pytest.raises(ProtocolError, match="ping.id: expected str"):
            parse_frame({"type": "ping", "id": 7})

    def test_run_requires_scenario(self):
        with pytest.raises(ProtocolError, match="run.scenario: required"):
            parse_frame({"type": "run", "id": "x"})

    def test_run_bad_scenario_is_bad_request(self):
        bad = dict(SCENARIO, n_frames=-1)
        with pytest.raises(ProtocolError, match="run.scenario") as exc:
            parse_frame({"type": "run", "id": "x", "scenario": bad})
        assert exc.value.code == "bad-request"

    def test_run_rejects_keep_outcomes(self):
        heavy = dict(SCENARIO, keep_outcomes=True)
        with pytest.raises(ProtocolError, match="keep_outcomes") as exc:
            parse_frame({"type": "run", "id": "x", "scenario": heavy})
        assert exc.value.code == "bad-request"

    def test_run_timeout_must_be_positive_number(self):
        with pytest.raises(ProtocolError, match="run.timeout_s: must be > 0"):
            parse_frame(
                {"type": "run", "id": "x", "scenario": SCENARIO, "timeout_s": 0}
            )
        with pytest.raises(ProtocolError, match="run.timeout_s: expected"):
            parse_frame(
                {"type": "run", "id": "x", "scenario": SCENARIO, "timeout_s": "2"}
            )

    def test_run_stream_must_be_bool(self):
        with pytest.raises(ProtocolError, match="run.stream: expected bool"):
            parse_frame(
                {"type": "run", "id": "x", "scenario": SCENARIO, "stream": 1}
            )

    def test_frame_chunk_validates_stats_fields(self):
        data = FrameChunk(id="x", stats=STATS).to_dict()
        data["stats"]["energy_j"] = "hot"
        with pytest.raises(ProtocolError, match="frame.stats"):
            parse_frame(data)

    def test_end_rejects_negative_frame_count(self):
        with pytest.raises(ProtocolError, match="end.n_frames: must be >= 0"):
            parse_frame(
                {"type": "end", "id": "x", "system": "hirise",
                 "n_frames": -1, "wall_time_s": 0.0}
            )

    def test_error_code_must_be_known(self):
        with pytest.raises(ProtocolError, match="error.code: unknown code"):
            ErrorResponse(id="x", code="weird", message="")
        for code in ERROR_CODES:
            assert ErrorResponse(id="x", code=code).code == code

    def test_stats_response_counters_must_be_ints(self):
        data = {
            "type": "server-stats", "id": "s", "requests_served": 1,
            "queue_depth": 0, "draining": False,
            "cache": {"clips": {"hits": 1.5}},
        }
        with pytest.raises(ProtocolError, match="server-stats.cache.clips.hits"):
            parse_frame(data)

    def test_bool_fields_reject_int_impostors(self):
        with pytest.raises(ProtocolError, match="shutdown.drain: expected bool"):
            parse_frame({"type": "shutdown", "id": "x", "drain": 1})


class TestWireFraming:
    def read_all(self, payload: bytes, max_bytes: int = MAX_FRAME_BYTES):
        reader = io.BytesIO(payload)
        frames = []
        while True:
            data = read_frame(reader, max_bytes)
            if data is None:
                return frames
            frames.append(data)

    def test_reads_frames_in_order_then_clean_eof(self):
        payload = encode_frame(PingRequest(id="a")) + encode_frame(
            PingRequest(id="b")
        )
        frames = self.read_all(payload)
        assert [f["id"] for f in frames] == ["a", "b"]

    def test_truncated_line_raises(self):
        reader = io.BytesIO(b'{"type": "ping", "id": "a"')
        with pytest.raises(ProtocolError, match="mid-frame"):
            read_frame(reader)

    def test_invalid_json_raises_bad_frame(self):
        reader = io.BytesIO(b"not json\n")
        with pytest.raises(ProtocolError, match="not valid JSON") as exc:
            read_frame(reader)
        assert exc.value.code == "bad-frame"

    def test_non_object_json_rejected(self):
        reader = io.BytesIO(b"[1, 2]\n")
        with pytest.raises(ProtocolError, match="expected a JSON object"):
            read_frame(reader)

    def test_oversized_line_drained_and_stream_stays_in_sync(self):
        # An over-limit line must not desync the connection: the reader
        # drains to the next newline, raises with code "oversized", and the
        # *next* read returns the following frame intact.
        big = b'{"type": "ping", "id": "' + b"x" * 4096 + b'"}\n'
        reader = io.BytesIO(big + encode_frame(PingRequest(id="after")))
        with pytest.raises(ProtocolError) as exc:
            read_frame(reader, max_bytes=256)
        assert exc.value.code == "oversized"
        assert read_frame(reader, max_bytes=256)["id"] == "after"

    def test_encode_accepts_plain_dicts(self):
        assert json.loads(encode_frame({"type": "ping", "id": "z"})) == {
            "type": "ping", "id": "z"
        }
