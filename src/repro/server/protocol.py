"""The serving wire protocol: newline-delimited JSON frames.

One TCP connection carries any number of requests (keep-alive); every
message — request, response, streamed ledger row, or error — is a single
line of JSON, a *frame*, with a ``"type"`` discriminator.  Every frame
class registers into :data:`FRAMES`, a :class:`repro.codec.Tagged`
registry, so frames follow the codec's conventions: frozen dataclasses,
**exact** ``to_dict``/``from_dict``/JSON round-trips, and validation
errors that name the offending field path (``run.timeout_s: ...``).

Client -> server frames:

* :class:`RunRequest` (``"run"``) — serve one
  :class:`~repro.service.ScenarioSpec` against the daemon's system, whole
  result (``stream=False``) or per-frame streaming (``stream=True``);
* :class:`PingRequest` (``"ping"``) — liveness probe;
* :class:`StatsRequest` (``"stats"``) — server/cache observability;
* :class:`ShutdownRequest` (``"shutdown"``) — ask the daemon to stop
  (gracefully draining in-flight work by default).

Server -> client frames:

* :class:`ResultResponse` (``"result"``) — the whole
  :class:`~repro.stream.StreamOutcome` ledger of one request;
* :class:`FrameChunk` (``"frame"``) — one streamed
  :class:`~repro.stream.FrameStats` row;
* :class:`StreamEnd` (``"end"``) — closes a stream; carries what the
  client needs to reassemble the :class:`StreamOutcome`;
* :class:`PongResponse` (``"pong"``), :class:`StatsResponse`
  (``"server-stats"``), :class:`OkResponse` (``"ok"``);
* :class:`ErrorResponse` (``"error"``) — typed failure, one of
  :data:`ERROR_CODES`; the connection stays usable afterwards.

Wire format: UTF-8 JSON, one frame per ``\\n``-terminated line, at most
:data:`MAX_FRAME_BYTES` per line.  Oversized or malformed input raises
:class:`ProtocolError` locally / earns an ``"error"`` frame from the
daemon **without** killing the connection — :func:`read_frame` drains a
too-long line to the next newline so the stream stays in sync.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field

from ..codec import Tagged, hook
from ..service.spec import ScenarioSpec
from ..stream.ledger import FrameStats, StreamOutcome

#: Hard per-line ceiling.  Generous: a 10k-frame ledger response is ~2 MB.
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: Every error code a daemon can answer with.
ERROR_CODES = (
    "bad-frame",      # malformed JSON / unknown type / frame-level validation
    "bad-request",    # the scenario spec itself is invalid
    "oversized",      # frame exceeded the byte ceiling
    "queue-full",     # admission control: the bounded request queue is full
    "timeout",        # the per-request deadline fired
    "shutting-down",  # the daemon is draining and accepts no new work
    "internal",       # unexpected server-side failure
)


class ProtocolError(ValueError):
    """A frame failed to parse or validate.

    Attributes:
        code: the :data:`ERROR_CODES` entry a daemon should answer with
            ("bad-frame" for malformed frames, "bad-request" when the
            frame was well-formed but its scenario spec was not,
            "oversized" for over-limit lines).
    """

    def __init__(self, message: str, code: str = "bad-frame"):
        super().__init__(message)
        self.code = code


class TruncatedFrameError(ProtocolError):
    """The connection died mid-frame (no trailing newline before EOF).

    Unlike every other :class:`ProtocolError`, this one means the peer is
    *gone* — a daemon drops the connection instead of answering an error
    frame on it.
    """


class _BadRequest(ProtocolError):
    """A well-formed frame whose scenario spec is invalid."""

    def __init__(self, message: str):
        super().__init__(message, code="bad-request")


#: The ``"type"``-discriminated frame registry behind :func:`parse_frame`.
FRAMES = Tagged("frame", ProtocolError)


# -- client -> server request frames ------------------------------------------


@FRAMES.register("run")
@dataclass(frozen=True)
class RunRequest:
    """Serve one scenario against the daemon's system.

    Attributes:
        id: client-chosen correlation id, echoed on every reply frame.
        scenario: the request (``keep_outcomes`` must be off — full
            per-frame outcomes hold live images and never cross the wire).
        stream: per-frame streaming (:class:`FrameChunk` rows then a
            :class:`StreamEnd`) instead of one :class:`ResultResponse`.
        timeout_s: per-request deadline in (0, ``threading.TIMEOUT_MAX``];
            ``None`` uses the daemon's default.  On expiry the daemon
            answers a ``"timeout"`` error and abandons the request.
    """

    id: str
    scenario: ScenarioSpec = field(metadata=hook(error=_BadRequest))
    stream: bool = False
    timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.scenario.keep_outcomes:
            raise _BadRequest(
                "run.scenario.keep_outcomes: full per-frame outcomes are not "
                "serializable; the per-frame ledger is what streams"
            )
        timeout_s = self.timeout_s
        if timeout_s is not None and not 0 < timeout_s <= threading.TIMEOUT_MAX:
            raise ProtocolError(
                f"run.timeout_s: must be > 0 and <= {threading.TIMEOUT_MAX}, "
                f"got {self.timeout_s}"
            )


@FRAMES.register("ping")
@dataclass(frozen=True)
class PingRequest:
    """Liveness probe; answered with :class:`PongResponse`."""

    id: str


@FRAMES.register("stats")
@dataclass(frozen=True)
class StatsRequest:
    """Observability probe; answered with :class:`StatsResponse`."""

    id: str


@FRAMES.register("shutdown")
@dataclass(frozen=True)
class ShutdownRequest:
    """Stop the daemon.

    Attributes:
        drain: finish queued + in-flight requests first (the default);
            ``False`` abandons queued work with ``"shutting-down"`` errors.
    """

    id: str
    drain: bool = True


# -- server -> client response frames -----------------------------------------


@FRAMES.register("result")
@dataclass(frozen=True)
class ResultResponse:
    """One served request's whole ledger.

    Attributes:
        id: the request's correlation id.
        scenario: the scenario as the daemon parsed it (round-trip audit).
        outcome: the :class:`~repro.stream.StreamOutcome`, bit-identical
            to what a local :meth:`Engine.run <repro.service.Engine.run>`
            returns for the same specs.
    """

    id: str
    scenario: ScenarioSpec
    outcome: StreamOutcome


@FRAMES.register("frame")
@dataclass(frozen=True)
class FrameChunk:
    """One streamed per-frame ledger row."""

    id: str
    stats: FrameStats


@FRAMES.register("end")
@dataclass(frozen=True)
class StreamEnd:
    """Closes a streamed request.

    Attributes:
        id: the request's correlation id.
        system: ``StreamOutcome.system`` of the run ("hirise"/"conventional").
        n_frames: how many :class:`FrameChunk` rows the daemon sent — the
            client's reassembly check.
        wall_time_s: the run's measured wall-clock (server-side).
    """

    id: str
    system: str
    n_frames: int
    wall_time_s: float

    def __post_init__(self) -> None:
        if self.n_frames < 0:
            raise ProtocolError(f"end.n_frames: must be >= 0, got {self.n_frames}")


@FRAMES.register("pong")
@dataclass(frozen=True)
class PongResponse:
    """Liveness reply; carries the server's package version."""

    id: str
    version: str


@FRAMES.register("server-stats")
@dataclass(frozen=True)
class StatsResponse:
    """Server observability snapshot.

    Attributes:
        id: the request's correlation id.
        requests_served: run requests completed since start.
        queue_depth: requests admitted but not yet picked up by a worker.
        draining: whether the daemon has begun shutting down.
        cache: per-tier counters —
            ``{"clips"|"results": {"hits", "misses", "evictions"}}``.
        resilience: two-level counters mirroring ``cache``'s shape —
            ``{"executor": {"respawns", "redispatched_units"},
            "faults": {"<site>:<kind>": fires}}``.  Empty when no fault
            plan is active and the executor has never self-healed;
            optional on the wire so newer clients read older daemons.
    """

    id: str
    requests_served: int
    queue_depth: int
    draining: bool
    cache: dict[str, dict[str, int]] = field(default_factory=dict)
    resilience: dict[str, dict[str, int]] = field(default_factory=dict)

    def __hash__(self):
        return hash((self.id, self.requests_served, self.queue_depth, self.draining))


@FRAMES.register("ok")
@dataclass(frozen=True)
class OkResponse:
    """Generic acknowledgement (shutdown accepted, ...)."""

    id: str
    detail: str = ""


@FRAMES.register("error")
@dataclass(frozen=True)
class ErrorResponse:
    """A typed failure; the connection remains usable.

    Attributes:
        id: the offending request's id ("" when it never parsed far
            enough to have one).
        code: one of :data:`ERROR_CODES`.
        message: human-readable detail.
    """

    id: str
    code: str
    message: str = ""

    def __post_init__(self) -> None:
        if self.code not in ERROR_CODES:
            raise ProtocolError(
                f"error.code: unknown code {self.code!r}; "
                f"known codes: {list(ERROR_CODES)}"
            )


def parse_frame(data: dict):
    """Dispatch a decoded frame dict to its typed form (a :data:`FRAMES` lookup).

    Raises:
        ProtocolError: missing, non-string or unknown ``type``, or the
            frame's own validation failed (the message names the field
            path).  ``code`` is ``"bad-request"`` when the frame was
            well-formed but its scenario spec was not, else
            ``"bad-frame"``.
    """
    return FRAMES.decode(data)


# -- wire IO ------------------------------------------------------------------


def encode_frame(frame) -> bytes:
    """One frame as its wire line: compact JSON + ``\\n``.

    Accepts a typed frame (anything with ``to_dict``) or a plain dict.
    JSON string escaping guarantees the payload itself contains no raw
    newline, so frame boundaries are unambiguous.
    """
    payload = frame.to_dict() if hasattr(frame, "to_dict") else frame
    return json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"


def read_frame(reader, max_bytes: int = MAX_FRAME_BYTES):
    """Read one frame line from a binary file-like reader.

    Returns:
        The decoded (but not yet type-dispatched) dict, or ``None`` on a
        clean EOF between frames.

    Raises:
        ProtocolError: the line was not valid UTF-8 JSON, not an object,
            or the connection died mid-frame (truncated line).  With
            ``code="oversized"``: the line exceeded ``max_bytes`` — the
            rest of the line is *drained* first, so the caller can answer
            an error frame and keep reading subsequent frames.
    """
    line = reader.readline(max_bytes + 1)
    if not line:
        return None
    if len(line) > max_bytes:
        # Too long — consume the remainder (bounded reads) to resync on
        # the next newline, then report.  The connection stays usable.
        while not line.endswith(b"\n"):
            line = reader.readline(64 * 1024)
            if not line:
                break
        raise ProtocolError(
            f"frame exceeds the {max_bytes}-byte limit", code="oversized"
        )
    if not line.endswith(b"\n"):
        raise TruncatedFrameError("connection closed mid-frame (truncated line)")
    try:
        data = json.loads(line.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and over-long integers.
        raise ProtocolError(f"frame is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ProtocolError(f"frame: expected a JSON object, got {data!r}")
    return data
