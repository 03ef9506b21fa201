"""Blocking client for the serving daemon.

:class:`ServerClient` speaks the :mod:`repro.server.protocol` over one
keep-alive TCP connection and hands back the *same* types a local engine
does: :meth:`ServerClient.run` returns a
:class:`~repro.service.RunResult`, streaming mode reassembles the
:class:`~repro.stream.FrameStats` rows into a
:class:`~repro.stream.StreamOutcome` equal to the non-streaming reply.
Code written against ``Engine.run`` ports to the daemon by swapping the
callable.

Server-side failures arrive as typed ``"error"`` frames and surface as
typed exceptions — one subclass of :class:`ServerError` per actionable
:data:`~repro.server.protocol.ERROR_CODES` family — so callers can
distinguish "back off and retry" (:class:`BackpressureError`) from "your
spec is wrong" (:class:`BadRequestError`) without string matching.
"""

from __future__ import annotations

import random
import socket
import time

from ..service.engine import RunResult
from ..service.spec import ScenarioSpec
from ..stream.ledger import StreamOutcome
from .protocol import (
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


class ServerClosedError(ConnectionError):
    """The daemon closed the connection mid-conversation (EOF on read).

    A subclass of :class:`ConnectionError` so existing ``except
    ConnectionError`` handlers (and :func:`wait_for_server`) keep
    working, but typed so callers — and the client's own retry layer —
    can tell a *server-initiated* close apart from every other socket
    failure without string matching.
    """


class ServerError(RuntimeError):
    """A daemon answered with an ``"error"`` frame.

    Attributes:
        code: the :data:`~repro.server.protocol.ERROR_CODES` entry.
    """

    code = "internal"

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class BadRequestError(ServerError):
    """The request itself was rejected (invalid spec, malformed or
    oversized frame); retrying the same request cannot succeed."""

    code = "bad-request"


class BackpressureError(ServerError):
    """Admission control refused the request: the daemon's bounded queue
    is full.  Retry after a backoff — the request was never admitted."""

    code = "queue-full"


class RequestTimeoutError(ServerError):
    """The per-request deadline fired before the result was ready.  The
    daemon may still finish the run server-side (warming its cache)."""

    code = "timeout"


class ServerShuttingDownError(ServerError):
    """The daemon is draining and accepts no new work."""

    code = "shutting-down"


#: error code -> exception class ("internal" and anything unknown fall
#: back to plain :class:`ServerError`).
_ERROR_CLASSES = {
    "bad-frame": BadRequestError,
    "bad-request": BadRequestError,
    "oversized": BadRequestError,
    "queue-full": BackpressureError,
    "timeout": RequestTimeoutError,
    "shutting-down": ServerShuttingDownError,
}


def _raise_for(error: ErrorResponse) -> None:
    raise _ERROR_CLASSES.get(error.code, ServerError)(error.message, code=error.code)


class ServerClient:
    """A blocking, keep-alive client for one :class:`~repro.server.ReproServer`.

    One client holds one connection and runs one request at a time (the
    protocol answers in order); use one client per thread for concurrent
    load.  Usable as a context manager; :meth:`close` is idempotent.

    Args:
        host/port: the daemon's address (``server.address`` in-process).
        timeout_s: socket-level read timeout — a safety net against a
            hung daemon, distinct from the *per-request* deadline passed
            to :meth:`run`.  ``None`` blocks indefinitely.
        max_frame_bytes: per-line ceiling for incoming frames (matches
            the daemon's unless deliberately testing oversized replies).
        max_retries: extra attempts per request after a *transient*
            failure — :class:`BackpressureError` (queue full; the daemon
            never admitted the request) or a dropped connection
            (:class:`ServerClosedError` / any :class:`OSError`; the
            client reconnects transparently and re-sends).  ``0`` (the
            default) keeps the historical fail-fast behavior.  Requests
            are pure specs served by a deterministic engine, so a replay
            returns byte-identical results.  Rejections that would fail
            identically on replay (:class:`BadRequestError`,
            :class:`RequestTimeoutError`,
            :class:`ServerShuttingDownError`, protocol violations) are
            **never** retried.
        backoff_base_s / backoff_cap_s: capped exponential backoff
            between attempts: ``min(cap, base * 2**n)`` scaled by a
            deterministic jitter factor in ``[0.5, 1.0)`` drawn from
            ``retry_seed`` — two clients with different seeds desynchronize,
            one client replays the same schedule every run.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        timeout_s: float | None = 60.0,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        max_retries: int = 0,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        retry_seed: int = 0,
    ):
        if max_retries < 0:
            raise ValueError(f"max_retries: must be >= 0, got {max_retries}")
        if backoff_base_s < 0 or backoff_cap_s < 0:
            raise ValueError("backoff_base_s/backoff_cap_s: must be >= 0")
        self.host = host
        self.port = port
        self.timeout_s = timeout_s
        self.max_frame_bytes = max_frame_bytes
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        #: Cumulative retry causes over this client's lifetime.
        self.retry_stats = {"backpressure": 0, "reconnect": 0}
        self._retry_rng = random.Random(retry_seed)
        self._sock: socket.socket | None = None
        self._reader = None
        self._counter = 0

    # -- connection management ---------------------------------------------------

    def connect(self) -> "ServerClient":
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout_s
            )
            self._reader = self._sock.makefile("rb")
        return self

    def close(self) -> None:
        sock, reader = self._sock, self._reader
        self._sock = self._reader = None
        for closer in [reader and reader.close, sock and sock.close]:
            if closer:
                try:
                    closer()
                except OSError:
                    pass

    def __enter__(self) -> "ServerClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _next_id(self) -> str:
        self._counter += 1
        return f"req-{self._counter}"

    def _send(self, frame) -> None:
        self.connect()
        self._sock.sendall(encode_frame(frame))

    def _read(self):
        """Next frame from the daemon (typed), or raise on EOF/garbage."""
        data = read_frame(self._reader, self.max_frame_bytes)
        if data is None:
            self.close()
            raise ServerClosedError("server closed the connection")
        return parse_frame(data)

    def _expect(self, request_id: str, kind):
        """Read until the reply to ``request_id``; raise typed errors."""
        while True:
            frame = self._read()
            if getattr(frame, "id", None) not in (request_id, ""):
                continue  # stale frame from an abandoned earlier request
            if isinstance(frame, ErrorResponse):
                _raise_for(frame)
            if isinstance(frame, kind):
                return frame
            raise ProtocolError(
                f"expected a {kind.type!r} frame for {request_id!r}, "
                f"got {frame.type!r}"
            )

    # -- retry discipline --------------------------------------------------------

    def _backoff_s(self, tries: int) -> float:
        """Capped exponential backoff with deterministic jitter."""
        window = min(self.backoff_cap_s, self.backoff_base_s * (2**tries))
        return window * (0.5 + 0.5 * self._retry_rng.random())

    def _with_retries(self, attempt):
        """Run ``attempt`` with up to ``max_retries`` transient retries.

        Retryable: :class:`BackpressureError` (the daemon refused
        admission — the connection is fine, just wait) and any
        :class:`OSError` including :class:`ServerClosedError` (the
        connection is dead — drop it so the next attempt reconnects via
        :meth:`_send`).  Everything else propagates on first failure.
        """
        tries = 0
        while True:
            try:
                return attempt()
            except BackpressureError:
                if tries >= self.max_retries:
                    raise
                self.retry_stats["backpressure"] += 1
            except OSError:
                self.close()
                if tries >= self.max_retries:
                    raise
                self.retry_stats["reconnect"] += 1
            time.sleep(self._backoff_s(tries))
            tries += 1

    # -- request methods ---------------------------------------------------------

    def run(self, scenario, timeout_s: float | None = None) -> RunResult:
        """Serve one scenario on the daemon; returns a full :class:`RunResult`.

        Args:
            scenario: a :class:`~repro.service.ScenarioSpec` or its dict
                form (validated before anything crosses the wire).
            timeout_s: per-request deadline (``None`` = daemon default).

        Raises:
            BackpressureError: the daemon's request queue is full (after
                ``max_retries`` backed-off re-attempts, if configured).
            RequestTimeoutError: the deadline fired.
            BadRequestError: the daemon rejected the spec or frame.
            ServerShuttingDownError: the daemon is draining.
            ServerError: any other server-side failure.
            ProtocolError: the request is invalid before it is sent (a
                ``keep_outcomes`` scenario, ``bad-request``, or a
                ``timeout_s`` out of range, ``bad-frame``), or a reply
                frame is malformed.
            SpecError: ``scenario`` is a dict that is not a valid spec.
        """
        spec = self._as_scenario(scenario)

        def attempt() -> RunResult:
            request = RunRequest(
                id=self._next_id(),
                scenario=spec,
                stream=False,
                timeout_s=timeout_s,
            )
            self._send(request)
            reply = self._expect(request.id, ResultResponse)
            return RunResult(scenario=reply.scenario, outcome=reply.outcome)

        return self._with_retries(attempt)

    def run_streaming(
        self, scenario, on_stats=None, timeout_s: float | None = None
    ) -> RunResult:
        """Serve one scenario in streaming mode.

        ``on_stats`` (if given) is called with each
        :class:`~repro.stream.FrameStats` as its :class:`FrameChunk`
        arrives — while later frames are still computing server-side.
        The returned :class:`RunResult` reassembles the streamed rows
        into a :class:`~repro.stream.StreamOutcome` equal to what
        non-streaming :meth:`run` returns for the same scenario.

        With ``max_retries > 0``, a connection dropped mid-stream
        replays the request from frame 0 — the stream is deterministic,
        but ``on_stats`` will see the already-delivered prefix again.

        Raises:
            The same errors as :meth:`run`.
        """
        spec = self._as_scenario(scenario)

        def attempt() -> RunResult:
            request = RunRequest(
                id=self._next_id(),
                scenario=spec,
                stream=True,
                timeout_s=timeout_s,
            )
            self._send(request)
            frames = []
            while True:
                frame = self._read()
                if getattr(frame, "id", None) not in (request.id, ""):
                    continue
                if isinstance(frame, ErrorResponse):
                    _raise_for(frame)
                if isinstance(frame, FrameChunk):
                    frames.append(frame.stats)
                    if on_stats is not None:
                        on_stats(frame.stats)
                    continue
                if isinstance(frame, StreamEnd):
                    if frame.n_frames != len(frames):
                        raise ProtocolError(
                            f"stream for {request.id!r} ended after "
                            f"{len(frames)} frame(s) but announced "
                            f"{frame.n_frames}"
                        )
                    outcome = StreamOutcome(
                        system=frame.system,
                        frames=frames,
                        wall_time_s=frame.wall_time_s,
                    )
                    return RunResult(scenario=request.scenario, outcome=outcome)
                raise ProtocolError(
                    f"expected 'frame'/'end' for {request.id!r}, "
                    f"got {frame.type!r}"
                )

        return self._with_retries(attempt)

    def ping(self) -> str:
        """Liveness probe; returns the daemon's package version."""

        def attempt() -> str:
            request = PingRequest(id=self._next_id())
            self._send(request)
            return self._expect(request.id, PongResponse).version

        return self._with_retries(attempt)

    def stats(self) -> StatsResponse:
        """The daemon's observability snapshot (queue depth, cache tiers)."""

        def attempt() -> StatsResponse:
            request = StatsRequest(id=self._next_id())
            self._send(request)
            return self._expect(request.id, StatsResponse)

        return self._with_retries(attempt)

    def shutdown(self, drain: bool = True) -> str:
        """Ask the daemon to stop; returns its acknowledgement detail.

        With ``drain=True`` the daemon finishes queued + in-flight
        requests before exiting; ``False`` cancels queued work.
        """
        request = ShutdownRequest(id=self._next_id(), drain=drain)
        self._send(request)
        return self._expect(request.id, OkResponse).detail

    @staticmethod
    def _as_scenario(scenario) -> ScenarioSpec:
        if isinstance(scenario, ScenarioSpec):
            return scenario
        if isinstance(scenario, dict):
            return ScenarioSpec.from_dict(scenario)
        raise TypeError(
            f"scenario: expected a ScenarioSpec or dict, got {scenario!r}"
        )


def wait_for_server(
    host: str, port: int, timeout_s: float = 10.0, interval_s: float = 0.05
) -> str:
    """Block until a daemon at ``(host, port)`` answers a ping.

    Returns the daemon's version string; raises :class:`TimeoutError`
    when the deadline passes without a successful ping.  This is the
    readiness probe the CLI and CI use after launching ``repro serve``
    in the background.
    """
    deadline = time.monotonic() + timeout_s
    last_error: Exception | None = None
    while time.monotonic() < deadline:
        try:
            with ServerClient(host, port, timeout_s=timeout_s) as client:
                return client.ping()
        except (OSError, ConnectionError, ProtocolError) as exc:
            last_error = exc
            time.sleep(interval_s)
    raise TimeoutError(
        f"no serving daemon answered at {host}:{port} within {timeout_s}s"
        + (f" (last error: {last_error})" if last_error else "")
    )
