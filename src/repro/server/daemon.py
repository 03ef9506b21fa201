"""The serving daemon: one warm engine behind a socket front door.

:class:`ReproServer` is what turns the batch reproduction into a
*service*: it is built once from a :class:`~repro.service.ServiceSpec`,
owns **one** warm :class:`~repro.service.Executor` and **one** shared
:class:`~repro.service.EngineCache` for its whole lifetime, and serves
:class:`~repro.service.ScenarioSpec` requests over newline-delimited JSON
(:mod:`repro.server.protocol`) until told to stop.  Every
``Engine.run_batch`` caller used to pay cold start; a daemon pays it once.

Request discipline (the admission-controlled front door):

* **bounded queue** — at most ``queue_size`` admitted-but-unstarted
  requests; when full, submission fails *immediately* with a typed
  ``"queue-full"`` error (backpressure the client can act on) instead of
  queueing unboundedly;
* **per-request timeout** — each request carries an optional deadline
  (defaulting to the server's); expiry answers a ``"timeout"`` error and
  abandons the request (an unstarted one is cancelled outright);
* **keep-alive** — one connection serves any number of requests, one at
  a time in order; malformed/oversized frames earn an error frame and
  the connection lives on;
* **graceful drain** — ``shutdown(drain=True)`` (or SIGTERM via the CLI)
  stops admissions, finishes queued + in-flight requests, then closes.

Compute paths: non-streaming requests go through the warm executor
(``executor.execute(engine, [scenario])`` — a "process" daemon really
dispatches to warm worker processes); streaming requests run in-daemon
via ``Engine.run(scenario, on_stats=...)``, whose per-frame ledgers the
connection's handler thread writes to the socket as they land — the
compute never writes to a client, so a client that reads slowly or not
at all holds only its own connection.  Both paths single-flight through
the one result tier, so concurrent or repeated requests for one spec
compute it once, bit-identical to a fresh serial run — the serving
benchmark's standing assertion.
"""

from __future__ import annotations

import itertools
import queue
import socket
import sys
import threading
import time
import traceback
from pathlib import Path
from concurrent.futures import CancelledError, Future
from concurrent.futures import TimeoutError as FutureTimeoutError

from .. import __version__
from ..faults.injector import InjectedFault
from ..service.engine import Engine
from ..service.executor import Executor, make_executor
from ..service.spec import ScenarioSpec, SpecError, coerce_service_spec, load_spec
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
    TruncatedFrameError,
    encode_frame,
    parse_frame,
    read_frame,
)


class _Job:
    """One admitted request on its way through the queue.

    A streamed job's worker puts each frame's ledger row on ``rows`` for
    the handler thread to write; ``None`` follows the last row once
    ``future`` is done (resolved, failed or cancelled).
    """

    __slots__ = ("request", "connection", "future", "rows")

    def __init__(self, request: RunRequest, connection: "_Connection"):
        self.request = request
        self.connection = connection
        self.future: Future = Future()
        self.rows = rows = queue.SimpleQueue()
        self.future.add_done_callback(lambda _future: rows.put(None))


def _remaining(deadline: float | None) -> float | None:
    """Seconds left until ``deadline`` (``None`` = no deadline)."""
    return None if deadline is None else max(0.0, deadline - time.monotonic())


#: Monotone connection ids, stamped on every accepted socket so stderr
#: diagnostics can be correlated with a specific client session.
_CONNECTION_IDS = itertools.count(1)


class _Connection:
    """Per-client state: the socket, its reader, and a write lock.

    The handler thread is the only writer of its own requests' replies
    (a request a non-draining shutdown cancels is answered there too);
    the write lock serializes whole frames against the closers (a fault
    or shutdown closing the socket) so a frame is never cut mid-line.
    ``cid`` is this connection's daemon-unique id, quoted in stderr
    diagnostics.
    """

    def __init__(self, sock: socket.socket):
        self.cid = next(_CONNECTION_IDS)
        self.sock = sock
        self.reader = sock.makefile("rb")
        self.wlock = threading.Lock()
        self.closed = False

    def send(self, frame) -> None:
        self.send_line(encode_frame(frame))

    def send_line(self, payload: bytes) -> None:
        """Send one encoded frame line (dropped once the client is gone)."""
        with self.wlock:
            if self.closed:
                return
            try:
                self.sock.sendall(payload)
            except OSError:
                # The client went away; reads will observe EOF shortly.
                self.closed = True

    def close(self) -> None:
        """Stop writes and wake the handler's blocked read.

        Deliberately does NOT close ``self.reader``: a BufferedReader's
        close takes the buffer lock its blocked reading thread holds —
        closing it from another thread deadlocks.  ``shutdown`` makes the
        in-flight read return EOF; the handler thread then closes its own
        reader via :meth:`close_reader`.
        """
        with self.wlock:
            self.closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass

    def close_reader(self) -> None:
        """Close the read buffer — only the handler thread may call this."""
        try:
            self.reader.close()
        except OSError:
            pass


class ReproServer:
    """A long-lived serving daemon for one system spec.

    Args:
        spec: what to serve — a :class:`~repro.service.ServiceSpec` (its
            ``executor``/``workers`` select the warm compute pool), a
            system/service dict, a JSON spec file path, or an already
            constructed :class:`~repro.service.Engine` (tests, embedding).
        host/port: bind address; port 0 picks a free port (see ``.port``
            after :meth:`start`).
        queue_size: admission bound — requests admitted but not yet
            started.  A full queue answers ``"queue-full"`` immediately.
        workers: serving concurrency (defaults to the spec's ``workers``);
            also the worker count of an executor built from the spec.
        executor: override the warm executor — a name from
            ``EXECUTOR_NAMES`` or a constructed instance (owned by the
            server either way: closed on shutdown).
        request_timeout_s: default per-request deadline; a request's own
            ``timeout_s`` wins.  ``None`` = no deadline.
        max_frame_bytes: per-line protocol ceiling.
        store: optional :class:`~repro.store.ArtifactStore` backing the
            engine cache's persistent tier — a daemon restarted against
            the same store root cold-starts into pure cache hits,
            bit-identical to the run that populated it (ignored when
            ``spec`` is an already-constructed engine, which brings its
            own cache).
        faults: a :class:`~repro.faults.FaultPlan` (or injector, dict, or
            plan path) handed to the engine the daemon builds; the
            daemon fires its ``server.reply`` / ``server.stream`` sites
            on that one ``engine.faults`` (and the executor ships its
            plan to workers).  An engine passed as ``spec`` brings its
            own injector, so ``faults`` next to one is a
            :class:`ValueError`.  ``None`` leaves injection dormant.

    Lifecycle: :meth:`start` binds and spawns the accept loop (the
    constructor does not touch the network); :meth:`shutdown` stops it —
    gracefully draining by default.  Context-manager use does both.
    """

    def __init__(
        self,
        spec,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        queue_size: int = 16,
        workers: int | None = None,
        executor: str | Executor | None = None,
        request_timeout_s: float | None = None,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        store=None,
        faults=None,
    ):
        if queue_size < 1:
            raise ValueError(f"queue_size must be >= 1, got {queue_size}")
        if isinstance(spec, Engine):
            if faults is not None:
                raise ValueError(
                    "faults: an Engine brings its own injector; build it "
                    "with Engine(..., faults=...) instead"
                )
            self.engine = spec
            default_executor, default_workers = spec.executor, spec.workers
        else:
            if isinstance(spec, (str, Path)):
                service = load_spec(spec)
            else:
                service = coerce_service_spec(spec)
            self.engine = Engine(service.system, store=store, faults=faults)
            default_executor, default_workers = service.executor, service.workers
        self.workers = workers if workers is not None else default_workers
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if isinstance(executor, Executor):
            self.executor = executor
        else:
            name = executor if executor is not None else default_executor
            self.executor = make_executor(name, self.workers)
        self.host = host
        self.request_timeout_s = request_timeout_s
        self.max_frame_bytes = max_frame_bytes
        self._requested_port = port
        self._queue: "queue.Queue[_Job | None]" = queue.Queue(maxsize=queue_size)
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._connections: set[_Connection] = set()
        self._conn_lock = threading.Lock()
        self._served = 0
        self._served_lock = threading.Lock()
        # Replies in flight on handler threads: drain must not close the
        # connections until every admitted request's reply has been sent.
        self._pending = 0
        self._pending_cond = threading.Condition()
        self.port: int | None = None

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> "ReproServer":
        """Bind, then serve in background threads; returns once reachable."""
        if self._listener is not None:
            raise RuntimeError("server already started")
        self._listener = socket.create_server(
            (self.host, self._requested_port), reuse_port=False
        )
        self.port = self._listener.getsockname()[1]
        accept = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        accept.start()
        self._threads.append(accept)
        for n in range(self.workers):
            worker = threading.Thread(
                target=self._worker_loop, name=f"repro-serve-worker-{n}", daemon=True
            )
            worker.start()
            self._threads.append(worker)
        return self

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown(drain=True)

    @property
    def address(self) -> tuple[str, int]:
        if self.port is None:
            raise RuntimeError("server not started")
        return (self.host, self.port)

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the server has fully shut down (CLI foreground loop).

        Returns ``True`` once shutdown completed, ``False`` on timeout.
        """
        return self._stopped.wait(timeout)

    def shutdown(self, drain: bool = True) -> None:
        """Stop serving.

        With ``drain=True`` (graceful): stop accepting connections and
        admitting requests, let queued + in-flight requests finish and
        their replies flush, then close every connection and the warm
        executor.  With ``drain=False``: queued-but-unstarted requests are
        cancelled (their clients get a ``"shutting-down"`` error); only
        the requests already computing are awaited — nothing is killed
        mid-run.  Idempotent.
        """
        if self._stopped.is_set():
            return
        self._draining.set()
        if self._listener is not None:
            # shutdown() before close(): plain close does not wake a thread
            # blocked in accept() on Linux (the kernel keeps the listening
            # socket alive while the syscall is in flight, so the port
            # would even stay connectable).  SHUT_RDWR makes accept raise.
            for stop in (
                lambda: self._listener.shutdown(socket.SHUT_RDWR),
                self._listener.close,
            ):
                try:
                    stop()
                except OSError:
                    pass
        if not drain:
            # Flush the queue: every unstarted job is cancelled, and its
            # handler thread tells the client why.  (Running jobs still
            # finish below.)
            while True:
                try:
                    job = self._queue.get_nowait()
                except queue.Empty:
                    break
                if job is not None:
                    job.future.cancel()
                self._queue.task_done()
        # Wait for every admitted job to be taken AND completed.
        self._queue.join()
        # Wake the worker threads so they exit.
        for _ in range(self.workers):
            self._queue.put(None)
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=10.0)
        # A request admitted in the narrow window after join() can still be
        # sitting in the queue with no worker left to serve it: cancel it
        # so its handler unblocks with a typed error instead of hanging.
        while True:
            try:
                job = self._queue.get_nowait()
            except queue.Empty:
                break
            if job is not None:
                job.future.cancel()
            self._queue.task_done()
        # Let handler threads flush the replies of everything that ran.
        with self._pending_cond:
            self._pending_cond.wait_for(lambda: self._pending == 0, timeout=10.0)
        with self._conn_lock:
            connections = list(self._connections)
            self._connections.clear()
        for connection in connections:
            connection.close()
        self.executor.close()
        self._stopped.set()

    # -- accept / handler / worker loops -----------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._draining.is_set():
            try:
                sock, _addr = listener.accept()
            except OSError:
                break  # listener closed (shutdown)
            connection = _Connection(sock)
            with self._conn_lock:
                self._connections.add(connection)
            handler = threading.Thread(
                target=self._handle_connection,
                args=(connection,),
                name="repro-serve-conn",
                daemon=True,
            )
            handler.start()

    def _handle_connection(self, connection: _Connection) -> None:
        try:
            while True:
                try:
                    data = read_frame(connection.reader, self.max_frame_bytes)
                except TruncatedFrameError:
                    break  # the peer died mid-frame: nothing to answer
                except ProtocolError as exc:
                    # Malformed JSON or an oversized (already drained) line:
                    # report and keep the connection alive.
                    connection.send(
                        ErrorResponse(id="", code=exc.code, message=str(exc))
                    )
                    continue
                except OSError:
                    break
                if data is None:
                    break  # clean EOF: client hung up
                try:
                    frame = parse_frame(data)
                except ProtocolError as exc:
                    request_id = data.get("id", "")
                    connection.send(
                        ErrorResponse(
                            id=request_id if isinstance(request_id, str) else "",
                            code=exc.code,
                            message=str(exc),
                        )
                    )
                    continue
                if isinstance(frame, PingRequest):
                    connection.send(PongResponse(id=frame.id, version=__version__))
                elif isinstance(frame, StatsRequest):
                    connection.send(self._stats_response(frame.id))
                elif isinstance(frame, ShutdownRequest):
                    connection.send(OkResponse(id=frame.id, detail="shutting down"))
                    # Shut down off-thread: this handler is one of the
                    # threads shutdown() joins.
                    threading.Thread(
                        target=self.shutdown,
                        kwargs={"drain": frame.drain},
                        name="repro-serve-shutdown",
                        daemon=True,
                    ).start()
                elif isinstance(frame, RunRequest):
                    self._handle_run(connection, frame)
                else:  # a response frame sent by a confused client
                    connection.send(
                        ErrorResponse(
                            id=getattr(frame, "id", ""),
                            code="bad-frame",
                            message=f"unexpected frame type {frame.type!r} "
                            "(server-to-client frames are not requests)",
                        )
                    )
        finally:
            with self._conn_lock:
                self._connections.discard(connection)
            connection.close()
            connection.close_reader()

    def _handle_run(self, connection: _Connection, request: RunRequest) -> None:
        """Admit, await, and answer one run request (handler thread)."""
        if self._draining.is_set():
            connection.send(
                ErrorResponse(
                    id=request.id,
                    code="shutting-down",
                    message="server is draining and accepts no new requests",
                )
            )
            return
        try:
            # Resolve component names up front so a typo'd spec fails fast
            # with a typed error instead of burning a queue slot.
            request.scenario.validate_components()
        except SpecError as exc:
            connection.send(
                ErrorResponse(id=request.id, code="bad-request", message=str(exc))
            )
            return
        with self._pending_cond:
            self._pending += 1
        try:
            self._run_and_reply(connection, request)
        finally:
            with self._pending_cond:
                self._pending -= 1
                self._pending_cond.notify_all()

    def _run_and_reply(self, connection: _Connection, request: RunRequest) -> None:
        job = _Job(request, connection)
        try:
            self._queue.put_nowait(job)
        except queue.Full:
            connection.send(
                ErrorResponse(
                    id=request.id,
                    code="queue-full",
                    message=f"request queue is full "
                    f"({self._queue.maxsize} waiting); retry with backoff",
                )
            )
            return
        timeout = (
            request.timeout_s
            if request.timeout_s is not None
            else self.request_timeout_s
        )
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            # A streamed job's rows are written here, as the worker queues
            # them: the compute (a build other requests for the spec may
            # be waiting on) never blocks on this client's reads.
            while request.stream:
                stats = job.rows.get(timeout=_remaining(deadline))
                if stats is None:
                    break
                connection.send(FrameChunk(id=request.id, stats=stats))
            result = job.future.result(timeout=_remaining(deadline))
        except (FutureTimeoutError, queue.Empty):
            # cancel() succeeds iff the job never started; a running one
            # finishes server-side and still warms the cache for the next
            # caller, but none of its further rows are written.
            job.future.cancel()
            connection.send(
                ErrorResponse(
                    id=request.id,
                    code="timeout",
                    message=f"request exceeded its {timeout}s deadline",
                )
            )
            return
        except CancelledError:
            connection.send(
                ErrorResponse(
                    id=request.id,
                    code="shutting-down",
                    message="server is shutting down; request cancelled",
                )
            )
            return
        except SpecError as exc:
            connection.send(
                ErrorResponse(id=request.id, code="bad-request", message=str(exc))
            )
            return
        except Exception as exc:  # noqa: BLE001 - the daemon must not die
            # The client gets a typed one-liner; the operator gets the
            # traceback on stderr, tagged with the connection id so
            # concurrent sessions stay distinguishable in the log.
            print(
                f"[repro-serve] internal error on conn {connection.cid} "
                f"request {request.id!r}: {type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
            traceback.print_exc(file=sys.stderr)
            connection.send(
                ErrorResponse(
                    id=request.id, code="internal", message=f"{type(exc).__name__}: {exc}"
                )
            )
            return
        if not self._inject_reply_fault(connection, request.id):
            return
        if request.stream:
            # Every FrameChunk is written (the rows above); close the stream.
            outcome = result.outcome
            connection.send(
                StreamEnd(
                    id=request.id,
                    system=outcome.system,
                    n_frames=outcome.n_frames,
                    wall_time_s=outcome.wall_time_s,
                )
            )
        else:
            response = ResultResponse(
                id=request.id, scenario=result.scenario, outcome=result.outcome
            )
            payload = encode_frame(response)
            if len(payload) > self.max_frame_bytes:
                connection.send(
                    ErrorResponse(
                        id=request.id,
                        code="oversized",
                        message=f"result frame is {len(payload)} bytes "
                        f"(limit {self.max_frame_bytes}); request fewer frames "
                        "or use streaming mode",
                    )
                )
            else:
                connection.send_line(payload)

    # -- fault injection (chaos testing) -------------------------------------------

    def _inject_reply_fault(self, connection: _Connection, request_id: str) -> bool:
        """Fire the ``server.reply`` site; ``False`` aborts the reply.

        ``socket-drop`` closes the connection before the reply frame is
        written (the client observes a server-initiated close and, if
        retrying, reconnects and replays); ``reply-delay`` sleeps the
        spec's ``delay_s`` first; any other scheduled kind is a no-op at
        this site.
        """
        faults = self.engine.faults
        if faults is None:
            return True
        spec = faults.fire("server.reply")
        if spec is None:
            return True
        if spec.kind == "reply-delay":
            time.sleep(spec.delay_s)
            return True
        if spec.kind == "socket-drop":
            connection.close()
            return False
        return True

    def _inject_stream_fault(self, connection: _Connection) -> None:
        """Fire the ``server.stream`` site (once per outgoing frame).

        ``socket-drop`` closes the connection mid-stream; ``reply-delay``
        stalls the frame; ``worker-crash`` (or any other kind) raises
        :class:`~repro.faults.InjectedFault` — the streaming compute dies
        exactly as a real mid-run failure would, and the client gets a
        typed ``"internal"`` error frame instead of a truncated stream.
        """
        faults = self.engine.faults
        if faults is None:
            return
        spec = faults.fire("server.stream")
        if spec is None:
            return
        if spec.kind == "reply-delay":
            time.sleep(spec.delay_s)
        elif spec.kind == "socket-drop":
            connection.close()
        else:
            raise InjectedFault("server.stream", spec.kind)

    def _worker_loop(self) -> None:
        """Serving worker: pull admitted jobs, compute, resolve futures."""
        while True:
            job = self._queue.get()
            if job is None:
                self._queue.task_done()
                return
            try:
                if not job.future.set_running_or_notify_cancel():
                    continue  # cancelled while queued (timeout/shutdown)
                request = job.request
                try:
                    if request.stream:
                        # Streaming computes in-daemon and queues each
                        # per-frame ledger for the handler as it lands.
                        def on_stats(stats, _job=job):
                            self._inject_stream_fault(_job.connection)
                            _job.rows.put(stats)

                        result = self.engine.run(request.scenario, on_stats=on_stats)
                    else:
                        # The warm executor is the compute path — for a
                        # "process" daemon this dispatches to a warm
                        # worker process; serial/thread run right here.
                        result = self.executor.execute(
                            self.engine, [request.scenario]
                        )[0]
                except BaseException as exc:  # noqa: BLE001 - reply, don't die
                    job.future.set_exception(exc)
                else:
                    job.future.set_result(result)
                    with self._served_lock:
                        self._served += 1
            finally:
                self._queue.task_done()

    # -- observability ------------------------------------------------------------

    def _stats_response(self, request_id: str) -> StatsResponse:
        stats = self.engine.cache.stats()
        sizes = self.engine.cache.sizes()
        with self._served_lock:
            served = self._served
        cache = {
            "clips": {
                "hits": stats.clips.hits,
                "misses": stats.clips.misses,
                "evictions": stats.clips.evictions,
                "disk_hits": stats.clips.disk_hits,
                "disk_misses": stats.clips.disk_misses,
                "entries": sizes["clips"]["entries"],
                "bytes": sizes["clips"]["bytes"],
            },
            "results": {
                "hits": stats.results.hits,
                "misses": stats.results.misses,
                "evictions": stats.results.evictions,
                "disk_hits": stats.results.disk_hits,
                "disk_misses": stats.results.disk_misses,
                "entries": sizes["results"]["entries"],
                "bytes": sizes["results"]["bytes"],
            },
        }
        store = getattr(self.engine.cache, "store", None)
        if store is not None:
            snap = store.snapshot()
            cache["store"] = {
                "entries": snap.entries,
                "bytes": snap.bytes,
                "hits": snap.hits,
                "misses": snap.misses,
                "writes": snap.writes,
                "evictions": snap.evictions,
                "errors": snap.errors,
            }
        # Resilience counters: executor self-healing (pool respawns and
        # re-dispatched work units) plus this process's injected-fault
        # tally.  Worker processes keep their own injectors, so worker-side
        # fires are visible here only through their *effects* (respawns).
        resilience: dict = {}
        exec_counters = getattr(self.executor, "resilience_stats", None)
        if exec_counters is not None:
            resilience["executor"] = exec_counters()
        if self.engine.faults is not None:
            resilience["faults"] = self.engine.faults.counters()
        return StatsResponse(
            id=request_id,
            requests_served=served,
            queue_depth=self._queue.qsize(),
            draining=self._draining.is_set(),
            cache=cache,
            resilience=resilience,
        )
