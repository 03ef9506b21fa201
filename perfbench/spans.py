"""Span recording, span accounting and the per-layer wrappers.

The program has no request-scoped tracing of its own yet, so the traced
run times each layer from here: :func:`instrument` swaps the public
functions and methods listed in :data:`LAYERS` for thin wrappers that
record one :class:`Span` per call, and puts the originals back on exit.
The wrappers only read arguments and results, so a traced run computes
exactly what an untraced one does (the workloads check this).

Accounting follows one rule: a span's *self time* is its duration minus
the part of that interval its child spans cover.  Spans of one request
share the request id; spans recorded on another thread (the daemon's
handler and worker threads) are linked to the request's root span
explicitly, because a thread-local stack cannot see across threads.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    """One timed call: ``name`` is the layer, ``parent`` a span id."""

    id: int
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    request: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        #: request id -> its root span (the front-door call).
        self.roots: dict[str, Span] = {}
        #: request id -> the span from client send to executor start.
        self.queues: dict[str, Span] = {}
        #: id() of a parsed RunRequest's scenario -> request id; lets the
        #: executor wrapper find the request its call serves.
        self.scenario_requests: dict[int, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, request: str | None = None, parent: Span | None = None) -> Span:
        """Start a span; the parent defaults to this thread's open span."""
        if parent is None:
            parent = self.current()
        if request is None and parent is not None:
            request = parent.request
        span = Span(
            next(self._ids), name, time.perf_counter(),
            parent=None if parent is None else parent.id, request=request,
        )
        self.spans.append(span)
        self._stack().append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def record(
        self, name: str, start: float, end: float, parent: Span | None, request: str | None
    ) -> Span:
        """Add a finished span that was never on a stack."""
        span = Span(
            next(self._ids), name, start, end,
            parent=None if parent is None else parent.id, request=request,
        )
        self.spans.append(span)
        return span

    @contextmanager
    def root(self, request: str | None = None):
        """The front-door call of one request (its self time is unattributed)."""
        span = self.open("request", request=request)
        if request is not None:
            self.roots[request] = span
        try:
            yield span
        finally:
            self.close(span)

    def bind_request(self, request: str) -> Span | None:
        """Give the open root on this thread its request id, once known."""
        span = self.current()
        if span is not None and span.name == "request" and span.request is None:
            span.request = request
            self.roots[request] = span
        return span

    def remote_parent(self, request: str | None) -> Span | None:
        """Parent for a span on a thread that holds no span of the request."""
        if request is None:
            return None
        queue = self.queues.get(request)
        if queue is not None and math.isnan(queue.end):
            return queue
        return self.roots.get(request)


# -- accounting --------------------------------------------------------------------


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` inside ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: span.duration - covered_length(children[span.id], span.start, span.end)
        for span in spans
    }


def layer_totals(spans, own: dict[int, float]) -> dict[str, tuple[int, float]]:
    """Layer name -> ``(calls, summed self seconds)``, given :func:`self_times`."""
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for span in spans:
        entry = totals[span.name]
        entry[0] += 1
        entry[1] += own[span.id]
    return {name: (calls, seconds) for name, (calls, seconds) in totals.items()}


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the ``q``-th percentile."""
    return int(n * (100.0 - q) / 100.0 + 1e-9)


def percentile_supported(n: int, q: float) -> bool:
    """A percentile is reported only with at least ten samples beyond it."""
    return samples_beyond(n, q) >= 10


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


# -- the wrappers ------------------------------------------------------------------

#: Layer name -> the ``(module, owner, attribute)`` calls timed as that
#: layer.  ``owner`` is a class name, or ``None`` for a module function.
#: Protocol, executor, cache and counted calls get the specialised
#: wrappers below; every other entry is a plain timed call.
LAYERS = {
    "server.protocol": [
        ("repro.server.protocol", None, "encode_frame"),
        ("repro.server.protocol", None, "read_frame"),
        ("repro.server.protocol", None, "parse_frame"),
    ],
    "service.executor": [
        ("repro.service.executor", "SerialExecutor", "execute"),
        ("repro.service.executor", "ThreadExecutor", "execute"),
        ("repro.service.executor", "ProcessExecutor", "execute"),
    ],
    "service.cache": [
        ("repro.service.cache", "SpecCache", "get_or_build"),
        ("repro.service.cache", "SpecCache", "peek"),
        ("repro.service.cache", "SpecCache", "put"),
    ],
    "stream.source": [
        ("repro.stream.source", None, "pedestrian_clip"),
        ("repro.stream.source", None, "drone_traffic_clip"),
    ],
    "stream.runner": [("repro.stream.runner", "StreamRunner", "run")],
    "stream.reuse": [
        ("repro.stream.reuse", "TemporalROIReuse", "propose"),
        ("repro.stream.reuse", "TemporalROIReuse", "observe"),
    ],
    "sensor.expose": [
        ("repro.sensor.readout", "BatchSensorReadout", "from_images"),
        ("repro.sensor.pixel_array", "PixelArray", "from_image"),
    ],
    "sensor.pool_adc": [
        ("repro.sensor.readout", "BatchSensorReadout", "read_compressed"),
        ("repro.sensor.readout", "SensorReadout", "read_compressed"),
    ],
    "sensor.roi_read": [("repro.sensor.readout", "SensorReadout", "read_rois")],
    "core.detect": [("repro.core.pipeline", "HiRISEPipeline", "detect")],
    "core.condition": [("repro.core.pipeline", "HiRISEPipeline", "condition_rois")],
    "ml.resize": [("repro.ml.classifier.crop", "CropClassifier", "preprocess")],
    "ml.classify": [("repro.ml.classifier.crop", "CropClassifier", "classify_batch")],
    "ml.conv2d": [("repro.ml.layers", "Conv2D", "forward")],
    "ml.batchnorm": [("repro.ml.layers", "BatchNorm", "forward")],
    "ml.maxpool": [("repro.ml.layers", "MaxPool2D", "forward")],
    "ml.dense": [("repro.ml.layers", "Dense", "forward")],
    "ml.other": [
        ("repro.ml.layers", "ReLU", "forward"),
        ("repro.ml.layers", "GlobalAvgPool", "forward"),
        ("repro.ml.layers", "Flatten", "forward"),
        ("repro.ml.layers", "DepthwiseConv2D", "forward"),
    ],
}

#: Where the cache's build callbacks are timed: the engine's own request
#: work (runner and model construction, result assembly), kept apart so
#: that ``service.cache`` self time is lookup and insert only.
ENGINE_LAYER = "service.engine"

#: Module functions are also bound by name in the modules that import
#: them; a wrapper must replace every binding the program calls through.
_ALIASES = {
    "encode_frame": ("repro.server.daemon", "repro.server.client"),
    "read_frame": ("repro.server.daemon", "repro.server.client"),
    "parse_frame": ("repro.server.daemon", "repro.server.client"),
    "pedestrian_clip": ("repro.stream", "repro.service.components"),
    "drone_traffic_clip": ("repro.stream", "repro.service.components"),
}


def _timed(tracer: Tracer, name: str, fn, counter: str | None = None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if counter is not None:
            # A batch call returns one item per frame or crop.
            tracer.counters[counter] += len(result) if isinstance(result, list) else 1
        return result

    return wrapper


def _frame_id(frame):
    value = frame.get("id") if isinstance(frame, dict) else getattr(frame, "id", None)
    return value if isinstance(value, str) and value else None


def _encode(tracer: Tracer, fn):
    from repro.server.protocol import RunRequest

    @functools.wraps(fn)
    def wrapper(frame):
        request = _frame_id(frame)
        if isinstance(frame, RunRequest):
            tracer.bind_request(request)
        parent = tracer.current() or tracer.remote_parent(request)
        start = time.perf_counter()
        line = fn(frame)
        end = time.perf_counter()
        tracer.record("server.protocol", start, end, parent, request)
        if isinstance(frame, RunRequest) and request in tracer.roots:
            # The line goes on the wire right after this returns: the
            # request now waits until the daemon's executor picks it up.
            tracer.queues[request] = tracer.record(
                "server.queue", end, math.nan, tracer.roots[request], request
            )
        return line

    return wrapper


class _Arrival:
    """Reader proxy noting when a frame's line has arrived.

    ``read_frame`` blocks in ``readline`` until the peer sends; only the
    decode after the line is in hand is protocol work.
    """

    def __init__(self, reader) -> None:
        self._reader = reader
        self.at: float | None = None
        self.nbytes = 0

    def readline(self, *args):
        line = self._reader.readline(*args)
        if self.at is None:
            self.at = time.perf_counter()
        self.nbytes += len(line)
        return line


def _read(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(reader, *args, **kwargs):
        arrival = _Arrival(reader)
        data = fn(arrival, *args, **kwargs)
        if data is not None and arrival.at is not None:
            request = _frame_id(data)
            parent = tracer.current() or tracer.remote_parent(request)
            tracer.record("server.protocol", arrival.at, time.perf_counter(), parent, request)
            if data.get("type") == "result":
                tracer.counters["reply_bytes"] += arrival.nbytes
        return data

    return wrapper


def _parse(tracer: Tracer, fn):
    from repro.server.protocol import RunRequest

    @functools.wraps(fn)
    def wrapper(data):
        request = _frame_id(data)
        parent = tracer.current() or tracer.remote_parent(request)
        start = time.perf_counter()
        frame = fn(data)
        tracer.record("server.protocol", start, time.perf_counter(), parent, request)
        if isinstance(frame, RunRequest) and request is not None:
            tracer.scenario_requests[id(frame.scenario)] = request
        return frame

    return wrapper


def _execute(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, engine, scenarios, *args, **kwargs):
        request = None
        if scenarios:
            request = tracer.scenario_requests.pop(id(scenarios[0]), None)
        queue = tracer.queues.pop(request, None) if request is not None else None
        if queue is not None:
            queue.end = time.perf_counter()
        parent = tracer.current() or (tracer.roots.get(request) if request else None)
        span = tracer.open("service.executor", request=request, parent=parent)
        try:
            return fn(self, engine, scenarios, *args, **kwargs)
        finally:
            tracer.close(span)

    return wrapper


def _get_or_build(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, key, build, *args, **kwargs):
        def traced_build():
            span = tracer.open(ENGINE_LAYER)
            try:
                return build()
            finally:
                tracer.close(span)

        span = tracer.open("service.cache")
        try:
            return fn(self, key, traced_build, *args, **kwargs)
        finally:
            tracer.close(span)

    return wrapper


#: Layers whose calls also count the frames or crops they handle.
_COUNTERS = {"sensor.pool_adc": "pooled_frames", "ml.classify": "crops"}


def _make(tracer: Tracer, layer: str, attr: str):
    """``original -> wrapper`` for one entry of :data:`LAYERS`."""
    special = {
        "encode_frame": _encode,
        "read_frame": _read,
        "parse_frame": _parse,
        "execute": _execute,
        "get_or_build": _get_or_build,
    }
    if attr in special:
        return lambda fn: special[attr](tracer, fn)
    return lambda fn: _timed(tracer, layer, fn, _COUNTERS.get(layer))


class _Patches:
    """Attribute replacements that :meth:`undo` reverts, newest first."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, new)
        if not isinstance(owner, type):
            for alias in _ALIASES.get(attr, ()):
                module = importlib.import_module(alias)
                if getattr(module, attr, None) is raw:
                    self._undo.append((module, attr, raw))
                    setattr(module, attr, new)

    def undo(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)


@contextmanager
def instrument(tracer: Tracer):
    """Time every call listed in :data:`LAYERS` into ``tracer``."""
    patches = _Patches()
    try:
        for layer, calls in LAYERS.items():
            for module, owner, attr in calls:
                target = importlib.import_module(module)
                if owner is not None:
                    target = getattr(target, owner)
                patches.replace(target, attr, _make(tracer, layer, attr))
        yield tracer
    finally:
        patches.undo()
