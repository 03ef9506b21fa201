"""Tests of the benchmark's span accounting and layer wrappers.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
from spans import Span, Tracer  # noqa: E402


def span(id, name, start, end, parent=None, request=None):
    return Span(id, name, float(start), float(end), parent, request)


def test_self_time_is_duration_minus_children():
    tree = [
        span(1, "root", 0, 10),
        span(2, "a", 1, 4, parent=1),
        span(3, "b", 5, 9, parent=1),
        span(4, "a.inner", 2, 3, parent=2),
    ]
    own = spans.self_times(tree)
    assert own == {1: 3.0, 2: 2.0, 3: 4.0, 4: 1.0}
    assert sum(own.values()) == 10.0


def test_overlapping_and_overhanging_children_count_once():
    # Children on other threads may overlap each other and outlive the
    # parent's interval; only the covered part of the parent counts.
    tree = [
        span(1, "root", 0, 10),
        span(2, "x", 2, 6, parent=1),
        span(3, "y", 4, 8, parent=1),
        span(4, "z", 9, 12, parent=1),
    ]
    assert spans.self_times(tree)[1] == pytest.approx(10 - 6 - 1)


def test_layer_totals_sum_calls_and_self_time():
    tree = [
        span(1, "request", 0, 10),
        span(2, "ml.conv2d", 1, 3, parent=1),
        span(3, "ml.conv2d", 4, 5, parent=1),
        span(4, "ml.resize", 6, 9, parent=1),
    ]
    totals = spans.layer_totals(tree, spans.self_times(tree))
    assert totals["ml.conv2d"] == (2, 3.0)
    assert totals["ml.resize"] == (1, 3.0)
    assert totals["request"] == (1, 4.0)


def test_tracer_links_parents_and_requests():
    tracer = Tracer()
    with tracer.root("r1") as root:
        outer = tracer.open("stream.runner")
        inner = tracer.open("sensor.roi_read")
        tracer.close(inner)
        tracer.close(outer)
    assert outer.parent == root.id and inner.parent == outer.id
    assert {s.request for s in tracer.spans} == {"r1"}
    assert tracer.current() is None
    assert all(s.start <= s.end for s in tracer.spans)


def test_spans_of_other_threads_join_the_request():
    tracer = Tracer()
    with tracer.root() as root:
        assert tracer.bind_request("c0-req-1") is root
        queue = tracer.record("server.queue", root.start, math.nan, root, "c0-req-1")
        tracer.queues["c0-req-1"] = queue
        seen = {}

        def daemon_side():
            seen["before"] = tracer.remote_parent("c0-req-1")
            queue.end = queue.start
            seen["after"] = tracer.remote_parent("c0-req-1")

        thread = threading.Thread(target=daemon_side)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert tracer.roots["c0-req-1"] is root
    assert seen == {"before": queue, "after": root}
    assert tracer.remote_parent("unknown") is None


@pytest.mark.parametrize(
    "n, q, beyond, supported",
    [(1000, 99, 10, True), (999, 99, 9, False), (100, 90, 10, True),
     (99, 90, 9, False), (20, 50, 10, True), (10000, 99.9, 10, True)],
)
def test_percentile_needs_ten_samples_beyond(n, q, beyond, supported):
    assert spans.samples_beyond(n, q) == beyond
    assert spans.percentile_supported(n, q) is supported


def test_percentile_matches_numpy():
    values = list(np.random.default_rng(0).exponential(size=257))
    for q in (5, 10, 50, 99):
        assert spans.percentile(values, q) == pytest.approx(np.percentile(values, q))
    with pytest.raises(ValueError):
        spans.percentile([], 50)


def test_instrument_times_layers_without_changing_outputs():
    from repro.ml.layers import Conv2D
    from repro.service import Engine, EngineCache, ScenarioSpec, SystemSpec

    system = SystemSpec.from_dict({
        "detector": {"name": "ground-truth"},
        "classifier": {"name": "tiny-cnn", "params": {"input_size": 16}},
    })
    spec = ScenarioSpec.from_dict({
        "source": {"name": "pedestrian", "params": {"resolution": [64, 48]}},
        "n_frames": 3, "window": 3,
    })
    engine = Engine(system, cache=EngineCache.disabled())
    forward = Conv2D.forward
    plain = engine.run(spec)
    tracer = Tracer()
    with spans.instrument(tracer):
        assert Conv2D.forward is not forward
        with tracer.root("r1"):
            traced = engine.run(spec)
    assert Conv2D.forward is forward
    assert traced.outcome.frames == plain.outcome.frames
    names = {s.name for s in tracer.spans}
    assert {"stream.source", "stream.runner", "sensor.expose", "sensor.pool_adc",
            "ml.conv2d", "service.cache", spans.ENGINE_LAYER} <= names
    assert tracer.counters["pooled_frames"] == 3
    assert all(s.request == "r1" for s in tracer.spans)
