"""The benchmark's workloads: inputs from a seed, timed phases, output checks.

Each workload drives a public front door of the program and nothing
else: ``Engine.run`` for the two stream workloads, and a live
``ReproServer`` reached through ``ServerClient`` over its real socket for
``serve-mix``.  Every workload is a closed loop of *requests*, each a
*hit* (a spec the engine already served, answered from its result cache)
or a *miss* (computed).  Every output is compared with an oracle computed
in the same process; a mismatch counts as a failed request.

:func:`run` measures one invocation.  Untraced, it reports the end-to-end
metrics; traced, it runs a short untraced phase and then a traced one,
and reports the per-layer metrics of the traced phase.
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import math
import resource
import statistics
import threading
import time

import numpy as np

from repro.server import ReproServer, ServerClient
from repro.service import SOURCES, Engine, EngineCache, ScenarioSpec, SystemSpec

import spans

#: Set-ups per invocation; ``setup_s`` is their median.  It stays in raw
#: seconds: set-up is mostly first touches of fresh clip memory, which the
#: host probe does not track.
SETUPS = 7
#: A request's latency is divided by the median of the probes timed up to
#: this many places before and after the one timed last before it.
PROBE_WINDOW = 5

TINY_CNN = {
    "name": "tiny-cnn",
    "params": {"input_size": 32, "classes": ["a", "b", "c", "d"]},
}
CLASSIFY_SYSTEM = {
    "system": "hirise",
    "config": {"pool_k": 4},
    "detector": {"name": "ground-truth"},
    "classifier": TINY_CNN,
}
PLAIN_SYSTEM = {
    "system": "hirise",
    "config": {"pool_k": 4},
    "detector": {"name": "ground-truth"},
}

#: Stream workloads.  Each run serves several one-window clips, so that
#: one seed's scene layout does not decide the run's figures.
STREAMS = {
    "stream-classify": {
        "system": CLASSIFY_SYSTEM,
        "source": {"name": "pedestrian", "params": {"resolution": [256, 192], "n_walkers": 10}},
        "policy": {"name": "none"},
    },
    "stream-reuse": {
        "system": PLAIN_SYSTEM,
        "source": {"name": "pedestrian", "params": {"resolution": [320, 240], "n_walkers": 6}},
        "policy": {"name": "temporal-reuse", "params": {"max_reuse": 3}},
    },
}
STREAM_CLIPS = 12
STREAM_FRAMES = 12
STREAM_WINDOW = 12

#: serve-mix: the daemon, its hot set, and the never-seen specs per block
#: of ten requests.
SERVE_SPEC = {"system": CLASSIFY_SYSTEM, "executor": "thread", "workers": 2}
SERVE_CLIENTS = 2
SERVE_HOT = 8
SERVE_FRESH_PER_BLOCK = 2
SERVE_FRAMES = 8
SERVE_RESOLUTION = [160, 120]
#: Transfer and energy per frame are read over this many leading requests
#: of the plan, which every run completes, so they repeat exactly per seed.
SERVE_FIXED_PREFIX = 200

#: Layers in report order: the timed calls of :data:`spans.LAYERS`, the
#: queue span and the engine work the cache calls back into.
LAYER_NAMES = (
    "server.protocol", "server.queue", "service.cache", spans.ENGINE_LAYER,
    "service.executor", "stream.source", "stream.runner", "stream.reuse",
    "sensor.expose", "sensor.pool_adc", "sensor.roi_read", "core.detect",
    "core.condition", "ml.resize", "ml.classify", "ml.conv2d", "ml.batchnorm",
    "ml.maxpool", "ml.dense", "ml.other",
)


@dataclasses.dataclass
class Request:
    """One timed request: hit or miss, its latency, and whether it was right."""

    hit: bool
    latency_s: float
    frames: int
    ok: bool = True
    #: Index in ``Phase.probes`` of the probe timed last before it.
    probe: int = 0


@dataclasses.dataclass
class Round:
    """A stretch of a phase that gives one throughput sample."""

    #: Requests that count toward throughput.
    served: int
    #: Seconds the program worked for them; the probe's time is not part of it.
    busy_s: float
    #: Index in ``Phase.probes`` of a probe timed within the round.
    probe: int


@dataclasses.dataclass
class Phase:
    """One timed phase: its requests, rounds, probes and computed ledgers."""

    requests: list[Request]
    rounds: list[Round]
    #: StreamOutcome of every computed (miss) request.
    computed: list
    #: Durations of the host probe timed during the phase.
    probes: list[float]
    #: The engine cache's counters over the phase (a CacheStats delta).
    cache: object = None
    #: serve-mix: the plan index of each request.
    indices: list[int] | None = None

    def latencies(self, hit: bool | None = None) -> list[float]:
        return [r.latency_s for r in self.requests if hit is None or r.hit == hit]

    @functools.cached_property
    def local_probes(self) -> list[float]:
        """Per probe, the median of the probes timed around it."""
        return [
            statistics.median(self.probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1])
            for i in range(len(self.probes))
        ]

    def in_probes(self, hit: bool) -> list[float]:
        """Latencies of hit or of computed requests, each in local probe units."""
        return [
            r.latency_s / self.local_probes[r.probe] for r in self.requests if r.hit == hit
        ]

    @property
    def busy_s(self) -> float:
        return sum(r.busy_s for r in self.rounds)

    @property
    def served(self) -> int:
        return sum(r.served for r in self.rounds)

    @property
    def requests_per_s(self) -> float:
        return self.served / self.busy_s

    @property
    def requests_per_probe(self) -> float:
        """Median over rounds of the throughput times the local probe."""
        return statistics.median(
            r.served / r.busy_s * self.local_probes[r.probe] for r in self.rounds
        )


def derived_seeds(seed: int, stream: int, count: int) -> list[int]:
    """``count`` seeds for input stream ``stream`` of workload seed ``seed``."""
    rng = np.random.default_rng([seed, stream])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def labels(result) -> list[tuple[str, ...]]:
    """Every frame's stage-2 labels, in crop order."""
    return [tuple(p.label for p in o.predictions) for o in result.outcome.outcomes]


def per_frame(outcomes) -> tuple[float, float]:
    """Mean simulated transfer (kB) and sensor energy (uJ) per frame."""
    frames = sum(o.n_frames for o in outcomes)
    kb = sum(o.total_bytes for o in outcomes) / 1024.0 / frames
    uj = sum(o.total_energy_j for o in outcomes) * 1e6 / frames
    return kb, uj


class HostProbe:
    """A fixed job that never calls the program, timed next to the requests.

    Its duration says how fast the host runs at that moment: on a small
    machine shared with other tenants, contention slows everything in a
    process by up to ~40% for tens of seconds.  Dividing a latency by the
    probe's median, both taken in the same stretch of time, cancels it.
    The job mixes the kinds of work the program does: interpreter-bound
    Python, a memory-bound pass over frame-sized arrays, small matmuls.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._frames = rng.random((4, 192, 256, 3))
        self._patches = rng.random((4096, 27))
        self._weights = rng.random((27, 8))
        self.samples: list[float] = []

    def __call__(self) -> None:
        start = time.perf_counter()
        total = 0
        for i in range(1000):
            total += hash((i, "probe")) & 7
        (self._frames * 0.5 + 0.1).reshape(4, 48, 4, 64, 4, 3).mean(axis=(2, 4))
        for _ in range(3):
            self._patches @ self._weights
        self.samples.append(time.perf_counter() - start)


# -- stream workloads --------------------------------------------------------------


class StreamWorkload:
    """Repeated ``Engine.run`` over warm clips: computed and cached requests."""

    #: What per-layer figures are divided by.
    unit = "computed frame"
    #: Computed requests pass their clip in, which bypasses the cache.
    misses_use_cache = False

    def __init__(self, name: str, seed: int):
        config = STREAMS[name]
        self.system = SystemSpec.from_dict(config["system"])
        self.specs = [
            ScenarioSpec.from_dict({
                "name": f"{name}-{index}",
                "source": config["source"],
                "n_frames": STREAM_FRAMES,
                "seed": clip_seed,
                "policy": config["policy"],
                "window": STREAM_WINDOW,
                "keep_outcomes": True,
            })
            for index, clip_seed in enumerate(derived_seeds(seed, 0, STREAM_CLIPS))
        ]
        # Per-frame (window=1), cache-disabled runs of the same specs.
        reference = Engine(self.system, cache=EngineCache.disabled())
        self.expected = []
        for spec in self.specs:
            result = reference.run(dataclasses.replace(spec, window=1))
            want = labels(result)
            result.outcome.outcomes.clear()
            self.expected.append((result.outcome, want))

    def build(self):
        engine = Engine(self.system)
        clips = []
        for spec in self.specs:
            factory = SOURCES.get(spec.source.name)
            clip = factory(spec.n_frames, spec.seed, **dict(spec.source.params))
            # Warm-up: one computed run per clip, memoized so that the hit
            # requests read the result cache.  Hits are checked on their
            # ledger, so the cached result keeps no per-frame images.
            result = engine.run(spec, clip=clip)
            result.outcome.outcomes.clear()
            engine.cache.results.put(engine.result_key_for(spec), result)
            clips.append(clip)
        return engine, clips

    def close(self, state) -> None:
        state[0].cache.clear()

    def cache_stats(self, state):
        return state[0].cache.stats()

    def phase(self, state, seconds: float, tracer=None) -> Phase:
        """Closed loop: per clip, a probe, one computed request, then one hit.

        One pass over the clips is a round: throughput counts its computed
        requests over the time spent in their ``Engine.run`` calls.
        """
        engine, clips = state
        requests, computed = [], []
        count = 0

        def call(index, clip=None):
            nonlocal count
            count += 1
            if tracer is None:
                start = time.perf_counter()
                result = engine.run(self.specs[index], clip=clip)
                return result, time.perf_counter() - start
            with tracer.root(f"r{count}") as root:
                result = engine.run(self.specs[index], clip=clip)
            return result, root.end - root.start

        probe = HostProbe()
        rounds = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            busy = 0.0
            for index, clip in enumerate(clips):
                want, want_labels = self.expected[index]
                probe()
                at = len(probe.samples) - 1
                result, latency = call(index, clip)
                busy += latency
                ok = result.outcome.frames == want.frames and labels(result) == want_labels
                requests.append(Request(False, latency, want.n_frames, ok, at))
                # Keep the ledger only: full outcomes hold every frame's images.
                result.outcome.outcomes.clear()
                computed.append(result.outcome)
                # One read of the same spec from the result cache.  It is
                # not stream traffic: it exists so that hit_p50_probe is
                # defined here too, and it counts toward no throughput.
                result, latency = call(index)
                ok = result.outcome.frames == want.frames
                requests.append(Request(True, latency, want.n_frames, ok, at))
            rounds.append(Round(len(clips), busy, len(probe.samples) - 1 - len(clips) // 2))
        return Phase(requests, rounds, computed, probe.samples)

    def verify(self, phase: Phase) -> None:
        """Outputs were compared as they came (nothing is retained)."""

    def per_frame(self, phase: Phase) -> tuple[float, float]:
        """Over the computed requests of the phase (each ledger was checked)."""
        return per_frame(phase.computed)

    def units(self, phase: Phase) -> int:
        return sum(o.n_frames for o in phase.computed)


# -- serve-mix ---------------------------------------------------------------------


class _Client(ServerClient):
    """A client whose request ids are unique across connections, so that
    the daemon-side spans of a request join its client-side ones."""

    def __init__(self, tag: str, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._tag = tag

    def _next_id(self) -> str:
        return f"{self._tag}-{super()._next_id()}"


def _serve_spec(name: str, index: int, seed: int) -> ScenarioSpec:
    source = ("pedestrian", "drone")[index % 2]
    return ScenarioSpec.from_dict({
        "name": f"{name}-{index}",
        "source": {"name": source, "params": {"resolution": SERVE_RESOLUTION}},
        "n_frames": SERVE_FRAMES,
        "seed": seed,
    })


class ServeMix:
    """Two keep-alive clients in a closed loop against an in-process daemon."""

    unit = "request"
    misses_use_cache = True

    def __init__(self, seed: int, seconds: float):
        self.hot = [
            _serve_spec("hot", i, s)
            for i, s in enumerate(derived_seeds(seed, 1, SERVE_HOT))
        ]
        # The plan: blocks of the whole hot set plus the never-seen specs,
        # shuffled within the block, so that any prefix has the exact mix.
        size = SERVE_HOT + SERVE_FRESH_PER_BLOCK
        blocks = max(int(seconds * 60), SERVE_FIXED_PREFIX // size + 1)
        fresh_seeds = derived_seeds(seed, 2, blocks * SERVE_FRESH_PER_BLOCK)
        order = np.random.default_rng([seed, 3])
        self.plan: list[tuple[bool, ScenarioSpec]] = []
        for block in range(blocks):
            items = [(True, spec) for spec in self.hot]
            for k in range(SERVE_FRESH_PER_BLOCK):
                index = block * SERVE_FRESH_PER_BLOCK + k
                items.append((False, _serve_spec("fresh", index, fresh_seeds[index])))
            self.plan.extend(items[i] for i in order.permutation(size))
        self.next = 0
        #: hot spec name -> the outcome the daemon served at warm-up; every
        #: hit reply is compared with it on arrival and then dropped, so
        #: that retained memory does not grow with throughput.
        self.hot_outcomes: dict[str, object] = {}
        #: plan index -> the StreamOutcome of a never-seen spec's reply
        self.fresh: dict[int, object] = {}

    def build(self):
        server = ReproServer(SERVE_SPEC, queue_size=16).start()
        clients = []
        try:
            for k in range(SERVE_CLIENTS):
                clients.append(_Client(f"c{k}", *server.address, timeout_s=120.0).connect())
            self.hot_outcomes = {spec.name: clients[0].run(spec).outcome for spec in self.hot}
        except BaseException:
            self.close((server, clients))
            raise
        return server, clients

    def close(self, state) -> None:
        server, clients = state
        for client in clients:
            client.close()
        server.shutdown(drain=True)

    def cache_stats(self, state):
        return state[0].engine.cache.stats()

    def phase(self, state, seconds: float, tracer=None) -> Phase:
        """Both clients work through one block of the plan at a time.

        Between blocks, once both clients are idle and no request is in
        flight, one of them times the host probe; the probe therefore
        never competes with the daemon, and its time is part of no
        block's time.  Each block is a round.
        """
        _, clients = state
        size = SERVE_HOT + SERVE_FRESH_PER_BLOCK
        lock = threading.Lock()
        records: list[tuple[int, Request]] = []
        errors: list[BaseException] = []
        crashed: list[BaseException] = []
        rounds: list[Round] = []
        deadline = time.perf_counter() + seconds
        probe = HostProbe()
        block = {"begin": self.next, "end": self.next, "start": None, "stop": False}

        def between_blocks() -> None:
            now = time.perf_counter()
            if block["start"] is not None:
                served = block["end"] - block["begin"]
                rounds.append(Round(served, now - block["start"], len(probe.samples) - 1))
            if now >= deadline or self.next >= len(self.plan):
                block["stop"] = True
                return
            probe()
            block["begin"], block["end"] = self.next, min(self.next + size, len(self.plan))
            block["start"] = time.perf_counter()

        barrier = threading.Barrier(len(clients), action=between_blocks)

        def send(client, index: int) -> None:
            hit, spec = self.plan[index]
            result = None
            start = time.perf_counter()
            try:
                if tracer is None:
                    result = client.run(spec)
                else:
                    with tracer.root():
                        result = client.run(spec)
            except Exception as exc:  # noqa: BLE001 - counted as a failed request
                errors.append(exc)
            latency = time.perf_counter() - start
            request = Request(hit, latency, 0, False, len(probe.samples) - 1)
            if result is not None:
                request.frames = result.outcome.n_frames
                request.ok = result.scenario == spec
                if hit:
                    request.ok = request.ok and (
                        result.outcome.frames == self.hot_outcomes[spec.name].frames
                    )
            with lock:
                if result is not None and not hit:
                    self.fresh[index] = result.outcome
                records.append((index, request))

        def loop(client) -> None:
            try:
                while True:
                    barrier.wait()
                    if block["stop"]:
                        return
                    while True:
                        with lock:
                            if self.next >= block["end"]:
                                break
                            index = self.next
                            self.next += 1
                        send(client, index)
            except threading.BrokenBarrierError:
                return
            except BaseException as exc:
                crashed.append(exc)
                barrier.abort()

        threads = [threading.Thread(target=loop, args=(c,)) for c in clients]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 120.0)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("serve-mix: a client thread did not finish")
        if crashed:
            raise RuntimeError("serve-mix: a client thread failed") from crashed[0]
        for exc in errors[:3]:
            print(f"# request failed: {type(exc).__name__}: {exc}")
        records.sort(key=lambda item: item[0])
        computed = [self.fresh[i] for i, r in records if not r.hit and i in self.fresh]
        return Phase(
            [r for _, r in records], rounds, computed, probe.samples,
            indices=[i for i, _ in records],
        )

    def verify(self, phase: Phase) -> None:
        """Compare every reply's ledger with a fresh cache-disabled ``Engine.run``.

        Hit replies were compared on arrival with the hot spec's warm-up
        reply, which is checked here.
        """
        reference = Engine(SystemSpec.from_dict(CLASSIFY_SYSTEM), cache=EngineCache.disabled())
        expected: dict[str, list] = {}

        def want(spec):
            if spec.name not in expected:
                expected[spec.name] = reference.run(spec).outcome.frames
            return expected[spec.name]

        wrong_hot = {
            spec.name for spec in self.hot if self.hot_outcomes[spec.name].frames != want(spec)
        }
        for index, request in zip(phase.indices, phase.requests):
            hit, spec = self.plan[index]
            if hit:
                request.ok = request.ok and spec.name not in wrong_hot
            elif index in self.fresh:
                request.ok = request.ok and self.fresh[index].frames == want(spec)

    def per_frame(self, phase: Phase) -> tuple[float, float]:
        """Over the leading requests of the plan, which every run serves."""
        outcomes = []
        for index in range(SERVE_FIXED_PREFIX):
            hit, spec = self.plan[index]
            if hit:
                outcomes.append(self.hot_outcomes[spec.name])
            elif index in self.fresh:
                outcomes.append(self.fresh[index])
        return per_frame(outcomes)

    def units(self, phase: Phase) -> int:
        return len(phase.requests)


# -- one invocation ----------------------------------------------------------------


def median_setup(workload):
    """Set the workload up :data:`SETUPS` times; keep the last; median seconds."""
    times, state = [], None
    for _ in range(SETUPS):
        if state is not None:
            workload.close(state)
            state = None
            # The last set-up's daemon, clips and caches are gone before
            # the next begins, so peak memory does not depend on when the
            # collector would have run.
            gc.collect()
        start = time.perf_counter()
        state = workload.build()
        times.append(time.perf_counter() - start)
    return statistics.median(times), state


def timed(workload, state, seconds: float, tracer=None) -> Phase:
    before = workload.cache_stats(state)
    phase = workload.phase(state, seconds, tracer)
    phase.cache = workload.cache_stats(state) - before
    return phase


def cache_agrees(workload, phase: Phase) -> bool:
    """Every hit request read the result cache and every miss computed."""
    hits = sum(r.hit for r in phase.requests)
    misses = len(phase.requests) - hits if workload.misses_use_cache else 0
    return phase.cache.results.hits == hits and phase.cache.results.misses == misses


def run(name: str, seed: int, seconds: float, trace: bool):
    """Measure one invocation of workload ``name``.

    Returns:
        ``(result, notes, spans)``: the result object the benchmark prints
        last, human-readable notes, and the traced phase's spans (empty
        when untraced).
    """
    if name == "serve-mix":
        workload = ServeMix(seed, seconds)
    elif name in STREAMS:
        workload = StreamWorkload(name, seed)
    else:
        raise ValueError(f"unknown workload {name!r}")
    setup_s, state = median_setup(workload)
    tracer = spans.Tracer() if trace else None
    try:
        if trace:
            # A short untraced phase first: the tracing overhead is the
            # ratio of its throughput to the traced phase's.
            plain = timed(workload, state, seconds / 3)
            with spans.instrument(tracer):
                phases = [plain, timed(workload, state, seconds - seconds / 3, tracer)]
        else:
            phases = [timed(workload, state, seconds)]
    finally:
        workload.close(state)
    for phase in phases:
        workload.verify(phase)

    attempted = sum(len(p.requests) for p in phases)
    failed = sum(not r.ok for p in phases for r in p.requests)
    agrees = all(cache_agrees(workload, p) for p in phases)
    notes = [
        f"requests: {attempted} attempted, {failed} failed "
        f"(failed_ratio {failed / attempted:.4f})",
        f"result cache: hits and misses match the plan: {agrees}",
    ]
    if trace:
        metrics = layer_metrics(workload, phases[0], phases[1], tracer, notes)
    else:
        metrics = end_to_end_metrics(workload, phases[0], setup_s, notes)
    result = {
        "correct": failed == 0 and agrees,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, notes, [] if tracer is None else tracer.spans


def end_to_end_metrics(workload, phase: Phase, setup_s: float, notes: list[str]) -> dict:
    """The bounded end-to-end metrics; raw timings go to ``notes``.

    Host contention moves raw latencies and throughput by up to ~40%
    from one run to the next, even at one seed.  The bounded timings are
    therefore expressed in units of the host probe (see
    :class:`HostProbe`), each divided by the probes timed around it,
    which cancels it.  The raw figures are printed, with their sample
    counts, for reading.
    """
    hits, misses, every = phase.latencies(True), phase.latencies(False), phase.latencies()
    probe = statistics.median(phase.probes)
    p99 = spans.percentile(every, 99)
    beyond = spans.samples_beyond(len(every), 99)
    frames = sum(o.n_frames for o in phase.computed)
    kb, uj = workload.per_frame(phase)
    notes += [
        f"probe_ms {probe * 1e3:.4f} ms ({len(phase.probes)} probes)",
        f"frames_per_s {frames / sum(misses):.4f} frames/s "
        f"({frames} computed frames in {sum(misses):.2f} s of computed requests)",
        f"requests_per_s {phase.requests_per_s:.4f} req/s "
        f"({phase.served} requests in {phase.busy_s:.2f} s)",
        f"hit_p50_ms {statistics.median(hits) * 1e3:.4f} ms ({len(hits)} hits)",
        f"miss_p50_ms {statistics.median(misses) * 1e3:.4f} ms ({len(misses)} misses)",
        f"request_p99_ms {p99 * 1e3:.4f} ms = {p99 / probe:.4f} probe "
        f"({beyond} samples beyond it"
        + ("" if spans.percentile_supported(len(every), 99) else "; fewer than 10, unsupported")
        + ")",
    ]
    return {
        "miss_p50_probe": (statistics.median(phase.in_probes(hit=False)), "probe"),
        "hit_p50_probe": (statistics.median(phase.in_probes(hit=True)), "probe"),
        "requests_per_probe": (phase.requests_per_probe, "req/probe"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "transfer_kb_per_frame": (kb, "kB"),
        "sensor_uj_per_frame": (uj, "uJ"),
    }


def layer_metrics(workload, plain: Phase, traced: Phase, tracer, notes: list[str]) -> dict:
    units = workload.units(traced)
    own = spans.self_times(tracer.spans)
    totals = spans.layer_totals(tracer.spans, own)
    metrics = {}
    for layer in LAYER_NAMES:
        calls, seconds = totals.get(layer, (0, 0.0))
        metrics[f"{layer}.calls"] = (calls / units, "count")
        metrics[f"{layer}.self_ms"] = (seconds * 1e3 / units, "ms")

    waits = [
        s.duration for s in tracer.spans if s.name == "server.queue" and not math.isnan(s.end)
    ]
    frames = sum(o.n_frames for o in traced.computed)
    pooled = tracer.counters["pooled_frames"]
    used = sum(o.stage1_frames for o in traced.computed)
    forwards = totals.get("ml.classify", (0, 0.0))[0]
    roots = [s for s in tracer.spans if s.name == "request"]
    extras = {
        "server.protocol.reply_bytes": (tracer.counters["reply_bytes"] / units, "B"),
        "server.queue.wait_p50_ms": (spans.percentile(waits, 50) * 1e3 if waits else 0.0, "ms"),
        "server.queue.wait_p99_ms": (spans.percentile(waits, 99) * 1e3 if waits else 0.0, "ms"),
        "service.cache.result_hit_ratio": (traced.cache.results.hit_rate, "share"),
        "service.cache.clip_hit_ratio": (traced.cache.clips.hit_rate, "share"),
        "stream.reuse.grant_ratio": (
            sum(o.reused_frames for o in traced.computed) / frames if frames else 0.0, "share"
        ),
        "sensor.pool_adc.discarded_ratio": ((pooled - used) / pooled if pooled else 0.0, "share"),
        "ml.crops_per_forward": (tracer.counters["crops"] / forwards if forwards else 0.0, "count"),
        "unattributed_share": (
            sum(own[s.id] for s in roots) / sum(s.duration for s in roots), "share"
        ),
        "tracing_overhead": (plain.requests_per_probe / traced.requests_per_probe, "ratio"),
    }
    metrics.update(extras)
    notes.append(
        f"traced phase: {len(traced.requests)} requests, {frames} computed frames, "
        f"{len(tracer.spans)} spans; per-layer figures are per {workload.unit}"
    )
    if waits:
        notes.append(
            f"queue waits: {len(waits)} samples, {spans.samples_beyond(len(waits), 99)} beyond the p99"
        )
    return metrics
