"""Pluggable batch executors: serial, thread-pool, and process-pool.

:meth:`Engine.run_batch` delegates *how* a batch of scenarios runs to an
:class:`Executor`.  All three implementations produce bit-identical
results — determinism is the engine's contract, seeded entirely by the
specs — and differ only in wall-clock behavior:

* :class:`SerialExecutor` — the reference loop; zero overhead, zero
  concurrency.  What every other executor is asserted against.
* :class:`ThreadExecutor` — one thread pool, shared address space, shared
  engine cache.  Wins when requests overlap I/O or release the GIL;
  NumPy-heavy pipeline work largely does not, which caps its speedup.
* :class:`ProcessExecutor` — a spawn-safe process pool for the CPU-bound
  case.  Scenarios are **chunked by clip key** so each worker renders a
  shared clip once, and the work units it ships are plain picklable specs
  (:class:`~repro.service.SystemSpec` + :class:`~repro.service.ScenarioSpec`),
  rebuilt into an engine on the other side.  Requires every
  component named by the spec to be registered at import time in the
  worker (i.e. registered by :mod:`repro.service.components` or another
  imported module) — spawn does not inherit runtime registrations.

  Clips the parent already holds (memory tier, or promoted from the disk
  store) ride along with the work units so workers skip rendering: over
  one ``multiprocessing.shared_memory`` segment per distinct clip that
  every worker maps (:mod:`repro.store.shm`), falling back to plain
  pickling when a clip cannot be shared.  When the engine cache has a
  disk store attached, workers open the same store root, so their
  renders persist too.  Results persist once, through the
  parent: it claims every scenario in the engine's result tier, ships
  only the builds it owns, and settles each with the worker's result.

Executors are selected by name (``EXECUTOR_NAMES``) via
``ServiceSpec.executor`` or ``repro run --executor``; pass a constructed
instance to :meth:`Engine.run_batch` to reuse a warm pool across batches
(worker spawn costs are paid once per pool, not per batch).
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context
from threading import Lock
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from ..faults import FaultInjector, FaultPlan
    from ..store.shm import SharedClipLease
    from .cache import CacheStats, EngineCache
    from .engine import Engine, RunResult
    from .spec import ScenarioSpec, SystemSpec

#: Executor names a spec/CLI can select, in documentation order.
EXECUTOR_NAMES = ("serial", "thread", "process")


class WorkUnitRetryError(RuntimeError):
    """A work unit's retry budget is exhausted: its worker kept dying.

    Raised by :class:`ProcessExecutor` when re-dispatching after pool
    respawns has failed ``attempts`` times for the same chunk of work
    units.  Deterministic failures inside a unit (exceptions) propagate
    as themselves — only hard worker deaths (``BrokenProcessPool``) are
    retried, so reaching this error means the environment, not the spec,
    is broken.

    Attributes:
        labels: the affected work units' scenario labels.
        attempts: how many times the chunk was dispatched.
    """

    def __init__(self, labels, attempts: int):
        self.labels = tuple(labels)
        self.attempts = attempts
        units = ", ".join(repr(label) for label in self.labels)
        super().__init__(
            f"work unit(s) {units}: worker died on all {attempts} "
            f"attempt(s); retry budget exhausted"
        )


class Executor:
    """How a batch of scenarios is driven through an engine.

    Subclasses implement :meth:`execute`; pools (if any) persist across
    calls until :meth:`close`, so a long-lived executor amortizes its
    startup cost over every batch it serves.  Executors are context
    managers: ``with ProcessExecutor(4) as pool: engine.run_batch(...)``.
    """

    #: Registry name; also what ``BatchResult.executor`` reports.
    name: str = "?"

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def execute(
        self,
        engine: "Engine",
        scenarios: Sequence["ScenarioSpec"],
        cache_delta: "CacheStats | None" = None,
    ) -> list["RunResult"]:
        """Serve every scenario, returning results in request order.

        ``cache_delta`` (when given) collects exactly this call's cache
        traffic — executors must thread it into every lookup they make on
        the engine's cache, so one warm cache can serve concurrent
        ``execute`` calls and still attribute hits/misses per batch.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release pool resources; the executor is done serving."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


class SerialExecutor(Executor):
    """The reference: one request after another, in the calling thread."""

    name = "serial"

    def execute(self, engine, scenarios, cache_delta=None):
        return [engine.run(s, cache_delta=cache_delta) for s in scenarios]


class ThreadExecutor(Executor):
    """The shared-memory pool: PR 2's ``run_batch`` behavior.

    Threads share the engine's cache directly, so identical in-flight
    requests single-flight through it; the pool persists across
    :meth:`execute` calls, and concurrent ``execute`` calls (a serving
    daemon's worker threads) share it safely.
    """

    name = "thread"

    def __init__(self, workers: int = 1):
        super().__init__(workers)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = Lock()

    def execute(self, engine, scenarios, cache_delta=None):
        if self.workers == 1 or len(scenarios) <= 1:
            return [engine.run(s, cache_delta=cache_delta) for s in scenarios]
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(max_workers=self.workers)
            pool = self._pool
        return list(
            pool.map(lambda s: engine.run(s, cache_delta=cache_delta), scenarios)
        )

    def close(self):
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None


def _chunk_by_clip(
    scenarios: Sequence[tuple[int, "ScenarioSpec"]], n_chunks: int
) -> list[list[tuple[int, "ScenarioSpec"]]]:
    """Pack indexed scenarios into ``<= n_chunks`` clip-coherent chunks.

    Scenarios sharing a clip key gravitate into one chunk (their worker
    renders the clip once), but a group larger than an even worker share
    is split — a homogeneous fleet must not serialize onto one worker
    (each worker that gets a piece renders the clip once; its clip cache
    amortizes that across the piece).  Pieces are distributed
    greedily, largest first, onto the least-loaded chunk.  Uncacheable
    scenarios (``clip_key`` is None) each form their own group — nothing
    can share with them.
    """
    from .cache import clip_key

    groups: dict[object, list[tuple[int, "ScenarioSpec"]]] = {}
    for index, scenario in scenarios:
        key = clip_key(scenario)
        groups.setdefault(key if key is not None else ("solo", index), []).append(
            (index, scenario)
        )
    # An even share per chunk; any group above it splits into share-sized
    # pieces so parallelism never collapses to the distinct-clip count.
    share = -(-len(scenarios) // n_chunks)  # ceil
    pieces: list[list[tuple[int, "ScenarioSpec"]]] = []
    for group in groups.values():
        pieces.extend(group[i : i + share] for i in range(0, len(group), share))
    chunks: list[list[tuple[int, "ScenarioSpec"]]] = [
        [] for _ in range(min(n_chunks, len(pieces)))
    ]
    for piece in sorted(pieces, key=len, reverse=True):
        min(chunks, key=len).extend(piece)
    return [c for c in chunks if c]


#: One clip cache and one fault injector per (clip capacity, store root,
#: fault plan), across every engine in this worker process.  Clip keys are
#: system-agnostic by design, so sharing is safe — and it is what lets a
#: multi-system sweep over one workload reuse the rendered clip instead of
#: re-rendering it per system (the parent-side engines share one
#: EngineCache the same way).  The result tier is disabled: results are
#: memoized only in the parent.  The injector lives as long as the
#: process, so ``"process"``-scope hits count per process, not per chunk.
_WORKER_CACHES: dict[tuple, tuple["EngineCache", "FaultInjector | None"]] = {}


def _run_chunk(
    system: "SystemSpec",
    items: list[tuple[int, "ScenarioSpec"]],
    clip_capacity: int,
    profile: bool = False,
    clips: dict | None = None,
    store_dir: str | None = None,
    fault_plan: "FaultPlan | None" = None,
):
    """Worker entry point: serve one chunk against a fresh engine.

    Module-level (picklable by reference) and lazy-importing, as the
    spawn start method requires.  The worker engine mirrors the parent's
    clip capacity — a parent that disabled caching gets a worker that
    really re-renders — sharing one per-process clip cache across every
    system it serves (clip reuse spans systems, exactly like the parent
    side), and the parent's ``profile`` flag, so profiled
    batches come back with phase breakdowns (profiles are plain data and
    pickle with the results).  It keeps no result tier: the parent owns
    every result it dispatches and memoizes it on arrival.  Returns the
    indexed results plus the chunk's clip-tier stats delta, so the
    parent's accounting covers work done here.

    ``clips`` maps raw clip keys to parent-shipped payloads —
    ``("shm", SharedClipHandle)`` or ``("pickle", SyntheticClip)`` —
    seeded into the worker's clip tier before serving, so the worker
    reuses the parent's rendered frames instead of rebuilding them (a
    vanished shared segment just falls back to rendering).  ``store_dir``
    points the worker at the parent's on-disk store so its own renders
    persist too.

    ``fault_plan`` (the parent engine's :class:`~repro.faults.FaultPlan`)
    arms this worker: its one injector for the plan, kept with the clip
    cache, is handed to the worker's store, to :func:`attach_clip` and to
    the ``worker.run`` site.  With none shipped, nothing fires.  A
    ``worker-crash`` fault at the ``worker.run`` site exits this process
    hard (``os._exit``) — the parent observes a broken pool and
    re-dispatches.
    """
    from ..faults import FaultInjector
    from .cache import EngineCache
    from .engine import Engine

    cache_key = (clip_capacity, store_dir, fault_plan)
    entry = _WORKER_CACHES.get(cache_key)
    if entry is None:
        injector = None if fault_plan is None else FaultInjector(fault_plan)
        store = None
        if store_dir is not None:
            from ..store.artifact import ArtifactStore

            store = ArtifactStore(store_dir, faults=injector)
        cache = EngineCache(
            clip_capacity=clip_capacity,
            result_capacity=0,
            store=store,
        )
        entry = _WORKER_CACHES[cache_key] = (cache, injector)
    cache, injector = entry
    engine = Engine(system, cache=cache, profile=profile, faults=injector)
    if clips:
        from ..store.shm import ClipSegmentGoneError, attach_clip

        unit_ids = [scenario.name or f"scenario[{index}]" for index, scenario in items]
        for raw_key, (transport, payload) in clips.items():
            epoch_key = engine._epoch_key(raw_key)
            if engine.cache.clips.get_cached(epoch_key) is not None:
                continue
            if transport == "shm":
                try:
                    payload = attach_clip(payload, faults=injector)
                except ClipSegmentGoneError:
                    # The designed fallback signal: the parent tore the
                    # batch down (or a fault plan said so).  Render it
                    # ourselves; nothing is wrong enough to log.
                    continue
                except (OSError, ValueError) as exc:
                    # Any *other* attach failure is survivable the same
                    # way but unexpected — say so, naming the work units
                    # that will pay the re-render.
                    print(
                        f"[repro-worker pid={os.getpid()}] shm attach of "
                        f"clip for work unit(s) {unit_ids} failed "
                        f"({type(exc).__name__}: {exc}); rendering locally",
                        file=sys.stderr,
                    )
                    continue
            engine.cache.clips.put(epoch_key, payload)
    before = engine.cache.clips.stats.snapshot()
    results = []
    for index, scenario in items:
        if injector is not None:
            spec = injector.fire("worker.run")
            if spec is not None and spec.kind == "worker-crash":
                # A hard death, not an exception: the pool must see a
                # vanished process, exactly like an OOM kill or segfault.
                os._exit(17)
        results.append((index, engine.run(scenario)))
    return results, engine.cache.clips.stats - before


class ProcessExecutor(Executor):
    """The multi-core pool: true parallelism for GIL-bound pipeline work.

    Spawn-safe by construction — work units are picklable specs, the
    worker function is module-level, and each worker rebuilds an engine
    from the spec per chunk.  The pool spawns lazily on first use and
    persists until :meth:`close`, so batch N+1 never pays interpreter
    startup again.

    The parent claims every scenario in the engine's result tier (the
    single-flight :meth:`~repro.service.SpecCache.claim`) and dispatches
    only the claims it owns; hits, in-batch duplicates and keys another
    caller is building wait on their owner's entry and count a hit.
    Worker clip-tier stats are folded back into the engine's cache
    accounting.

    Clips the parent already holds ship with the work units instead of
    being re-rendered in the worker, in one shared-memory segment per
    distinct clip: every worker maps the same pages, refcounted by a
    :class:`~repro.store.SharedClipLease` so the segment is unlinked
    exactly when the last dispatched chunk completes (or on any failure
    path).  A clip that cannot be shared (ragged frames, no shared memory
    on the platform, an injected ``shm.share`` fault) is pickled into
    each work unit instead.

    **Self-healing**: a dead worker (OOM kill, segfault, an injected
    ``worker-crash`` fault) breaks the whole pool —
    :class:`BrokenProcessPool` — and used to kill the whole batch.  Now
    the executor respawns the pool and re-dispatches the affected work
    units, up to ``max_unit_retries`` re-dispatches per unit.  Replay is
    safe by construction: work units are pure picklable specs, so a
    retried unit's result is bit-identical to an undisturbed run.
    Exhausting the budget raises :class:`WorkUnitRetryError` naming the
    units; deterministic in-unit exceptions are never retried (they
    would fail identically).  :meth:`resilience_stats` reports respawns and
    re-dispatched units (surfaced by the daemon's ``stats``).
    """

    name = "process"

    def __init__(self, workers: int = 1, max_unit_retries: int = 2):
        super().__init__(workers)
        if max_unit_retries < 0:
            raise ValueError(
                f"max_unit_retries must be >= 0, got {max_unit_retries}"
            )
        self.max_unit_retries = max_unit_retries
        self._pool: ProcessPoolExecutor | None = None
        self._pool_lock = Lock()
        self._resilience = {"respawns": 0, "redispatched_units": 0}

    def _ensure_pool(self) -> ProcessPoolExecutor:
        # Locked: a serving daemon's worker threads may race the first
        # execute() call, and two lazily-created pools would leak one.
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=get_context("spawn")
                )
            return self._pool

    def _respawn_pool(self, broken: ProcessPoolExecutor) -> None:
        """Retire a broken pool; the next :meth:`_ensure_pool` respawns.

        Guarded against concurrent ``execute`` calls (daemon worker
        threads share one executor): only the call whose pool is still
        the current one swaps it out — a second caller observing the
        same broken pool must not tear down the replacement.
        """
        with self._pool_lock:
            if self._pool is broken:
                self._pool = None
            self._resilience["respawns"] += 1
        try:
            broken.shutdown(wait=False, cancel_futures=True)
        except Exception:  # noqa: BLE001 - a broken pool may refuse cleanup
            pass

    def resilience_stats(self) -> dict:
        """Cumulative self-healing counters: respawns, re-dispatched units."""
        with self._pool_lock:
            return dict(self._resilience)

    def execute(self, engine, scenarios, cache_delta=None):
        tier = engine.cache.results
        result_delta = None if cache_delta is None else cache_delta.results
        results = [None] * len(scenarios)
        # Every request claims its key in the result tier, exactly as
        # Engine.run does, and only the claims this call owns dispatch:
        # hits, in-batch duplicates and keys another caller is building
        # wait on their owner's entry and count a hit.  A disabled tier
        # makes every claim an owner, so everything recomputes.  Profiled
        # requests leave the tier untouched (the engine contract): no
        # claim, no phantom miss, and every one of them really runs.
        owned: dict[int, tuple] = {}
        waiting: list = []
        units: list = []
        for index, scenario in enumerate(scenarios):
            if not engine.profile:
                key = engine.result_key_for(scenario)
                entry, owner = tier.claim(key, result_delta)
                if not owner:
                    waiting.append((index, entry))
                    continue
                owned[index] = (key, entry)
            units.append((index, scenario))

        def deliver(index, result):
            results[index] = result
            if index in owned:
                tier.settle(*owned.pop(index), result)

        try:
            if units:
                self._dispatch(engine, units, deliver, cache_delta)
        except BaseException as exc:
            # No waiter may hang on a claim this call will never settle.
            for key, entry in owned.values():
                tier.settle(key, entry, error=exc)
            raise
        for index, entry in waiting:
            results[index] = entry.result()
        return results

    def _dispatch(self, engine, units, deliver, cache_delta):
        """Run indexed scenarios on the pool, handing each result to
        ``deliver(index, result)`` as its chunk completes."""
        store = getattr(engine.cache, "store", None)
        store_dir = None if store is None else str(store.root)
        fault_plan = None if engine.faults is None else engine.faults.plan
        # One lease per distinct shared clip, acquired once per chunk
        # it rides in and released as that chunk's future completes;
        # the finally-destroy covers every failure path, so no
        # /dev/shm segment can outlive this call.
        leases: "dict[str, SharedClipLease]" = {}
        # Self-healing dispatch: each round submits the outstanding
        # chunks, collects results, and turns hard worker deaths
        # (BrokenProcessPool) into a pool respawn plus re-dispatch of
        # exactly the affected chunks.
        # Attempts are bounded per chunk (== per work unit: a chunk's
        # composition never changes), so a fault that kills every
        # attempt surfaces as a typed WorkUnitRetryError.  In-unit
        # exceptions propagate immediately: deterministic work would
        # fail identically on replay.
        rounds = [(chunk, 1) for chunk in _chunk_by_clip(units, self.workers)]
        try:
            while rounds:
                pool = self._ensure_pool()
                dispatched: list = []
                failed: list = []
                pool_broken = False
                for chunk, attempts in rounds:
                    clips, chunk_leases = self._collect_clips(
                        engine, chunk, leases
                    )
                    try:
                        future = pool.submit(
                            _run_chunk,
                            engine.spec,
                            chunk,
                            engine.cache.clips.capacity,
                            engine.profile,
                            clips,
                            store_dir,
                            fault_plan,
                        )
                    except (BrokenProcessPool, RuntimeError):
                        # The pool died under a previous submit (or
                        # was broken on arrival): everything not yet
                        # dispatched this round retries next round.
                        for lease in chunk_leases:
                            lease.release()
                        pool_broken = True
                        failed.append((chunk, attempts))
                        continue
                    dispatched.append((future, chunk, chunk_leases, attempts))
                for future, chunk, chunk_leases, attempts in dispatched:
                    try:
                        try:
                            chunk_results, clip_stats = future.result()
                        except BrokenProcessPool:
                            pool_broken = True
                            failed.append((chunk, attempts))
                            continue
                    finally:
                        for lease in chunk_leases:
                            lease.release()
                    engine.cache.clips.merge_stats(
                        clip_stats,
                        delta=None if cache_delta is None else cache_delta.clips,
                    )
                    for index, result in chunk_results:
                        deliver(index, result)
                if pool_broken:
                    self._respawn_pool(pool)
                rounds = []
                for chunk, attempts in failed:
                    if attempts > self.max_unit_retries:
                        raise WorkUnitRetryError(
                            [
                                scenario.name or f"scenario[{index}]"
                                for index, scenario in chunk
                            ],
                            attempts,
                        )
                    with self._pool_lock:
                        self._resilience["redispatched_units"] += len(chunk)
                    rounds.append((chunk, attempts + 1))
        finally:
            for lease in leases.values():
                lease.destroy()

    def _collect_clips(self, engine, chunk, leases):
        """Gather the clips this chunk needs that the parent already has.

        Returns ``(clips, chunk_leases)``: a raw-clip-key -> payload dict
        for :func:`_run_chunk` (``None`` when there is nothing to ship)
        plus the shared-memory leases acquired on the chunk's behalf.
        Only clips already available to the parent — in the memory tier,
        or promoted from the disk store — are shipped; anything else the
        worker renders itself, exactly as before.
        """
        from ..store.shm import share_clip
        from .cache import clip_key

        clips: dict = {}
        chunk_leases: list = []
        for _, scenario in chunk:
            raw_key = clip_key(scenario)
            if raw_key is None or raw_key in clips:
                continue
            clip = engine.cache.clips.get_cached(
                engine._epoch_key(raw_key), promote=True
            )
            if clip is None:
                continue
            lease = leases.get(raw_key)
            if lease is not None and not lease.alive:
                # A previous dispatch round drained this lease to zero
                # when its chunk failed; the segment is already unlinked,
                # so a re-dispatch needs a fresh one.
                del leases[raw_key]
                lease = None
            if lease is None:
                lease = share_clip(clip, faults=engine.faults)
                if lease is not None:
                    leases[raw_key] = lease
            if lease is None:
                # Ragged/empty clip, no shared memory on this platform, or
                # an injected shm.share fault: pickle it into the work unit.
                clips[raw_key] = ("pickle", clip)
            else:
                clips[raw_key] = ("shm", lease.handle)
                chunk_leases.append(lease.acquire())
        return (clips or None), chunk_leases

    def close(self):
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None


_EXECUTORS = {
    SerialExecutor.name: SerialExecutor,
    ThreadExecutor.name: ThreadExecutor,
    ProcessExecutor.name: ProcessExecutor,
}


def make_executor(name: str, workers: int = 1) -> Executor:
    """Build an executor by registry name.

    Raises:
        SpecError: unknown name; the message lists what exists.
    """
    try:
        factory = _EXECUTORS[name]
    except KeyError:
        from .spec import SpecError

        raise SpecError(
            f"executor: unknown executor {name!r}; "
            f"known executors: {list(EXECUTOR_NAMES)}"
        ) from None
    return factory(workers)
