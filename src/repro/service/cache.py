"""Content-addressed caching for the service layer: clips and results.

Serving many near-identical requests re-renders the same clips and re-runs
the same scenarios.  Both are pure functions of their specs, and specs
canonicalize exactly (``to_dict`` -> JSON, sort_keys), so a spec's hash is
a *content address*: equal specs — however they were constructed, round-
tripped, or loaded from disk — hash to the same key, and a key can never
collide across genuinely different workloads.

Two in-memory tiers, both capacity-bounded LRU with hit/miss/eviction
accounting:

* **clip tier** — rendered :class:`~repro.stream.SyntheticClip` objects
  keyed by ``(source, n_frames, seed)``: everything that determines the
  pixels, bit for bit.  This generalizes the engine's previous ad-hoc
  per-batch clip sharing to *cross*-batch reuse.
* **result tier** — full :class:`~repro.service.RunResult` memoization
  keyed by ``(system, scenario)``: a repeated request is served without
  re-running anything, bit-identical to a fresh run.

Plus an optional third, persistent tier: hand :class:`EngineCache` an
:class:`~repro.store.ArtifactStore` and every in-memory miss falls
through to disk before building, every disk hit is promoted back into
memory, newly built values are written through, and LRU evictions spill
down instead of vanishing.  The keys are already content addresses, so
the disk tier is restart-safe by construction: a fresh process pointed
at a populated store serves bit-identical values without recomputing
anything (``disk_hits``/``disk_misses`` on :class:`TierStats` make that
observable).

Lookups are **single-flight**: concurrent requests for one key build the
value once and share it.  Every serving path meets the cache here —
``Engine.run`` (serial and thread executors, streamed replies) through
:meth:`SpecCache.get_or_build`, the process executor through
:meth:`SpecCache.claim` and :meth:`SpecCache.settle`, dispatching only
the builds it owns.  Cached values are shared objects — treat them as
read-only, exactly like the engine's results contract already requires.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass
from threading import Lock
from typing import TYPE_CHECKING, Callable

from ..store.artifact import MISS as _STORE_MISS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..store.artifact import ArtifactStore


def canonical_json(payload) -> str:
    """Serialize plain data to its one canonical JSON form.

    Raises:
        TypeError/ValueError: the payload contains values JSON cannot
            canonicalize (numpy scalars, sets, ...); callers treat that as
            "uncacheable", never as a hard failure.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def spec_fingerprint(payload) -> str | None:
    """Content address of a spec-shaped payload (``None`` = uncacheable).

    The fingerprint is the SHA-256 of the canonical JSON, so it is stable
    across processes, ``to_dict``/``from_dict`` round-trips, and dict key
    order — the property the result tier's correctness rests on.
    """
    try:
        text = canonical_json(payload)
    except (TypeError, ValueError):
        return None
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class TierStats:
    """One cache tier's counters (also used as immutable-ish snapshots).

    Attributes:
        hits: lookups served from memory (including waits on an
            in-flight build of the same key).
        misses: lookups that left memory empty-handed (uncacheable keys
            count here too — they always build).
        evictions: entries dropped from memory to stay within capacity
            (spilled to the disk tier first when a store is attached).
        disk_hits: memory misses served from the disk tier instead of
            building (always 0 without a store).
        disk_misses: memory misses that fell through the disk tier too
            and really built the value (always 0 without a store — with
            one, ``disk_misses == 0`` over a window proves nothing was
            recomputed, the warm-restart invariant).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> "TierStats":
        return TierStats(
            self.hits, self.misses, self.evictions, self.disk_hits, self.disk_misses
        )

    def merge(self, other: "TierStats") -> None:
        """Fold another tier's counters in (e.g. a worker process's)."""
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions
        self.disk_hits += other.disk_hits
        self.disk_misses += other.disk_misses

    def __sub__(self, other: "TierStats") -> "TierStats":
        return TierStats(
            self.hits - other.hits,
            self.misses - other.misses,
            self.evictions - other.evictions,
            self.disk_hits - other.disk_hits,
            self.disk_misses - other.disk_misses,
        )

    def describe(self) -> str:
        text = f"{self.hits} hit(s) / {self.misses} miss(es), {self.evictions} evicted"
        if self.disk_hits or self.disk_misses:
            text += f" (disk: {self.disk_hits} hit(s) / {self.disk_misses} miss(es))"
        return text


def clip_nbytes(value) -> int:
    """Size of a cached clip: its frame buffers (``SyntheticClip.nbytes``)."""
    return int(getattr(value, "nbytes", 0))


def pickled_nbytes(value) -> int:
    """Size of a cached result: its serialized form (0 if unpicklable)."""
    try:
        return len(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # noqa: BLE001 - sizes are gauges, never errors
        return 0


class SpecCache:
    """A thread-safe, single-flight LRU keyed by spec fingerprints.

    Attributes:
        kind: what the entries are ("clip", "result"), for reports; also
            the namespace the disk tier files this cache's objects under.
        capacity: maximum retained in-memory entries; 0 disables the
            whole tier — every lookup builds, nothing is retained and the
            disk tier (if any) is neither read nor written, so a disabled
            cache really recomputes (the measurement-run contract).
        stats: cumulative :class:`TierStats` for this tier.
        store: optional :class:`~repro.store.ArtifactStore` third tier —
            misses fall through to it, hits promote from it, builds write
            through to it, and evictions spill down into it.
        sizer: optional ``value -> bytes`` gauge; when set, the tier
            tracks per-entry content sizes (surfaced by :meth:`sizes`).
    """

    def __init__(
        self,
        kind: str,
        capacity: int,
        store: "ArtifactStore | None" = None,
        sizer: Callable[[object], int] | None = None,
    ):
        if capacity < 0:
            raise ValueError(f"cache.{kind}_capacity: must be >= 0, got {capacity}")
        self.kind = kind
        self.capacity = capacity
        self.stats = TierStats()
        self.store = store
        self.sizer = sizer
        self._entries: "OrderedDict[str, Future]" = OrderedDict()
        self._sizes: dict[str, int] = {}
        self._lock = Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def sizes(self) -> tuple[int, int]:
        """``(entries, content_bytes)`` currently held in memory.

        Bytes are per the tier's ``sizer`` (frame-buffer bytes for clips,
        pickled bytes for results); entries still being built count 0
        until they land.
        """
        with self._lock:
            return len(self._entries), sum(self._sizes.values())

    def get_or_build(
        self,
        key: str | None,
        build: Callable[[], object],
        delta: TierStats | None = None,
    ):
        """Return the value for ``key``, building it at most once.

        :meth:`claim`, then ``build()`` and :meth:`settle` if this caller
        owns the claim; every other caller waits on the owner's build.  A
        failed build is dropped from the cache so later calls retry, and
        its exception propagates to every waiter.

        Args:
            key: content address (``None`` = uncacheable, always builds).
            build: zero-argument factory for the value.
            delta: optional per-caller counter (see :meth:`claim`).
        """
        entry, owner = self.claim(key, delta)
        if owner:
            try:
                value = build()
            except BaseException as exc:
                self.settle(key, entry, error=exc)
                raise
            self.settle(key, entry, value)
        return entry.result()

    def claim(
        self, key: str | None, delta: TierStats | None = None
    ) -> tuple[Future, bool]:
        """Look ``key`` up, registering an in-flight entry on a miss.

        Returns ``(entry, owner)``.  An owner must build the value and
        pass it, or the build's error, to :meth:`settle`; meanwhile every
        other claim of the key counts a hit and shares ``entry``, whose
        ``result()`` blocks until the value lands (or raises the owner's
        error).  A disk-tier hit is promoted into memory and never owned;
        an uncacheable key or a disabled tier always owns a private entry.

        Args:
            key: content address (``None`` = uncacheable).
            delta: optional per-caller counter, incremented alongside the
                tier's global ``stats`` *under the same lock*.  This is
                what lets concurrent batches sharing one cache each report
                exactly their own hits/misses — a global before/after
                snapshot would attribute every other batch's traffic too.
        """
        if key is None or self.capacity == 0:
            with self._lock:
                self._count_locked("misses", delta)
            return Future(), True
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._count_locked("hits", delta)
                self._entries.move_to_end(key)
                return entry, False
            self._count_locked("misses", delta)
            entry = Future()
            self._entries[key] = entry
            spilled = self._evict_over_capacity_locked(delta)
        self._spill(spilled)
        # The disk tier answers before anything recomputes.
        value = self._load_from_store(key, delta)
        if value is _STORE_MISS:
            return entry, True
        self._fill(key, entry, value)
        return entry, False

    def settle(
        self,
        key: str | None,
        entry: Future,
        value=None,
        error: BaseException | None = None,
    ) -> None:
        """Resolve an owned :meth:`claim` with its built value or its error.

        A value reaches every waiter, is sized, and is written through to
        the disk tier (everything ever built lands on disk, which is what
        makes the next process's cold start a pure-hit replay and eviction
        spill a mere dedup check).  An error reaches every waiter and
        drops the entry, so the next claim of the key owns it again.
        """
        if error is not None:
            entry.set_exception(error)
            with self._lock:
                if self._entries.get(key) is entry:
                    del self._entries[key]
        elif key is None or self.capacity == 0:
            entry.set_result(value)
        else:
            self._fill(key, entry, value)
            if self.store is not None:
                self.store.put(self.kind, key, value)

    def peek(self, key: str | None, delta: TierStats | None = None):
        """Non-building lookup: ``(hit, value)``; counts a hit or a miss.

        Only *completed* entries count as memory hits — an in-flight build
        from another thread is treated as a miss so the caller never
        blocks.  A memory miss still falls through to the disk tier (a
        disk hit promotes the value and returns it), so a restarted
        process never depends on RAM state.  ``delta`` is the same
        per-caller counter :meth:`claim` takes.
        """
        if key is None or self.capacity == 0:
            with self._lock:
                self._count_locked("misses", delta)
            return False, None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.done() and entry.exception() is None:
                self._count_locked("hits", delta)
                self._entries.move_to_end(key)
                return True, entry.result()
            self._count_locked("misses", delta)
        if self.store is not None:
            value = self._load_from_store(key, delta)
            if value is not _STORE_MISS:
                self._insert(key, value, delta, spill=False)
                return True, value
        return False, None

    def put(self, key: str | None, value, delta: TierStats | None = None) -> None:
        """Insert a value built elsewhere (e.g. in a worker process).

        Write-through: with a store attached the value also lands on disk
        (deduplicated by content address if it is already there).
        """
        if key is None or self.capacity == 0:
            return
        self._insert(key, value, delta, spill=True)

    def get_cached(self, key: str | None, promote: bool = False):
        """Quiet lookup: the value if already available, else ``None``.

        Counts nothing — this is for transport/introspection paths (e.g.
        the process executor deciding whether it *can* ship a rendered
        clip) that must not distort per-batch accounting.  ``promote``
        additionally consults the disk tier and promotes a hit into
        memory (the store keeps its own counters either way).
        """
        if key is None or self.capacity == 0:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry.done() and entry.exception() is None:
                return entry.result()
        if promote and self.store is not None:
            value = self.store.load(self.kind, key)
            if value is not _STORE_MISS:
                self._insert(key, value, spill=False)
                return value
        return None

    def _insert(
        self,
        key: str,
        value,
        delta: TierStats | None = None,
        spill: bool = True,
    ) -> None:
        size = self.sizer(value) if self.sizer is not None else None
        entry = Future()
        entry.set_result(value)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            if size is not None:
                self._sizes[key] = size
            spilled = self._evict_over_capacity_locked(delta)
        self._spill(spilled)
        if spill and self.store is not None:
            self.store.put(self.kind, key, value)

    def _load_from_store(self, key: str, delta: TierStats | None):
        """Disk-tier lookup with hit/miss accounting (``_STORE_MISS`` = miss)."""
        if self.store is None:
            return _STORE_MISS
        value = self.store.load(self.kind, key)
        counter = "disk_misses" if value is _STORE_MISS else "disk_hits"
        with self._lock:
            self._count_locked(counter, delta)
        return value

    def _fill(self, key: str, entry: Future, value) -> None:
        # Waiters wake first; sizing (a pickle, for results) comes after.
        entry.set_result(value)
        if self.sizer is None:
            return
        size = self.sizer(value)
        with self._lock:
            if self._entries.get(key) is entry:
                self._sizes[key] = size

    def _count_locked(self, counter: str, delta: TierStats | None) -> None:
        # Caller holds the lock: one event, counted globally and per caller.
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        if delta is not None:
            setattr(delta, counter, getattr(delta, counter) + 1)

    def merge_stats(self, other: TierStats, delta: TierStats | None = None) -> None:
        """Fold external counters in (worker processes), under the lock."""
        with self._lock:
            self.stats.merge(other)
            if delta is not None:
                delta.merge(other)

    def _evict_over_capacity_locked(self, delta: TierStats | None = None) -> list:
        # Caller holds the lock (the *_locked suffix is the contract the
        # lock-discipline lint rule keys on).  Returns the evicted
        # (key, value) pairs
        # that must spill to the disk tier — spilling does pickle + file
        # I/O, so it happens only after the lock is released.
        spilled: list = []
        while len(self._entries) > self.capacity:
            key, entry = self._entries.popitem(last=False)
            self._sizes.pop(key, None)
            self._count_locked("evictions", delta)
            if (
                self.store is not None
                and entry.done()
                and entry.exception() is None
            ):
                spilled.append((key, entry.result()))
        return spilled

    def _spill(self, spilled: list) -> None:
        # store.put deduplicates by content address, so re-spilling a
        # value that was already written through costs one contains().
        for key, value in spilled:
            self.store.put(self.kind, key, value)

    def clear(self) -> None:
        """Drop every in-memory entry (counters are kept — they are
        history; the disk tier is untouched — ``repro cache clear`` owns
        that)."""
        with self._lock:
            self._entries.clear()
            self._sizes.clear()


@dataclass
class CacheStats:
    """Per-tier counters, as surfaced on :class:`~repro.service.BatchResult`.

    ``BatchResult.cache`` holds the *delta* over one batch, so its numbers
    read as "this batch had N clip hits, M result hits, ...".
    """

    clips: TierStats
    results: TierStats

    @classmethod
    def zero(cls) -> "CacheStats":
        """A fresh all-zero counter pair, ready to collect one batch's delta."""
        return cls(clips=TierStats(), results=TierStats())

    def __sub__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            clips=self.clips - other.clips, results=self.results - other.results
        )

    def describe(self) -> str:
        return (
            f"clips {self.clips.describe()}; results {self.results.describe()}"
        )


class EngineCache:
    """The engine's two cache tiers behind one handle.

    Attributes:
        clips: rendered-clip tier (``(source, n_frames, seed)``-keyed).
        results: :class:`RunResult` memoization tier
            (``(system, scenario)``-keyed).

    Capacities bound memory, not correctness: clips are the big entries
    (tens of MB each at video resolutions), results without
    ``keep_outcomes`` are ledger-sized.  Capacity 0 disables a tier.

    Pass ``store`` to add the persistent third tier behind both: misses
    fall through to it, disk hits promote into memory, builds write
    through, evictions spill down.  Warm state then survives process
    restarts — the whole point of ``repro serve --store-dir``.
    """

    def __init__(
        self,
        clip_capacity: int = 8,
        result_capacity: int = 256,
        store: "ArtifactStore | None" = None,
    ):
        self.store = store
        self.clips = SpecCache("clip", clip_capacity, store=store, sizer=clip_nbytes)
        self.results = SpecCache(
            "result", result_capacity, store=store, sizer=pickled_nbytes
        )

    @classmethod
    def disabled(cls) -> "EngineCache":
        """A cache that never retains anything (for measurement runs)."""
        return cls(clip_capacity=0, result_capacity=0)

    def stats(self) -> CacheStats:
        """A point-in-time snapshot of both tiers' cumulative counters."""
        return CacheStats(
            clips=self.clips.stats.snapshot(), results=self.results.stats.snapshot()
        )

    def sizes(self) -> dict:
        """Per-tier in-memory occupancy: ``{tier: {"entries", "bytes"}}``.

        Bytes are content sizes (frame buffers for clips, pickled size
        for results), not Python object overhead — the numbers a capacity
        decision actually needs.
        """
        out: dict = {}
        for name, tier in (("clips", self.clips), ("results", self.results)):
            entries, content = tier.sizes()
            out[name] = {"entries": entries, "bytes": content}
        return out

    def clear(self) -> None:
        self.clips.clear()
        self.results.clear()


def clip_key(scenario) -> str | None:
    """Content address of a scenario's rendered clip.

    Everything that determines the pixels — the source component (name +
    params), the frame count, and the master seed — and nothing more, so
    scenarios differing only in policy/batching/naming share one clip.
    """
    return spec_fingerprint(
        [scenario.source.to_dict(), scenario.n_frames, scenario.seed]
    )


def result_key(system, scenario, system_fingerprint: str | None = ...) -> str | None:
    """Content address of a full run: the system and the whole scenario.

    Args:
        system: the :class:`SystemSpec` served.
        scenario: the request.
        system_fingerprint: precomputed ``spec_fingerprint(system.to_dict())``
            — the system never changes over an engine's lifetime, so
            callers on the per-request path pass it to avoid re-hashing
            the whole system spec every lookup.
    """
    if system_fingerprint is ...:
        system_fingerprint = spec_fingerprint(system.to_dict())
    if system_fingerprint is None:
        return None
    return spec_fingerprint(
        {"system": system_fingerprint, "scenario": scenario.to_dict()}
    )
