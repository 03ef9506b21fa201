"""The persistent tier: a crash-safe, content-addressed artifact store.

:class:`ArtifactStore` holds serialized cache values — rendered clips and
memoized :class:`~repro.service.RunResult`\\ s — as fingerprint-named
files under one configurable root.  The cache keys it receives are
already content addresses (SHA-256 of canonical spec JSON, see
:func:`~repro.service.spec_fingerprint`), which is what makes a disk
store correct at all: equal specs hash to equal keys in every process,
on every machine, across restarts, so a file written by one daemon run
*is* the answer for the next one.

Design rules, in decreasing order of importance:

* **a corrupted store is a slow store, never a broken one** — every read
  re-verifies a versioned header (magic, version, kind, key, payload
  length, payload SHA-256); any mismatch, truncation, or unreadable file
  counts as a miss, quarantines the file, and lets the caller rebuild;
* **crash-safe writes** — payloads land in a same-directory temp file,
  are flushed + fsynced, then atomically renamed into place; readers
  only ever observe whole files.  Concurrent writers of one key (two
  daemons sharing a store root) are harmless: content addressing means
  both wrote the same bytes, and rename picks one winner atomically;
* **single-flight per key** — within a process, concurrent ``put`` calls
  for one key serialize the value once;
* **bounded by bytes, not entries** — ``max_bytes`` triggers LRU garbage
  collection (least-recently-*used* by a logical clock persisted in the
  index file, so recency survives restarts and never depends on wall
  time).  :meth:`gc` can also be invoked explicitly (``repro cache gc``).

The index file (``index.json``) is an *accelerator*, not a source of
truth: it caches per-entry byte sizes and use-ordering for fast
``stats``/GC.  A missing or corrupt index is rebuilt by scanning the
object tree; files unknown to the index are adopted on scan.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from threading import Lock

from ..faults.runtime import as_injector

#: Returned by :meth:`ArtifactStore.load` when the key is absent (or its
#: file failed verification).  A dedicated sentinel, not ``None``: the
#: store must be able to hold any picklable value.
MISS = object()

#: First line of every object file.  The version is part of the line so a
#: future layout change invalidates old files wholesale (they degrade to
#: misses and are rewritten) instead of being misparsed.
MAGIC_LINE = b"repro-store v1\n"

#: Longest header (magic + meta) a reader will accept, to bound reads on
#: garbage files.
_MAX_META_BYTES = 4096

#: Characters allowed verbatim in a key-derived filename.  Engine cache
#: keys are ``<sha256 hex>:<registry epoch>``; anything else is hashed.
_SAFE = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-")


def _filename(key: str) -> str:
    """A filesystem-safe, collision-free name for a cache key."""
    translated = key.replace(":", "_")
    if translated and all(ch in _SAFE for ch in translated):
        return translated
    return "h_" + hashlib.sha256(key.encode("utf-8")).hexdigest()


@dataclass
class StoreStats:
    """Point-in-time store gauges plus this handle's cumulative counters.

    Attributes:
        entries: objects currently on disk (per the reconciled index).
        bytes: their total on-disk size (headers included).
        hits / misses: this process's :meth:`ArtifactStore.load` outcomes.
        writes: objects actually written (deduplicated puts count 0).
        evictions: objects removed by byte-budget GC.
        errors: reads that failed verification (each also counts a miss).
        by_kind: per-kind ``{"entries": n, "bytes": b}`` breakdown.
    """

    entries: int = 0
    bytes: int = 0
    hits: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0
    errors: int = 0
    by_kind: dict = field(default_factory=dict)

    def describe(self) -> str:
        kinds = ", ".join(
            f"{kind}: {info['entries']} entr{'y' if info['entries'] == 1 else 'ies'}"
            f" ({info['bytes'] / 1024:.1f} kB)"
            for kind, info in sorted(self.by_kind.items())
        ) or "empty"
        return (
            f"{self.entries} object(s), {self.bytes / 1024:.1f} kB on disk "
            f"[{kinds}]; {self.hits} hit(s) / {self.misses} miss(es), "
            f"{self.writes} write(s), {self.evictions} evicted"
        )


class ArtifactStore:
    """A content-addressed object store rooted at one directory.

    Args:
        root: store directory (created on first use).  Layout::

            <root>/index.json                  LRU/size accelerator
            <root>/objects/<kind>/<aa>/<name>  one object per file

        where ``<aa>`` is the first two filename characters (fan-out so
        huge stores never put 10^5 files in one directory).
        max_bytes: byte budget enforced after every write (``None`` = no
            budget; GC only when :meth:`gc` is called with one).  The
            entry just written is never evicted by its own put, so a
            single oversized object still round-trips.
        faults: a :class:`~repro.faults.FaultPlan` (or injector, dict, or
            plan path) scheduling ``store.load``/``store.put`` faults;
            ``None`` arms nothing.
            Injected faults are :class:`~repro.faults.InjectedFault`
            (an ``OSError``) raised exactly where a real disk error
            would surface, so they exercise the quarantine and
            failed-write paths below — never new test-only ones.

    Thread-safe; safe to open the same root from many processes (atomic
    renames + read-time verification), though LRU recency is then
    per-process best-effort.
    """

    def __init__(
        self,
        root: str | Path,
        max_bytes: int | None = None,
        faults=None,
    ):
        if max_bytes is not None and max_bytes < 0:
            raise ValueError(f"store.max_bytes: must be >= 0, got {max_bytes}")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.faults = as_injector(faults)
        self.stats = StoreStats()
        self._lock = Lock()
        self._inflight: dict[tuple[str, str], Lock] = {}
        self._clock = 0
        #: "<kind>/<filename>" -> {"bytes": int, "used": int}
        self._index: dict[str, dict] = {}
        self._load_index()

    # -- public API ----------------------------------------------------------------

    def load(self, kind: str, key: str):
        """Deserialize one object, or :data:`MISS`.

        Never raises for store-side problems: an absent, truncated,
        corrupted, or wrong-version file is a miss (and the bad file is
        quarantined so it cannot fail again).
        """
        path = self._path(kind, key)
        try:
            self._maybe_inject("store.load")
            with open(path, "rb") as handle:
                payload = self._read_verified(handle, kind, key)
        except FileNotFoundError:
            with self._lock:
                self.stats.misses += 1
            return MISS
        except (OSError, ValueError):
            self._quarantine(kind, key, path)
            return MISS
        try:
            value = pickle.loads(payload)
        except Exception:  # noqa: BLE001 - any unpickling failure = corrupt
            self._quarantine(kind, key, path)
            return MISS
        with self._lock:
            self.stats.hits += 1
            entry = self._index.get(self._entry_id(kind, key))
            if entry is not None:
                self._clock += 1
                entry["used"] = self._clock
        return value

    def put(self, kind: str, key: str, value) -> int:
        """Serialize and persist one object; returns bytes written.

        Content-addressed: a key already present is *not* rewritten
        (same key means same bytes) and returns 0.  An unpicklable value
        returns 0 — uncacheable, never an error, mirroring the in-memory
        tiers' contract.
        """
        entry_id = self._entry_id(kind, key)
        with self._lock:
            if entry_id in self._index and self._path(kind, key).exists():
                return 0
            gate = self._inflight.setdefault((kind, key), Lock())
        with gate:
            with self._lock:
                if entry_id in self._index and self._path(kind, key).exists():
                    return 0
            try:
                payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception:  # noqa: BLE001 - unpicklable = uncacheable
                return 0
            blob = self._frame(kind, key, payload)
            path = self._path(kind, key)
            try:
                self._maybe_inject("store.put")
                self._atomic_write(path, blob)
            except OSError:
                # Disk full, permissions, or an injected store.put
                # fault: the store is a cache, so a failed write is a
                # lost optimization — count it and keep serving.
                with self._lock:
                    self.stats.errors += 1
                return 0
            with self._lock:
                self.stats.writes += 1
                self._clock += 1
                self._index[entry_id] = {"bytes": len(blob), "used": self._clock}
                if self.max_bytes is not None:
                    self._gc_locked(self.max_bytes, protect=entry_id)
                self._flush_index_locked()
            return len(blob)
        # (the per-key gate stays in self._inflight: keys repeat, locks are tiny)

    def contains(self, kind: str, key: str) -> bool:
        """Whether a verified-shaped file for ``key`` exists (no read)."""
        return self._path(kind, key).exists()

    def gc(self, max_bytes: int | None = None) -> tuple[int, int]:
        """Evict least-recently-used objects down to a byte budget.

        Args:
            max_bytes: target (defaults to the store's own budget; a
                store with neither configured is a no-op).

        Returns:
            ``(objects_removed, bytes_removed)``.
        """
        budget = max_bytes if max_bytes is not None else self.max_bytes
        with self._lock:
            self._reconcile_locked()
            if budget is None:
                return (0, 0)
            removed = self._gc_locked(budget)
            self._flush_index_locked()
            return removed

    def clear(self) -> tuple[int, int]:
        """Remove every object; returns ``(objects_removed, bytes_removed)``."""
        with self._lock:
            self._reconcile_locked()
            removed = self._gc_locked(-1)
            self._flush_index_locked()
            return removed

    def snapshot(self) -> StoreStats:
        """Current gauges + counters (reconciled against the disk tree)."""
        with self._lock:
            self._reconcile_locked()
            by_kind: dict[str, dict] = {}
            for entry_id, entry in self._index.items():
                kind = entry_id.split("/", 1)[0]
                info = by_kind.setdefault(kind, {"entries": 0, "bytes": 0})
                info["entries"] += 1
                info["bytes"] += entry["bytes"]
            return StoreStats(
                entries=len(self._index),
                bytes=sum(e["bytes"] for e in self._index.values()),
                hits=self.stats.hits,
                misses=self.stats.misses,
                writes=self.stats.writes,
                evictions=self.stats.evictions,
                errors=self.stats.errors,
                by_kind=by_kind,
            )

    def flush(self) -> None:
        """Persist in-memory recency to the index file (put/gc already do)."""
        with self._lock:
            self._flush_index_locked()

    def __repr__(self) -> str:
        budget = "unbounded" if self.max_bytes is None else f"{self.max_bytes}B"
        return f"ArtifactStore(root={str(self.root)!r}, {budget})"

    def _maybe_inject(self, site: str) -> None:
        """Raise :class:`~repro.faults.InjectedFault` if ``site`` fires."""
        faults = self.faults
        if faults is None:
            return
        spec = faults.fire(site)
        if spec is not None:
            from ..faults.injector import InjectedFault

            raise InjectedFault(site, spec.kind)

    # -- file layout ---------------------------------------------------------------

    def _entry_id(self, kind: str, key: str) -> str:
        return f"{kind}/{_filename(key)}"

    def _path(self, kind: str, key: str) -> Path:
        name = _filename(key)
        return self.root / "objects" / kind / name[:2] / name

    def _frame(self, kind: str, key: str, payload: bytes) -> bytes:
        meta = {
            "kind": kind,
            "key": key,
            "codec": "pickle",
            "payload_bytes": len(payload),
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
        }
        meta_line = json.dumps(meta, sort_keys=True).encode("utf-8") + b"\n"
        return MAGIC_LINE + meta_line + payload

    def _read_verified(self, handle, kind: str, key: str) -> bytes:
        """Read one object file, raising ``ValueError`` on any mismatch."""
        magic = handle.readline(len(MAGIC_LINE) + 1)
        if magic != MAGIC_LINE:
            raise ValueError("bad magic/version line")
        meta_line = handle.readline(_MAX_META_BYTES)
        if not meta_line.endswith(b"\n"):
            raise ValueError("truncated or oversized meta line")
        meta = json.loads(meta_line)
        if not isinstance(meta, dict):
            raise ValueError("meta is not an object")
        if meta.get("kind") != kind or meta.get("key") != key:
            raise ValueError("kind/key mismatch (file moved or renamed?)")
        if meta.get("codec") != "pickle":
            raise ValueError(f"unknown codec {meta.get('codec')!r}")
        length = meta.get("payload_bytes")
        if not isinstance(length, int) or length < 0:
            raise ValueError("bad payload length")
        payload = handle.read(length + 1)
        if len(payload) != length:
            raise ValueError("payload truncated (or trailing garbage)")
        if hashlib.sha256(payload).hexdigest() != meta.get("payload_sha256"):
            raise ValueError("payload checksum mismatch")
        return payload

    def _atomic_write(self, path: Path, blob: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=path.parent)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _quarantine(self, kind: str, key: str, path: Path) -> None:
        """A file failed verification: count it and remove it."""
        with self._lock:
            self.stats.misses += 1
            self.stats.errors += 1
            self._index.pop(self._entry_id(kind, key), None)
        try:
            path.unlink()
        except OSError:
            pass

    # -- index ---------------------------------------------------------------------

    def _index_path(self) -> Path:
        return self.root / "index.json"

    def _load_index(self) -> None:
        try:
            data = json.loads(self._index_path().read_text(encoding="utf-8"))
            entries = data["entries"]
            clock = data["clock"]
            if not isinstance(entries, dict) or not isinstance(clock, int):
                raise ValueError("index shape")
            for entry in entries.values():
                if not isinstance(entry.get("bytes"), int) or not isinstance(
                    entry.get("used"), int
                ):
                    raise ValueError("entry shape")
        except (OSError, ValueError, KeyError, TypeError):
            with self._lock:
                self._index = {}
                self._clock = 0
                self._reconcile_locked()
            return
        with self._lock:
            self._index = entries
            self._clock = clock
            self._reconcile_locked()

    def _flush_index_locked(self) -> None:
        data = {"version": 1, "clock": self._clock, "entries": self._index}
        blob = json.dumps(data, sort_keys=True).encode("utf-8")
        try:
            self._atomic_write(self._index_path(), blob)
        except OSError:
            pass  # the index is an accelerator; losing it costs a rescan

    def _reconcile_locked(self) -> None:
        """Make the index agree with the object tree (adopt/forget files)."""
        objects = self.root / "objects"
        seen: set[str] = set()
        if objects.is_dir():
            for kind_dir in sorted(objects.iterdir()):
                if not kind_dir.is_dir():
                    continue
                for path in sorted(kind_dir.glob("*/*")):
                    if not path.is_file() or path.name.startswith(".tmp-"):
                        continue
                    entry_id = f"{kind_dir.name}/{path.name}"
                    seen.add(entry_id)
                    if entry_id not in self._index:
                        # Adopted files (another process wrote them, or the
                        # index was lost) enter as least-recently-used: age 0.
                        try:
                            size = path.stat().st_size
                        except OSError:
                            continue
                        self._index[entry_id] = {"bytes": size, "used": 0}
        for entry_id in list(self._index):
            if entry_id not in seen:
                del self._index[entry_id]

    def _id_path(self, entry_id: str) -> Path:
        kind, name = entry_id.split("/", 1)
        return self.root / "objects" / kind / name[:2] / name

    def _gc_locked(
        self, budget: int, protect: str | None = None
    ) -> tuple[int, int]:
        """Evict LRU entries until total bytes <= budget (caller holds lock).

        ``budget`` of -1 means "evict everything" (:meth:`clear`).
        ``protect`` names an entry that must survive this pass.
        """
        total = sum(e["bytes"] for e in self._index.values())
        target = max(budget, 0)
        removed = removed_bytes = 0
        if budget >= 0 and total <= target:
            return (0, 0)
        for entry_id in sorted(
            self._index, key=lambda eid: (self._index[eid]["used"], eid)
        ):
            if budget >= 0 and total <= target:
                break
            if entry_id == protect:
                continue
            size = self._index[entry_id]["bytes"]
            try:
                self._id_path(entry_id).unlink()
            except FileNotFoundError:
                pass
            except OSError:
                continue  # cannot remove: leave it indexed, try the next
            del self._index[entry_id]
            self.stats.evictions += 1
            total -= size
            removed += 1
            removed_bytes += size
        return (removed, removed_bytes)
