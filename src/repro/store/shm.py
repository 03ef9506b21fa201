"""Zero-copy clip transport over ``multiprocessing.shared_memory``.

The process executor's work units are plain specs, so a cold worker
*renders* its clips.  A warm parent often already holds the rendered
frames — in its memory clip tier or its disk store — and shipping them
beats re-rendering, but pickling a clip copies its whole frame block
into every worker's pipe.  This module stacks the frames into one named
shared-memory segment instead, so N workers map **one** copy:

* :func:`share_clip` (parent) — stack the frames straight into a segment
  (one copy) and return a tiny picklable :class:`SharedClipHandle` plus a
  refcounted :class:`SharedClipLease` that owns the segment's lifetime;
* :func:`attach_clip` (worker) — map the segment and rebuild a
  bit-identical :class:`~repro.stream.source.SyntheticClip` whose frames
  are **read-only views** into the mapping (the mapping is closed by a
  finalizer when the last view dies, so a worker caching the clip keeps
  it alive for free);
* ragged or empty clips have no contiguous block: :func:`share_clip`
  returns ``None`` and callers fall back to plain pickling, exactly the
  fallback :meth:`SyntheticClip.__getstate__
  <repro.stream.source.SyntheticClip.__getstate__>` itself takes.

Lifetime discipline: the parent acquires one lease reference per chunk a
handle is dispatched with and releases it as each chunk completes; the
last release — or :meth:`SharedClipLease.destroy` on any failure path —
closes and unlinks the segment.  Unlinking only removes the *name*:
workers still attached keep their mapping until their views die, so the
parent never has to wait on worker GC, and a crashed worker's mapping
dies with its process.  Either way nothing is left in ``/dev/shm``.
"""

from __future__ import annotations

import os
import threading
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..stream.source import SyntheticClip

#: Prefix of every segment this module creates — makes leak checks (and
#: emergency ``rm /dev/shm/repro-clip-*``) trivial.
SEGMENT_PREFIX = "repro-clip-"

_counter_lock = threading.Lock()
_counter = 0


def _segment_name() -> str:
    global _counter
    with _counter_lock:
        _counter += 1
        return f"{SEGMENT_PREFIX}{os.getpid()}-{_counter}"


@dataclass(frozen=True)
class SharedClipHandle:
    """Everything a worker needs to rebuild a clip from shared memory.

    Plain picklable data — this is what actually crosses the process
    boundary (a few hundred bytes, instead of the frame block).

    Attributes:
        name: the shared-memory segment name.
        shape: the stacked ``(n_frames, H, W, C)`` block shape.
        dtype: the block's numpy dtype string.
        ground_truth: the clip's per-frame ground-truth boxes.
        resolution: the clip's ``(width, height)``.
    """

    name: str
    shape: tuple
    dtype: str
    ground_truth: list
    resolution: tuple


class ClipSegmentGoneError(OSError):
    """The shared segment no longer exists (the owner unlinked it).

    A subclass of :class:`OSError` so existing "segment gone or mangled:
    render it ourselves" fallbacks keep catching it; raised instead of a
    raw :class:`FileNotFoundError` so callers can tell "the batch was
    torn down under me" apart from ordinary filesystem errors.
    """

    def __init__(self, name: str):
        super().__init__(
            f"shared clip segment {name!r} is gone "
            "(the owner already closed or unlinked it)"
        )
        self.name = name


class SharedClipLease:
    """Refcounted ownership of one shared segment (parent side).

    The dispatcher acquires one reference per chunk the handle rides in
    and releases as each chunk's future completes; the last release
    closes and unlinks the segment.  :meth:`destroy` (alias
    :meth:`close`) force-releases on failure paths.  All of these are
    idempotent and thread-safe — a double ``close()`` is a no-op.
    """

    def __init__(self, shm: shared_memory.SharedMemory, handle: SharedClipHandle):
        self.handle = handle
        self._shm: shared_memory.SharedMemory | None = shm
        self._refs = 0
        self._lock = threading.Lock()

    @property
    def alive(self) -> bool:
        """Whether the segment is still held (not yet closed/unlinked).

        A dispatcher re-dispatching a failed chunk must not reuse a lease
        whose refcount already hit zero — that segment is unlinked, and a
        worker attaching it would find nothing.
        """
        with self._lock:
            return self._shm is not None

    def acquire(self) -> "SharedClipLease":
        with self._lock:
            self._refs += 1
        return self

    def release(self) -> None:
        with self._lock:
            self._refs -= 1
            if self._refs > 0:
                return
            self._close_locked()

    def destroy(self) -> None:
        with self._lock:
            self._close_locked()

    def close(self) -> None:
        """Force-release the segment now; safe to call any number of times."""
        self.destroy()

    def __enter__(self) -> "SharedClipLease":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _close_locked(self) -> None:
        shm, self._shm = self._shm, None
        if shm is None:
            return
        for step in (shm.close, shm.unlink):
            try:
                step()
            except (OSError, FileNotFoundError):
                pass


def share_clip(clip: SyntheticClip, faults=None) -> SharedClipLease | None:
    """Copy a clip's contiguous frame block into a shared segment.

    Returns ``None`` when the clip has no contiguous block (ragged frame
    shapes/dtypes, or no frames at all) — callers fall back to pickling,
    which handles those layouts already — or when shared memory itself is
    unavailable on the platform.  An injected ``shm.share`` fault
    (``faults=`` is a :class:`~repro.faults.FaultInjector` or ``None``)
    takes the same ``None`` path: sharing failures are designed to
    degrade to pickling, never to break the batch.
    """
    if faults is not None and faults.fire("shm.share") is not None:
        return None
    frames = clip.frames
    # The uniformity test of SyntheticClip.__getstate__: one shape and
    # one dtype make a contiguous block.
    if not frames or len({(f.shape, f.dtype.str) for f in frames}) != 1:
        return None
    shape = (len(frames), *frames[0].shape)
    dtype = frames[0].dtype
    try:
        shm = shared_memory.SharedMemory(
            name=_segment_name(), create=True, size=frames[0].nbytes * len(frames)
        )
    except OSError:
        return None
    # Stack straight into the segment: the frames are copied once.
    np.stack(frames, out=np.ndarray(shape, dtype=dtype, buffer=shm.buf))
    handle = SharedClipHandle(
        name=shm.name,
        shape=shape,
        dtype=dtype.str,
        ground_truth=clip.ground_truth,
        resolution=clip.resolution,
    )
    return SharedClipLease(shm, handle)


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Open an existing segment without adopting its lifetime.

    Only the creator owns unlink, so attaching passes ``track=False``
    where it exists (3.13+).  On older Pythons the attach-side
    ``register`` is a set-add in the resource tracker our spawned
    workers *share* with the creating parent, so it deduplicates against
    the creator's own registration — manually unregistering here would
    strip that shared entry and make the parent's eventual unlink
    complain instead (bpo-38119).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:
        return shared_memory.SharedMemory(name=name)


def attach_clip(handle: SharedClipHandle, faults=None) -> SyntheticClip:
    """Rebuild a clip from a shared segment (worker side).

    The frames are read-only views into the mapping — bit-identical to
    the originals, zero copies.  The mapping closes itself (a finalizer
    on the block) once the last view is garbage; until then the clip is
    safe to cache and reuse, even after the parent unlinks the name.

    Raises:
        ClipSegmentGoneError: the segment is gone (e.g. the parent
            already tore the batch down), or an injected ``shm.attach``
            fault fired; callers treat both identically — "render it
            yourself".
    """
    if faults is not None and faults.fire("shm.attach") is not None:
        raise ClipSegmentGoneError(handle.name)
    try:
        shm = _attach_segment(handle.name)
    except FileNotFoundError as exc:
        raise ClipSegmentGoneError(handle.name) from exc
    block = np.ndarray(handle.shape, dtype=np.dtype(handle.dtype), buffer=shm.buf)
    # Shared pages: a write here would corrupt every other attached
    # worker.  Consumers copy before mutating by contract; enforce it.
    block.flags.writeable = False
    weakref.finalize(block, _close_mapping, shm)
    clip = SyntheticClip.__new__(SyntheticClip)
    clip.__setstate__(
        {
            "frame_stack": block,
            "ground_truth": handle.ground_truth,
            "resolution": handle.resolution,
        }
    )
    return clip


def _close_mapping(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
    except (OSError, BufferError):
        pass
