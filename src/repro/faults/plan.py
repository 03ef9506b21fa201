"""Fault plans: seeded, deterministic schedules of injected failures.

A :class:`FaultPlan` is a spec in exactly the :mod:`repro.service` sense
— a frozen dataclass with an exact codec round-trip — that says
*which* failures fire *where* and *when*.  Determinism is the whole
point: resilience can only be gated in CI if the same plan produces the
same crashes on every run, so nothing here may consult wall clocks or
unseeded randomness.  Probabilistic faults draw from a
:class:`random.Random` stream derived from ``(plan.seed, site, spec
position)``, so one seed fixes the entire injection schedule
(:meth:`FaultPlan.schedule` previews it without side effects).

Vocabulary:

* **kind** (:data:`FAULT_KINDS`) — what goes wrong: ``worker-crash``
  (the process dies hard), ``store-io-error`` (a disk read/write fails),
  ``shm-attach-gone`` (a shared-memory segment vanished), ``socket-drop``
  (the connection dies before the reply), ``reply-delay`` (the reply is
  late by ``delay_s``).
* **site** (:data:`FAULT_SITES`) — where the injector is consulted:
  ``worker.run`` (per work unit, inside a process-pool worker),
  ``store.load`` / ``store.put`` (:class:`~repro.store.ArtifactStore`),
  ``shm.attach`` / ``shm.share`` (clip transport), ``server.reply``
  (the daemon, just before a non-streaming reply / stream end),
  ``server.stream`` (the daemon, per streamed frame).
* **scope** — ``"process"`` counts hits per process (every spawned
  worker sees its own hit 0); ``"global"`` arbitrates through a marker
  file under ``fuse_dir`` so the fault fires **once across all
  processes** — this is what lets a worker-crash plan kill exactly one
  worker and let the respawned pool finish the batch.

This module is a leaf: it imports only the standard library and the
standard-library codec (:mod:`repro.codec`), so every subsystem (store,
shm, executor, daemon) can depend on it without cycles.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

from ..codec import serializable

#: Named failure modes a plan may schedule, in documentation order.
FAULT_KINDS = (
    "worker-crash",
    "store-io-error",
    "shm-attach-gone",
    "socket-drop",
    "reply-delay",
)

#: Injection sites where the runtime consults the injector.
FAULT_SITES = (
    "worker.run",
    "store.load",
    "store.put",
    "shm.attach",
    "shm.share",
    "server.reply",
    "server.stream",
)

#: Hit-counting scopes (see the module docstring).
FAULT_SCOPES = ("process", "global")


class FaultPlanError(ValueError):
    """A fault plan failed validation; the message names the field."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@serializable("fault", FaultPlanError)
@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: a kind bound to a site and a firing rule.

    Attributes:
        site: where to fire — one of :data:`FAULT_SITES`.
        kind: what to inject — one of :data:`FAULT_KINDS`.
        at: explicit 0-based hit indices at this site that always fire.
        rate: probability (0..1) that any *other* hit fires, drawn from
            the plan-seeded stream (deterministic given the seed).
        limit: cap on total fires of this spec per injector (``None`` =
            unlimited).  Counted per process; the ``"global"`` scope's
            fuse is what bounds fires *across* processes.
        delay_s: added latency for ``reply-delay`` faults (seconds).
        scope: ``"process"`` (default) or ``"global"`` (single fire
            across all processes, arbitrated via the plan's ``fuse_dir``).
    """

    site: str
    kind: str
    at: tuple[int, ...] = ()
    rate: float = 0.0
    limit: int | None = None
    delay_s: float = 0.0
    scope: str = "process"

    def __post_init__(self):
        if self.site not in FAULT_SITES:
            raise FaultPlanError(
                f"fault.site: unknown site {self.site!r}; "
                f"known sites: {list(FAULT_SITES)}"
            )
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"fault.kind: unknown kind {self.kind!r}; "
                f"known kinds: {list(FAULT_KINDS)}"
            )
        if self.scope not in FAULT_SCOPES:
            raise FaultPlanError(
                f"fault.scope: unknown scope {self.scope!r}; "
                f"known scopes: {list(FAULT_SCOPES)}"
            )
        # Python callers may pass a list of hits or an int rate or delay;
        # the stored form is the decoded one, so fingerprints agree.
        object.__setattr__(self, "at", tuple(self.at))
        for name in ("rate", "delay_s"):
            if _is_int(getattr(self, name)):
                object.__setattr__(self, name, float(getattr(self, name)))
        for index in self.at:
            if not _is_int(index) or index < 0:
                raise FaultPlanError(
                    f"fault.at: hit indices must be ints >= 0, got {index!r}"
                )
        if not isinstance(self.rate, float) or not 0.0 <= self.rate <= 1.0:
            raise FaultPlanError(
                f"fault.rate: expected a float in [0, 1], got {self.rate!r}"
            )
        if self.limit is not None and (not _is_int(self.limit) or self.limit < 0):
            raise FaultPlanError(
                f"fault.limit: expected an int >= 0 or null, got {self.limit!r}"
            )
        if not isinstance(self.delay_s, float) or self.delay_s < 0.0:
            raise FaultPlanError(
                f"fault.delay_s: expected a float >= 0, got {self.delay_s!r}"
            )


@serializable("plan", FaultPlanError)
@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded collection of :class:`FaultSpec` entries.

    Attributes:
        name: a human label (quoted in diagnostics, folded into the
            fingerprint).
        seed: seeds every probabilistic stream; the same seed reproduces
            the identical injection schedule.
        faults: the scheduled faults, in priority order — at most one
            fires per hit of a site, the first match winning (losers
            still consume their random draws, so adding a fault never
            perturbs another's schedule on *later* sites).
        fuse_dir: directory for ``"global"``-scope marker files.  Must be
            set when any fault uses the global scope — the fuse survives
            process boundaries, so guessing a shared default would let a
            previous run's markers silently disarm this one.
    """

    name: str = "chaos"
    seed: int = 0
    faults: tuple[FaultSpec, ...] = ()
    fuse_dir: str | None = None

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise FaultPlanError(f"plan.name: expected str, got {self.name!r}")
        if not _is_int(self.seed):
            raise FaultPlanError(f"plan.seed: expected int, got {self.seed!r}")
        if self.fuse_dir is not None and not isinstance(self.fuse_dir, str):
            raise FaultPlanError(
                f"plan.fuse_dir: expected str, got {self.fuse_dir!r}"
            )
        faults = tuple(self.faults)
        object.__setattr__(self, "faults", faults)
        for fault in faults:
            if not isinstance(fault, FaultSpec):
                raise FaultPlanError(
                    f"plan.faults: expected FaultSpec entries, got {fault!r}"
                )
        if self.fuse_dir is None and any(f.scope == "global" for f in faults):
            raise FaultPlanError(
                "plan.fuse_dir: required when any fault has scope \"global\" "
                "(the cross-process fuse needs an explicit directory)"
            )

    def fingerprint(self) -> str:
        """SHA-256 of the canonical JSON form — the plan's identity."""
        blob = json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    def schedule(self, site: str, n: int) -> list:
        """Preview the first ``n`` hits at ``site``: fired kind or None.

        A pure function of ``(plan, site, n)`` — this is the sequence a
        fresh per-process injector produces, before ``"global"``-scope
        fuse arbitration (which can only turn a fire into a skip).  Used
        by tests and the resilience bench to assert that one seed means
        one schedule.
        """
        state = SiteSchedule(self, site)
        out = []
        for _ in range(max(n, 0)):
            choice = state.next_hit()
            out.append(None if choice is None else choice[1].kind)
        return out


def _derive_seed(seed: int, site: str, position: int) -> int:
    token = f"{seed}:{site}:{position}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(token).digest()[:8], "big")


class SiteSchedule:
    """The deterministic hit-by-hit schedule of one site.

    Shared by :class:`~repro.faults.FaultInjector` (live) and
    :meth:`FaultPlan.schedule` (preview) so the two can never drift.
    Not thread-safe on its own — the injector serializes access.
    """

    def __init__(self, plan: FaultPlan, site: str):
        self.specs = [
            (position, spec)
            for position, spec in enumerate(plan.faults)
            if spec.site == site
        ]
        self._rngs = [
            random.Random(_derive_seed(plan.seed, site, position))
            for position, _ in self.specs
        ]
        self.fired = [0] * len(self.specs)
        self.hits = 0

    def next_hit(self):
        """Advance one hit; returns ``(slot, spec)`` for a fire, or None.

        Every rate-based spec consumes exactly one draw per hit whether
        or not it wins, so the choice at hit N never depends on which
        earlier spec fired.
        """
        index = self.hits
        self.hits += 1
        chosen = None
        for slot, (_, spec) in enumerate(self.specs):
            draw = self._rngs[slot].random() if spec.rate > 0.0 else 1.0
            if chosen is not None:
                continue
            if spec.limit is not None and self.fired[slot] >= spec.limit:
                continue
            if index in spec.at or draw < spec.rate:
                chosen = (slot, spec)
        if chosen is not None:
            self.fired[chosen[0]] += 1
        return chosen


def load_fault_plan(path) -> FaultPlan:
    """Read a :class:`FaultPlan` from a JSON file.

    Raises:
        FaultPlanError: unreadable file, bad JSON, or invalid plan —
            the message names the path.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise FaultPlanError(f"fault plan {str(path)!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FaultPlanError(
            f"fault plan {str(path)!r}: invalid JSON: {exc}"
        ) from exc
    if not isinstance(data, dict):
        raise FaultPlanError(
            f"fault plan {str(path)!r}: expected a JSON object, "
            f"got {type(data).__name__}"
        )
    return FaultPlan.from_dict(data)
