"""The live side of fault injection: counters, fuses, and firing.

A :class:`FaultInjector` wraps one :class:`~repro.faults.FaultPlan` and
answers the only question call sites ask: *does a fault fire at this
site, on this hit?*  ``fire(site)`` advances the site's deterministic
:class:`~repro.faults.plan.SiteSchedule` and returns the winning
:class:`~repro.faults.FaultSpec` (or ``None``); the call site applies
the effect — raising :class:`InjectedFault`, exiting the process,
closing a socket — because only it knows how that failure manifests
there.  The injector itself never sleeps, never raises, and never
touches wall clocks, so a plan with no matching faults costs one dict
lookup per hit.

``"global"``-scope faults are arbitrated through marker files under the
plan's ``fuse_dir``: the first process to reach the scheduled hit
atomically creates the marker (``open(..., "x")``) and fires; everyone
else — including the respawned worker that replays the same hit index —
skips.  That is what makes "kill exactly one worker, then recover"
expressible as data.
"""

from __future__ import annotations

import os
import threading

from .plan import FaultPlan, FaultSpec, SiteSchedule


class InjectedFault(OSError):
    """A deterministic, plan-scheduled failure.

    A subclass of :class:`OSError` so injected store/shm failures flow
    through exactly the handlers real I/O errors do — the point of
    injection is to exercise the production fallback paths, not special
    test-only ones.

    Attributes:
        site: the injection site that fired.
        kind: the fault kind.
    """

    def __init__(self, site: str, kind: str):
        super().__init__(f"injected fault: {kind} at {site}")
        self.site = site
        self.kind = kind


class FaultInjector:
    """Thread-safe runtime for one fault plan.

    One injector per process: hit counters and rate streams are
    per-process state (a spawned worker rebuilds its own injector from
    the plan dict it was shipped), while ``"global"``-scope faults
    coordinate across processes through the plan's ``fuse_dir``.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._sites: dict[str, SiteSchedule] = {}
        self._counts: dict[str, int] = {}

    def fire(self, site: str) -> FaultSpec | None:
        """Advance ``site`` by one hit; the fired spec, or ``None``.

        Firing is counted in :meth:`counters`; a ``"global"``-scope spec
        that loses its fuse race neither fires nor counts (and its
        per-spec fire tally is rolled back so a later hit may still win).
        """
        with self._lock:
            state = self._sites.get(site)
            if state is None:
                state = self._sites[site] = SiteSchedule(self.plan, site)
            choice = state.next_hit()
            if choice is None:
                return None
            slot, spec = choice
            if spec.scope == "global" and not self._claim_fuse(
                site, spec, state.hits - 1
            ):
                state.fired[slot] -= 1
                return None
            key = f"{site}:{spec.kind}"
            self._counts[key] = self._counts.get(key, 0) + 1
            return spec

    def counters(self) -> dict[str, int]:
        """Cumulative fires, keyed ``"<site>:<kind>"`` (a copy)."""
        with self._lock:
            return dict(self._counts)

    def hits(self, site: str) -> int:
        """How many times ``site`` has been consulted in this process."""
        with self._lock:
            state = self._sites.get(site)
            return 0 if state is None else state.hits

    def _claim_fuse(self, site: str, spec: FaultSpec, hit: int) -> bool:
        """Atomically claim the cross-process fuse for one scheduled fire."""
        fuse_dir = self.plan.fuse_dir
        marker = os.path.join(
            fuse_dir, f"{site}.{spec.kind}.{hit}".replace("/", "_")
        )
        try:
            os.makedirs(fuse_dir, exist_ok=True)
            with open(marker, "x", encoding="utf-8") as handle:
                handle.write(f"pid={os.getpid()}\n")
            return True
        except FileExistsError:
            return False
        except OSError:
            # An unwritable fuse dir means arbitration is impossible;
            # not firing is the safe (and deterministic-per-run) choice.
            return False

    def __repr__(self) -> str:
        return (
            f"FaultInjector(plan={self.plan.name!r}, "
            f"seed={self.plan.seed}, faults={len(self.plan.faults)})"
        )
