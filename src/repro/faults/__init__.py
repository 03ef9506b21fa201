"""repro.faults — deterministic, seeded fault injection.

The resilience counterpart of PR 2's spec discipline: failures are
*data*.  A :class:`FaultPlan` (frozen dataclass, exact
``to_dict``/``from_dict`` round-trip) schedules named faults —
``worker-crash``, ``store-io-error``, ``shm-attach-gone``,
``socket-drop``, ``reply-delay`` — at named injection sites; a
:class:`FaultInjector` executes that schedule deterministically (one
seed, one schedule).  A plan is armed only by the ``faults=`` knob a
caller hands to each fault-aware subsystem (:func:`as_injector` coerces
it); nothing is read from the environment.  Each process fires one
injector: a :class:`~repro.server.ReproServer` fires its engine's, and a
process-pool worker keeps one per shipped plan for its whole life.

What consumes it:

* :class:`~repro.service.ProcessExecutor` — ``worker.run`` faults kill
  workers; the executor detects the broken pool, respawns it, and
  re-dispatches the affected work units (bit-identical: work units are
  pure specs);
* :class:`~repro.store.ArtifactStore` — ``store.load``/``store.put``
  faults exercise the quarantine-and-rebuild path;
* :mod:`repro.store.shm` — ``shm.attach``/``shm.share`` faults force the
  render-it-yourself fallback;
* :class:`~repro.server.ReproServer` — ``server.reply``/``server.stream``
  faults drop connections, delay replies, or kill a stream mid-flight;
  the retrying :class:`~repro.server.ServerClient` recovers.

``benchmarks/bench_resilience.py`` gates the whole loop: a serving load
under an active worker-crash + socket-drop plan must complete 100% of
its requests with replies byte-identical to a fault-free run.
"""

from .injector import FaultInjector, InjectedFault
from .plan import (
    FAULT_KINDS,
    FAULT_SCOPES,
    FAULT_SITES,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    load_fault_plan,
)
from .runtime import as_injector

__all__ = [
    "FAULT_KINDS",
    "FAULT_SCOPES",
    "FAULT_SITES",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "InjectedFault",
    "as_injector",
    "load_fault_plan",
]
