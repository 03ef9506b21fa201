"""The ``faults=`` knob glue: one coercion for every fault-aware constructor.

A plan is armed only by the ``faults=`` a caller hands down (``Engine``,
``ReproServer``, ``ArtifactStore``, ``share_clip``/``attach_clip``);
nothing is looked up from the environment or a process-global slot.
:func:`as_injector` coerces whatever the caller holds (a plan, a plan
dict, a JSON file path, inline JSON, an injector) into one
:class:`~repro.faults.FaultInjector`.  With no plan, every fault check is
a single ``None`` test — the fault layer costs nothing when dormant.
"""

from __future__ import annotations

import json
from pathlib import Path

from .injector import FaultInjector
from .plan import FaultPlan, FaultPlanError, load_fault_plan


def as_injector(faults) -> FaultInjector | None:
    """Coerce any accepted ``faults=`` value into an injector (or None).

    Accepts ``None``, a :class:`FaultInjector`, a :class:`FaultPlan`, a
    plan dict, a JSON file path (``str``/``Path``), or an inline-JSON
    string (starts with ``{`` — the same convention as the
    ``--fault-plan`` CLI flag).

    Raises:
        FaultPlanError: invalid inline JSON, or an unreadable or invalid
            plan file — a chaos run that silently injects nothing would
            pass for resilience, so a broken plan fails loudly.
    """
    if faults is None or isinstance(faults, FaultInjector):
        return faults
    if isinstance(faults, FaultPlan):
        return FaultInjector(faults)
    if isinstance(faults, dict):
        return FaultInjector(FaultPlan.from_dict(faults))
    if isinstance(faults, str) and faults.lstrip().startswith("{"):
        try:
            data = json.loads(faults)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"faults: invalid inline JSON: {exc}") from exc
        return FaultInjector(FaultPlan.from_dict(data))
    if isinstance(faults, (str, Path)):
        return FaultInjector(load_fault_plan(faults))
    raise TypeError(
        "faults: expected a FaultPlan, FaultInjector, plan dict, JSON "
        f"path, or None, got {faults!r}"
    )
