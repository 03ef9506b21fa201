"""Component registries: string names -> factories, with introspection.

The service layer wires scenarios from *names*, not imports: a JSON spec
says ``{"detector": {"name": "ground-truth"}}`` and the engine looks the
factory up here.  Four registries cover the slots of a scenario —
detectors, classifiers, stream sources, and reuse policies — each populated
by the decorators in :mod:`repro.service.components` (and extensible by
user code the same way: decorate a factory and the name becomes spec-able).

Factory contracts (enforced by convention, documented per registry):

* **source**: ``factory(n_frames, seed, **params) -> SyntheticClip``;
* **detector**: ``factory(clip, **params) -> (detector | None, on_frame | None)``
  — the optional ``on_frame`` callback is wired into the stream runner so
  stateful detectors can follow the frame index;
* **classifier**: ``factory(**params) -> callable | None``;
* **policy**: ``factory(**params) -> TemporalROIReuse | KeyframeReuse | None``.
"""

from __future__ import annotations

from typing import Callable


class UnknownComponentError(KeyError):
    """Lookup of a name no factory was registered under.

    The message names the registry, the missing name, and every registered
    name, so a typo in a spec file is a one-glance fix.
    """

    def __init__(self, kind: str, name: str, known: list[str]):
        super().__init__(name)
        self.kind = kind
        self.name = name
        self.known = known

    def __str__(self) -> str:
        return (
            f"unknown {self.kind} {self.name!r}; "
            f"registered {self.kind}s: {self.known}"
        )


#: Bumped whenever a registered name is *deleted* — the override escape
#: hatch is the only way an existing spec can start meaning something
#: else, so engine caches fold this epoch into their keys and go cold
#: exactly then (additive registrations can't retarget existing specs:
#: duplicate names are rejected).
_OVERRIDE_EPOCH = 0


def registry_epoch() -> int:
    """Current override epoch (see :data:`_OVERRIDE_EPOCH`)."""
    return _OVERRIDE_EPOCH


class Registry:
    """One named slot type: an ordered mapping of names to factories.

    Attributes:
        kind: what the entries build ("detector", "source", ...), used in
            error messages and :func:`list_components` keys.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._factories: dict[str, Callable] = {}

    def register(self, name: str) -> Callable[[Callable], Callable]:
        """Decorator: ``@registry.register("grid")`` binds the factory.

        Re-registering a taken name is an error — shadowing a built-in
        silently would make specs mean different things in different
        processes.  Unregister first (``del registry[name]``) to override.
        """
        if not name or not isinstance(name, str):
            raise ValueError(f"{self.kind} name must be a non-empty string")

        def _bind(factory: Callable) -> Callable:
            if name in self._factories:
                raise ValueError(
                    f"{self.kind} {name!r} is already registered "
                    f"(to {self._factories[name]!r})"
                )
            self._factories[name] = factory
            return factory

        return _bind

    def get(self, name: str) -> Callable:
        """Look a factory up; unknown names raise listing what exists."""
        try:
            return self._factories[name]
        except KeyError:
            raise UnknownComponentError(self.kind, name, self.names()) from None

    def names(self) -> list[str]:
        return sorted(self._factories)

    def __contains__(self, name: object) -> bool:
        return name in self._factories

    def __len__(self) -> int:
        return len(self._factories)

    def __iter__(self):
        return iter(sorted(self._factories))

    def __delitem__(self, name: str) -> None:
        if name not in self._factories:
            raise UnknownComponentError(self.kind, name, self.names())
        del self._factories[name]
        global _OVERRIDE_EPOCH
        _OVERRIDE_EPOCH += 1

    def __repr__(self) -> str:
        return f"Registry({self.kind!r}, {self.names()})"


#: The four scenario slots.
DETECTORS = Registry("detector")
CLASSIFIERS = Registry("classifier")
SOURCES = Registry("source")
POLICIES = Registry("policy")

#: Decorators user code imports: ``@register_detector("mine")``.
register_detector = DETECTORS.register
register_classifier = CLASSIFIERS.register
register_source = SOURCES.register
register_policy = POLICIES.register


def list_components() -> dict[str, list[str]]:
    """Every registered name, grouped by slot — the introspection surface.

    Returns:
        ``{"detectors": [...], "classifiers": [...], "sources": [...],
        "policies": [...]}``, each list sorted.
    """
    return {
        "detectors": DETECTORS.names(),
        "classifiers": CLASSIFIERS.names(),
        "sources": SOURCES.names(),
        "policies": POLICIES.names(),
    }
