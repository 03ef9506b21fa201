"""Lint scoping: which modules each repo-specific rule patrols.

Most rules are global (``seeded-rng`` applies to every linted file), but
several invariants are contracts of *specific* modules: report payloads
must be wall-clock-free, the cache/store tiers must mutate shared state
under their lock, ``ml/layers.py`` inference must stay on fixed-order
einsum.  :class:`LintConfig` carries those scopes as ``fnmatch``
patterns over posix paths, so the test-suite can point the same rules
at fixture files instead of the real tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatch
from pathlib import PurePath


def module_matches(path: str, patterns: tuple[str, ...]) -> bool:
    """True when ``path`` (posix-normalised) matches any glob pattern."""
    posix = PurePath(path).as_posix()
    return any(fnmatch(posix, pattern) for pattern in patterns)


@dataclass(frozen=True)
class LockScope:
    """One lock-discipline contract: tracked attributes in a module.

    Attributes:
        pattern: glob selecting the module(s) the contract covers.
        attrs: ``self.<attr>`` names that may only mutate under the lock.
        lock_attr: the lock the mutation must be lexically inside
            (``with self.<lock_attr>:``), unless the enclosing method is
            ``__init__`` or carries the ``*_locked`` naming convention.
    """

    pattern: str
    attrs: tuple[str, ...]
    lock_attr: str = "_lock"


@dataclass(frozen=True)
class LintConfig:
    """Per-rule module scopes (fnmatch globs over posix paths).

    Attributes:
        payload_modules: report/ledger/spec payload modules that must not
            reach wall-clock sources (``no-wallclock``).
        lock_scopes: lock-discipline contracts (``lock-discipline``).
        matmul_modules: inference kernels restricted to fixed-order
            einsum (``no-bare-matmul-in-inference``).
        workunit_modules: modules whose dataclasses cross process
            boundaries and must stay picklable (``picklable-workunits``).
    """

    payload_modules: tuple[str, ...] = (
        "*/repro/codec.py",
        "*/repro/core/config.py",
        "*/repro/core/report.py",
        "*/repro/stream/ledger.py",
        "*/repro/experiments/report.py",
        "*/repro/experiments/sweep.py",
        "*/repro/service/spec.py",
        "*/repro/server/protocol.py",
        "*/repro/faults/plan.py",
    )
    lock_scopes: tuple[LockScope, ...] = (
        LockScope("*/repro/service/cache.py", ("_entries", "_sizes")),
        LockScope("*/repro/store/artifact.py", ("_index", "_clock", "_inflight")),
    )
    matmul_modules: tuple[str, ...] = ("*/repro/ml/layers.py",)
    workunit_modules: tuple[str, ...] = (
        "*/repro/service/spec.py",
        "*/repro/service/executor.py",
        "*/repro/store/shm.py",
    )

    def lock_scope_for(self, path: str) -> LockScope | None:
        """The lock contract covering ``path``, if any."""
        for scope in self.lock_scopes:
            if module_matches(path, (scope.pattern,)):
                return scope
        return None


#: The repository's own contracts — what CI lints ``src benchmarks
#: tools`` with.
DEFAULT_CONFIG = LintConfig()
