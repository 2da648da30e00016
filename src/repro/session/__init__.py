"""Session layer: the unified ``Problem -> Solution`` front door.

One typed surface over every execution mode the reproduction has —
single-device, sharded multi-device, the online server and the baseline
comparators::

    from repro import Problem, StencilSession

    with StencilSession(devices=4) as session:
        solution = session.solve(Problem(pattern, grid, iterations=8))
        print(solution.provenance.executor)   # "single" or "sharded"

* :mod:`repro.session.problem` — the vocabulary: :class:`Problem`,
  :class:`SolvePolicy`, :class:`Solution`, :class:`Provenance`;
* :mod:`repro.session.registry` — the :class:`ExecutorRegistry` mapping
  policy modes to engines;
* :mod:`repro.session.session` — :class:`StencilSession` and the
  :class:`SessionConfig` it is built from.

Only the vocabulary is imported eagerly (the lower service layer shares it);
the facade loads on first attribute access, which keeps
``repro.service.batch`` → ``repro.session.problem`` cycle-free.
"""

from repro.session.problem import (
    Problem,
    Provenance,
    Solution,
    SolvePolicy,
    split_mode,
)

__all__ = [
    "Problem",
    "SolvePolicy",
    "Provenance",
    "Solution",
    "split_mode",
    "SessionExecutor",
    "ExecutorRegistry",
    "default_registry",
    "SessionConfig",
    "StencilSession",
]

_LAZY = {
    "SessionExecutor": "repro.session.registry",
    "ExecutorRegistry": "repro.session.registry",
    "default_registry": "repro.session.registry",
    "BaselineSessionExecutor": "repro.session.registry",
    "SingleDeviceSessionExecutor": "repro.session.registry",
    "ShardedSessionExecutor": "repro.session.registry",
    "ServedSessionExecutor": "repro.session.registry",
    "SessionConfig": "repro.session.session",
    "StencilSession": "repro.session.session",
}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
