"""Serving layer: compilation cache and batched solve service.

The paper's pipeline is "compile once, sweep many times"
(:mod:`repro.core.pipeline`); this package makes the *once* hold across
independent requests, which is what a deployment serving many users needs:

* :mod:`repro.service.fingerprint` — canonical, injective fingerprints of
  ``(pattern, grid shape, dtype, device spec, layout options)``;
* :mod:`repro.service.cache` — a thread-safe LRU :class:`CompileCache` with
  hit/miss statistics and optional on-disk plan persistence;
* :mod:`repro.service.batch` — the compile half of
  :meth:`repro.StencilSession.solve_batch`: it groups heterogeneous
  requests by fingerprint, compiles each distinct plan once (in parallel),
  and reports aggregate throughput once the session's registry executors
  have swept them.

The request type is :class:`repro.session.Problem`.
"""

from repro.service.fingerprint import (
    CompileRequest,
    compile_fingerprint,
    pattern_fingerprint,
)
from repro.service.cache import CacheEntry, CacheStats, CompileCache, rebrand
from repro.service.batch import (
    BatchItem,
    BatchReport,
    Problem,
)

__all__ = [
    "CompileRequest",
    "compile_fingerprint",
    "pattern_fingerprint",
    "CacheEntry",
    "CacheStats",
    "CompileCache",
    "rebrand",
    "BatchItem",
    "BatchReport",
    "Problem",
]
