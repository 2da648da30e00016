"""Canonical compile fingerprints.

A fingerprint is a stable digest of everything that determines a compiled
plan: the stencil's taps and weights, the grid shape, the data type, the
resolved engine/fragment, the device spec and the layout/conversion options.
Two compile requests with equal fingerprints are guaranteed (by
:func:`repro.core.pipeline.compile_resolved` being a pure function of its
resolved options) to yield interchangeable :class:`CompiledStencil` plans —
which is exactly the contract the :class:`repro.service.cache.CompileCache`
and the batched solve service key on.

Deliberately *excluded* from the fingerprint are the cosmetic pattern fields
(``name``, ``kind``, ``metadata``): renaming a stencil does not change the
kernel it compiles to.  Weights are encoded via ``float.hex`` so the mapping
is injective on the actual IEEE values — no two distinct weight vectors ever
collide through decimal rounding.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, Optional, Tuple

from repro.core.pipeline import (
    CompiledStencil,
    CompileOptions,
    compile_resolved,
    resolve_compile_options,
)
from repro.stencils.pattern import StencilPattern
from repro.tcu.spec import FragmentShape, GPUSpec, device_key

__all__ = [
    "CompileRequest",
    "compile_fingerprint",
    "pattern_fingerprint",
]


def _canon(value: Any) -> Any:
    """Recursively reduce a value to hashable primitives with exact floats."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, (tuple, list)):
        return tuple(_canon(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((str(k), _canon(v)) for k, v in value.items()))
    raise TypeError(f"cannot canonicalise {type(value).__name__} for fingerprinting")


def _digest(payload: Any) -> str:
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def _canon_pattern(pattern: StencilPattern) -> Tuple:
    """Semantic content of a pattern: ndim plus taps sorted by offset.

    Tap order inside a :class:`StencilPattern` is presentational — every
    consumer goes through the dense kernel / weight vector — so the canonical
    form sorts taps, making fingerprints invariant under tap reordering while
    staying injective on the (offset → weight) mapping.
    """
    taps = sorted(zip(pattern.offsets, pattern.weights))
    return (pattern.ndim,
            tuple((off, w.hex()) for off, w in taps))


#: Canonical spec tuples by :func:`~repro.tcu.spec.device_key`: a warm
#: fingerprint skips ``dataclasses.asdict``.  Cleared when it outgrows
#: ``_SPEC_MEMO_LIMIT`` devices, so what-if sweeps cannot grow it unbounded.
_SPEC_MEMO: Dict[Tuple, Tuple] = {}
_SPEC_MEMO_LIMIT = 64


def _canon_spec(spec: GPUSpec) -> Tuple:
    key = device_key(spec)
    canon = _SPEC_MEMO.get(key)
    if canon is None:
        if len(_SPEC_MEMO) >= _SPEC_MEMO_LIMIT:
            _SPEC_MEMO.clear()
        canon = _SPEC_MEMO[key] = _canon(dataclasses.asdict(spec))
    return canon


def _canon_fragment(fragment: FragmentShape) -> Tuple:
    return (fragment.m, fragment.k, fragment.n, fragment.sparse)


def pattern_fingerprint(pattern: StencilPattern) -> str:
    """Digest of a pattern's semantic content (offsets + exact weights)."""
    return _digest(_canon_pattern(pattern))


def compile_fingerprint(options: CompileOptions) -> str:
    """Digest of every compile-relevant field of resolved options.

    The boundary condition is fingerprinted even though it does not change
    the compiled operands: executors select their halo handling from
    ``CompiledStencil.boundary``, so a plan compiled for one boundary must
    never be served for a problem with another.  The execution backend is
    fingerprinted for the same reason (and the payload version bumped to v3
    when it joined): backends differ numerically, so a cache must never
    serve a plan across backends — in memory or from disk.  v4 marks the
    ``neumann(flux=...)`` boundary family joining the vocabulary: the flux
    rides inside the canonical boundary string (``repr`` round-trip exact),
    and the version bump keeps pre-neumann fingerprints from colliding with
    post-neumann ones.
    """
    payload = (
        "sparstencil-compile-v4",
        _canon_pattern(options.pattern),
        options.grid_shape,
        options.dtype.value,
        _canon_spec(options.spec),
        options.engine,
        _canon_fragment(options.fragment),
        options.search,
        options.r1,
        options.r2,
        options.temporal_fusion,
        options.conversion_method,
        options.block_hint,
        options.boundary,
        options.backend,
    )
    return _digest(payload)


@dataclass(frozen=True, eq=False)
class CompileRequest:
    """A hashable, fingerprinted compile request.

    Built via :meth:`build`, which funnels the user-facing keyword arguments
    through :func:`resolve_compile_options` — so normalisation can never
    drift from what :func:`compile_stencil` actually does.  Equality and
    hashing go through the fingerprint, which makes requests usable directly
    as dict/set keys even though :class:`GPUSpec` itself is not hashable.
    """

    options: CompileOptions

    @staticmethod
    def build(pattern: StencilPattern, grid_shape: Tuple[int, ...],
              **compile_kwargs) -> "CompileRequest":
        return CompileRequest(
            options=resolve_compile_options(pattern, grid_shape, **compile_kwargs))

    @cached_property
    def fingerprint(self) -> str:
        return compile_fingerprint(self.options)

    @property
    def key(self) -> str:
        """Short human-readable cache key (pattern name + digest prefix)."""
        return f"{self.options.pattern.name}@{self.fingerprint[:12]}"

    def compile(self) -> CompiledStencil:
        """Compile this request (pure: equal requests → equivalent plans)."""
        return compile_resolved(self.options)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompileRequest):
            return NotImplemented
        return self.fingerprint == other.fingerprint

    def __hash__(self) -> int:
        return hash(self.fingerprint)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        opts = self.options
        return (f"CompileRequest({opts.pattern.name!r}, grid={opts.grid_shape}, "
                f"dtype={opts.dtype.value}, engine={opts.engine}, "
                f"fingerprint={self.fingerprint[:12]})")
