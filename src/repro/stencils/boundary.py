"""Boundary conditions: the halo-refresh vocabulary shared by every engine.

A Jacobi-style sweep updates the grid *interior*; what happens to the
radius-wide halo ring between sweeps is the boundary condition:

* ``dirichlet`` — the halo is held fixed at its initial values (the paper's
  benchmark setup, and the historical behaviour of every execution path);
* ``periodic`` — the interior tiles the space: each halo cell is refreshed
  from the interior cell one period away, so a sweep sees a wrap-around
  domain (the ``sa2d_mpi`` wrap exchange, applied globally);
* ``reflect`` — each halo cell mirrors the interior cell the same distance
  inside the boundary (edge-inclusive, ``np.pad(mode="symmetric")``), the
  standard ghost-cell approximation of a zero-flux Neumann wall;
* ``neumann(flux=...)`` — the prescribed-gradient generalisation of
  ``reflect``: each halo cell is the mirror value **plus** ``flux`` times
  the cell-centre separation from its mirror source (unit grid spacing), so
  the outward normal derivative across both walls equals ``flux``.
  ``neumann(flux=0.0)`` *is* ``reflect`` and normalises to it, keeping the
  zero-flux fingerprint stable.  The family is open (any finite flux), so
  it is validated by parsing rather than membership in
  :data:`BOUNDARY_CONDITIONS`.

:func:`apply_boundary` is the single implementation every layer shares: the
golden numpy reference, the single-device executor (after each sweep) and
the sharded executor (on the assembled output; *between* sweeps the
:class:`repro.stencils.partition.GridPartition` realises the same semantics
distributively through its halo exchange).  The fill is applied axis by
axis in increasing order, each strip spanning the full extent of the other
axes (halos included) — exactly the stacked-1D geometry of the partition's
dimension-ordered exchange, which is what keeps sharded output bit-identical
to single-device output for every boundary condition.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Tuple, Union

import numpy as np

from repro.util.validation import require, require_non_negative_int

__all__ = [
    "BoundaryCondition",
    "BOUNDARY_CONDITIONS",
    "DIRICHLET",
    "PERIODIC",
    "REFLECT",
    "NEUMANN",
    "neumann",
    "neumann_bias",
    "boundary_kind",
    "boundary_flux",
    "normalize_boundary",
    "apply_boundary",
    "axis_slice",
]


class BoundaryCondition(str, Enum):
    """The boundary-condition vocabulary (members compare equal to their
    lowercase string values, so plain strings work everywhere)."""

    DIRICHLET = "dirichlet"
    PERIODIC = "periodic"
    REFLECT = "reflect"


DIRICHLET = BoundaryCondition.DIRICHLET.value
PERIODIC = BoundaryCondition.PERIODIC.value
REFLECT = BoundaryCondition.REFLECT.value

#: Kind name of the parameterised prescribed-gradient family; the canonical
#: *condition* strings are ``neumann(flux=<repr>)`` (zero flux normalises to
#: ``reflect``), so ``NEUMANN`` itself never appears as a canonical name.
NEUMANN = "neumann"

#: Canonical closed-form names, in documentation order.  ``neumann(flux=...)``
#: is an open family on top of these (any finite flux), validated by parsing.
BOUNDARY_CONDITIONS: Tuple[str, ...] = (DIRICHLET, PERIODIC, REFLECT)

#: ``neumann``, ``neumann(0.25)``, ``neumann(flux=0.25)`` — whitespace-tolerant.
_NEUMANN_RE = re.compile(
    r"^neumann\s*(?:\(\s*(?:flux\s*=\s*)?([^)]+?)\s*\))?$")


def neumann(flux: float = 0.0) -> str:
    """Canonical condition string for a prescribed-gradient wall.

    ``neumann(0.0)`` returns ``"reflect"`` (the zero-flux wall already has a
    name, and collapsing onto it keeps fingerprints of the two spellings
    identical); any other finite flux yields ``f"neumann(flux={flux!r})"``,
    whose ``repr`` round-trips exactly — the string is fingerprint-safe.
    """
    value = float(flux)
    require(np.isfinite(value), f"neumann flux must be finite, got {flux!r}")
    if value == 0.0:
        return REFLECT
    return f"neumann(flux={value!r})"


def normalize_boundary(value: Union[str, BoundaryCondition, None]) -> str:
    """Canonical lowercase name of a boundary condition.

    Accepts a :class:`BoundaryCondition` member, any casing of a closed-form
    name, the ``neumann`` family (``"neumann"``, ``"neumann(0.25)"``,
    ``"neumann(flux=0.25)"``) or ``None`` (= the default, ``"dirichlet"``).
    Raises :class:`~repro.util.validation.ValidationError` for anything else.
    """
    if value is None:
        return DIRICHLET
    if isinstance(value, BoundaryCondition):
        return value.value
    require(isinstance(value, str),
            f"boundary condition must be a string or BoundaryCondition, "
            f"got {type(value).__name__}")
    name = value.strip().lower()
    if name in BOUNDARY_CONDITIONS:
        return name
    match = _NEUMANN_RE.match(name)
    require(match is not None,
            f"boundary condition must be one of {BOUNDARY_CONDITIONS} or "
            f"'neumann(flux=<float>)', got {value!r}")
    flux_text = match.group(1)
    if flux_text is None:
        return REFLECT  # bare "neumann" = zero flux = reflect
    try:
        flux = float(flux_text)
    except ValueError:
        require(False, f"neumann flux must be a float literal, "
                       f"got {flux_text!r} in {value!r}")
    return neumann(flux)


def boundary_kind(value: Union[str, BoundaryCondition, None]) -> str:
    """The family of a condition: closed-form name, or ``"neumann"``."""
    name = normalize_boundary(value)
    return NEUMANN if name.startswith(NEUMANN) else name


def boundary_flux(value: Union[str, BoundaryCondition, None]) -> float:
    """Prescribed outward-gradient of a condition (``0.0`` unless neumann)."""
    name = normalize_boundary(value)
    match = _NEUMANN_RE.match(name)
    if match is None or match.group(1) is None:
        return 0.0
    return float(match.group(1))


def apply_boundary(data: np.ndarray, radius: int,
                   boundary: Union[str, BoundaryCondition, None]) -> np.ndarray:
    """Refresh the ``radius``-wide halo ring of ``data`` in place.

    ``dirichlet`` is a no-op (the halo stays whatever it is), and so is
    ``radius`` 0 — a fused pattern whose taps cancel down to the centre
    cell has no ring to fill.  For
    ``periodic``, ``reflect`` and ``neumann(flux=...)`` the fill runs axis by
    axis in increasing order, each strip spanning the full extent of every
    other axis — corner cells therefore receive their diagonal values through
    two stacked copies, matching the partition layer's dimension-ordered halo
    exchange bit for bit.  Reads touch only interior cells along the filled
    axis, so the result is a pure function of the interior values.

    A neumann fill is the reflect mirror plus ``flux`` times the cell-centre
    separation between the ghost cell and its mirror source (unit spacing):
    ``2*(radius - g) - 1`` spacings for low-halo index ``g`` and ``2*q + 1``
    for high-halo offset ``q``, the affine bias that makes the outward
    normal derivative equal ``flux`` on both walls.

    Returns ``data`` (the same array) for call-chaining convenience.
    """
    boundary = normalize_boundary(boundary)
    if boundary == DIRICHLET:
        return data
    flux = boundary_flux(boundary)
    if require_non_negative_int(radius, "radius") == 0:
        return data
    for size in data.shape:
        interior = int(size) - 2 * radius
        require(interior >= radius,
                f"grid extent {size} leaves a {interior}-cell interior, "
                f"shorter than the stencil radius {radius} — {boundary} "
                f"halos would need cells beyond the opposite boundary")
    for axis in range(data.ndim):
        n = data.shape[axis] - 2 * radius
        low = axis_slice(data.ndim, axis, 0, radius)
        high = axis_slice(data.ndim, axis, n + radius, n + 2 * radius)
        if boundary == PERIODIC:
            # halo cell j steps outside <- interior cell one period away
            data[low] = data[axis_slice(data.ndim, axis, n, n + radius)]
            data[high] = data[axis_slice(data.ndim, axis, radius, 2 * radius)]
        else:  # reflect/neumann: ghost i steps outside <- interior i inside
            data[low] = np.flip(
                data[axis_slice(data.ndim, axis, radius, 2 * radius)],
                axis=axis)
            data[high] = np.flip(
                data[axis_slice(data.ndim, axis, n, n + radius)], axis=axis)
            if flux != 0.0:
                data[low] += neumann_bias(data.ndim, axis, radius, flux,
                                          side="low")
                data[high] += neumann_bias(data.ndim, axis, radius, flux,
                                           side="high")
    return data


def neumann_bias(ndim: int, axis: int, width: int, flux: float,
                 *, side: str) -> np.ndarray:
    """The affine ghost-fill bias of a neumann wall, broadcast-shaped.

    Returns a float64 array of shape ``1 × ... × width × ... × 1`` (``width``
    along ``axis``) holding ``flux * separation`` per ghost cell, where the
    separation is the cell-centre distance to the mirror source: ``2*q + 1``
    spacings for offset ``q`` outward on the ``"high"`` face and its flip on
    the ``"low"`` face.  Shared by the global fill above and the partition's
    mirror exchange ops so both add bit-identical biases.
    """
    require(side in ("low", "high"), f"side must be low/high, got {side!r}")
    separations = 2.0 * np.arange(width, dtype=np.float64) + 1.0
    if side == "low":
        separations = separations[::-1]
    shape = [1] * ndim
    shape[axis] = width
    return (flux * separations).reshape(shape)


def axis_slice(ndim: int, axis: int, start: int, stop: int) -> Tuple[slice, ...]:
    """Full-extent slices except ``[start, stop)`` along ``axis``.

    Shared by the global fill above and the partition layer's halo exchange
    (:meth:`repro.stencils.partition.GridPartition.exchange_halos`) — the
    bit-identity contract between the two depends on both slicing the same
    strips.
    """
    slices = [slice(None)] * ndim
    slices[axis] = slice(start, stop)
    return tuple(slices)
