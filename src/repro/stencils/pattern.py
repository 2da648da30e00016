"""Stencil pattern definitions.

A :class:`StencilPattern` is the symbolic description of a stencil kernel: the
set of neighbour offsets that contribute to each updated grid point together
with their weights.  Patterns are the input to every later stage — the golden
reference, the layout-morphing pipeline and all baselines consume the same
object, which is what makes the end-to-end equality tests meaningful.

The paper classifies kernels as *star* (taps only along the axes) or *box*
(every tap inside the ``k × k`` neighbourhood); both are supported, plus
arbitrary custom tap sets, in 1, 2 or 3 dimensions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.util.validation import (
    ValidationError,
    require,
    require_in,
    require_odd,
    require_positive_int,
)

__all__ = ["StencilKind", "StencilPattern"]


class StencilKind(str, enum.Enum):
    """Structural classification of a stencil pattern."""

    STAR = "star"
    BOX = "box"
    CUSTOM = "custom"


def _star_offsets(ndim: int, radius: int) -> list[tuple[int, ...]]:
    """Offsets of a star stencil: centre plus taps along each axis."""
    offsets: list[tuple[int, ...]] = [tuple([0] * ndim)]
    for axis in range(ndim):
        for distance in range(1, radius + 1):
            for sign in (-1, 1):
                offset = [0] * ndim
                offset[axis] = sign * distance
                offsets.append(tuple(offset))
    return offsets


def _box_offsets(ndim: int, radius: int) -> list[tuple[int, ...]]:
    """Offsets of a box stencil: the full ``(2r+1)^ndim`` neighbourhood."""
    axes = [range(-radius, radius + 1)] * ndim
    mesh = np.meshgrid(*axes, indexing="ij")
    stacked = np.stack([m.ravel() for m in mesh], axis=1)
    return [tuple(int(v) for v in row) for row in stacked]


@dataclass(frozen=True)
class StencilPattern:
    """A stencil kernel: neighbour offsets and their weights.

    Parameters
    ----------
    name:
        Human readable identifier (e.g. ``"heat-2d"``, ``"box-2d49p"``).
    ndim:
        Spatial dimensionality of the grid the stencil updates (1, 2 or 3).
    offsets:
        Sequence of integer offset tuples, one per tap, each of length ``ndim``.
    weights:
        One weight per tap, same order as ``offsets``.
    kind:
        Structural classification; purely informational but kept because the
        evaluation section of the paper slices results by it.
    """

    name: str
    ndim: int
    offsets: Tuple[Tuple[int, ...], ...]
    weights: Tuple[float, ...]
    kind: StencilKind = StencilKind.CUSTOM
    metadata: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self) -> None:
        require_positive_int(self.ndim, "ndim")
        require_in(self.ndim, (1, 2, 3), "ndim")
        require(len(self.offsets) > 0, "a stencil needs at least one tap")
        require(
            len(self.offsets) == len(self.weights),
            f"offsets ({len(self.offsets)}) and weights ({len(self.weights)}) "
            "must have the same length",
        )
        seen: set[tuple[int, ...]] = set()
        for off in self.offsets:
            require(
                len(off) == self.ndim,
                f"offset {off!r} does not match ndim={self.ndim}",
            )
            require(off not in seen, f"duplicate offset {off!r}")
            seen.add(off)
        object.__setattr__(
            self, "offsets", tuple(tuple(int(v) for v in off) for off in self.offsets)
        )
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        # derived once: the layout search and every compile stage read it
        object.__setattr__(self, "_radius", int(max(
            max(abs(v) for v in off) for off in self.offsets)))

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @staticmethod
    def star(ndim: int, radius: int, weights: Sequence[float] | None = None,
             name: str | None = None) -> "StencilPattern":
        """Create a star stencil of the given radius.

        The tap order is centre first, then per axis increasing distance with
        the negative direction before the positive one.  When ``weights`` is
        omitted a normalised Jacobi-style weighting is used (centre weight
        0.5, the rest split evenly) so examples produce stable iterations.
        """
        require_positive_int(radius, "radius")
        offsets = _star_offsets(ndim, radius)
        if weights is None:
            neighbour = 0.5 / (len(offsets) - 1) if len(offsets) > 1 else 0.0
            weights = [0.5] + [neighbour] * (len(offsets) - 1)
        require(
            len(weights) == len(offsets),
            f"expected {len(offsets)} weights for a star stencil of radius "
            f"{radius} in {ndim}D, got {len(weights)}",
        )
        return StencilPattern(
            name=name or f"star-{ndim}d-r{radius}",
            ndim=ndim,
            offsets=tuple(offsets),
            weights=tuple(weights),
            kind=StencilKind.STAR,
        )

    @staticmethod
    def box(ndim: int, radius: int, weights: Sequence[float] | None = None,
            name: str | None = None) -> "StencilPattern":
        """Create a box stencil covering the full ``(2r+1)^ndim`` neighbourhood."""
        require_positive_int(radius, "radius")
        offsets = _box_offsets(ndim, radius)
        if weights is None:
            weights = [1.0 / len(offsets)] * len(offsets)
        require(
            len(weights) == len(offsets),
            f"expected {len(offsets)} weights for a box stencil of radius "
            f"{radius} in {ndim}D, got {len(weights)}",
        )
        return StencilPattern(
            name=name or f"box-{ndim}d-r{radius}",
            ndim=ndim,
            offsets=tuple(offsets),
            weights=tuple(weights),
            kind=StencilKind.BOX,
        )

    @staticmethod
    def from_dense(kernel: np.ndarray, name: str = "custom",
                   keep_zeros: bool = False) -> "StencilPattern":
        """Build a pattern from a dense odd-sized kernel array.

        Zero weights are dropped by default (they carry no computation); pass
        ``keep_zeros=True`` to keep the full box footprint.
        """
        kernel = np.asarray(kernel, dtype=np.float64)
        require_in(kernel.ndim, (1, 2, 3), "kernel.ndim")
        for size in kernel.shape:
            require_odd(size, "kernel extent")
        radius = tuple(s // 2 for s in kernel.shape)
        offsets: list[tuple[int, ...]] = []
        weights: list[float] = []
        for index in np.ndindex(kernel.shape):
            value = float(kernel[index])
            if value == 0.0 and not keep_zeros:
                continue
            offsets.append(tuple(int(i - r) for i, r in zip(index, radius)))
            weights.append(value)
        require(len(offsets) > 0, "kernel has no nonzero taps")
        return StencilPattern(
            name=name,
            ndim=kernel.ndim,
            offsets=tuple(offsets),
            weights=tuple(weights),
            kind=StencilKind.CUSTOM,
        )

    # ------------------------------------------------------------------ #
    # derived properties
    # ------------------------------------------------------------------ #
    @property
    def points(self) -> int:
        """Number of taps (the "points" column of Table 2)."""
        return len(self.offsets)

    @property
    def radius(self) -> int:
        """Maximum absolute offset along any axis."""
        return self._radius

    @property
    def diameter(self) -> int:
        """Kernel extent ``k = 2 * radius + 1`` (the ``k`` of the paper)."""
        return 2 * self.radius + 1

    @property
    def footprint_shape(self) -> Tuple[int, ...]:
        """Shape of the dense bounding box of the taps (``k`` along each axis)."""
        return tuple([self.diameter] * self.ndim)

    def to_dense(self, dtype=np.float64) -> np.ndarray:
        """Return the dense ``k^ndim`` kernel array with weights in place."""
        kernel = np.zeros(self.footprint_shape, dtype=dtype)
        radius = self.radius
        for off, weight in zip(self.offsets, self.weights):
            index = tuple(o + radius for o in off)
            kernel[index] = weight
        return kernel

    def weight_vector(self, dtype=np.float64) -> np.ndarray:
        """Row-major flattening of :meth:`to_dense` (the paper's kernel vector)."""
        return self.to_dense(dtype=dtype).ravel()

    def classify(self) -> StencilKind:
        """Re-derive the structural kind from the offsets (ignoring ``kind``)."""
        radius = self.radius
        offsets = set(self.offsets)
        star = set(_star_offsets(self.ndim, radius))
        box = set(_box_offsets(self.ndim, radius))
        if offsets == box:
            return StencilKind.BOX
        if offsets == star:
            return StencilKind.STAR
        return StencilKind.CUSTOM

    def normalized(self) -> "StencilPattern":
        """Return a copy whose weights sum to one (useful for stable iteration)."""
        total = float(sum(self.weights))
        if total == 0.0:
            raise ValidationError("cannot normalise a pattern whose weights sum to 0")
        return StencilPattern(
            name=self.name,
            ndim=self.ndim,
            offsets=self.offsets,
            weights=tuple(w / total for w in self.weights),
            kind=self.kind,
            metadata=dict(self.metadata),
        )

    def with_weights(self, weights: Iterable[float]) -> "StencilPattern":
        """Return a copy with replaced weights (same offsets and order)."""
        return StencilPattern(
            name=self.name,
            ndim=self.ndim,
            offsets=self.offsets,
            weights=tuple(float(w) for w in weights),
            kind=self.kind,
            metadata=dict(self.metadata),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StencilPattern(name={self.name!r}, ndim={self.ndim}, "
            f"points={self.points}, radius={self.radius}, kind={self.kind.value})"
        )
