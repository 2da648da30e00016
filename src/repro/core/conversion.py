"""Structured Sparsity Conversion (§3.2).

Turns the staircase kernel matrix ``A'`` produced by layout morphing into a
2:4-compliant matrix ``A''`` by

1. pairing conflict-free columns — Hierarchical Two-Level Matching when the
   self-similar staircase structure is available, Blossom otherwise,
2. inserting the required all-zero columns and applying the Permutation
   Invariant Transformation so matched pairs land in adjacent K slots.

:func:`select_matching` is the one rule that picks the matching solver.
The ``"blossom"`` solver is :func:`~repro.core.matching.exact_matching`,
Edmonds' maximum-cardinality matching on the conflict-graph complement.
:func:`convert_to_24` follows the rule to build the conversion; the layout
search follows it through :func:`padded_depth`, which needs only the
*number* of zero columns.

The returned :class:`ConversionResult` also knows how to apply the same
row permutation to any input matrix ``B'``, preserving
``A' @ B' = A'' @ B''`` exactly.  The generated kernel folds the
permutation into its load addresses instead (the ``tcu-sim`` sweep does the
same through :class:`repro.core.codegen.SlotTable`); :meth:`apply_to_b` is
the materialised reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from repro.core.matching import (
    MatchingResult,
    exact_matching,
    greedy_matching,
    hierarchical_matching,
    matching_to_permutation,
)
from repro.core.pit import apply_pit, pad_operands
from repro.core.staircase import BlockStructure
from repro.tcu.sparsity24 import is_24_sparse, sparsity_ratio
from repro.util.arrays import ceil_div
from repro.util.validation import require, require_array, require_in

__all__ = [
    "BLOSSOM_COLUMN_LIMIT",
    "ConversionResult",
    "convert_to_24",
    "padded_depth",
    "select_matching",
]

#: Above this column count ``method="auto"`` prefers the quadratic greedy
#: fallback over Blossom, whose worst case is cubic in the column count.
BLOSSOM_COLUMN_LIMIT = 256


@dataclass(frozen=True)
class ConversionResult:
    """Outcome of Structured Sparsity Conversion.

    Attributes
    ----------
    a_converted:
        ``(m', n_total)`` kernel matrix satisfying the 2:4 constraint.
    permutation:
        Length-``n_total`` index array over the zero-padded column space;
        entries ``< n_original`` are original columns of ``A'``.
    n_original:
        Column count of the un-padded ``A'`` (the logical reduction depth).
    n_total:
        Padded column count (multiple of 4).
    matching:
        The column pairing that produced the permutation.
    method:
        Matching method actually used (``"hierarchical"`` or ``"blossom"``).
    """

    a_converted: np.ndarray
    permutation: np.ndarray
    n_original: int
    n_total: int
    matching: MatchingResult
    method: str

    @property
    def n_pad(self) -> int:
        """Zero columns inserted (including the round-up to a multiple of 4)."""
        return self.n_total - self.n_original

    @cached_property
    def scatter_rows(self) -> np.ndarray:
        """Destination row (in the permuted space) of each original B' row.

        ``b_converted[scatter_rows[i]] = b_prime[i]`` reproduces
        :meth:`apply_to_b` without materialising the padded matrix first —
        this is what the generated kernel's lookup table encodes.  Computed
        once per conversion and returned read-only.
        """
        slots = np.flatnonzero(self.permutation < self.n_original)
        positions = np.empty(self.n_original, dtype=np.int64)
        positions[self.permutation[slots]] = slots
        positions.flags.writeable = False
        return positions

    def apply_to_b(self, b_prime: np.ndarray) -> np.ndarray:
        """Pad and permute an input matrix ``B'`` to match ``a_converted``."""
        b_prime = require_array(b_prime, "b_prime", ndim=2)
        require(b_prime.shape[0] == self.n_original,
                f"B' has {b_prime.shape[0]} rows, expected {self.n_original}")
        b_converted = np.zeros((self.n_total, b_prime.shape[1]),
                               dtype=b_prime.dtype)
        b_converted[self.scatter_rows] = b_prime
        return b_converted

    def sparsity(self) -> float:
        """Zero fraction of the converted kernel matrix."""
        return sparsity_ratio(self.a_converted)


def _validate(a_prime: np.ndarray, matching: MatchingResult) -> bool:
    """Definition 3 checks: coverage and conflict-freedom."""
    return matching.is_cover() and matching.is_conflict_free(a_prime)


def select_matching(
    a_prime: np.ndarray,
    structure: Optional[BlockStructure],
    method: str,
) -> Tuple[str, Optional[MatchingResult]]:
    """Pick the matching solver :func:`convert_to_24` runs for ``method``.

    Returns ``(solver, matching)``: ``solver`` is ``"hierarchical"``,
    ``"greedy"`` or ``"blossom"``; ``matching`` is the already-validated
    hierarchical matching when that is the pick, else ``None``.  ``"auto"``
    takes the hierarchical matching when a structure is given and the
    matching is valid for ``a_prime``, then Blossom up to
    :data:`BLOSSOM_COLUMN_LIMIT` columns and greedy beyond.  Raises
    :class:`~repro.util.validation.ValidationError` for
    ``"hierarchical"`` without a structure or on a matrix that is not
    k-staircase.
    """
    require_in(method, ("auto", "hierarchical", "greedy", "blossom"), "method")
    if method in ("auto", "hierarchical"):
        if structure is None:
            require(method == "auto",
                    "hierarchical conversion requires a block structure")
        else:
            require(structure.n_columns == a_prime.shape[1],
                    f"structure covers {structure.n_columns} columns but A' has "
                    f"{a_prime.shape[1]}")
            candidate = hierarchical_matching(structure)
            if _validate(a_prime, candidate):
                return "hierarchical", candidate
            require(method == "auto",
                    "hierarchical matching produced conflicting pairs for "
                    "this matrix (it is not k-staircase); use method='auto', "
                    "'greedy' or 'blossom'")
    if method == "blossom" or (method == "auto" and
                               a_prime.shape[1] <= BLOSSOM_COLUMN_LIMIT):
        return "blossom", None
    return "greedy", None


def _match(
    a_prime: np.ndarray,
    structure: Optional[BlockStructure],
    method: str,
) -> Tuple[str, MatchingResult]:
    """Run the solver :func:`select_matching` picks: ``(solver, matching)``."""
    used, matching = select_matching(a_prime, structure, method)
    if matching is None:
        solver = greedy_matching if used == "greedy" else exact_matching
        matching = solver(a_prime)
    return used, matching


def padded_depth(
    a_prime: np.ndarray,
    *,
    structure: Optional[BlockStructure] = None,
    method: str = "auto",
) -> int:
    """The ``n_total`` :func:`convert_to_24` would produce, without converting.

    Follows :func:`select_matching` and counts the zero columns of its
    solver's matching.
    """
    a_prime = require_array(a_prime, "a_prime", ndim=2)
    _, matching = _match(a_prime, structure, method)
    return 4 * ceil_div(a_prime.shape[1] + matching.n_pad, 4)


def convert_to_24(
    a_prime: np.ndarray,
    *,
    structure: Optional[BlockStructure] = None,
    method: str = "auto",
) -> ConversionResult:
    """Convert a morphed kernel matrix to 2:4 structured sparsity.

    Parameters
    ----------
    a_prime:
        The ``(m', k')`` staircase kernel matrix from layout morphing.
    structure:
        Block structure of ``a_prime`` (from
        :func:`repro.core.staircase.block_structure_from_morph`).  Required for
        the hierarchical method; optional otherwise.
    method:
        ``"hierarchical"`` — Algorithm 1, requires ``structure`` and raises if
        the produced matching is invalid for this matrix;
        ``"greedy"`` — first-fit pairing on the conflict graph (fast, near
        optimal on banded conflict structures);
        ``"blossom"`` — general maximum matching on the conflict-graph
        complement (optimal padding, cubic worst case);
        ``"auto"`` — hierarchical when a structure is supplied and valid;
        otherwise Blossom for small matrices and greedy for large ones (the
        §3.2 fallback behaviour, bounded so compilation stays fast).
    """
    a_prime = require_array(a_prime, "a_prime", ndim=2)
    used, matching = _match(a_prime, structure, method)
    require(_validate(a_prime, matching),
            f"{used} matching failed to produce a valid cover")

    permutation, n_total = matching_to_permutation(matching)
    a_padded, _ = pad_operands(a_prime, None, n_total)
    a_converted, _ = apply_pit(a_padded, None, permutation)

    require(is_24_sparse(a_converted),
            "conversion produced a matrix that violates 2:4 sparsity — "
            "this indicates an invalid matching")

    return ConversionResult(
        a_converted=a_converted,
        permutation=permutation,
        n_original=a_prime.shape[1],
        n_total=n_total,
        matching=matching,
        method=used,
    )
