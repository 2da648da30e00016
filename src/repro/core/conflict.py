"""Column conflict graphs (§3.2, Definitions 1–3).

Two columns of the morphed kernel matrix *conflict* when some row holds a
nonzero in both — pairing them inside one 2-element group would then break
the 1:2 sub-pattern the 2:4 constraint decomposes into.  The conflict graph
is kept as a boolean adjacency matrix.  For self-similar staircase matrices
the hierarchical matching never builds it: the block structure alone fixes a
conflict-free pairing (Theorem 1), which the conversion stage checks against
this adjacency.
"""

from __future__ import annotations

import numpy as np

from repro.util.validation import require_array

__all__ = ["conflict_matrix"]


def conflict_matrix(matrix: np.ndarray) -> np.ndarray:
    """Boolean ``(n, n)`` adjacency: columns i and j share a nonzero row.

    Vectorised as ``M.T @ M`` on the boolean nonzero mask; the diagonal is
    cleared (a column never conflicts with itself for matching purposes).
    """
    matrix = require_array(matrix, "matrix", ndim=2)
    mask = (np.asarray(matrix) != 0)
    # float32 keeps the co-occurrence count in BLAS (integer matmul falls back
    # to a slow inner loop); exact because counts stay far below 2^24.
    counts = mask.T.astype(np.float32) @ mask.astype(np.float32)
    adjacency = counts > 0.5
    np.fill_diagonal(adjacency, False)
    return adjacency
