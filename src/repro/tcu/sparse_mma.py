"""Functional model of 2:4 sparse Tensor-Core fragment MMA (``mma.sp``).

``sparse_mma`` takes a 2:4-sparse A operand, compresses it into the
values+metadata form the hardware consumes, and computes the product *from
the compressed representation only* — i.e. by gathering the two B rows each
metadata index points at — so a correct result genuinely certifies that the
metadata produced by the transformation pipeline is right, not merely that
the dense matrix was.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tcu.sparsity24 import Compressed24, compress_24
from repro.tcu.spec import DataType, FragmentShape
from repro.util.arrays import ceil_div, pad_to_multiple
from repro.util.validation import require, require_array

__all__ = ["SparseMMAResult", "sparse_mma", "sparse_mma_compressed"]


@dataclass(frozen=True)
class SparseMMAResult:
    """Result of a fragment-tiled sparse MMA.

    Attributes
    ----------
    d: the ``(m, n)`` product.
    fragment_ops: number of sparse fragment operations issued.
    compressed: the compressed A operand that was consumed.
    metadata_bytes: bytes of 2-bit metadata shipped with A.
    """

    d: np.ndarray
    fragment_ops: int
    compressed: Compressed24
    metadata_bytes: int


def sparse_mma_compressed(
    compressed: Compressed24,
    b: np.ndarray,
    fragment: FragmentShape,
    *,
    c: np.ndarray | None = None,
    dtype: DataType = DataType.FP16,
) -> SparseMMAResult:
    """Compute ``D = (A ⊙ M) @ B (+ C)`` from the compressed A operand.

    The computation gathers ``B[group_base + index]`` per retained value and
    reduces over the compressed K/2 dimension — the same dataflow the sparse
    Tensor Core implements in silicon — accumulating fp32 products in slot
    order.
    """
    b = require_array(b, "b", ndim=2)
    require(fragment.sparse, "sparse_mma requires a sparse fragment shape")
    dtype = DataType(dtype)
    require(dtype.supports_sparse_tcu,
            f"{dtype.value} is not supported by sparse Tensor Cores")

    k = compressed.k
    require(b.shape[0] >= k - 3 and b.shape[0] <= k,
            f"B has {b.shape[0]} rows but compressed A encodes k={k}")
    b_pad = pad_to_multiple(np.asarray(b, dtype=dtype.numpy_dtype), 4, axis=0)
    require(b_pad.shape[0] == k, "B padding does not line up with compressed K")

    m = compressed.m
    n = b_pad.shape[1]
    n_groups = k // 4

    values = np.asarray(compressed.values, dtype=dtype.numpy_dtype)
    indices = compressed.indices.astype(np.int64)
    # Column index in the (padded) dense K space that each retained value hits.
    group_base = np.repeat(np.arange(n_groups) * 4, 2)[None, :]     # (1, k/2)
    gather_cols = group_base + indices                              # (m, k/2)

    acc_dtype = np.float32
    # Gather the B rows each retained value multiplies: (m, k/2, n) would be
    # large for big problems, so reduce in chunks of rows to bound memory.
    # Products accumulate in fp32 from +0 in slot order: a defined order
    # (einsum regroups the sum when n == 1), and the one the tcu-sim
    # slot-table sweep reproduces bit for bit.
    d = np.zeros((m, n), dtype=acc_dtype)
    row_chunk = max(1, int(2**22 // max(1, (k // 2) * n)))
    for start in range(0, m, row_chunk):
        stop = min(m, start + row_chunk)
        gathered = b_pad[gather_cols[start:stop]].astype(acc_dtype)  # (r, k/2, n)
        vals = values[start:stop].astype(acc_dtype)                  # (r, k/2)
        acc = d[start:stop]
        for slot in range(k // 2):
            acc += vals[:, slot, None] * gathered[:, slot, :]

    if c is not None:
        c = require_array(c, "c", ndim=2)
        require(c.shape == (m, n), f"c must have shape {(m, n)}, got {c.shape}")
        d = d + np.asarray(c, dtype=acc_dtype)

    grid_m = ceil_div(m, fragment.m)
    grid_k = ceil_div(k, fragment.k)
    grid_n = ceil_div(n, fragment.n)
    fragment_ops = grid_m * grid_k * grid_n

    return SparseMMAResult(
        d=np.asarray(d, dtype=np.float64),
        fragment_ops=fragment_ops,
        compressed=compressed,
        metadata_bytes=compressed.metadata_bytes(),
    )


def sparse_mma(
    a: np.ndarray,
    b: np.ndarray,
    fragment: FragmentShape,
    *,
    c: np.ndarray | None = None,
    dtype: DataType = DataType.FP16,
) -> SparseMMAResult:
    """Compress a 2:4-sparse ``a`` and run :func:`sparse_mma_compressed`.

    Raises
    ------
    ValueError
        If ``a`` violates the 2:4 constraint (callers must run the Structured
        Sparsity Conversion first — exactly the contract of real hardware).
    """
    a = require_array(a, "a", ndim=2)
    b = require_array(b, "b", ndim=2)
    require(a.shape[1] == b.shape[0],
            f"inner dimensions differ: A is {a.shape}, B is {b.shape}")
    dtype = DataType(dtype)
    a_device = np.asarray(a, dtype=dtype.numpy_dtype)
    compressed = compress_24(a_device)
    return sparse_mma_compressed(compressed, b, fragment, c=c, dtype=dtype)
