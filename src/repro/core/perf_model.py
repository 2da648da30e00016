"""Analytical performance model (§3.3, Eq. 6–10 and Table 1).

The model evaluates one candidate layout ``(r1, r2)`` without executing
anything: it derives the morphed operand shapes, learns the padded
reduction depth from the *number* of zero columns the structured-sparsity
conversion would insert (:func:`repro.core.conversion.padded_depth` — it
never builds the converted matrix, and counts with an exact
maximum-cardinality matching where the conversion would run Blossom), and
converts fragment counts plus memory volumes into the roofline time
``T = max(T_compute, T_memory)``.

The same estimate later feeds the simulated end-to-end timing, so the layout
the search picks is optimal *for the simulator by construction* — the role
the model plays for the real GPU in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.core.conversion import padded_depth
from repro.core.morphing import MorphConfig, morph_kernel_matrix, morphed_shapes
from repro.core.staircase import block_structure_from_morph
from repro.stencils.pattern import StencilPattern
from repro.tcu.memory import MemoryTraffic, memory_time
from repro.tcu.spec import A100_SPEC, DataType, FragmentShape, GPUSpec, SPARSE_FRAGMENTS
from repro.tcu.timing import compute_time, mma_count
from repro.util.validation import require, require_in

__all__ = ["PerfEstimate", "estimate_layout"]


@dataclass(frozen=True)
class PerfEstimate:
    """Model outputs for one candidate layout.

    All times are seconds for a single stencil sweep over the full grid.
    """

    config: MorphConfig
    fragment: FragmentShape
    dtype: DataType
    engine: str
    m_prime: int
    k_prime: int
    k_padded: int
    n_prime: int
    n_mma: int
    t_compute: float
    t_memory: float
    traffic: MemoryTraffic
    sparsity: float
    compute_density: float

    @property
    def t_total(self) -> float:
        """Eq. 6: the roofline maximum of compute and memory time."""
        return max(self.t_compute, self.t_memory)

    @property
    def bound(self) -> str:
        return "compute" if self.t_compute >= self.t_memory else "memory"

    @property
    def r1(self) -> int:
        return self.config.r1

    @property
    def r2(self) -> int:
        return self.config.r2


def estimate_layout(
    pattern: StencilPattern,
    grid_shape: Tuple[int, ...],
    config: MorphConfig,
    *,
    fragment: FragmentShape = SPARSE_FRAGMENTS[0],
    dtype: DataType = DataType.FP16,
    spec: GPUSpec = A100_SPEC,
    engine: str = "sparse_mma",
    conversion_method: str = "auto",
) -> PerfEstimate:
    """Evaluate the analytical model for one layout candidate.

    Parameters
    ----------
    engine:
        ``"sparse_mma"`` — the reduction depth is padded as the 2:4
        conversion would pad it and the sparse Tensor-Core rate is used
        (requires a sparse-capable dtype);
        ``"dense_mma"`` — the morphed operands run on dense Tensor Cores
        (the ConvStencil-style execution and the FP64 path of Table 3).
    """
    require_in(engine, ("sparse_mma", "dense_mma"), "engine")
    dtype = DataType(dtype)
    if engine == "sparse_mma":
        require(dtype.supports_sparse_tcu,
                f"{dtype.value} is not supported by sparse Tensor Cores; "
                "use engine='dense_mma'")
        require(fragment.sparse, "sparse_mma estimation needs a sparse fragment")
    else:
        require(not fragment.sparse, "dense_mma estimation needs a dense fragment")

    m_prime, k_prime, n_prime = morphed_shapes(pattern, grid_shape, config)

    a_prime = morph_kernel_matrix(pattern, config)
    if engine == "sparse_mma":
        structure = block_structure_from_morph(pattern, config)
        k_padded = padded_depth(a_prime, structure=structure,
                                method=conversion_method)
    else:
        k_padded = k_prime
    # zero fraction of the kernel operand: the 2:4 conversion only inserts
    # zero columns and permutes, so its nonzeros are exactly those of A'
    sparsity = 1.0 - (np.count_nonzero(a_prime) / (m_prime * k_padded))

    n_mma = mma_count(m_prime, k_padded, n_prime, fragment)
    t_compute = compute_time(n_mma, spec, fragment, dtype=dtype)

    itemsize = dtype.itemsize
    outputs = int(np.prod([s - pattern.diameter + 1 for s in grid_shape]))
    # Eq. 8 inputs: the original grid is read once and the outputs written once
    # per sweep; shared-memory staging follows Eq. 10 with the padded depth.
    data_r = float(np.prod(grid_shape)) * itemsize
    data_w = float(outputs) * itemsize
    data_trans = float(k_padded) * (m_prime / 2.0 + n_prime) * itemsize
    # Lookup tables, the (tiny) kernel operand and its 2-bit metadata are
    # copied to the device once per compilation and stay resident in L1/L2,
    # so they are not charged per sweep; their one-time cost shows up in the
    # Figure-8 overhead analysis instead.
    traffic = MemoryTraffic(
        global_read_bytes=data_r,
        global_write_bytes=data_w,
        shared_read_bytes=data_trans,
        shared_write_bytes=data_trans,
    )
    t_memory = memory_time(traffic, spec)

    useful_flops = 2.0 * pattern.points * outputs
    issued_flops = 2.0 * n_mma * fragment.macs
    compute_density = useful_flops / issued_flops if issued_flops else 0.0

    return PerfEstimate(
        config=config,
        fragment=fragment,
        dtype=dtype,
        engine=engine,
        m_prime=m_prime,
        k_prime=k_prime,
        k_padded=k_padded,
        n_prime=n_prime,
        n_mma=n_mma,
        t_compute=t_compute,
        t_memory=t_memory,
        traffic=traffic,
        sparsity=float(sparsity),
        compute_density=float(compute_density),
    )
