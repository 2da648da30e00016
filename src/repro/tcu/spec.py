"""Hardware specification of the simulated GPU.

The numbers below describe an A100-class device (the paper's platform): 108
SMs with 4 sparse-capable Tensor Cores each, HBM2e global memory, and the
fragment shapes exposed by ``mma``/``mma.sp``.  They parameterise both the
functional MMA models and the analytical roofline used by the layout search
and the benchmark harness.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Tuple

import numpy as np

from repro.util.validation import require, require_positive_int

__all__ = [
    "DataType",
    "FragmentShape",
    "GPUSpec",
    "MultiDeviceSpec",
    "A100_SPEC",
    "SPARSE_FRAGMENTS",
    "DENSE_FRAGMENTS",
    "multi_a100",
    "device_key",
]


class DataType(str, enum.Enum):
    """Element types supported by the simulated Tensor Cores."""

    FP16 = "fp16"
    BF16 = "bf16"
    TF32 = "tf32"
    FP64 = "fp64"

    @property
    def itemsize(self) -> int:
        """Bytes per element as stored in (simulated) device memory."""
        return {"fp16": 2, "bf16": 2, "tf32": 4, "fp64": 8}[self.value]

    @property
    def supports_sparse_tcu(self) -> bool:
        """Whether sparse Tensor Cores accept this type (A100: no FP64)."""
        return self in (DataType.FP16, DataType.BF16, DataType.TF32)

    @property
    def numpy_dtype(self) -> np.dtype:
        """Host dtype used to emulate the device arithmetic."""
        return np.dtype(
            {"fp16": np.float16, "bf16": np.float32, "tf32": np.float32,
             "fp64": np.float64}[self.value]
        )


@dataclass(frozen=True)
class FragmentShape:
    """An MMA fragment ``M x K x N`` (the D = A(MxK) @ B(KxN) tile shape).

    ``K`` is the *logical* (dense-equivalent) reduction depth; for sparse
    fragments the hardware stores only ``K/2`` values of A plus metadata.
    """

    m: int
    k: int
    n: int
    sparse: bool = False

    def __post_init__(self) -> None:
        require_positive_int(self.m, "m")
        require_positive_int(self.k, "k")
        require_positive_int(self.n, "n")
        if self.sparse:
            require(self.k % 4 == 0, "sparse fragments need K divisible by 4")

    @property
    def macs(self) -> int:
        """Dense-equivalent multiply–accumulates per fragment operation."""
        return self.m * self.k * self.n

    @property
    def label(self) -> str:
        prefix = "sp" if self.sparse else "dn"
        return f"{prefix}:{self.m}x{self.k}x{self.n}"

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.m, self.k, self.n)


#: Sparse fragment shapes mentioned in the paper (Section 2.1): the hardware
#: partitions matrices into fixed fragments such as 16x16x8 and 16x32x8.
SPARSE_FRAGMENTS: Tuple[FragmentShape, ...] = (
    FragmentShape(16, 16, 8, sparse=True),
    FragmentShape(16, 32, 8, sparse=True),
)

#: Dense fragment shapes used by the dense-TCU baselines (wmma 16x16x16 and
#: the mma m16n8k8 / m16n8k16 shapes).
DENSE_FRAGMENTS: Tuple[FragmentShape, ...] = (
    FragmentShape(16, 16, 16, sparse=False),
    FragmentShape(16, 8, 8, sparse=False),
    FragmentShape(16, 16, 8, sparse=False),
)


@dataclass(frozen=True)
class GPUSpec:
    """Parameters of the simulated device (defaults model an A100-SXM4-40GB).

    Attributes
    ----------
    name: marketing name of the modelled device.
    sm_count: number of streaming multiprocessors.
    tensor_cores_per_sm: (sparse-capable) Tensor Cores per SM.
    clock_ghz: sustained SM clock in GHz.
    global_bandwidth_gbs: HBM bandwidth in GB/s.
    shared_bandwidth_gbs: aggregate shared-memory bandwidth in GB/s.
    l2_bandwidth_gbs: aggregate L2 bandwidth in GB/s.
    shared_mem_per_sm_kb: shared memory capacity per SM (kB).
    max_threads_per_sm: occupancy limit.
    cpi_tcu: cycles per dense Tensor-Core fragment op (CPI_tcu in Eq. 7).
    sparse_speedup: throughput multiplier of sparse over dense fragments (2x).
    ffma_tflops: scalar FFMA throughput (used for the naive CUDA baseline).
    tcu_tflops: dense Tensor-Core throughput per data type (TFLOP/s).
    """

    name: str = "A100-SXM4-40GB (simulated)"
    sm_count: int = 108
    tensor_cores_per_sm: int = 4
    clock_ghz: float = 1.41
    global_bandwidth_gbs: float = 1555.0
    shared_bandwidth_gbs: float = 19_400.0
    l2_bandwidth_gbs: float = 4_800.0
    shared_mem_per_sm_kb: int = 164
    max_threads_per_sm: int = 2048
    cpi_tcu: float = 4.0
    sparse_speedup: float = 2.0
    ffma_tflops: float = 19.5
    tcu_tflops: Dict[str, float] = field(
        default_factory=lambda: {
            "fp16": 312.0,
            "bf16": 312.0,
            "tf32": 156.0,
            "fp64": 19.5,
        }
    )

    @property
    def n_tcu(self) -> int:
        """Total Tensor Cores on the device (N_tcu of Eq. 7)."""
        return self.sm_count * self.tensor_cores_per_sm

    @property
    def clock_hz(self) -> float:
        return self.clock_ghz * 1e9

    def dense_tcu_tflops(self, dtype: DataType) -> float:
        """Dense Tensor-Core peak throughput for ``dtype`` in TFLOP/s."""
        return self.tcu_tflops[DataType(dtype).value]

    def sparse_tcu_tflops(self, dtype: DataType) -> float:
        """Sparse Tensor-Core peak throughput for ``dtype`` in TFLOP/s.

        FP64 has no sparse Tensor-Core path on this architecture; requesting
        it raises so callers fall back to the dense model explicitly.
        """
        dtype = DataType(dtype)
        require(dtype.supports_sparse_tcu,
                f"{dtype.value} is not supported by sparse Tensor Cores")
        return self.dense_tcu_tflops(dtype) * self.sparse_speedup

    def with_overrides(self, **kwargs) -> "GPUSpec":
        """Return a copy with selected fields replaced (for what-if studies)."""
        return replace(self, **kwargs)


#: Default device used across benchmarks and examples.
A100_SPEC = GPUSpec()


def device_key(device: GPUSpec) -> Tuple[Any, ...]:
    """Hashable content of a device spec, for memo keys (shard layouts, the
    compile fingerprint's canonical spec) — far cheaper than
    ``dataclasses.asdict``.

    The dataclass ``repr`` spells every field, floats in Python's exact
    round-trip form, so two specs share a key only when each field has the
    same type and bits (``0.0`` / ``-0.0`` and ``1`` / ``1.0`` differ).
    Equal dicts built in another insertion order get distinct keys, which
    costs a memo miss, never a wrong hit.
    """
    return type(device), repr(device)


@dataclass(frozen=True)
class MultiDeviceSpec:
    """A cluster of identical simulated devices joined by an interconnect.

    The sharded execution engine compiles per-shard kernels against the
    per-device :class:`GPUSpec` and models the cross-device halo exchange with
    the interconnect numbers below (defaults describe NVLink3 between
    A100-SXM4 boards: 600 GB/s per direction per GPU, microsecond-scale
    launch/transfer latency).

    Attributes
    ----------
    device: specification of each individual device.
    device_count: number of devices available to the executor.
    interconnect_bandwidth_gbs: per-device halo-exchange bandwidth in GB/s.
    link_latency_seconds: fixed cost per halo message (latency + sync).
    """

    device: GPUSpec = field(default_factory=GPUSpec)
    device_count: int = 1
    interconnect_bandwidth_gbs: float = 600.0
    link_latency_seconds: float = 2e-6

    def __post_init__(self) -> None:
        require_positive_int(self.device_count, "device_count")
        require(self.interconnect_bandwidth_gbs > 0.0,
                "interconnect_bandwidth_gbs must be positive")
        require(self.link_latency_seconds >= 0.0,
                "link_latency_seconds must be non-negative")

    @property
    def name(self) -> str:
        return f"{self.device_count}x {self.device.name}"

    @property
    def total_tcu_count(self) -> int:
        """Tensor Cores across the whole cluster."""
        return self.device_count * self.device.n_tcu

    def exchange_seconds(self, bytes_per_device: float, messages: int = 1) -> float:
        """Modelled time for one device to receive ``bytes_per_device`` of halo
        data split over ``messages`` point-to-point transfers."""
        require(bytes_per_device >= 0.0, "bytes_per_device must be non-negative")
        return (self.link_latency_seconds * max(0, messages)
                + bytes_per_device / (self.interconnect_bandwidth_gbs * 1e9))

    def with_overrides(self, **kwargs) -> "MultiDeviceSpec":
        return replace(self, **kwargs)


def multi_a100(device_count: int, **overrides) -> MultiDeviceSpec:
    """Convenience constructor: ``device_count`` simulated A100s on NVLink."""
    return MultiDeviceSpec(device=A100_SPEC, device_count=device_count,
                           **overrides)
