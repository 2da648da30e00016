"""Throughput metrics and method comparison (the Figure 6 / Figure 10 core).

``GStencil/s`` follows Eq. 12 of the paper: stencil points updated per second
in billions.  ``compute density`` is useful FLOPs per byte of device memory
traffic, the quantity the bottom half of Figure 10 reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.baselines.base import Baseline, BaselineResult
from repro.stencils.grid import Grid
from repro.stencils.pattern import StencilPattern
from repro.stencils.reference import stencil_points_updated
from repro.tcu.spec import A100_SPEC, DataType, GPUSpec
from repro.util.validation import require, require_positive_int

__all__ = [
    "gstencil_per_second",
    "gflops_per_second",
    "compute_density",
    "speedup",
    "geometric_mean",
    "MethodComparison",
    "compare_methods",
]


def gstencil_per_second(pattern: StencilPattern, grid_shape, iterations: int,
                        elapsed_seconds: float) -> float:
    """Eq. 12: ``T * prod(N_i) / (t * 1e9)``."""
    require(elapsed_seconds > 0.0, "elapsed_seconds must be positive")
    points = stencil_points_updated(pattern, grid_shape, iterations)
    return points / elapsed_seconds / 1e9


def gflops_per_second(pattern: StencilPattern, grid_shape, iterations: int,
                      elapsed_seconds: float) -> float:
    """Useful floating-point throughput of the direct method (Table 3 metric)."""
    require(elapsed_seconds > 0.0, "elapsed_seconds must be positive")
    points = stencil_points_updated(pattern, grid_shape, iterations)
    return 2.0 * pattern.points * points / elapsed_seconds / 1e9


def compute_density(useful_flops: float, traffic_bytes: float) -> float:
    """Useful FLOPs per byte of device memory traffic (arithmetic intensity)."""
    require(useful_flops >= 0.0, "useful_flops must be non-negative")
    if traffic_bytes <= 0.0:
        return 0.0
    return useful_flops / traffic_bytes


def speedup(baseline_seconds: float, method_seconds: float) -> float:
    """``baseline / method`` — how much faster the method is."""
    require(baseline_seconds > 0.0 and method_seconds > 0.0,
            "times must be positive")
    return baseline_seconds / method_seconds


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's "average speedup" aggregation)."""
    array = np.asarray(list(values), dtype=np.float64)
    require(array.size > 0, "geometric_mean needs at least one value")
    require(bool(np.all(array > 0)), "geometric_mean requires positive values")
    return float(np.exp(np.mean(np.log(array))))


@dataclass
class MethodComparison:
    """Results of running several methods on the same workload.

    ``results`` keeps the per-method :class:`BaselineResult` (the historical
    shape every figure script consumes); ``solutions`` additionally keeps the
    session-layer :class:`repro.session.Solution` wrappers, whose provenance
    records which engine each method actually ran on.
    """

    pattern_name: str
    grid_shape: tuple
    iterations: int
    results: Dict[str, BaselineResult] = field(default_factory=dict)
    solutions: Dict[str, "object"] = field(default_factory=dict)

    def gstencil(self) -> Dict[str, float]:
        return {name: r.gstencil_per_second for name, r in self.results.items()}

    def gflops(self) -> Dict[str, float]:
        return {name: r.gflops_per_second for name, r in self.results.items()}

    def speedup_over(self, reference: str) -> Dict[str, float]:
        """Speedup of every method relative to ``reference``."""
        require(reference in self.results,
                f"{reference!r} not among {sorted(self.results)}")
        ref_time = self.results[reference].elapsed_seconds
        return {name: speedup(ref_time, r.elapsed_seconds)
                for name, r in self.results.items()}

    def fastest(self) -> str:
        return min(self.results, key=lambda n: self.results[n].elapsed_seconds)

    def max_error_vs(self, reference_output: np.ndarray) -> Dict[str, float]:
        """Maximum absolute deviation of each method from a reference field."""
        return {
            name: float(np.max(np.abs(r.output - reference_output)))
            for name, r in self.results.items()
        }


def compare_methods(
    pattern: StencilPattern,
    grid: Grid,
    iterations: int,
    methods: Sequence,
    *,
    dtype: DataType = DataType.FP16,
    spec: GPUSpec = A100_SPEC,
    temporal_fusion: Optional[Dict[str, int]] = None,
    session=None,
) -> MethodComparison:
    """Run every method on the identical workload and collect the results.

    Each entry of ``methods`` is a :class:`Baseline` instance or a registry
    key (``"cudnn"``); every method runs through the session layer
    (:meth:`repro.StencilSession.solve_baseline`) on the *same*
    :class:`repro.session.Problem`, so cross-method comparison uses exactly
    the routing and provenance machinery a production caller would.
    ``session`` defaults to a fresh :class:`repro.StencilSession`.

    ``temporal_fusion`` maps method names to fusion factors (the Figure-6
    protocol applies 3x fusion to SparStencil and ConvStencil on small
    kernels); methods not listed run unfused.
    """
    from repro.baselines.registry import get_baseline
    from repro.session import Problem, StencilSession

    require_positive_int(iterations, "iterations")
    if session is None:
        session = StencilSession()
    fusion_map = dict(temporal_fusion or {})
    comparison = MethodComparison(
        pattern_name=pattern.name,
        grid_shape=tuple(grid.shape),
        iterations=iterations,
    )
    for method in methods:
        baseline = get_baseline(method) if isinstance(method, str) else method
        fusion = int(fusion_map.get(baseline.name, 1))
        problem = Problem(
            pattern, grid, iterations,
            options={"dtype": dtype, "spec": spec, "temporal_fusion": fusion},
            tag=baseline.name)
        solution = session.solve_baseline(problem, baseline)
        comparison.results[baseline.name] = solution.result
        comparison.solutions[baseline.name] = solution
    return comparison
