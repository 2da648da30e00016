"""Output checks and the plain numpy baseline.

Every output is compared with the float64 golden reference
(:func:`repro.run_stencil_iterations` / :func:`repro.run_program_reference`)
within its backend's tolerance; sharded outputs must also be bit-identical
to the single-device solve of the same problem.  References are computed
once per (kind, grid variant), outside every timed interval.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Tuple

import numpy as np

from perfbench import workloads as wl

#: Absolute tolerance against the float64 reference: the ``numpy`` backend
#: computes in float64; ``tcu-sim`` rounds operands to fp16 (the golden
#: suite's device tolerance).
TOLERANCE = {"numpy": 1e-12, "tcu-sim": 2e-2}

#: Wall budget of the numpy baseline in seconds.
BASELINE_SECONDS = 1.5


class Verifier:
    """Checks outputs against cached references for one workload."""

    def __init__(self, workload: wl.Workload, pool: wl.GridPool) -> None:
        self.workload = workload
        self.pool = pool
        self._reference: Dict[Tuple[str, int], np.ndarray] = {}
        self._single: Dict[Tuple[str, int], np.ndarray] = {}
        self._session: Optional[Any] = None
        self.setup_errors = 0

    def reference(self, kind: wl.Kind, variant: int) -> np.ndarray:
        key = (kind.name, variant)
        if key not in self._reference:
            from repro import run_program_reference, run_stencil_iterations

            grid = self.pool.get(kind, variant)
            if kind.is_program:
                ref = run_program_reference(kind.program(), grid,
                                            kind.iterations)
            else:
                ref = run_stencil_iterations(kind.pattern(), grid,
                                             kind.iterations)
            self._reference[key] = np.asarray(ref, dtype=np.float64)
        return self._reference[key]

    def single_device(self, kind: wl.Kind, variant: int) -> np.ndarray:
        """Output of the single-device solve of the same problem, on a
        private session the measured one never sees."""
        key = (kind.name, variant)
        if key not in self._single:
            from repro import StencilSession

            if self._session is None:
                self._session = StencilSession(devices=1)
            problem = wl.make_problem(kind, self.pool.get(kind, variant))
            self._single[key] = np.array(
                self._session.solve(problem, mode="single").output)
        return self._single[key]

    def check(self, kind: wl.Kind, variant: int,
              output: Any) -> Tuple[bool, str]:
        """``(ok, reason)`` for one output."""
        reference = self.reference(kind, variant)
        output = np.asarray(output)
        if output.shape != reference.shape:
            return False, "shape"
        if not np.all(np.isfinite(output)):
            return False, "non_finite"
        error = float(np.max(np.abs(output - reference)))
        if error > TOLERANCE[kind.backend]:
            return False, "tolerance"
        if self.workload.mode == "sharded" and not np.array_equal(
                output, self.single_device(kind, variant)):
            return False, "sharded_not_bit_identical"
        return True, ""

    def require(self, kind: wl.Kind, variant: int, output: Any) -> None:
        """Check a set-up output; a failure marks the run incorrect."""
        ok, _ = self.check(kind, variant, output)
        if not ok:
            self.setup_errors += 1


# --------------------------------------------------------------------- #
# plain single-threaded numpy baseline
# --------------------------------------------------------------------- #
def plain_sweeps(pattern: Any, data: np.ndarray, sweeps: int,
                 boundary: str) -> np.ndarray:
    """``sweeps`` Jacobi sweeps of ``pattern`` written as one shifted-slice
    multiply-add per tap in float64 — what a user would hand-write."""
    from repro import apply_boundary

    current = np.array(data, dtype=np.float64)
    radius = pattern.radius
    shape = current.shape
    interior = tuple(slice(radius, s - radius) for s in shape)
    taps = [(tuple(slice(radius + o, s - radius + o)
                   for o, s in zip(offset, shape)), weight)
            for offset, weight in zip(pattern.offsets, pattern.weights)]
    apply_boundary(current, radius, boundary)
    for _ in range(sweeps):
        acc = np.zeros(tuple(s - 2 * radius for s in shape))
        for window, weight in taps:
            acc += weight * current[window]
        current[interior] = acc
        apply_boundary(current, radius, boundary)
    return current


def _baseline_run(kind: wl.Kind, grid: Any) -> Tuple[np.ndarray, float]:
    """``(output, stencil points)`` of the baseline on one problem."""
    if kind.is_program:
        current = grid.data
        sweeps = 0
        for _ in range(kind.iterations):
            for stage in kind.program().stages:
                (_, pattern), = stage.taps
                current = plain_sweeps(pattern, current, 1, grid.boundary)
                sweeps += 1
        interior = np.prod([s - 2 * pattern.radius for s in grid.shape])
        return current, float(interior * sweeps)
    pattern = kind.pattern()
    output = plain_sweeps(pattern, grid.data, kind.iterations, grid.boundary)
    interior = np.prod([s - 2 * pattern.radius for s in grid.shape])
    return output, float(interior * kind.iterations)


def numpy_baseline(workload: wl.Workload, pool: wl.GridPool,
                   verifier: Verifier, seed: int) -> float:
    """Mstencil/s of the plain baseline over the workload's own stream.

    Runs the seeded stream's problems for :data:`BASELINE_SECONDS`; each
    baseline output is checked against the reference like the program's.
    """
    points = elapsed = 0.0
    draws = wl.draws(workload, seed)
    while elapsed < BASELINE_SECONDS:
        kind, variant = next(draws)
        grid = pool.get(kind, variant)
        start = time.perf_counter()
        output, work = _baseline_run(kind, grid)
        elapsed += time.perf_counter() - start
        points += work
        reference = verifier.reference(kind, variant)
        if float(np.max(np.abs(output - reference))) > TOLERANCE["numpy"]:
            raise RuntimeError(
                f"numpy baseline disagrees with the reference on "
                f"{kind.name}")
    return points / elapsed / 1e6
