"""Solve the 2D heat equation with SparStencil and compare against baselines.

This mirrors the kind of workload the paper's introduction motivates: a long
explicit time integration whose stencil sweep dominates the runtime.  The
script integrates a hot square cooling down, checks physical sanity (maximum
principle, smooth decay), and reports the modelled speedup of SparStencil
over the cuDNN-style and naive-CUDA baselines.

Run with::

    python examples/heat_equation_2d.py
"""

from __future__ import annotations

import numpy as np

from repro import StencilPattern, StencilSession, compile_stencil
from repro.baselines import CudnnBaseline, NaiveCudaBaseline
from repro.stencils.grid import Grid

GRID_SIZE = 160
ALPHA = 0.2          # diffusion number (stable for explicit updates: < 0.25)
ITERATIONS = 24


def build_initial_condition() -> Grid:
    """A hot square patch in the middle of a cold plate."""
    data = np.zeros((GRID_SIZE, GRID_SIZE))
    lo, hi = GRID_SIZE // 3, 2 * GRID_SIZE // 3
    data[lo:hi, lo:hi] = 100.0
    return Grid(data=data, dtype=np.float16)


def main() -> None:
    heat = StencilPattern.star(
        2, 1, weights=[1.0 - 4.0 * ALPHA, ALPHA, ALPHA, ALPHA, ALPHA],
        name="heat-2d")
    grid = build_initial_condition()
    initial_max = grid.data.max()
    initial_mean = grid.data.mean()

    compiled = compile_stencil(heat, grid.shape, temporal_fusion=3)
    print("SparStencil plan:", compiled.plan.summary())

    with StencilSession() as session:
        result = session.run(compiled, grid, ITERATIONS).result
    final = result.output

    # --- physics sanity checks -------------------------------------------
    # Maximum principle: diffusion never exceeds the initial extremes.
    assert final.max() <= initial_max + 1e-2
    assert final.min() >= -1e-2
    # Heat spreads: the patch boundary cools down and the cold surroundings
    # just outside the patch warm up (the patch centre is too far from the
    # edge to change in only a couple dozen steps).
    lo = GRID_SIZE // 3
    boundary_of_patch = final[lo, GRID_SIZE // 2]
    outside_patch = final[lo - 4, GRID_SIZE // 2]
    assert boundary_of_patch < initial_max - 1.0
    assert outside_patch > 0.1
    print(f"\nPeak temperature after {ITERATIONS} steps: "
          f"{final.max():7.2f} (initial {initial_max:.1f})")
    print(f"Patch boundary cooled to {boundary_of_patch:6.2f}; "
          f"4 cells outside warmed to {outside_patch:6.2f}")
    print(f"Interior mean (should stay ~constant):     "
          f"{final[1:-1, 1:-1].mean():7.3f} vs initial {initial_mean:7.3f}")

    # --- performance comparison ------------------------------------------
    print(f"\nSparStencil modelled time: {result.elapsed_seconds * 1e6:9.1f} us "
          f"({result.gstencil_per_second:7.1f} GStencil/s)")
    for baseline in (CudnnBaseline(), NaiveCudaBaseline()):
        b = baseline.run(heat, grid, ITERATIONS)
        speedup = b.elapsed_seconds / result.elapsed_seconds
        print(f"{baseline.name:12s} modelled time: {b.elapsed_seconds * 1e6:9.1f} us "
              f"({b.gstencil_per_second:7.1f} GStencil/s)  ->  "
              f"SparStencil is {speedup:4.1f}x faster")


if __name__ == "__main__":
    main()
