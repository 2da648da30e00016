"""Ablation — Hierarchical Two-Level Matching vs greedy vs Blossom.

DESIGN.md calls out the matching algorithm as a design choice worth ablating:
Algorithm 1 is linear-time and provably optimal on k-staircase matrices,
while the Blossom fallback is general but cubic in the worst case.  The
Blossom column is :func:`repro.core.matching.exact_matching`, the Edmonds
search that ``method="blossom"`` runs.  This ablation measures, across
morphed kernel matrices of growing size,

* the number of zero columns each algorithm inserts (padding quality), and
* the host time each algorithm needs (compilation cost).

Regenerate with::

    pytest benchmarks/bench_ablation_matching.py --benchmark-only -s
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import save_results
from repro.core.matching import (
    exact_matching,
    greedy_matching,
    hierarchical_matching,
)
from repro.core.morphing import MorphConfig, morph_kernel_matrix
from repro.core.staircase import block_structure_from_morph
from repro.stencils.pattern import StencilPattern

#: (kernel radius, r1, r2) — k' grows from a few dozen to several hundred.
CASES = [(1, 4, 4), (1, 8, 8), (2, 8, 4), (3, 8, 4), (3, 16, 8)]

_ROWS: list = []


@pytest.mark.parametrize("radius,r1,r2", CASES,
                         ids=[f"k{2 * r + 1}-r{r1}x{r2}" for r, r1, r2 in CASES])
def test_ablation_matching(benchmark, radius, r1, r2):
    pattern = StencilPattern.box(2, radius)
    config = MorphConfig.from_r1_r2(2, r1, r2)
    a_prime = morph_kernel_matrix(pattern, config)
    structure = block_structure_from_morph(pattern, config)

    def run():
        timings = {}
        paddings = {}
        start = time.perf_counter()
        hier = hierarchical_matching(structure)
        timings["hierarchical"] = time.perf_counter() - start
        paddings["hierarchical"] = hier.n_pad
        assert hier.is_conflict_free(a_prime)

        start = time.perf_counter()
        greedy = greedy_matching(a_prime)
        timings["greedy"] = time.perf_counter() - start
        paddings["greedy"] = greedy.n_pad

        start = time.perf_counter()
        blossom = exact_matching(a_prime)
        timings["blossom"] = time.perf_counter() - start
        paddings["blossom"] = blossom.n_pad
        return timings, paddings

    timings, paddings = benchmark.pedantic(run, rounds=1, iterations=1)
    row = {"k": 2 * radius + 1, "r1": r1, "r2": r2,
           "k_prime": a_prime.shape[1], "timings": timings, "paddings": paddings}
    _ROWS.append(row)

    print(f"\nMatching ablation — k={row['k']}, r1={r1}, r2={r2} "
          f"(k'={row['k_prime']} columns)")
    for name in ("hierarchical", "greedy", "blossom"):
        print(f"  {name:>13}: pad {paddings[name]:>3} columns, "
              f"{timings[name] * 1e3:8.2f} ms")

    # Theorem 2: the hierarchical matching is optimal, so Blossom cannot pad
    # less; the hierarchical matching must also not be slower than Blossom.
    assert paddings["hierarchical"] <= paddings["blossom"]
    assert timings["hierarchical"] <= timings["blossom"] * 1.5


def test_ablation_matching_save(benchmark, results_dir):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if not _ROWS:
        pytest.skip("no ablation rows collected")
    save_results("ablation_matching", _ROWS)
