"""Ablation — Hierarchical Two-Level Matching vs greedy vs Blossom vs exact.

DESIGN.md calls out the matching algorithm as a design choice worth ablating:
Algorithm 1 is linear-time and provably optimal on k-staircase matrices,
while the Blossom fallback is general but cubic in the worst case.  The
exact cardinality matcher is what the layout search counts zero columns
with; it must pad exactly as Blossom does.  This ablation measures, across
morphed kernel matrices of growing size,

* the number of zero columns each algorithm inserts (padding quality), and
* the host time each algorithm needs (compilation cost),

and checks exact against Blossom on every default layout candidate of the
Table-2 kernels that ``method="auto"`` would hand to Blossom.

Regenerate with::

    pytest benchmarks/bench_ablation_matching.py --benchmark-only -s
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import save_results
from repro.core.conversion import BLOSSOM_COLUMN_LIMIT
from repro.core.layout_search import default_search_space
from repro.core.matching import (
    blossom_matching,
    exact_matching,
    greedy_matching,
    hierarchical_matching,
)
from repro.core.morphing import MorphConfig, morph_kernel_matrix
from repro.core.staircase import block_structure_from_morph
from repro.stencils.catalog import table2_benchmarks
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
        blossom = blossom_matching(a_prime)
        timings["blossom"] = time.perf_counter() - start
        paddings["blossom"] = blossom.n_pad

        start = time.perf_counter()
        exact = exact_matching(a_prime)
        timings["exact"] = time.perf_counter() - start
        paddings["exact"] = exact.n_pad
        return timings, paddings

    timings, paddings = benchmark.pedantic(run, rounds=1, iterations=1)
    row = {"k": 2 * radius + 1, "r1": r1, "r2": r2,
           "k_prime": a_prime.shape[1], "timings": timings, "paddings": paddings}
    _ROWS.append(row)

    print(f"\nMatching ablation — k={row['k']}, r1={r1}, r2={r2} "
          f"(k'={row['k_prime']} columns)")
    for name in ("hierarchical", "greedy", "blossom", "exact"):
        print(f"  {name:>13}: pad {paddings[name]:>3} columns, "
              f"{timings[name] * 1e3:8.2f} ms")

    # Theorem 2: the hierarchical matching is optimal, so Blossom cannot pad
    # less; the hierarchical matching must also not be slower than Blossom.
    assert paddings["hierarchical"] <= paddings["blossom"]
    assert timings["hierarchical"] <= timings["blossom"] * 1.5
    # both are maximum matchings of the same graph
    assert paddings["exact"] == paddings["blossom"]


@pytest.mark.parametrize("config", table2_benchmarks(),
                         ids=[c.name for c in table2_benchmarks()])
def test_exact_pads_as_blossom_on_table2(benchmark, config):
    pattern = config.pattern

    def run():
        mismatches = []
        exact_s = blossom_s = 0.0
        for r1, r2 in default_search_space(pattern):
            layout = MorphConfig.from_r1_r2(pattern.ndim, r1, r2)
            a_prime = morph_kernel_matrix(pattern, layout)
            if a_prime.shape[1] > BLOSSOM_COLUMN_LIMIT:
                continue
            start = time.perf_counter()
            exact = exact_matching(a_prime).n_pad
            exact_s += time.perf_counter() - start
            start = time.perf_counter()
            blossom = blossom_matching(a_prime).n_pad
            blossom_s += time.perf_counter() - start
            if exact != blossom:
                mismatches.append((r1, r2, exact, blossom))
        return mismatches, exact_s, blossom_s

    mismatches, exact_s, blossom_s = benchmark.pedantic(run, rounds=1,
                                                        iterations=1)
    print(f"\n{config.name}: exact {exact_s * 1e3:8.1f} ms, "
          f"blossom {blossom_s * 1e3:8.1f} ms over the default candidates")
    assert not mismatches, f"exact and Blossom pads differ: {mismatches}"


def test_ablation_matching_save(benchmark, results_dir):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if not _ROWS:
        pytest.skip("no ablation rows collected")
    save_results("ablation_matching", _ROWS)
