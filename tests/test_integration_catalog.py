"""Integration tests over the 79-kernel catalog (Figure-10 workload).

Compiling and functionally simulating all 79 kernels end-to-end is what the
Figure-10 benchmark does; the test suite exercises a deterministic sample
from every domain plus transformation-level checks on the full catalog.
"""

import numpy as np
import pytest

from repro.core.conversion import convert_to_24
from repro.core.morphing import MorphConfig, morph_kernel_matrix
from repro.core.pipeline import compile_stencil, execute_compiled
from repro.core.staircase import block_structure_from_morph
from repro.stencils.catalog import DOMAINS, catalog_by_domain
from repro.stencils.grid import make_grid
from repro.stencils.reference import run_stencil_iterations
from repro.tcu.sparsity24 import is_24_sparse

GRIDS = {1: (384,), 2: (48, 48), 3: (20, 20, 20)}
FP16_TOL = 5e-3


def _sample_kernels():
    """First kernel of every domain — one end-to-end run per domain."""
    grouped = catalog_by_domain()
    return [(domain, grouped[domain][0]) for domain in DOMAINS]


class TestCatalogTransformations:
    def test_every_catalog_kernel_converts_to_24(self):
        """The Structured Sparsity Conversion succeeds for all 79 kernels."""
        failures = []
        for domain, kernels in catalog_by_domain().items():
            for pattern in kernels:
                config = MorphConfig.from_r1_r2(pattern.ndim, 4, 2)
                a_prime = morph_kernel_matrix(pattern, config)
                structure = block_structure_from_morph(pattern, config)
                conversion = convert_to_24(a_prime, structure=structure)
                if not is_24_sparse(conversion.a_converted):
                    failures.append(pattern.name)
        assert not failures

    def test_catalog_kernel_weights_preserved_by_conversion(self):
        for pattern in [kernels[0] for kernels in catalog_by_domain().values()]:
            config = MorphConfig.from_r1_r2(pattern.ndim, 4, 2)
            a_prime = morph_kernel_matrix(pattern, config)
            structure = block_structure_from_morph(pattern, config)
            conversion = convert_to_24(a_prime, structure=structure)
            assert np.isclose(conversion.a_converted.sum(), a_prime.sum())


@pytest.mark.parametrize("domain,pattern", _sample_kernels(),
                         ids=[d for d, _ in _sample_kernels()])
class TestCatalogEndToEnd:
    def test_pipeline_matches_reference(self, domain, pattern):
        shape = GRIDS[pattern.ndim]
        grid = make_grid(shape, kind="random", seed=29)
        compiled = compile_stencil(pattern, shape)
        result = execute_compiled(compiled, grid, iterations=2)
        reference = run_stencil_iterations(pattern, grid, 2)
        tolerance = FP16_TOL * max(1.0, float(np.max(np.abs(reference))))
        assert np.max(np.abs(result.output - reference)) < tolerance

    def test_generated_source_mentions_sparse_mma(self, domain, pattern):
        from repro.core.codegen import generate_kernel, render_cuda_source
        shape = GRIDS[pattern.ndim]
        config = MorphConfig.from_r1_r2(pattern.ndim, 4, 2)
        plan = generate_kernel(pattern, shape, config)
        assert "mma.sp" in render_cuda_source(plan)
