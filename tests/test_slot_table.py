"""The tcu-sim slot-table sweep against the materialised ``B'`` oracle.

A sparse plan's sweep stages the grid once and accumulates the plan's
compile-time :class:`~repro.core.codegen.SlotTable`.  It must reproduce, bit
for bit, the reference data path it replaced:
``gather_b_matrix -> apply_to_b -> sparse_mma_compressed -> assemble_output``,
with the launch timing :func:`~repro.tcu.executor.execute_launch` bills.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.engine.base as engine_base
from repro.core.codegen import build_slot_table, generate_kernel
from repro.core.lookup_table import gather_b_matrix
from repro.core.metadata import SparseMetadata, pack_indices
from repro.core.morphing import assemble_output
from repro.core.pipeline import compile_stencil
from repro.engine import SingleDeviceExecutor, prepare_sweep, run_sweep
from repro.stencils.catalog import full_catalog
from repro.stencils.grid import Grid
from repro.stencils.pattern import StencilPattern
from repro.tcu.executor import KernelLaunch, execute_launch
from repro.tcu.sparse_mma import sparse_mma_compressed
from repro.tcu.sparsity24 import Compressed24
from repro.tcu.spec import DataType
from repro.util.validation import ValidationError

SETTINGS = dict(max_examples=20, deadline=None)

#: Catalog kernels small enough to compile in milliseconds without the
#: layout search; several carry zero or negative taps (sobel, fdtd-curl,
#: upwind, the high-order stars).
CATALOG = [p for p in full_catalog() if p.radius <= 3 and p.points <= 27]

#: Tap weights for generated patterns, before scaling by 1/points: zeros
#: and negatives included, with an L1 norm of at most 1 so repeated sweeps
#: stay inside the fp16 range.
WEIGHTS = st.sampled_from([0.0, -1.0, -0.5, 0.25, 0.5, 1.0])

#: Largest generated radius per (ndim, kind); a radius-3 3-D box (343 taps)
#: compiles too slowly for tier-1.
MAX_RADIUS = {(1, "star"): 3, (1, "box"): 3, (2, "star"): 3, (2, "box"): 3,
              (3, "star"): 3, (3, "box"): 2}


@st.composite
def patterns(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(CATALOG))
    ndim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["star", "box"]))
    radius = draw(st.integers(1, MAX_RADIUS[ndim, kind]))
    points = (2 * ndim * radius + 1 if kind == "star"
              else (2 * radius + 1) ** ndim)
    weights = draw(st.lists(WEIGHTS, min_size=points, max_size=points)
                   .filter(any))
    return getattr(StencilPattern, kind)(
        ndim, radius, weights=[w / points for w in weights])


@st.composite
def problems(draw, fusion: int = 1):
    """A compiled tcu-sim stencil on a ragged grid, plus its input grid."""
    pattern = draw(patterns())
    radius = pattern.radius * fusion
    # ragged extents: the interior is rarely a multiple of the tile extents;
    # periodic halos need an interior at least one radius wide
    shape = tuple(draw(st.integers(3 * radius + 1, 3 * radius + 23))
                  for _ in range(pattern.ndim))
    r1 = draw(st.integers(1, 6))
    r2 = draw(st.integers(1, 4)) if pattern.ndim > 1 else None
    boundary = draw(st.sampled_from(["dirichlet", "periodic", "reflect"]))
    dtype = draw(st.sampled_from([DataType.FP16, DataType.BF16, DataType.TF32]))
    compiled = compile_stencil(pattern, shape, search=False, r1=r1, r2=r2,
                               dtype=dtype, boundary=boundary,
                               temporal_fusion=fusion, backend="tcu-sim")
    seed = draw(st.integers(0, 2**31 - 1))
    scale = draw(st.sampled_from([1.0, 1e-3, 300.0]))
    data = np.random.default_rng(seed).standard_normal(shape) * scale
    return compiled, Grid(data=data, boundary=boundary)


def _oracle_gather(context, current):
    plan = context.plan
    return plan.conversion.apply_to_b(gather_b_matrix(plan.lut, current))


def _oracle_mma(context, b_converted):
    plan = context.plan
    priced = execute_launch(KernelLaunch(
        name=context.launch_name, engine=plan.engine, a=plan.a_operand,
        b=b_converted, fragment=plan.fragment, dtype=plan.dtype,
        traffic=plan.estimate.traffic,
        threads_per_block=plan.threads_per_block, blocks=plan.blocks,
        registers_per_thread=plan.registers_per_thread), context.spec)
    product = sparse_mma_compressed(plan.metadata.compressed, b_converted,
                                    plan.fragment, dtype=plan.dtype)
    return replace(priced, output=product.d)


def _oracle_sweep(context, current):
    result = _oracle_mma(context, _oracle_gather(context, current))
    current[context.interior] = assemble_output(result.output,
                                                context.compiled.geometry())
    return result


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDifferential:
    @given(problem=problems())
    @settings(**SETTINGS)
    def test_sweep_matches_b_prime_oracle(self, problem):
        compiled, grid = problem
        context = prepare_sweep(compiled)
        assert compiled.plan.slot_table is not None

        new = grid.data.copy()
        result = run_sweep(context, new)
        old = grid.data.copy()
        expected = _oracle_sweep(context, old)

        assert _same_bits(new, old)
        assert _same_bits(result.output, expected.output)
        assert result.elapsed_seconds == expected.elapsed_seconds
        assert result.compute_seconds == expected.compute_seconds
        assert result.memory_seconds == expected.memory_seconds
        assert result.fragment_ops == expected.fragment_ops
        assert result.utilization == expected.utilization

    @given(problem=problems(fusion=2), leftover=st.integers(0, 1))
    @settings(**SETTINGS)
    def test_fused_run_with_leftover_matches_oracle(self, problem, leftover):
        compiled, grid = problem
        iterations = 2 * compiled.temporal_fusion + leftover
        new = SingleDeviceExecutor().execute(compiled, grid, iterations)
        # TcuSimBackend resolves the module-level steps when a sweep is
        # prepared, so patching them runs the whole executor on the oracle
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine_base, "gather_step", _oracle_gather)
            patch.setattr(engine_base, "mma_step", _oracle_mma)
            old = SingleDeviceExecutor().execute(compiled, grid, iterations)

        assert _same_bits(new.output, old.output)
        assert new.elapsed_seconds == old.elapsed_seconds
        assert new.compute_seconds == old.compute_seconds
        assert new.memory_seconds == old.memory_seconds
        assert new.utilization == old.utilization


def _heat_plan():
    pattern = StencilPattern.star(2, 1, weights=[0.6, 0.1, 0.1, 0.1, 0.1])
    compiled = compile_stencil(pattern, (23, 29), search=False, r1=3, r2=2,
                               backend="tcu-sim")
    data = np.random.default_rng(5).random((23, 29))
    return compiled, data


def _rebuilt(compiled, **prebuilt):
    plan = compiled.plan
    pieces = dict(prebuilt_conversion=plan.conversion,
                  prebuilt_metadata=plan.metadata, prebuilt_lut=plan.lut)
    pieces.update(prebuilt)
    return generate_kernel(plan.pattern, plan.grid_shape, plan.config,
                           fragment=plan.fragment, dtype=plan.dtype,
                           render_source=False, **pieces)


def _corrupted_metadata(plan) -> SparseMetadata:
    """Move one retained value to an unused in-group slot of a real row."""
    compressed = plan.metadata.compressed
    indices = compressed.indices.copy()
    permutation = plan.conversion.permutation
    for row, slot in zip(*np.nonzero(compressed.values)):
        group = slot // 2
        used = set(indices[row, 2 * group:2 * group + 2].tolist())
        for position in range(4):
            if (position not in used and
                    permutation[4 * group + position] < plan.conversion.n_original):
                indices[row, slot] = position
                corrupt = Compressed24(values=compressed.values,
                                       indices=indices, k=compressed.k)
                return SparseMetadata(compressed=corrupt,
                                      packed_words=pack_indices(indices))
    raise AssertionError("no retained value can be moved to a real row")


class TestCertification:
    def test_sweep_reads_the_compiled_metadata(self):
        compiled, data = _heat_plan()
        corrupt_metadata = _corrupted_metadata(compiled.plan)
        corrupt = replace(compiled,
                          plan=_rebuilt(compiled,
                                        prebuilt_metadata=corrupt_metadata))
        # the dense operand is untouched: only the metadata differs
        assert np.array_equal(corrupt.plan.a_operand, compiled.plan.a_operand)

        intact_out = data.copy()
        run_sweep(prepare_sweep(compiled), intact_out)
        corrupt_out = data.copy()
        run_sweep(prepare_sweep(corrupt), corrupt_out)
        assert not np.array_equal(intact_out, corrupt_out)

        # ... and follows it exactly: the oracle on the same metadata agrees
        oracle_out = data.copy()
        _oracle_sweep(prepare_sweep(corrupt), oracle_out)
        assert _same_bits(corrupt_out, oracle_out)

    def test_non_lattice_column_base_is_rejected(self):
        compiled, _ = _heat_plan()
        lut = compiled.plan.lut
        column_base = lut.column_base.copy()
        column_base[[1, 2]] = column_base[[2, 1]]
        bad = replace(lut, column_base=column_base)
        with pytest.raises(ValidationError, match="tile lattice"):
            _rebuilt(compiled, prebuilt_lut=bad)
        with pytest.raises(ValidationError, match="tile lattice"):
            build_slot_table(compiled.plan.conversion, compiled.plan.metadata,
                             bad, compiled.plan.dtype)

    def test_dense_plans_keep_the_b_prime_path(self):
        pattern = StencilPattern.star(2, 1)
        compiled = compile_stencil(pattern, (20, 20), dtype=DataType.FP64,
                                   backend="tcu-sim")
        assert compiled.plan.engine == "dense_mma"
        assert compiled.plan.slot_table is None
