"""The tcu-sim slot-table sweep against the materialised ``B'`` oracle.

A sparse plan's sweep stages the grid once and accumulates the plan's
compile-time :class:`~repro.core.codegen.SlotTable`.  It must reproduce, bit
for bit, the reference data path it replaced:
``gather_b_matrix -> apply_to_b -> sparse_mma_compressed -> assemble_output``,
with the launch timing :func:`~repro.tcu.executor.execute_launch` bills.
The in-place scatter of ``D`` into the grid is checked against
``assemble_output`` for the dense plans the generated suite does not draw,
and the fp16 staging shortcut against numpy's half casts.  A sweep's
scratch comes from a per-thread arena shared by every slot table the
thread sweeps; interleaved plans, threads and pickled plans must not see
each other's bytes.
"""

from __future__ import annotations

import pickle
import sys
import threading
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import repro.engine.base as engine_base
from repro.core import codegen
from repro.core.codegen import build_slot_table, generate_kernel
from repro.core.lookup_table import gather_b_matrix
from repro.core.metadata import SparseMetadata, pack_indices
from repro.core.morphing import assemble_output
from repro.core.pipeline import compile_stencil
from repro.engine import (SingleDeviceExecutor, assemble_step, gather_step,
                          mma_step, prepare_sweep, run_sweep)
from repro.stencils.boundary import neumann
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
    boundary = draw(st.sampled_from(["dirichlet", "periodic", "reflect",
                                     neumann(0.25)]))
    dtype = draw(st.sampled_from([DataType.FP16, DataType.BF16, DataType.TF32]))
    compiled = compile_stencil(pattern, shape, search=False, r1=r1, r2=r2,
                               dtype=dtype, boundary=boundary,
                               temporal_fusion=fusion, backend="tcu-sim")
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        # 3e4 puts a few cells past the fp16 overflow edge (65504)
        scale = draw(st.sampled_from([1.0, 1e-3, 300.0, 3e4]))
        data = rng.standard_normal(shape) * scale
    else:
        data = _fp16_midpoints(rng, shape)
    return compiled, Grid(data=data, boundary=boundary)


def _fp16_midpoints(rng, shape) -> np.ndarray:
    """fp64 values on, or a few ulps off, the midpoint between two
    neighbouring fp16 values of magnitude below 4 (subnormals included)."""
    low = rng.integers(0, 0x4400, size=shape, dtype=np.uint16)  # 0 .. 4.0
    below = low.view(np.float16).astype(np.float64)
    above = (low + 1).view(np.float16).astype(np.float64)
    middle = (below + above) / 2 * rng.choice([-1.0, 1.0], size=shape)
    nudge = rng.integers(-2, 3, size=shape)
    return (middle.view(np.int64) + nudge).view(np.float64)


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


def _product(context, data):
    """The slot table's ``D`` for ``data``, widened exactly to the device
    model's float64 ``(m', n')``: a step's fp32 tiles are arena scratch."""
    tiles = mma_step(context, gather_step(context, data.copy())).output
    assert tiles.dtype == np.float32
    assert tiles.shape == (context.plan.m_prime,) + context.plan.lut.tile_grid
    return tiles.astype(np.float64).reshape(context.plan.m_prime, -1)


# grids scaled by 3e4 overflow fp16: inf and NaN arithmetic warns
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
        assert _same_bits(_product(context, grid.data), expected.output)
        # the sweep's output is scratch: the launch it returns has none
        assert result is context.priced_launch and result.output is None
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


def _terms(rows) -> int:
    return sum(map(len, rows))


class TestZeroWeightElision:
    def test_finite_grid_skips_zero_weight_slots(self):
        compiled, data = _heat_plan()
        table = compiled.plan.slot_table
        # the heat plan's 2:4 padding leaves zero-weight slots to skip
        assert _terms(table.live_rows) < _terms(table.rows)
        assert all(weight != 0 for row in table.live_rows for _, weight in row)

        context = prepare_sweep(compiled)
        new = data.copy()
        run_sweep(context, new)
        old = data.copy()
        _oracle_sweep(context, old)
        assert _same_bits(new, old)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_grid_takes_the_full_rows(self):
        compiled, data = _heat_plan()
        table = compiled.plan.slot_table
        assert _terms(table.live_rows) < _terms(table.rows)
        # 7e4 rounds to +inf in fp16; a zero weight times inf or NaN is NaN
        data[4, 5], data[9, 13], data[16, 22] = 7e4, np.inf, np.nan
        context = prepare_sweep(compiled)
        new = data.copy()
        run_sweep(context, new)
        old = data.copy()
        expected = _oracle_sweep(context, old)
        assert _same_bits(new, old)
        assert _same_bits(_product(context, data), expected.output)


class TestSharedProducts:
    def test_box27_plan_shares_its_one_live_weight(self):
        compiled = compile_stencil(StencilPattern.box(3, 1), (64, 64, 64),
                                   backend="tcu-sim")
        table = compiled.plan.slot_table
        weight, = table.live_shared.weights
        assert all(w == weight for row in table.live_rows for _, w in row)
        assert all(pick == 0 for row in table.live_shared.picks
                   for pick in row)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_distinct_weights_share_only_zero(self):
        pattern = StencilPattern.star(2, 1,
                                      weights=[0.52, 0.11, 0.12, 0.13, 0.14])
        compiled = compile_stencil(pattern, (64, 64), search=False, r1=1,
                                   r2=2, backend="tcu-sim")
        table = compiled.plan.slot_table
        assert table.live_shared.weights == ()
        assert all(pick == -1 for row in table.live_shared.picks
                   for pick in row)
        # the 2:4 padding's zero weight is the full rows' one shared product
        assert [w.tobytes() for w in table.shared.weights] \
            == [np.float32(0).tobytes()]

        data = np.random.default_rng(9).standard_normal((64, 64))
        data[5, 7], data[20, 33], data[41, 2] = np.inf, -np.inf, np.nan
        context = prepare_sweep(compiled)
        new = data.copy()
        run_sweep(context, new)
        old = data.copy()
        expected = _oracle_sweep(context, old)
        assert _same_bits(new, old)
        assert _same_bits(_product(context, data), expected.output)

    def test_oracle_keeps_numpy_half_casts(self, monkeypatch):
        compiled, data = _heat_plan()
        context = prepare_sweep(compiled)
        expected = _oracle_sweep(context, data.copy())

        def refuse(*args):
            raise AssertionError("the fp16 shortcut was called")

        monkeypatch.setattr(codegen, "_round_fp16", refuse)
        assert _same_bits(_oracle_sweep(context, data.copy()).output,
                          expected.output)
        with pytest.raises(AssertionError, match="shortcut"):
            run_sweep(context, data.copy())


#: Hand-picked fp16 edge values: ±0, the subnormal range, the normal and
#: overflow edges (65504 is the largest finite fp16, 65520 the first value
#: that overflows), infinities and NaN.
FP16_EDGES = [0.0, -0.0, 2.0**-24, 2.0**-25, 3 * 2.0**-26, 2.0**-14,
              2.0**-14 - 2.0**-25, 6e-8, -6e-8, 1e-300, 65504.0, -65504.0,
              65519.99999999999, 65520.0, 65520.00000000001, -65520.0,
              7e4, 1e300, np.inf, -np.inf, np.nan]


@st.composite
def fp16_midpoint(draw):
    """The midpoint between a finite fp16 value and the next one up, or a
    few fp64 ulps off it, with either sign."""
    low = draw(st.integers(0, 0x7BFE))
    below, above = (np.array([low, low + 1], dtype=np.uint16)
                    .view(np.float16).astype(np.float64))
    middle = float((below + above) / 2)
    nudged = (np.array(middle).view(np.int64)
              + draw(st.integers(-3, 3))).view(np.float64)
    return float(nudged) * draw(st.sampled_from([1.0, -1.0]))


FP64_VALUES = st.one_of(
    st.integers(0, 2**64 - 1).map(
        lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64))
    ).filter(np.isfinite),
    fp16_midpoint(),
    st.integers(1, 0x3FF).map(          # fp16 subnormals, either sign
        lambda bits: float(np.array(bits, dtype=np.uint16).view(np.float16))
    ).flatmap(lambda value: st.sampled_from([value, -value])),
    st.sampled_from(FP16_EDGES),
)


@st.composite
def fp64_arrays(draw):
    """1-3-D float64 arrays of fp16 edge values, C-contiguous or strided."""
    ndim = draw(st.integers(1, 3))
    shape = [draw(st.integers(1, 6)) for _ in range(ndim)]
    strided = draw(st.booleans())
    if strided:
        shape[-1] *= 2
    values = draw(st.lists(FP64_VALUES, min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))))
    array = np.array(values, dtype=np.float64).reshape(shape)
    return array[..., ::-2] if strided else array


class TestFp16Staging:
    @given(values=fp64_arrays())
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy_half_casts(self, values):
        with np.errstate(over="ignore"):
            expected = values.astype(np.float16).astype(np.float32)
            rounded, finite = codegen._round_fp16(values)
        assert rounded.flags.c_contiguous
        assert _same_bits(rounded, expected)
        assert finite == bool(np.isfinite(expected).all())

    @given(values=fp64_arrays(), pad=st.integers(0, 7))
    @settings(max_examples=100, deadline=None)
    def test_rounds_in_place_with_borrowed_scratch(self, values, pad):
        """The staging's form: rounded into a given buffer, with masks
        from scratch larger than the array and dirty from earlier use."""
        out = np.full(values.shape, np.nan, dtype=np.float32)
        scratch = codegen._round_scratch(values.size + pad)
        for mask in scratch:
            mask.view(np.uint8)[:] = 0xFF
        with np.errstate(over="ignore"):
            expected = values.astype(np.float16).astype(np.float32)
            rounded, finite = codegen._round_fp16(values, out, scratch)
        assert rounded is out
        assert _same_bits(out, expected)
        assert finite == bool(np.isfinite(expected).all())

    @given(values=fp64_arrays(),
           dtype=st.sampled_from([np.float32, np.float16]))
    @settings(max_examples=100, deadline=None)
    def test_narrower_floats_match_numpy_half_casts(self, values, dtype):
        with np.errstate(over="ignore", invalid="ignore"):
            values = values.astype(dtype)
            expected = values.astype(np.float16).astype(np.float32)
            rounded, finite = codegen._round_fp16(values)
        assert _same_bits(rounded, expected)
        assert finite == bool(np.isfinite(expected).all())

    @given(values=st.lists(st.one_of(
        st.integers(-2**63, 2**63 - 1),
        st.integers(-70000, 70000),
        st.sampled_from([2049, 2051, 4099, 65503, 65504, 65519, 65520,
                         2**24 + 1, -65520])), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_integers_match_numpy_half_casts(self, values):
        values = np.array(values, dtype=np.int64)
        with np.errstate(over="ignore"):
            expected = values.astype(np.float16).astype(np.float32)
            rounded, finite = codegen._round_fp16(values)
        assert _same_bits(rounded, expected)
        assert finite == bool(np.isfinite(expected).all())

    @pytest.mark.parametrize("extra", [0, 1])
    def test_fallback_share_picks_the_path(self, monkeypatch, extra):
        """Up to ``_FP16_FALLBACK_SHARE`` of the lanes are recomputed one
        by one; one lane more and the whole array takes numpy's casts."""
        n = 1000
        limit = int(codegen._FP16_FALLBACK_SHARE * n)
        assert limit <= codegen._FP16_FALLBACK_SHARE * n < limit + 1
        # exact fp16 values, all on the shortcut
        values = (1000 + np.arange(n) % 1000) / 1024.0
        odd = 2 * np.arange(limit + extra) + 1
        # fp16 subnormals, ties, overflowing values and NaN
        values[:limit + extra] = np.choose(np.arange(limit + extra) % 4, [
            odd * 2.0**-26, 1 + odd * 2.0**-11, 7e4 + odd, np.nan])
        values = values.reshape(25, 40)
        picked = []

        def flatnonzero(mask):
            picked.append(int(np.count_nonzero(mask)))
            return np.nonzero(np.ravel(mask))[0]

        monkeypatch.setattr(codegen.np, "flatnonzero", flatnonzero)
        with np.errstate(over="ignore"):
            expected = values.astype(np.float16).astype(np.float32)
            rounded, finite = codegen._round_fp16(values)
        assert _same_bits(rounded, expected)
        assert not finite                   # 7e4 and NaN lanes
        assert picked == ([limit] if extra == 0 else [])


#: Ragged fp64 plans, which run the dense MMA model: ``(pattern, shape,
#: r1, r2)``.
DENSE_PLANS = [
    (StencilPattern.star(1, 2), (29,), 4, None),
    (StencilPattern.star(2, 1), (23, 29), 3, 2),
    (StencilPattern.box(2, 1), (20, 17), 4, 4),
    (StencilPattern.star(3, 1), (11, 12, 13), 2, 4),
    (StencilPattern.box(3, 1), (13, 9, 10), 3, 2),
]


class TestScatter:
    @pytest.mark.parametrize("pattern, shape, r1, r2", DENSE_PLANS)
    def test_dense_plan_scatter_matches_assemble_output(self, pattern, shape,
                                                        r1, r2):
        compiled = compile_stencil(pattern, shape, search=False, r1=r1, r2=r2,
                                   dtype=DataType.FP64, backend="tcu-sim")
        plan = compiled.plan
        assert plan.engine == "dense_mma" and plan.slot_table is None
        # ragged: some interior extent is not a multiple of its tile extent
        assert any(o % r for o, r in zip(plan.lut.out_shape, plan.config.r))

        data = np.random.default_rng(sum(shape)).standard_normal(shape)
        context = prepare_sweep(compiled)
        result = mma_step(context, gather_step(context, data.copy()))
        new = data.copy()
        assemble_step(context, result, new)
        old = data.copy()
        old[context.interior] = assemble_output(result.output,
                                                compiled.geometry())
        assert _same_bits(new, old)

    @pytest.mark.parametrize("pattern, shape, r1, r2", DENSE_PLANS)
    def test_dense_mma_step_matches_the_device_model(self, pattern, shape,
                                                      r1, r2):
        """A dense plan's MMA attaches its product to the launch priced
        from shapes; both equal the functional device model's launch."""
        compiled = compile_stencil(pattern, shape, search=False, r1=r1, r2=r2,
                                   dtype=DataType.FP64, backend="tcu-sim")
        plan = compiled.plan
        context = prepare_sweep(compiled)
        data = np.random.default_rng(sum(shape)).standard_normal(shape)
        b_operand = gather_step(context, data)
        result = mma_step(context, b_operand)
        expected = execute_launch(KernelLaunch(
            name=context.launch_name, engine=plan.engine, a=plan.a_operand,
            b=b_operand, fragment=plan.fragment, dtype=plan.dtype,
            traffic=plan.estimate.traffic,
            threads_per_block=plan.threads_per_block, blocks=plan.blocks,
            registers_per_thread=plan.registers_per_thread), context.spec)
        assert _same_bits(result.output, expected.output)
        assert replace(result, output=None) \
            == replace(expected, output=None) == context.priced_launch

    def test_sparse_plan_scatters_fp32_tiles_and_float64_d(self):
        """``assemble_step`` takes the slot table's fp32 tiles and the
        device model's float64 ``(m', n')`` ``D`` alike, bit for bit."""
        compiled, data = _heat_plan()
        context = prepare_sweep(compiled)
        result = mma_step(context, gather_step(context, data.copy()))
        tiles = result.output
        assert tiles.dtype == np.float32 and tiles.ndim == 3
        d = tiles.astype(np.float64).reshape(compiled.plan.m_prime, -1)
        from_tiles = data.copy()
        assemble_step(context, result, from_tiles)
        from_d = data.copy()
        assemble_step(context, replace(result, output=d), from_d)
        expected = data.copy()
        expected[context.interior] = assemble_output(d, compiled.geometry())
        assert _same_bits(from_tiles, expected)
        assert _same_bits(from_d, expected)

    def test_scatter_rejects_a_misshapen_d(self):
        compiled, data = _heat_plan()
        context = prepare_sweep(compiled)
        result = mma_step(context, gather_step(context, data.copy()))
        tiles = result.output
        d = tiles.astype(np.float64).reshape(compiled.plan.m_prime, -1)
        for bad in (tiles[:, 1:], d[:, 1:], d.reshape(-1)):
            with pytest.raises(ValidationError, match="D has shape"):
                assemble_step(context, replace(result, output=bad),
                              data.copy())
        with pytest.raises(ValidationError, match="no functional output"):
            assemble_step(context, context.priced_launch, data.copy())


def _staging_oracle(table, data) -> np.ndarray:
    """The staged buffer built the plain way: zeros, then every phase of
    the grid cast with numpy's own casts."""
    staged = np.zeros(table.staged_shape, dtype=np.float32)
    rounded = data.astype(table.stage_dtype).astype(np.float32)
    for phase, residues in zip(staged, np.ndindex(*table.tile_extent)):
        part = rounded[tuple(slice(q, None, r) for q, r
                             in zip(residues, table.tile_extent))]
        phase[tuple(slice(0, n) for n in part.shape)] = part
    return staged


def _on_fresh_thread(body) -> None:
    """Run ``body`` on a new thread, whose arena starts empty, and re-raise
    whatever it raised."""
    failures = []

    def run():
        try:
            body()
        except BaseException as error:      # re-raised on the caller
            failures.append(error)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    if failures:
        raise failures[0]


def _arena_bytes(compiled) -> int:
    return codegen._arena_layout(compiled.plan.slot_table)[1]


#: A plan whose arena outgrows any plan :func:`problems` draws.
_GROWN = compile_stencil(StencilPattern.star(2, 1), (128, 128), search=False,
                         r1=3, r2=2, backend="tcu-sim")


# poisoned grids overflow fp16: inf and NaN arithmetic warns
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestArena:
    @given(plans=st.lists(problems(), min_size=2, max_size=3),
           before=st.lists(st.tuples(st.integers(0, 2), st.booleans()),
                           min_size=1, max_size=4),
           after=st.lists(st.tuples(st.integers(0, 2), st.booleans()),
                          min_size=1, max_size=4),
           last=st.integers(0, 2),
           poison=st.sampled_from([7e4, np.inf]),
           cell=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_interleaved_plans_match_the_oracle(self, plans, before, after,
                                                last, poison, cell):
        """One thread sweeps plans of different dimension, shape and tile
        extent in turn, a larger plan regrows its arena midway, and a
        poisoned grid follows a finite one on the same plan.  Every staged
        buffer must equal the plain staging — tile padding zero, whatever
        the last plan wrote there — and lie in the thread's current arena
        buffer; every grid must equal the oracle's."""
        grown = (_GROWN, Grid(data=np.random.default_rng(cell)
                              .standard_normal(_GROWN.grid_shape)))
        assume(_arena_bytes(_GROWN)
               > max(_arena_bytes(compiled) for compiled, _ in plans))
        plans = plans + [grown]
        n = len(plans) - 1
        steps = ([(i % n, bad) for i, bad in before] + [(n, False)]
                 + [(i % n, bad) for i, bad in after]
                 + [(last % n, False), (last % n, True)])

        def sweep_all():
            buffers = []
            for index, bad in steps:
                compiled, grid = plans[index]
                context = prepare_sweep(compiled)
                data = grid.data.copy()
                if bad:
                    data.reshape(-1)[cell % data.size] = poison
                staged = gather_step(context, data)
                assert np.shares_memory(staged, codegen._ARENA.buffer)
                buffers.append(codegen._ARENA.buffer)
                assert _same_bits(staged, _staging_oracle(
                    compiled.plan.slot_table, data))
                result = mma_step(context, staged)
                new = data.copy()
                assemble_step(context, result, new)
                old = data.copy()
                expected = _oracle_sweep(context, old)
                assert _same_bits(new, old)
                assert _same_bits(result.output.astype(np.float64).reshape(
                    compiled.plan.m_prime, -1), expected.output)
                swept = data.copy()
                run_sweep(context, swept)
                assert _same_bits(swept, old)
            # the grown plan regrew the arena, and nothing after it did
            grown_at = len(before)
            assert buffers[grown_at] is not buffers[grown_at - 1]
            assert all(b is buffers[grown_at] for b in buffers[grown_at:])

        _on_fresh_thread(sweep_all)

    @given(problem=problems(), block=st.sampled_from([1, 7, 64, 300]))
    @settings(**SETTINGS)
    def test_blockwise_staging_matches_the_oracle(self, problem, block):
        """The staging rounds the grid a few rows at a time; with small
        blocks every drawn grid spans many of them, ragged last block
        included."""
        compiled, grid = problem

        def sweep():
            context = prepare_sweep(compiled)
            table = compiled.plan.slot_table
            views = codegen._borrow(table)
            assert len(views.blocks) == -(-grid.data.shape[0]
                                          // codegen._block_rows(table))
            staged = gather_step(context, grid.data)
            assert _same_bits(staged, _staging_oracle(table, grid.data))
            new = grid.data.copy()
            run_sweep(context, new)
            old = grid.data.copy()
            _oracle_sweep(context, old)
            assert _same_bits(new, old)

        # a fresh thread lays its arena out with the patched block
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(codegen, "_ROUND_BLOCK", block)
            _on_fresh_thread(sweep)


def _sequential(jobs):
    return [SingleDeviceExecutor().execute(compiled, grid, iterations).output
            for compiled, grid, iterations in jobs]


class TestThreadsAndPickling:
    def test_concurrent_sweeps_match_sequential_runs(self):
        """Two threads sweep one plan and a third another plan at once;
        each thread's arena keeps their bytes apart."""
        heat, data = _heat_plan()
        box = compile_stencil(StencilPattern.box(3, 1), (14, 15, 16),
                              search=False, r1=2, r2=3, backend="tcu-sim")
        rng = np.random.default_rng(11)
        jobs = [(heat, Grid(data=data), 40),
                (heat, Grid(data=rng.random(data.shape)), 40),
                (box, Grid(data=rng.random(box.grid_shape)), 40)]
        expected = _sequential(jobs)
        outputs = [None] * len(jobs)
        start = threading.Barrier(len(jobs), timeout=60)

        def run(index):
            start.wait()
            outputs[index] = _sequential([jobs[index]] * 3)

        threads = [threading.Thread(target=run, args=(index,))
                   for index in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)     # switch threads mid-sweep often
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for want, got in zip(expected, outputs):
            assert got is not None and len(got) == 3
            assert all(_same_bits(output, want) for output in got)

    def test_pickled_plan_sweeps_identically_without_scratch(self):
        compiled, data = _heat_plan()
        context = prepare_sweep(compiled)
        run_sweep(context, data.copy())
        blob = pickle.dumps(compiled)
        for seed in range(3):
            run_sweep(context,
                      np.random.default_rng(seed).random(data.shape))
        # sweeping leaves nothing on the plan for a pickle to carry
        assert pickle.dumps(compiled) == blob
        restored = pickle.loads(blob)
        table = restored.plan.slot_table
        assert set(vars(table)) <= ({f.name for f in fields(table)}
                                    | {"staged_shape", "phase_size"})

        expected = data.copy()
        run_sweep(context, expected)
        here = data.copy()
        run_sweep(prepare_sweep(restored), here)
        assert _same_bits(here, expected)
        there = data.copy()
        _on_fresh_thread(lambda: run_sweep(prepare_sweep(restored), there))
        assert _same_bits(there, expected)
