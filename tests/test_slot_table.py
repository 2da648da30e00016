"""The tcu-sim slot-table sweep against the materialised ``B'`` oracle.

A sparse plan's sweep stages the grid once and accumulates the plan's
compile-time :class:`~repro.core.codegen.SlotTable`.  It must reproduce, bit
for bit, the reference data path it replaced:
``gather_b_matrix -> apply_to_b -> sparse_mma_compressed -> assemble_output``,
with the launch timing :func:`~repro.tcu.executor.execute_launch` bills.
The in-place scatter of ``D`` into the grid is checked against
``assemble_output`` for the dense plans the generated suite does not draw,
and the fp16 staging shortcut against numpy's half casts.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
        result = run_sweep(context, new)
        old = data.copy()
        expected = _oracle_sweep(context, old)
        assert _same_bits(new, old)
        assert _same_bits(result.output, expected.output)


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
        result = run_sweep(context, new)
        old = data.copy()
        expected = _oracle_sweep(context, old)
        assert _same_bits(new, old)
        assert _same_bits(result.output, expected.output)

    def test_oracle_keeps_numpy_half_casts(self, monkeypatch):
        compiled, data = _heat_plan()
        context = prepare_sweep(compiled)
        expected = _oracle_sweep(context, data.copy())

        def refuse(values):
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
            rounded = codegen._round_fp16(values)
        assert rounded.flags.c_contiguous
        assert _same_bits(rounded, expected)

    @given(values=fp64_arrays(),
           dtype=st.sampled_from([np.float32, np.float16]))
    @settings(max_examples=100, deadline=None)
    def test_narrower_floats_match_numpy_half_casts(self, values, dtype):
        with np.errstate(over="ignore", invalid="ignore"):
            values = values.astype(dtype)
            expected = values.astype(np.float16).astype(np.float32)
            rounded = codegen._round_fp16(values)
        assert _same_bits(rounded, expected)

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
            rounded = codegen._round_fp16(values)
        assert _same_bits(rounded, expected)

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
            rounded = codegen._round_fp16(values)
        assert _same_bits(rounded, expected)
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

    def test_scatter_rejects_a_misshapen_d(self):
        compiled, data = _heat_plan()
        context = prepare_sweep(compiled)
        result = run_sweep(context, data.copy())
        with pytest.raises(ValidationError, match="D has shape"):
            assemble_step(context, replace(result, output=result.output[:, 1:]),
                          data.copy())
