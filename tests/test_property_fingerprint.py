"""Property-based tests: compile fingerprinting is injective on the semantic
content of a stencil (offsets and exact weights) and invariant under the
cosmetic fields (name, tap order, metadata)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.service import CompileRequest, compile_fingerprint, pattern_fingerprint
from repro.service import fingerprint as fingerprint_module
from repro.stencils import domains
from repro.stencils.pattern import StencilPattern
from repro.tcu.spec import A100_SPEC, DataType
from repro.util.validation import ValidationError

SETTINGS = dict(max_examples=60, deadline=None)

finite_weights = st.floats(min_value=-4.0, max_value=4.0,
                           allow_nan=False, allow_subnormal=False)


@st.composite
def patterns(draw) -> StencilPattern:
    """Random small 1D/2D patterns with distinct offsets and finite weights."""
    ndim = draw(st.integers(min_value=1, max_value=2))
    radius = draw(st.integers(min_value=1, max_value=2))
    span = list(range(-radius, radius + 1))
    all_offsets = ([(i,) for i in span] if ndim == 1
                   else [(i, j) for i in span for j in span])
    count = draw(st.integers(min_value=1, max_value=len(all_offsets)))
    chosen = draw(st.permutations(all_offsets))[:count]
    weights = draw(st.lists(finite_weights, min_size=count, max_size=count))
    return StencilPattern(name="prop", ndim=ndim,
                          offsets=tuple(chosen), weights=tuple(weights))


class TestPatternFingerprintProperty:
    @given(pattern=patterns())
    @settings(**SETTINGS)
    def test_deterministic_and_name_invariant(self, pattern):
        renamed = StencilPattern(
            name="other-name", ndim=pattern.ndim, offsets=pattern.offsets,
            weights=pattern.weights, metadata={"domain": "anything"})
        assert pattern_fingerprint(pattern) == pattern_fingerprint(renamed)

    @given(pattern=patterns(), seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(**SETTINGS)
    def test_tap_order_invariant(self, pattern, seed):
        order = np.random.default_rng(seed).permutation(pattern.points)
        shuffled = StencilPattern(
            name=pattern.name, ndim=pattern.ndim,
            offsets=tuple(pattern.offsets[i] for i in order),
            weights=tuple(pattern.weights[i] for i in order))
        assert pattern_fingerprint(shuffled) == pattern_fingerprint(pattern)

    @given(pattern=patterns(),
           index=st.integers(min_value=0, max_value=63),
           delta=finite_weights)
    @settings(**SETTINGS)
    def test_injective_on_weight_perturbations(self, pattern, index, delta):
        index %= pattern.points
        perturbed_weights = list(pattern.weights)
        perturbed_weights[index] += delta
        # float addition can be absorbed; only a *representable* change must
        # change the fingerprint
        assume(perturbed_weights[index] != pattern.weights[index])
        perturbed = pattern.with_weights(perturbed_weights)
        assert pattern_fingerprint(perturbed) != pattern_fingerprint(pattern)

    @given(pattern=patterns(), index=st.integers(min_value=0, max_value=63))
    @settings(**SETTINGS)
    def test_injective_on_offset_removal(self, pattern, index):
        assume(pattern.points > 1)
        index %= pattern.points
        pruned = StencilPattern(
            name=pattern.name, ndim=pattern.ndim,
            offsets=pattern.offsets[:index] + pattern.offsets[index + 1:],
            weights=pattern.weights[:index] + pattern.weights[index + 1:])
        assert pattern_fingerprint(pruned) != pattern_fingerprint(pattern)

    @given(pattern=patterns(), index=st.integers(min_value=0, max_value=63),
           axis=st.integers(min_value=0, max_value=1),
           shift=st.sampled_from([-1, 1]))
    @settings(**SETTINGS)
    def test_injective_on_offset_moves(self, pattern, index, axis, shift):
        index %= pattern.points
        axis %= pattern.ndim
        moved_offset = list(pattern.offsets[index])
        moved_offset[axis] += shift
        assume(tuple(moved_offset) not in pattern.offsets)
        moved = StencilPattern(
            name=pattern.name, ndim=pattern.ndim,
            offsets=(pattern.offsets[:index] + (tuple(moved_offset),)
                     + pattern.offsets[index + 1:]),
            weights=pattern.weights)
        assert pattern_fingerprint(moved) != pattern_fingerprint(pattern)


class TestCompileFingerprintProperty:
    @given(pattern=patterns(),
           extent=st.integers(min_value=24, max_value=40),
           dtype=st.sampled_from([DataType.FP16, DataType.TF32]),
           fusion=st.sampled_from([1, 2]))
    @settings(max_examples=25, deadline=None)
    def test_each_compile_field_feeds_the_fingerprint(self, pattern, extent,
                                                      dtype, fusion):
        shape = tuple([extent + 16] * pattern.ndim)
        if any(s < pattern.diameter * fusion + 1 for s in shape):
            assume(False)
        try:
            base = CompileRequest.build(pattern, shape, dtype=dtype,
                                        temporal_fusion=fusion)
        except ValidationError:
            # e.g. an (almost) all-zero kernel whose temporal self-convolution
            # has no remaining taps — not a fingerprinting property
            assume(False)
        same = CompileRequest.build(pattern, shape, dtype=dtype,
                                    temporal_fusion=fusion)
        assert base == same
        grown = CompileRequest.build(pattern, tuple(s + 1 for s in shape),
                                     dtype=dtype, temporal_fusion=fusion)
        assert base.fingerprint != grown.fingerprint
        other_dtype = DataType.TF32 if dtype == DataType.FP16 else DataType.FP16
        recast = CompileRequest.build(pattern, shape, dtype=other_dtype,
                                      temporal_fusion=fusion)
        assert base.fingerprint != recast.fingerprint
        assert compile_fingerprint(base.options) == base.fingerprint


class TestPinnedDigests:
    """Digests are persisted with cached plans, so they must not drift.

    The canonical spec tuple is memoized by device content; these digests
    were computed before the memo existed.
    """

    @pytest.mark.parametrize("spec, digest", [
        (A100_SPEC,
         "a0f6709ea59b24b0a46fee3626f6157f4f40cd0ecd88e0a73850796b2c84c606"),
        (A100_SPEC.with_overrides(clock_ghz=1.0),
         "ffff7ff2a73efb0ac859b108e6cd83e6648e7ccdf8cf29b592d3aaafd38f6672"),
        (A100_SPEC.with_overrides(clock_ghz=1),
         "6d3190b32c48c8364f895f04c4b61f3484f4cd17dc0afc5e2d13d49a5ddad331"),
    ])
    def test_compile_fingerprint_is_pinned(self, spec, digest):
        for _ in range(2):  # cold memo, then warm
            request = CompileRequest.build(domains.heat_2d(), (64, 64),
                                           backend="tcu-sim",
                                           boundary="periodic", spec=spec)
            assert request.fingerprint == digest

    def test_memoized_spec_matches_its_canonical_form(self):
        specs = [A100_SPEC, A100_SPEC.with_overrides(clock_ghz=1),
                 A100_SPEC.with_overrides(clock_ghz=1.0),
                 A100_SPEC.with_overrides(ffma_tflops=-0.0),
                 A100_SPEC.with_overrides(ffma_tflops=0.0)]
        for spec in specs + specs[::-1]:
            assert (fingerprint_module._canon_spec(spec)
                    == fingerprint_module._canon(dataclasses.asdict(spec)))
