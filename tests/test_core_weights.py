"""Unit tests for weight terminals and their transform/mutation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.weights import (
    Weight,
    cauchy_mutated_value,
    format_number,
    inverse_transform_value,
    transform_stored_value,
)


class TestTransform:
    def test_zero_maps_to_zero(self):
        assert transform_stored_value(0.0) == 0.0

    def test_positive_range_endpoints(self):
        bound = 10.0
        assert transform_stored_value(2 * bound, bound) == pytest.approx(1e10)
        assert transform_stored_value(1e-9, bound) == pytest.approx(1e-10, rel=1e-6)

    def test_negative_range_endpoints(self):
        bound = 10.0
        assert transform_stored_value(-2 * bound, bound) == pytest.approx(-1e10)
        assert transform_stored_value(-1e-9, bound) == pytest.approx(-1e-10, rel=1e-6)

    def test_midpoint_maps_to_one(self):
        assert transform_stored_value(10.0, 10.0) == pytest.approx(1.0)
        assert transform_stored_value(-10.0, 10.0) == pytest.approx(-1.0)

    def test_out_of_range_stored_is_clipped(self):
        assert transform_stored_value(50.0, 10.0) == pytest.approx(1e10)

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            transform_stored_value(1.0, exponent_bound=0.0)

    def test_inverse_round_trip(self):
        for value in (1e-7, 3.5, -42.0, -1e8):
            stored = inverse_transform_value(value)
            assert transform_stored_value(stored) == pytest.approx(value, rel=1e-9)

    def test_inverse_of_zero(self):
        assert inverse_transform_value(0.0) == 0.0


class TestWeight:
    def test_value_respects_bound(self):
        weight = Weight(stored=25.0, exponent_bound=10.0)
        assert weight.stored == pytest.approx(20.0)
        assert weight.value == pytest.approx(1e10)

    def test_from_value(self):
        weight = Weight.from_value(186.6)
        assert weight.value == pytest.approx(186.6, rel=1e-9)

    def test_random_within_range(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            weight = Weight.random(rng)
            assert -20.0 <= weight.stored <= 20.0
            assert weight.value == 0.0 or 1e-10 <= abs(weight.value) <= 1e10

    def test_copy_is_independent(self):
        weight = Weight(stored=5.0)
        copy = weight.copy()
        copy.stored = 1.0
        assert weight.stored == 5.0

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            Weight(stored=1.0, exponent_bound=-1.0)


class TestCauchyMutation:
    def test_mutation_stays_in_range(self):
        rng = np.random.default_rng(1)
        weight = Weight(stored=0.0)
        for _ in range(200):
            weight = weight.mutated(rng)
            assert -20.0 <= weight.stored <= 20.0

    def test_mutation_changes_value_eventually(self):
        rng = np.random.default_rng(2)
        weight = Weight(stored=3.0)
        mutated = [weight.mutated(rng).stored for _ in range(20)]
        assert any(abs(m - 3.0) > 1e-6 for m in mutated)

    def test_heavy_tail_produces_large_jumps(self):
        """Cauchy mutation must occasionally make jumps far beyond the scale."""
        rng = np.random.default_rng(3)
        jumps = [abs(cauchy_mutated_value(0.0, 1.0, rng)) for _ in range(500)]
        assert max(jumps) > 5.0

    def test_invalid_scale(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            cauchy_mutated_value(0.0, 0.0, rng)

    def test_original_not_modified(self):
        rng = np.random.default_rng(4)
        weight = Weight(stored=2.0)
        weight.mutated(rng)
        assert weight.stored == 2.0


class TestFormatting:
    def test_moderate_numbers_plain(self):
        assert format_number(90.5) == "90.5"
        assert format_number(0.04) == "0.04"

    def test_extreme_numbers_scientific(self):
        assert "e" in format_number(2.36e7)
        assert "e" in format_number(-2.05e-3 / 10)

    def test_zero(self):
        assert format_number(0.0) == "0"

    def test_render_matches_format(self):
        weight = Weight.from_value(190.6)
        assert weight.render() == format_number(190.6)


class TestTransformClipBitEquivalence:
    """The branch-based clip in transform_stored_value replicates np.clip
    bit for bit -- the property its docstring promises."""

    @staticmethod
    def _np_clip_reference(stored, bound):
        """The pre-optimization implementation (np.clip-based)."""
        clipped = float(np.clip(stored, -2.0 * bound, 2.0 * bound))
        if clipped == 0.0:
            return 0.0
        if clipped > 0:
            return 10.0 ** (clipped - bound)
        return -(10.0 ** (-clipped - bound))

    def test_matches_np_clip_reference_bitwise(self):
        import math

        from hypothesis import given, settings as hyp_settings
        from hypothesis import strategies as st

        edge_values = [0.0, -0.0, 20.0, -20.0, 20.000000001, -20.000000001,
                       1e-300, -1e-300, float("nan"), float("inf"),
                       float("-inf"), math.nextafter(0.0, 1.0),
                       math.nextafter(0.0, -1.0)]

        # bound <= 300 keeps 10**bound finite: larger bounds overflow in
        # Python pow identically in both implementations (pre-existing).
        @hyp_settings(max_examples=300, deadline=None)
        @given(stored=st.one_of(st.sampled_from(edge_values),
                                st.floats(width=64, allow_nan=True,
                                          allow_infinity=True)),
               bound=st.one_of(st.just(10.0),
                               st.floats(min_value=0.5, max_value=300.0)))
        def run(stored, bound):
            ours = transform_stored_value(stored, bound)
            reference = self._np_clip_reference(stored, bound)
            assert np.float64(ours).tobytes() == \
                np.float64(reference).tobytes(), (stored, bound)

        run()


class TestWeightClipBitEquivalence:
    """``Weight`` construction and ``cauchy_mutated_value`` clip with the
    same branches as the transform, bit for bit ``float(np.clip(...))``."""

    @staticmethod
    def _edge_values():
        import math

        edges = [0.0, -0.0, float("nan"), float("inf"), float("-inf"),
                 1e-300, -1e-300]
        for bound in (10.0, 2.5):
            for limit in (2.0 * bound, -2.0 * bound):
                edges += [limit, math.nextafter(limit, math.inf),
                          math.nextafter(limit, -math.inf)]
        return edges

    class _StubRng:
        """Stands in for the generator: ``standard_cauchy`` returns the
        given draw."""

        def __init__(self, draw):
            self.draw = draw

        def standard_cauchy(self):
            return self.draw

    @staticmethod
    def _same_bits(ours, reference):
        return type(ours) is float and \
            np.float64(ours).tobytes() == np.float64(reference).tobytes()

    def test_weight_stored_matches_np_clip(self):
        from hypothesis import given, settings as hyp_settings
        from hypothesis import strategies as st

        @hyp_settings(max_examples=400, deadline=None)
        @given(stored=st.one_of(st.sampled_from(self._edge_values()),
                                st.floats(width=64)),
               bound=st.one_of(st.sampled_from([10.0, 2.5]),
                               st.floats(min_value=1e-3, max_value=1e3)))
        def run(stored, bound):
            ours = Weight(stored=stored, exponent_bound=bound).stored
            reference = float(np.clip(stored, -2.0 * bound, 2.0 * bound))
            assert self._same_bits(ours, reference), (stored, bound)

        run()

    def test_cauchy_mutated_value_matches_np_clip(self):
        from hypothesis import given, settings as hyp_settings
        from hypothesis import strategies as st

        values = st.one_of(st.sampled_from(self._edge_values()),
                           st.floats(width=64))

        @hyp_settings(max_examples=400, deadline=None)
        @given(stored=values, draw=values,
               scale=st.sampled_from([1.0, 0.3, 7.0]),
               bound=st.sampled_from([10.0, 2.5]))
        def run(stored, draw, scale, bound):
            ours = cauchy_mutated_value(stored, scale, self._StubRng(draw),
                                        bound)
            reference = float(np.clip(stored + scale * draw,
                                      -2.0 * bound, 2.0 * bound))
            assert self._same_bits(ours, reference), (stored, draw, scale)

        run()

    def test_nan_exponent_bound_rejected(self):
        with pytest.raises(ValueError, match="exponent_bound"):
            Weight(stored=1.0, exponent_bound=float("nan"))
