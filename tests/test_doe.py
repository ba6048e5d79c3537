"""Unit tests for :mod:`repro.doe`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.doe import (
    DoePlan,
    centered_levels,
    orthogonal_array,
    orthogonal_hypercube,
    scale_design,
)

from oracles import is_orthogonal_array


class TestOrthogonalArray:
    def test_paper_design_243_runs_13_factors(self):
        design = orthogonal_array(13, levels=3, strength_exponent=5)
        assert design.shape == (243, 13)
        assert is_orthogonal_array(design, levels=3, strength=2)

    def test_small_design_is_orthogonal(self):
        # Four 3-level factors fit in the classic L9 array.
        design = orthogonal_array(4, levels=3)
        assert design.shape == (9, 4)
        assert is_orthogonal_array(design, levels=3, strength=2)

    def test_two_level_design(self):
        design = orthogonal_array(3, levels=2, strength_exponent=3)
        assert design.shape == (8, 3)
        assert is_orthogonal_array(design, levels=2, strength=2)

    def test_each_column_balanced(self):
        design = orthogonal_array(13, levels=3, strength_exponent=5)
        for column in design.T:
            counts = np.bincount(column, minlength=3)
            assert np.all(counts == 81)

    def test_too_many_factors_rejected(self):
        with pytest.raises(ValueError):
            orthogonal_array(5, levels=3, strength_exponent=2)  # max 4 columns

    def test_nonprime_levels_rejected(self):
        with pytest.raises(ValueError):
            orthogonal_array(3, levels=4)

    def test_is_orthogonal_array_detects_violation(self):
        design = orthogonal_array(4, levels=3)
        corrupted = design.copy()
        corrupted[0, 0] = (corrupted[0, 0] + 1) % 3
        assert not is_orthogonal_array(corrupted, levels=3, strength=2)


class TestOrthogonalHypercube:
    def test_n_runs_selected_automatically(self):
        design = orthogonal_hypercube(13, levels=3)
        assert design.shape == (27, 13)

    def test_explicit_n_runs(self):
        design = orthogonal_hypercube(13, levels=3, n_runs=243)
        assert design.shape == (243, 13)

    def test_invalid_n_runs(self):
        with pytest.raises(ValueError):
            orthogonal_hypercube(4, levels=3, n_runs=100)


class TestScaling:
    def test_centered_levels_three(self):
        design = np.array([[0, 1, 2]])
        np.testing.assert_allclose(centered_levels(design, 3), [[-1.0, 0.0, 1.0]])

    def test_scale_design_relative(self):
        design = np.array([[0, 1, 2]])
        scaled = scale_design(design, nominal=[10.0, 10.0, 10.0], dx=0.1)
        np.testing.assert_allclose(scaled, [[9.0, 10.0, 11.0]])

    def test_scale_rejects_negative_dx(self):
        with pytest.raises(ValueError):
            scale_design(np.zeros((1, 2), dtype=int), [1.0, 1.0], -0.1)

    def test_scale_rejects_wrong_nominal_length(self):
        with pytest.raises(ValueError):
            scale_design(np.zeros((1, 3), dtype=int), [1.0, 1.0], 0.1)


class TestDoePlan:
    def test_orthogonal_plan_matches_paper_setup(self):
        nominal = {f"v{i}": 1.0 for i in range(13)}
        plan = DoePlan.orthogonal(nominal, dx=0.1, n_runs=243)
        assert plan.n_runs == 243
        assert plan.n_factors == 13
        assert plan.variable_names == tuple(nominal.keys())
        # Each factor takes exactly three values: 0.9, 1.0 and 1.1.
        for j in range(plan.n_factors):
            values = np.unique(np.round(plan.points[:, j], 12))
            np.testing.assert_allclose(values, [0.9, 1.0, 1.1])

    def test_validation(self):
        with pytest.raises(ValueError):
            DoePlan(points=np.ones((3, 2)), variable_names=("a",),
                    nominal=(1.0, 1.0), dx=0.1)
