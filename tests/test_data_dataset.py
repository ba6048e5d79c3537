"""Unit tests for :mod:`repro.data.dataset`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import Dataset, train_test_from_doe


def make_dataset(n=10, d=3, target="perf"):
    rng = np.random.default_rng(0)
    X = rng.uniform(1.0, 2.0, size=(n, d))
    y = X[:, 0] + X[:, 1]
    names = tuple(f"x{i}" for i in range(d))
    return Dataset(X, y, names, target_name=target)


class TestConstruction:
    def test_basic_properties(self):
        dataset = make_dataset(n=12, d=4)
        assert dataset.n_samples == 12
        assert dataset.n_variables == 4
        assert len(dataset) == 12
        assert dataset.variable_names == ("x0", "x1", "x2", "x3")

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((5, 2)), np.ones(4), ("a", "b"))

    def test_rejects_wrong_name_count(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((5, 2)), np.ones(5), ("a",))

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            Dataset(np.ones((5, 2)), np.ones(5), ("a", "a"))

    def test_rejects_1d_x(self):
        with pytest.raises(ValueError):
            Dataset(np.ones(5), np.ones(5), ("a",))


class TestAccessors:
    def test_column_by_name(self):
        dataset = make_dataset()
        np.testing.assert_allclose(dataset.column("x1"), dataset.X[:, 1])

    def test_unknown_column_raises_keyerror(self):
        dataset = make_dataset()
        with pytest.raises(KeyError):
            dataset.column("nope")

    def test_variable_index(self):
        dataset = make_dataset(d=3)
        assert dataset.variable_index("x2") == 2


class TestTransformations:
    def test_log10_target(self):
        dataset = make_dataset()
        logged = dataset.log10_target()
        assert logged.log_scaled
        np.testing.assert_allclose(logged.y, np.log10(dataset.y))

    def test_log10_rejects_nonpositive(self):
        dataset = make_dataset()
        bad = dataset.with_target(dataset.y - dataset.y.max() - 1.0)
        with pytest.raises(ValueError):
            bad.log10_target()

    def test_with_target_keeps_x(self):
        dataset = make_dataset()
        replaced = dataset.with_target(dataset.y * 2, target_name="double")
        assert replaced.target_name == "double"
        np.testing.assert_allclose(replaced.X, dataset.X)

    def test_select_rows_mask_and_indices(self):
        dataset = make_dataset(n=10)
        by_index = dataset.select_rows([0, 2, 4])
        assert by_index.n_samples == 3
        mask = dataset.y > np.median(dataset.y)
        by_mask = dataset.select_rows(mask)
        assert by_mask.n_samples == int(mask.sum())

    def test_select_variables(self):
        dataset = make_dataset(d=4)
        selected = dataset.select_variables(["x3", "x0"])
        assert selected.variable_names == ("x3", "x0")
        np.testing.assert_allclose(selected.X[:, 0], dataset.X[:, 3])

    def test_drop_nonfinite(self):
        dataset = make_dataset(n=8)
        y = dataset.y.copy()
        y[2] = np.nan
        X = dataset.X.copy()
        X[5, 0] = np.inf
        dirty = Dataset(X, y, dataset.variable_names)
        cleaned = dirty.drop_nonfinite()
        assert cleaned.n_samples == 6
        assert np.all(np.isfinite(cleaned.X))
        assert np.all(np.isfinite(cleaned.y))

    def test_drop_nonfinite_noop_returns_same_object(self):
        dataset = make_dataset()
        assert dataset.drop_nonfinite() is dataset


class TestTrainTestValidation:
    def test_compatible_pair_is_cleaned(self):
        train = make_dataset(n=10)
        test = make_dataset(n=8)
        cleaned_train, cleaned_test = train_test_from_doe(train, test)
        assert cleaned_train.n_samples == 10
        assert cleaned_test.n_samples == 8

    def test_mismatched_variables_rejected(self):
        train = make_dataset(d=3)
        test = Dataset(np.ones((4, 3)), np.ones(4), ("u", "v", "w"))
        with pytest.raises(ValueError):
            train_test_from_doe(train, test)

    def test_mismatched_target_rejected(self):
        train = make_dataset(target="PM")
        test = make_dataset(target="ALF")
        with pytest.raises(ValueError):
            train_test_from_doe(train, test)

    def test_summary_mentions_target_and_counts(self):
        dataset = make_dataset(target="PM")
        text = dataset.summary()
        assert "PM" in text
        assert str(dataset.n_samples) in text
