"""Tests for the experiment drivers (Figure 3, Tables I/II, Figure 4, ablation).

These run with tiny budgets; they verify plumbing and the qualitative shape
of the results rather than absolute numbers (the benchmark harness under
``benchmarks/`` produces the paper-style outputs).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.session import Session
from repro.core.settings import CaffeineSettings
from repro.experiments import (
    generate_ota_datasets,
    run_ablation,
    run_figure3,
    run_figure4,
    run_table1,
    run_table2,
)
from repro.experiments.ablation import ablation_problems
from repro.experiments.setup import (
    LOG_SCALED_TARGETS,
    normalize_targets,
    problems_for_targets,
)


@pytest.fixture(scope="module")
def tiny_settings():
    return CaffeineSettings(population_size=24, n_generations=6,
                            max_basis_functions=6, random_seed=0)


@pytest.fixture(scope="module")
def shared_results(ota_datasets, tiny_settings):
    """One CAFFEINE run per target, shared by the driver tests."""
    targets = ("PM", "SRp")
    outcome = Session(problems_for_targets(ota_datasets, targets),
                      settings=tiny_settings).run()
    return dict(outcome.raise_failures().items())


class TestSetup:
    def test_dataset_generation_shapes(self, ota_datasets):
        assert set(ota_datasets.performance_names) == \
            {"ALF", "fu", "PM", "voffset", "SRp", "SRn"}
        train, test = ota_datasets.for_target("ALF")
        assert train.n_variables == 13
        assert train.n_samples > 0 and test.n_samples > 0
        assert train.variable_names == test.variable_names

    def test_paper_sized_datasets(self, ota_datasets_full):
        train, test = ota_datasets_full.for_target("PM")
        assert train.n_samples == 243
        assert test.n_samples == 243

    def test_fu_is_log_scaled(self, ota_datasets):
        train, _ = ota_datasets.for_target("fu")
        assert "fu" in LOG_SCALED_TARGETS
        assert train.log_scaled

    def test_train_and_test_steps_differ(self, ota_datasets):
        assert ota_datasets.train_dx > ota_datasets.test_dx

    def test_unknown_target_rejected(self, ota_datasets):
        with pytest.raises(KeyError):
            ota_datasets.for_target("gain_margin")

    def test_invalid_dx_rejected(self):
        with pytest.raises(ValueError):
            generate_ota_datasets(train_dx=-0.1)

    def test_summary_renders(self, ota_datasets):
        assert "PM" in ota_datasets.summary()

    def test_normalize_targets(self, ota_datasets):
        assert normalize_targets(None) == \
            ("ALF", "fu", "PM", "voffset", "SRp", "SRn")
        assert normalize_targets(["SRp", "PM", "SRp"]) == ("SRp", "PM")
        problems = problems_for_targets(ota_datasets, ("SRp", "PM", "SRp"))
        assert [problem.name for problem in problems] == ["SRp", "PM"]
        with pytest.raises(ValueError, match="'XYZ'; known: ALF, fu"):
            normalize_targets(["PM", "XYZ"])
        with pytest.raises(ValueError, match="no performance selected"):
            normalize_targets([])


class TestFigure3:
    def test_series_shape(self, ota_datasets, tiny_settings, shared_results):
        figure3 = run_figure3(ota_datasets, tiny_settings, targets=("PM",))
        series = figure3.series["PM"]
        assert series.n_models == len(figure3.results["PM"].tradeoff)
        assert len(series.train_error) == series.n_models
        assert len(series.test_error) == series.n_models
        assert len(series.n_bases) == series.n_models
        # Complexity is sorted ascending, training error non-increasing.
        assert list(series.complexity) == sorted(series.complexity)
        assert list(series.train_error) == sorted(series.train_error, reverse=True)

    def test_constant_end_of_tradeoff_has_highest_error(self, ota_datasets,
                                                        tiny_settings):
        figure3 = run_figure3(ota_datasets, tiny_settings, targets=("SRp",))
        series = figure3.series["SRp"]
        assert series.constant_model_train_error >= series.best_train_error

    def test_render_mentions_both_tradeoffs(self, ota_datasets, tiny_settings):
        figure3 = run_figure3(ota_datasets, tiny_settings, targets=("SRp",))
        text = figure3.render()
        assert "training-error trade-off" in text
        assert "testing-error trade-off" in text


class TestTable1:
    def test_duplicate_targets_give_one_row(self, ota_datasets, tiny_settings,
                                            shared_results):
        table1 = run_table1(ota_datasets, tiny_settings,
                            targets=("SRp", "PM", "SRp"),
                            results=shared_results)
        assert [row.target for row in table1.rows] == ["SRp", "PM"]
        figure4 = run_figure4(ota_datasets, tiny_settings,
                              targets=("SRp", "SRp"), results=shared_results)
        assert [row.target for row in figure4.rows] == ["SRp"]
        figure3 = run_figure3(ota_datasets, tiny_settings,
                              targets=("PM", "PM"), results=shared_results)
        assert figure3.targets == ("PM",)

    def test_rows_for_all_requested_targets(self, ota_datasets, tiny_settings,
                                            shared_results):
        table1 = run_table1(ota_datasets, tiny_settings,
                            targets=("PM", "SRp"), results=shared_results)
        assert {row.target for row in table1.rows} == {"PM", "SRp"}
        row = table1.row("SRp")
        if row.satisfied:
            assert row.model.train_error <= table1.error_target
            assert row.model.test_error <= table1.error_target

    def test_srp_meets_ten_percent_with_small_budget(self, ota_datasets,
                                                     tiny_settings,
                                                     shared_results):
        """SRp is nearly linear in id2, so even a tiny run finds a <10% model."""
        table1 = run_table1(ota_datasets, tiny_settings, targets=("SRp",),
                            results=shared_results)
        assert table1.row("SRp").satisfied

    def test_render_contains_expressions(self, ota_datasets, tiny_settings,
                                         shared_results):
        table1 = run_table1(ota_datasets, tiny_settings, targets=("SRp",),
                            results=shared_results)
        assert "Table I" in table1.render()


class TestTable2:
    def test_models_ordered_by_complexity(self, shared_results):
        table2 = run_table2(result=shared_results["PM"], target="PM")
        complexities = [m.complexity for m in table2.models]
        assert complexities == sorted(complexities)
        assert table2.n_models >= 1

    def test_errors_roughly_decrease(self, shared_results):
        table2 = run_table2(result=shared_results["PM"], target="PM")
        assert table2.errors_decrease_with_complexity()

    def test_render(self, shared_results):
        table2 = run_table2(result=shared_results["PM"], target="PM")
        assert "Table II" in table2.render()


class TestFigure4:
    def test_comparison_rows(self, ota_datasets, tiny_settings, shared_results):
        figure4 = run_figure4(ota_datasets, tiny_settings, targets=("PM", "SRp"),
                              results=shared_results)
        assert len(figure4.rows) == 2
        for row in figure4.rows:
            assert np.isfinite(row.caffeine_train)
            assert np.isfinite(row.posynomial_train)
            assert row.posynomial_model.n_terms > 0
        assert "Figure 4" in figure4.render()

    def test_caffeine_wins_listed(self, ota_datasets, tiny_settings, shared_results):
        figure4 = run_figure4(ota_datasets, tiny_settings, targets=("PM", "SRp"),
                              results=shared_results)
        for target in figure4.caffeine_wins():
            row = figure4.row(target)
            assert row.caffeine_test < row.posynomial_test


class TestAblation:
    def test_all_approaches_present(self, ota_datasets):
        settings = CaffeineSettings(population_size=20, n_generations=4,
                                    random_seed=0)
        ablation = run_ablation(ota_datasets, settings, target="SRp",
                                include_single_objective=False)
        approaches = {entry.approach for entry in ablation.entries}
        assert "CAFFEINE (full grammar)" in approaches
        assert "CAFFEINE (rationals)" in approaches
        assert "CAFFEINE (polynomials)" in approaches
        assert "plain GP (no grammar)" in approaches
        assert "Ablation" in ablation.render()
        for entry in ablation.entries:
            assert np.isfinite(entry.train_error)

    def test_finished_variants_are_not_rerun(self, ota_datasets,
                                             monkeypatch):
        settings = CaffeineSettings(population_size=20, n_generations=3,
                                    random_seed=0)
        problems = ablation_problems(ota_datasets, settings, "SRp",
                                     include_single_objective=False)
        assert [problem.name for problem in problems] == [
            "CAFFEINE (full grammar)", "CAFFEINE (rationals)",
            "CAFFEINE (polynomials)"]
        results = Session(problems, settings=settings).run().results
        reference = run_ablation(ota_datasets, settings, target="SRp",
                                 include_single_objective=False)

        def no_session(*_args, **_kwargs):
            raise AssertionError("a finished variant ran again")

        monkeypatch.setattr("repro.experiments.setup.Session", no_session)
        reused = run_ablation(ota_datasets, settings, target="SRp",
                              include_single_objective=False,
                              results=results)
        assert reused.render() == reference.render()

    def test_unknown_target_rejected(self, ota_datasets):
        with pytest.raises(ValueError, match="unknown performance 'XYZ'"):
            ablation_problems(ota_datasets, CaffeineSettings(), "XYZ")
