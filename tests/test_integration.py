"""End-to-end integration tests: the paper's flow on the OTA substrate.

These exercise the complete pipeline -- DOE sampling, circuit simulation,
CAFFEINE with simplification, posynomial baseline, experiment drivers -- with
small but non-trivial budgets, and assert the qualitative findings of the
paper's evaluation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.session import Session
from repro.core.settings import CaffeineSettings
from repro.experiments import run_figure4, run_table1
from repro.experiments.setup import problems_for_targets
from repro.posynomial import fit_posynomial


@pytest.fixture(scope="module")
def settings():
    # Seed 1 yields a rich (5-model) SRp trade-off at this small budget under
    # the corrected distinct-index tournament selection; the qualitative
    # assertions below hold across seeds, but richer fronts make them sharper.
    return CaffeineSettings(population_size=50, n_generations=15, random_seed=1)


@pytest.fixture(scope="module")
def srp_result(ota_datasets_full, settings):
    return Session(problems_for_targets(ota_datasets_full, ("SRp",)),
                   settings=settings).run().single()


class TestEndToEndSlewRate:
    def test_tradeoff_spans_constant_to_accurate(self, srp_result):
        tradeoff = srp_result.tradeoff
        assert len(tradeoff) >= 3
        # The trade-off spans from a (near-)constant model with the highest
        # error to an accurate multi-basis model.
        assert tradeoff[0].complexity < tradeoff[-1].complexity
        assert tradeoff[0].train_error > tradeoff[-1].train_error

    def test_reaches_paper_accuracy_band(self, srp_result):
        """SRp must be modeled to < 10% train and test error (Table I row)."""
        eligible = srp_result.tradeoff.within_error(0.10, 0.10)
        assert not eligible.is_empty
        model = eligible.simplest()
        # Compact: a handful of basis functions, not dozens of terms.
        assert model.n_bases <= 6

    def test_testing_error_close_to_or_below_training_error(self, srp_result):
        """The interpolation effect the paper highlights."""
        best = srp_result.best_model(by="test")
        assert best.test_error <= best.train_error * 1.5

    def test_model_uses_physical_variables(self, srp_result):
        """Slew-rate models should be driven by the output-branch current."""
        best = srp_result.tradeoff.most_accurate(by="train")
        assert "id2" in best.used_variables() or "id1" in best.used_variables()

    def test_models_evaluate_on_fresh_points(self, srp_result, ota_datasets_full):
        train, test = ota_datasets_full.for_target("SRp")
        model = srp_result.best_model()
        predictions = model.predict(test.X)
        assert np.all(np.isfinite(predictions))
        # Predictions are in the physical range of the data (V/s, ~1e6..1e8).
        assert np.all(predictions > 1e5)
        assert np.all(predictions < 1e9)


class TestCaffeineVsPosynomial:
    def test_figure4_shape_on_two_targets(self, ota_datasets_full, settings,
                                          srp_result):
        figure4 = run_figure4(ota_datasets_full, settings, targets=("SRp", "ALF"),
                              results={"SRp": srp_result})
        for row in figure4.rows:
            assert row.caffeine_model.n_bases <= 15
            assert row.posynomial_model.n_terms >= row.caffeine_model.n_bases
        # CAFFEINE wins on at least one of the two performances even at this
        # reduced budget (the paper reports wins on 5 of 6).
        assert len(figure4.caffeine_wins()) >= 1

    def test_posynomial_alone_on_full_data(self, ota_datasets_full):
        train, test = ota_datasets_full.for_target("ALF")
        model = fit_posynomial(train, test)
        assert model.train_error < 0.10
        assert np.isfinite(model.test_error)


class TestTable1EndToEnd:
    def test_table1_satisfied_for_easy_targets(self, ota_datasets_full, settings,
                                               srp_result):
        table1 = run_table1(ota_datasets_full, settings, targets=("SRp",),
                            results={"SRp": srp_result})
        row = table1.row("SRp")
        assert row.satisfied
        assert row.model.train_error < 0.10
        assert row.model.test_error < 0.10
        # The expression is interpretable: it fits on a line of text.
        assert len(row.expression) < 300
