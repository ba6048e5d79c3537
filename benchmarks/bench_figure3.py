"""Figure 3 benchmark: error/complexity trade-off curves for all performances.

Regenerates, for each of the six OTA performances, the trade-off of training
error (qwc), testing error (qtc) and number of basis functions vs complexity,
plus the filtered testing-error trade-off (the rightmost column of the
paper's Figure 3).  The rendered series are written to
``benchmarks/output/figure3.txt``.

The timed section is one NSGA-II generation of the CAFFEINE engine on the PM
dataset -- the unit of work whose repetition makes up a full Figure 3 run.
"""

from __future__ import annotations


from repro.core.engine import CaffeineEngine
from repro.core.settings import CaffeineSettings
from repro.experiments.figure3 import Figure3Result, _series_from_result

from conftest import ALL_TARGETS, write_output


def test_figure3_tradeoffs(benchmark, bench_datasets, bench_results):
    # ------------------------------------------------------------------
    # Regenerate the Figure 3 series from the shared CAFFEINE runs.
    # ------------------------------------------------------------------
    series = {target: _series_from_result(target, bench_results[target])
              for target in ALL_TARGETS}
    figure3 = Figure3Result(series=series, results=bench_results)
    write_output("figure3.txt", figure3.render())

    # Qualitative shape checks mirroring the paper's discussion.
    for target in ALL_TARGETS:
        data = series[target]
        assert data.n_models >= 3, f"{target}: too few models in the trade-off"
        # The least complex model has the highest training error; the most
        # complex models reach the lowest.
        assert data.constant_model_train_error == max(data.train_error)
        assert data.best_train_error == data.train_error[-1]
        # Testing error is not monotone, so the test trade-off is a strict
        # subset for at least one performance overall.
    assert any(len(s.test_tradeoff_indices) < s.n_models for s in series.values())

    # ------------------------------------------------------------------
    # Timed section: one evolutionary generation on the PM data.
    # ------------------------------------------------------------------
    train, test = bench_datasets.for_target("PM")
    step_settings = CaffeineSettings(population_size=40, n_generations=1,
                                     random_seed=0)
    engine = CaffeineEngine(train, test=test, settings=step_settings)
    engine.initialize_population()

    generation_counter = {"value": 0}

    def one_generation():
        generation_counter["value"] += 1
        engine.step(generation_counter["value"])

    benchmark(one_generation)
