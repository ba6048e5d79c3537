"""Ablation benchmark (extension): grammar and search-pressure ablations.

Beyond the paper's own evaluation, this benchmark quantifies what the two
key design choices buy on the OTA data:

* the canonical-form grammar vs an unrestricted plain-GP baseline;
* the full function set vs rational-only and polynomial-only restrictions.

Results are written to ``benchmarks/output/ablation.txt``.  The timed section
is one plain-GP run (the baseline's unit of work) on the SRp dataset.
"""

from __future__ import annotations

from repro.core.session import Session
from repro.core.settings import CaffeineSettings
from repro.experiments.ablation import ablation_problems, run_ablation
from repro.gp.regression import PlainGPSettings, run_plain_gp

from conftest import write_output


def test_ablation_grammar_and_baseline(benchmark, bench_datasets):
    settings = CaffeineSettings(population_size=40, n_generations=12,
                                random_seed=7)
    problems = ablation_problems(bench_datasets, settings, "SRp")
    results = Session(problems, settings=settings).run().raise_failures()
    ablation = run_ablation(bench_datasets, settings, results.results,
                            target="SRp")
    write_output("ablation.txt", ablation.render())

    full = ablation.entry("CAFFEINE (full grammar)")
    plain = ablation.entry("plain GP (no grammar)")
    rationals = ablation.entry("CAFFEINE (rationals)")

    # The grammar-constrained search must be at least as accurate on unseen
    # data as unrestricted GP at a comparable budget.
    assert full.test_error <= plain.test_error * 1.5
    # Restricting to rationals keeps SRp accuracy (its ground truth is
    # rational), demonstrating the "turn off rules" workflow.
    assert rationals.test_error <= 0.25

    # Timed section: one plain-GP baseline run.
    train, test = bench_datasets.for_target("SRp")
    gp_settings = PlainGPSettings(population_size=30, n_generations=5,
                                  random_seed=0)
    benchmark(lambda: run_plain_gp(train, test, gp_settings))
