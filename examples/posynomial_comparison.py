#!/usr/bin/env python3
"""CAFFEINE vs posynomial models (the paper's Figure 4 comparison).

For a selection of OTA performances this example fits the posynomial baseline
(Daems-style fixed monomial template, non-negative least squares) and runs
CAFFEINE, then compares training and testing errors.  The expected outcome,
as in the paper: the template-free CAFFEINE models predict unseen (interpolation)
data substantially better, while being far more compact.

Run with::

    python examples/posynomial_comparison.py
    python examples/posynomial_comparison.py ALF fu PM      # choose targets
"""

from __future__ import annotations

import sys

from repro.core import CaffeineSettings, Session
from repro.experiments import generate_ota_datasets, run_figure4
from repro.experiments.setup import problems_for_targets


def main(targets) -> None:
    datasets = generate_ota_datasets()
    settings = CaffeineSettings(population_size=80, n_generations=30, random_seed=1)

    print(f"Comparing CAFFEINE and posynomial models on: {', '.join(targets)}\n")
    results = Session(problems_for_targets(datasets, targets),
                      settings=settings).run().raise_failures().results
    comparison = run_figure4(datasets, results, targets=targets)
    print(comparison.render())

    print("\nModel sizes and expressions:")
    for row in comparison.rows:
        caffeine = row.caffeine_model
        posynomial = row.posynomial_model
        print(f"\n[{row.target}]")
        print(f"  CAFFEINE   ({caffeine.n_bases} bases): {caffeine.expression()}")
        print(f"  posynomial ({posynomial.n_terms} monomials): "
              f"{posynomial.expression(max_terms=6)}")

    wins = comparison.caffeine_wins()
    print(f"\nCAFFEINE has the lower testing error on {len(wins)} of "
          f"{len(comparison.rows)} performances: {', '.join(wins) or 'none'}")


if __name__ == "__main__":
    selected = sys.argv[1:] or ["ALF", "PM", "SRp"]
    main(selected)
