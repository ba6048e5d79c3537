"""Shared fixtures for the benchmark harness.

The expensive artifacts (the OTA datasets and one CAFFEINE run per
performance) are computed once per session with a reduced-but-representative
budget; each ``bench_*`` module then regenerates its table or figure from
them, prints it, writes it to ``benchmarks/output/`` and benchmarks a
representative piece of the computation.

The budgets here are deliberately far below the paper's (population 200 x
5000 generations, ~12 h per performance); the goal is to reproduce the shape
of every result in minutes on a laptop.  Pass the full budgets through
``CaffeineSettings.paper_settings()`` if you want to spend the hours.
"""

from __future__ import annotations

import pathlib
import sys

import pytest

from repro.core.session import Session
from repro.core.settings import CaffeineSettings
from repro.experiments.setup import generate_ota_datasets, problems_for_targets

#: Output directory for the rendered tables/figures.
OUTPUT_DIR = pathlib.Path(__file__).parent / "output"

# The reference implementations every production layer is checked against
# live with the tests (tests/oracles.py).  Appended, not prepended, so this
# directory's own conftest stays the one ``from conftest import`` finds.
sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "tests"))

#: Evolutionary budget used by the benchmark harness.
BENCH_SETTINGS = CaffeineSettings(
    population_size=80,
    n_generations=30,
    max_basis_functions=15,
    random_seed=2005,
)

#: All six performances of the paper's experiments.
ALL_TARGETS = ("ALF", "fu", "PM", "voffset", "SRp", "SRn")


def write_output(name: str, text: str) -> None:
    """Persist a rendered table/figure and echo it to stdout."""
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUTPUT_DIR / name
    path.write_text(text + "\n")
    print(f"\n# --- {name} ---")
    print(text)


@pytest.fixture(scope="session")
def bench_settings() -> CaffeineSettings:
    return BENCH_SETTINGS


@pytest.fixture(scope="session")
def bench_datasets():
    """The paper's 243-sample train (dx=0.10) / test (dx=0.03) datasets."""
    return generate_ota_datasets()


@pytest.fixture(scope="session")
def bench_results(bench_datasets, bench_settings):
    """One CAFFEINE run per performance goal, shared by all benchmarks."""
    outcome = Session(problems_for_targets(bench_datasets, ALL_TARGETS),
                      settings=bench_settings).run()
    return dict(outcome.raise_failures().items())
