"""Pareto-kernel benchmark: vectorized vs. pure-Python NSGA-II ranking.

``fast_nondominated_sort`` was the engine's hottest remaining pure-Python
path (O(N^2) ``dominates`` calls per generation); the vectorized kernels in
:mod:`repro.core.pareto` replace it.  The pure-Python reference they are
checked against lives in ``tests/oracles.py``.  This benchmark measures full NSGA-II ranking (sort +
per-front crowding, i.e. ``rank_population``) at population scales 100, 500
and 2000 on objective vectors shaped like the engine's (a 2-D
error/complexity cloud including duplicate points and ``inf`` markers for
infeasible individuals).

Both are verified to produce identical fronts and crowding values before
any number is reported.  Emits ``benchmarks/output/bench_pareto.json``
(schema in ``benchmarks/README.md``) recording sorts/sec per implementation
and scale.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from typing import Tuple

import numpy as np

from repro.core.nsga2 import rank_population
from repro.core.pareto import crowding_distances, fast_nondominated_sort

import oracles
from conftest import write_output

#: Population scales at which sort throughput is recorded.
POPULATION_SIZES = (100, 500, 2000)

#: The vectorized kernels must never lose to pure Python at engine scales.
#: ``BENCH_RELAX_SPEEDUP_GATES=1`` (CI's shared noisy runners) disables the
#: wall-clock gate; the identical-results checks always hold.
MIN_SPEEDUP = 0.0 if os.environ.get("BENCH_RELAX_SPEEDUP_GATES") == "1" \
    else 1.0


@dataclasses.dataclass
class _Point:
    objectives: Tuple[float, float]


def _engine_like_vectors(n: int, rng: np.random.Generator):
    """A 2-objective population shaped like the engine's: a correlated
    error/complexity cloud, some exact duplicates (clones) and some
    infeasible (infinite-error) individuals."""
    complexity = rng.integers(1, 16, size=n) * 10.0 + \
        rng.integers(0, 8, size=n) * 0.25
    error = np.exp(rng.normal(-2.0, 1.0, size=n)) + 0.001 * complexity
    vectors = [(float(e), float(c)) for e, c in zip(error, complexity, strict=True)]
    for index in rng.integers(0, n, size=n // 10):  # clones
        vectors[int(index)] = vectors[0]
    for index in rng.integers(0, n, size=n // 20):  # infeasible
        vectors[int(index)] = (float("inf"), vectors[int(index)][1])
    return vectors


def _time_callable(function, repeats: int) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        function()
    return (time.perf_counter() - start) / repeats


def test_pareto_sort_throughput(benchmark):
    rng = np.random.default_rng(2005)
    report = {"workload": "error/complexity cloud with duplicates and inf",
              "scales": []}
    identical_per_scale = []
    for n in POPULATION_SIZES:
        vectors = _engine_like_vectors(n, rng)
        population = [_Point(v) for v in vectors]

        # Identical results before any timing is believed; the outcome is
        # recorded in the report (for the CI trajectory gate) and asserted
        # after the JSON is written.
        python_fronts = oracles.fast_nondominated_sort(vectors)
        numpy_fronts = fast_nondominated_sort(vectors)
        identical = numpy_fronts == python_fronts
        for front in python_fronts:
            front_vectors = [vectors[i] for i in front]
            identical = identical and \
                crowding_distances(front_vectors) == \
                oracles.crowding_distances(front_vectors)
        identical_per_scale.append(identical)

        repeats = max(1, 2000 // n)
        with oracles.reference_layers("pareto"):
            python_seconds = _time_callable(
                lambda: rank_population(population), repeats)
        numpy_seconds = _time_callable(
            lambda: rank_population(population), repeats)
        entry = {
            "population_size": n,
            "n_fronts": len(python_fronts),
            "python_seconds": round(python_seconds, 6),
            "python_sorts_per_second": round(1.0 / python_seconds, 2),
            "numpy_seconds": round(numpy_seconds, 6),
            "numpy_sorts_per_second": round(1.0 / numpy_seconds, 2),
            "speedup": round(python_seconds / numpy_seconds, 2),
        }
        report["scales"].append(entry)

    report["equivalence"] = {"verified": all(identical_per_scale)}
    write_output("bench_pareto.json", json.dumps(report, indent=2))

    assert report["equivalence"]["verified"], \
        "vectorized NSGA-II kernels diverged from the pure-Python reference"
    for entry in report["scales"]:
        assert entry["speedup"] >= MIN_SPEEDUP, \
            (f"vectorized ranking lost to pure Python at "
             f"n={entry['population_size']}: "
             f"{entry['speedup']}x < {MIN_SPEEDUP}x")

    # Timed section: one full NSGA-II ranking at the largest scale.
    largest = [_Point(v)
               for v in _engine_like_vectors(POPULATION_SIZES[-1], rng)]

    def rank_largest():
        rank_population(largest)

    benchmark(rank_largest)
