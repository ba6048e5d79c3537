"""Ablation experiments (extensions beyond the paper's evaluation).

The paper argues that two ingredients make template-free symbolic modeling
work: the canonical-form grammar (interpretability without losing
expressiveness) and the multi-objective error/complexity search.  These
ablations quantify both on the OTA data:

* **plain GP vs CAFFEINE** -- an unrestricted single-tree GP baseline with a
  comparable evaluation budget; its models are larger (node count) and no
  more accurate on test data;
* **restricted grammars** -- CAFFEINE with the function set cut down to
  rationals or polynomials, measuring what the nonlinear operators buy;
* **single-objective CAFFEINE** -- error-only search (complexity ignored),
  which shows the trade-off pressure is what keeps models compact.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Tuple

from repro.core.engine import CaffeineResult
from repro.core.functions import polynomial_function_set, rational_function_set
from repro.core.problem import Problem
from repro.core.settings import CaffeineSettings
from repro.experiments.setup import OtaDatasets, normalize_targets
from repro.gp.regression import PlainGPResult, PlainGPSettings, run_plain_gp

__all__ = ["AblationEntry", "AblationResult", "ablation_problems",
           "run_ablation"]


@dataclasses.dataclass(frozen=True)
class AblationEntry:
    """Summary of one modeling approach on one target."""

    approach: str
    target: str
    train_error: float
    test_error: float
    model_size: float
    expression: str

    def render(self) -> str:
        return (f"{self.approach:>22} [{self.target}]  "
                f"train {100 * self.train_error:6.2f}%  "
                f"test {100 * self.test_error:6.2f}%  "
                f"size {self.model_size:6.1f}  {self.expression[:70]}")


@dataclasses.dataclass(frozen=True)
class AblationResult:
    """All ablation entries for one target."""

    target: str
    entries: Tuple[AblationEntry, ...]

    def entry(self, approach: str) -> AblationEntry:
        for item in self.entries:
            if item.approach == approach:
                return item
        raise KeyError(f"no ablation entry for {approach!r}")

    def render(self) -> str:
        header = f"Ablation study on {self.target}"
        return "\n".join([header] + [entry.render() for entry in self.entries])


def _entry_from_caffeine(approach: str, target: str,
                         result: CaffeineResult) -> AblationEntry:
    model = result.best_model(by="test")
    return AblationEntry(
        approach=approach,
        target=target,
        train_error=model.train_error,
        test_error=model.test_error,
        model_size=float(sum(basis.n_nodes for basis in model.bases)),
        expression=model.expression(),
    )


def _entry_from_plain_gp(target: str, result: PlainGPResult) -> AblationEntry:
    best = result.best
    return AblationEntry(
        approach="plain GP (no grammar)",
        target=target,
        train_error=best.train_error,
        test_error=best.test_error,
        model_size=float(best.size),
        expression=best.expression(),
    )


def ablation_problems(datasets: OtaDatasets, settings: CaffeineSettings,
                      target: str = "PM",
                      include_single_objective: bool = True
                      ) -> Tuple[Problem, ...]:
    """The CAFFEINE variants of the ablation study on one performance,
    as per-problem-settings :class:`~repro.core.problem.Problem`\\ s
    named after their approach."""
    normalize_targets((target,))  # an unknown target raises here
    train, test = datasets.for_target(target)

    # The four CAFFEINE variants evaluate on the same X; the session's
    # shared (fingerprinted) column cache lets runs with the same function
    # set (full grammar and error-only) reuse each other's columns.  The
    # rational/polynomial variants hash to their own namespaces -- cache
    # keys identify operators by name, so cross-set reuse is only enabled
    # between provably identical operator bindings.
    variants = [
        Problem(train=train, test=test, name="CAFFEINE (full grammar)",
                settings=settings),
        Problem(train=train, test=test, name="CAFFEINE (rationals)",
                settings=settings.copy(function_set=rational_function_set())),
        Problem(train=train, test=test, name="CAFFEINE (polynomials)",
                settings=settings.copy(
                    function_set=polynomial_function_set())),
    ]
    if include_single_objective:
        # Error-only pressure: make complexity essentially free so that
        # the multi-objective machinery degenerates to single-objective
        # search.
        variants.append(Problem(
            train=train, test=test, name="CAFFEINE (error-only)",
            settings=settings.copy(basis_function_cost=0.0,
                                   vc_exponent_cost=0.0)))
    return tuple(variants)


def run_ablation(datasets: OtaDatasets, settings: CaffeineSettings,
                 results: Mapping[str, CaffeineResult],
                 target: str = "PM",
                 include_single_objective: bool = True) -> AblationResult:
    """The ablation study for one OTA performance.

    ``results`` holds the finished runs of the :func:`ablation_problems`
    variants keyed by name; the plain-GP baseline runs here, at the budget
    of ``settings``.
    """
    variants = ablation_problems(datasets, settings, target,
                                 include_single_objective)
    entries = [_entry_from_caffeine(p.name, target, results[p.name])
               for p in variants]
    train, test = datasets.for_target(target)

    gp_settings = PlainGPSettings(
        population_size=settings.population_size,
        n_generations=settings.n_generations,
        max_depth=settings.max_tree_depth,
        random_seed=settings.random_seed,
    )
    plain = run_plain_gp(train, test, gp_settings)
    entries.append(_entry_from_plain_gp(target, plain))

    return AblationResult(target=target, entries=tuple(entries))
