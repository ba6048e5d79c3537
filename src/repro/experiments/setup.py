"""The paper's experimental setup (Section 6.1) on the reproduction's substrate.

The paper models a high-speed CMOS OTA in a 0.7 um, 5 V technology with a
10 pF load, using the operating-point-driven formulation (13 design
variables).  Training data comes from a full orthogonal-hypercube DOE with
243 samples and relative step ``dx = 0.10``; testing data uses the same DOE
with ``dx = 0.03`` (so testing measures *interpolation* ability).  Six
performances are modeled: ``ALF``, ``fu`` (log10-scaled for fitting), ``PM``,
``voffset``, ``SRp`` and ``SRn``.

:func:`generate_ota_datasets` reproduces that data-generation flow on the
analytic OTA substrate; :func:`normalize_targets` is the one policy for a
selection of performances, and :func:`problems_for_targets` packages the
selected performances (with the paper's scaling conventions) as
:class:`~repro.core.problem.Problem` objects for a
:class:`~repro.core.session.Session`.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.circuits.ota import (
    OTA_NOMINAL_POINT,
    OTA_PERFORMANCE_NAMES,
    OTA_VARIABLE_NAMES,
    SymmetricalOta,
    simulate_ota_performances,
)
from repro.core.problem import Problem
from repro.data.dataset import Dataset, train_test_from_doe
from repro.doe.sampling import DoePlan

__all__ = ["OtaDatasets", "generate_ota_datasets",
           "normalize_targets", "problems_for_targets",
           "DEFAULT_TRAIN_DX", "DEFAULT_TEST_DX", "DEFAULT_N_RUNS"]

#: Paper values: training DOE step, testing DOE step, number of DOE runs.
DEFAULT_TRAIN_DX = 0.10
DEFAULT_TEST_DX = 0.03
DEFAULT_N_RUNS = 243

#: Performances whose target is log10-scaled before fitting (the paper: fu).
LOG_SCALED_TARGETS: Tuple[str, ...] = ("fu",)


@dataclasses.dataclass(frozen=True)
class OtaDatasets:
    """Train/test datasets of all six OTA performances."""

    train: Mapping[str, Dataset]
    test: Mapping[str, Dataset]
    train_dx: float
    test_dx: float

    @property
    def performance_names(self) -> Tuple[str, ...]:
        return tuple(self.train.keys())

    def for_target(self, target: str) -> Tuple[Dataset, Dataset]:
        """(train, test) datasets for one performance, cleaned and validated."""
        if target not in self.train:
            raise KeyError(f"unknown performance {target!r}; "
                           f"known: {sorted(self.train)}")
        return train_test_from_doe(self.train[target], self.test[target])

    def summary(self) -> str:
        lines = [f"OTA datasets (train dx={self.train_dx}, test dx={self.test_dx}):"]
        for name in self.performance_names:
            train, test = self.for_target(name)
            lines.append(f"  {name:8s}: {train.n_samples} train / "
                         f"{test.n_samples} test samples"
                         f"{' (log10-scaled)' if train.log_scaled else ''}")
        return "\n".join(lines)


def _datasets_from_plan(plan: DoePlan, ota: SymmetricalOta,
                        log_scaled: Sequence[str]) -> Dict[str, Dataset]:
    performances = simulate_ota_performances(plan.points, plan.variable_names,
                                              ota=ota)
    datasets: Dict[str, Dataset] = {}
    for name in OTA_PERFORMANCE_NAMES:
        dataset = Dataset(
            X=plan.points,
            y=performances[name],
            variable_names=plan.variable_names,
            target_name=name,
        ).drop_nonfinite()
        if name in log_scaled:
            dataset = dataset.log10_target()
        datasets[name] = dataset
    return datasets


def generate_ota_datasets(train_dx: float = DEFAULT_TRAIN_DX,
                          test_dx: float = DEFAULT_TEST_DX,
                          n_runs: int = DEFAULT_N_RUNS,
                          nominal: Optional[Mapping[str, float]] = None,
                          ota: Optional[SymmetricalOta] = None) -> OtaDatasets:
    """Generate the paper-style training and testing datasets.

    The training DOE uses the (larger) relative step ``train_dx`` and the
    testing DOE the (smaller) ``test_dx``, so -- as in the paper -- testing
    error measures how well models interpolate inside the training hypercube.
    """
    if train_dx <= 0 or test_dx <= 0:
        raise ValueError("DOE steps must be positive")
    nominal_point = dict(OTA_NOMINAL_POINT if nominal is None else nominal)
    missing = set(OTA_VARIABLE_NAMES) - set(nominal_point)
    if missing:
        raise ValueError(f"nominal point is missing variables: {sorted(missing)}")
    ota = ota if ota is not None else SymmetricalOta()

    train_plan = DoePlan.orthogonal(nominal_point, dx=train_dx, n_runs=n_runs)
    test_plan = DoePlan.orthogonal(nominal_point, dx=test_dx, n_runs=n_runs)
    return OtaDatasets(
        train=_datasets_from_plan(train_plan, ota, LOG_SCALED_TARGETS),
        test=_datasets_from_plan(test_plan, ota, LOG_SCALED_TARGETS),
        train_dx=train_dx,
        test_dx=test_dx,
    )


def normalize_targets(targets: Optional[Sequence[str]] = None
                      ) -> Tuple[str, ...]:
    """The selected performances: ``targets`` in order, each once (so
    ``--targets PM PM`` is one run of PM); ``None`` selects all six.  An
    empty selection or an unknown name raises ``ValueError``."""
    if targets is None:
        return OTA_PERFORMANCE_NAMES
    selected = tuple(dict.fromkeys(targets))
    unknown = [name for name in selected if name not in OTA_PERFORMANCE_NAMES]
    if unknown or not selected:
        mistake = (f"unknown performance {unknown[0]!r}" if unknown
                   else "no performance selected")
        raise ValueError(
            f"{mistake}; known: {', '.join(OTA_PERFORMANCE_NAMES)}")
    return selected


def problems_for_targets(datasets: OtaDatasets,
                         targets: Optional[Sequence[str]] = None
                         ) -> Tuple[Problem, ...]:
    """The paper's sweep as :class:`Problem` objects, one per performance.

    This is the bridge from the OTA substrate to the generic
    Problem/Session API: each problem packages one performance's cleaned
    train/test pair under the performance's name, ready for a
    :class:`~repro.core.session.Session` (serial or ``jobs > 1``).
    ``targets`` goes through :func:`normalize_targets`.
    """
    problems = []
    for target in normalize_targets(targets):
        train, test = datasets.for_target(target)
        problems.append(Problem(train=train, test=test, name=target))
    return tuple(problems)

