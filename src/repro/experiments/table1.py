"""Table I: compact symbolic models under 10 % train and test error.

The paper asks "what are all the symbolic models that provide less than 10 %
error in both training and testing data?" and reports, for each of the six
performances, the simplest such model (with ``fu`` converted back to its true
form ``10^(...)``).  :func:`run_table1` reproduces that selection.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Optional, Sequence, Tuple

from repro.core.engine import CaffeineResult
from repro.core.model import SymbolicModel
from repro.core.report import format_percent
from repro.core.settings import CaffeineSettings
from repro.experiments.setup import OtaDatasets, complete_results, \
    generate_ota_datasets, normalize_targets, problems_for_targets

__all__ = ["Table1Row", "Table1Result", "run_table1"]

#: The error threshold of the paper's Table I (10 %, expressed as a fraction).
DEFAULT_ERROR_TARGET = 0.10


@dataclasses.dataclass(frozen=True)
class Table1Row:
    """One row of Table I."""

    target: str
    error_target: float
    model: Optional[SymbolicModel]

    @property
    def satisfied(self) -> bool:
        """True when a model below the error target exists."""
        return self.model is not None

    @property
    def expression(self) -> str:
        return self.model.expression() if self.model is not None else "<none>"

    @property
    def n_bases(self) -> int:
        return self.model.n_bases if self.model is not None else 0

    def render(self) -> str:
        if self.model is None:
            return (f"{self.target:>8}  target {format_percent(self.error_target)}%  "
                    f"-- no model met the target --")
        return (f"{self.target:>8}  target {format_percent(self.error_target)}%  "
                f"train {format_percent(self.model.train_error):>6}%  "
                f"test {format_percent(self.model.test_error):>6}%  "
                f"{self.expression}")


@dataclasses.dataclass(frozen=True)
class Table1Result:
    """All Table I rows plus the underlying CAFFEINE results."""

    rows: Tuple[Table1Row, ...]
    results: Mapping[str, CaffeineResult]
    error_target: float

    def row(self, target: str) -> Table1Row:
        for row in self.rows:
            if row.target == target:
                return row
        raise KeyError(f"no Table I row for {target!r}")

    def render(self) -> str:
        header = (f"Table I: simplest models with < "
                  f"{format_percent(self.error_target)}% train and test error")
        return "\n".join([header] + [row.render() for row in self.rows])


def select_table1_model(result: CaffeineResult,
                        error_target: float = DEFAULT_ERROR_TARGET
                        ) -> Optional[SymbolicModel]:
    """The simplest model with both errors under ``error_target`` (or None)."""
    eligible = result.tradeoff.within_error(error_target, error_target)
    if eligible.is_empty:
        return None
    return eligible.simplest()


def run_table1(datasets: Optional[OtaDatasets] = None,
               settings: Optional[CaffeineSettings] = None,
               targets: Optional[Sequence[str]] = None,
               error_target: float = DEFAULT_ERROR_TARGET,
               results: Optional[Mapping[str, CaffeineResult]] = None
               ) -> Table1Result:
    """Regenerate Table I.

    ``results`` may carry pre-computed CAFFEINE runs (e.g. shared with the
    Figure 3 driver) keyed by performance name; only the missing targets
    run here, as one :class:`~repro.core.session.Session` sweep
    (:func:`~repro.experiments.setup.complete_results`).
    """
    datasets = datasets if datasets is not None else generate_ota_datasets()
    settings = settings if settings is not None else CaffeineSettings()
    selected = normalize_targets(targets)

    all_results = complete_results(problems_for_targets(datasets, selected),
                                   settings, results)
    rows = []
    for target in selected:
        model = select_table1_model(all_results[target], error_target)
        rows.append(Table1Row(target=target, error_target=error_target,
                              model=model))
    return Table1Result(rows=tuple(rows), results=all_results,
                        error_target=error_target)
