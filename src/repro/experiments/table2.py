"""Table II: the sequence of phase-margin models of decreasing error.

The paper examines how the PM expression is refined as complexity grows: a
constant (~90 degrees) already gives a few percent test error, and each more
complex model injects additional basis functions (current ratios,
drive-voltage ratios of matched devices) that capture second-order effects.
:func:`run_table2` reproduces that listing from the testing-error trade-off
of a finished CAFFEINE run on PM.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

from repro.core.engine import CaffeineResult
from repro.core.model import SymbolicModel, TradeoffSet
from repro.core.report import models_table

__all__ = ["Table2Result", "run_table2"]


@dataclasses.dataclass(frozen=True)
class Table2Result:
    """The ordered PM model sequence plus the underlying run."""

    target: str
    models: Tuple[SymbolicModel, ...]
    result: CaffeineResult

    @property
    def n_models(self) -> int:
        return len(self.models)

    def errors_decrease_with_complexity(self) -> bool:
        """True when training error is non-increasing along the sequence."""
        errors = [m.train_error for m in self.models]
        return all(earlier >= later - 1e-12
                   for earlier, later in zip(errors, errors[1:], strict=False))

    def render(self) -> str:
        return models_table(
            TradeoffSet(self.models),
            title=f"Table II: CAFFEINE-generated models of {self.target}, "
                  "in order of decreasing error and increasing complexity")


def run_table2(result: CaffeineResult, target: str = "PM") -> Table2Result:
    """Table II of one finished CAFFEINE run (the paper's is PM's).

    The listed models are those on the testing-error trade-off (the
    paper's "models of most interest"), ordered from the simplest/least
    accurate to the most complex/most accurate.
    """
    source = result.test_tradeoff if len(result.test_tradeoff) > 0 else result.tradeoff
    ordered = sorted(source, key=lambda m: (m.complexity, -m.train_error))
    return Table2Result(target=target, models=tuple(ordered), result=result)
