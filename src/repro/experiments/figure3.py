"""Figure 3: error / complexity trade-offs for every OTA performance.

For each performance goal the paper shows (left columns) the training error
``qwc``, testing error ``qtc`` and number of basis functions of every model
on the training-error-vs-complexity trade-off, and (rightmost column) only
the models that are also on the testing-error-vs-complexity trade-off.

:func:`run_figure3` reads the same series off one finished CAFFEINE run per
performance; :meth:`Figure3Result.render` prints them as text tables, one
per performance, which is the benchmark harness' output.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.core.engine import CaffeineResult
from repro.core.report import tradeoff_table
from repro.experiments.setup import normalize_targets

__all__ = ["Figure3Series", "Figure3Result", "run_figure3"]


@dataclasses.dataclass(frozen=True)
class Figure3Series:
    """The plotted series of one performance goal."""

    target: str
    complexity: Tuple[float, ...]
    train_error: Tuple[float, ...]
    test_error: Tuple[float, ...]
    n_bases: Tuple[int, ...]
    #: indices (into the arrays above) of models also on the test trade-off
    test_tradeoff_indices: Tuple[int, ...]

    @property
    def n_models(self) -> int:
        return len(self.complexity)

    @property
    def constant_model_train_error(self) -> float:
        """Training error of the least complex (ideally constant) model."""
        return self.train_error[0] if self.train_error else float("nan")

    @property
    def best_train_error(self) -> float:
        return min(self.train_error) if self.train_error else float("nan")


@dataclasses.dataclass(frozen=True)
class Figure3Result:
    """All per-performance series plus the underlying CAFFEINE results."""

    series: Mapping[str, Figure3Series]
    results: Mapping[str, CaffeineResult]

    @property
    def targets(self) -> Tuple[str, ...]:
        return tuple(self.series.keys())

    def render(self) -> str:
        """Text rendering of the Figure 3 data."""
        blocks = []
        for target, series in self.series.items():
            result = self.results[target]
            blocks.append(tradeoff_table(
                result.tradeoff,
                title=f"Figure 3 [{target}] - training-error trade-off "
                      f"({series.n_models} models)"))
            blocks.append(tradeoff_table(
                result.test_tradeoff,
                title=f"Figure 3 [{target}] - testing-error trade-off "
                      f"({len(result.test_tradeoff)} models)"))
        return "\n\n".join(blocks)


def _series_from_result(target: str, result: CaffeineResult) -> Figure3Series:
    tradeoff = result.tradeoff
    test_models = set(id(m) for m in result.test_tradeoff)
    indices = tuple(i for i, model in enumerate(tradeoff)
                    if id(model) in test_models)
    return Figure3Series(
        target=target,
        complexity=tuple(float(c) for c in tradeoff.complexities()),
        train_error=tuple(float(e) for e in tradeoff.train_errors()),
        test_error=tuple(float(e) for e in tradeoff.test_errors()),
        n_bases=tuple(int(n) for n in tradeoff.n_bases()),
        test_tradeoff_indices=indices,
    )


def run_figure3(results: Mapping[str, CaffeineResult],
                targets: Optional[Sequence[str]] = None) -> Figure3Result:
    """The Figure 3 data of ``targets`` (default: all six), read off
    ``results``: finished CAFFEINE runs keyed by performance name, e.g.
    from one :class:`~repro.core.session.Session` over
    :func:`~repro.experiments.setup.problems_for_targets`."""
    series: Dict[str, Figure3Series] = {
        target: _series_from_result(target, results[target])
        for target in normalize_targets(targets)
    }
    return Figure3Result(series=series, results=results)
