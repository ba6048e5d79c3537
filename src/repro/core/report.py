"""Formatting of CAFFEINE results in the style of the paper's tables/figures.

These helpers produce plain-text renderings:

* :func:`tradeoff_table` -- the data behind Figure 3 (training error, testing
  error and number of bases vs. complexity);
* :func:`models_table` -- Table II style: one row per model with errors and
  the expression, ordered by decreasing error / increasing complexity;
* :func:`comparison_table` -- Figure 4 style: CAFFEINE vs posynomial errors.

:func:`rescore_models` batch-scores frozen models on a fresh dataset (the
scoring behind ``FrozenFront.rescore`` and the server's ``/rescore``).
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.core.model import SymbolicModel, TradeoffSet, predict_models
from repro.data.metrics import relative_rmse_rows

__all__ = [
    "tradeoff_table",
    "models_table",
    "comparison_table",
    "rescore_models",
    "format_percent",
]


def format_percent(fraction: float, precision: int = 2) -> str:
    """Render a fractional error as a percentage string (NaN -> ``"-"``)."""
    if not np.isfinite(fraction):
        return "-"
    return f"{100.0 * fraction:.{precision}f}"


def tradeoff_table(tradeoff: TradeoffSet, title: str = "") -> str:
    """Figure 3 data: complexity, train error, test error, #bases per model."""
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{'complexity':>12} {'train err %':>12} {'test err %':>12} {'n_bases':>8}")
    for model in tradeoff:
        lines.append(
            f"{model.complexity:12.2f} {format_percent(model.train_error):>12} "
            f"{format_percent(model.test_error):>12} {model.n_bases:8d}")
    return "\n".join(lines)


def models_table(tradeoff: TradeoffSet, title: str = "",
                 max_expression_length: Optional[int] = 120) -> str:
    """Table II style listing: errors plus the model expression.

    Models are printed in order of decreasing training error / increasing
    complexity, matching the paper's presentation for PM.
    """
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{'test err %':>11} {'train err %':>12}  expression")
    ordered = sorted(tradeoff, key=lambda m: (-m.train_error, m.complexity))
    for model in ordered:
        expression = model.expression()
        if max_expression_length is not None and len(expression) > max_expression_length:
            expression = expression[: max_expression_length - 3] + "..."
        lines.append(f"{format_percent(model.test_error):>11} "
                     f"{format_percent(model.train_error):>12}  {expression}")
    return "\n".join(lines)


def rescore_models(models: Sequence[SymbolicModel], X: np.ndarray,
                   y: np.ndarray) -> List[float]:
    """Relative RMS errors of frozen models on a fresh dataset, batch-scored.

    Each model is scored against ``(X, y)`` normalized by its own stored
    training range (the paper's qtc convention): one
    :func:`~repro.core.model.predict_models` pass over all models, then one
    row-stacked residual reduction per distinct normalization, so
    mixed-target trade-offs score correctly.  Every value is bit-for-bit
    ``q_tc(y, model.predict_transformed(X), model.normalization)``.
    """
    predictions = predict_models(models, X)
    by_normalization: dict = {}
    for index, model in enumerate(models):
        by_normalization.setdefault(float(model.normalization),
                                    []).append(index)
    errors: List[float] = [float("nan")] * len(models)
    for normalization, indices in by_normalization.items():
        scored = relative_rmse_rows(y, predictions[indices], normalization)
        for i, value in zip(indices, scored, strict=True):
            errors[i] = float(value)
    return errors


def comparison_table(rows: Sequence[Mapping[str, float]],
                     title: str = "") -> str:
    """Figure 4 style comparison of CAFFEINE vs posynomial errors.

    Each row mapping must provide ``target``, ``caffeine_train``,
    ``caffeine_test``, ``posynomial_train`` and ``posynomial_test`` (errors as
    fractions).
    """
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{'target':>8} {'caff train %':>13} {'caff test %':>12} "
                 f"{'posy train %':>13} {'posy test %':>12} {'test ratio':>11}")
    for row in rows:
        caffeine_test = float(row["caffeine_test"])
        posynomial_test = float(row["posynomial_test"])
        if caffeine_test > 0 and np.isfinite(caffeine_test) and np.isfinite(posynomial_test):
            ratio = posynomial_test / caffeine_test
            ratio_text = f"{ratio:.2f}x"
        else:
            ratio_text = "-"
        lines.append(
            f"{str(row['target']):>8} {format_percent(float(row['caffeine_train'])):>13} "
            f"{format_percent(caffeine_test):>12} "
            f"{format_percent(float(row['posynomial_train'])):>13} "
            f"{format_percent(posynomial_test):>12} {ratio_text:>11}")
    return "\n".join(lines)
