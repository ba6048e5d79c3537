"""Formatting of CAFFEINE results in the style of the paper's tables/figures.

These helpers produce plain-text renderings:

* :func:`tradeoff_table` -- the data behind Figure 3 (training error, testing
  error and number of bases vs. complexity);
* :func:`models_table` -- Table II style: one row per model with errors and
  the expression, ordered by decreasing error / increasing complexity;
* :func:`target_summary_row` -- Table I style: the expression of the chosen
  model for a performance goal;
* :func:`comparison_table` -- Figure 4 style: CAFFEINE vs posynomial errors.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.core.model import SymbolicModel, TradeoffSet, batch_test_errors

__all__ = [
    "tradeoff_table",
    "models_table",
    "target_summary_row",
    "comparison_table",
    "rescore_models",
    "rescore_table",
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


def target_summary_row(model: SymbolicModel,
                       max_expression_length: Optional[int] = None) -> str:
    """Table I style row: performance name, errors, expression."""
    expression = model.expression()
    if max_expression_length is not None and len(expression) > max_expression_length:
        expression = expression[: max_expression_length - 3] + "..."
    return (f"{model.target_name:>8}  train {format_percent(model.train_error):>6}%  "
            f"test {format_percent(model.test_error):>6}%  {expression}")


def rescore_models(models: Sequence[SymbolicModel], X: np.ndarray,
                   y: np.ndarray) -> List[float]:
    """Relative RMS errors of frozen models on a fresh dataset, batch-scored.

    Each model is scored against ``(X, y)`` normalized by its own stored
    training range (the paper's qtc convention), through the generation-
    batched residual engine: unique basis columns evaluate once across all
    models and same-width groups score in one stacked pass -- bit-for-bit
    the value ``q_tc(y, model.predict_transformed(X), model.normalization)``
    computes per model.  Models are grouped by normalization so mixed-target
    trade-offs score correctly.
    """
    errors: List[float] = [float("nan")] * len(models)
    by_normalization: dict = {}
    for index, model in enumerate(models):
        by_normalization.setdefault(float(model.normalization),
                                    []).append(index)
    for normalization, indices in by_normalization.items():
        scored = batch_test_errors([models[i] for i in indices], X, y,
                                   normalization)
        for i, value in zip(indices, scored, strict=True):
            errors[i] = value
    return errors


def rescore_table(tradeoff: TradeoffSet, X: np.ndarray, y: np.ndarray,
                  title: str = "") -> str:
    """Scenario table: every trade-off model re-scored on a new dataset.

    Answers "how do the models I already have do on this fresh data?"
    without rerunning anything: one batched scoring pass
    (:func:`rescore_models`) per call, rendered next to the stored training
    and testing errors.
    """
    models = list(tradeoff)
    fresh = rescore_models(models, X, y)
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{'complexity':>12} {'train err %':>12} {'test err %':>12} "
                 f"{'fresh err %':>12}")
    for model, error in zip(models, fresh, strict=True):
        lines.append(
            f"{model.complexity:12.2f} {format_percent(model.train_error):>12} "
            f"{format_percent(model.test_error):>12} "
            f"{format_percent(error):>12}")
    return "\n".join(lines)


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
