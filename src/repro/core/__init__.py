"""CAFFEINE core: canonical-form grammar GP for template-free symbolic modeling.

The public surface of the core package:

* :class:`~repro.core.problem.Problem` / :class:`~repro.core.session.Session`
  -- package modeling tasks and orchestrate many of them (serially or one
  worker process per problem) over one shared, optionally persistent
  column cache, with crash-safe checkpoint/resume (``checkpoint_path`` +
  ``run(resume=True)``, bit-identical restarts) and
  fault tolerance (per-problem timeouts/retries, worker-crash containment,
  partial results with structured
  :class:`~repro.core.session.ProblemFailure` records);
* :class:`~repro.core.engine.CaffeineEngine` -- one run's evolutionary
  loop (a Session builds one per problem; a one-problem run is
  ``Session([problem]).run().single()``);
* :class:`~repro.core.settings.CaffeineSettings` -- all tunables (paper
  settings available via ``CaffeineSettings.paper_settings()``);
* :class:`~repro.core.model.SymbolicModel` / :class:`~repro.core.model.TradeoffSet`
  -- the resulting error-vs-complexity trade-off of interpretable models;
* :mod:`repro.core.artifact` -- deployment: freeze a finished trade-off as
  a small versioned artifact (:func:`~repro.core.artifact.save_front`) and
  load it back as a prediction-only
  :class:`~repro.core.artifact.FrozenFront`
  (:func:`~repro.core.artifact.load_front`), served over HTTP by
  :mod:`repro.serve`;
* grammar machinery (:mod:`repro.core.grammar`), expression trees
  (:mod:`repro.core.expression`) and operators (:mod:`repro.core.operators`)
  for users who want to extend the search; the NSGA-II layer
  (:mod:`repro.core.nsga2`) is the engine's one two-objective selection
  path over rank/crowding arrays.
"""

from repro.core.artifact import (
    FrontArtifactStore,
    FrozenFront,
    load_front,
    save_front,
)
from repro.core.cache_store import (
    ColumnCacheStore,
    FileLock,
    RunCheckpointStore,
)
from repro.core.faults import InjectedFault
from repro.core.compile import (
    CompilationError,
    CompiledKernel,
    TreeCompiler,
    skeleton_and_params,
)
from repro.core.complexity import basis_function_complexity, model_complexity, vc_cost
from repro.core.evaluation import (
    BasisColumnCache,
    CacheStats,
    GramPool,
    PopulationEvaluator,
    dataset_fingerprint,
)
from repro.core.engine import (
    CaffeineEngine,
    CaffeineResult,
    GenerationStats,
)
from repro.core.expression import (
    BinaryOpTerm,
    ConditionalOpTerm,
    ExpressionNode,
    ProductTerm,
    UnaryOpTerm,
    WeightedSum,
    WeightedTerm,
    structural_key,
)
from repro.core.functions import (
    FunctionSet,
    Operator,
    default_function_set,
    polynomial_function_set,
    rational_function_set,
)
from repro.core.generator import ExpressionGenerator
from repro.core.grammar import (
    CAFFEINE_GRAMMAR_TEXT,
    Grammar,
    GrammarError,
    default_grammar,
    function_set_from_grammar,
    grammar_text_for_function_set,
    parse_grammar,
    validate_expression,
)
from repro.core.individual import Individual, evaluate_basis_column
from repro.core.model import SymbolicModel, TradeoffSet
from repro.core.operators import VariationOperators
from repro.core.problem import Problem
from repro.core.session import (
    ProblemFailure,
    ProgressPrinter,
    Session,
    SessionCallback,
    SessionResult,
)
from repro.core.settings import CaffeineSettings
from repro.core.simplify import simplify_population
from repro.core.variable_combo import VariableCombo
from repro.core.weights import Weight

__all__ = [
    "CaffeineEngine",
    "CaffeineResult",
    "GenerationStats",
    "CaffeineSettings",
    "Problem",
    "Session",
    "SessionCallback",
    "SessionResult",
    "ProblemFailure",
    "ProgressPrinter",
    "InjectedFault",
    "FileLock",
    "SymbolicModel",
    "TradeoffSet",
    "Individual",
    "evaluate_basis_column",
    "PopulationEvaluator",
    "BasisColumnCache",
    "CacheStats",
    "GramPool",
    "dataset_fingerprint",
    "ColumnCacheStore",
    "RunCheckpointStore",
    "FrontArtifactStore",
    "FrozenFront",
    "save_front",
    "load_front",
    "TreeCompiler",
    "CompiledKernel",
    "CompilationError",
    "skeleton_and_params",
    "structural_key",
    "ExpressionGenerator",
    "VariationOperators",
    "simplify_population",
    "model_complexity",
    "basis_function_complexity",
    "vc_cost",
    "ExpressionNode",
    "ProductTerm",
    "WeightedSum",
    "WeightedTerm",
    "UnaryOpTerm",
    "BinaryOpTerm",
    "ConditionalOpTerm",
    "VariableCombo",
    "Weight",
    "FunctionSet",
    "Operator",
    "default_function_set",
    "rational_function_set",
    "polynomial_function_set",
    "Grammar",
    "GrammarError",
    "CAFFEINE_GRAMMAR_TEXT",
    "parse_grammar",
    "default_grammar",
    "grammar_text_for_function_set",
    "function_set_from_grammar",
    "validate_expression",
]
