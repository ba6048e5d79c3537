"""Per-layer tracing from outside the library.

:func:`instrumented` temporarily replaces public functions and methods of
each layer with wrappers that record a span (name, start, end, parent)
around every call and read the library's own counters before and after
each engine run.  Nothing inside ``src/`` changes: the originals are put
back when the context exits, so untraced runs execute the library exactly
as shipped, and traced runs must produce bit-identical fronts.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import os
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from bench_stats import Span, layer_summary

#: (name, unit) of every per-layer metric a traced run reports
PER_LAYER = (
    ("session.overhead_s", "s"),
    ("variation.init_s", "s"),
    ("variation.vary_calls", "count"),
    ("variation.vary_s", "s"),
    ("evaluation.calls", "count"),
    ("evaluation.individuals", "count"),
    ("evaluation.self_s", "s"),
    ("evaluation.basis_key_s", "s"),
    ("evaluation.column_hit_rate", "ratio"),
    ("evaluation.columns_computed", "count"),
    ("evaluation.fit_hit_rate", "ratio"),
    ("evaluation.fits_computed", "count"),
    ("gram.prepare_s", "s"),
    ("gram.gather_s", "s"),
    ("gram.pair_hit_rate", "ratio"),
    ("gram.pairs_computed", "count"),
    ("compile.miss_s", "s"),
    ("compile.kernel_requests", "count"),
    ("compile.kernel_hit_rate", "ratio"),
    ("compile.kernels_compiled", "count"),
    ("compile.interpreted", "count"),
    ("fit.batches", "count"),
    ("fit.batch_s", "s"),
    ("residual.passes", "count"),
    ("residual.s", "s"),
    ("selection.calls", "count"),
    ("selection.s", "s"),
    ("simplify.s", "s"),
    ("simplify.models_in", "count"),
    ("simplify.models_out", "count"),
    ("freeze.test_scoring_s", "s"),
    ("checkpoint.saves", "count"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.bytes_written", "bytes"),
    ("checkpoint.run_share_pct", "%"),
    ("column_store.load_s", "s"),
    ("column_store.save_s", "s"),
    ("column_store.entries", "count"),
    ("artifact.save_s", "s"),
    ("artifact.load_ms", "ms"),
    ("artifact.bytes", "bytes"),
    ("serve.predict_p50_ms", "ms"),
    ("serve.rescore_p50_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.connections_opened", "count"),
    ("trace.overhead_pct", "%"),
)


class Tracer:
    """In-memory span recorder; spans are written out after the run."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []
        self._ids = itertools.count()

    def add(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, function: Callable) -> Callable:
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end))

        return traced

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """The same record as :meth:`wrap`, around a ``with`` block."""
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end))


# -- counters the library already keeps ------------------------------------

def _engine_counters(engine) -> Dict[str, int]:
    evaluator = engine.evaluator
    pool = evaluator.gram_pool
    return {
        "evaluation.column_requests": evaluator.n_column_requests,
        "evaluation.columns_computed": evaluator.n_columns_computed,
        "evaluation.fit_requests": evaluator.n_fit_requests,
        "evaluation.fits_computed": evaluator.n_fits_computed,
        "gram.pair_requests": pool.n_pair_requests if pool else 0,
        "gram.pairs_computed": pool.n_pairs_computed if pool else 0,
    }


def _compiler_counters(compiler) -> Dict[str, int]:
    return {
        "compile.kernel_requests": compiler.n_kernel_requests,
        "compile.kernel_hits": compiler.n_kernel_hits,
        "compile.kernels_compiled": compiler.n_compiled,
        "compile.interpreted": compiler.n_interpreted,
    }


@contextlib.contextmanager
def instrumented(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every traced layer boundary for the duration of the block."""
    from repro.core import cache_store, engine, evaluation, generator, \
        operators, session

    originals = []
    compilers: List[tuple] = []

    def patch(owner, attribute: str, wrapper: Callable) -> None:
        original = owner.__dict__[attribute]
        originals.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def traced(owner, attribute: str, name: str,
               around: Optional[Callable] = None) -> None:
        original = owner.__dict__[attribute]
        inner = around(original) if around is not None else original
        patch(owner, attribute, tracer.wrap(name, inner))

    def engine_run(original):
        def run(self, *args, **kwargs):
            before = _engine_counters(self)
            try:
                return original(self, *args, **kwargs)
            finally:
                after = _engine_counters(self)
                for key, value in after.items():
                    tracer.add(key, value - before[key])
        return run

    def evaluate_population(original):
        def evaluate(self, individuals):
            tracer.add("evaluation.individuals", len(individuals))
            return original(self, individuals)
        return evaluate

    def simplify(original):
        def run(individuals, *args, **kwargs):
            tracer.add("simplify.models_in", len(individuals))
            result = original(individuals, *args, **kwargs)
            tracer.add("simplify.models_out", len(result))
            return result
        return run

    def save_state(original):
        def save(self, *args, **kwargs):
            original(self, *args, **kwargs)
            tracer.add("checkpoint.bytes_written", os.path.getsize(self.path))
        return save

    def column_store_save(original):
        def save(self, *args, **kwargs):
            entries = original(self, *args, **kwargs)
            tracer.counters["column_store.entries"] = entries
            return entries
        return save

    def compiled_backend_init(original):
        def init(self, *args, **kwargs):
            original(self, *args, **kwargs)
            compilers.append((self.compiler, _compiler_counters(self.compiler)))
        return init

    try:
        traced(session.Session, "run", "session.run")
        traced(engine.CaffeineEngine, "run", "engine.run", engine_run)
        traced(generator.ExpressionGenerator, "random_basis_functions",
               "variation.init")
        traced(operators.VariationOperators, "vary", "variation.vary")
        traced(evaluation.PopulationEvaluator, "evaluate_population",
               "evaluation", evaluate_population)
        # The default "compiled" column backend is the one every workload runs.
        traced(evaluation.CompiledColumnBackend, "basis_key",
               "evaluation.basis_key")
        traced(evaluation.CompiledColumnBackend, "evaluate", "compile.miss")
        patch(evaluation.CompiledColumnBackend, "__init__",
              compiled_backend_init(
                  evaluation.CompiledColumnBackend.__dict__["__init__"]))
        traced(evaluation.GramPool, "prepare", "gram.prepare")
        traced(evaluation.GramPool, "gather_into", "gram.gather")
        traced(evaluation, "fit_linear_from_gram_batch", "fit.batch")
        traced(evaluation.BatchedResidualBackend, "errors", "residual")
        traced(engine, "select_and_rerank", "selection")
        traced(engine, "rank_population_arrays", "selection")
        traced(engine, "simplify_population", "simplify", simplify)
        traced(engine, "batch_test_errors", "freeze.test_scoring")
        traced(cache_store.RunCheckpointStore, "save_state", "checkpoint.save",
               save_state)
        traced(cache_store.ColumnCacheStore, "load_into", "column_store.load")
        traced(cache_store.ColumnCacheStore, "save", "column_store.save",
               column_store_save)
        yield tracer
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)
        for compiler, before in compilers:
            for key, value in _compiler_counters(compiler).items():
                tracer.add(key, value - before[key])


def merged_summary(tracers: Sequence[Tracer]) -> Dict[str, Dict[str, float]]:
    """:func:`layer_summary` of every tracer, averaged per traced unit."""
    merged: Dict[str, Dict[str, float]] = {}
    for tracer in tracers:
        for name, row in layer_summary(tracer.spans).items():
            target = merged.setdefault(name, dict.fromkeys(row, 0.0))
            for key, value in row.items():
                target[key] += value / len(tracers)
    return merged


def merged_counters(tracers: Sequence[Tracer]) -> Dict[str, float]:
    """Counter deltas of every tracer, averaged per traced unit."""
    merged: Dict[str, float] = {}
    for tracer in tracers:
        for key, value in tracer.counters.items():
            merged[key] = merged.get(key, 0.0) + value / len(tracers)
    return merged


def layer_metrics(tracers: Sequence[Tracer]) -> Dict[str, float]:
    """Per-unit span- and counter-derived layer metrics of traced units."""
    summary = merged_summary(tracers)
    counters = merged_counters(tracers)

    def total(name: str) -> float:
        return summary.get(name, {}).get("total_s", 0.0)

    def calls(name: str) -> float:
        return summary.get(name, {}).get("calls", 0.0)

    def count(name: str) -> float:
        return counters.get(name, 0.0)

    def share(part: str, whole: str) -> float:
        return count(part) / count(whole) if count(whole) else 0.0

    def own(name: str) -> float:
        return summary.get(name, {}).get("self_s", 0.0)

    run_s = total("session.run")
    return {
        # Session.run minus its engine runs and the benchmark's own clock
        "session.overhead_s": (own("session.run") + total("column_store.load")
                               + total("column_store.save")),
        "variation.init_s": total("variation.init"),
        "variation.vary_calls": calls("variation.vary"),
        "variation.vary_s": total("variation.vary"),
        "evaluation.calls": calls("evaluation"),
        "evaluation.individuals": count("evaluation.individuals"),
        "evaluation.self_s": own("evaluation"),
        "evaluation.basis_key_s": total("evaluation.basis_key"),
        "evaluation.column_hit_rate": (
            1.0 - share("evaluation.columns_computed",
                        "evaluation.column_requests")
            if count("evaluation.column_requests") else 0.0),
        "evaluation.columns_computed": count("evaluation.columns_computed"),
        "evaluation.fit_hit_rate": (
            1.0 - share("evaluation.fits_computed", "evaluation.fit_requests")
            if count("evaluation.fit_requests") else 0.0),
        "evaluation.fits_computed": count("evaluation.fits_computed"),
        "gram.prepare_s": total("gram.prepare"),
        "gram.gather_s": total("gram.gather"),
        "gram.pair_hit_rate": (
            1.0 - share("gram.pairs_computed", "gram.pair_requests")
            if count("gram.pair_requests") else 0.0),
        "gram.pairs_computed": count("gram.pairs_computed"),
        "compile.miss_s": total("compile.miss"),
        "compile.kernel_requests": count("compile.kernel_requests"),
        "compile.kernel_hit_rate": share("compile.kernel_hits",
                                         "compile.kernel_requests"),
        "compile.kernels_compiled": count("compile.kernels_compiled"),
        "compile.interpreted": count("compile.interpreted"),
        "fit.batches": calls("fit.batch"),
        "fit.batch_s": total("fit.batch"),
        "residual.passes": calls("residual"),
        "residual.s": total("residual"),
        "selection.calls": calls("selection"),
        "selection.s": total("selection"),
        "simplify.s": total("simplify"),
        "simplify.models_in": count("simplify.models_in"),
        "simplify.models_out": count("simplify.models_out"),
        "freeze.test_scoring_s": total("freeze.test_scoring"),
        "checkpoint.saves": calls("checkpoint.save"),
        "checkpoint.save_s": total("checkpoint.save"),
        "checkpoint.bytes_written": count("checkpoint.bytes_written"),
        "checkpoint.run_share_pct": (100.0 * total("checkpoint.save") / run_s
                                     if run_s else 0.0),
        "column_store.load_s": total("column_store.load"),
        "column_store.save_s": total("column_store.save"),
        "column_store.entries": count("column_store.entries"),
    }
