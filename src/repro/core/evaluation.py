"""Batch population evaluation with basis-column caching.

CAFFEINE's runtime is dominated by re-evaluating evolved basis-function
trees on the training matrix: every generation evaluates ``population_size``
offspring of up to ``max_basis_functions`` trees each, node by node, in pure
Python.  Crossover and cloning copy subtrees verbatim, so the *same* basis
function (by structural key, see
:func:`repro.core.expression.structural_key`) is evaluated over and over on
the *same* dataset.  This module removes that redundancy:

* :class:`BasisColumnCache` -- an LRU cache mapping a basis function's
  structural key to its evaluated column on one dataset;
* :class:`PopulationEvaluator` -- evaluates whole populations: it collects
  the unique uncached basis functions across all individuals, computes their
  columns once, then assembles each individual's basis matrix from cached
  columns and runs the linear fits; a second,
  individual-level LRU (keyed by the ordered tuple of basis keys) short-cuts
  the fit itself for structurally identical individuals;
* :class:`GramPool` -- a cross-generation pool of normal-equation scalars
  (column sums, column--target dots and pairwise column dot products, all by
  structural key) that turns each linear fit into a small
  ``(k+1) x (k+1)`` gather-and-solve with no per-fit pass over
  ``n_samples`` beyond the final residual step; offspring that differ from a
  parent by one basis function cost ``k`` fresh pair dots instead of a full
  ``k^2`` gram (the incremental, "rank-1" regime);
* :func:`evaluate_individual_inplace` -- the one-individual path that
  ``Individual.evaluate`` wraps for backward compatibility.

Correctness invariant: a cache hit returns the exact array a fresh
evaluation would produce (both go through
:func:`repro.core.individual.evaluate_basis_column`, and the structural key
encodes the exact floating-point recipe), and a gram-pool fit returns the
exact :class:`~repro.regression.least_squares.LinearFit` a direct
:func:`~repro.regression.least_squares.fit_linear` would (both build their
normal equations from the canonical
:func:`~repro.regression.least_squares.pair_dots` recipe) -- so cached and
uncached evaluation, and the evaluator and :func:`evaluate_individual_inplace`,
are bit-for-bit identical: a fixed seed produces the same trade-off set
regardless of the cache budgets.

Column-cache keys carry a :func:`dataset_fingerprint` prefix, so one
:class:`BasisColumnCache` can safely be shared by evaluators bound to
different targets: the six OTA performances of the paper's experiments all
evaluate on the *same* ``X``, and a shared cache makes the column side of a
multi-target experiment driver roughly six times cheaper (see
``repro.experiments.setup.session_for_targets``).
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import OrderedDict
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core import faults
from repro.core.compile import TreeCompiler, cached_skeleton_and_params
from repro.core.complexity import basis_function_complexity, model_complexity
from repro.core.expression import ProductTerm
from repro.core.individual import Individual, evaluate_basis_matrix
from repro.core.settings import CaffeineSettings
from repro.data.metrics import (
    error_normalization,
    relative_rmse,
    relative_rmse_rows,
)
from repro.regression.least_squares import (
    LinearFit,
    fit_linear,
    fit_linear_from_gram,
    fit_linear_from_gram_batch,
    pair_dots,
    predict_linear_batch,
)

__all__ = [
    "CacheStats",
    "BasisColumnCache",
    "CacheBudgets",
    "cache_budgets",
    "GramPool",
    "PopulationEvaluator",
    "CompiledColumnBackend",
    "BatchedResidualBackend",
    "dataset_fingerprint",
    "evaluate_individual_inplace",
]


def dataset_fingerprint(X: np.ndarray) -> str:
    """Content hash of a sample matrix, used to namespace shared caches.

    Two evaluators whose ``X`` matrices are byte-identical produce the same
    fingerprint and can therefore share evaluated basis columns through one
    :class:`BasisColumnCache`; any difference in shape or data yields a
    different prefix, so a shared cache can never serve a column evaluated
    on other data.
    """
    arr = np.ascontiguousarray(np.asarray(X, dtype=float))
    digest = hashlib.sha1()
    digest.update(str(arr.shape).encode("ascii"))
    digest.update(arr.tobytes())
    return digest.hexdigest()


def function_set_fingerprint(function_set) -> Tuple:
    """Identity of a function set's operator *implementations*.

    Structural keys identify operators by name only, which is unambiguous
    within one function set but not across sets: two runs could both name an
    operator ``"inv"`` yet bind different implementations.  A shared column
    cache therefore namespaces by this fingerprint too -- operator names
    plus the module/qualname of their implementations -- so runs only share
    columns when same-named operators mean the same computation.  (Thin
    wrapper around :meth:`repro.core.functions.FunctionSet.fingerprint`,
    which the persistent :class:`~repro.core.cache_store.ColumnCacheStore`
    also keys by.)
    """
    return function_set.fingerprint()


class CacheBudgets(NamedTuple):
    """Capacities of one run's evaluation caches (see :func:`cache_budgets`)."""

    #: :class:`BasisColumnCache` entries (also the fit cache's entries)
    columns: int
    #: :class:`GramPool` pairwise dot products
    gram_pairs: int
    #: :class:`~repro.core.compile.TreeCompiler` compiled tapes
    kernels: int


def cache_budgets(settings: CaffeineSettings) -> CacheBudgets:
    """The evaluation-cache capacities a run under ``settings`` gets.

    Each budget is a floor tuned for the paper-scale population of 100-200
    that grows with ``population_size`` so that large populations do not
    evict a generation's entries before the next can reuse them: about four
    generations of basis columns, three generations of basis-pair dots and
    eight compiled skeletons per individual.  Budgets trade memory for
    wall-clock time only; every budget gives bit-for-bit identical models.
    """
    per_generation = settings.population_size * settings.max_basis_functions
    pairs_per_individual = (settings.max_basis_functions
                            * (settings.max_basis_functions + 1)) // 2
    return CacheBudgets(
        columns=max(20000, 4 * per_generation),
        gram_pairs=max(200000,
                       3 * settings.population_size * pairs_per_individual),
        kernels=max(4096, 8 * settings.population_size))


@dataclasses.dataclass
class CacheStats:
    """Hit/miss counters of a :class:`BasisColumnCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when untouched)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {"hits": self.hits, "misses": self.misses,
                "evictions": self.evictions, "hit_rate": self.hit_rate}


class BasisColumnCache:
    """LRU cache of evaluated basis-function columns for one dataset.

    Keys are structural keys (:func:`~repro.core.expression.structural_key`)
    of :class:`~repro.core.expression.ProductTerm` trees; values are the
    evaluated (and magnitude-clipped) columns.  Stored arrays are treated as
    immutable -- callers must not write into a returned column.

    ``max_entries == 0`` disables the cache (every lookup misses, nothing is
    stored), which keeps the calling code branch-free.
    """

    def __init__(self, max_entries: int = 20000) -> None:
        if max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        self.max_entries = int(max_entries)
        self.stats = CacheStats()
        self._columns: "OrderedDict[Tuple, np.ndarray]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._columns)

    def __contains__(self, key: Tuple) -> bool:
        """Membership test without touching recency or the hit/miss stats."""
        return key in self._columns

    def items(self):
        """Snapshot of ``(key, column)`` entries in LRU order (oldest first),
        without touching recency or the hit/miss stats.  This is what the
        persistent :class:`~repro.core.cache_store.ColumnCacheStore`
        serializes."""
        return list(self._columns.items())

    def get(self, key: Tuple) -> Optional[np.ndarray]:
        """The cached column for ``key``, or None (counts a hit/miss)."""
        column = self._columns.get(key)
        if column is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        self._columns.move_to_end(key)
        return column

    def put(self, key: Tuple, column: np.ndarray) -> None:
        """Insert a column, evicting least-recently-used entries as needed."""
        if self.max_entries == 0:
            return
        if key in self._columns:
            self._columns.move_to_end(key)
            return
        self._columns[key] = column
        while len(self._columns) > self.max_entries:
            self._columns.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        self._columns.clear()


class GramPool:
    """Cross-generation pool of canonical normal-equation scalars.

    Per basis column (identified by structural key) the pool caches the
    column sum, the column--target dot and a finiteness flag; per unordered
    *pair* of columns it caches the dot product (diagonal pairs double as
    the squared norms the fit's column scaling needs).  Every scalar is
    computed through :func:`repro.regression.least_squares.pair_dots` --
    whose batched results are bit-for-bit independent of batch composition
    -- so a gram gathered here is exactly the gram ``fit_linear`` would
    compute from the assembled basis matrix, no matter when or in which
    batch each entry was first produced.

    Crossover and mutation mostly reshuffle existing basis functions, so
    after warm-up the pool serves nearly all pair lookups from cache; an
    offspring that differs from its parent by one column needs only ``k``
    fresh pair dots (new column x each retained column) rather than a full
    ``k^2`` gram -- the incremental "rank-1 update" regime, realized as
    cache hits instead of explicit factor updates.

    Column identities are interned to integer ids so pair keys stay small;
    evicting a column orphans its pairs, which then age out of the pair LRU
    naturally.
    """

    def __init__(self, y: np.ndarray, max_pairs: int = 200000) -> None:
        if max_pairs < 0:
            raise ValueError("max_pairs must be non-negative")
        y = np.ascontiguousarray(np.asarray(y, dtype=float).ravel())
        self._y_row = y[None, :]
        self.max_pairs = int(max_pairs)
        #: columns are cheap (four scalars each) -- cap them at the pair
        #: budget so the two LRUs age out together
        self.max_columns = max(1, int(max_pairs))
        #: structural key -> [id, colsum, ydot, finite]
        self._columns: "OrderedDict[Tuple, list]" = OrderedDict()
        self._pairs: "OrderedDict[Tuple[int, int], float]" = OrderedDict()
        self._next_id = 0
        self.n_singles_computed = 0
        self.n_pairs_computed = 0
        self.n_pair_requests = 0

    def __len__(self) -> int:
        return len(self._pairs)

    @property
    def pair_hit_rate(self) -> float:
        """Fraction of pair lookups served without a fresh dot product."""
        if self.n_pair_requests == 0:
            return 0.0
        # repro-lint: allow[errstate] -- scalar int hit-rate statistic, no column arrays
        return 1.0 - self.n_pairs_computed / self.n_pair_requests

    # ------------------------------------------------------------------
    def prepare(self, individuals_columns: Sequence[Sequence[Tuple[Tuple, np.ndarray]]]
                ) -> None:
        """Batch-compute every scalar the given individuals will need.

        ``individuals_columns`` holds, per individual, its ``(structural
        key, evaluated column)`` sequence.  Missing column stats and missing
        pair dots across the whole batch are each computed in a single
        vectorized :func:`pair_dots`-recipe call -- the generation-level
        GEMM-like step that replaces per-fit passes over ``n_samples``.
        """
        missing: "OrderedDict[Tuple, np.ndarray]" = OrderedDict()
        for columns in individuals_columns:
            for key, column in columns:
                if key not in self._columns and key not in missing:
                    missing[key] = column
        if missing:
            self._compute_singles(missing)

        pair_keys: List[Tuple[int, int]] = []
        rows_a: List[np.ndarray] = []
        rows_b: List[np.ndarray] = []
        queued = set()
        # Recency refreshes are LRU hygiene: they only matter once the pool
        # could actually evict.  Below half capacity (the steady state for
        # default sizes) they are tens of thousands of pure-overhead
        # OrderedDict moves per generation, so skip them.
        refresh_columns = len(self._columns) > self.max_columns // 2
        refresh_pairs = len(self._pairs) > self.max_pairs // 2
        for columns in individuals_columns:
            ids = []
            for key, column in columns:
                entry = self._columns.get(key)
                if entry is None:
                    # Evicted within this very batch (pool smaller than the
                    # batch's unique columns): recompute and re-register so
                    # the pairs queued below stay reachable at gather time
                    # (an anonymous id would orphan them in the pair LRU).
                    entry = self._single_statistics(column)
                    self._columns[key] = entry
                    while len(self._columns) > self.max_columns:
                        self._columns.popitem(last=False)
                elif refresh_columns:
                    self._columns.move_to_end(key)
                ids.append((entry[0], column))
            for a, (id_a, col_a) in enumerate(ids):
                for id_b, col_b in ids[a:]:
                    pair = (id_a, id_b) if id_a <= id_b else (id_b, id_a)
                    if pair in self._pairs:
                        if refresh_pairs:
                            # Refresh recency so a nearly-full pool never
                            # evicts the batch's own working set while
                            # inserting its fresh pairs.
                            self._pairs.move_to_end(pair)
                        continue
                    if pair in queued:
                        continue
                    queued.add(pair)
                    pair_keys.append(pair)
                    rows_a.append(col_a)
                    rows_b.append(col_b)
        if pair_keys:
            dots = pair_dots(np.stack(rows_a), np.stack(rows_b))
            self.n_pairs_computed += len(pair_keys)
            for pair, value in zip(pair_keys, dots, strict=True):
                self._pairs[pair] = float(value)
            while len(self._pairs) > self.max_pairs:
                self._pairs.popitem(last=False)

    def statistics_for(self, columns: Sequence[Tuple[Tuple, np.ndarray]]
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
        """``(gram, colsums, ydots, all_finite)`` for one individual.

        Missing scalars are computed (and cached) on demand, so this is
        correct standalone; inside ``evaluate_population`` the batched
        :meth:`prepare` has already run and this is a pure gather.  The
        gathered gram is bit-for-bit the raw gram of the stacked columns.
        """
        k = len(columns)
        gram = np.empty((k, k))
        colsums = np.empty(k)
        ydots = np.empty(k)
        finite = self.gather_into(columns, gram, colsums, ydots)
        return gram, colsums, ydots, finite

    def gather_into(self, columns: Sequence[Tuple[Tuple, np.ndarray]],
                    gram_out: np.ndarray, colsums_out: np.ndarray,
                    ydots_out: np.ndarray) -> bool:
        """Gather one individual's statistics into preallocated arrays.

        Returns whether every column is finite.  ``gram_out`` may be one
        slice of a same-width group's ``(m, k, k)`` stack, which is how the
        batched fit path avoids a copy per individual.  Missing scalars are
        computed (and cached) inline with the canonical recipe, so the
        gather is correct even without a prior :meth:`prepare`.  LRU
        recency is deliberately *not* refreshed here: in the batched path
        :meth:`prepare` just touched every entry this gather reads, and the
        (rare) standalone path tolerates insertion-order aging.
        """
        k = len(columns)
        ids = []
        finite = True
        for position, (key, column) in enumerate(columns):
            entry = self._columns.get(key)
            if entry is None:
                # Unseen (standalone call) or evicted column: compute with
                # the same canonical recipe -- the value is identical either
                # way -- and cache it for the next lookup.
                entry = self._single_statistics(column)
                self._columns[key] = entry
                while len(self._columns) > self.max_columns:
                    self._columns.popitem(last=False)
            ids.append(entry[0])
            colsums_out[position] = entry[1]
            ydots_out[position] = entry[2]
            finite = finite and entry[3]
        pairs = self._pairs
        self.n_pair_requests += k * (k + 1) // 2
        for a in range(k):
            id_a = ids[a]
            for b in range(a, k):
                id_b = ids[b]
                pair = (id_a, id_b) if id_a <= id_b else (id_b, id_a)
                value = pairs.get(pair)
                if value is None:
                    value = float(pair_dots(columns[a][1][None, :],
                                            columns[b][1][None, :])[0])
                    self.n_pairs_computed += 1
                    pairs[pair] = value
                    while len(pairs) > self.max_pairs:
                        pairs.popitem(last=False)
                gram_out[a, b] = value
                gram_out[b, a] = value
        return finite

    # ------------------------------------------------------------------
    def _single_statistics(self, column: np.ndarray) -> list:
        """Uncached per-column stats (canonical recipe, fresh id)."""
        row = column[None, :]
        entry = [self._next_id, float(row.sum(axis=1)[0]),
                 float((row * self._y_row).sum(axis=1)[0]),
                 bool(np.isfinite(row).all(axis=1)[0])]
        self._next_id += 1
        self.n_singles_computed += 1
        return entry

    def _compute_singles(self, missing: "OrderedDict[Tuple, np.ndarray]") -> None:
        rows = np.stack(list(missing.values()))
        colsums = rows.sum(axis=1)
        ydots = (rows * self._y_row).sum(axis=1)
        finite = np.isfinite(rows).all(axis=1)
        self.n_singles_computed += len(missing)
        for position, key in enumerate(missing):
            self._columns[key] = [self._next_id, float(colsums[position]),
                                  float(ydots[position]), bool(finite[position])]
            self._next_id += 1
        while len(self._columns) > self.max_columns:
            self._columns.popitem(last=False)


def evaluate_individual_inplace(individual: Individual, X: np.ndarray,
                                y: np.ndarray, settings: CaffeineSettings,
                                basis_matrix: Optional[np.ndarray] = None,
                                normalization: Optional[float] = None,
                                complexity: Optional[float] = None) -> None:
    """Fit one individual's linear weights and set both objectives in place.

    This is the single implementation behind ``Individual.evaluate`` and the
    batch evaluator; ``basis_matrix``/``normalization``/``complexity`` let
    callers that already hold those (the evaluator, with cached columns and
    per-basis complexities) skip recomputing them.
    """
    y = np.asarray(y, dtype=float)
    individual.complexity = (complexity if complexity is not None
                             else model_complexity(individual.bases, settings))
    individual.normalization = (normalization if normalization is not None
                                else error_normalization(y))
    if basis_matrix is None:
        basis_matrix = evaluate_basis_matrix(individual.bases, X)
    fit = fit_linear(basis_matrix, y)
    if fit is None:
        individual.fit = None
        individual.error = float("inf")
        return
    individual.fit = fit
    predictions = fit.predict(basis_matrix)
    individual.error = relative_rmse(y, predictions, individual.normalization)


class CompiledColumnBackend:
    """How a basis column is computed on a cache miss: fused NumPy tapes.

    Basis keys are ``(skeleton, params)`` pairs -- the same one-walk-per-tree
    exact evaluation-recipe identity as a structural key, but directly
    reusable as the compiler's kernel-cache key, so cache misses never
    re-walk the tree.  Bit-for-bit identical to the node-by-node
    interpreter (see :mod:`repro.core.compile`; the test suite holds the
    interpreter as the reference).
    """

    def __init__(self, X: np.ndarray, settings: CaffeineSettings) -> None:
        self.compiler = TreeCompiler(
            X, max_kernels=cache_budgets(settings).kernels)

    def basis_key(self, basis: ProductTerm) -> Tuple:
        # Memoized on the root node: offspring share untouched basis trees
        # with their parents, so most keys per generation are cache hits.
        return cached_skeleton_and_params(basis)

    def evaluate(self, basis: ProductTerm, key: Tuple) -> np.ndarray:
        """Compute one column; ``key`` is the caller's precomputed key."""
        skeleton, params = key
        return self.compiler.column_from_key(skeleton, params, basis)


class BatchedResidualBackend:
    """The prediction/residual step after the linear fits, batched.

    Whole same-width groups are scored in one stacked pass: predictions via
    :func:`~repro.regression.least_squares.predict_linear_batch` (the
    canonical accumulation run over an ``(m, n, k)`` stack -- purely
    elementwise, so batch composition cannot change a bit) and residual
    reduction via :func:`~repro.data.metrics.relative_rmse_rows` (a
    contiguous-last-axis pairwise summation whose per-row results are
    independent of the stack, the ``pair_dots`` argument transplanted to
    the prediction side).  ``errors`` is bit-for-bit one
    ``relative_rmse(y, fit.predict(basis_matrix))`` per individual,
    enforced by hypothesis property tests and fixed-seed engine equality
    against that per-individual reference.
    """

    def __init__(self, y: np.ndarray, normalization: float) -> None:
        self.y = np.ascontiguousarray(np.asarray(y, dtype=float).ravel())
        self.normalization = float(normalization)
        #: stacked-pass accounting (benchmarks read these)
        self.n_batched_passes = 0
        self.n_batched_fits = 0

    def error(self, fit: LinearFit, basis_matrix: np.ndarray) -> float:
        """One individual: no batch to exploit, same canonical recipe."""
        return relative_rmse(self.y, fit.predict(basis_matrix),
                             self.normalization)

    def errors(self, fits: Sequence[LinearFit],
               basis_matrices: Sequence[np.ndarray]) -> List[float]:
        """One stacked prediction/residual pass over a same-width group."""
        if not fits:
            return []
        if len(fits) == 1:
            return [self.error(fits[0], basis_matrices[0])]
        intercepts = np.array([fit.intercept for fit in fits])
        coefficient_rows = np.stack([fit.coefficients for fit in fits])
        stacked = np.stack([np.asarray(m, dtype=float)
                            for m in basis_matrices])
        predictions = predict_linear_batch(intercepts, coefficient_rows,
                                           stacked)
        self.n_batched_passes += 1
        self.n_batched_fits += len(fits)
        return [float(value) for value in
                relative_rmse_rows(self.y, predictions, self.normalization)]


class PopulationEvaluator:
    """Evaluates populations of individuals against one fixed dataset.

    One evaluator is bound to one ``(X, y)`` pair (the engine holds one for
    its training data), so cache keys need no dataset component and the error
    normalization (the training-data range, the paper's qwc denominator) is
    computed once.  Everything runs on the calling thread in deterministic
    population order; parallelism lives one level up, in
    ``Session(jobs=n)`` across problems.
    """

    def __init__(self, X: np.ndarray, y: np.ndarray,
                 settings: Optional[CaffeineSettings] = None,
                 cache: Optional[BasisColumnCache] = None) -> None:
        self.X = np.asarray(X, dtype=float)
        self.y = np.asarray(y, dtype=float)
        if self.X.ndim != 2:
            raise ValueError("X must be 2-D (n_samples, n_variables)")
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("X and y disagree on the number of samples")
        self.settings = settings if settings is not None else CaffeineSettings()
        budgets = cache_budgets(self.settings)
        # An externally shared cache is used as given, whatever its size.
        self.cache = cache if cache is not None \
            else BasisColumnCache(budgets.columns)
        self.normalization = error_normalization(self.y)
        #: miss-path column computation; it also owns the basis-key recipe,
        #: so its keys and its evaluations always agree
        self.column_backend = CompiledColumnBackend(self.X, self.settings)
        #: column-cache key prefix: evaluators on byte-identical X *and* an
        #: implementation-identical function set share cached columns
        #: through a common cache; different data or differently-bound
        #: operator names never collide (see :func:`dataset_fingerprint`
        #: and :func:`function_set_fingerprint`)
        self.dataset_key = (dataset_fingerprint(self.X),
                            function_set_fingerprint(
                                self.settings.function_set))
        #: the post-fit prediction/residual step: one stacked pass per
        #: basis width and generation
        self.residual_backend = BatchedResidualBackend(self.y,
                                                       self.normalization)
        #: the cross-generation normal-equation scalar pool every fit
        #: gathers from
        self.gram_pool = GramPool(self.y, budgets.gram_pairs)
        self._y_sum = float(self.y.sum())
        self._y_finite = bool(np.isfinite(self.y).all())
        #: total number of individual evaluations performed (for benchmarks)
        self.n_evaluated = 0
        #: column-level accounting: how many basis-column lookups were made
        #: and how many had to be computed (the gap is the cache's work saved)
        self.n_column_requests = 0
        self.n_columns_computed = 0
        #: fit-level accounting: a whole individual whose exact sequence of
        #: basis keys was fitted before reuses that fit, error and complexity
        self.n_fit_requests = 0
        self.n_fits_computed = 0
        self._fit_cache: "OrderedDict[Tuple, Tuple]" = OrderedDict()
        #: keys prefilled by the current batch; their first assembly lookup is
        #: accounted as a computation, not a cache hit (see _column_for)
        self._fresh_keys: set = set()
        #: batch-local precomputed gram fits keyed by :meth:`_batch_key`;
        #: filled by :meth:`_prepare_fits`
        self._batch_fit_results: Dict = {}
        #: batch-local overlay of prefilled columns, consulted before the LRU
        #: so that a cache smaller than one batch (or a disabled cache) never
        #: forces recomputation within the batch that just computed a column
        self._batch_columns: Dict[Tuple, np.ndarray] = {}
        #: per-basis complexity by structural key (complexity is additive
        #: over bases and fully determined by the key + settings, so the sum
        #: over cached terms is bit-identical to model_complexity)
        self._complexity_cache: Dict[Tuple, float] = {}

    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        return self.cache.stats

    @property
    def column_hit_rate(self) -> float:
        """Fraction of basis-column lookups served without re-evaluation."""
        if self.n_column_requests == 0:
            return 0.0
        # repro-lint: allow[errstate] -- scalar int hit-rate statistic, no column arrays
        return 1.0 - self.n_columns_computed / self.n_column_requests

    @property
    def fit_hit_rate(self) -> float:
        """Fraction of individual evaluations served entirely from cache."""
        if self.n_fit_requests == 0:
            return 0.0
        # repro-lint: allow[errstate] -- scalar int hit-rate statistic, no column arrays
        return 1.0 - self.n_fits_computed / self.n_fit_requests

    def basis_key(self, basis: ProductTerm) -> Tuple:
        """The exact evaluation-recipe identity used as the cache key."""
        return self.column_backend.basis_key(basis)

    def basis_column(self, basis: ProductTerm) -> np.ndarray:
        """The (cached) evaluated column of one basis function."""
        return self._column_for(self.basis_key(basis), basis)

    def basis_matrix(self, bases: Sequence[ProductTerm]) -> np.ndarray:
        """Assemble an ``(n_samples, n_bases)`` matrix from cached columns."""
        return self._matrix_from_keys([self.basis_key(b) for b in bases], bases)

    # ------------------------------------------------------------------
    def evaluate_individual(self, individual: Individual) -> Individual:
        """Evaluate one individual through the caches (in place)."""
        basis_keys = [self.basis_key(b) for b in individual.bases]
        return self._evaluate_with_keys(individual, basis_keys)

    def evaluate_population(self, individuals: Sequence[Individual]
                            ) -> Sequence[Individual]:
        """Evaluate a whole population (in place), batching uncached columns.

        Individuals whose exact basis sequence was fitted before are served
        from the fit cache.  For the rest, the unique uncached basis columns
        are computed once, every missing normal-equation scalar is computed
        in one vectorized pass, and each same-width group is solved and
        scored in stacked calls; the per-individual loop then distributes
        the results in population order.

        Basis keys are computed exactly once per basis per call and threaded
        through every stage; hashing the trees is otherwise the single
        largest cost of a fully cached evaluation.

        With a zero-capacity column cache nothing persists across calls,
        but the unique columns of *this* batch are still computed once via
        a batch-local overlay.
        """
        # Recovery-test hook: a batch whose fit machinery blows up
        # (singular solve, numerical bug, OOM) must surface as a structured
        # per-problem failure upstream, never abort a whole sweep.
        faults.raise_point("fit.exception", n=len(individuals))
        basis_key = self.column_backend.basis_key
        keyed = [(individual, [basis_key(b) for b in individual.bases])
                 for individual in individuals]
        if self.cache.max_entries > 0:
            pending = [(individual, keys) for individual, keys in keyed
                       if tuple(keys) not in self._fit_cache]
        else:
            pending = keyed
        try:
            self._prefill_columns(pending)
            if pending:
                self._prepare_fits(pending)
            for individual, keys in keyed:
                self._evaluate_with_keys(individual, keys)
        finally:
            # Clear even on a mid-batch exception: leftover fresh keys would
            # corrupt the hit-rate accounting of the next batch, and leftover
            # overlay columns would outlive the 'nothing persists across
            # calls' guarantee of a disabled cache.
            self._fresh_keys.clear()
            self._batch_columns.clear()
            self._batch_fit_results.clear()
        return individuals

    # ------------------------------------------------------------------
    def _column_for(self, key: Tuple, basis: ProductTerm) -> np.ndarray:
        self.n_column_requests += 1
        column = self._batch_columns.get(key)
        if column is not None:
            if key in self._fresh_keys:
                # First assembly lookup of a column the batch prefill just
                # computed: real work happened this batch, so it counts as a
                # computation, not as cache reuse.
                self._fresh_keys.discard(key)
                self.n_columns_computed += 1
            return column
        column = self.cache.get((self.dataset_key, key))
        if column is None:
            column = self.column_backend.evaluate(basis, key)
            self.n_columns_computed += 1
            self.cache.put((self.dataset_key, key), column)
        return column

    def _matrix_from_keys(self, keys: List[Tuple],
                          bases: Sequence[ProductTerm]) -> np.ndarray:
        if not bases:
            return np.zeros((self.X.shape[0], 0))
        return np.column_stack([self._column_for(key, basis)
                                for key, basis in zip(keys, bases, strict=True)])

    def _complexity_from_keys(self, keys: List[Tuple],
                              bases: Sequence[ProductTerm]) -> float:
        """Model complexity from per-basis cached terms (order-preserving sum,
        so bit-identical to :func:`~repro.core.complexity.model_complexity`)."""
        total = []
        for key, basis in zip(keys, bases, strict=True):
            term = self._complexity_cache.get(key)
            if term is None:
                term = basis_function_complexity(
                    basis, self.settings.basis_function_cost,
                    self.settings.vc_exponent_cost)
                if self.cache.max_entries > 0:
                    if len(self._complexity_cache) >= self.cache.max_entries:
                        self._complexity_cache.clear()
                    self._complexity_cache[key] = term
            total.append(term)
        return float(sum(total))

    def _batch_key(self, individual: Individual, keys: List[Tuple]):
        # Duplicates share one fit exactly as the fit cache would arrange;
        # without a fit cache every individual is its own entry.
        return tuple(keys) if self.cache.max_entries > 0 else id(individual)

    def _evaluate_with_keys(self, individual: Individual,
                            basis_keys: List[Tuple]) -> Individual:
        # Column order determines which coefficient belongs to which basis,
        # so the individual-level key is the ordered tuple of basis keys.
        fit_key = tuple(basis_keys) if self.cache.max_entries > 0 else None
        self.n_evaluated += 1
        self.n_fit_requests += 1
        if fit_key is not None:
            cached = self._fit_cache.get(fit_key)
            if cached is not None:
                self._fit_cache.move_to_end(fit_key)
                fit, error, complexity = cached
                # LinearFit is frozen and treated as immutable, so sharing
                # one instance across structurally identical individuals is
                # safe -- exactly what SymbolicModel.from_individual already
                # does between an individual and its frozen model.
                individual.fit = fit
                individual.error = error
                individual.complexity = complexity
                individual.normalization = self.normalization
                return individual
        self.n_fits_computed += 1
        self._fit(individual, basis_keys)
        if fit_key is not None:
            self._fit_cache[fit_key] = (individual.fit, individual.error,
                                        individual.complexity)
            while len(self._fit_cache) > self.cache.max_entries:
                self._fit_cache.popitem(last=False)
        return individual

    # ------------------------------------------------------------------
    def _prefill_columns(self, keyed: Sequence[Tuple[Individual, List[Tuple]]]
                         ) -> None:
        """Compute every column the given individuals will need, once.

        Results land in the batch-local overlay (always) and the LRU (when
        enabled), so assembly never recomputes a column this batch produced --
        even when the LRU is smaller than the batch or disabled entirely.
        """
        missing: "OrderedDict[Tuple, ProductTerm]" = OrderedDict()
        for individual, keys in keyed:
            for key, basis in zip(keys, individual.bases, strict=True):
                if key not in missing and key not in self._batch_columns \
                        and (self.dataset_key, key) not in self.cache:
                    missing[key] = basis
        # No counter bumps here: the assembly pass accounts each of these
        # keys as a computation on its first lookup (via _fresh_keys), so a
        # basis occurrence is counted exactly once per evaluation.
        for key, basis in missing.items():
            column = self.column_backend.evaluate(basis, key)
            self._fresh_keys.add(key)
            self._batch_columns[key] = column
            self.cache.put((self.dataset_key, key), column)

    # ------------------------------------------------------------------
    # linear fits: gram-pool gather-and-solve
    #
    # Fits gather canonical normal-equation scalars from the cross-generation
    # GramPool instead of re-reducing n_samples-long columns, and whole
    # batches solve in stacked LAPACK calls.  Every value is bit-for-bit
    # what evaluate_individual_inplace's full fit_linear produces (the
    # scalars come from the same pair_dots recipe no matter when or in
    # which batch they were first computed); the test suite holds that
    # per-individual path as the reference.
    # ------------------------------------------------------------------
    def _fit(self, individual: Individual, basis_keys: List[Tuple]) -> None:
        """Set ``fit``/``error``/``complexity``/``normalization`` in place."""
        individual.complexity = self._complexity_from_keys(
            basis_keys, individual.bases)
        individual.normalization = self.normalization
        precomputed = self._batch_fit_results.get(
            self._batch_key(individual, basis_keys))
        if precomputed is not None:
            # Sharing one frozen LinearFit across structurally identical
            # individuals mirrors what the fit cache already does.
            individual.fit, individual.error = precomputed
            return
        self._fit_with_gram(individual, basis_keys)

    def _fit_with_gram(self, individual: Individual,
                       basis_keys: List[Tuple]) -> None:
        """One gram-pool fit outside a prepared batch (standalone calls and
        the intercept-only individual): gather, small solve, score."""
        columns = [self._column_for(key, basis)
                   for key, basis in zip(basis_keys, individual.bases,
                                         strict=True)]
        gram, colsums, ydots, finite = self.gram_pool.statistics_for(
            list(zip(basis_keys, columns, strict=True)))
        individual.fit = None
        individual.error = float("inf")
        if not (finite and self._y_finite):
            # Exactly fit_linear's non-finite rejection, decided from the
            # pool's per-column finite flags instead of a full-matrix scan.
            return
        if columns:
            basis_matrix = np.column_stack(columns)
        else:
            basis_matrix = np.zeros((self.X.shape[0], 0))
        fit = fit_linear_from_gram(gram, colsums, ydots, self._y_sum,
                                   basis_matrix, self.y)
        if fit is not None:
            individual.fit = fit
            individual.error = self.residual_backend.error(fit, basis_matrix)

    def _prepare_fits(self, pending: Sequence[Tuple[Individual, List[Tuple]]]
                      ) -> None:
        """Solve the batch's unique fresh fits in stacked LAPACK calls.

        Pending individuals are deduplicated by :meth:`_batch_key` and their
        ``(key, column)`` sequences are built once -- shared by the pool's
        batched :meth:`GramPool.prepare` and the per-group gathers below.
        Each same-basis-count group's normal equations are then solved by
        one :func:`~repro.regression.least_squares.fit_linear_from_gram_batch`
        call and scored in one stacked residual pass.  Results land in
        ``_batch_fit_results`` for the per-individual loop to distribute.
        """
        groups: Dict[int, List[Tuple]] = {}
        queued = set()
        prepared_columns = []
        for individual, keys in pending:
            batch_key = self._batch_key(individual, keys)
            if batch_key in queued or not keys:
                # Duplicates share the first occurrence's fit; empty
                # individuals take the (cheap) standalone intercept-only path.
                continue
            queued.add(batch_key)
            keyed_columns = [(key, self._column_for(key, basis))
                             for key, basis in zip(keys, individual.bases,
                                                   strict=True)]
            prepared_columns.append(keyed_columns)
            groups.setdefault(len(keys), []).append(
                (batch_key, keyed_columns))
        if not groups:
            return
        self.gram_pool.prepare(prepared_columns)
        for n_bases, items in groups.items():
            n_items = len(items)
            grams = np.empty((n_items, n_bases, n_bases))
            colsums = np.empty((n_items, n_bases))
            ydots = np.empty((n_items, n_bases))
            basis_matrices = []
            finite_rows = np.empty(n_items, dtype=bool)
            for position, (_batch_key, keyed_columns) in enumerate(items):
                finite_rows[position] = self.gram_pool.gather_into(
                    keyed_columns, grams[position], colsums[position],
                    ydots[position])
                basis_matrices.append(np.column_stack(
                    [column for _key, column in keyed_columns]))
            if not self._y_finite:
                finite_rows[:] = False
            if finite_rows.all():
                solvable = np.arange(n_items)
            else:
                # Non-finite items would poison the stacked LAPACK calls;
                # they are infeasible by fit_linear's rules anyway.
                solvable = np.flatnonzero(finite_rows)
                for position in np.flatnonzero(~finite_rows):
                    self._batch_fit_results[items[position][0]] = \
                        (None, float("inf"))
                if solvable.size == 0:
                    continue
                grams = grams[solvable]
                colsums = colsums[solvable]
                ydots = ydots[solvable]
            solvable_matrices = [basis_matrices[i] for i in solvable]
            fits = fit_linear_from_gram_batch(grams, colsums, ydots,
                                              self._y_sum, solvable_matrices,
                                              self.y)
            scored_positions = []
            scored_fits: List[LinearFit] = []
            scored_matrices = []
            for position, fit, basis_matrix in zip(solvable, fits,
                                                   solvable_matrices, strict=True):
                if fit is None:
                    self._batch_fit_results[items[position][0]] = \
                        (None, float("inf"))
                    continue
                scored_positions.append(position)
                scored_fits.append(fit)
                scored_matrices.append(basis_matrix)
            if not scored_fits:
                continue
            errors = self.residual_backend.errors(scored_fits, scored_matrices)
            for position, fit, error in zip(scored_positions, scored_fits,
                                            errors, strict=True):
                self._batch_fit_results[items[position][0]] = (fit, error)
