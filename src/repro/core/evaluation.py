"""Batch population evaluation with basis-column caching.

CAFFEINE's runtime is dominated by re-evaluating evolved basis-function
trees on the training matrix: every generation evaluates ``population_size``
offspring of up to ``max_basis_functions`` trees each, node by node, in pure
Python.  Crossover and cloning copy subtrees verbatim, so the *same* basis
function (by its exact evaluation recipe, the ``(skeleton, params)`` pair
of :func:`repro.core.compile.cached_skeleton_and_params`) is evaluated over
and over on the *same* dataset.  This module removes that redundancy:

* :class:`BasisColumnCache` -- an LRU cache mapping
  ``(dataset_key, (skeleton, params))`` to a basis function's evaluated
  column;
* :class:`PopulationEvaluator` -- evaluates whole populations: it interns
  the batch's unique basis functions once into one ``(u, n_samples)`` row
  matrix (computing only the uncached columns), describes every
  same-width group of individuals as an ``(m, k)`` array of row indices
  into it, and fits and scores each group in stacked calls; a second,
  individual-level LRU (keyed by the ordered tuple of basis keys) short-cuts
  the fit itself for structurally identical individuals;
* :class:`GramPool` -- a cross-generation pool of normal-equation scalars
  (column sums, column--target dots and pairwise column dot products, all by
  basis key) that turns each linear fit into a small
  ``(k+1) x (k+1)`` gather-and-solve with no per-fit pass over
  ``n_samples`` beyond the final residual step; offspring that differ from a
  parent by one basis function cost ``k`` fresh pair dots instead of a full
  ``k^2`` gram (the incremental, "rank-1" regime).  The pool resolves a
  whole batch at once: one deduplicated set of pair lookups, one
  :func:`~repro.regression.least_squares.pair_dots` call for the missing
  ones and one scatter into each group's gram stack, with no Python loop
  over pair requests.

:meth:`PopulationEvaluator.evaluate_population` is the only way an
individual gets fitted: the engine calls it once per generation and
simplification (:mod:`repro.core.simplify`) twice per run, and a batch of
one individual is simply a small batch.

Correctness invariant: a cache hit returns the exact array a fresh
evaluation would produce (a miss goes through
:meth:`~repro.core.compile.TreeCompiler.column_from_key`, which is bit for
bit :func:`repro.core.individual.evaluate_basis_column`, and the
``(skeleton, params)`` key encodes the exact floating-point recipe), and a
gram-pool fit returns the exact
:class:`~repro.regression.least_squares.LinearFit` that normal equations
built from the assembled basis matrix and solved one individual at a time
would give (both use the canonical
:func:`~repro.regression.least_squares.pair_dots` recipe) -- so the
evaluator is bit-for-bit identical to that per-individual fit (the test
suite's reference) whatever the cache budgets and however a population is
split into batches: a fixed seed produces the same trade-off set.

Column-cache keys carry a :func:`dataset_fingerprint` prefix, so one
:class:`BasisColumnCache` can safely be shared by evaluators bound to
different targets: the six OTA performances of the paper's experiments all
evaluate on the *same* ``X``, and a shared cache makes the column side of a
multi-target sweep roughly six times cheaper (a serial
:class:`~repro.core.session.Session` shares one across its problems).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
from collections import OrderedDict
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core import faults
from repro.core.compile import (
    TreeCompiler,
    cached_skeleton_and_params,
    skeleton_complexity,
)
from repro.core.expression import ProductTerm
from repro.core.individual import Individual
from repro.core.settings import CaffeineSettings
from repro.data.metrics import error_normalization, relative_rmse_rows
from repro.regression.least_squares import (
    LinearFit,
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

    Keys are ``(dataset_key, (skeleton, params))``: the evaluator's data and
    function-set prefix plus the basis function's exact evaluation recipe
    (:func:`~repro.core.compile.cached_skeleton_and_params`); values are
    the evaluated (and magnitude-clipped) columns, computed on a miss by
    :meth:`~repro.core.compile.TreeCompiler.column_from_key`.  Stored arrays are treated as
    immutable -- callers must not write into a returned column.

    ``max_entries`` (at least 1) also caps the evaluator's per-individual
    fit cache.  Any capacity gives bit-identical models: a cache smaller
    than one batch only costs recomputation in later batches.
    """

    def __init__(self, max_entries: int = 20000) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
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
        if key in self._columns:
            self._columns.move_to_end(key)
            return
        self._columns[key] = column
        while len(self._columns) > self.max_entries:
            self._columns.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        self._columns.clear()


@functools.lru_cache(maxsize=None)
def _upper_triangle(k: int) -> Tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(k)``, built once per width (callers never write
    into it)."""
    return np.triu_indices(k)


class GramPool:
    """Cross-generation pool of canonical normal-equation scalars.

    Per basis column (identified by its ``(skeleton, params)`` basis key)
    the pool caches the column sum, the column--target dot and a
    finiteness flag; per unordered *pair* of columns it caches the dot
    product (diagonal pairs double as the squared norms the fit's column
    scaling needs).  Every scalar is a
    reduction along the contiguous rows of a column stack (for pairs,
    :func:`repro.regression.least_squares.pair_dots`), whose batched
    results are bit-for-bit independent of batch composition, so a gram
    gathered here is exactly the gram the same recipe would compute from
    the assembled basis matrix, no matter when or in which batch each
    entry was first produced.

    Crossover and mutation mostly reshuffle existing basis functions, so
    after warm-up the pool serves nearly all pair lookups from cache; an
    offspring that differs from its parent by one column needs only ``k``
    fresh pair dots (new column x each retained column) rather than a full
    ``k^2`` gram -- the incremental "rank-1 update" regime, realized as
    cache hits instead of explicit factor updates.

    The pool works a batch at a time: :meth:`prepare` resolves the batch's
    unique columns and :meth:`gather_into` all of its pairs, each with one
    vectorized pass for the missing scalars.  Values always come from those
    per-batch vectors, never re-read from the pool, so eviction (a pool
    smaller than one batch) costs recomputation in later batches but never
    a wrong or recomputed value within one.  Column identities are interned
    to integer ids below ``2**31`` and a pair is keyed by its two ids
    packed into one integer; evicting a column orphans its pairs, which
    then age out of the pair LRU naturally.
    """

    #: exclusive bound on column ids, so ``lo << 32 | hi`` fits an int64
    MAX_IDS = 2 ** 31

    def __init__(self, y: np.ndarray, max_pairs: int = 200000) -> None:
        if max_pairs < 0:
            raise ValueError("max_pairs must be non-negative")
        y = np.ascontiguousarray(np.asarray(y, dtype=float).ravel())
        self._y_row = y[None, :]
        self.max_pairs = int(max_pairs)
        #: columns are cheap (four scalars each) -- cap them at the pair
        #: budget so the two LRUs age out together
        self.max_columns = max(1, int(max_pairs))
        #: basis key -> (id, colsum, ydot, finite)
        self._columns: "OrderedDict[Tuple, tuple]" = OrderedDict()
        #: ``lo << 32 | hi`` of the two column ids -> dot product
        self._pairs: "OrderedDict[int, float]" = OrderedDict()
        self._next_id = 0
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
    def prepare(self, keys: Sequence[Tuple], rows: np.ndarray
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Pool ids and column statistics of a batch's unique columns.

        ``rows`` is the C-contiguous ``(u, n_samples)`` stack of the
        columns whose basis keys are ``keys`` (each key once).
        Returns the ``ids``, ``colsums``, ``ydots`` and ``finite`` vectors
        aligned with ``rows``; statistics the pool lacks are computed in one
        vectorized row reduction and pooled under fresh ids.
        """
        if self._next_id + len(keys) > self.MAX_IDS:
            # Renumber from zero so packed pair keys stay collision-free;
            # pooled scalars never change a result.
            self._columns.clear()
            self._pairs.clear()
            self._next_id = 0
        columns = self._columns
        entries = [columns.get(key) for key in keys]
        if len(columns) > self.max_columns // 2:
            # Recency refreshes are LRU hygiene: they only matter once the
            # pool could evict, so skip them in the (default) steady state.
            for key, entry in zip(keys, entries, strict=True):
                if entry is not None:
                    columns.move_to_end(key)
        missing = [position for position, entry in enumerate(entries)
                   if entry is None]
        stats = np.array([(0, 0.0, 0.0, False) if entry is None else entry
                          for entry in entries], dtype=float).reshape(-1, 4)
        ids = stats[:, 0].astype(np.int64)
        colsums = stats[:, 1]
        ydots = stats[:, 2]
        finite = stats[:, 3] != 0.0
        if missing:
            fresh = rows[missing]
            ids[missing] = np.arange(self._next_id,
                                     self._next_id + len(missing))
            self._next_id += len(missing)
            colsums[missing] = fresh.sum(axis=1)
            ydots[missing] = (fresh * self._y_row).sum(axis=1)
            finite[missing] = np.isfinite(fresh).all(axis=1)
            for position in missing:
                columns[keys[position]] = (
                    int(ids[position]), float(colsums[position]),
                    float(ydots[position]), bool(finite[position]))
            while len(columns) > self.max_columns:
                columns.popitem(last=False)
        return ids, colsums, ydots, finite

    def gather_into(self, rows: np.ndarray, ids: np.ndarray,
                    index_groups: Sequence[np.ndarray],
                    grams_out: Sequence[np.ndarray]) -> None:
        """Gather every gram of a batch into its group's stack.

        ``rows`` and ``ids`` are :meth:`prepare`'s input and output;
        ``index_groups[g]`` is an ``(m, k)`` array holding, per individual
        of one same-width group, the row of each of its bases, and
        ``grams_out[g]`` the ``(m, k, k)`` stack to fill.  The batch's pair
        requests are deduplicated in one :func:`numpy.unique`, each unique
        pair is looked up once, and the missing dots are computed in one
        :func:`pair_dots` call.
        """
        groups = []
        for index in index_groups:
            upper_a, upper_b = _upper_triangle(index.shape[1])
            groups.append((upper_a, upper_b, index[:, upper_a].ravel(),
                           index[:, upper_b].ravel()))
        rows_a = np.concatenate([group[2] for group in groups])
        rows_b = np.concatenate([group[3] for group in groups])
        self.n_pair_requests += rows_a.size
        if rows_a.size == 0:
            return
        ids_a = ids[rows_a]
        ids_b = ids[rows_b]
        packed = (np.minimum(ids_a, ids_b) << 32) | np.maximum(ids_a, ids_b)
        unique, first, inverse = np.unique(packed, return_index=True,
                                           return_inverse=True)
        pairs = self._pairs
        unique_keys = unique.tolist()
        found = [pairs.get(key) for key in unique_keys]
        if len(pairs) > self.max_pairs // 2:
            for key, value in zip(unique_keys, found, strict=True):
                if value is not None:
                    pairs.move_to_end(key)
        missing = [position for position, value in enumerate(found)
                   if value is None]
        values = np.array([0.0 if value is None else value
                           for value in found])
        if missing:
            source = first[missing]
            values[missing] = pair_dots(rows[rows_a[source]],
                                        rows[rows_b[source]])
            self.n_pairs_computed += len(missing)
            for position in missing:
                pairs[unique_keys[position]] = float(values[position])
            while len(pairs) > self.max_pairs:
                pairs.popitem(last=False)
        gathered = values[inverse]
        offset = 0
        for (upper_a, upper_b, group_rows, _), grams in zip(groups, grams_out,
                                                            strict=True):
            block = gathered[offset:offset + group_rows.size].reshape(
                grams.shape[0], upper_a.size)
            offset += group_rows.size
            grams[:, upper_a, upper_b] = block
            grams[:, upper_b, upper_a] = block


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
    the prediction side).  ``errors`` is bit-for-bit one ``relative_rmse``
    of a left-to-right prediction per individual, for any group size
    including one, enforced by hypothesis property tests and fixed-seed
    engine equality against that per-individual reference.
    """

    def __init__(self, y: np.ndarray, normalization: float) -> None:
        self.y = np.ascontiguousarray(np.asarray(y, dtype=float).ravel())
        self.normalization = float(normalization)
        #: stacked-pass accounting
        self.n_batched_passes = 0
        self.n_batched_fits = 0

    def errors(self, fits: Sequence[LinearFit],
               stacked: np.ndarray) -> List[float]:
        """One stacked prediction/residual pass over a same-width group.

        ``stacked`` is the group's ``(m, n_samples, k)`` basis stack (any
        memory layout), one matrix per fit.
        """
        if not fits:
            return []
        intercepts = np.array([fit.intercept for fit in fits])
        coefficient_rows = np.stack([fit.coefficients for fit in fits])
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
        #: and :meth:`~repro.core.functions.FunctionSet.fingerprint`)
        self.dataset_key = (dataset_fingerprint(self.X),
                            self.settings.function_set.fingerprint())
        #: the post-fit prediction/residual step: one stacked pass per
        #: basis width and generation
        self.residual_backend = BatchedResidualBackend(self.y,
                                                       self.normalization)
        #: the cross-generation normal-equation scalar pool every fit
        #: gathers from
        self.gram_pool = GramPool(self.y, budgets.gram_pairs)
        self._y_sum = float(self.y.sum())
        self._y_finite = bool(np.isfinite(self.y).all())
        #: column-level accounting: how many basis-column lookups were made
        #: and how many had to be computed (the gap is the cache's work saved)
        self.n_column_requests = 0
        self.n_columns_computed = 0
        #: fit-level accounting: a whole individual whose exact sequence of
        #: basis keys was fitted before reuses that fit, error and complexity
        self.n_fit_requests = 0
        self.n_fits_computed = 0
        self._fit_cache: "OrderedDict[Tuple, Tuple]" = OrderedDict()
        #: per-basis complexity by basis key (complexity is additive
        #: over bases and fully determined by the key + settings, so the sum
        #: over cached terms is bit-identical to model_complexity)
        self._complexity_cache: Dict[Tuple, float] = {}

    # ------------------------------------------------------------------
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

    def basis_matrix(self, bases: Sequence[ProductTerm]) -> np.ndarray:
        """Assemble an ``(n_samples, n_bases)`` matrix from cached columns."""
        self.n_column_requests += len(bases)
        if not bases:
            return np.zeros((self.X.shape[0], 0))
        return np.column_stack([self._column(self.basis_key(basis), basis)
                                for basis in bases])

    # ------------------------------------------------------------------
    def evaluate_population(self, individuals: Sequence[Individual]
                            ) -> Sequence[Individual]:
        """Fit every individual and set both objectives (in place).

        This is the only way an individual gets fitted.  Individuals whose
        exact basis sequence was fitted before -- in an earlier call or
        earlier in this one -- share that fit, error and complexity.  For
        the rest, the unique uncached basis columns are computed once, every
        missing normal-equation scalar is computed in one vectorized pass,
        and each same-width group (intercept-only individuals form the
        width-0 group) is solved and scored in stacked calls.  Batching
        never changes a bit: one call on a population and one call per
        individual give identical results.

        Basis keys are computed exactly once per basis per call and threaded
        through every stage; hashing the trees is otherwise the single
        largest cost of a fully cached evaluation.
        """
        # Recovery-test hook: a batch whose fit machinery blows up
        # (singular solve, numerical bug, OOM) must surface as a structured
        # per-problem failure upstream, never abort a whole sweep.
        faults.raise_point("fit.exception", n=len(individuals))
        basis_key = self.column_backend.basis_key
        fit_keys: List[Tuple] = []
        results: Dict[Tuple, Optional[Tuple]] = {}
        pending: List[Tuple[Individual, List[Tuple]]] = []
        for individual in individuals:
            keys = [basis_key(b) for b in individual.bases]
            # Column order determines which coefficient belongs to which
            # basis, so the individual-level key is the ordered key tuple.
            fit_key = tuple(keys)
            fit_keys.append(fit_key)
            if fit_key in results:
                continue
            cached = self._fit_cache.get(fit_key)
            if cached is None:
                pending.append((individual, keys))
            else:
                self._fit_cache.move_to_end(fit_key)
            results[fit_key] = cached
        fresh = self._prepare_fits(pending)
        for (individual, keys), (fit, error) in zip(pending, fresh,
                                                    strict=True):
            entry = (fit, error,
                     self._complexity_from_keys(keys, individual.bases))
            results[tuple(keys)] = entry
            self._fit_cache[tuple(keys)] = entry
        while len(self._fit_cache) > self.cache.max_entries:
            self._fit_cache.popitem(last=False)
        self.n_fit_requests += len(individuals)
        self.n_fits_computed += len(pending)
        for individual, fit_key in zip(individuals, fit_keys, strict=True):
            # LinearFit is frozen and treated as immutable, so sharing one
            # instance across structurally identical individuals is safe --
            # exactly what SymbolicModel.from_individual already does between
            # an individual and its frozen model.
            individual.fit, individual.error, individual.complexity = \
                results[fit_key]
            individual.normalization = self.normalization
        return individuals

    # ------------------------------------------------------------------
    def _column(self, key: Tuple, basis: ProductTerm) -> np.ndarray:
        """The column of ``basis`` (basis key ``key``): cached, or computed,
        counted and cached."""
        column = self.cache.get((self.dataset_key, key))
        if column is None:
            column = self.column_backend.evaluate(basis, key)
            self.n_columns_computed += 1
            self.cache.put((self.dataset_key, key), column)
        return column

    def _complexity_from_keys(self, keys: List[Tuple],
                              bases: Sequence[ProductTerm]) -> float:
        """Model complexity from per-basis cached terms (order-preserving sum,
        so bit-identical to :func:`~repro.core.complexity.model_complexity`).

        A fresh term is read off the basis's memoized skeleton, which the
        column key already walked the tree for, instead of walking it again.
        """
        total = []
        for key, basis in zip(keys, bases, strict=True):
            term = self._complexity_cache.get(key)
            if term is None:
                term = skeleton_complexity(
                    *cached_skeleton_and_params(basis),
                    self.settings.basis_function_cost,
                    self.settings.vc_exponent_cost)
                if len(self._complexity_cache) >= self.cache.max_entries:
                    self._complexity_cache.clear()
                self._complexity_cache[key] = term
            total.append(term)
        return float(sum(total))

    # ------------------------------------------------------------------
    # linear fits: gram-pool gather-and-solve
    #
    # Fits gather canonical normal-equation scalars from the cross-generation
    # GramPool instead of re-reducing n_samples-long columns, and whole
    # batches solve in stacked LAPACK calls.  Every value is bit-for-bit
    # what a per-individual fit from the assembled basis matrix produces
    # (the scalars come from the same pair_dots recipe no matter when or in
    # which batch they were first computed); the test suite holds that
    # per-individual path as the reference.
    # ------------------------------------------------------------------
    def _prepare_fits(self, pending: Sequence[Tuple[Individual, List[Tuple]]]
                      ) -> List[Tuple[Optional[LinearFit], float]]:
        """``(fit, error)`` for each of the batch's fresh individuals, in order.

        ``pending`` holds each structurally distinct individual once.  The
        batch's unique basis columns are interned once into one
        ``(u, n_samples)`` row matrix (computing the uncached ones), and
        each same-basis-count group becomes an ``(m, k)`` array of row
        indices into it.  One :meth:`GramPool.prepare` and one
        :meth:`GramPool.gather_into` then produce every group's normal
        equations, which one
        :func:`~repro.regression.least_squares.fit_linear_from_gram_batch`
        call per group solves and one stacked residual pass scores.
        Infeasible individuals get ``(None, inf)``.
        """
        if not pending:
            return []
        interned: Dict[Tuple, int] = {}
        columns: List[np.ndarray] = []
        groups: Dict[int, Tuple[List[int], List[List[int]]]] = {}
        for position, (individual, keys) in enumerate(pending):
            indices = []
            for key, basis in zip(keys, individual.bases, strict=True):
                index = interned.get(key)
                if index is None:
                    index = interned[key] = len(columns)
                    columns.append(self._column(key, basis))
                indices.append(index)
            self.n_column_requests += len(keys)
            positions, row_lists = groups.setdefault(len(keys), ([], []))
            positions.append(position)
            row_lists.append(indices)
        rows = np.stack(columns) if columns else np.empty((0, self.X.shape[0]))
        ids, colsums, ydots, finite = self.gram_pool.prepare(list(interned),
                                                             rows)
        index_groups = [np.array(row_lists, dtype=np.intp).reshape(
            len(positions), n_bases)
            for n_bases, (positions, row_lists) in groups.items()]
        grams = [np.empty((index.shape[0], index.shape[1], index.shape[1]))
                 for index in index_groups]
        self.gram_pool.gather_into(rows, ids, index_groups, grams)

        results: List[Tuple[Optional[LinearFit], float]] = \
            [(None, float("inf"))] * len(pending)
        for (positions, _), index, group_grams in zip(
                groups.values(), index_groups, grams, strict=True):
            # A fit with a non-finite column or target is infeasible, and
            # non-finite items would poison the stacked LAPACK calls.
            solvable = np.flatnonzero(finite[index].all(axis=1)
                                      & self._y_finite)
            if solvable.size == 0:
                continue
            if solvable.size < len(positions):
                index = index[solvable]
                group_grams = group_grams[solvable]
            # (m, k, n) row gathers, read as the (m, n, k) basis stack
            stacked = rows[index].transpose(0, 2, 1)
            fits = fit_linear_from_gram_batch(group_grams, colsums[index],
                                              ydots[index], self._y_sum,
                                              stacked, self.y)
            scored = [row for row, fit in enumerate(fits) if fit is not None]
            if not scored:
                continue
            if len(scored) < len(fits):
                stacked = stacked[scored]
            errors = self.residual_backend.errors(
                [fits[row] for row in scored], stacked)
            for row, error in zip(scored, errors, strict=True):
                results[positions[solvable[row]]] = (fits[row], error)
        return results
