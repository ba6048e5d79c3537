"""The CAFFEINE engine: the NSGA-II evolutionary loop over canonical-form models.

:class:`CaffeineEngine` runs one modeling task: given a training dataset
(and optionally a testing dataset), it evolves a population of multi-tree
individuals under the two objectives (normalized training error,
complexity), applies simplification-after-generation, and returns a
:class:`CaffeineResult` holding the trade-off of symbolic models plus
per-generation statistics.  Engines are driven by the
:class:`~repro.core.session.Session` orchestrator (the one public way to
run CAFFEINE); building an engine directly is for tests and tools that
need its state.

All fitness evaluation is routed through one
:class:`~repro.core.evaluation.PopulationEvaluator` bound to the training
data and its one fit path, ``evaluate_population``: once for the initial
population, once per generation for the offspring and twice for
simplification-after-generation.  Identical basis functions (which
crossover and cloning produce constantly) are evaluated once per run via an
LRU column cache.  Evaluation is bit-for-bit identical whatever the cache
budgets and batch sizes, so they never change the evolved models -- only
the wall-clock time.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
import warnings
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cache_store import RunCheckpointStore
from repro.core.evaluation import (
    BasisColumnCache,
    PopulationEvaluator,
    dataset_fingerprint,
)
from repro.core.generator import ExpressionGenerator
from repro.core.individual import Individual
from repro.core.model import SymbolicModel, TradeoffSet, batch_test_errors
from repro.core.nsga2 import (
    RankedPopulation,
    rank_population_arrays,
    select_and_rerank,
    tournament_winner,
)
from repro.core.operators import VariationOperators
from repro.core.pareto import nondominated_filter
from repro.core.settings import CaffeineSettings
from repro.core.simplify import simplify_population
from repro.data.dataset import Dataset

__all__ = ["GenerationStats", "CaffeineResult", "CaffeineEngine"]

#: Optional per-generation callback: ``callback(generation_index, stats)``.
ProgressCallback = Callable[[int, "GenerationStats"], None]


@dataclasses.dataclass(frozen=True)
class GenerationStats:
    """Summary statistics of one generation."""

    generation: int
    best_error: float
    median_error: float
    best_complexity: float
    front_size: int
    n_feasible: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"gen {self.generation:4d}: best error {100 * self.best_error:6.2f}%  "
                f"front {self.front_size:3d}  feasible {self.n_feasible:3d}")


@dataclasses.dataclass
class CaffeineResult:
    """Everything a CAFFEINE run produces."""

    target_name: str
    variable_names: Tuple[str, ...]
    #: final trade-off of symbolic models (training error vs. complexity)
    tradeoff: TradeoffSet
    #: the same models filtered on the testing-error trade-off (empty when no
    #: test data was given)
    test_tradeoff: TradeoffSet
    history: Tuple[GenerationStats, ...]
    settings: CaffeineSettings
    runtime_seconds: float
    #: identity of the training data the models were evolved on (sha1 of
    #: shape + bytes of X); travels into frozen artifacts so
    #: :func:`repro.core.artifact.load_front` can detect serving against
    #: different data.  None on results unpickled from older builds.
    dataset_fingerprint: Optional[str] = None
    #: operator-implementation identity of the run's function set
    function_set_fingerprint: Optional[Tuple] = None

    @property
    def n_models(self) -> int:
        return len(self.tradeoff)

    def best_model(self, by: str = "test") -> SymbolicModel:
        """Most accurate model by testing (default) or training error.

        ``by="test"`` falls back to the training-error winner when the run
        had no testing data (``test_tradeoff`` is empty).
        """
        if by == "test":
            if len(self.test_tradeoff) > 0:
                return self.test_tradeoff.most_accurate(by="test")
            return self.tradeoff.most_accurate(by="train")
        if by == "train":
            return self.tradeoff.most_accurate(by="train")
        raise ValueError(f"by must be 'train' or 'test', got {by!r}")


class CaffeineEngine:
    """Stateful engine for one run; :class:`~repro.core.session.Session`
    builds one per problem."""

    def __init__(self, train: Dataset, test: Optional[Dataset] = None,
                 settings: Optional[CaffeineSettings] = None,
                 column_cache: Optional[BasisColumnCache] = None) -> None:
        self.train = train.drop_nonfinite()
        self.test = test.drop_nonfinite() if test is not None else None
        if self.test is not None and self.test.variable_names != self.train.variable_names:
            raise ValueError("train and test datasets use different design variables")
        self.settings = settings if settings is not None else CaffeineSettings()
        self.rng = np.random.default_rng(self.settings.random_seed)
        self.generator = ExpressionGenerator(self.train.n_variables,
                                             self.settings, rng=self.rng)
        self.operators = VariationOperators(self.generator, self.settings, rng=self.rng)
        # column_cache may be shared across engines: its keys carry a
        # dataset + function-set fingerprint, so multi-target drivers that
        # evaluate on the same X with the same operator bindings (the
        # paper's six OTA performances) reuse each other's evaluated basis
        # columns; different data or operator bindings never collide.
        self.evaluator = PopulationEvaluator(self.train.X, self.train.y,
                                             self.settings,
                                             cache=column_cache)
        self.history: List[GenerationStats] = []
        self.population: List[Individual] = []
        # Rank/crowding arrays of the *current* population, produced by the
        # previous generation's select_and_rerank (or computed fresh on
        # first use).  Guarded by list identity: external drivers that
        # assign engine.population invalidate the cache automatically.
        self._ranked: Optional[RankedPopulation] = None
        self._tournament_bounds: Optional[np.ndarray] = None
        self._checkpoint_fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    def initialize_population(self) -> None:
        """Create and batch-evaluate the initial random population."""
        self.population = [
            Individual(bases=self.generator.random_basis_functions())
            for _ in range(self.settings.population_size)
        ]
        self.evaluator.evaluate_population(self.population)

    def step(self, generation: int) -> GenerationStats:
        """Run one NSGA-II generation and return its statistics.

        Selection is array-native: the current population's rank/crowding
        vectors (cached from the previous generation's survivor selection,
        computed fresh at generation 0) drive the binary tournaments, with
        each offspring's four index draws batched into one ``rng.integers``
        call that reproduces the sequential draw stream exactly; after
        evaluation, :func:`~repro.core.nsga2.select_and_rerank` performs
        survivor selection and derives the survivors' arrays from one
        nondominated sort of the combined population.  The population
        always holds ``population_size >= 4`` members (settings validation
        enforces the bound and ``select_and_rerank`` returns exactly that
        many survivors), so every tournament has two distinct competitors;
        a population assigned from outside needs at least two members.
        """
        ranked = self._ranked_population()
        population = self.population
        n = len(population)
        offspring: List[Individual] = []
        bounds = self._tournament_bounds
        if bounds is None or bounds[0] != n:
            bounds = np.array([n, n - 1, n, n - 1], dtype=np.int64)
            self._tournament_bounds = bounds
        for _ in range(self.settings.population_size):
            draws = self.rng.integers(0, bounds)
            parent_a = population[tournament_winner(ranked, draws[0],
                                                    draws[1])]
            parent_b = population[tournament_winner(ranked, draws[2],
                                                    draws[3])]
            child = self.operators.vary(parent_a, parent_b)
            child.generation_born = generation
            offspring.append(child)
        # Variation (RNG-driven) is kept strictly separate from evaluation
        # (RNG-free), so batching the evaluation preserves the random stream.
        self.evaluator.evaluate_population(offspring)
        combined = self.population + offspring
        self.population, self._ranked = select_and_rerank(
            combined, self.settings.population_size)
        stats = self._collect_stats(generation)
        self.history.append(stats)
        return stats

    def _ranked_population(self) -> RankedPopulation:
        """Rank/crowding arrays for the current population (cached)."""
        ranked = self._ranked
        if ranked is None or ranked.individuals is not self.population:
            ranked = rank_population_arrays(self.population)
            self._ranked = ranked
        return ranked

    def _front_individuals(self) -> List[Individual]:
        """Feasible rank-0 members of the current population.

        Identical to ``nondominated_filter`` over the feasible subset --
        infeasible individuals all carry infinite error, so they never
        dominate a feasible one and every dominator of a feasible
        individual is itself feasible -- but answered from the cached rank
        vector when it is current.
        """
        ranked = self._ranked
        if ranked is not None and ranked.individuals is self.population:
            return [ind for ind, rank in zip(self.population, ranked.ranks, strict=True)
                    if rank == 0 and ind.is_feasible]
        feasible = [ind for ind in self.population if ind.is_feasible]
        if not feasible:
            return []
        return nondominated_filter(feasible, key=lambda ind: ind.objectives)

    def _collect_stats(self, generation: int) -> GenerationStats:
        feasible = [ind for ind in self.population if ind.is_feasible]
        errors = np.array([ind.error for ind in feasible]) if feasible else np.array([np.inf])
        front = self._front_individuals() if feasible else []
        best_complexity = min((ind.complexity for ind in front), default=float("inf"))
        return GenerationStats(
            generation=generation,
            best_error=float(np.min(errors)),
            median_error=float(np.median(errors)),
            best_complexity=float(best_complexity),
            front_size=len(front),
            n_feasible=len(feasible),
        )

    # ------------------------------------------------------------------
    def final_front(self) -> List[Individual]:
        """Feasible nondominated individuals of the final population."""
        return self._front_individuals()

    # ------------------------------------------------------------------
    # crash-safe checkpointing
    #
    # A run's restorable state is exactly: the RNG bit-generator state, the
    # population (with its fitted weights/objectives), the cached
    # rank/crowding arrays from the previous survivor selection, and the
    # stats history -- all captured at a *generation boundary* (after
    # select_and_rerank, before the next tournament draws).  Everything
    # else the engine holds (column cache, gram pool, compiled kernels) is
    # result-neutral by contract: a resumed run rebuilds those caches cold
    # and pays only wall-clock, never a changed model.  The rank/crowding
    # arrays DO have to travel: generation 0 computes them fresh, but every
    # later boundary inherits them from select_and_rerank, and recomputing
    # after restore would have to be proven identical -- snapshotting them
    # makes resume bit-identity true by construction.
    # ------------------------------------------------------------------

    #: schema version of capture_run_state / restore_run_state payloads
    RUN_STATE_VERSION = 1

    def checkpoint_fingerprint(self) -> str:
        """Identity of "the run this checkpoint belongs to".

        Combines the result-affecting settings fingerprint
        (:meth:`CaffeineSettings.fingerprint`) with the training data's
        content (X, y, target name), so a checkpoint can only resume a run
        that would have evolved the exact same models.  Testing data is
        deliberately excluded: it only scores the final front, so resuming
        with refreshed test data is rescoring, not divergence.  Settings
        and training data are fixed for the engine's life, so the hash is
        computed once, on first use.
        """
        if self._checkpoint_fingerprint is None:
            digest = hashlib.sha256()
            digest.update(self.settings.fingerprint().encode("ascii"))
            digest.update(dataset_fingerprint(self.train.X).encode("ascii"))
            digest.update(np.ascontiguousarray(self.train.y,
                                               dtype=float).tobytes())
            digest.update(str(self.train.target_name).encode("utf-8"))
            self._checkpoint_fingerprint = digest.hexdigest()
        return self._checkpoint_fingerprint

    def capture_run_state(self, next_generation: int) -> dict:
        """Snapshot the boundary state; ``next_generation`` runs next.

        Cheap (references plus two small array copies); the expense is in
        :meth:`RunCheckpointStore.save_state`, which pickles it.
        """
        ranked = self._ranked
        if ranked is not None and ranked.individuals is not self.population:
            ranked = None  # stale cache (external population assignment)
        return {
            "state_version": self.RUN_STATE_VERSION,
            "kind": "generation",
            "fingerprint": self.checkpoint_fingerprint(),
            "generation": int(next_generation),
            "rng_state": self.rng.bit_generator.state,
            "population": list(self.population),
            "ranks": (np.array(ranked.ranks, copy=True)
                      if ranked is not None else None),
            "crowding": (np.array(ranked.crowding, copy=True)
                         if ranked is not None else None),
            "history": tuple(self.history),
            # repro-lint: allow[determinism] -- snapshot timestamp is provenance, excluded from the resume fingerprint
            "wall_time": time.time(),
        }

    def restore_run_state(self, state: dict) -> int:
        """Restore a :meth:`capture_run_state` snapshot; returns the
        generation index the run should continue from.

        Raises ``ValueError`` when the snapshot belongs to a different run
        (settings/data fingerprint mismatch) or a different state schema --
        resuming from it would silently diverge.  ``run(resume=True)``
        degrades such mismatches to a warning plus cold start instead.
        """
        if state.get("state_version") != self.RUN_STATE_VERSION:
            raise ValueError(
                f"run-state schema {state.get('state_version')!r} is not "
                f"{self.RUN_STATE_VERSION} (checkpoint from another build)")
        if state.get("kind") != "generation":
            raise ValueError(
                f"not a generation snapshot (kind={state.get('kind')!r})")
        if state.get("fingerprint") != self.checkpoint_fingerprint():
            raise ValueError(
                "checkpoint fingerprint mismatch: it was taken under "
                "different result-affecting settings or training data; "
                "resuming would not reproduce the interrupted run")
        self.rng.bit_generator.state = state["rng_state"]
        self.population = list(state["population"])
        self.history = list(state["history"])
        self._ranked = None
        if state.get("ranks") is not None:
            self._ranked = RankedPopulation(self.population,
                                            np.asarray(state["ranks"]),
                                            np.asarray(state["crowding"]))
        return int(state["generation"])

    def run(self, progress: Optional[ProgressCallback] = None, *,
            checkpoint: Optional[RunCheckpointStore] = None,
            checkpoint_every: int = 1,
            checkpoint_slot: Optional[str] = None,
            resume: bool = False) -> CaffeineResult:
        """Run the full evolutionary loop plus post-processing.

        ``checkpoint`` (a
        :class:`~repro.core.cache_store.RunCheckpointStore`) makes the run
        crash-safe: every ``checkpoint_every`` generations the boundary
        state is snapshotted under ``checkpoint_slot`` (default: the
        training target's name), a ``KeyboardInterrupt`` saves the last
        completed boundary before propagating, and the final
        :class:`CaffeineResult` is stored in the slot on success.  With
        ``resume=True`` a compatible stored snapshot warm-restarts the run
        -- **bit-identically** to never having been interrupted -- and a
        stored final result is returned outright; an incompatible snapshot
        (different settings/data) warns and starts cold.  Without
        ``checkpoint`` both knobs are inert.
        """
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be at least 1")
        slot = (checkpoint_slot if checkpoint_slot is not None
                else (self.train.target_name or "run"))
        start_time = time.perf_counter()
        start_generation = 0
        if checkpoint is not None and resume:
            state = checkpoint.load_state(slot)
            if state is not None:
                if state.get("kind") == "result" and \
                        state.get("fingerprint") == \
                        self.checkpoint_fingerprint():
                    return state["result"]
                try:
                    start_generation = self.restore_run_state(state)
                except ValueError as error:
                    warnings.warn(
                        f"ignoring checkpoint slot {slot!r} at "
                        f"{checkpoint.path}: {error}; starting cold",
                        RuntimeWarning, stacklevel=2)
                    start_generation = 0
        boundary: Optional[dict] = None
        if start_generation == 0:
            self.initialize_population()
        try:
            for generation in range(start_generation,
                                    self.settings.n_generations):
                stats = self.step(generation)
                if progress is not None:
                    progress(generation, stats)
                if checkpoint is not None:
                    boundary = self.capture_run_state(generation + 1)
                    if (generation + 1) % checkpoint_every == 0 \
                            and generation + 1 < self.settings.n_generations:
                        checkpoint.save_state(slot, boundary)
        except KeyboardInterrupt:
            # Persist the last *completed* generation boundary so the
            # interrupted run can continue exactly where it stopped (a
            # mid-step interrupt must never pair an advanced RNG with a
            # stale population -- boundary snapshots cannot).
            if checkpoint is not None and boundary is not None:
                checkpoint.save_state(slot, boundary)
            raise

        front = self.final_front()
        if self.settings.simplify_after_generation:
            front = simplify_population(front, self.evaluator)
            front = [ind for ind in front if ind.is_feasible]
            front = nondominated_filter(front, key=lambda ind: ind.objectives)

        models = self._freeze_models(front)
        tradeoff = TradeoffSet(models).train_tradeoff()
        test_tradeoff = tradeoff.test_tradeoff() if self.test is not None \
            else TradeoffSet([])
        runtime = time.perf_counter() - start_time
        result = CaffeineResult(
            target_name=self.train.target_name,
            variable_names=self.train.variable_names,
            tradeoff=tradeoff,
            test_tradeoff=test_tradeoff,
            history=tuple(self.history),
            settings=self.settings,
            runtime_seconds=runtime,
            dataset_fingerprint=dataset_fingerprint(self.train.X),
            function_set_fingerprint=self.settings.function_set.fingerprint(),
        )
        if checkpoint is not None:
            # Replace the generation snapshot with the finished result, so
            # a resumed sweep returns this problem without re-running it.
            checkpoint.save_state(slot, {
                "state_version": self.RUN_STATE_VERSION,
                "kind": "result",
                "fingerprint": self.checkpoint_fingerprint(),
                "result": result,
                # repro-lint: allow[determinism] -- result timestamp is provenance, excluded from the resume fingerprint
                "wall_time": time.time(),
            })
        return result

    def _freeze_models(self, front: Sequence[Individual]) -> List[SymbolicModel]:
        feasible = [ind for ind in front if ind.is_feasible]
        # One batched pass scores the whole front on the testing data
        # (bit-for-bit the per-model scalar qtc; see batch_test_errors).
        test_errors = [float("nan")] * len(feasible)
        if self.test is not None and feasible:
            test_errors = batch_test_errors(
                feasible, self.test.X, self.test.y,
                self.evaluator.normalization)
        return [SymbolicModel.from_individual(
                    individual,
                    target_name=self.train.target_name,
                    variable_names=self.train.variable_names,
                    log_scaled_target=self.train.log_scaled,
                    test_error=test_error)
                for individual, test_error in zip(feasible, test_errors,
                                                  strict=True)]
