"""CAFFEINE reproduction: template-free symbolic models of analog circuits.

This package reproduces McConaghy, Eeckelaert & Gielen, *CAFFEINE:
Template-Free Symbolic Model Generation of Analog Circuits via Canonical Form
Functions and Genetic Programming* (DATE 2005), as a complete Python library:

* :mod:`repro.core` -- the CAFFEINE algorithm: canonical-form grammar,
  grammar-respecting genetic operators, NSGA-II error/complexity search,
  PRESS-based simplification;
* :mod:`repro.circuits` -- the data-generation substrate: square-law MOSFETs
  and the operating-point model of the symmetrical CMOS OTA whose six
  performances the paper models;
* :mod:`repro.doe` -- orthogonal-hypercube design-of-experiments sampling;
* :mod:`repro.data` -- datasets and the error metrics (qwc/qtc);
* :mod:`repro.posynomial` -- the posynomial baseline of the paper's Figure 4;
* :mod:`repro.gp` -- an unrestricted (template-free but grammar-free) GP
  baseline used for ablations;
* :mod:`repro.experiments` -- drivers that regenerate every table and figure
  of the paper's evaluation section.

Quick start -- a :class:`Problem` wraps any numeric dataset and a
one-problem :class:`Session` evolves its error/complexity trade-off:

    >>> import numpy as np
    >>> from repro import CaffeineSettings, Problem, Session
    >>> rng = np.random.default_rng(0)
    >>> X = rng.uniform(0.5, 2.0, size=(40, 2))
    >>> y = 1.0 + 2.0 * X[:, 0] / X[:, 1]
    >>> settings = CaffeineSettings(population_size=20, n_generations=3,
    ...                             random_seed=0)
    >>> result = Session([Problem.from_arrays(X, y)],
    ...                  settings=settings).run().single()
    >>> result.best_model(by="train").predict(X).shape
    (40,)
    >>> len(result.tradeoff) >= 1   # the full error/complexity trade-off
    True

Multi-run orchestration -- a :class:`Session` runs a list of
:class:`Problem`\\ s (serially, or with ``jobs=n`` in up to ``n`` worker
processes, one per problem) over one shared column cache:

    >>> problems = [Problem.from_arrays(X, y, target_name="t1"),
    ...             Problem.from_arrays(X, X[:, 0] ** 2, target_name="t2")]
    >>> settings = CaffeineSettings(population_size=16, n_generations=2,
    ...                             random_seed=0)
    >>> outcome = Session(problems, settings=settings).run()
    >>> outcome.names
    ('t1', 't2')
    >>> outcome["t1"].n_models >= 1
    True

Deployment -- freeze a fitted trade-off as a small versioned artifact
(:func:`save_front`, magic/version/sha256 envelope, atomic writes) and load
it back as a prediction-only :class:`~repro.core.artifact.FrozenFront`:
predictions are **bit-identical** to the originating run's models, but
loading reconstitutes only compiled prediction kernels -- no engine,
population or caches.  On the command line, ``python -m repro run
data.csv --target y --save-front artifact.caffeine`` freezes a CSV run, and
``python -m repro serve artifact.caffeine`` answers the same queries as a
batched, stateless HTTP service (see the artifact spec and serving guide in
``benchmarks/README.md``):

    >>> import os, tempfile
    >>> from repro import load_front, save_front
    >>> path = os.path.join(tempfile.mkdtemp(), "front.caffeine")
    >>> save_front(result, path) == len(result.tradeoff)
    True
    >>> front = load_front(path)
    >>> bool(np.array_equal(front.predict(X), result.best_model().predict(X)))
    True

Long sweeps are crash-safe and fault-tolerant: ``Session(...,
checkpoint_path="sweep.ckpt")`` snapshots every run's generation
boundaries (and final results) to a
:class:`~repro.core.cache_store.RunCheckpointStore`, so after a crash or
Ctrl-C ``session.run(resume=True)`` skips finished problems and continues
interrupted ones **bit-identically** from their last snapshot.  With
``jobs > 1`` a crashed, hung or raising worker is contained to its
problem -- retried with backoff in a fresh worker (every attempt under
``timeout``), then recorded as a structured
:class:`~repro.core.session.ProblemFailure` in
``SessionResult.failures`` while every other problem's result is
returned.  The fault-injection harness behind those guarantees lives in
:mod:`repro.core.faults`, armed through the ``REPRO_FAULTS``
environment variable; see ``benchmarks/README.md`` for the
checkpoint/resume semantics and failure knobs.

:class:`Session` is the one way to run CAFFEINE: a single run is
``Session([Problem(train, test)], settings=s).run().single()`` (see the
migration table in ``benchmarks/README.md``).  Every layer (column
evaluation, linear fits, residual scoring, Pareto ranking, variation) has
exactly one production implementation; the reference implementations it
must match bit for bit live in the test suite.

The invariants behind these guarantees (bit-identical reductions,
spawn-safe worker entry points, crash-safe stores, seeded randomness) are
checked mechanically by :mod:`repro.analysis`, the project's AST-based
linter: ``python -m repro lint src/`` walks the tree, ``--list-rules``
and ``--explain <rule-id>`` document each rule's rationale and PR
provenance, and intentional exceptions carry inline
``# repro-lint: allow[<rule-id>] -- reason`` waivers.  CI gates on
``src/``, ``tests/``, ``benchmarks/`` and ``examples/`` being free of
unwaived findings; see the "Project invariants" section of
``benchmarks/README.md``.
"""

from repro.core import (
    CaffeineEngine,
    CaffeineResult,
    CaffeineSettings,
    FrontArtifactStore,
    FrozenFront,
    FunctionSet,
    BasisColumnCache,
    ColumnCacheStore,
    FileLock,
    GramPool,
    load_front,
    save_front,
    InjectedFault,
    PopulationEvaluator,
    Problem,
    ProblemFailure,
    ProgressPrinter,
    RunCheckpointStore,
    Session,
    SessionCallback,
    SessionResult,
    TreeCompiler,
    dataset_fingerprint,
    SymbolicModel,
    TradeoffSet,
    default_function_set,
    polynomial_function_set,
    rational_function_set,
)
from repro.data import Dataset

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # problem/session API
    "Problem",
    "Session",
    "SessionCallback",
    "SessionResult",
    "ProblemFailure",
    "ProgressPrinter",
    "InjectedFault",
    # engine layer
    "CaffeineEngine",
    "CaffeineResult",
    "CaffeineSettings",
    "SymbolicModel",
    "TradeoffSet",
    "PopulationEvaluator",
    "BasisColumnCache",
    "ColumnCacheStore",
    "RunCheckpointStore",
    "FileLock",
    "GramPool",
    # deployment: frozen Pareto-front artifacts + HTTP serving
    "FrozenFront",
    "FrontArtifactStore",
    "save_front",
    "load_front",
    "TreeCompiler",
    "dataset_fingerprint",
    "FunctionSet",
    "default_function_set",
    "rational_function_set",
    "polynomial_function_set",
    "Dataset",
]
