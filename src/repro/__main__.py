"""Command-line interface: the paper's experiments plus a generic ``run``.

Usage::

    python -m repro figure3 --targets PM SRp --population 60 --generations 20
    python -m repro table1 --jobs 3 --column-cache columns.cache
    python -m repro table2
    python -m repro figure4
    python -m repro ablation --target SRp
    python -m repro datasets            # print the dataset summary only
    python -m repro run data.csv --target y --test holdout.csv

The experiment subcommands sample the OTA datasets (243-run orthogonal
hypercube, dx=0.10 train / dx=0.03 test), run the requested sweep through a
:class:`~repro.core.session.Session` at the chosen budget and print the
paper-style table or series to stdout.  ``--jobs`` runs a sweep's targets
in worker processes, one per target, and ``--column-cache`` persists the
shared column cache across invocations (both wall-clock knobs; results are
identical).

``run`` opens an arbitrary header-row CSV as a modeling problem
(:meth:`~repro.core.problem.Problem.from_csv`) and prints the resulting
Pareto trade-off -- the paper's workflow on any numeric dataset.

Deployment closes the loop from run to service::

    python -m repro run data.csv --target y --save-front front.caffeine
    python -m repro serve front.caffeine --port 8000

``run --save-front PATH`` saves the CSV problem's trade-off as a frozen
artifact (:func:`~repro.core.artifact.save_front`); the sweep subcommands
take ``--save-front DIR`` to freeze every target's front after the sweep;
and ``serve`` answers batched HTTP prediction requests from an artifact without
any evolution machinery (see :mod:`repro.serve` and the serving guide in
``benchmarks/README.md``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Mapping, Optional, Sequence

from repro.circuits.ota import OTA_VARIABLE_NAMES
from repro.core.problem import Problem
from repro.core.report import tradeoff_table
from repro.core.session import ProgressPrinter, Session, SessionResult
from repro.core.settings import CaffeineSettings
from repro.doe.orthogonal import orthogonal_hypercube
from repro.experiments import (
    generate_ota_datasets,
    run_ablation,
    run_figure3,
    run_figure4,
    run_table1,
    run_table2,
)
from repro.experiments.ablation import ablation_problems
from repro.experiments.setup import normalize_targets, problems_for_targets

#: All subcommands: experiment regenerators, the generic ``run`` (whose
#: ``--save-front`` freezes a front artifact), ``serve`` (an artifact over
#: HTTP) and the invariant linter (``lint``, see :mod:`repro.analysis`).
COMMANDS = ("datasets", "figure3", "table1", "table2", "figure4", "ablation",
            "run", "serve", "lint")


def _budget_parser() -> argparse.ArgumentParser:
    """Shared budget options (a subparser parent)."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("budget")
    group.add_argument("--population", type=int, default=80,
                       help="population size (default: 80)")
    group.add_argument("--generations", type=int, default=30,
                       help="number of generations (default: 30)")
    group.add_argument("--seed", type=int, default=0,
                       help="random seed (default: 0)")
    group.add_argument("--paper-budget", action="store_true",
                       help="use the paper's full budget (population 200, "
                            "5000 generations; hours per performance)")
    return parent


def _cache_parser() -> argparse.ArgumentParser:
    """The persistent-column-cache option (a subparser parent)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--column-cache", default=None, metavar="PATH",
        help="persist the shared column cache at PATH so repeated "
             "invocations start warm (never changes the models)")
    return parent


def _checkpoint_parser() -> argparse.ArgumentParser:
    """Crash-safety options (a subparser parent)."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("crash safety")
    group.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="snapshot every run's generation boundaries (and final "
             "results) to a checkpoint store at PATH, making the sweep "
             "crash-safe (never changes the models)")
    group.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="snapshot every N generations (default: 1)")
    group.add_argument(
        "--resume", action="store_true",
        help="warm-restart from --checkpoint: finished runs return their "
             "stored results, interrupted runs continue bit-identically "
             "from their last snapshot")
    return parent


def _save_front_parser() -> argparse.ArgumentParser:
    """The freeze-after-sweep option (a subparser parent)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--save-front", default=None, metavar="DIR",
        help="after the sweep, freeze every target's trade-off as a "
             "deployable artifact at DIR/<target>.front (load with "
             "repro.load_front, serve with 'python -m repro serve')")
    return parent


def _jobs_parser() -> argparse.ArgumentParser:
    """The worker-process option -- only for multi-run sweep subcommands."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--jobs", type=int, default=1,
        help="run up to N sweep targets concurrently, each in its own "
             "worker process (default: 1 = serial; results are identical "
             "either way)")
    return parent


def _ota_parser() -> argparse.ArgumentParser:
    """OTA dataset options shared by the experiment subcommands."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--runs", type=int, default=243,
                        help="DOE runs per dataset, a power of 3 "
                             "(default: 243)")
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="CAFFEINE reproduction: regenerate the paper's "
                    "experiments, or model any CSV dataset.")
    budget = _budget_parser()
    cache = _cache_parser()
    checkpoint = _checkpoint_parser()
    jobs = _jobs_parser()
    ota = _ota_parser()
    save_front = _save_front_parser()
    subparsers = parser.add_subparsers(dest="command", required=True,
                                       metavar="{%s}" % ",".join(COMMANDS))

    subparsers.add_parser(
        "datasets", parents=[ota],
        help="print the OTA dataset summary only")
    # Multi-run sweeps take --jobs; single-run subcommands (table2, run)
    # deliberately do not -- there is nothing to parallelize over.
    for name, help_text in (
            ("figure3", "error/complexity trade-offs per performance"),
            ("table1", "simplest models under 10%% train+test error"),
            ("figure4", "CAFFEINE vs posynomial comparison"),
    ):
        sub = subparsers.add_parser(name,
                                    parents=[budget, cache, checkpoint,
                                             jobs, ota, save_front],
                                    help=help_text)
        sub.add_argument("--targets", nargs="*", default=None,
                         help="performance goals (default: all six)")
    ablation = subparsers.add_parser(
        "ablation", parents=[budget, cache, checkpoint, jobs, ota],
        help="grammar/objective ablation study")
    ablation.add_argument("--target", default="PM",
                          help="single performance (default: PM)")
    table2 = subparsers.add_parser(
        "table2", parents=[budget, cache, ota],
        help="the sequence of models of decreasing error")
    table2.add_argument("--target", default="PM",
                        help="single performance (default: PM)")

    run = subparsers.add_parser(
        "run", parents=[budget, cache, checkpoint],
        help="model a CSV dataset (header row; Pareto table out)")
    run.add_argument("csv", help="training data: a header-row CSV file")
    run.add_argument("--target", required=True,
                     help="name of the modeled column")
    run.add_argument("--test", default=None, metavar="CSV",
                     help="optional testing CSV with the same columns")
    run.add_argument("--features", nargs="*", default=None,
                     help="design-variable columns (default: every "
                          "non-target column)")
    run.add_argument("--log10-target", action="store_true",
                     help="model log10 of the target (the paper's fu "
                          "convention)")
    run.add_argument("--progress", action="store_true",
                     help="print per-generation progress lines")
    run.add_argument("--save-front", default=None, metavar="PATH",
                     help="freeze the resulting trade-off as a deployable "
                          "artifact at PATH (serve it with "
                          "'python -m repro serve PATH')")

    serve = subparsers.add_parser(
        "serve",
        help="serve a frozen artifact's predictions over HTTP (stdlib only)")
    serve.add_argument("artifact", help="a front artifact written by "
                                        "--save-front")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8000,
                       help="TCP port (default: 8000)")
    serve.add_argument("--verbose", action="store_true",
                       help="log one line per request to stderr")

    # ``lint`` owns its argv (main() hands off before this parser runs);
    # registered here only so --help lists it.
    subparsers.add_parser(
        "lint", add_help=False,
        help="check project invariants (see 'python -m repro lint --help')")
    return parser


def settings_from_args(args: argparse.Namespace) -> CaffeineSettings:
    if args.paper_budget:
        return CaffeineSettings.paper_settings(random_seed=args.seed)
    return CaffeineSettings(population_size=args.population,
                            n_generations=args.generations,
                            random_seed=args.seed)


def _checked_settings(args: argparse.Namespace
                      ) -> Optional[CaffeineSettings]:
    """The command's settings (``None`` without budget options), after
    normalizing the OTA targets and checking every budget flag; raises
    ``ValueError`` before any dataset is read or built."""
    try:
        if hasattr(args, "targets"):
            args.targets = normalize_targets(args.targets)
        elif args.command in ("table2", "ablation"):
            normalize_targets((args.target,))
    except ValueError as error:
        raise ValueError(f"invalid target: {error}") from None
    if getattr(args, "checkpoint_every", 1) < 1:
        raise ValueError("invalid budget: --checkpoint-every must be at "
                         "least 1")
    if hasattr(args, "runs"):
        try:
            orthogonal_hypercube(len(OTA_VARIABLE_NAMES), n_runs=args.runs)
        except ValueError as error:
            raise ValueError(
                f"invalid budget: --runs {args.runs}: {error}") from None
    try:
        return (settings_from_args(args) if hasattr(args, "population")
                else None)
    except ValueError as error:
        raise ValueError(f"invalid budget: {error}") from None


def _save_front_file(result, path) -> None:
    """Freeze one result at ``path`` and report where it landed."""
    from repro.core.artifact import save_front

    n_models = save_front(result, path)
    print(f"Froze {n_models} models to {path} "
          f"(serve with: python -m repro serve {path})")


def _save_front_directory(results: Mapping, directory) -> None:
    """Freeze every sweep result as ``<directory>/<target>.front``."""
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    print()
    for target, result in results.items():
        _save_front_file(result, base / f"{target}.front")


def _run_session(args: argparse.Namespace, problems: Sequence[Problem],
                 settings: CaffeineSettings,
                 callbacks: Sequence = ()) -> SessionResult:
    """Run the command's one :class:`Session`: the only place the Session
    options (``--jobs``, ``--column-cache``, ``--checkpoint``,
    ``--checkpoint-every``, ``--resume``) are read."""
    session = Session(problems, settings=settings,
                      jobs=getattr(args, "jobs", 1),
                      column_cache_path=args.column_cache,
                      callbacks=callbacks,
                      checkpoint_path=getattr(args, "checkpoint", None),
                      checkpoint_every=getattr(args, "checkpoint_every", 1))
    return session.run(resume=getattr(args, "resume", False))


def _run_csv_command(args: argparse.Namespace,
                     settings: CaffeineSettings) -> int:
    problem = Problem.from_csv(args.csv, target=args.target,
                               test_path=args.test,
                               feature_columns=args.features,
                               log10_target=args.log10_target)
    print(f"Problem {problem.name!r}: {problem.train.n_samples} train"
          + (f" / {problem.test.n_samples} test" if problem.test else "")
          + f" samples, {problem.n_variables} variables")
    print(f"CAFFEINE settings: population {settings.population_size}, "
          f"{settings.n_generations} generations, seed "
          f"{settings.random_seed}\n")
    callbacks = [ProgressPrinter()] if args.progress else []
    result = _run_session(args, [problem], settings, callbacks).single()
    print(tradeoff_table(
        result.tradeoff,
        title=f"{problem.name}: error/complexity trade-off "
              f"({result.n_models} models, errors in %)"))
    if len(result.test_tradeoff) > 0:
        print()
        print(tradeoff_table(
            result.test_tradeoff,
            title=f"{problem.name}: testing-error trade-off "
                  f"({len(result.test_tradeoff)} models)"))
    best = result.best_model()
    print(f"\nBest model: {best.expression()}")
    if args.save_front:
        print()
        _save_front_file(result, args.save_front)
    return 0


def _serve_command(args: argparse.Namespace) -> int:
    from repro.serve import serve_front

    serve_front(args.artifact, host=args.host, port=args.port,
                quiet=not args.verbose)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        from repro.analysis.cli import main as lint_main

        return lint_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "resume", False) and args.checkpoint is None:
        parser.error("--resume needs --checkpoint PATH to read from")
    try:
        settings = _checked_settings(args)
    except ValueError as error:
        parser.error(str(error))
    if args.command == "run":
        return _run_csv_command(args, settings)
    if args.command == "serve":
        return _serve_command(args)

    datasets = generate_ota_datasets(n_runs=args.runs)
    print(datasets.summary())
    if args.command == "datasets":
        return 0

    jobs = getattr(args, "jobs", 1)  # table2 has no --jobs (single run)
    print(f"\nCAFFEINE settings: population {settings.population_size}, "
          f"{settings.n_generations} generations, seed {settings.random_seed}"
          + (f", {jobs} jobs" if jobs > 1 else "") + "\n")

    if args.command == "ablation":
        problems = ablation_problems(datasets, settings, args.target)
    elif args.command == "table2":
        problems = problems_for_targets(datasets, (args.target,))
    else:
        problems = problems_for_targets(datasets, args.targets)
    results = _run_session(args, problems, settings).raise_failures().results
    sweep_result = None
    if args.command == "figure3":
        sweep_result = run_figure3(datasets, settings, targets=args.targets,
                                   results=results)
        print(sweep_result.render())
    elif args.command == "table1":
        sweep_result = run_table1(datasets, settings, targets=args.targets,
                                  results=results)
        print(sweep_result.render())
    elif args.command == "table2":
        print(run_table2(datasets, settings, target=args.target,
                         result=results[args.target]).render())
    elif args.command == "figure4":
        sweep_result = run_figure4(datasets, settings, targets=args.targets,
                                   results=results)
        print(sweep_result.render())
    elif args.command == "ablation":
        print(run_ablation(datasets, settings, target=args.target,
                           results=results).render())
    if sweep_result is not None and getattr(args, "save_front", None):
        _save_front_directory(sweep_result.results, args.save_front)
    return 0


if __name__ == "__main__":
    sys.exit(main())
