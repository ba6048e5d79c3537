#!/usr/bin/env python3
"""Quickstart: template-free symbolic regression with CAFFEINE.

This example builds a small synthetic dataset with a known rational ground
truth and models it two ways:

1. one :class:`repro.Problem` (``Problem.from_arrays``) run by a
   one-problem :class:`repro.Session`: inspect the trade-off, pick a model
   with ``result.best_model(by=...)`` and predict with it;
2. one :class:`repro.Session` over two related targets, sharing one
   column cache;
3. deployment: the fitted trade-off is frozen to a small artifact with
   :func:`repro.save_front`, loaded back as a prediction-only
   :class:`~repro.core.artifact.FrozenFront` (bit-identical predictions),
   and served over HTTP with :mod:`repro.serve` -- the same loop as
   ``python -m repro run ... --save-front`` + ``python -m repro serve``.

CAFFEINE is expected to recover an expression very close to the generating
formula at the accurate end of the trade-off while also offering simpler,
slightly less accurate alternatives.

Run with::

    python examples/quickstart.py            # the default budget (~30 s)
    python examples/quickstart.py --quick    # tiny CI-sized budget (~2 s)
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import threading
import urllib.request

import numpy as np

from repro import (CaffeineSettings, Problem, Session, load_front,
                   save_front)
from repro.core.report import tradeoff_table
from repro.serve import make_server


def make_data(n_samples: int, seed: int):
    """Samples of ``y = 3 + 2*a/b + 0.5*c`` on a positive design region."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.5, 2.0, size=(n_samples, 3))
    y = 3.0 + 2.0 * X[:, 0] / X[:, 1] + 0.5 * X[:, 2]
    return X, y


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--quick", action="store_true",
                        help="tiny budget for smoke tests (seconds)")
    args = parser.parse_args()

    X, y = make_data(n_samples=150, seed=0)
    X_test, y_test = make_data(n_samples=100, seed=1)

    settings = CaffeineSettings(
        population_size=24 if args.quick else 60,
        n_generations=5 if args.quick else 25,
        max_basis_functions=6, random_seed=7)

    # ------------------------------------------------------------------
    # 1. One problem: run it, inspect the trade-off, pick a model, predict.
    # ------------------------------------------------------------------
    problem = Problem.from_arrays(X, y, variable_names=("a", "b", "c"),
                                  X_test=X_test, y_test=y_test)
    result = Session([problem], settings=settings).run().single()

    print("CAFFEINE quickstart: modeling y = 3 + 2*a/b + 0.5*c")
    print(f"  {result.n_models} models on the error/complexity trade-off "
          f"({result.runtime_seconds:.1f} s)\n")
    print(tradeoff_table(result.tradeoff, title="Trade-off (errors in %):"))

    best = result.best_model(by="test")
    print("\nMost accurate model on test data:")
    print(f"  train error {best.train_error_percent:.2f}%  "
          f"test error {best.test_error_percent:.2f}%")
    print(f"  y ~ {best.expression()}")
    print(f"  variables used: {', '.join(best.used_variables())}")
    print(f"  prediction at the first test point: "
          f"{best.predict(X_test[:1])[0]:.4f} (true {y_test[0]:.4f})")

    # ------------------------------------------------------------------
    # 2. The Session orchestrator: two targets, one shared column cache.
    # ------------------------------------------------------------------
    problems = [
        Problem.from_arrays(X, y, variable_names=("a", "b", "c"),
                            target_name="smooth"),
        Problem.from_arrays(X, y + 0.2 * X[:, 2] ** 2,
                            variable_names=("a", "b", "c"),
                            target_name="bowed"),
    ]
    outcome = Session(problems, settings=settings).run()
    print(f"\nSession over {len(outcome)} related targets "
          f"({outcome.runtime_seconds:.1f} s total):")
    for name, run in outcome.items():
        chosen = run.best_model()
        print(f"  {name:>7}: {run.n_models} models, best train error "
              f"{chosen.train_error_percent:.2f}%  ->  {chosen.expression()}")

    # ------------------------------------------------------------------
    # 3. Deployment: freeze the trade-off, serve it, query it over HTTP.
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "quickstart.front")
        n_frozen = save_front(result, path)
        print(f"\nFroze {n_frozen} models to a "
              f"{os.path.getsize(path)}-byte artifact")

        front = load_front(path)          # prediction-only, no engine
        assert np.array_equal(front.predict(X_test), best.predict(X_test)), \
            "frozen predictions must be bit-identical to the live run"
        print("  load_front round trip: predictions bit-identical")

        # `python -m repro serve quickstart.front` runs this same server as
        # a blocking CLI; here it serves from a background thread instead so
        # the example can query itself and exit.
        server = make_server(path, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            request = urllib.request.Request(
                server.url + "/predict",
                data=json.dumps({"X": X_test[:3].tolist()}).encode(),
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=30) as response:
                body = json.loads(response.read())
            print(f"  served /predict at {server.url}: "
                  f"{[round(p, 3) for p in body['predictions']]} "
                  f"(model: {body['model']['expression']})")
        finally:
            server.shutdown()
            server.server_close()


if __name__ == "__main__":
    main()
