"""The three workloads: what each sets up, what one timed unit of work is,
and which outputs each checks.

Every workload drives the library through its public API only
(``Session``/``Problem``, ``save_front``/``load_front``,
``rescore_models`` and ``python -m repro serve``).  The evolution's own
seed is pinned (``ENGINE_SEED``), so ``run_s`` and the quality metrics
compare code rather than luck; ``--seed`` draws the query rows, the
request bodies and the request order.
"""

from __future__ import annotations

import contextlib
import gc
import http.client
import json
import math
import os
import resource
import select
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from bench_stats import (
    MIN_TAIL,
    Ledger,
    front_fingerprint,
    highest_supported_percentile,
    hypervolume,
    min_samples_for,
    mutually_nondominated,
    percentile,
)
from bench_trace import Tracer, instrumented

from repro import (
    CaffeineSettings,
    Session,
    SessionCallback,
    load_front,
    save_front,
)
from repro.core.report import rescore_models
from repro.experiments.setup import generate_ota_datasets, problems_for_targets

#: seed of every evolution the benchmark runs (the ROADMAP's measurement seed)
ENGINE_SEED = 2005
#: the six OTA performances of the paper's Section 6.1
SIX_TARGETS = ("ALF", "fu", "PM", "voffset", "SRp", "SRn")
#: (train error, complexity) reference point of ``front_hypervolume``
HYPERVOLUME_REFERENCE = (1.0, 250.0)

EVOLVE_SETTINGS = dict(population_size=200, n_generations=100,
                       max_basis_functions=15, random_seed=ENGINE_SEED)
SWEEP_SETTINGS = dict(population_size=60, n_generations=12,
                      max_basis_functions=15, random_seed=ENGINE_SEED)
SERVE_FRONT_SETTINGS = dict(population_size=100, n_generations=30,
                            max_basis_functions=15, random_seed=ENGINE_SEED)

#: batch-1 samples that leave MIN_TAIL beyond the reported p95
P95_SAMPLES = min_samples_for(95)
#: samples of every other latency a run reports the median of
MEDIAN_SAMPLES = 15
BULK_ROWS = 10_000

#: offline prediction probes of evolve/sweep, one after every unit: each
#: covers every front equally, with at least P95_SAMPLES batch-1 samples
#: (so each probe's own p95 keeps MIN_TAIL beyond it) and PROBE_BULK
#: batch-10 000 samples, each sample the best of PROBE_REPEAT calls; the
#: host speed is measured again every PROBE_CHUNK batch-1 samples and
#: before every batch-10 000 sample
PROBE_SMALL = P95_SAMPLES
PROBE_BULK = 6
PROBE_REPEAT = 3
PROBE_CHUNK = 25
PROBE_WARMUP = 5
MIN_PROBES = 12

#: One serve round, the unit of serve's run_s.  Its request counts are not
#: a traffic model: they are the sample budget spread over the fewest
#: rounds a run completes, so that even SERVE_MIN_ROUNDS rounds hold the
#: batch-1 samples p95 needs and MEDIAN_SAMPLES of each other kind.
SERVE_MIN_ROUNDS = 5
ROUND_MIX = {"small": math.ceil(P95_SAMPLES / SERVE_MIN_ROUNDS),
             "bulk": math.ceil(MEDIAN_SAMPLES / SERVE_MIN_ROUNDS),
             "rescore": math.ceil(MEDIAN_SAMPLES / SERVE_MIN_ROUNDS)}

#: calibration kernel time on a quiet host of the reference machine
#: (2 vCPU x86-64, Python 3.11, NumPy 2.4); sets the scale of every
#: host-speed-scaled time
REFERENCE_INTERP_KERNEL_S = 135e-6
REFERENCE_ARRAY_KERNEL_S = 135e-6
_KERNEL_TABLE = {i: (i * 7 + 3) & 255 for i in range(256)}
_INTERP_STEPS = (0,) * 500
_KERNEL_ARRAY = np.arange(256.0)
_KERNEL_OUT = np.empty(256)
_ARRAY_IN = np.arange(1.0, 10_001.0)
_ARRAY_OUT = np.empty(10_000)

SERVER_START_TIMEOUT = 60.0
HTTP_TIMEOUT = 60.0


def same_bits(a: Sequence[float], b: Sequence[float]) -> bool:
    """Element-wise equality of every bit (``repr`` round-trips a float)."""
    return len(a) == len(b) and all(repr(float(x)) == repr(float(y))
                                    for x, y in zip(a, b, strict=True))


def query_rows(X: np.ndarray, n_rows: int, rng) -> np.ndarray:
    """Uniform design points inside the training hypercube."""
    return rng.uniform(X.min(axis=0), X.max(axis=0), size=(n_rows, X.shape[1]))


def _interpreter_pass() -> int:
    # Every value stays in CPython's small-int cache and every array is
    # preallocated, so the kernels allocate nothing and their speed cannot
    # depend on the state of the heap the library left behind.
    table = _KERNEL_TABLE
    x = 1
    for _ in _INTERP_STEPS:
        x = table[x] ^ (x & 15)
    return x


def _interp_kernel() -> None:
    for _ in range(6):
        _interpreter_pass()
    for _ in range(24):
        np.multiply(_KERNEL_ARRAY, 1.5, out=_KERNEL_OUT)


def _array_kernel() -> None:
    for _ in range(8):
        np.multiply(_ARRAY_IN, 1.5, out=_ARRAY_OUT)
        np.sqrt(_ARRAY_OUT, out=_ARRAY_OUT)


def host_speed_factor(kernel: str = "interp") -> float:
    """Reference kernel time over its current time (best of three).

    The host this benchmark shares drifts in speed by up to a factor of
    two within seconds.  A duration measured just before, multiplied by
    this factor, is in *reference seconds*: what it would have taken at
    the reference speed.  ``"interp"`` times interpreter work plus small
    NumPy calls, like the engine's generations and batch-1 predictions;
    ``"array"`` times NumPy passes over 10 000-element arrays, like a
    batch-10 000 prediction.
    """
    function, reference = _KERNELS[kernel]
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - started)
    return reference / best


_KERNELS = {"interp": (_interp_kernel, REFERENCE_INTERP_KERNEL_S),
            "array": (_array_kernel, REFERENCE_ARRAY_KERNEL_S)}


def quality(fronts: Dict[str, Sequence]) -> Tuple[float, float]:
    """(best test error %, hypervolume), each averaged over the fronts."""
    best = [100.0 * min(model.test_error for model in models)
            for models in fronts.values()]
    volume = [hypervolume([(m.train_error, m.complexity) for m in models],
                          HYPERVOLUME_REFERENCE)
              for models in fronts.values()]
    return sum(best) / len(best), sum(volume) / len(volume)


def fingerprint(fronts: Dict[str, Sequence]) -> str:
    return front_fingerprint({
        name: [(m.expression(), m.train_error, m.complexity) for m in models]
        for name, models in fronts.items()})


def check_front(ledger: Ledger, name: str, models: Sequence) -> None:
    points = [(m.train_error, m.complexity) for m in models]
    ledger.record(bool(points) and all(math.isfinite(e) and math.isfinite(c)
                                       for e, c in points)
                  and mutually_nondominated(points),
                  f"{name}: final front is empty, non-finite or dominated")


def check_rescore(ledger: Ledger, name: str, models: Sequence,
                  train) -> None:
    rescored = rescore_models(list(models), train.X, train.y)
    ledger.record(same_bits(rescored, [m.train_error for m in models]),
                  f"{name}: rescore_models does not reproduce train_error "
                  "bit for bit")


def peak_rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def ota_problems():
    return {p.name: p for p in problems_for_targets(generate_ota_datasets())}


# ----------------------------------------------------------------------
class PhaseClock(SessionCallback):
    """Times a Session run phase by phase in reference seconds.

    After each phase -- problem start, every generation, problem end --
    the host speed is measured (outside the phase) and the phase's wall
    time scaled by it.  Under tracing the measurement is a span of its
    own, so it is never counted as the self time of the layer it
    interrupts.
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self.scaled = 0.0
        self.wall = 0.0
        self.tracer = tracer
        self.restart()

    def restart(self) -> None:
        self._start = time.perf_counter()

    def mark(self) -> None:
        elapsed = time.perf_counter() - self._start
        if self.tracer is None:
            factor = host_speed_factor()
        else:
            with self.tracer.span("benchmark.clock"):
                factor = host_speed_factor()
        self.wall += elapsed
        self.scaled += elapsed * factor
        self.restart()

    def on_problem_start(self, problem, index, total) -> None:
        self.mark()

    def on_generation(self, problem, generation, stats) -> None:
        self.mark()

    def on_problem_end(self, problem, result, index, total) -> None:
        self.mark()


class EvolveWorkload:
    """One serial Session over train/test Problems; a unit is ``run()``.

    The first unit's fronts are frozen with ``save_front`` and reloaded
    with ``load_front``; after every unit's ``run()`` returns, outside the
    timed region, a probe samples batch-1 and batch-10 000 predictions of
    those fronts.
    """

    name = "evolve_long"
    targets: Tuple[str, ...] = ("PM",)
    settings = EVOLVE_SETTINGS
    checkpointed = False

    def __init__(self, seed: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.ledger = Ledger()
        self.fingerprints: List[str] = []
        self.unit_index = 0
        self.fronts: Dict[str, Sequence] = {}
        self.frozen: list = []
        self.probes = 0
        self.small: List[List[float]] = []
        self.bulk: List[float] = []
        self.walls: List[float] = []
        self.samples: Dict[str, int] = {}
        self.layer_extra: Dict[str, float] = {}
        self.end_metrics: Dict[str, float] = {}

    def setup(self) -> None:
        problems = ota_problems()
        self.problems = [problems[target] for target in self.targets]
        rng = np.random.default_rng(self.seed)
        X = self.problems[0].train.X
        self.small_rows = query_rows(X, 2 * PROBE_SMALL, rng)
        self.bulk_rows = query_rows(X, BULK_ROWS, rng)
        self.check_rows = query_rows(X, 256, rng)

    def prepare(self) -> None:
        """Nothing to prepare beyond set-up."""

    def unit(self, tracer: Optional[Tracer]) -> float:
        """One ``Session.run()``; returns its reference seconds."""
        kwargs = {}
        if self.checkpointed:
            unit_dir = self.work_dir / f"unit-{self.unit_index}"
            unit_dir.mkdir(parents=True)
            kwargs = dict(checkpoint_path=str(unit_dir / "sweep.ckpt"),
                          column_cache_path=str(unit_dir / "columns.cache"))
        self.unit_index += 1
        clock = PhaseClock(tracer)
        session = Session(self.problems,
                          settings=CaffeineSettings(**self.settings),
                          callbacks=[clock], **kwargs)
        # Every unit starts from the same collected heap, so no unit pays
        # for its predecessor's garbage.
        gc.collect()
        with instrumented(tracer) if tracer else contextlib.nullcontext():
            clock.restart()
            outcome = session.run()
            clock.mark()
        if self.checkpointed:
            shutil.rmtree(unit_dir)
        self._check(outcome)
        if not self.frozen:
            self._freeze(outcome.results)
        self.probe()
        self.walls.append(clock.wall)
        return clock.scaled

    def _check(self, outcome) -> None:
        fronts = {}
        for problem in self.problems:
            ok = self.ledger.record(
                problem.name in outcome.results,
                f"{problem.name}: ProblemFailure "
                f"{outcome.failures.get(problem.name)}")
            if not ok:
                continue
            models = list(outcome[problem.name].tradeoff)
            fronts[problem.name] = models
            check_front(self.ledger, problem.name, models)
            check_rescore(self.ledger, problem.name, models,
                          problem.train.drop_nonfinite())
        digest = fingerprint(fronts)
        if self.fingerprints:
            self.ledger.record(digest == self.fingerprints[0],
                               "fingerprint differs from the run's first "
                               "unit (same seed, traced or not)")
        self.fingerprints.append(digest)
        self.fronts = fronts

    def _freeze(self, results) -> None:
        """save_front, load_front and check the reloaded predictions."""
        save_s = load_s = size = 0.0
        for name, result in results.items():
            path = self.work_dir / f"{name}.front"
            started = time.perf_counter()
            save_front(result, path)
            save_s += time.perf_counter() - started
            size += path.stat().st_size
            started = time.perf_counter()
            front = load_front(path)
            load_s += time.perf_counter() - started
            self.ledger.record(
                same_bits(front.predict(self.check_rows),
                          result.best_model().predict(self.check_rows)),
                f"{name}: load_front(path).predict differs from the live "
                "model's predictions")
            self.frozen.append(front)
        self.layer_extra.update({"artifact.save_s": save_s,
                                 "artifact.load_ms": 1000.0 * load_s,
                                 "artifact.bytes": size})

    def probe(self) -> None:
        """One short sample of offline prediction latency over every
        front, in reference seconds by the host speed measured shortly
        before each sample.

        Batch-1 samples walk every model on the front in turn, as a
        designer choosing a model along the trade-off would, so the tail
        shows the models that are slow to predict.  Batch-10 000 samples
        use the front's best model.  A probe follows a run that evicted
        the fronts from the CPU caches; untimed warm-up calls first put
        each back, as a caller predicting in a loop would find it.  A
        sample is the best of ``PROBE_REPEAT`` calls on the same rows, so
        it shows what is slow for the code rather than moments that are
        slow for the host.
        """
        offset = (self.probes % 2) * PROBE_SMALL
        self.probes += 1
        small_share = math.ceil(PROBE_SMALL / len(self.frozen))
        bulk_share = math.ceil(PROBE_BULK / len(self.frozen))
        small: List[float] = []
        self.small.append(small)
        for front in self.frozen:
            n_models = len(front.models)
            for row in range(PROBE_WARMUP):
                front.predict(self.small_rows[row:row + 1])
            for index, row in enumerate(range(offset, offset + small_share)):
                if index % PROBE_CHUNK == 0:
                    factor = host_speed_factor("interp")
                small.append(factor * best_time(
                    front.predict, self.small_rows[row:row + 1],
                    model_index=index % n_models))
            for _ in range(bulk_share):
                # The bulk path mixes interpreter and array work, and the
                # geometric mean of the two kernels' factors tracked its
                # host slowdowns better than either factor alone.
                factor = math.sqrt(host_speed_factor("interp")
                                   * host_speed_factor("array"))
                self.bulk.append(factor * best_time(front.predict,
                                                    self.bulk_rows))

    def finish(self) -> None:
        self.end_metrics["peak_rss_mb"] = peak_rss_mb_self()
        best, volume = quality(self.fronts)
        self.end_metrics["best_test_error_pct"] = best
        self.end_metrics["front_hypervolume"] = volume
        while self.probes < MIN_PROBES:
            self.probe()
        self.end_metrics.update(small_latency_metrics(self.small, self.ledger))
        self.end_metrics["bulk_rows_per_s"] = BULK_ROWS / median(self.bulk)
        self.samples = {"small": sum(map(len, self.small)),
                        "bulk": len(self.bulk)}

    def close(self) -> None:
        pass


class SweepWorkload(EvolveWorkload):
    """Six OTA targets in one serial Session, checkpointing every
    generation and sharing a column-cache file, both in a fresh directory
    per unit."""

    name = "sweep_six"
    targets = SIX_TARGETS
    settings = SWEEP_SETTINGS
    checkpointed = True


def best_time(function: Callable, rows: np.ndarray, **kwargs) -> float:
    """Fastest of ``PROBE_REPEAT`` calls of ``function(rows, **kwargs)``,
    in s."""
    best = math.inf
    for _ in range(PROBE_REPEAT):
        started = time.perf_counter()
        function(rows, **kwargs)
        best = min(best, time.perf_counter() - started)
    return best


def small_latency_metrics(probes: Sequence[Sequence[float]],
                          ledger: Ledger) -> Dict[str, float]:
    """p50 and p95 of each probe's batch-1 samples, median over probes.

    Each probe is a short stretch under one host state, so a probe the
    host slowed cannot take over the pooled tail.  Every probe must hold
    enough samples for ``MIN_TAIL`` beyond its own p95.
    """
    n_samples = min(map(len, probes))
    supported = highest_supported_percentile(n_samples)
    ledger.record(supported is not None and supported >= 95,
                  f"a probe of only {n_samples} batch-1 samples: p95 "
                  f"needs {MIN_TAIL} beyond it")
    return {"small_p50_ms": 1000.0 * median(
                percentile(seconds, 50) for seconds in probes),
            "small_p95_ms": 1000.0 * median(
                percentile(seconds, 95) for seconds in probes)}


# ----------------------------------------------------------------------
class CountingConnection(http.client.HTTPConnection):
    """Keep-alive client connection that counts the sockets it opens."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.opened = 0

    def connect(self) -> None:
        super().connect()
        self.opened += 1


def start_server(root: Path, artifact: Path, log_path: Path):
    """``python -m repro serve`` on a free port; returns (process, port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with open(log_path, "wb") as log:
        process = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", str(artifact),
             "--port", "0"],
            cwd=str(root), env=env, stdout=subprocess.PIPE, stderr=log,
            stdin=subprocess.DEVNULL)
    try:
        line = read_line(process, SERVER_START_TIMEOUT)
        if " at http://" not in line:
            raise RuntimeError(f"server did not start: {line!r} "
                               f"(see {log_path})")
        port = int(line.rstrip().rsplit(":", 1)[1])
        wait_healthy(port)
    except BaseException:
        stop_process(process)
        raise
    return process, port


def read_line(process, timeout: float) -> str:
    """One stdout line of ``process``, waiting at most ``timeout`` s."""
    ready, _w, _x = select.select([process.stdout], [], [], timeout)
    if not ready:
        raise TimeoutError(f"no output from pid {process.pid} in {timeout} s")
    return process.stdout.readline().decode("utf-8", "replace")


def wait_healthy(port: int) -> dict:
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=HTTP_TIMEOUT)
    try:
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        body = response.read()
        if response.status != 200:
            raise RuntimeError(f"/healthz answered {response.status}")
        return json.loads(body)
    finally:
        connection.close()


def stop_process(process) -> None:
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10)
    if process.stdout is not None:
        process.stdout.close()


def jsonable(values: Sequence[float]) -> List[Optional[float]]:
    """The server's rendering of floats: non-finite values become null."""
    return [float(v) if math.isfinite(v) else None for v in values]


def same_json_floats(got: Sequence, expected: Sequence) -> bool:
    return len(got) == len(expected) and all(
        (g is None and e is None) or
        (g is not None and e is not None and repr(float(g)) == repr(e))
        for g, e in zip(got, expected, strict=True))


class ServeWorkload:
    """A closed-loop client on one keep-alive connection to
    ``python -m repro serve``; a unit is one seeded round of requests."""

    name = "serve_keepalive"

    def __init__(self, seed: int, work_dir: Path, root: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.root = root
        self.ledger = Ledger()
        self.fingerprints: List[str] = []
        self.unit_index = 0
        self.latencies: Dict[str, List[float]] = {kind: [] for kind in
                                                  ROUND_MIX}
        self.walls: List[float] = []
        self.samples: Dict[str, int] = {}
        self.layer_extra: Dict[str, float] = {}
        self.end_metrics: Dict[str, float] = {}
        self.server = None
        self.connection = None

    def setup(self) -> None:
        problem = ota_problems()["PM"]
        self.train = problem.train.drop_nonfinite()
        result = Session([problem], settings=CaffeineSettings(
            **SERVE_FRONT_SETTINGS)).run().single()
        self.artifact = self.work_dir / "PM.front"
        started = time.perf_counter()
        save_front(result, self.artifact)
        self.layer_extra["artifact.save_s"] = time.perf_counter() - started
        self.layer_extra["artifact.bytes"] = self.artifact.stat().st_size
        started = time.perf_counter()
        self.front = load_front(self.artifact)
        self.layer_extra["artifact.load_ms"] = \
            1000.0 * (time.perf_counter() - started)
        self.server, self.port = start_server(
            self.root, self.artifact, self.work_dir / "server.log")

    def prepare(self) -> None:
        """Encode every request body and its expected answer (untimed)."""
        rng = np.random.default_rng(self.seed)
        X = self.train.X
        small = query_rows(X, 64, rng)
        self.bodies = {"small": [], "bulk": [], "rescore": []}
        for row in small:
            self.bodies["small"].append(self._body("/predict", row[None, :]))
        for _ in range(2):
            self.bodies["bulk"].append(
                self._body("/predict", query_rows(X, BULK_ROWS, rng)))
        expected = jsonable(self.front.rescore(X, self.train.y))
        self.ledger.record(
            same_json_floats(expected, jsonable(
                [m.train_error for m in self.front.models])),
            "offline FrozenFront.rescore differs from the stored train "
            "errors")
        payload = json.dumps({"X": X.tolist(), "y": self.train.y.tolist()})
        self.bodies["rescore"].append(
            ("/rescore", payload.encode("utf-8"), expected))
        order = [kind for kind, count in ROUND_MIX.items()
                 for _ in range(count)]
        self.order = [order[i] for i in rng.permutation(len(order))]
        self.connection = CountingConnection("127.0.0.1", self.port,
                                             timeout=HTTP_TIMEOUT)
        fronts = {"PM": list(self.front.models)}
        self.fingerprints.append(fingerprint(fronts))
        best, volume = quality(fronts)
        self.end_metrics["best_test_error_pct"] = best
        self.end_metrics["front_hypervolume"] = volume
        check_front(self.ledger, "PM", self.front.models)

    def _body(self, path: str, rows: np.ndarray):
        payload = json.dumps({"X": rows.tolist()}).encode("utf-8")
        return path, payload, jsonable(self.front.predict(rows))

    def unit(self, tracer: Optional[Tracer]) -> float:
        """One round of the seeded mix; returns its wall-clock seconds."""
        cursor = {kind: self.unit_index * count
                  for kind, count in ROUND_MIX.items()}
        self.unit_index += 1
        replies = []
        started = time.perf_counter()
        for kind in self.order:
            bodies = self.bodies[kind]
            path, payload, expected = bodies[cursor[kind] % len(bodies)]
            cursor[kind] += 1
            if tracer is None:
                status, data, seconds = self._request(path, payload)
            else:
                with tracer.span(f"client.{kind}"):
                    status, data, seconds = self._request(path, payload)
            replies.append((kind, status, data, expected))
            self.latencies[kind].append(seconds)
        self.walls.append(time.perf_counter() - started)
        for kind, status, data, expected in replies:
            if not self.ledger.record(status == 200,
                                      f"{kind}: HTTP {status}"):
                continue
            answer = json.loads(data)
            got = answer["errors" if kind == "rescore" else "predictions"]
            self.ledger.record(same_json_floats(got, expected),
                               f"{kind}: served values differ from "
                               "load_front(path) offline, bit for bit")
        return self.walls[-1]

    def _request(self, path: str, payload: bytes):
        started = time.perf_counter()
        self.connection.request("POST", path, body=payload, headers={
            "Content-Type": "application/json"})
        response = self.connection.getresponse()
        data = response.read()
        return response.status, data, time.perf_counter() - started

    def finish(self) -> None:
        self.end_metrics.update(small_latency_metrics([self.latencies["small"]],
                                                      self.ledger))
        self.end_metrics["bulk_rows_per_s"] = \
            BULK_ROWS / median(self.latencies["bulk"])
        self.samples = {kind: len(values)
                        for kind, values in self.latencies.items()}
        self.end_metrics["peak_rss_mb"] = peak_rss_mb_of(self.server.pid)
        self.connection.request("GET", "/stats")
        steps = json.loads(self.connection.getresponse().read())["steps"]
        self.layer_extra.update({
            "serve.predict_p50_ms": steps["predict"]["p50_ms"],
            "serve.rescore_p50_ms": steps["rescore"]["p50_ms"],
            "serve.connections_opened": self.connection.opened,
        })

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
        if self.server is not None:
            stop_process(self.server)
            self.server = None
