"""The fault-injection harness and the Session's fault tolerance.

Unit tests of :mod:`repro.core.faults` (spec grammar, arming, matching,
fire budgets, the env-var channel) plus the behaviors it exists to prove:
injected evaluator exceptions, killed workers, stalled problems past their
timeout, corrupt cache files -- every problem still ends in a result or a
structured :class:`~repro.core.session.ProblemFailure`.  Under ``jobs > 1``
every attempt runs in a worker under ``timeout``; a problem whose
``1 + retries`` attempts all fail becomes a failure carrying the last
attempt's phase.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import InjectedFault, ProblemFailure
from repro.core import faults
from repro.core import session as session_module
from repro.core.cache_store import ColumnCacheStore
from repro.core.evaluation import BasisColumnCache
from repro.core.problem import Problem
from repro.core.session import Session, SessionCallback
from repro.core.settings import CaffeineSettings
from repro.data.dataset import Dataset

SETTINGS = CaffeineSettings(population_size=16, n_generations=2,
                            random_seed=3)


@pytest.fixture(autouse=True)
def _clean_faults(monkeypatch):
    monkeypatch.setattr(session_module, "RETRY_BACKOFF", 0.0)
    faults.clear()
    yield
    faults.clear()


def _arm(monkeypatch, spec):
    """Arm ``spec`` through ``REPRO_FAULTS``, the channel workers inherit."""
    monkeypatch.setenv(faults.ENV_VAR, spec)
    faults.clear()  # forget the memo so the env var is re-read


def _problems(names=("t1", "t2")):
    rng = np.random.default_rng(0)
    X = rng.uniform(0.5, 2.0, size=(40, 3))
    targets = {"t1": 3 + 2 * X[:, 0] / X[:, 1],
               "t2": X[:, 2] ** 2 + X[:, 0],
               "t3": 1.0 + X[:, 1] * X[:, 2]}
    return [Problem(train=Dataset(X, targets[name], ("a", "b", "c"),
                                  target_name=name))
            for name in names]


def _front(result):
    return [(m.train_error, m.complexity, m.expression())
            for m in result.tradeoff]


class _Recorder(SessionCallback):
    def __init__(self):
        self.retries = []
        self.failures = []
        self.errors = []

    def on_problem_retry(self, problem, failure, delay):
        self.retries.append((problem.name, failure.phase, failure.attempts))
        self.failures.append(failure)

    def on_problem_error(self, problem, failure):
        self.errors.append((problem.name, failure.phase))


class TestSpecGrammar:
    def test_parse_point_conditions_times_delay(self):
        specs = faults.parse_faults(
            "worker.kill:problem=PM:attempt=0, "
            "fit.exception:times=3, problem.stall:delay=1.5, "
            "lock.timeout:times=inf")
        assert [s.point for s in specs] == [
            "worker.kill", "fit.exception", "problem.stall", "lock.timeout"]
        assert specs[0].conditions == {"problem": "PM", "attempt": "0"}
        assert specs[0].times == 1
        assert specs[1].times == 3
        assert specs[2].delay == 1.5
        assert specs[3].times is None

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError, match="empty point"):
            faults.parse_faults(":problem=PM")
        with pytest.raises(ValueError, match="key=value"):
            faults.parse_faults("worker.kill:justakey")
        with pytest.raises(ValueError, match="times"):
            faults.parse_faults("worker.kill:times=0")
        with pytest.raises(ValueError, match="delay"):
            faults.parse_faults("problem.stall:delay=-1")
        assert faults.parse_faults("") == []

    def test_malformed_env_spec_raises_on_first_use(self, monkeypatch):
        _arm(monkeypatch, "worker.kill:nonsense")
        with pytest.raises(ValueError, match="key=value"):
            faults.fire("worker.kill")


class TestFireSemantics:
    def test_fire_consumes_times_budget(self):
        # repro-lint: allow[fault-spec] -- synthetic point: exercises the fire/times budget itself, not a production point
        faults.install("p.x", times=2)
        assert faults.fire("p.x") is not None
        assert faults.fire("p.x") is not None
        assert faults.fire("p.x") is None  # budget spent

    def test_conditions_are_string_compared(self):
        # repro-lint: allow[fault-spec] -- synthetic point: exercises condition matching itself, not a production point
        faults.install("p.x", problem="PM", attempt=0)
        assert faults.fire("p.x", problem="PM", attempt=1) is None
        assert faults.fire("p.x", problem="SRp", attempt=0) is None
        assert faults.fire("p.x", problem="PM") is None  # key missing
        assert faults.fire("p.x", problem="PM", attempt=0) is not None

    def test_install_from_string_is_idempotent(self):
        # repro-lint: allow[fault-spec] -- synthetic point: exercises spec-string parsing itself, not a production point
        faults.install_from_string("p.x:times=1")
        # repro-lint: allow[fault-spec] -- synthetic point: exercises spec-string parsing itself, not a production point
        faults.install_from_string("p.x:times=1")
        # One spec is armed, not two: the point fires exactly once.
        assert faults.fire("p.x") is not None
        assert faults.fire("p.x") is None

    def test_clear_disarms(self):
        # repro-lint: allow[fault-spec] -- synthetic point: exercises clear() itself, not a production point
        faults.install("p.x")
        faults.clear()
        assert faults.fire("p.x") is None

    def test_env_var_arms(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "p.env:times=1")
        faults.clear()  # forget the memo so the env var is re-read
        assert faults.fire("p.env") is not None
        assert faults.fire("p.env") is None

    def test_raise_point_raises_injected_fault(self):
        # repro-lint: allow[fault-spec] -- synthetic point: exercises raise_point itself, not a production point
        faults.install("p.x")
        with pytest.raises(InjectedFault, match="p.x"):
            faults.raise_point("p.x")
        faults.raise_point("p.x")  # budget spent: no-op

    def test_corrupt_file_point_truncates(self, tmp_path):
        path = tmp_path / "f.bin"
        path.write_bytes(b"x" * 100)
        # repro-lint: allow[fault-spec] -- synthetic point: exercises corrupt_file_point itself, not a production point
        faults.install("p.corrupt")
        assert faults.corrupt_file_point("p.corrupt", path)
        assert path.stat().st_size == 50


class TestSerialFaultTolerance:
    def test_serial_retry_recovers_and_matches_clean_run(self, monkeypatch):
        problem = _problems(("t1",))[0]
        clean = Session([problem], settings=SETTINGS).run()
        _arm(monkeypatch, "fit.exception:times=1")
        recorder = _Recorder()
        outcome = Session([problem], settings=SETTINGS, retries=1,
                          callbacks=[recorder]).run()
        assert outcome.complete
        assert recorder.retries == [("t1", "exception", 1)]
        assert recorder.errors == []
        assert _front(outcome["t1"]) == _front(clean["t1"])

    def test_serial_terminal_failure_is_structured(self, monkeypatch):
        problems = _problems(("t1", "t2"))
        recorder = _Recorder()
        # Injection is condition-free and times=inf keeps firing: BOTH
        # problems fail, each with its own record.
        _arm(monkeypatch, "fit.exception:times=inf")
        outcome = Session(problems, settings=SETTINGS, retries=0,
                          callbacks=[recorder]).run()
        assert outcome.results == {}
        assert set(outcome.failures) == {"t1", "t2"}
        failure = outcome.failures["t1"]
        assert isinstance(failure, ProblemFailure)
        assert failure.phase == "exception"
        assert failure.error_type == "InjectedFault"
        assert failure.attempts == 1
        assert "fit.exception" in failure.message
        assert "InjectedFault" in failure.traceback
        assert recorder.errors == [("t1", "exception"), ("t2", "exception")]
        with pytest.raises(KeyError, match="failed terminally"):
            outcome["t1"]
        with pytest.raises(RuntimeError, match="2 problem"):
            outcome.raise_failures()


class TestParallelFaultTolerance:
    def test_killed_worker_is_retried_and_result_matches(self, monkeypatch):
        problems = _problems(("t1", "t2"))
        clean = Session(problems, settings=SETTINGS).run()
        _arm(monkeypatch, "worker.kill:problem=t1:attempt=0")
        recorder = _Recorder()
        outcome = Session(problems, settings=SETTINGS, jobs=2, retries=1,
                          callbacks=[recorder]).run()
        assert outcome.complete
        assert recorder.retries == [("t1", "worker-crash", 1)]
        for name in ("t1", "t2"):
            assert _front(outcome[name]) == _front(clean[name])

    def test_worker_exception_reported_with_traceback(self, monkeypatch):
        # The worker's exception fires on every attempt, so the problem
        # ends as a terminal failure that carries the worker's traceback;
        # the other problem is untouched.
        problems = _problems(("t1", "t2"))
        clean = Session(problems, settings=SETTINGS).run()
        _arm(monkeypatch, "worker.exception:problem=t2:times=inf")
        recorder = _Recorder()
        outcome = Session(problems, settings=SETTINGS, jobs=2, retries=0,
                          callbacks=[recorder]).run()
        assert not outcome.complete
        assert recorder.retries == []
        assert recorder.errors == [("t2", "exception")]
        failure = outcome.failures["t2"]
        assert failure.phase == "exception"
        assert failure.error_type == "InjectedFault"
        assert failure.attempts == 1
        assert "worker.exception" in failure.traceback
        assert outcome.names == ("t1",)
        assert _front(outcome["t1"]) == _front(clean["t1"])

    def test_worker_killed_on_every_attempt_fails_terminally(self,
                                                             monkeypatch):
        # The kill fires on every worker attempt (times=inf, any attempt):
        # after 1 + retries attempts the problem is a worker-crash failure.
        problems = _problems(("t1", "t2"))
        clean = Session(problems, settings=SETTINGS).run()
        _arm(monkeypatch, "worker.kill:problem=t1:times=inf")
        recorder = _Recorder()
        outcome = Session(problems, settings=SETTINGS, jobs=2, retries=1,
                          callbacks=[recorder]).run()
        assert recorder.retries == [("t1", "worker-crash", 1)]
        assert recorder.errors == [("t1", "worker-crash")]
        failure = outcome.failures["t1"]
        assert failure.attempts == 2
        assert "killed by signal" in failure.message
        assert outcome.names == ("t2",)
        assert _front(outcome["t2"]) == _front(clean["t2"])

    def test_exhausted_retries_are_a_structured_terminal_failure(
            self, monkeypatch):
        # times=inf fires in every worker attempt of both problems.
        problems = _problems(("t1", "t2"))
        _arm(monkeypatch, "fit.exception:times=inf")
        recorder = _Recorder()
        outcome = Session(problems, settings=SETTINGS, jobs=2, retries=1,
                          callbacks=[recorder]).run()
        assert outcome.results == {}
        assert sorted(recorder.retries) == [("t1", "exception", 1),
                                            ("t2", "exception", 1)]
        assert sorted(recorder.errors) == [("t1", "exception"),
                                           ("t2", "exception")]
        for name in ("t1", "t2"):
            failure = outcome.failures[name]
            assert failure.phase == "exception"
            assert failure.attempts == 2
            assert failure.error_type == "InjectedFault"
            assert "fit.exception" in failure.traceback

    def test_stall_on_every_attempt_ends_as_a_bounded_timeout(self,
                                                            monkeypatch):
        """``timeout`` bounds every attempt: a problem that stalls on each
        try ends as a timeout failure, in bounded wall-clock time, and the
        other problems stay bit-identical to an undisturbed run."""
        problems = _problems(("t1", "t2", "t3"))
        clean = Session(problems, settings=SETTINGS).run()
        _arm(monkeypatch, "problem.stall:problem=t2:delay=600:times=inf")
        recorder = _Recorder()
        timeout, retries = 1.0, 2
        start = time.monotonic()
        outcome = Session(problems, settings=SETTINGS, jobs=3,
                          timeout=timeout, retries=retries,
                          callbacks=[recorder]).run()
        elapsed = time.monotonic() - start
        backoff = sum(session_module.RETRY_BACKOFF * 2.0 ** k * 1.25
                      for k in range(retries))
        assert elapsed < 10 * timeout + backoff
        assert recorder.retries == [("t2", "timeout", 1),
                                    ("t2", "timeout", 2)]
        assert recorder.errors == [("t2", "timeout")]
        failure = outcome.failures["t2"]
        assert failure.phase == "timeout"
        assert failure.attempts == 1 + retries
        assert "timeout" in failure.message
        assert outcome.names == ("t1", "t3")
        for name in ("t1", "t3"):
            assert _front(outcome[name]) == _front(clean[name])

    def test_sweep_survives_kill_timeout_and_corrupt_cache(self, tmp_path,
                                                           monkeypatch):
        """The acceptance sweep: one killed worker, one problem stalled
        past its timeout on every attempt, one corrupt shared-cache file --
        every problem still ends in a result bit-identical to an
        undisturbed run or in a structured failure."""
        problems = _problems(("t1", "t2", "t3"))
        clean = Session(problems, settings=SETTINGS).run()

        cache_path = tmp_path / "columns.cache"
        # Valid magic/version but garbage checksum: byte-level damage that
        # loaders must quarantine, not crash on.
        cache_path.write_bytes(ColumnCacheStore.MAGIC + b"\n1\n"
                               + b"0" * 64 + b"\nnot-the-payload")
        _arm(monkeypatch, "worker.kill:problem=t1:attempt=0, "
                          "problem.stall:problem=t2:delay=30:times=inf")
        recorder = _Recorder()
        outcome = Session(problems, settings=SETTINGS, jobs=3,
                          column_cache_path=str(cache_path),
                          timeout=1.0, retries=1,
                          callbacks=[recorder]).run()

        # t1's killed worker was retried; t2 timed out on its first try
        # and on its retry, and ends as a timeout failure.
        assert sorted(recorder.retries) == [("t1", "worker-crash", 1),
                                            ("t2", "timeout", 1)]
        assert recorder.errors == [("t2", "timeout")]
        assert outcome.failures["t2"].phase == "timeout"
        assert outcome.failures["t2"].attempts == 2
        assert all("timeout" in failure.message
                   for failure in recorder.failures
                   if failure.phase == "timeout")
        assert outcome.names == ("t1", "t3")

        # Every result is bit-identical to an undisturbed run.
        for name in ("t1", "t3"):
            assert _front(outcome[name]) == _front(clean[name])

        # The damaged cache file was quarantined by the first loader and
        # replaced by a fresh valid store (loading it warns about nothing).
        assert (tmp_path / "columns.cache.corrupt-0").exists()
        import warnings as warnings_module
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            ColumnCacheStore(cache_path).load_into(BasisColumnCache(100))
