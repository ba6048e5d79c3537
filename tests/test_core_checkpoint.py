"""Crash-safe checkpoint/resume: bit-identity, durability, lock survival.

The contract under test: a run interrupted at generation *k* and resumed
from its checkpoint produces a final front **byte-for-byte identical** to
the uninterrupted run; a SIGKILL at any instant -- including mid-save --
leaves the previous checkpoint version readable; and a lock holder's death
releases the lock for the next writer.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import warnings

import numpy as np
import pytest

from repro.core import faults
from repro.core.cache_store import FileLock, RunCheckpointStore
from repro.core.engine import CaffeineEngine
from repro.core.evaluation import BasisColumnCache
from repro.core.problem import Problem
from repro.core.session import Session, SessionCallback
from repro.core.settings import CaffeineSettings
from repro.data.dataset import Dataset

from oracles import reference_layers

SETTINGS = CaffeineSettings(population_size=20, n_generations=5,
                            random_seed=7)


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


def _datasets(seed: int = 0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.5, 2.0, size=(40, 3))
    Xt = rng.uniform(0.6, 1.9, size=(30, 3))
    names = ("a", "b", "c")

    def target(M):
        return 3.0 + 2.0 * M[:, 0] / M[:, 1] + 0.5 * M[:, 2]

    train = Dataset(X, target(X), names, target_name="y")
    test = Dataset(Xt, target(Xt), names, target_name="y")
    return train, test


def _front(result):
    return [(m.train_error,
             None if np.isnan(m.test_error) else m.test_error,
             m.complexity, m.expression())
            for m in result.tradeoff]


class _InterruptAt:
    """A progress callable that raises KeyboardInterrupt at generation k."""

    def __init__(self, generation: int):
        self.generation = generation

    def __call__(self, generation, stats):
        if generation == self.generation:
            raise KeyboardInterrupt


class _CountGenerations(SessionCallback):
    def __init__(self):
        self.count = 0

    def on_generation(self, problem, generation, stats):
        self.count += 1


class TestRunCheckpointStore:
    def test_slot_roundtrip_keeps_other_slots(self, tmp_path):
        store = RunCheckpointStore(tmp_path / "run.ckpt")
        assert store.load_state("a") is None
        store.save_state("a", {"v": 1})
        store.save_state("b", {"v": 2})
        assert store.load_state("a") == {"v": 1}
        assert store.slot_names() == ("a", "b")
        store.save_state("a", {"v": 3})
        assert store.load_state("a") == {"v": 3}
        assert store.load_state("b") == {"v": 2}  # merge, not overwrite

    def test_saves_after_its_own_write_read_only_the_header(self, tmp_path,
                                                            monkeypatch):
        path = tmp_path / "run.ckpt"
        RunCheckpointStore(path).save_state("a", {"v": 1})
        reads = []
        read_document = RunCheckpointStore._read_document

        def counting_read_document(store):
            reads.append(store)
            return read_document(store)

        monkeypatch.setattr(RunCheckpointStore, "_read_document",
                            counting_read_document)
        store = RunCheckpointStore(path)
        store.save_state("b", {"v": 2})  # first save: reads and merges
        store.save_state("c", {"v": 3})
        store.save_state("b", {"v": 4})
        assert reads == [store]
        assert [store.load_state(name) for name in "abc"] == \
            [{"v": 1}, {"v": 4}, {"v": 3}]

    def test_two_stores_on_one_path_alternate_without_losing_slots(
            self, tmp_path):
        path = tmp_path / "run.ckpt"
        first, second = RunCheckpointStore(path), RunCheckpointStore(path)
        first.save_state("a", {"v": 1})
        second.save_state("b", {"v": 2})
        first.save_state("a", {"v": 3})  # the file is second's: merge
        first.save_state("c", {"v": 4})  # the file is first's own
        second.save_state("b", {"v": 5})  # the file is first's: merge
        second.save_state("d", {"v": 6})
        first.save_state("c", {"v": 7})
        reader = RunCheckpointStore(path)
        assert reader.slot_names() == ("a", "b", "c", "d")
        assert [reader.load_state(name) for name in "abcd"] == \
            [{"v": 3}, {"v": 5}, {"v": 7}, {"v": 6}]

    def test_save_after_a_corrupted_save_writes_every_slot(self, tmp_path):
        """A save truncated on disk by the ``store.corrupt`` fault keeps
        its header, so the store's next save takes the header-only path
        and rewrites the whole file, every slot included."""
        path = tmp_path / "run.ckpt"
        store = RunCheckpointStore(path)
        store.save_state("a", {"v": list(range(200))})
        corrupt = faults.install("store.corrupt")
        store.save_state("b", {"v": 2})
        assert corrupt.fired == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            store.save_state("c", {"v": 3})
            reader = RunCheckpointStore(path)
            assert reader.slot_names() == ("a", "b", "c")
            assert reader.load_state("a") == {"v": list(range(200))}
            assert reader.load_state("b") == {"v": 2}
        assert not list(tmp_path.glob("run.ckpt.corrupt-*"))

    def test_version_1_file_cold_starts_and_is_replaced(self, tmp_path):
        class Version1Store(RunCheckpointStore):
            FORMAT_VERSION = 1

        path = tmp_path / "run.ckpt"
        Version1Store(path)._write_document(
            {"format_version": 1, "slots": {"a": {"v": 1}}})
        store = RunCheckpointStore(path)
        with pytest.warns(RuntimeWarning, match="unsupported format version"):
            assert store.load_state("a") is None
        with pytest.warns(RuntimeWarning, match="unsupported format version"):
            store.save_state("b", {"v": 2})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reader = RunCheckpointStore(path)
            assert reader.slot_names() == ("b",)
            assert reader.load_state("b") == {"v": 2}
        assert path.read_bytes().split(b"\n", 2)[1] == b"2"
        assert not list(tmp_path.glob("run.ckpt.corrupt-*"))

    def test_undecodable_slot_leaves_the_other_slots_readable(self,
                                                              tmp_path):
        path = tmp_path / "run.ckpt"
        store = RunCheckpointStore(path)
        store._write_document({"format_version": 2, "slots": {
            "a": pickle.dumps({"v": 1}), "b": b"not a pickle"}})
        assert store.load_state("a") == {"v": 1}
        with pytest.warns(RuntimeWarning, match="undecodable slot 'b'"):
            assert store.load_state("b") is None
        assert store.slot_names() == ("a", "b")
        store.save_state("b", {"v": 2})
        assert store.load_state("b") == {"v": 2}
        assert store.load_state("a") == {"v": 1}


class TestEngineResume:
    @pytest.mark.parametrize("genome_backend", ["shared", "deepcopy"])
    def test_interrupted_resume_is_bit_identical(self, tmp_path,
                                                 genome_backend):
        # "deepcopy" resumes with the clone-and-edit reference operators.
        layers = ("genome",) if genome_backend == "deepcopy" else ()
        with reference_layers(*layers):
            train, test = _datasets()
            settings = SETTINGS
            reference = CaffeineEngine(train, test=test, settings=settings).run()

            store = RunCheckpointStore(tmp_path / "run.ckpt")
            engine = CaffeineEngine(train, test=test, settings=settings)
            with pytest.raises(KeyboardInterrupt):
                engine.run(progress=_InterruptAt(2), checkpoint=store)
            state = store.load_state("y")
            assert state["kind"] == "generation"
            assert 0 < state["generation"] < settings.n_generations

            resumed = CaffeineEngine(train, test=test, settings=settings).run(
                checkpoint=store, resume=True)
            assert _front(resumed) == _front(reference)

    def test_checkpoint_with_retired_fit_fields_resumes(self, tmp_path):
        """Checkpoints written while ``LinearFit`` also carried
        ``residual_sum_of_squares``, ``rank`` and ``singular`` pickle those
        as extra attributes; resuming from one is still bit-identical."""
        train, test = _datasets()
        reference = CaffeineEngine(train, test=test, settings=SETTINGS).run()
        store = RunCheckpointStore(tmp_path / "run.ckpt")
        with pytest.raises(KeyboardInterrupt):
            CaffeineEngine(train, test=test, settings=SETTINGS).run(
                progress=_InterruptAt(2), checkpoint=store)
        state = store.load_state("y")
        fits = [individual.fit for individual in state["population"]
                if individual.fit is not None]
        assert fits
        for fit in fits:
            object.__setattr__(fit, "residual_sum_of_squares", 1.0)
            object.__setattr__(fit, "rank", fit.n_terms + 1)
            object.__setattr__(fit, "singular", False)
        store.save_state("y", state)
        reloaded = store.load_state("y")["population"]
        assert any(getattr(individual.fit, "singular", True) is False
                   for individual in reloaded)
        resumed = CaffeineEngine(train, test=test, settings=SETTINGS).run(
            checkpoint=store, resume=True)
        assert _front(resumed) == _front(reference)

    def test_checkpoint_every_controls_cadence(self, tmp_path):
        train, test = _datasets()
        store = RunCheckpointStore(tmp_path / "run.ckpt")
        engine = CaffeineEngine(train, test=test, settings=SETTINGS)
        # Interrupt during generation 3: with cadence 2 only the gen-2
        # boundary was persisted on the way (then the KI handler saves the
        # last completed boundary, gen 3).
        with pytest.raises(KeyboardInterrupt):
            engine.run(progress=_InterruptAt(3), checkpoint=store,
                       checkpoint_every=2)
        state = store.load_state("y")
        assert state["generation"] == 3
        resumed = CaffeineEngine(train, test=test, settings=SETTINGS).run(
            checkpoint=store, checkpoint_every=2, resume=True)
        reference = CaffeineEngine(train, test=test, settings=SETTINGS).run()
        assert _front(resumed) == _front(reference)

    def test_result_slot_short_circuits_rerun(self, tmp_path):
        train, test = _datasets()
        store = RunCheckpointStore(tmp_path / "run.ckpt")
        first = CaffeineEngine(train, test=test, settings=SETTINGS).run(
            checkpoint=store)
        assert store.load_state("y")["kind"] == "result"

        generations = []
        second = CaffeineEngine(train, test=test, settings=SETTINGS).run(
            progress=lambda g, s: generations.append(g),
            checkpoint=store, resume=True)
        assert generations == []  # returned the stored result, no re-run
        assert _front(second) == _front(first)

    def test_incompatible_checkpoint_warns_and_cold_starts(self, tmp_path):
        train, test = _datasets()
        store = RunCheckpointStore(tmp_path / "run.ckpt")
        with pytest.raises(KeyboardInterrupt):
            CaffeineEngine(train, test=test, settings=SETTINGS).run(
                progress=_InterruptAt(2), checkpoint=store)

        other = SETTINGS.copy(random_seed=8)
        with pytest.warns(RuntimeWarning, match="starting cold"):
            resumed = CaffeineEngine(train, test=test, settings=other).run(
                checkpoint=store, resume=True)
        reference = CaffeineEngine(train, test=test, settings=other).run()
        assert _front(resumed) == _front(reference)

    def test_restore_run_state_raises_on_mismatch(self, tmp_path):
        train, test = _datasets()
        engine = CaffeineEngine(train, test=test, settings=SETTINGS)
        engine.initialize_population()
        engine.step(0)
        state = engine.capture_run_state(1)

        other = CaffeineEngine(train, test=test,
                               settings=SETTINGS.copy(population_size=24))
        with pytest.raises(ValueError, match="fingerprint"):
            other.restore_run_state(state)

    def test_result_neutral_settings_share_fingerprints(self, monkeypatch):
        train, test = _datasets()
        base = CaffeineEngine(train, test=test, settings=SETTINGS)
        monkeypatch.setenv(faults.ENV_VAR, "lock.timeout:times=1")
        faults.clear()
        tweaked = CaffeineEngine(train, test=test, settings=SETTINGS,
                                 column_cache=BasisColumnCache(7))
        # Cache budgets and armed faults never change results, so their
        # checkpoints are mutually resumable by design.
        assert base.checkpoint_fingerprint() == \
            tweaked.checkpoint_fingerprint()
        tweaked.initialize_population()
        tweaked.step(0)
        base.restore_run_state(tweaked.capture_run_state(1))
        assert SETTINGS.fingerprint() != \
            SETTINGS.copy(population_size=24).fingerprint()


class TestOneProblemSessionCheckpoint:
    def test_result_slot_short_circuits_resume(self, tmp_path):
        train, test = _datasets()
        path = str(tmp_path / "run.ckpt")
        reference = CaffeineEngine(train, test, settings=SETTINGS).run()
        session = Session([Problem(train, test)], settings=SETTINGS,
                          checkpoint_path=path)
        first = session.run().single()
        assert _front(first) == _front(reference)
        # The resumed run returns straight from the stored result slot.
        again = session.run(resume=True).single()
        assert _front(again) == _front(reference)


class TestSessionResume:
    def _problems(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0.5, 2.0, size=(40, 3))
        names = ("a", "b", "c")
        return [Problem(train=Dataset(X, 3 + 2 * X[:, 0] / X[:, 1], names,
                                      target_name="t1")),
                Problem(train=Dataset(X, X[:, 2] ** 2 + X[:, 0], names,
                                      target_name="t2"))]

    def test_resume_requires_checkpoint_path(self):
        session = Session(self._problems(), settings=SETTINGS)
        with pytest.raises(ValueError, match="checkpoint_path"):
            session.run(resume=True)

    def test_interrupted_sweep_resumes_bit_identically(self, tmp_path):
        problems = self._problems()
        clean = Session(problems, settings=SETTINGS).run()

        class _KI(SessionCallback):
            def on_generation(self, problem, generation, stats):
                if problem.name == "t2" and generation == 2:
                    raise KeyboardInterrupt

        path = str(tmp_path / "sweep.ckpt")
        partial = Session(problems, settings=SETTINGS, checkpoint_path=path,
                          callbacks=[_KI()]).run()
        assert partial.interrupted
        assert not partial.complete
        assert set(partial.results) == {"t1"}
        assert partial.failures["t2"].phase == "interrupted"

        counter = _CountGenerations()
        resumed = Session(problems, settings=SETTINGS, checkpoint_path=path,
                          callbacks=[counter]).run(resume=True)
        assert resumed.complete
        # t1 came from its result slot (no generations re-run); t2 resumed
        # from its generation-2 boundary, not from scratch.
        assert counter.count < SETTINGS.n_generations
        for name in ("t1", "t2"):
            assert _front(resumed[name]) == _front(clean[name])

    def test_parallel_sweep_resumes_result_slots(self, tmp_path):
        problems = self._problems()
        path = str(tmp_path / "sweep.ckpt")
        first = Session(problems, settings=SETTINGS, jobs=2,
                        checkpoint_path=path).run()
        assert first.complete
        store = RunCheckpointStore(path)
        assert sorted(store.slot_names()) == ["t1", "t2"]
        resumed = Session(problems, settings=SETTINGS, jobs=2,
                          checkpoint_path=path).run(resume=True)
        for name in ("t1", "t2"):
            assert _front(resumed[name]) == _front(first[name])

    def test_figure3_workload_interrupt_resume(self, tmp_path):
        """The acceptance workload: interrupt a figure3-style OTA sweep at
        generation k, resume, and match the uninterrupted front."""
        from repro.experiments.figure3 import run_figure3
        from repro.experiments.setup import (
            generate_ota_datasets,
            problems_for_targets,
        )

        datasets = generate_ota_datasets(n_runs=27)
        settings = CaffeineSettings(population_size=16, n_generations=4,
                                    random_seed=3)
        reference = run_figure3(datasets, settings, targets=("PM",))

        class _KI(SessionCallback):
            def on_generation(self, problem, generation, stats):
                if generation == 1:
                    raise KeyboardInterrupt

        path = str(tmp_path / "figure3.ckpt")
        problems = problems_for_targets(datasets, ("PM",))
        partial = Session(problems, settings=settings, checkpoint_path=path,
                          callbacks=[_KI()]).run()
        assert partial.interrupted

        finished = Session(problems, settings=settings,
                           checkpoint_path=path).run(resume=True)
        resumed = run_figure3(datasets, settings, targets=("PM",),
                              results=finished.results)
        assert _front(resumed.results["PM"]) == \
            _front(reference.results["PM"])


def _kill_mid_save_child(path):
    from repro.core import faults as child_faults
    child_faults.install("store.kill-mid-save")
    RunCheckpointStore(path).save_state("s", {"version": 2})


def _kill_mid_column_save_child(path):
    from repro.core import faults as child_faults
    from repro.core.cache_store import ColumnCacheStore
    from repro.core.evaluation import BasisColumnCache
    child_faults.install("store.kill-mid-save")
    ColumnCacheStore(path).save(BasisColumnCache(4))


def _lock_holder_child(path):
    lock = FileLock(path, timeout=5.0)
    lock.acquire()
    os.kill(os.getpid(), signal.SIGKILL)


class TestCrashDurability:
    def test_sigkill_mid_save_keeps_previous_version(self, tmp_path):
        path = tmp_path / "run.ckpt"
        store = RunCheckpointStore(path)
        store.save_state("s", {"version": 1})

        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_kill_mid_save_child, args=(path,))
        child.start()
        child.join(30)
        assert child.exitcode == -signal.SIGKILL

        # The kill landed between writing the temp file and os.replace:
        # the store still reads the previous version, with no warning.
        import warnings as warnings_module
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            assert RunCheckpointStore(path).load_state("s") == {"version": 1}

    def test_sigkill_mid_column_cache_save_keeps_previous(self, tmp_path):
        from repro.core.cache_store import ColumnCacheStore
        from repro.core.evaluation import BasisColumnCache

        path = tmp_path / "columns.cache"
        ColumnCacheStore(path).save(BasisColumnCache(4))
        before = path.read_bytes()

        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_kill_mid_column_save_child, args=(path,))
        child.start()
        child.join(30)
        assert child.exitcode == -signal.SIGKILL
        assert path.read_bytes() == before  # atomic replace never ran

        import warnings as warnings_module
        with warnings_module.catch_warnings():
            warnings_module.simplefilter("error")
            ColumnCacheStore(path).load_into(BasisColumnCache(4))

    def test_lock_released_when_holder_dies(self, tmp_path):
        path = tmp_path / "x.lock"
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_lock_holder_child, args=(path,))
        child.start()
        child.join(30)
        assert child.exitcode == -signal.SIGKILL

        # flock dies with its process: the next writer proceeds instead of
        # deadlocking on a lock no one will ever release.
        survivor = FileLock(path, timeout=2.0, poll_interval=0.01)
        survivor.acquire()
        survivor.release()


class TestFileLock:
    def test_timeout_message_reports_effective_budget(self, tmp_path):
        path = tmp_path / "x.lock"
        holder = FileLock(path, timeout=5.0)
        holder.acquire()
        try:
            waiter = FileLock(path, timeout=0.2, poll_interval=0.01)
            with pytest.raises(TimeoutError,
                               match=r"of a 0\.2 s budget"):
                waiter.acquire()
        finally:
            holder.release()

    def test_lock_timeout_fault_point(self, tmp_path):
        faults.install("lock.timeout")
        lock = FileLock(tmp_path / "x.lock", timeout=5.0)
        with pytest.raises(TimeoutError, match="injected timeout"):
            lock.acquire()
        lock.acquire()  # fault budget spent: normal operation resumes
        lock.release()
