"""Persistent column-cache store: round trips, isolation, damage recovery."""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest

from repro.core.cache_store import ColumnCacheStore
from repro.core.engine import CaffeineEngine
from repro.core.evaluation import (
    BasisColumnCache,
    PopulationEvaluator,
    cache_budgets,
)
from repro.core.generator import ExpressionGenerator
from repro.core.individual import Individual
from repro.core.problem import Problem
from repro.core.session import Session
from repro.core.settings import CaffeineSettings
from repro.data.dataset import Dataset


@pytest.fixture()
def fast_settings():
    return CaffeineSettings.fast_settings()


def _population(seed: int, n: int = 6, n_variables: int = 3):
    settings = CaffeineSettings(population_size=10, n_generations=1,
                                random_seed=seed)
    generator = ExpressionGenerator(n_variables, settings,
                                    rng=np.random.default_rng(seed))
    return [Individual(bases=generator.random_basis_functions())
            for _ in range(n)]


def _evaluator(seed: int, settings, cache=None):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.5, 2.0, size=(30, 3))
    y = rng.normal(size=30)
    return PopulationEvaluator(X, y, settings, cache=cache)


def _no_store_warnings(recorded) -> bool:
    return not [w for w in recorded if "column-cache" in str(w.message)]


class TestRoundTrip:
    def test_save_load_preserves_entries_bitwise(self, fast_settings,
                                                 tmp_path):
        evaluator = _evaluator(0, fast_settings)
        evaluator.evaluate_population(_population(0))
        store = ColumnCacheStore(tmp_path / "cols.cache")
        n_saved = store.save(evaluator.cache)
        assert n_saved == len(evaluator.cache) > 0

        reloaded = store.load(max_entries=cache_budgets(fast_settings).columns)
        original = dict(evaluator.cache.items())
        restored = dict(reloaded.items())
        assert set(original) == set(restored)
        for key, column in original.items():
            assert restored[key].tobytes() == column.tobytes()

    def test_warm_cache_serves_all_columns(self, fast_settings, tmp_path):
        cold = _evaluator(1, fast_settings)
        population = _population(1)
        cold.evaluate_population(population)
        store = ColumnCacheStore(tmp_path / "cols.cache")
        store.save(cold.cache)

        warm_cache = BasisColumnCache(cache_budgets(fast_settings).columns)
        assert store.load_into(warm_cache) == len(cold.cache)
        warm = _evaluator(1, fast_settings, cache=warm_cache)
        reference = [ind.clone() for ind in population]
        warm.evaluate_population(reference)
        assert warm.n_columns_computed == 0  # every column came from disk
        for a, b in zip(population, reference):
            assert a.error == b.error
            assert a.complexity == b.complexity

    def test_save_is_atomic_overwrite_and_creates_parents(self, fast_settings,
                                                          tmp_path):
        path = tmp_path / "deep" / "nested" / "cols.cache"
        store = ColumnCacheStore(path)
        evaluator = _evaluator(2, fast_settings)
        evaluator.evaluate_population(_population(2))
        store.save(evaluator.cache)
        first = path.read_bytes()
        store.save(evaluator.cache)  # overwrite in place
        assert path.read_bytes() == first
        # No temp litter -- only the data file and the advisory lock sidecar.
        assert sorted(path.parent.iterdir()) == [
            path, path.with_name(path.name + ".lock")]

    def test_save_merges_with_stored_entries(self, fast_settings, tmp_path):
        """A second run saving to a shared file never erases the first
        run's namespaces, even though its LRU never held them."""
        store = ColumnCacheStore(tmp_path / "shared.cache")
        first = _evaluator(21, fast_settings)
        first.evaluate_population(_population(21))
        store.save(first.cache)

        other_rng = np.random.default_rng(77)
        second = PopulationEvaluator(
            other_rng.uniform(0.5, 2.0, size=(30, 3)),
            other_rng.normal(size=30), fast_settings)
        second.evaluate_population(_population(21))
        store.save(second.cache)  # second.cache holds none of first's keys

        merged = store.load(max_entries=100000)
        merged_keys = {key for key, _column in merged.items()}
        for key, _column in first.cache.items():
            assert key in merged_keys
        for key, _column in second.cache.items():
            assert key in merged_keys
        # A shrunken (even empty) cache cannot wipe the file either ...
        store.save(BasisColumnCache(10))
        assert {k for k, _c in store.load(100000).items()} == merged_keys
        # ... unless merging is explicitly disabled.
        store.save(BasisColumnCache(10), merge=False)
        assert len(store.load(100000)) == 0

    def test_load_skips_existing_keys(self, fast_settings, tmp_path):
        evaluator = _evaluator(3, fast_settings)
        evaluator.evaluate_population(_population(3))
        store = ColumnCacheStore(tmp_path / "cols.cache")
        store.save(evaluator.cache)
        # Loading into the cache that produced the file adds nothing.
        assert store.load_into(evaluator.cache) == 0


class TestIsolation:
    def test_different_dataset_never_reuses_entries(self, fast_settings,
                                                    tmp_path):
        producer = _evaluator(4, fast_settings)
        producer.evaluate_population(_population(4))
        store = ColumnCacheStore(tmp_path / "cols.cache")
        store.save(producer.cache)

        # Same trees, different X: the fingerprint prefix isolates them.
        other_rng = np.random.default_rng(99)
        other = PopulationEvaluator(
            other_rng.uniform(0.5, 2.0, size=(30, 3)),
            other_rng.normal(size=30), fast_settings,
            cache=store.load(cache_budgets(fast_settings).columns))
        population = _population(4)
        reference = [ind.clone() for ind in population]
        other.evaluate_population(population)
        fresh = PopulationEvaluator(other.X, other.y, fast_settings)
        fresh.evaluate_population(reference)
        # The file served nothing: exactly the fresh-start work was done.
        assert other.n_columns_computed == fresh.n_columns_computed > 0
        for a, b in zip(population, reference):
            assert a.error == b.error

    def test_different_function_set_namespace_isolated(self, fast_settings,
                                                       tmp_path):
        from repro.core.functions import rational_function_set

        producer = _evaluator(5, fast_settings)
        producer.evaluate_population(_population(5))
        store = ColumnCacheStore(tmp_path / "cols.cache")
        store.save(producer.cache)

        rational = fast_settings.copy(function_set=rational_function_set())
        consumer = PopulationEvaluator(producer.X, producer.y, rational,
                                       cache=store.load())
        assert consumer.dataset_key != producer.dataset_key

    def test_dataset_key_filter_loads_only_matching(self, fast_settings,
                                                    tmp_path):
        producer = _evaluator(6, fast_settings)
        producer.evaluate_population(_population(6))
        store = ColumnCacheStore(tmp_path / "cols.cache")
        store.save(producer.cache)
        filtered = BasisColumnCache(1000)
        n = store.load_into(filtered, dataset_key=producer.dataset_key)
        assert n == len(producer.cache)
        assert store.load_into(BasisColumnCache(1000),
                               dataset_key=("nope", ())) == 0


class TestDamageRecovery:
    def _saved_store(self, tmp_path, seed=7):
        settings = CaffeineSettings.fast_settings()
        evaluator = _evaluator(seed, settings)
        evaluator.evaluate_population(_population(seed))
        store = ColumnCacheStore(tmp_path / "cols.cache")
        store.save(evaluator.cache)
        return store

    def test_missing_file_is_silent_cold_start(self, tmp_path):
        store = ColumnCacheStore(tmp_path / "never-written.cache")
        with warnings.catch_warnings(record=True) as recorded:
            warnings.simplefilter("always")
            assert store.load_into(BasisColumnCache(10)) == 0
        assert _no_store_warnings(recorded)

    @pytest.mark.parametrize("damage", ["truncate", "corrupt-payload",
                                        "corrupt-header", "garbage", "empty"])
    def test_damaged_files_warn_and_start_cold(self, tmp_path, damage):
        store = self._saved_store(tmp_path)
        raw = store.path.read_bytes()
        if damage == "truncate":
            store.path.write_bytes(raw[:len(raw) // 2])
        elif damage == "corrupt-payload":
            store.path.write_bytes(raw[:-40] + b"\x00" * 40)
        elif damage == "corrupt-header":
            store.path.write_bytes(b"wrong-magic\n" + raw.split(b"\n", 1)[1])
        elif damage == "garbage":
            store.path.write_bytes(b"\x93NUMPY not a cache at all")
        elif damage == "empty":
            store.path.write_bytes(b"")
        with pytest.warns(RuntimeWarning, match="column-cache"):
            assert store.load_into(BasisColumnCache(1000)) == 0

    def test_future_format_version_is_stale_not_fatal(self, tmp_path):
        store = self._saved_store(tmp_path)
        magic, version, rest = store.path.read_bytes().split(b"\n", 2)
        assert version == b"1"
        store.path.write_bytes(magic + b"\n999\n" + rest)
        with pytest.warns(RuntimeWarning, match="version"):
            assert store.load_into(BasisColumnCache(1000)) == 0


class TestRunCaffeineIntegration:
    def _train(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0.5, 2.0, size=(40, 3))
        y = 1.0 + X[:, 0] * X[:, 1] + np.sqrt(X[:, 2])
        return Dataset(X=X, y=y, variable_names=("a", "b", "c"),
                       target_name="t")

    def test_column_cache_path_round_trip_identical_models(self, tmp_path):
        train = self._train()
        settings = CaffeineSettings.fast_settings(random_seed=3)
        path = str(tmp_path / "cache" / "cols.cache")

        def run_with_store():
            return Session([Problem(train)], settings=settings,
                           column_cache_path=path).run().single()

        reference = CaffeineEngine(train, settings=settings).run()
        cold = run_with_store()
        assert os.path.exists(path)
        warm = run_with_store()

        def errors(result):
            return [(m.train_error, m.complexity) for m in result.tradeoff]

        assert errors(cold) == errors(reference)
        assert errors(warm) == errors(reference)


# ----------------------------------------------------------------------
# concurrent writers (the ROADMAP's last-writer-wins hazard)
# ----------------------------------------------------------------------
def _spawn_context():
    import multiprocessing

    # fork is fastest and needs no importability gymnastics; spawn works
    # too (multiprocessing ships sys.path to the child).
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def _worker_keys(worker_id: int, n_entries: int):
    return [((f"dataset-{worker_id}", ("fs",)), ("col", worker_id, index))
            for index in range(n_entries)]


def _concurrent_save_worker(path, worker_id, n_entries, barrier):
    cache = BasisColumnCache(10000)
    for index, key in enumerate(_worker_keys(worker_id, n_entries)):
        cache.put(key, np.full(8, worker_id * 1000.0 + index))
    barrier.wait(timeout=60)  # line both savers up on the same instant
    ColumnCacheStore(path).save(cache)


class TestConcurrentWriters:
    def test_simultaneous_saves_lose_no_entries(self, tmp_path):
        """Two processes saving the same store at once both persist.

        Without the advisory lock this is the documented last-writer-wins
        race: both read the same base file, and whichever ``os.replace``
        lands second erases the other's namespace.  The lock serializes the
        read-merge-write cycles, so the union must survive."""
        path = str(tmp_path / "shared" / "cols.cache")
        store = ColumnCacheStore(path)

        # A pre-existing third namespace must also survive both writers.
        seeded = BasisColumnCache(100)
        seeded_key = (("dataset-seed", ("fs",)), ("col", "seed"))
        seeded.put(seeded_key, np.zeros(8))
        store.save(seeded)

        ctx = _spawn_context()
        n_entries = 20
        barrier = ctx.Barrier(2)
        workers = [
            ctx.Process(target=_concurrent_save_worker,
                        args=(path, worker_id, n_entries, barrier))
            for worker_id in (1, 2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
        assert all(worker.exitcode == 0 for worker in workers)

        merged = store.load(max_entries=10000)
        stored_keys = {key for key, _column in merged.items()}
        for worker_id in (1, 2):
            missing = set(_worker_keys(worker_id, n_entries)) - stored_keys
            assert not missing, (
                f"writer {worker_id} lost {len(missing)} entries to the "
                f"concurrent save")
        assert seeded_key in stored_keys
        # And the columns themselves round-tripped bit for bit.
        by_key = dict(merged.items())
        assert np.array_equal(by_key[("dataset-1", ("fs",)), ("col", 1, 3)],
                              np.full(8, 1003.0))

    def test_file_lock_is_reentrant_and_releases(self, tmp_path):
        from repro.core.cache_store import FileLock

        lock = FileLock(tmp_path / "x.lock", timeout=5.0)
        with lock:
            with lock:  # nested acquisition must not deadlock
                assert lock.held
            assert lock.held
        assert not lock.held
        # A second instance on the same path can acquire after release.
        other = FileLock(tmp_path / "x.lock", timeout=0.5)
        with other:
            assert other.held

    def test_one_shared_store_instance_is_thread_safe(self, tmp_path):
        """Two threads saving through ONE store object still serialize.

        flock cannot exclude within a process through one instance's
        reentrancy counter alone; the FileLock's internal RLock must."""
        import threading

        path = str(tmp_path / "shared" / "cols.cache")
        store = ColumnCacheStore(path)
        barrier = threading.Barrier(2)
        errors = []

        def writer(worker_id):
            try:
                cache = BasisColumnCache(10000)
                for key in _worker_keys(worker_id, 20):
                    cache.put(key, np.full(8, float(worker_id)))
                barrier.wait(timeout=30)
                store.save(cache)
            except Exception as error:  # pragma: no cover - diagnostic
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in (1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        stored = {key for key, _column in store.load(10000).items()}
        for worker_id in (1, 2):
            assert not set(_worker_keys(worker_id, 20)) - stored

    def test_file_lock_excludes_other_threads_on_one_instance(self,
                                                              tmp_path):
        import threading

        from repro.core.cache_store import FileLock

        lock = FileLock(tmp_path / "x.lock", timeout=0.3)
        entered = []

        def contender():
            try:
                lock.acquire()
                entered.append(True)
                lock.release()
            except TimeoutError:
                entered.append(False)

        with lock:
            thread = threading.Thread(target=contender)
            thread.start()
            thread.join(timeout=30)
        assert entered == [False]  # blocked while the main thread held it
        with lock:  # and usable again afterwards
            assert lock.held

    def test_file_lock_excludes_other_instances(self, tmp_path):
        from repro.core.cache_store import FileLock

        lock = FileLock(tmp_path / "x.lock", timeout=5.0)
        contender = FileLock(tmp_path / "x.lock", timeout=0.2,
                             poll_interval=0.02)
        with lock:
            with pytest.raises(TimeoutError):
                contender.acquire()
        with contender:  # released holder -> contender proceeds
            assert contender.held
