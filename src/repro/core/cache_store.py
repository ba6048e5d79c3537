"""Disk persistence: the versioned/checksummed store envelope and its users.

Two kinds of run state persist across processes, both through one shared
on-disk envelope (:class:`_VersionedFileStore`):

* :class:`ColumnCacheStore` -- evaluated basis columns of a
  :class:`~repro.core.evaluation.BasisColumnCache`, keyed by
  ``(dataset key, basis key)``.  Those keys are *globally* unambiguous --
  same key, same column, whatever run produced it -- which is what makes
  the cache safe to persist, merge and reload across sweeps.
* :class:`RunCheckpointStore` -- crash-safe generation snapshots of a
  running :class:`~repro.core.engine.CaffeineEngine` (RNG state,
  population, rank arrays, history), one named slot per problem, written
  periodically so an interrupted run warm-restarts **bit-identically**
  instead of starting over (see ``CaffeineEngine.run`` and
  ``Session.resume``).

The envelope gives both the same durability properties:

* **atomic writes** -- a temp file in the target directory plus
  ``os.replace``, so a crash (even ``SIGKILL``) mid-save leaves the
  previous file version readable, never a torn one;
* **corruption detection** -- a magic string, a format version and a
  SHA-256 payload checksum; any damage (truncation, torn bytes, an
  undecodable pickle) degrades to a cold start with a warning rather than
  an error, and the damaged file is **quarantined** (renamed to
  ``<path>.corrupt-<n>``) so the next run does not trip over -- or
  silently keep cold-starting over -- the same bad bytes.  Files that are
  *valid but foreign* (wrong magic: probably a wrong path; a future format
  version: probably a newer build's good file) are left in place;
* **merge-under-lock writers** -- the whole read-merge-write cycle runs
  under an advisory :class:`FileLock` on a sidecar ``<path>.lock``, so two
  processes saving the same path serialize and the second merges over the
  first instead of overwriting it.  Loads need no lock: the atomic replace
  means a reader always sees a complete file, before or after any
  concurrent save.

The format is a pickle of pure-data keys plus float arrays, guarded by the
header above.  Like any pickle, the files are *trusted local state*, not an
interchange format: load only from paths you (or your CI job) wrote.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import time
import warnings
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.core import faults
from repro.core.evaluation import BasisColumnCache

try:  # POSIX (Linux/macOS): kernel-released advisory locks
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

__all__ = ["FileLock", "ColumnCacheStore", "RunCheckpointStore"]


class FileLock:
    """Reentrant advisory lock on one filesystem path.

    On POSIX the lock is ``flock``-based: it is released automatically when
    the holding process dies, so a crashed writer can never deadlock the
    next one.  Where ``fcntl`` is unavailable the lock degrades to an
    exclusive-create spin lock with stale-lock breaking (a leftover lock
    file older than ``stale_after`` seconds is reclaimed with a warning).

    The lock is *advisory*: it only excludes other :class:`FileLock` users
    (which is exactly what the cache-store protocol needs).  One instance
    is safe to share across threads: an internal :class:`threading.RLock`
    makes acquisition reentrant *per thread* while excluding other threads
    -- flock alone cannot do that, since within one process a second
    acquisition through the same open file would succeed.  Separate
    instances on the same path exclude each other through the file itself.
    """

    def __init__(self, path: Union[str, os.PathLike],
                 timeout: Optional[float] = 60.0,
                 poll_interval: float = 0.05,
                 stale_after: float = 120.0) -> None:
        self.path = Path(path)
        self.timeout = timeout
        self.poll_interval = poll_interval
        self.stale_after = stale_after
        self._handle: Optional[int] = None
        self._depth = 0
        import threading

        self._thread_lock = threading.RLock()

    @property
    def held(self) -> bool:
        return self._depth > 0

    # ------------------------------------------------------------------
    def acquire(self) -> None:
        """Take the lock, blocking up to ``timeout`` seconds.

        Reentrant for the holding thread; other threads (and other
        processes) block until the holder fully releases.
        """
        faults.timeout_point("lock.timeout", path=str(self.path))
        start = time.monotonic()
        acquired = self._thread_lock.acquire(
            timeout=-1 if self.timeout is None else self.timeout)
        if not acquired:
            raise TimeoutError(
                f"could not lock {self.path} within {self.timeout} s "
                f"(held by another thread)")
        try:
            if self._depth == 0:
                # One budget covers both waits (thread lock above, file
                # lock below) so the total never exceeds `timeout`.
                remaining = (None if self.timeout is None else
                             max(0.0, self.timeout
                                 - (time.monotonic() - start)))
                self.path.parent.mkdir(parents=True, exist_ok=True)
                if fcntl is not None:
                    self._acquire_flock(remaining)
                else:  # pragma: no cover - exercised on non-POSIX hosts
                    self._acquire_exclusive_create(remaining)
            self._depth += 1
        except BaseException:
            self._thread_lock.release()
            raise

    def release(self) -> None:
        """Drop one level of the (reentrant) lock."""
        if self._depth == 0:
            raise RuntimeError(f"release() of unheld lock {self.path}")
        self._depth -= 1
        try:
            if self._depth > 0:
                return
            handle, self._handle = self._handle, None
            if fcntl is not None:
                try:
                    fcntl.flock(handle, fcntl.LOCK_UN)
                finally:
                    os.close(handle)
            else:  # pragma: no cover - non-POSIX fallback
                try:
                    os.unlink(self.path)
                except OSError:
                    pass
        finally:
            self._thread_lock.release()

    def __enter__(self) -> "FileLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()

    # ------------------------------------------------------------------
    def _acquire_flock(self, timeout: Optional[float]) -> None:
        import errno

        #: errnos meaning "someone else holds the lock" -- anything else
        #: (ENOLCK, EBADF, an NFS mount without lock support...) is a real
        #: failure and must surface immediately, not as a phantom timeout
        contended = (errno.EWOULDBLOCK, errno.EAGAIN, errno.EACCES)
        handle = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            if timeout is None:
                fcntl.flock(handle, fcntl.LOCK_EX)
            else:
                deadline = time.monotonic() + timeout
                while True:
                    try:
                        fcntl.flock(handle, fcntl.LOCK_EX | fcntl.LOCK_NB)
                        break
                    except OSError as error:
                        if error.errno not in contended:
                            raise
                        if time.monotonic() >= deadline:
                            # Report the budget actually waited here: the
                            # configured self.timeout may have been partly
                            # spent on the thread lock in acquire().
                            raise TimeoutError(
                                f"could not lock {self.path} within "
                                f"{timeout:.3g} s (of a {self.timeout} s "
                                f"budget)") from None
                        time.sleep(self.poll_interval)
        except BaseException:
            os.close(handle)
            raise
        self._handle = handle

    def _acquire_exclusive_create(self,
                                  timeout: Optional[float]
                                  ) -> None:  # pragma: no cover
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        while True:
            try:
                handle = os.open(self.path,
                                 os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
                os.close(handle)
                self._handle = -1
                return
            except FileExistsError:
                try:
                    # repro-lint: allow[determinism] -- stale-lock age is wall-clock bookkeeping, never reaches results
                    age = time.time() - self.path.stat().st_mtime
                except OSError:
                    age = 0.0
                if age > self.stale_after:
                    warnings.warn(
                        f"breaking stale lock file {self.path} "
                        f"(age {age:.0f} s)", RuntimeWarning, stacklevel=3)
                    try:
                        os.unlink(self.path)
                    except OSError:
                        pass
                    continue
                if deadline is not None and time.monotonic() >= deadline:
                    raise TimeoutError(
                        f"could not lock {self.path} within "
                        f"{timeout:.3g} s (of a {self.timeout} s "
                        f"budget)") from None
                time.sleep(self.poll_interval)


class _VersionedFileStore:
    """The shared envelope: atomic, checksummed, lock-merged file persistence.

    Subclasses set :attr:`MAGIC`, :attr:`FORMAT_VERSION` and :attr:`KIND`
    (the human-readable noun used in warnings) and talk to the disk only
    through :meth:`_write_document` / :meth:`_read_document`, inheriting
    the atomic-replace write, the header + checksum validation, the
    damage-quarantine policy and the advisory save lock.
    """

    MAGIC: bytes = b""
    FORMAT_VERSION: int = 1
    KIND: str = "store"

    def __init__(self, path: Union[str, os.PathLike]) -> None:
        self.path = Path(path)
        #: advisory lock guarding the save protocol's read-merge-write
        self.lock = FileLock(str(self.path) + ".lock")

    # ------------------------------------------------------------------
    def _write_document(self, document: dict) -> None:
        """Atomically replace the file with ``document`` (header + payload).

        Callers hold :attr:`lock` around their read-merge-write cycle; the
        write itself is atomic regardless (temp file in the target
        directory, then ``os.replace``), so a crash -- even a ``SIGKILL``
        -- between any two instructions here leaves the previous file
        version (or no file), never a torn one.
        """
        payload = pickle.dumps(document, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest().encode("ascii")
        header = b"%s\n%d\n%s\n" % (self.MAGIC, self.FORMAT_VERSION, digest)
        fd, temp_name = tempfile.mkstemp(dir=str(self.path.parent),
                                         prefix=self.path.name + ".tmp-")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(header)
                handle.write(payload)
            faults.kill_point("store.kill-mid-save", path=str(self.path))
            os.replace(temp_name, self.path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        faults.corrupt_file_point("store.corrupt", self.path)

    # ------------------------------------------------------------------
    def _read_document(self) -> Optional[dict]:
        """The stored document, or None for any unreadable/invalid file.

        Damage that proves the file's *bytes* are broken -- a truncated
        header, a checksum mismatch, an undecodable or malformed payload --
        quarantines the file (rename to ``<path>.corrupt-<n>``) so later
        runs start genuinely cold instead of re-tripping over it; the
        warning names the quarantine path.  A *foreign* file (wrong magic:
        likely a mis-pointed path; a future format version: likely a newer
        build's perfectly good file) is warned about but left alone.
        """
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return None  # a cold start, not a problem
        except OSError as error:
            self._warn(f"unreadable ({error})")
            return None
        try:
            magic, version_text, digest, payload = raw.split(b"\n", 3)
        except ValueError:
            self._warn("truncated header", quarantine=True)
            return None
        if magic != self.MAGIC:
            self._warn(f"not a {self.KIND} file (bad magic)")
            return None
        if version_text != b"%d" % self.FORMAT_VERSION:
            self._warn(f"unsupported format version {version_text!r} "
                       f"(this build reads version {self.FORMAT_VERSION})")
            return None
        if hashlib.sha256(payload).hexdigest().encode("ascii") != digest:
            self._warn("checksum mismatch (truncated or corrupted)",
                       quarantine=True)
            return None
        try:
            document = pickle.loads(payload)
        except Exception as error:  # damaged pickle, wrong schema, ...
            self._warn(f"undecodable payload ({type(error).__name__}: "
                       f"{error})", quarantine=True)
            return None
        if not isinstance(document, dict):
            self._warn("malformed payload (document is not a mapping)",
                       quarantine=True)
            return None
        return document

    def _quarantine(self) -> Optional[Path]:
        """Rename the (damaged) file out of the way; returns the new path."""
        for n in range(10000):
            candidate = Path(f"{self.path}.corrupt-{n}")
            if candidate.exists():
                continue
            try:
                os.rename(self.path, candidate)
            except OSError:
                return None  # racing reader already moved it, or read-only
            return candidate
        return None  # pragma: no cover - 10000 corrupt siblings

    def _warn(self, reason: str, quarantine: bool = False) -> None:
        suffix = "; starting cold"
        if quarantine:
            moved = self._quarantine()
            if moved is not None:
                suffix += f" (damaged file quarantined to {moved})"
        warnings.warn(
            f"ignoring {self.KIND} file {self.path}: {reason}{suffix}",
            RuntimeWarning, stacklevel=5)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({str(self.path)!r})"


class ColumnCacheStore(_VersionedFileStore):
    """Save/load a :class:`BasisColumnCache` to/from one file.

    The store is bound to a path; :meth:`save` and :meth:`load_into` are the
    whole protocol.  A missing file is a normal cold start (no warning);
    anything unreadable -- truncated, corrupted, wrong magic, unknown
    version -- is reported as a warning and treated as empty (with broken
    bytes quarantined, see :meth:`_VersionedFileStore._read_document`), so
    a damaged cache file can never break a run, only un-warm it.

    Saves serialize through an advisory :class:`FileLock` on the sidecar
    ``<path>.lock``: concurrent sweeps writing the same store merge instead
    of racing (see :meth:`save`).  The lock object is exposed as
    :attr:`lock` for callers that want a larger critical section (e.g. a
    read-modify-write spanning several stores); it is reentrant, so such a
    caller's ``save`` calls nest harmlessly.
    """

    #: file magic; changing the on-disk layout bumps FORMAT_VERSION instead
    MAGIC = b"caffeine-column-cache"
    FORMAT_VERSION = 1
    KIND = "column-cache"

    # ------------------------------------------------------------------
    def save(self, cache: BasisColumnCache, merge: bool = True) -> int:
        """Persist every entry of ``cache``; returns the number written.

        With ``merge`` (the default) entries already stored at the path are
        kept alongside the cache's (the cache wins on key collisions, though
        by key construction both sides are bit-identical anyway).  This is
        what makes one file safely shareable: a run whose LRU evicted -- or
        never loaded -- another run's namespaces cannot erase them by
        saving.  The file therefore only grows; delete it to reclaim space.
        ``merge=False`` writes exactly the cache's entries.

        The read-merge-write cycle runs under the store's advisory
        :attr:`lock`, so *simultaneous* savers serialize: the second to
        arrive re-reads the file the first just wrote and merges over it,
        and neither side's columns are lost (the last-writer-wins hazard of
        an unlocked merge).  The write itself is also atomic (temp file in
        the target directory, then ``os.replace``), so a crash mid-save
        leaves the previous file -- or no file -- never a torn one.  Parent
        directories are created.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.lock:
            entries = [(key, np.ascontiguousarray(column))
                       for key, column in cache.items()]
            if merge:
                fresh = {key for key, _column in entries}
                stored = self._read_payload()
                if stored:
                    entries.extend((key, column) for key, column in stored
                                   if key not in fresh)
            self._write_document(
                {"format_version": self.FORMAT_VERSION, "entries": entries})
        return len(entries)

    # ------------------------------------------------------------------
    def load_into(self, cache: BasisColumnCache,
                  dataset_key: Optional[Tuple] = None) -> int:
        """Merge the stored entries into ``cache``; returns how many landed.

        ``dataset_key`` optionally restricts loading to one run's namespace
        (the evaluator's ``(dataset fingerprint, function-set fingerprint)``
        pair) -- other entries are skipped instead of occupying LRU room.
        Keys already present in ``cache`` keep their current column (both
        are bit-identical by key construction, and skipping the write keeps
        their LRU recency honest).  Loaded entries do not touch the
        hit/miss statistics.
        """
        payload = self._read_payload()
        if payload is None:
            return 0
        loaded = 0
        for key, column in payload:
            if dataset_key is not None:
                if not (isinstance(key, tuple) and len(key) == 2
                        and key[0] == dataset_key):
                    continue
            if key in cache:
                continue
            column = np.asarray(column)
            column.flags.writeable = False
            cache.put(key, column)
            loaded += 1
        return loaded

    def load(self, max_entries: int = 20000,
             dataset_key: Optional[Tuple] = None) -> BasisColumnCache:
        """A fresh cache holding the stored entries (empty on any damage)."""
        cache = BasisColumnCache(max_entries)
        self.load_into(cache, dataset_key=dataset_key)
        return cache

    # ------------------------------------------------------------------
    def _read_payload(self):
        """The stored entry list, or None for any unreadable/invalid file."""
        document = self._read_document()
        if document is None:
            return None
        entries = document.get("entries")
        if not isinstance(entries, list):
            self._warn("malformed payload (entries is not a list)",
                       quarantine=True)
            return None
        return entries


class RunCheckpointStore(_VersionedFileStore):
    """Crash-safe named snapshots of in-progress runs, one file per sweep.

    The store maps *slot names* (one per problem; ``Session`` uses the
    problem name) to opaque
    pickled state dicts -- a :meth:`CaffeineEngine.capture_run_state
    <repro.core.engine.CaffeineEngine.capture_run_state>` generation
    snapshot while a run is in flight, or a completed
    :class:`~repro.core.engine.CaffeineResult` once it finished (so a
    resumed sweep returns finished problems without re-running them).

    Writes go through the shared envelope: atomic replace (a ``SIGKILL``
    mid-save leaves the previous checkpoint readable), SHA-256-checksummed
    payload (a torn checkpoint is detected, warned about and quarantined --
    the run starts cold rather than resuming from garbage), and a
    read-merge-write cycle under the sidecar advisory lock so parallel
    workers checkpointing different problems into one file never erase each
    other's slots.
    """

    MAGIC = b"caffeine-run-checkpoint"
    FORMAT_VERSION = 1
    KIND = "run-checkpoint"

    # ------------------------------------------------------------------
    def save_state(self, slot: str, state: dict) -> None:
        """Store ``state`` under ``slot``, keeping every other slot."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.lock:
            slots = self._read_slots() or {}
            slots[str(slot)] = state
            self._write_document(
                {"format_version": self.FORMAT_VERSION, "slots": slots})

    def load_state(self, slot: str) -> Optional[dict]:
        """The state stored under ``slot``, or None (missing file or slot)."""
        slots = self._read_slots()
        if not slots:
            return None
        return slots.get(str(slot))

    def discard(self, slot: str) -> bool:
        """Drop one slot (e.g. after its run completed); True if it existed.

        Removing the last slot leaves an empty-but-valid file rather than
        deleting it (concurrent savers may be mid-merge on the same path).
        """
        with self.lock:
            slots = self._read_slots()
            if not slots or str(slot) not in slots:
                return False
            del slots[str(slot)]
            self._write_document(
                {"format_version": self.FORMAT_VERSION, "slots": slots})
        return True

    def slot_names(self) -> Tuple[str, ...]:
        """Names of every stored slot (empty for a missing/damaged file)."""
        slots = self._read_slots()
        return tuple(sorted(slots)) if slots else ()

    # ------------------------------------------------------------------
    def _read_slots(self) -> Optional[Dict[str, dict]]:
        document = self._read_document()
        if document is None:
            return None
        slots = document.get("slots")
        if not isinstance(slots, dict):
            self._warn("malformed payload (slots is not a mapping)",
                       quarantine=True)
            return None
        return slots
