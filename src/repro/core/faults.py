"""Deterministic fault injection: named failure points for recovery testing.

Fault tolerance that is never exercised is fault tolerance that does not
work.  This module gives the test suite (and CI) a way to *deterministically*
trigger every failure mode the engine, session and cache-store layers claim
to survive -- a worker killed mid-run, a fit that raises, a cache file that
corrupts on disk, a lock that times out, a problem that stalls -- without
monkeypatching internals or relying on timing races.

The production code declares **fault points**: named places where a failure
may be injected.  Each point is a single cheap call into this module that is
a no-op unless a matching :class:`FaultSpec` is active:

========================  ==================================================
point                     effect when armed (and where it is declared)
========================  ==================================================
``worker.kill``           ``SIGKILL`` to the current process -- a session
                          worker dying without cleanup
                          (:func:`repro.core.session._worker_main`)
``worker.exception``      raise :class:`InjectedFault` before the run starts
                          (:func:`repro.core.session._worker_main`)
``problem.stall``         sleep for the spec's ``delay`` seconds -- a hung
                          problem (:func:`repro.core.session._worker_main`)
``fit.exception``         raise :class:`InjectedFault` inside population
                          evaluation (:meth:`PopulationEvaluator.
                          evaluate_population`)
``lock.timeout``          raise :class:`TimeoutError` as if the advisory
                          file lock were contended past its deadline
                          (:meth:`repro.core.cache_store.FileLock.acquire`)
``store.kill-mid-save``   ``SIGKILL`` between writing the temp file and the
                          atomic ``os.replace`` -- a crash mid-save
                          (:meth:`_VersionedFileStore._write_document`)
``store.corrupt``         truncate the just-written store file -- on-disk
                          corruption (:meth:`_VersionedFileStore.
                          _write_document`)
========================  ==================================================

Specs are armed in one of two ways:

* the ``REPRO_FAULTS`` environment variable, the one channel that reaches
  session worker processes (fork- and spawn-started workers inherit it),
  e.g.::

      REPRO_FAULTS="worker.kill:problem=PM:attempt=0, problem.stall:delay=30"

* :func:`install` / :func:`install_from_string` with the same syntax, which
  arm the calling process only.

Each comma-separated spec is ``point[:key=value]...``.  The reserved keys
``times`` (how often the spec may fire; default 1; ``inf`` = unlimited) and
``delay`` (seconds, for ``problem.stall``) configure the spec itself; every
other ``key=value`` pair is a *condition* matched against the context the
fault point supplies (``problem``, ``attempt``, ``path``, ...) -- a spec
fires only when all its conditions match, which is what makes scenarios
like "kill the PM worker, but only on its first attempt" deterministic.

Fire counts are **per process**: a retried worker is a fresh process and
starts its counts at zero, so attempt-conditioned specs (not ``times``)
are the way to distinguish attempts across process boundaries.  A given
spec string installs at most once per process
(:func:`install_from_string` is idempotent).  The environment variable is
read once per process, on first use; :func:`clear` forgets it so that the
next fault point reads it again.

The module is inert by default: with no env var and no installed specs a
fault point costs one function call and one list check.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

__all__ = ["InjectedFault", "FaultSpec", "parse_faults", "install",
           "install_from_string", "clear", "active_specs", "fire",
           "kill_point", "raise_point", "stall_point", "timeout_point",
           "corrupt_file_point", "ENV_VAR", "KNOWN_FAULT_POINTS"]

#: environment variable holding a fault-spec string (see module docstring)
ENV_VAR = "REPRO_FAULTS"

#: every fault point the production code declares (the table above, in the
#: same order).  An armed spec naming anything else never fires -- which is
#: why the ``fault-spec`` lint rule checks spec literals against this tuple.
KNOWN_FAULT_POINTS = ("worker.kill", "worker.exception", "problem.stall",
                      "fit.exception", "lock.timeout", "store.kill-mid-save",
                      "store.corrupt")

#: spec keys that configure the spec rather than matching context
_RESERVED_KEYS = ("times", "delay")


class InjectedFault(RuntimeError):
    """The exception raised by exception-type fault points."""


@dataclasses.dataclass
class FaultSpec:
    """One armed fault: a point name, match conditions and a fire budget."""

    point: str
    #: context conditions; every pair must match (string-compared) to fire
    conditions: Dict[str, str] = dataclasses.field(default_factory=dict)
    #: how many times this spec may fire in this process (None = unlimited)
    times: Optional[int] = 1
    #: seconds to sleep, for stall-type points
    delay: float = 0.0
    #: how often this spec has fired (per process)
    fired: int = 0

    def matches(self, point: str, context: Dict[str, object]) -> bool:
        if self.point != point:
            return False
        if self.times is not None and self.fired >= self.times:
            return False
        for key, expected in self.conditions.items():
            if key not in context or str(context[key]) != expected:
                return False
        return True

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = [self.point]
        parts += [f"{k}={v}" for k, v in sorted(self.conditions.items())]
        if self.times != 1:
            parts.append(f"times={'inf' if self.times is None else self.times}")
        if self.delay:
            parts.append(f"delay={self.delay}")
        return ":".join(parts)


_LOCK = threading.Lock()
_SPECS: List[FaultSpec] = []
_INSTALLED_STRINGS: set = set()
_ENV_LOADED = False


def parse_faults(text: str) -> List[FaultSpec]:
    """Parse a spec string (see module docstring); raises ``ValueError``.

    Parsing never arms anything -- :func:`install_from_string` does -- so
    callers can use this to reject malformed strings early.
    """
    specs: List[FaultSpec] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        tokens = chunk.split(":")
        point = tokens[0].strip()
        if not point:
            raise ValueError(f"fault spec {chunk!r} has an empty point name")
        conditions: Dict[str, str] = {}
        times: Optional[int] = 1
        delay = 0.0
        for token in tokens[1:]:
            if "=" not in token:
                raise ValueError(
                    f"fault spec {chunk!r}: expected key=value, got {token!r}")
            key, _, value = token.partition("=")
            key, value = key.strip(), value.strip()
            if key == "times":
                times = None if value in ("inf", "*") else int(value)
                if times is not None and times < 1:
                    raise ValueError(
                        f"fault spec {chunk!r}: times must be >= 1 or 'inf'")
            elif key == "delay":
                delay = float(value)
                if delay < 0:
                    raise ValueError(
                        f"fault spec {chunk!r}: delay must be non-negative")
            elif not key:
                raise ValueError(f"fault spec {chunk!r} has an empty key")
            else:
                conditions[key] = value
        specs.append(FaultSpec(point=point, conditions=conditions,
                               times=times, delay=delay))
    return specs


def install(point: str, *, times: Optional[int] = 1, delay: float = 0.0,
            **conditions: object) -> FaultSpec:
    """Arm one fault programmatically; returns the (mutable) spec."""
    spec = FaultSpec(point=point,
                     conditions={k: str(v) for k, v in conditions.items()},
                     times=times, delay=delay)
    with _LOCK:
        _load_env_locked()
        _SPECS.append(spec)
    return spec


def install_from_string(text: str) -> List[FaultSpec]:
    """Arm every spec in ``text`` (idempotent per exact string, per process)."""
    specs = parse_faults(text)
    with _LOCK:
        _load_env_locked()
        if text in _INSTALLED_STRINGS:
            return []
        _INSTALLED_STRINGS.add(text)
        _SPECS.extend(specs)
    return specs


def clear() -> None:
    """Disarm every fault and forget the env var (it is re-read on next use)."""
    global _ENV_LOADED
    with _LOCK:
        _SPECS.clear()
        _INSTALLED_STRINGS.clear()
        _ENV_LOADED = False


def active_specs() -> Tuple[FaultSpec, ...]:
    """Snapshot of the currently armed specs (env var included)."""
    with _LOCK:
        _load_env_locked()
        return tuple(_SPECS)


def _load_env_locked() -> None:
    global _ENV_LOADED
    if _ENV_LOADED:
        return
    _ENV_LOADED = True
    text = os.environ.get(ENV_VAR, "")
    if text:
        _INSTALLED_STRINGS.add(text)
        _SPECS.extend(parse_faults(text))


def fire(point: str, **context: object) -> Optional[FaultSpec]:
    """Consume and return the first armed spec matching ``point``/context.

    Returns None -- at the cost of one list check -- when nothing matches,
    which is the permanent fast path of production runs.
    """
    if not _ENV_LOADED and ENV_VAR not in os.environ and not _SPECS:
        return None  # cold fast path: nothing armed, nothing to load
    with _LOCK:
        _load_env_locked()
        for spec in _SPECS:
            if spec.matches(point, context):
                spec.fired += 1
                return spec
    return None


# ----------------------------------------------------------------------
# Effect helpers -- what the production fault points actually call.  The
# *site* names the point and supplies context; the helper applies the
# effect iff a spec matches.
# ----------------------------------------------------------------------
def kill_point(point: str, **context: object) -> None:
    """SIGKILL the current process if a matching spec is armed."""
    if fire(point, **context) is not None:
        os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover - process dies


def raise_point(point: str, **context: object) -> None:
    """Raise :class:`InjectedFault` if a matching spec is armed."""
    spec = fire(point, **context)
    if spec is not None:
        raise InjectedFault(f"injected fault at {point} "
                            f"(spec {spec}, context {context})")


def timeout_point(point: str, **context: object) -> None:
    """Raise :class:`TimeoutError` if a matching spec is armed."""
    spec = fire(point, **context)
    if spec is not None:
        raise TimeoutError(f"injected timeout at {point} "
                           f"(spec {spec}, context {context})")


def stall_point(point: str, **context: object) -> None:
    """Sleep for the matching spec's ``delay`` seconds, if one is armed."""
    spec = fire(point, **context)
    if spec is not None and spec.delay > 0:
        time.sleep(spec.delay)


def corrupt_file_point(point: str, path: Union[str, os.PathLike],
                       **context: object) -> bool:
    """Truncate ``path`` to half its size if a matching spec is armed.

    Truncation is the canonical corruption: it defeats the payload checksum
    (or the header parse, for small files) exactly like a torn write or a
    filesystem that lost the tail of the file.  Returns True if applied.
    """
    spec = fire(point, path=str(path), **context)
    if spec is None:
        return False
    target = Path(path)
    try:
        size = target.stat().st_size
        with open(target, "r+b") as handle:
            handle.truncate(size // 2)
        return True
    except OSError:  # pragma: no cover - injection best-effort
        return False
