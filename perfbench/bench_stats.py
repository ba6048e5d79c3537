"""The benchmark's own arithmetic: percentiles, spreads, hypervolume,
self time of nested spans, failure shares and front fingerprints.

Pure standard library, so the unit tests in ``test_bench_stats.py`` run
without the library under test.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: a reported percentile must leave at least this many samples beyond it
MIN_TAIL = 10

#: one recorded span: (id, parent id or None, name, start s, end s)
Span = Tuple[int, Optional[int], str, float, float]


def _rank(q: float, n_samples: int) -> int:
    """1-based nearest rank of percentile ``q``, in exact arithmetic."""
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    return max(1, math.ceil(Fraction(str(q)) * n_samples / 100))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 100) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    return sorted(values)[_rank(q, len(values)) - 1]


def samples_beyond(n_samples: int, q: float) -> int:
    """How many of ``n_samples`` lie strictly beyond the nearest-rank ``q``."""
    return n_samples - _rank(q, n_samples)


def min_samples_for(q: float, min_tail: int = MIN_TAIL) -> int:
    """The fewest samples that leave ``min_tail`` beyond percentile ``q``."""
    n_samples = min_tail + 1
    while samples_beyond(n_samples, q) < min_tail:
        n_samples += 1
    return n_samples


def highest_supported_percentile(n_samples: int,
                                 candidates: Iterable[float] = (
                                     99.9, 99, 95, 90, 75, 50),
                                 min_tail: int = MIN_TAIL) -> Optional[float]:
    """The highest candidate percentile with ``min_tail`` samples beyond it."""
    for q in sorted(candidates, reverse=True):
        if samples_beyond(n_samples, q) >= min_tail:
            return q
    return None


class Ledger:
    """Attempted and failed operations, with the name of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def record(self, ok: bool, failure: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(failure)
        return ok

    @property
    def failed_share(self) -> float:
        return failed_share(self.attempted, len(self.failures))


def failed_share(attempted: int, failed: int) -> float:
    """Failed operations divided by attempted ones."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def hypervolume(points: Iterable[Tuple[float, float]],
                reference: Tuple[float, float]) -> float:
    """Normalized area two-objective minimization points dominate.

    ``points`` are ``(error, complexity)`` pairs; the area they dominate up
    to ``reference`` is divided by the reference box, so the result lies in
    [0, 1].  Points outside the box contribute nothing.
    """
    ref_error, ref_complexity = reference
    if ref_error <= 0 or ref_complexity <= 0:
        raise ValueError("reference point must be positive")
    inside = sorted((complexity, error) for error, complexity in points
                    if error < ref_error and complexity < ref_complexity)
    area = 0.0
    best_error = ref_error
    for complexity, error in inside:
        if error < best_error:
            area += (ref_complexity - complexity) * (best_error - error)
            best_error = error
    return area / (ref_error * ref_complexity)


def mutually_nondominated(points: Sequence[Tuple[float, float]]) -> bool:
    """True when no point is at least as good in both objectives and
    strictly better in one than another point (minimization)."""
    for i, (a0, a1) in enumerate(points):
        for j, (b0, b1) in enumerate(points):
            if i != j and a0 <= b0 and a1 <= b1 and (a0 < b0 or a1 < b1):
                return False
    return True


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _id, parent, _name, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for span_id, _parent, _name, start, end in spans:
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span_id, ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span_id] = (end - start) - covered
    return result


def layer_summary(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: number of calls, total and self seconds."""
    own = self_times(spans)
    summary: Dict[str, Dict[str, float]] = {}
    for span_id, _parent, name, start, end in spans:
        row = summary.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own[span_id]
    return summary


def front_fingerprint(fronts: Dict[str, Sequence[Tuple[str, float, float]]]
                      ) -> str:
    """sha256 over every front's (expression, train error, complexity),
    problems in name order, floats by ``repr`` so every bit counts."""
    digest = hashlib.sha256()
    for name in sorted(fronts):
        digest.update(f"problem {name}\n".encode())
        for expression, train_error, complexity in fronts[name]:
            digest.update(f"{expression}\t{train_error!r}\t{complexity!r}\n"
                          .encode())
    return digest.hexdigest()
