"""Orthogonal-array designs.

The training data of the paper comes from a "full orthogonal-hypercube DOE"
with 243 samples over 13 three-level variables.  243 = 3^5 runs cannot be a
full factorial over 13 variables (that would need 3^13 runs); it is a
strength-2 orthogonal array OA(3^5, 13, 3), i.e. a fractional design where
every pair of columns contains all 9 level combinations equally often.

Such arrays are constructed here from linear codes over the prime field
GF(q): the runs are all vectors ``u`` in GF(q)^k and each column is the inner
product ``u . c (mod q)`` for a generator column ``c``.  Two generator columns
produce an orthogonal pair exactly when they are linearly independent, so we
enumerate one representative per 1-dimensional subspace of GF(q)^k, giving up
to ``(q^k - 1) / (q - 1)`` mutually orthogonal columns (121 for q=3, k=5 --
plenty for the paper's 13 variables).
"""

from __future__ import annotations

import itertools
from typing import List

import numpy as np

__all__ = ["orthogonal_array", "orthogonal_hypercube"]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _subspace_representatives(q: int, k: int) -> List[np.ndarray]:
    """One representative vector per 1-D subspace of GF(q)^k.

    Representatives are chosen so that the first non-zero entry equals 1,
    which makes the enumeration canonical and deterministic.
    """
    reps: List[np.ndarray] = []
    for vec in itertools.product(range(q), repeat=k):
        arr = np.array(vec, dtype=int)
        nonzero = np.flatnonzero(arr)
        if nonzero.size == 0:
            continue
        if arr[nonzero[0]] != 1:
            continue
        reps.append(arr)
    return reps


def orthogonal_array(n_factors: int, levels: int = 3,
                     strength_exponent: int | None = None) -> np.ndarray:
    """Construct a strength-2 orthogonal array ``OA(levels**k, n_factors, levels)``.

    Parameters
    ----------
    n_factors:
        Number of columns (design variables).
    levels:
        Number of levels per factor; must be prime (2, 3, 5, ...).
    strength_exponent:
        ``k`` such that the array has ``levels**k`` runs.  When omitted the
        smallest ``k`` with enough mutually-orthogonal columns,
        ``(levels**k - 1) / (levels - 1) >= n_factors``, is chosen -- for the
        paper's 13 three-level factors that gives k=3 (13 columns); pass
        ``k=5`` explicitly to reproduce the 243-run design.

    Returns
    -------
    numpy.ndarray
        Integer array of shape ``(levels**k, n_factors)`` with entries in
        ``0 .. levels-1`` where every pair of columns contains each of the
        ``levels**2`` combinations exactly ``levels**(k-2)`` times.
    """
    if n_factors < 1:
        raise ValueError("n_factors must be >= 1")
    if not _is_prime(levels):
        raise ValueError(f"levels must be prime for this construction, got {levels}")

    if strength_exponent is None:
        k = 2
        while (levels ** k - 1) // (levels - 1) < n_factors:
            k += 1
    else:
        k = int(strength_exponent)
        if k < 2:
            raise ValueError("strength_exponent must be >= 2")

    max_columns = (levels ** k - 1) // (levels - 1)
    if n_factors > max_columns:
        raise ValueError(
            f"cannot build {n_factors} mutually orthogonal {levels}-level columns "
            f"with {levels}**{k} runs (max {max_columns}); increase strength_exponent"
        )

    generators = _subspace_representatives(levels, k)[:n_factors]
    # All of GF(q)^k, shape (q^k, k), in lexicographic order.
    runs = np.array(list(itertools.product(range(levels), repeat=k)),
                    dtype=int)
    columns = [(runs @ g) % levels for g in generators]
    return np.stack(columns, axis=1).astype(int)


def orthogonal_hypercube(n_factors: int, levels: int = 3,
                         n_runs: int | None = None) -> np.ndarray:
    """The paper's "full orthogonal-hypercube" sampling plan.

    This is an orthogonal array over the hypercube of level indices.  With
    ``n_factors=13, levels=3, n_runs=243`` it reproduces the paper's design of
    243 three-level samples over 13 operating-point variables.

    Parameters
    ----------
    n_runs:
        Desired number of runs; must be a power of ``levels``.  When omitted,
        the smallest adequate power is used.
    """
    if n_runs is None:
        return orthogonal_array(n_factors, levels=levels)
    k = 0
    total = 1
    while total < n_runs:
        total *= levels
        k += 1
    if total != n_runs:
        raise ValueError(
            f"n_runs must be a power of levels={levels}, got {n_runs}"
        )
    return orthogonal_array(n_factors, levels=levels, strength_exponent=k)
