"""Steinhaus-Johnson-Trotter enumeration of permutations.

Consecutive permutations differ by a single swap of adjacent positions.
This order is the row order of every ordering table in `deporder.model`,
and so the order in which exact sampling accumulates probabilities.
"""

from __future__ import annotations

from typing import Iterator

# Largest supported element count: 7! = 5040 permutations.  Callers must
# filter away anything bigger before enumerating.
MAX_N = 7


def sjt_enumerate(n: int) -> Iterator[tuple[int, ...]]:
    """Yield all n! permutations of 1..n, starting from the identity."""
    if not 1 <= n <= MAX_N:
        raise ValueError(f"element count must be in 1..{MAX_N}, got {n}")
    perms = [(1,)]
    for m in range(2, n + 1):
        # m sweeps right to left through orders 0, 2, 4, ... of 1..m-1 and
        # left to right through orders 1, 3, 5, ...
        perms = [perm[:i] + (m,) + perm[i:] for k, perm in enumerate(perms)
                 for i in (range(m - 1, -1, -1) if k % 2 == 0 else range(m))]
    yield from perms
