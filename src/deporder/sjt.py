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
    perm = list(range(1, n + 1))
    direction = [-1] * n
    yield tuple(perm)
    while True:
        mobile = -1
        for i in range(n):
            j = i + direction[i]
            if 0 <= j < n and perm[j] < perm[i]:
                if mobile < 0 or perm[i] > perm[mobile]:
                    mobile = i
        if mobile < 0:
            return
        i = mobile
        j = i + direction[i]
        perm[i], perm[j] = perm[j], perm[i]
        direction[i], direction[j] = direction[j], direction[i]
        moved = perm[j]
        for k in range(n):
            if perm[k] > moved:
                direction[k] = -direction[k]
        yield tuple(perm)
