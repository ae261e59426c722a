"""Exact configuration counts for the two search strategies.

All values are plain Python integers, so they stay exact far beyond the
64-bit range the larger device counts would otherwise overflow.
"""
from __future__ import annotations

from math import comb, factorial


def stirling2(n: int, k: int) -> int:
    """Partitions of an n-set into exactly k non-empty blocks.

    Computed with the inclusion-exclusion formula
    S(n, k) = sum_j (-1)**j * C(k, j) * (k - j)**n / k!.
    """
    if n < 0 or k < 0:
        raise ValueError("stirling2 needs non-negative arguments")
    return sum((-1) ** j * comb(k, j) * (k - j) ** n
               for j in range(k + 1)) // factorial(k)


def count_configs_exhaustive(n: int) -> int:
    """Number of full cluster configurations an exhaustive enumeration
    covers, the paper's count.

    For each leader count k up to n//2: choose the k leaders, partition the
    remaining n-k devices into k non-empty follower groups, and associate
    groups with leaders in k! ways. ``solve_exhaustive`` does not visit
    these one by one: it scores leader-first-follower configurations, so
    its ``configs_visited`` is another number (at most the sum over k of
    C(n, k) * P(n - k, k)).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return sum(
        factorial(k) * comb(n, k) * stirling2(n - k, k)
        for k in range(1, n // 2 + 1)
    )


def count_configs_distributed_bound(n: int, l: int) -> int:
    """Upper bound on configurations reachable by the two-phase protocol.

    With a candidate-leader set of size l fixed up front, only n-l devices
    are free followers; each of the l-k candidates that end up without
    followers joins one of the k final clusters, giving the k**(l-k) factor.
    """
    if not (0 <= l <= n):
        raise ValueError("need 0 <= l <= n")
    return sum(
        factorial(k) * comb(l, k) * stirling2(n - l, k) * k ** (l - k)
        for k in range(1, min(l, n // 2) + 1)
    )
