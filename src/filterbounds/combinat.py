"""Exact integer combinatorics shared across the package.

Everything here is big-integer exact: subset ranking in the combinatorial
number system, built on math.comb, and dense codes for bounded-size subsets.
Floating point never enters a counting decision.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from fractions import Fraction


def subset_rank(elems: tuple[int, ...]) -> int:
    """Rank of a fixed-size subset in the combinatorial number system.

    elems must be strictly ascending nonnegative integers.  Rank is taken
    among all subsets of the same size, smallest-elements-first subset
    ranking (colex): rank = sum of C(e_i, i+1).
    """
    rank = 0
    for i, e in enumerate(elems):
        rank += math.comb(e, i + 1)
    return rank


def subset_unrank(rank: int, size: int, ambient: int) -> tuple[int, ...]:
    """Inverse of subset_rank over the ambient ground set [ambient]."""
    if rank < 0:
        raise ValueError(f"rank must be nonnegative, got {rank}")
    if size == 0:
        if rank != 0:
            raise ValueError("rank of the empty subset must be 0")
        return ()
    out = []
    r = rank
    upper = ambient
    for i in range(size, 0, -1):
        # largest c < upper with C(c, i) <= r, by binary search over
        # [i - 1, upper - 1], where C(i - 1, i) = 0; upper keeps picks distinct
        c, hi = i - 1, upper - 1
        if c > hi:
            raise ValueError(f"rank {rank} has no size-{size} subset in [{ambient}]")
        while c < hi:
            mid = (c + hi + 1) // 2
            if math.comb(mid, i) <= r:
                c = mid
            else:
                hi = mid - 1
        out.append(c)
        r -= math.comb(c, i)
        upper = c
    if r != 0:
        raise ValueError(f"rank {rank} out of range for size {size} in [{ambient}]")
    out.reverse()
    return tuple(out)


def bounded_subset_count(ambient: int, max_size: int) -> int:
    """Number of subsets of [ambient] of cardinality at most max_size."""
    # sizes above ambient add nothing; a huge max_size must not loop
    return sum(math.comb(ambient, k) for k in range(min(max_size, ambient) + 1))


def bounded_subset_index(elems: tuple[int, ...], ambient: int, max_size: int) -> int:
    """Dense index of a subset among all subsets of [ambient] of size <= max_size.

    Ordered by size first, then by subset_rank within each size, so the
    empty set gets index 0.
    """
    k = len(elems)
    if k > max_size:
        raise ValueError(f"subset size {k} exceeds bound {max_size}")
    if any(e < 0 or e >= ambient for e in elems):
        raise ValueError("subset element outside the ambient set")
    if k == 0:
        return 0
    return bounded_subset_count(ambient, k - 1) + subset_rank(elems)


def bounded_subset_unindex(index: int, ambient: int, max_size: int) -> tuple[int, ...]:
    """Inverse of bounded_subset_index."""
    if index < 0:
        raise ValueError(f"index must be nonnegative, got {index}")
    r = index
    for k in range(max_size + 1):
        block = math.comb(ambient, k)
        if r < block:
            return subset_unrank(r, k, ambient)
        r -= block
    raise ValueError(
        f"index {index} out of range for subsets of [{ambient}] with size <= {max_size}"
    )


def iter_subsets_of_size(ambient: int, size: int) -> Iterator[tuple[int, ...]]:
    """All size-`size` subsets of [ambient] as ascending tuples.

    The order is itertools.combinations order; callers that only take a
    union or an existence answer do not depend on it.
    """
    if size > ambient:
        return iter(())  # combinations rejects a size beyond a C ssize_t
    return itertools.combinations(range(ambient), size)


def width_for_count(count: int) -> int:
    """Bits needed to give `count` distinct values distinct codes."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    return (count - 1).bit_length()


def frac_str(value: Fraction) -> str:
    """Exact 'p/q' text of a rational, denominator always shown ('1/1')."""
    return f"{value.numerator}/{value.denominator}"


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster 2015); next_prime refuses anything larger
PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@functools.lru_cache(maxsize=None)
def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n.

    Exact for every n whose answer lies below PRIME_TEST_LIMIT; larger n
    raise ValueError instead of returning a probable prime.
    """
    candidate = max(n + 1, 2)
    while True:
        if candidate >= PRIME_TEST_LIMIT:
            raise ValueError(f"no exact primality test at {candidate}")
        if _is_prime(candidate):
            return candidate
        candidate += 1


def _is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin for 0 <= m < PRIME_TEST_LIMIT."""
    if m < 2:
        return False
    for p in _PRIME_BASES:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True
