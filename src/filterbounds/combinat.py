"""Exact integer combinatorics shared across the package.

Everything here is big-integer exact: binomials, subset ranking in the
combinatorial number system, and dense codes for bounded-size subsets.
Floating point never enters a counting decision.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from fractions import Fraction


def binom_exact(u: int, k: int) -> int:
    """Exact binomial coefficient C(u, k); 0 when k exceeds u.

    Delegates to math.comb, which is arbitrary precision.  k must be
    nonnegative.
    """
    if u < 0:
        raise ValueError(f"population must be nonnegative, got {u}")
    if k < 0:
        raise ValueError(f"subset size must be nonnegative, got {k}")
    if k > u:
        return 0
    return math.comb(u, k)


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
        # largest c < upper with C(c, i) <= r; upper keeps picks distinct
        c = i - 1
        while c + 1 < upper and math.comb(c + 1, i) <= r:
            c += 1
        if c >= upper or math.comb(c, i) > r:
            raise ValueError(f"rank {rank} has no size-{size} subset in [{ambient}]")
        out.append(c)
        r -= math.comb(c, i)
        upper = c
    if r != 0:
        raise ValueError(f"rank {rank} out of range for size {size} in [{ambient}]")
    out.reverse()
    return tuple(out)


def bounded_subset_count(ambient: int, max_size: int) -> int:
    """Number of subsets of [ambient] of cardinality at most max_size."""
    return sum(binom_exact(ambient, k) for k in range(max_size + 1))


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
        block = binom_exact(ambient, k)
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
    return itertools.combinations(range(ambient), size)


def width_for_count(count: int) -> int:
    """Bits needed to give `count` distinct values distinct codes."""
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    return (count - 1).bit_length()


def ceil_log2_frac(num: int, den: int) -> int:
    """Smallest w >= 0 with 2**w >= num/den, computed exactly."""
    if num <= 0 or den <= 0:
        raise ValueError("ratio must be positive")
    q = -(-num // den)
    return (q - 1).bit_length()


def floor_frac(value: Fraction) -> int:
    return math.floor(value)


def frac_str(value: Fraction) -> str:
    """Exact 'p/q' text of a rational, denominator always shown ('1/1')."""
    return f"{value.numerator}/{value.denominator}"


@functools.lru_cache(maxsize=None)
def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n (trial division, desk scale)."""
    candidate = max(n + 1, 2)
    while True:
        if _is_prime(candidate):
            return candidate
        candidate += 1


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m % 2 == 0:
        return m == 2
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True
