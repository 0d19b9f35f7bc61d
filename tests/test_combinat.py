"""Exact combinatorics: oracle cross-checks and frozen values."""

import itertools
import math
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from filterbounds import combinat
from filterbounds.combinat import (
    PRIME_TEST_LIMIT,
    bounded_subset_count,
    bounded_subset_index,
    bounded_subset_unindex,
    next_prime,
    subset_rank,
    subset_unrank,
    width_for_count,
)
from filterbounds.core import UniverseParams
from filterbounds.filters import ExactSetModel


def pascal_binom(n: int, k: int) -> int:
    """Independent oracle: Pascal recurrence, integers only."""
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


@given(st.integers(0, 40), st.integers(0, 45))
def test_bounded_subset_count_matches_pascal(n, k):
    assert bounded_subset_count(n, k) == sum(pascal_binom(n, j) for j in range(k + 1))


@pytest.mark.parametrize("ambient", range(7))
def test_subset_rank_bijection_exhaustive(ambient):
    for size in range(ambient + 1):
        subsets = list(itertools.combinations(range(ambient), size))
        # oracle: colex order sorts by reversed tuple
        expected = sorted(subsets, key=lambda s: tuple(reversed(s)))
        for rank, subset in enumerate(expected):
            assert subset_rank(subset) == rank
            assert subset_unrank(rank, size, ambient) == subset


def test_subset_unrank_rejects_out_of_range():
    with pytest.raises(ValueError):
        subset_unrank(math.comb(5, 2), 2, 5)
    with pytest.raises(ValueError):
        subset_unrank(1, 0, 5)


def linear_unrank(rank: int, size: int, ambient: int) -> tuple[int, ...]:
    """Reference: subset_unrank by a linear scan for each element."""
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


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def test_subset_unrank_matches_the_linear_scan():
    # every rank, and the first ranks past the end, which both refuse alike
    for ambient in range(11):
        for size in range(5):
            for rank in range(-1, math.comb(ambient, size) + 2):
                assert outcome(subset_unrank, rank, size, ambient) == outcome(
                    linear_unrank, rank, size, ambient
                ), (rank, size, ambient)


def test_decode_near_the_top_of_a_huge_universe_is_logarithmic(monkeypatch):
    # a linear scan would take about 2**64 math.comb calls for this set
    u = 2**64 - 59
    model = ExactSetModel(UniverseParams(u, 2))
    elems = {5, 2**64 - 60}
    state = model.encode_set(elems)
    # per element, one probe per halving of its range and one to subtract;
    # three block sizes find the subset size
    budget = 2 * (u.bit_length() + 1) + 3
    calls = 0

    def comb(n, k):
        nonlocal calls
        calls += 1
        assert calls <= budget, "subset_unrank scans instead of bisecting"
        return math.comb(n, k)

    monkeypatch.setattr(combinat, "math", SimpleNamespace(comb=comb))
    assert model.decode_set(state) == elems


@pytest.mark.parametrize("ambient,max_size", [(0, 0), (4, 0), (5, 2), (6, 6)])
def test_bounded_subset_code_bijection(ambient, max_size):
    seen = {}
    for size in range(max_size + 1):
        for subset in itertools.combinations(range(ambient), size):
            index = bounded_subset_index(subset, ambient, max_size)
            assert subset not in seen.values()
            assert index not in seen
            seen[index] = subset
            assert bounded_subset_unindex(index, ambient, max_size) == subset
    assert sorted(seen) == list(range(bounded_subset_count(ambient, max_size)))
    assert seen[0] == ()  # the empty set ranks first


def test_bounded_subset_index_rejects_oversize():
    with pytest.raises(ValueError):
        bounded_subset_index((0, 1, 2), 5, 2)
    with pytest.raises(ValueError):
        bounded_subset_index((5,), 5, 2)
    with pytest.raises(ValueError):
        bounded_subset_unindex(bounded_subset_count(5, 2), 5, 2)


def test_width_for_count():
    assert width_for_count(1) == 0
    assert width_for_count(2) == 1
    assert width_for_count(22) == 5
    assert width_for_count(37) == 6
    with pytest.raises(ValueError):
        width_for_count(0)


def test_next_prime():
    assert next_prime(1) == 2
    assert next_prime(6) == 7
    assert next_prime(7) == 11
    assert next_prime(65536) == 65537


def trial_division_is_prime(m: int) -> bool:
    """Independent oracle: divide by every d with d * d <= m."""
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def test_next_prime_matches_trial_division():
    oracle = [m for m in range(1, 20_000) if trial_division_is_prime(m)]
    got = []
    m = 0
    while m < oracle[-1]:
        m = next_prime(m)
        got.append(m)
    assert got == oracle


def test_next_prime_is_exact_and_fast_at_huge_u():
    # published values; trial division would take hours here
    assert next_prime(10**20) == 10**20 + 39
    assert next_prime(2**64) == 2**64 + 13
    # strong pseudoprimes to every base up to 23 and up to 37
    for spsp in (3_825_123_056_546_413_051, 318_665_857_834_031_151_167_461):
        assert next_prime(spsp - 1) != spsp


def test_next_prime_refuses_beyond_the_exact_test():
    # the limit itself is a strong pseudoprime to all 13 bases
    with pytest.raises(ValueError):
        next_prime(PRIME_TEST_LIMIT - 1)
    with pytest.raises(ValueError):
        next_prime(10**25)
