"""The counting bound against the exact optimum at desk sizes.

A deterministic static filter with no false positives and at most k false
negatives per dataset answers each n-set S with a yes-set Y inside S of at
least n - k elements, and two datasets can share a state only if they share
its yes-set.  So the fewest states it can have is T(u, n, n - k): the fewest
(n - k)-subsets of [u] such that every n-subset contains one (a Turan
number).  check_counting_bound is a valid lower bound only if it holds at
ceil(log2 T) bits whenever its fn_limit is k; a bound made too strong, say
by an fn_limit one too small, demands more.

A filter that fails with probability p_fail and meets its error budgets only
on average needs a good state for just a 1 - 1/alpha - p_fail share of the
datasets, the share the bound's rhs counts.  The partial version takes the
fewest (n - k)-subsets that lie in at least that many n-subsets, and the
bound must hold at its ceil(log2) bits too.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from filterbounds.bounds import BoundsParams, check_counting_bound


def cover_masks(u: int, n: int, r: int) -> tuple[list, dict[tuple[int, ...], int]]:
    """The n-subsets of range(u), and for each r-subset c the n-sets
    containing it, as a bitmask over that list."""
    targets = list(combinations(range(u), n))
    covers: dict[tuple[int, ...], int] = {}
    for i, target in enumerate(targets):
        for c in combinations(target, r):
            covers[c] = covers.get(c, 0) | 1 << i
    return targets, covers


def fewest_covering_sets(u: int, n: int, r: int) -> int:
    """T(u, n, r) by branch and bound: the fewest r-subsets of range(u)
    such that every n-subset of range(u) contains at least one of them."""
    targets, covers = cover_masks(u, n, r)
    everything = (1 << len(targets)) - 1
    per_set = comb(u - r, n - r)
    best = len(covers)  # every r-set together covers every n-set
    fewest_used: dict[int, int] = {}

    def search(covered: int, used: int) -> None:
        nonlocal best
        if covered == everything:
            best = used
            return
        uncovered = everything & ~covered
        # each r-set covers per_set n-sets, so at least this many more
        needed = -(-uncovered.bit_count() // per_set)
        if used + needed >= best or fewest_used.get(covered, best) <= used:
            return
        fewest_used[covered] = used
        # some chosen r-set must lie in the lowest uncovered n-set
        lowest = targets[(uncovered & -uncovered).bit_length() - 1]
        for c in combinations(lowest, r):
            search(covered | covers[c], used + 1)

    search(0, 0)
    return best


def fewest_sets_covering(u: int, n: int, r: int, need: int) -> int:
    """The fewest r-subsets of range(u) that together lie in at least need
    n-subsets, by branch and bound over the r-sets in a fixed order."""
    if need <= 0:
        return 0
    covers = list(cover_masks(u, n, r)[1].values())
    per_set = comb(u - r, n - r)
    best = len(covers)  # every r-set together lies in every n-set

    def search(covered: int, used: int, start: int) -> None:
        nonlocal best
        count = covered.bit_count()
        if count >= need:
            best = used
            return
        # each r-set adds at most per_set n-sets, and the room more sets left
        # to beat best add at most their room largest single gains
        room = best - 1 - used
        if -(-(need - count) // per_set) > room:
            return
        gains = sorted(((m & ~covered).bit_count() for m in covers[start:]), reverse=True)
        if count + sum(gains[:room]) < need:
            return
        for i in range(start, len(covers)):
            search(covered | covers[i], used + 1, i + 1)

    # a permutation of range(u) maps any optimum to one holding the first r-set
    search(covers[0], 1, 1)
    return best


# (u, n, k) -> T(u, n, n - k), checked by hand: the k = 2 rows are Turan's
# theorem for graphs, C(u, 2) minus the edges of the balanced complete
# (n - 1)-partite graph, e.g. T(8, 4, 2) = 28 - 21
OPTIMA = {
    (5, 2, 1): 4,
    (6, 3, 1): 6,
    (7, 3, 1): 9,
    (8, 3, 1): 12,
    (7, 3, 2): 5,
    (7, 4, 2): 5,
    (8, 4, 2): 7,
}
ROW_IDS = [f"u{u}_n{n}_k{k}" for u, n, k in OPTIMA]


@pytest.mark.parametrize("u, n, k", OPTIMA, ids=ROW_IDS)
def test_exact_optimum_is_the_hand_checked_value(u, n, k):
    assert fewest_covering_sets(u, n, n - k) == OPTIMA[u, n, k]


@pytest.mark.parametrize(
    "alpha", [Fraction(3, 2), Fraction(2), Fraction(4), Fraction(16)], ids=lambda a: f"alpha{a}"
)
@pytest.mark.parametrize("u, n, k", OPTIMA, ids=ROW_IDS)
def test_counting_bound_admits_the_exact_optimum(u, n, k, alpha):
    # fn_limit is floor(alpha * n * eps_minus), which is k here
    params = BoundsParams(u, n, eps_minus=Fraction(k) / (alpha * n), alpha=alpha)
    optimum_bits = (fewest_covering_sets(u, n, n - k) - 1).bit_length()
    assert check_counting_bound(optimum_bits, params)["holds"]


def test_partial_optimum_of_the_hand_checked_row():
    # u=5, n=2, k=1 at alpha 2 and p_fail 0 must code 5 of the 10 pairs: one
    # singleton lies in 4 pairs and two in 7
    assert fewest_sets_covering(5, 2, 1, 5) == 2


@pytest.mark.parametrize("u, n, k", OPTIMA, ids=ROW_IDS)
def test_partial_search_covering_every_set_is_the_full_optimum(u, n, k):
    assert fewest_sets_covering(u, n, n - k, comb(u, n)) == OPTIMA[u, n, k]


@pytest.mark.parametrize("p_fail", [Fraction(0), Fraction(1, 4)], ids=lambda p: f"p_fail{p}")
@pytest.mark.parametrize("alpha", [Fraction(2), Fraction(4)], ids=lambda a: f"alpha{a}")
@pytest.mark.parametrize("u, n, k", OPTIMA, ids=ROW_IDS)
def test_counting_bound_admits_the_partial_optimum(u, n, k, alpha, p_fail):
    # a filter that fails with probability p_fail need only code, at the
    # best seed, the 1 - 1/alpha - p_fail share of datasets that the
    # counting bound's rhs counts
    need = -(-(1 - 1 / alpha - p_fail) * comb(u, n) // 1)
    params = BoundsParams(u, n, eps_minus=Fraction(k) / (alpha * n), p_fail=p_fail, alpha=alpha)
    optimum_bits = (fewest_sets_covering(u, n, n - k, need) - 1).bit_length()
    assert check_counting_bound(optimum_bits, params)["holds"]
