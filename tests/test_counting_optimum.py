"""The counting bound against the exact optimum at desk sizes.

A deterministic static filter with no false positives and at most k false
negatives per dataset answers each n-set S with a yes-set Y inside S of at
least n - k elements, and two datasets can share a state only if they share
its yes-set.  So the fewest states it can have is T(u, n, n - k): the fewest
(n - k)-subsets of [u] such that every n-subset contains one (a Turan
number).  check_counting_bound is a valid lower bound only if it holds at
ceil(log2 T) bits whenever its fn_limit is k; a bound made too strong, say
by an fn_limit one too small, demands more.
"""

from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from filterbounds.bounds import BoundsParams, check_counting_bound


def fewest_covering_sets(u: int, n: int, r: int) -> int:
    """T(u, n, r) by branch and bound: the fewest r-subsets of range(u)
    such that every n-subset of range(u) contains at least one of them."""
    targets = list(combinations(range(u), n))
    # covers[c]: the n-sets containing the r-set c, as a bitmask over targets
    covers: dict[tuple[int, ...], int] = {}
    for i, target in enumerate(targets):
        for c in combinations(target, r):
            covers[c] = covers.get(c, 0) | 1 << i
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
