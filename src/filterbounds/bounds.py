"""Counting arguments that price the space of membership filters.

The centrepiece is a necessary condition on any static filter without
false positives: a state, together with the short list of members it
wrongly answers no on, pins down the stored dataset.  Counting codes on
one side and datasets on the other gives, for a space of fspace bits,

    2**fspace * (number of small possible false-negative sets)
        >= (1 - 1/alpha - p_fail) * (number of datasets),

with alpha a Markov slack parameter.  check_counting_bound evaluates that
inequality in exact integer and rational arithmetic.  The constructive
half lives in pick_best_seed / encode_dataset / decode_dataset: pick the
seed with the most well-behaved datasets (the commands count them in the
reduction sweep, ReductionReport.best_seed; find_best_seed, the reference,
counts pair by pair), then code each such dataset as (state, rank of its
false-negative set) and decode by querying the state.

check_binom_scaling verifies the binomial estimate used to turn the
counting form into bits, and space_lower_bound assembles the headline
space bounds with the leading term and the linear-in-n constant reported
separately.

All three evaluate exact binomials, whose cost grows faster than their bit
length.  Each first estimates the bits of every exact integer it would
build and raises ParamsOutOfRange when the total passes MAX_EXACT_BITS.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Any, Protocol, Sequence

from .combinat import (
    binom_exact,
    bounded_subset_count,
    bounded_subset_index,
    bounded_subset_unindex,
    frac_str,
    iter_subsets_of_size,
)
from .core import UniverseParams, _mask_elems, _Record, _set
from .filters import Seed
from .witness import check_enumeration_budget


class ParamsOutOfRange(ValueError):
    """Parameters outside the regime the bounds are stated for."""


class NotGoodPair(ValueError):
    """The (seed, dataset) pair is not encodable: failed, too many false
    negatives, or polluted by false positives."""


class InvalidCode(ValueError):
    """A dataset code that no dataset produces."""


# math.comb(2 * 10**5, 10**5), about 200,000 bits, takes 0.6 s on a 2-vCPU
# host and C(10**6, 5 * 10**5) takes 10 s; an entry under this budget
# finishes in well under a second
MAX_EXACT_BITS = 1 << 17


def _binom_bits(u: int, k: int) -> int:
    """An upper bound on the bit length of C(u, k), found without computing it."""
    k = min(k, u - k)
    return min(u, k * u.bit_length()) if k > 0 else 1


def _check_exact_cost(check: str, bits: int) -> None:
    if bits > MAX_EXACT_BITS:
        raise ParamsOutOfRange(
            f"{check} needs exact integers past the budget of {MAX_EXACT_BITS} bits"
        )


class StaticFilter(Protocol):
    """What the encoding machinery needs from a static filter.

    Its states carry is_fail, true when the filter failed on the dataset.
    """

    @property
    def params(self) -> UniverseParams: ...

    def init_state(self, seed: Seed, dataset: Sequence[int]) -> Any: ...

    def query(self, seed: Seed, state: Any, x: int) -> int: ...

    def yes_mask(self, seed: Seed, state: Any) -> int:
        """Bitmask of the universe elements query answers 1 on."""


class BoundsParams(_Record):
    """Parameter bundle shared by the bound evaluators.

    eps_minus is the false-negative probability bound, p_fail the failure
    probability and alpha the Markov slack (> 1).
    """

    __slots__ = ("u", "n", "eps_minus", "p_fail", "alpha")

    def __init__(
        self,
        u: int,
        n: int,
        eps_minus: Fraction = Fraction(0),
        p_fail: Fraction = Fraction(0),
        alpha: Fraction = Fraction(2),
    ) -> None:
        _set(self, "u", u)
        _set(self, "n", n)
        _set(self, "eps_minus", eps_minus)
        _set(self, "p_fail", p_fail)
        _set(self, "alpha", alpha)
        if self.u < 1 or self.n < 1:
            raise ParamsOutOfRange("u and n must be positive")
        for name in ("eps_minus", "p_fail"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ParamsOutOfRange(f"{name}={value} outside [0, 1]")
        if self.alpha <= 1:
            raise ParamsOutOfRange(f"alpha={self.alpha} must exceed 1")

    @property
    def fn_limit(self) -> int:
        """Largest tolerated false-negative set size, floor(alpha*n*eps_minus)."""
        alpha, eps = self.alpha, self.eps_minus
        return alpha.numerator * self.n * eps.numerator // (alpha.denominator * eps.denominator)


class CountingBoundResult(_Record):
    __slots__ = ("holds", "lhs", "rhs", "fspace_bits", "params")

    def to_json_dict(self) -> dict:
        return {
            "name": "counting_bound",
            "params": {
                "u": self.params.u,
                "n": self.params.n,
                "eps_minus": frac_str(self.params.eps_minus),
                "p_fail": frac_str(self.params.p_fail),
                "alpha": frac_str(self.params.alpha),
                "fspace_bits": self.fspace_bits,
            },
            "lhs": str(self.lhs),
            "rhs": frac_str(self.rhs),
            "holds": self.holds,
        }


def check_counting_bound(fspace_bits: int, params: BoundsParams) -> CountingBoundResult:
    """Evaluate the state-counting necessary condition exactly.

    lhs = 2**fspace * sum of C(u, k) for k up to floor(alpha*n*eps_minus);
    rhs = (1 - 1/alpha - p_fail) * C(u, n).  holds means lhs >= rhs, with
    the comparison done on cleared denominators.  A nonpositive rhs holds
    vacuously.
    """
    if fspace_bits < 0:
        raise ParamsOutOfRange("fspace_bits must be nonnegative")
    u, limit = params.u, params.fn_limit
    top = min(limit, u)
    _check_exact_cost(
        "counting",
        fspace_bits + (top + 1) * _binom_bits(u, min(top, u // 2)) + _binom_bits(u, params.n),
    )
    lhs = (1 << fspace_bits) * bounded_subset_count(u, limit)
    share = 1 - 1 / params.alpha - params.p_fail
    rhs = share * binom_exact(params.u, params.n)
    holds = lhs * rhs.denominator >= rhs.numerator
    return CountingBoundResult(holds, lhs, rhs, fspace_bits, params)


class BinomScalingResult(_Record):
    __slots__ = ("holds", "lhs_bits", "rhs_bits", "u", "n", "beta")

    def to_json_dict(self) -> dict:
        return {
            "name": "binom_scaling",
            "params": {"u": self.u, "n": self.n, "beta": frac_str(self.beta)},
            "lhs": self.lhs_bits,
            "rhs": self.rhs_bits,
            "holds": self.holds,
        }


LOG_TOLERANCE = 1e-9


def check_binom_scaling(u: int, n: int, beta: Fraction) -> BinomScalingResult:
    """Check log2 C(u, floor(beta*n)) <= beta*log2 C(u, n) + n*log2(e/beta**beta).

    Binomials are exact integers; only the final log comparison is
    floating point, guarded by LOG_TOLERANCE.  beta = 0 uses 0**0 = 1.
    """
    if u < 1 or n < 1 or n > u:
        raise ParamsOutOfRange(f"need 1 <= n <= u, got u={u}, n={n}")
    beta = Fraction(beta)
    if not 0 <= beta <= 1:
        raise ParamsOutOfRange(f"beta={beta} outside [0, 1]")
    k = math.floor(beta * n)
    _check_exact_cost("binom_scaling", _binom_bits(u, k) + _binom_bits(u, n))
    lhs = math.log2(binom_exact(u, k))
    try:
        slack = math.log2(math.e) - (float(beta) * math.log2(beta) if beta > 0 else 0.0)
        rhs = float(beta) * math.log2(binom_exact(u, n)) + n * slack
    except (OverflowError, ValueError):  # n past float range, or beta below it
        raise ParamsOutOfRange("binom_scaling needs floats past their range") from None
    return BinomScalingResult(lhs <= rhs + LOG_TOLERANCE, lhs, rhs, u, n, beta)


class BoundKind(Enum):
    N_STATIC = "nstatic"
    DYNAMIC = "dynamic"


class SpaceBound(_Record):
    """A space lower bound split into leading term and additive constant.

    The bound reads: leading_bits - constant_bits.  The constant collects
    the linear-in-n slack of the proof chain and is reported separately
    because only the leading term is tight.
    """

    __slots__ = ("kind", "u", "n", "eps", "leading_bits", "constant_bits")

    @property
    def bits(self) -> float:
        return self.leading_bits - self.constant_bits

    def to_json_dict(self) -> dict:
        return {
            "name": "space_lower_bound",
            "params": {"kind": self.kind.value, "u": self.u, "n": self.n,
                       "eps": frac_str(self.eps)},
            "leading_bits": self.leading_bits,
            "constant_bits": self.constant_bits,
            # the constant collects proof-chain slack; only the leading
            # term is a tight claim
            "constant_is_estimate": True,
            "bits": self.bits,
        }


def space_lower_bound(
    kind: BoundKind | str, u: int, n: int, eps: Fraction
) -> SpaceBound:
    """Headline space bound for a filter with error budget eps.

    For the static no-false-positive regime the leading term is
    (1 - eps - 1/n) * log2 C(u, n); the dynamic regime, reached through
    the snapshot-pair construction whose space is twice the dynamic
    filter's, gets half of both terms.  The additive constant is the
    assembled proof slack: n*log2(e/beta**beta) at beta = eps + 1/n, plus
    log2(n*eps + 2) + n.  The exact constant is implementation-derived;
    the leading term is the quotable part.

    Requires eps <= 1 - 1/n and u >= 2n.
    """
    kind = BoundKind(kind)
    eps = Fraction(eps)
    if u < 1 or n < 1:
        raise ParamsOutOfRange("u and n must be positive")
    if not 0 <= eps <= 1 - Fraction(1, n):
        raise ParamsOutOfRange(f"eps={eps} outside [0, 1 - 1/n]")
    if u < 2 * n:
        raise ParamsOutOfRange(f"u={u} below 2n={2 * n}")
    _check_exact_cost("space", _binom_bits(u, n))
    leading = float(1 - eps - Fraction(1, n)) * math.log2(binom_exact(u, n))
    beta = eps + Fraction(1, n)
    slack = math.log2(math.e) - float(beta) * math.log2(beta)
    constant = n * slack + math.log2(float(n * eps) + 2) + n
    if kind is BoundKind.DYNAMIC:
        leading /= 2
        constant /= 2
    return SpaceBound(kind, u, n, eps, leading, constant)


def is_good_pair(
    static_filter: StaticFilter,
    params: BoundsParams,
    seed: Seed,
    dataset: Sequence[int],
) -> bool:
    """Did the filter survive and keep its false negatives small here?"""
    state = static_filter.init_state(seed, dataset)
    if state.is_fail:
        return False
    misses = sum(
        1 for x in dataset if static_filter.query(seed, state, x) == 0
    )
    return misses <= params.fn_limit


class BestSeed(_Record):
    __slots__ = ("seed", "good_count", "required", "meets_bound")


def pick_best_seed(
    seeds: Sequence[Seed],
    good_counts: Sequence[int],
    params: BoundsParams,
    dataset_count: int,
) -> BestSeed:
    """The seed with the most good datasets (good_counts[i] under seeds[i]).

    Averaging guarantees some seed is good for at least a
    (1 - 1/alpha - p_fail) share of datasets; taking the maximum can only
    do better, and meets_bound records whether the guarantee held.  max
    keeps the first of equal counts, so ties break to the earliest seed.
    """
    seed, count = max(zip(seeds, good_counts), key=lambda pair: pair[1])
    required = (1 - 1 / params.alpha - params.p_fail) * dataset_count
    return BestSeed(seed, count, required, count >= required)


def find_best_seed(
    static_filter: StaticFilter,
    params: BoundsParams,
    seeds: Sequence[Seed],
) -> BestSeed:
    """pick_best_seed over good-pair counts taken with is_good_pair."""
    u, n = static_filter.params.u, static_filter.params.n
    dataset_count = check_enumeration_budget(u, n, len(seeds))
    if not seeds:
        raise ValueError("need at least one seed")
    good_counts = [
        sum(
            1
            for dataset in iter_subsets_of_size(u, n)
            if is_good_pair(static_filter, params, seed, dataset)
        )
        for seed in seeds
    ]
    return pick_best_seed(seeds, good_counts, params, dataset_count)


class DatasetCode(_Record):
    """The injective code: a filter state plus a false-negative-set rank."""

    __slots__ = ("state", "index")


def encode_dataset(
    static_filter: StaticFilter,
    params: BoundsParams,
    seed: Seed,
    dataset: Sequence[int],
) -> DatasetCode:
    """Code a good dataset as (state, rank of its false-negative set).

    The rank is taken over subsets of the complement of the state's
    yes-set, re-indexed densely, sizes up to floor(alpha*n*eps_minus),
    empty set first.  Raises NotGoodPair when the pair failed, the
    false-negative set is too large, or a false positive pollutes the
    yes-set (the code only exists for filters without false positives).
    """
    state = static_filter.init_state(seed, dataset)
    if state.is_fail:
        raise NotGoodPair("filter failed on this pair")
    members = 0
    for x in dataset:
        members |= 1 << x
    yes = static_filter.yes_mask(seed, state)
    if yes & ~members:
        raise NotGoodPair(f"false positives {list(_mask_elems(yes & ~members))} spoil the code")
    misses = members & ~yes
    limit = params.fn_limit
    if misses.bit_count() > limit:
        raise NotGoodPair(f"{misses.bit_count()} false negatives exceed limit {limit}")
    # a miss x sits at position x - |yes below x| of the complement of yes
    miss_positions = tuple(x - (yes & ((1 << x) - 1)).bit_count() for x in _mask_elems(misses))
    u = static_filter.params.u
    index = bounded_subset_index(miss_positions, u - yes.bit_count(), limit)
    return DatasetCode(state, index)


def decode_dataset(
    static_filter: StaticFilter,
    params: BoundsParams,
    seed: Seed,
    code: DatasetCode,
) -> frozenset[int]:
    """Recover the dataset from its code by querying the state.

    The yes-set read off the state supplies the correctly answered
    members; the index unranks to the false-negative set inside the
    complement.  Raises InvalidCode for failed states or out-of-range
    indexes.
    """
    if code.state.is_fail:
        raise InvalidCode("cannot decode from a failed state")
    u = static_filter.params.u
    yes = static_filter.yes_mask(seed, code.state)
    ambient = u - yes.bit_count()
    limit = params.fn_limit
    if not 0 <= code.index < bounded_subset_count(ambient, limit):
        raise InvalidCode(f"index {code.index} out of range")
    dataset = set(_mask_elems(yes))
    positions = bounded_subset_unindex(code.index, ambient, limit)
    if positions:
        # position p of the complement is the p-th zero bit of yes below u
        zeros = _mask_elems(((1 << u) - 1) & ~yes)
        dataset.update(x for p, x in zip(range(positions[-1] + 1), zeros) if p in positions)
    return frozenset(dataset)
