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
separately.  Each of the three returns the dict that verify and bounds
report for it.

All three evaluate exact binomials, whose cost grows faster than their bit
length.  Each first calls its price_* function, which refuses what the check
refuses and raises ParamsOutOfRange when its estimate of the bits of the
check's exact integers passes MAX_EXACT_BITS.  check_list_cost prices a list
(verify's scaling grid, a bounds config) against GRID_CELL_BUDGET, then entry
by entry, in order, until the running sum of their bits passes GRID_BIT_BUDGET.

Every exhaustive sweep (verify's, encode's and decode's, a witness table,
find_best_seed) is priced by check_enumeration_budget against DATASET_BUDGET,
SEED_BUDGET, STEP_BUDGET and MASK_BIT_BUDGET.  Every cost limit of the
package lives in this module but the first two, which are defined in core
and imported here: the config checks and fp-rate read them, and those run
without this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import TYPE_CHECKING, Iterable, Sequence

from .combinat import (
    bounded_subset_count,
    bounded_subset_index,
    bounded_subset_unindex,
    frac_str,
    iter_subsets_of_size,
)
from .core import DATASET_BUDGET, SEED_BUDGET, ConfigError, _mask_elems, _Record, _set
from .filters import Seed

if TYPE_CHECKING:  # reduction imports this module
    from .reduction import PairedStaticFilter


class ParamsOutOfRange(ConfigError):
    """Parameters outside the regime the bounds are stated for."""


class NotGoodPair(ConfigError):
    """The (seed, dataset) pair is not encodable: failed, too many false
    negatives, or polluted by false positives."""


class InvalidCode(ConfigError):
    """A dataset code that no dataset produces."""


# math.comb(2 * 10**5, 10**5), about 200,000 bits, takes 0.6 s on a 2-vCPU
# host and C(10**6, 5 * 10**5) takes 10 s; an entry under this budget
# finishes in well under a second
MAX_EXACT_BITS = 1 << 17
# a list of checks as a whole, on the same host: 10**4 cells at u < 200
# take 0.1 s, and one at MAX_EXACT_BITS (u=65536, n=32768) 0.12 s
GRID_CELL_BUDGET = 10**4
GRID_BIT_BUDGET = 1 << 19


class EnumerationTooLarge(ConfigError):
    """An exhaustive enumeration would exceed the configured budget."""


# model steps a sweep may take, estimated as seed classes x C(u, n) x n; the
# u=20, n=5 noisy_exact model at 16 seed bits takes 1.6 million in seconds
STEP_BUDGET = 10**7
# bits of the 1 << x member masks a sweep and a witness table hold, estimated
# as C(u, n) x u; exact_set at u=40,000, n=1 holds 1.6e9 in 448 MB, and at
# u=10**5 (1e10) it ran out of a 2 GB address space
MASK_BIT_BUDGET = 1 << 32


def check_enumeration_budget(
    u: int, n: int, seed_count: int = 0, class_count: int = 0, spent: int = 0
) -> int:
    """Refuse, before any model step, a sweep too large alone or on top of
    the steps spent by a zoo's earlier sweeps; return C(u, n).

    C(u, n) is built as a running product that stops once it passes the
    budget, since at u=2**62 the full binomial takes longer to compute than
    any sweep and has more digits than an error line can print.
    """
    dataset_count = int(0 <= n <= u)
    for i in range(min(n, u - n)):
        dataset_count = dataset_count * (u - i) // (i + 1)
        if dataset_count > DATASET_BUDGET:
            raise EnumerationTooLarge(f"C({u}, {n}) datasets exceed budget {DATASET_BUDGET}")
    if seed_count > SEED_BUDGET:
        raise EnumerationTooLarge(f"{seed_count} seeds exceed budget {SEED_BUDGET}")
    steps = class_count * dataset_count * n
    if spent + steps > STEP_BUDGET:
        before = f" and the zoo's {spent} before them" if spent else ""
        raise EnumerationTooLarge(
            f"{class_count} seed classes x {dataset_count} datasets x {n} "
            f"steps = {steps} model steps{before} exceed budget {STEP_BUDGET}"
        )
    mask_bits = dataset_count * u
    if mask_bits > MASK_BIT_BUDGET:
        raise EnumerationTooLarge(
            f"{dataset_count} datasets x {u}-bit masks = {mask_bits} mask bits "
            f"exceed budget {MASK_BIT_BUDGET}"
        )
    return dataset_count


def _binom_bits(u: int, k: int) -> int:
    """An upper bound on the bit length of C(u, k), found without computing it."""
    k = min(k, u - k)
    return min(u, k * u.bit_length()) if k > 0 else 1


def _check_exact_cost(check: str, bits: int, budget: int = MAX_EXACT_BITS) -> int:
    if bits > budget:
        raise ParamsOutOfRange(f"{check} needs exact integers past the budget of {budget} bits")
    return bits


def check_list_cost(what: str, count: int, bits: Iterable[int], unit: str = "entries") -> None:
    """Refuse count checks past GRID_CELL_BUDGET; then, taking bits in order,
    refuse at the first that takes their running sum past GRID_BIT_BUDGET."""
    if count > GRID_CELL_BUDGET:
        raise ParamsOutOfRange(f"{what} of {count} {unit} exceeds budget {GRID_CELL_BUDGET}")
    total = 0
    for cost in bits:
        total = _check_exact_cost(what, total + cost, GRID_BIT_BUDGET)


def _refuse_unparsed(ints: Iterable[tuple], rationals: Iterable[tuple] = ()) -> None:
    """Refuse each (name, value) of ints that is no int, and of rationals that
    is no int or Fraction, before any arithmetic; a bool is neither."""
    for name, value in ints:
        if type(value) is not int:
            raise ParamsOutOfRange(f"{name} must be an int, got {value!r}")
    for name, value in rationals:
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise ParamsOutOfRange(f"{name} must be an int or a Fraction, got {value!r}")


class BoundsParams(
    _Record, defaults={"eps_minus": Fraction(0), "p_fail": Fraction(0), "alpha": Fraction(2)}
):
    """Parameter bundle shared by the bound evaluators.

    eps_minus is the false-negative probability bound, p_fail the failure
    probability and alpha the Markov slack (> 1); each is kept as a Fraction,
    so that 1 / alpha stays exact when an int is passed.
    """

    __slots__ = ("u", "n", "eps_minus", "p_fail", "alpha")

    def _check(self) -> None:
        u, n, *rationals = zip(self.__slots__, self._values(self))
        _refuse_unparsed([u, n], rationals)
        for name, value in rationals:
            _set(self, name, Fraction(value))
        if not 1 <= self.n <= self.u:
            raise ParamsOutOfRange(f"need 1 <= n <= u, got u={self.u}, n={self.n}")
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


def printed(value: int | Fraction) -> str:
    """The report text of an integer, or the exact 'p/q' of a Fraction; one
    past Python's int-to-str digit limit cannot be printed and is refused."""
    try:
        return frac_str(value) if isinstance(value, Fraction) else str(value)
    except ValueError:
        raise ParamsOutOfRange("a report number passes Python's int-to-str digit limit") from None


def check_counting_bound(fspace_bits: int, params: BoundsParams) -> dict:
    """Evaluate the state-counting necessary condition exactly.

    lhs = 2**fspace * sum of C(u, k) for k up to floor(alpha*n*eps_minus);
    rhs = (1 - 1/alpha - p_fail) * C(u, n).  holds means lhs >= rhs, with
    the comparison done on cleared denominators.  A nonpositive rhs holds
    vacuously.
    """
    price_counting_bound(fspace_bits, params)
    lhs = (1 << fspace_bits) * bounded_subset_count(params.u, params.fn_limit)
    share = 1 - 1 / params.alpha - params.p_fail
    rhs = share * math.comb(params.u, params.n)
    return {
        "name": "counting_bound",
        "params": {
            "u": params.u,
            "n": params.n,
            "eps_minus": frac_str(params.eps_minus),
            "p_fail": frac_str(params.p_fail),
            "alpha": frac_str(params.alpha),
            "fspace_bits": fspace_bits,
        },
        "lhs": printed(lhs),
        "rhs": printed(rhs),
        "holds": lhs * rhs.denominator >= rhs.numerator,
    }


def price_counting_bound(fspace_bits: int, params: BoundsParams) -> int:
    """Refuse what check_counting_bound refuses up front; return its estimated bits."""
    _refuse_unparsed([("fspace_bits", fspace_bits)])
    if fspace_bits < 0:
        raise ParamsOutOfRange("fspace_bits must be nonnegative")
    u, top = params.u, min(params.fn_limit, params.u)
    return _check_exact_cost(
        "counting",
        fspace_bits + (top + 1) * _binom_bits(u, min(top, u // 2)) + _binom_bits(u, params.n),
    )


LOG_TOLERANCE = 1e-9


def check_binom_scaling(u: int, n: int, beta: Fraction) -> dict:
    """Check log2 C(u, floor(beta*n)) <= beta*log2 C(u, n) + n*log2(e/beta**beta).

    Binomials are exact integers; only the final log comparison is
    floating point, guarded by LOG_TOLERANCE.  beta = 0 uses 0**0 = 1.
    """
    price_binom_scaling(u, n, beta)
    k = math.floor(beta * n)
    lhs = math.log2(math.comb(u, k))
    try:
        slack = math.log2(math.e) - (float(beta) * math.log2(beta) if beta > 0 else 0.0)
        rhs = float(beta) * math.log2(math.comb(u, n)) + n * slack
    except (OverflowError, ValueError):  # n past float range, or beta below it
        raise ParamsOutOfRange("binom_scaling needs floats past their range") from None
    return {
        "name": "binom_scaling",
        "params": {"u": u, "n": n, "beta": frac_str(beta)},
        "lhs": lhs,
        "rhs": rhs,
        "holds": lhs <= rhs + LOG_TOLERANCE,
    }


def price_binom_scaling(u: int, n: int, beta: Fraction) -> int:
    """Refuse what check_binom_scaling refuses up front; return its estimated bits."""
    _refuse_unparsed([("u", u), ("n", n)], [("beta", beta)])
    if u < 1 or n < 1 or n > u:
        raise ParamsOutOfRange(f"need 1 <= n <= u, got u={u}, n={n}")
    if not 0 <= beta <= 1:
        raise ParamsOutOfRange(f"beta={beta} outside [0, 1]")
    bits = _binom_bits(u, math.floor(beta * n)) + _binom_bits(u, n)
    return _check_exact_cost("binom_scaling", bits)


def check_binom_grid(
    us: Sequence[int], ns: Sequence[int], betas: Sequence[Fraction]
) -> dict:
    """check_binom_scaling at every cell of us x ns x betas: the cell count and
    the failing cells.  Like a bounds config, the grid is priced by its cells,
    then cell by cell with price_binom_scaling, before its first cell is checked.
    """
    cells = len(us) * len(ns) * len(betas)
    bits = (price_binom_scaling(*cell) for cell in product(us, ns, betas))
    check_list_cost("binom_scaling grid", cells, bits, "cells")
    results = (check_binom_scaling(*cell) for cell in product(us, ns, betas))
    return {"cells": cells, "failures": [r for r in results if not r["holds"]]}


def space_lower_bound(u: int, n: int, eps: Fraction = Fraction(0), kind: str = "nstatic") -> dict:
    """Headline space bound for a filter with error budget eps, reported as
    leading_bits - constant_bits.

    For the static no-false-positive regime the leading term is
    (1 - eps - 1/n) * log2 C(u, n); the dynamic regime, reached through
    the snapshot-pair construction whose space is twice the dynamic
    filter's, gets half of both terms.  The additive constant is the
    assembled proof slack: n*log2(e/beta**beta) at beta = eps + 1/n, plus
    log2(n*eps + 2) + n.  The exact constant is implementation-derived;
    the leading term is the quotable part.

    Requires eps <= 1 - 1/n and u >= 2n.
    """
    price_space_bound(u, n, eps, kind)
    leading = float(1 - eps - Fraction(1, n)) * math.log2(math.comb(u, n))
    beta = eps + Fraction(1, n)
    slack = math.log2(math.e) - float(beta) * math.log2(beta)
    constant = n * slack + math.log2(float(n * eps) + 2) + n
    if kind == "dynamic":
        leading /= 2
        constant /= 2
    return {
        "name": "space_lower_bound",
        "params": {"kind": kind, "u": u, "n": n, "eps": frac_str(eps)},
        "leading_bits": leading,
        "constant_bits": constant,
        "constant_is_estimate": True,
        "bits": leading - constant,
    }


def price_space_bound(u: int, n: int, eps: Fraction = Fraction(0), kind: str = "nstatic") -> int:
    """Refuse what space_lower_bound refuses up front; return its estimated bits."""
    if kind not in ("nstatic", "dynamic"):
        raise ParamsOutOfRange(f"kind must be one of ['nstatic', 'dynamic'], got {kind!r}")
    _refuse_unparsed([("u", u), ("n", n)], [("eps", eps)])
    if u < 1 or n < 1:
        raise ParamsOutOfRange("u and n must be positive")
    if not 0 <= eps <= 1 - Fraction(1, n):
        raise ParamsOutOfRange(f"eps={eps} outside [0, 1 - 1/n]")
    if u < 2 * n:
        raise ParamsOutOfRange(f"u={u} below 2n={2 * n}")
    return _check_exact_cost("space", _binom_bits(u, n))


def is_good_pair(
    static_filter: PairedStaticFilter,
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
    static_filter: PairedStaticFilter,
    params: BoundsParams,
    seeds: Sequence[Seed],
) -> BestSeed:
    """pick_best_seed over good-pair counts taken with is_good_pair."""
    u, n = static_filter.model.params.u, static_filter.model.params.n
    dataset_count = check_enumeration_budget(u, n, len(seeds), len(seeds))  # a class per seed
    if not seeds:
        raise ConfigError("need at least one seed")
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
    static_filter: PairedStaticFilter,
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
    u = static_filter.model.params.u
    index = bounded_subset_index(miss_positions, u - yes.bit_count(), limit)
    return DatasetCode(state, index)


def decode_dataset(
    static_filter: PairedStaticFilter,
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
    u = static_filter.model.params.u
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
