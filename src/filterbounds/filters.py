"""Dynamic membership filter models with bit-exact state encodings.

A model maps (seed, state, operation) to a next state and, for queries, a
0/1 answer.  States are canonical bit strings so that two states are equal
exactly when their encodings are equal; the bit length of the encoding is
the space charge.  A distinguished fail state acts as a sink: every
non-init operation keeps it, and queries on it answer 1.  Seeds are not
charged to space.

A model also names, through seed_class, the part of the seed it reads.
Two seeds with equal keys must give identical states and answers on every
run, so exhaustive certifiers sweep one representative per class and weight
its tallies by the class size; the enumeration stays complete and every
rational stays exact.  The default key is the seed itself, which is plain
brute force.  ExactSet reads none of the seed (one class), NoisyExact reads
seed.value mod u, and FingerprintMultiset reads the hash pair (a, c).

Three models ship here, each with its config name as its kind:

* ExactSet: stores the current set exactly as a fixed-width rank over all
  subsets of [u] of size <= n.  Correct under duplicate insertions and
  deletions of nonelements, never fails, never errs.
* NoisyExact: ExactSet plus a seed-chosen noise set R of m elements; a
  query answers 1 on the stored set or on R.  Still complete; false
  positives only on R.
* FingerprintMultiset: the classic fingerprint scheme.  It keeps a
  multiset of fingerprints, so a duplicate insertion inflates a count and
  a deletion of a nonelement can knock out someone else's fingerprint.
  Those are exactly the behaviours the rest of the package studies.

The fingerprint hot path does each piece of work once per seed.  A model
keeps a one-entry memo of the last seed object it hashed under and that
seed's (a, c); the memo is keyed by identity, so the calls of one trial
derive the pair once and any other seed object derives it afresh.  A bulk
insert sorts the batch's fingerprints and writes the slot fields in one
run-length pass; a query, insert or delete binary-searches the slot fields
and splices the one slot it changes instead of decoding the multiset.  All
rely on the one layout a live fingerprint state has: slots in ascending
fingerprint order, each a fingerprint field of fp_bits followed by a count
field of count_bits holding count - 1.  So the fingerprint fields sit
count_bits above the low end of the state value and every fp_bits +
count_bits bits above that, largest fingerprint lowest.

The exact models step through two memos filled as states are met: rank to
set bitmask, and bitmask to state.  encode_set ranks each set once, when a
step first reaches it, and decode_set unranks a state the model never
handed out, such as one built from its rank, once; every later step on a
state is two dict lookups.  Each memo holds at most one entry per subset
of size <= n.  A mask bit stands for an element in the order elements are
first met, so masks stay as narrow as the elements in play at any u.
yes_mask gives a state's yes-set as one int; its default asks query_bit for
every element, so a subclass that overrides query_bit is still honoured.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from fractions import Fraction
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from .combinat import (
    bounded_subset_count,
    bounded_subset_index,
    bounded_subset_unindex,
    ceil_log2_frac,
    next_prime,
    width_for_count,
)
from .core import OpKind, Operation, OpSequence, UniverseParams, _mask_elems, _Record, _set


class InvalidParams(ValueError):
    """Model parameters that fail a construction-time sanity check."""


class FailStateError(ValueError):
    """An operation that requires a live state met the fail state."""


class Seed(_Record):
    """A seed drawn from an enumerable space of 2**bits values."""

    __slots__ = ("value", "bits")

    def __init__(self, value: int, bits: int) -> None:
        if bits < 0:
            raise ValueError("seed width must be nonnegative")
        if not 0 <= value < (1 << bits):
            raise ValueError(f"seed value {value} outside {bits}-bit space")
        _set(self, "value", value)
        _set(self, "bits", bits)


def seed_space(bits: int) -> Iterator[Seed]:
    """Every seed of the 2**bits space, in increasing value order."""
    return (Seed(v, bits) for v in range(1 << bits))


def seed_classes(model: FilterModel, seeds: Iterable[Seed]) -> list[tuple[Seed, int]]:
    """(earliest seed, class size) per model.seed_class key, earliest first.

    The one place seeds are grouped; a sweep over these pairs that weights
    each tally by the class size equals the sweep over every seed.
    """
    classes: dict[Hashable, list] = {}
    for seed in seeds:
        classes.setdefault(model.seed_class(seed), [seed, 0])[1] += 1
    return [(seed, weight) for seed, weight in classes.values()]


def draw_seed(rng: random.Random, bits: int = 64) -> Seed:
    return Seed(rng.getrandbits(bits), bits)


_MASK64 = (1 << 64) - 1


def _mix64(z: int) -> int:
    # splitmix64 finalizer; good spread for hash parameter derivation
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def seed_word(seed: Seed, stream: int) -> int:
    """Deterministic 64-bit word number `stream` expanded from the seed."""
    return _mix64((seed.value + (stream + 1) * 0x9E3779B97F4A7C15) & _MASK64)


class FilterState(_Record):
    """A canonical encoding: integer value of the bit string plus its length."""

    __slots__ = ("value", "nbits", "fail")

    def __init__(self, value: int, nbits: int, fail: bool = False) -> None:
        if nbits < 0:
            raise ValueError("state width must be nonnegative")
        if not 0 <= value < (1 << nbits):
            raise ValueError("state value wider than declared width")
        _set(self, "value", value)
        _set(self, "nbits", nbits)
        _set(self, "fail", fail)

    def as_bitstring(self) -> str:
        if self.fail:
            return "FAIL"
        return format(self.value, f"0{self.nbits}b") if self.nbits else ""


# the sink; serialized as a 1-bit sentinel, excluded from space maxima
FAIL_STATE = FilterState(0, 1, fail=True)


class FilterModel(ABC):
    """Shared stepping logic: init refreshes, fail is a sink, queries answer."""

    kind: str  # the model's config name
    params: UniverseParams
    eps_plus: Fraction

    @abstractmethod
    def fresh_state(self, seed: Seed) -> FilterState: ...

    @abstractmethod
    def insert_state(self, seed: Seed, state: FilterState, x: int) -> FilterState: ...

    @abstractmethod
    def delete_state(self, seed: Seed, state: FilterState, x: int) -> FilterState: ...

    @abstractmethod
    def query_bit(self, seed: Seed, state: FilterState, x: int) -> int:
        """0/1 answer at a non-fail state; must not depend on op history."""

    def yes_mask(self, seed: Seed, state: FilterState) -> int:
        """Bitmask of the universe elements answered 1 at a non-fail state."""
        if state.fail:
            raise FailStateError("yes-set of the fail state is undefined")
        u = self.params.u
        return sum(1 << x for x in range(u) if self.query_bit(seed, state, x))

    def seed_class(self, seed: Seed) -> Hashable:
        """Key shared only by seeds that give identical states and answers.

        The default, the seed itself, never merges two seeds.
        """
        return seed

    def step(
        self, seed: Seed, state: FilterState, op: Operation
    ) -> tuple[FilterState, int | None]:
        """Apply one operation.  Returns (next state, answer or None)."""
        if op.kind is OpKind.INIT:
            return self.fresh_state(seed), None
        if not 0 <= op.arg < self.params.u:
            raise ValueError(f"argument {op.arg} outside universe")
        if state.fail:
            # sink; a query on fail answers 1
            return state, 1 if op.kind is OpKind.QUERY else None
        if op.kind is OpKind.QUERY:
            return state, self.query_bit(seed, state, op.arg)
        if op.kind is OpKind.INS:
            return self.insert_state(seed, state, op.arg), None
        return self.delete_state(seed, state, op.arg), None

    def describe(self) -> str:
        return f"{self.kind}(u={self.params.u}, n={self.params.n})"


def run_sequence(
    model: FilterModel, seed: Seed, seq: OpSequence
) -> tuple[list[FilterState], list[int | None]]:
    """States and answers after each operation, starting before the init."""
    states: list[FilterState] = []
    answers: list[int | None] = []
    state = FAIL_STATE  # unreachable placeholder; ops[0] is init
    for op in seq.ops:
        state, answer = model.step(seed, state, op)
        states.append(state)
        answers.append(answer)
    return states, answers


# sizing an exact-set state sums one binomial C(u, k) per size k up to
# min(u, n); at u = 10**20 that takes about 1 s for 1,024 sizes and 30 s for
# 4,096, and u = n = 10**20 would never finish, so larger models are refused
MAX_RANK_TERMS = 1024


class ExactSetModel(FilterModel):
    """Stores the dataset exactly; the state is a rank over small subsets.

    Encoding: the current set S maps to its index among all subsets of [u]
    of cardinality <= n (sorted by size, then subset rank), written in a
    fixed width of ceil(log2(number of such subsets)) bits.
    """

    kind = "exact_set"

    def __init__(self, params: UniverseParams, eps_plus: Fraction = Fraction(0)):
        if not 0 <= eps_plus <= 1:
            raise InvalidParams(f"false-positive budget {eps_plus} outside [0, 1]")
        terms = min(params.u, params.n) + 1
        if terms > MAX_RANK_TERMS:
            raise InvalidParams(
                f"sizing the state of u={params.u}, n={params.n} sums {terms} "
                f"binomials, above the limit of {MAX_RANK_TERMS}"
            )
        self.params = params
        self.eps_plus = Fraction(eps_plus)
        self._width = width_for_count(bounded_subset_count(params.u, params.n))
        # rank -> set mask and set mask -> state, filled as states are met;
        # bit i of a mask stands for _elements[i], the i-th element met, so
        # an element near a huge u costs one bit, not a huge integer
        self._masks: dict[int, int] = {}
        self._states: dict[int, FilterState] = {}
        self._bits: dict[int, int] = {}
        self._elements: list[int] = []

    def encode_set(self, elems: Iterable[int]) -> FilterState:
        elems = tuple(sorted(elems))
        index = bounded_subset_index(elems, self.params.u, self.params.n)
        return FilterState(index, self._width)

    def decode_set(self, state: FilterState) -> frozenset[int]:
        if state.fail:
            raise FailStateError("cannot decode the fail state")
        return frozenset(
            bounded_subset_unindex(state.value, self.params.u, self.params.n)
        )

    def _bit(self, x: int) -> int:
        """x's bit in a set mask, given out the first time x is met."""
        bit = self._bits.get(x)
        if bit is None:
            bit = self._bits[x] = 1 << len(self._elements)
            self._elements.append(x)
        return bit

    def _state(self, mask: int) -> FilterState:
        """The state of a set mask, ranked by encode_set the first time; a
        set above capacity or outside [0, u) raises ValueError."""
        state = self._states.get(mask)
        if state is None:
            elems = [self._elements[i] for i in _mask_elems(mask)]
            state = self._states[mask] = self.encode_set(elems)
            self._masks[state.value] = mask
        return state

    def _mask(self, state: FilterState) -> int:
        """The set mask of a live state, unranked by decode_set the first
        time; the fail state and a rank past the last subset raise."""
        if state.fail:
            raise FailStateError("cannot decode the fail state")
        mask = self._masks.get(state.value)
        if mask is None:
            mask = self._masks[state.value] = sum(map(self._bit, self.decode_set(state)))
            self._states[mask] = FilterState(state.value, self._width)
        return mask

    def seed_class(self, seed: Seed) -> Hashable:
        return None  # the seed is never read

    def fresh_state(self, seed: Seed) -> FilterState:
        return self._state(0)

    def insert_state(self, seed: Seed, state: FilterState, x: int) -> FilterState:
        # bits are nonzero, so the get spares the call for an element met before
        return self._state(self._mask(state) | (self._bits.get(x) or self._bit(x)))

    def delete_state(self, seed: Seed, state: FilterState, x: int) -> FilterState:
        return self._state(self._mask(state) & ~self._bits.get(x, 0))

    def query_bit(self, seed: Seed, state: FilterState, x: int) -> int:
        return 1 if self._mask(state) & self._bits.get(x, 0) else 0


class NoisyExactModel(ExactSetModel):
    """ExactSet plus a seed-chosen noise set of m elements answered yes.

    The noise set is a block of m consecutive residues starting at
    (seed value mod u), so it has exactly m distinct elements and, when u
    divides the seed-space size, each element lands in it with probability
    exactly m/u.
    """

    kind = "noisy_exact"

    def __init__(self, params: UniverseParams, eps_plus: Fraction, noise_m: int):
        super().__init__(params, eps_plus)
        if self.eps_plus == 0 and noise_m > 0:
            raise InvalidParams("noise requires a positive false-positive budget")
        if not 0 <= noise_m <= params.u:
            raise InvalidParams(f"noise size {noise_m} outside [0, u]")
        if noise_m > (self.eps_plus * params.u):
            raise InvalidParams(
                f"noise size {noise_m} exceeds eps_plus * u = {self.eps_plus * params.u}"
            )
        self.noise_m = noise_m

    def seed_class(self, seed: Seed) -> Hashable:
        return seed.value % self.params.u

    def noise_set(self, seed: Seed) -> frozenset[int]:
        start = seed.value % self.params.u
        return frozenset((start + j) % self.params.u for j in range(self.noise_m))

    def query_bit(self, seed: Seed, state: FilterState, x: int) -> int:
        if super().query_bit(seed, state, x) or x in self.noise_set(seed):
            return 1
        return 0

    def describe(self) -> str:
        return (
            f"{self.kind}(u={self.params.u}, n={self.params.n}, "
            f"m={self.noise_m})"
        )


def hash_params(seed: Seed, p: int) -> tuple[int, int]:
    """The pair (a, c) of the fingerprint hash mod p, a nonzero."""
    return 1 + seed_word(seed, 0) % (p - 1), seed_word(seed, 1) % p


def _hash_batch(
    xs: Sequence[int],
    pair: tuple[int, int],
    p: int,
    nbits: int,
    u: int,
    collision_table: Mapping[int, int] | None,
) -> list[int]:
    """fingerprint of each x under an already derived hash pair, in order."""
    if xs and (min(xs) < 0 or max(xs) >= u):
        bad = next(x for x in xs if not 0 <= x < u)
        raise ValueError(f"element {bad} outside universe [0, {u})")
    a, c = pair
    mask = (1 << nbits) - 1
    out = [(a * x + c) % p & mask for x in xs]
    if collision_table:
        for i, x in enumerate(xs):
            if x in collision_table:
                forced = collision_table[x]
                if not 0 <= forced <= mask:
                    raise ValueError(f"forced fingerprint {forced} wider than {nbits} bits")
                out[i] = forced
    return out


def fingerprint(
    x: int,
    seed: Seed,
    nbits: int,
    u: int,
    collision_table: Mapping[int, int] | None = None,
) -> int:
    """Pairwise independent fingerprint of x in [2**nbits].

    h(x) = ((a*x + c) mod p) mod 2**nbits with p the smallest prime above
    u and (a, c) derived from the seed, a nonzero.  An entry of the
    optional collision table overrides the hash; it exists to force
    collisions in demonstrations.  x must lie in [0, u) and a forced value
    must fit nbits, else ValueError.
    """
    p = next_prime(u)
    return _hash_batch((x,), hash_params(seed, p), p, nbits, u, collision_table)[0]


# the widest fingerprint a model accepts; a false-positive rate of 2**-1024
# is far below what any command can resolve, and a state holds n such fields
MAX_FINGERPRINT_BITS = 1024

# hash_params reduces 64-bit seed words mod p; above 2**64 they miss most
# residues and the hash family is no longer pairwise independent
MAX_HASH_PRIME = 1 << 64


class FingerprintMultisetModel(FilterModel):
    """Multiset of fingerprints with per-slot counts capped at n.

    Encoding: occupied slots sorted by fingerprint, each slot written as
    the fingerprint (fp_bits wide) followed by count - 1 (enough bits for
    counts 1..n).  An insert that would create an (n+1)-th distinct slot
    fails; a delete whose fingerprint is absent is a no-op.  The optional
    collision table, a mapping or [element, fingerprint] pairs, forces
    fingerprints as fingerprint() describes.
    """

    kind = "fingerprint_multiset"

    def __init__(
        self,
        params: UniverseParams,
        eps_plus: Fraction,
        fingerprint_bits: int | None = None,
        collision_table: Mapping[int, int] | Iterable[tuple[int, int]] | None = None,
    ):
        table = dict(collision_table or ())
        if not 0 < eps_plus <= 1:
            raise InvalidParams(f"false-positive budget {eps_plus} outside (0, 1]")
        self.params = params
        self.eps_plus = Fraction(eps_plus)
        if fingerprint_bits is None:
            # smallest width >= 1 with 2**width >= n / eps_plus; n = 1 at eps_plus = 1 gives 0
            fingerprint_bits = max(1, ceil_log2_frac(
                params.n * self.eps_plus.denominator, self.eps_plus.numerator
            ))
        if not 1 <= fingerprint_bits <= MAX_FINGERPRINT_BITS:
            raise InvalidParams(
                f"fingerprint width {fingerprint_bits} outside [1, {MAX_FINGERPRINT_BITS}] bits"
            )
        for x, forced in table.items():
            if not (0 <= x < params.u and 0 <= forced < (1 << fingerprint_bits)):
                raise InvalidParams(
                    f"collision table entry {x}: {forced} needs an element of "
                    f"[0, {params.u}) and a {fingerprint_bits}-bit fingerprint"
                )
        # a u of 2**64 or more needs a larger prime; testing u first spares
        # next_prime a huge search
        if params.u >= MAX_HASH_PRIME or next_prime(params.u) > MAX_HASH_PRIME:
            raise InvalidParams(
                f"universe {params.u} needs a hash prime above 2**64, "
                "more than 64-bit seed words cover"
            )
        self.fp_bits = fingerprint_bits
        self.count_bits = width_for_count(params.n)
        self.collision_table = table or None
        self._prime = next_prime(params.u)
        self._slot_bits = fingerprint_bits + self.count_bits
        self._fp_mask = (1 << fingerprint_bits) - 1
        self._count_mask = (1 << self.count_bits) - 1
        # (last seed object hashed under, its (a, c)); see _hash_pair
        self._last_pair: tuple[Seed | None, tuple[int, int] | None] = (None, None)

    def _hash_pair(self, seed: Seed) -> tuple[int, int]:
        """The seed's (a, c), derived again only for a new seed object.

        Keyed by identity: the memo holds the seed, so its id cannot be
        reused, and a frozen Seed cannot change value under it.
        """
        last, pair = self._last_pair
        if last is not seed:
            pair = hash_params(seed, self._prime)
            self._last_pair = (seed, pair)
        return pair

    def seed_class(self, seed: Seed) -> Hashable:
        return self._hash_pair(seed)

    def fingerprint_of(self, seed: Seed, x: int) -> int:
        """fingerprint(x, seed, ...) under this model's parameters."""
        u = self.params.u
        if not 0 <= x < u:
            raise ValueError(f"element {x} outside universe [0, {u})")
        table = self.collision_table
        if table is not None and x in table:
            return table[x]  # checked to fit fp_bits at construction
        a, c = self._hash_pair(seed)
        return (a * x + c) % self._prime & self._fp_mask

    def state_for_elements(self, seed: Seed, elems: Sequence[int]) -> FilterState:
        """Bulk insert into a fresh state; equals stepping the inserts in order.

        Inserts only add slots, so the run fails iff more than n distinct
        fingerprints occur, and a slot's count is its tally capped at n.
        The sorted fingerprints are written in one run-length pass: a new
        fingerprint appends a slot with count 1 at the low end, a repeat
        adds 1 to that slot's count field until the count reaches n.
        """
        n, count_bits, slot_bits = self.params.n, self.count_bits, self._slot_bits
        fps = _hash_batch(
            elems, self._hash_pair(seed), self._prime, self.fp_bits,
            self.params.u, self.collision_table,
        )
        fps.sort()
        value = slots = count = 0
        last = -1
        for fp in fps:
            if fp != last:
                slots += 1
                if slots > n:
                    return FAIL_STATE
                value = (value << slot_bits) | (fp << count_bits)
                last, count = fp, 1
            elif count < n:
                value += 1
                count += 1
        return FilterState(value, slot_bits * slots)

    def fresh_state(self, seed: Seed) -> FilterState:
        return FilterState(0, 0)

    def _find_slot(self, state: FilterState, fp: int) -> int:
        """Index of fp's slot from the low end, else ~(the index it would take).

        A binary search over the slot fields: counted from the low end, slot
        0 holds the largest fingerprint and they fall as the index rises.
        """
        if state.fail:
            raise FailStateError("cannot decode the fail state")
        slot_bits, fp_mask = self._slot_bits, self._fp_mask
        value = state.value >> self.count_bits
        lo, hi = 0, state.nbits // slot_bits
        while lo < hi:
            mid = (lo + hi) >> 1
            field = (value >> (mid * slot_bits)) & fp_mask
            if field == fp:
                return mid
            if field > fp:
                lo = mid + 1
            else:
                hi = mid
        return ~lo

    def insert_state(self, seed: Seed, state: FilterState, x: int) -> FilterState:
        fp = self.fingerprint_of(seed, x)
        slot = self._find_slot(state, fp)
        if slot >= 0:  # add 1 to the count field unless it holds n already
            shift = slot * self._slot_bits
            if (state.value >> shift & self._count_mask) + 1 == self.params.n:
                return state
            return FilterState(state.value + (1 << shift), state.nbits)
        if state.nbits == self._slot_bits * self.params.n:
            return FAIL_STATE  # would exceed n distinct slots
        shift = ~slot * self._slot_bits  # splice in a slot with count 1
        high = (state.value >> shift << self._slot_bits | fp << self.count_bits) << shift
        return FilterState(
            high | state.value & ((1 << shift) - 1), state.nbits + self._slot_bits
        )

    def delete_state(self, seed: Seed, state: FilterState, x: int) -> FilterState:
        slot = self._find_slot(state, self.fingerprint_of(seed, x))
        if slot < 0:
            return state
        shift = slot * self._slot_bits
        if state.value >> shift & self._count_mask:  # a count above 1
            return FilterState(state.value - (1 << shift), state.nbits)
        high = state.value >> (shift + self._slot_bits) << shift  # cut the slot out
        return FilterState(
            high | state.value & ((1 << shift) - 1), state.nbits - self._slot_bits
        )

    def query_bit(self, seed: Seed, state: FilterState, x: int) -> int:
        if state.fail:
            raise FailStateError("cannot query the fail state")
        return 1 if self._find_slot(state, self.fingerprint_of(seed, x)) >= 0 else 0

    def describe(self) -> str:
        return (
            f"{self.kind}(u={self.params.u}, n={self.params.n}, "
            f"fp_bits={self.fp_bits})"
        )

