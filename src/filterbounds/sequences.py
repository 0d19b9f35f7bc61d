"""Operation sequences over a bounded universe and their dataset traces.

A sequence starts with an init and then mixes inserts, deletes, and
queries over elements of [u] = {0, ..., u-1}.  The dataset trace follows
set semantics: init empties the set, insert adds, delete removes, query
leaves it alone.  A sequence is valid when the traced set never exceeds
cardinality n.

Two kinds of redundant operations are first-class citizens here:
inserting an element already present (a duplicate insertion) and deleting
an element that is absent (a deletion of a nonelement).  Both leave the
traced set unchanged.  The rewriters in this module convert between the
two kinds while preserving the trace at every surviving index.

This module owns the operation language: the types OpKind, Operation and
OpSequence, their interpreter step and run_sequence, which apply them to a
filter model, and the algebra over them.  Only demo-violations and the
tests load it.  All functions are pure; everything is safe to call
concurrently.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Iterator, Sequence

from .core import UniverseParams, _mask_elems, _Record
from .filters import FAIL_STATE, FilterModel, FilterState, Seed


class OpKind(Enum):
    INIT = "init"
    INS = "ins"
    DEL = "del"
    QUERY = "query"


class Operation(_Record, defaults={"arg": None}):
    """One step of a sequence.  arg is present exactly when kind is not INIT."""

    __slots__ = ("kind", "arg")

    def _check(self) -> None:
        if self.kind is OpKind.INIT:
            if self.arg is not None:
                raise ValueError("init carries no argument")
        elif self.arg is None:
            raise ValueError(f"{self.kind.value} requires an argument")


class OpSequence(_Record):
    __slots__ = ("params", "ops")

    def __len__(self) -> int:
        return len(self.ops)


def step(
    model: FilterModel, seed: Seed, state: FilterState, op: Operation
) -> tuple[FilterState, int | None]:
    """(next state, answer or None) after op; the fail state is a sink whose queries answer 1."""
    if op.kind is OpKind.INIT:
        return model.fresh_state(seed), None
    if not 0 <= op.arg < model.params.u:
        raise ValueError(f"argument {op.arg} outside universe")
    if state.fail:
        return state, 1 if op.kind is OpKind.QUERY else None
    if op.kind is OpKind.QUERY:
        return state, model.query_bit(seed, state, op.arg)
    if op.kind is OpKind.INS:
        return model.insert_state(seed, state, op.arg), None
    return model.delete_state(seed, state, op.arg), None


def run_sequence(
    model: FilterModel, seed: Seed, seq: OpSequence
) -> tuple[list[FilterState], list[int | None]]:
    """States and answers after each operation, starting before the init."""
    states: list[FilterState] = []
    answers: list[int | None] = []
    state = FAIL_STATE  # unreachable placeholder; ops[0] is init
    for op in seq.ops:
        state, answer = step(model, seed, state, op)
        states.append(state)
        answers.append(answer)
    return states, answers


class ValidationError(ValueError):
    """A sequence violates one of the validity conditions at time index t."""

    def __init__(self, message: str, t: int):
        super().__init__(f"{message} (t={t})")
        self.t = t


class FirstOpNotInit(ValidationError):
    def __init__(self) -> None:
        super().__init__("first operation must be init", 0)


class ArgOutOfUniverse(ValidationError):
    def __init__(self, t: int, arg: int, u: int):
        super().__init__(f"argument {arg} outside universe [0, {u})", t)


class CardinalityExceeded(ValidationError):
    def __init__(self, t: int, card: int, n: int):
        super().__init__(f"dataset cardinality {card} exceeds bound {n}", t)


def validate_sequence(
    ops: Sequence[Operation], params: UniverseParams
) -> OpSequence:
    """Check the three validity conditions, reporting the earliest violation.

    Conditions, applied in time order at each index: the first operation
    is an init; every argument lies in [u]; the traced dataset never holds
    more than n elements.  Raises FirstOpNotInit, ArgOutOfUniverse, or
    CardinalityExceeded; returns the packaged OpSequence when all hold.
    """
    ops = tuple(ops)
    if not ops or ops[0].kind is not OpKind.INIT:
        raise FirstOpNotInit()
    mask = 0
    for t, op in enumerate(ops):
        if op.kind is not OpKind.INIT and not 0 <= op.arg < params.u:
            raise ArgOutOfUniverse(t, op.arg, params.u)
        mask = _step_mask(mask, op)
        card = mask.bit_count()
        if card > params.n:
            raise CardinalityExceeded(t, card, params.n)
    return OpSequence(params, ops)


def _step_mask(mask: int, op: Operation) -> int:
    if op.kind is OpKind.INIT:
        return 0
    if op.kind is OpKind.INS:
        return mask | (1 << op.arg)
    if op.kind is OpKind.DEL:
        return mask & ~(1 << op.arg)
    return mask


def dataset_trace(seq: OpSequence) -> tuple[frozenset[int], ...]:
    """Dataset after each operation of a valid sequence."""
    sets = []
    mask = 0
    for op in seq.ops:
        mask = _step_mask(mask, op)
        sets.append(frozenset(_mask_elems(mask)))
    return tuple(sets)


class OpClass(Enum):
    NORMAL = "normal"
    DUPLICATE_INSERTION = "duplicate_insertion"
    DELETION_OF_NONELEMENT = "deletion_of_nonelement"


def classify_ops(seq: OpSequence) -> tuple[OpClass, ...]:
    """Label each operation against the dataset just before it.

    An insert of a present element is a duplicate insertion; a delete of
    an absent element is a deletion of a nonelement; everything else,
    including init and query, is normal.
    """
    out = []
    mask = 0
    for op in seq.ops:
        cls = OpClass.NORMAL
        if op.kind is OpKind.INS and mask & (1 << op.arg):
            cls = OpClass.DUPLICATE_INSERTION
        elif op.kind is OpKind.DEL and not mask & (1 << op.arg):
            cls = OpClass.DELETION_OF_NONELEMENT
        out.append(cls)
        mask = _step_mask(mask, op)
    return tuple(out)


class RewriteResult(_Record):
    """A rewritten sequence plus the map from original to new indices."""

    __slots__ = ("seq", "index_map")


def _prefix_each(
    seq: OpSequence, kind: OpKind, prefix: OpKind, params: UniverseParams
) -> RewriteResult:
    # each op of kind, on x, becomes prefix(x); op(x), validated against params
    new_ops: list[Operation] = []
    index_map = []
    for op in seq.ops:
        if op.kind is kind:
            new_ops.append(Operation(prefix, op.arg))
        new_ops.append(op)
        index_map.append(len(new_ops) - 1)
    return RewriteResult(validate_sequence(new_ops, params), tuple(index_map))


def rewrite_dup_to_del(seq: OpSequence) -> RewriteResult:
    """Replace potential duplicate insertions by delete-then-insert pairs.

    Every insert ins(x) becomes del(x); ins(x).  The inserted delete empties
    the slot first, so no insert is a duplicate in the output; the deletes
    may of course target nonelements, which is the point of the exchange.
    The output is valid for the same (u, n) and its trace agrees with the
    original at every image index.
    """
    return _prefix_each(seq, OpKind.INS, OpKind.DEL, seq.params)


def rewrite_del_to_dup(seq: OpSequence) -> RewriteResult:
    """Replace potential deletions of nonelements by insert-then-delete pairs.

    Every delete del(x) becomes ins(x); del(x).  After the inserted ins(x)
    the element is present, so no delete targets a nonelement in the
    output; the inserts may be duplicates.  The leading insert can hold one
    extra element for a moment, so the output is validated against bound
    n + 1 and carries that bound in its params.
    """
    relaxed = UniverseParams(seq.params.u, seq.params.n + 1)
    return _prefix_each(seq, OpKind.DEL, OpKind.INS, relaxed)


_HEADER_RE = re.compile(r"^u=(\d+)\s+n=(\d+)$")


def parse_sequence(text: str) -> OpSequence:
    """Parse the literal format: a 'u=<u> n=<n>' header, one op per line.

    Ops are 'init', 'ins <x>', 'del <x>', 'query <x>'.  Blank lines and
    lines starting with '#' are skipped.  The parsed sequence is validated
    before being returned.
    """
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty sequence literal")
    header = _HEADER_RE.match(lines[0])
    if not header:
        raise ValueError(f"bad header {lines[0]!r}, expected 'u=<u> n=<n>'")
    params = UniverseParams(int(header.group(1)), int(header.group(2)))
    ops = []
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "init" and len(parts) == 1:
            ops.append(Operation(OpKind.INIT))
        elif parts[0] in ("ins", "del", "query") and len(parts) == 2:
            ops.append(Operation(OpKind(parts[0]), int(parts[1])))
        else:
            raise ValueError(f"bad operation line {ln!r}")
    return validate_sequence(ops, params)


def format_sequence(seq: OpSequence) -> str:
    """Inverse of parse_sequence, emitting the canonical literal form."""
    lines = [f"u={seq.params.u} n={seq.params.n}"]
    for op in seq.ops:
        if op.kind is OpKind.INIT:
            lines.append("init")
        else:
            lines.append(f"{op.kind.value} {op.arg}")
    return "\n".join(lines) + "\n"


def enumerate_sequences(
    params: UniverseParams, max_len: int
) -> Iterator[OpSequence]:
    """All valid sequences up to max_len with init only at position 0.

    Mid-sequence inits are legal input elsewhere in this module but this
    generator never emits them; exhaustive checks key off this shape.
    """
    if max_len < 1:
        return
    u, n = params.u, params.n

    def extend(ops: list[Operation], mask: int) -> Iterator[OpSequence]:
        yield OpSequence(params, tuple(ops))
        if len(ops) == max_len:
            return
        for x in range(u):
            bit = 1 << x
            if mask & bit or mask.bit_count() < n:
                ops.append(Operation(OpKind.INS, x))
                yield from extend(ops, mask | bit)
                ops.pop()
            ops.append(Operation(OpKind.DEL, x))
            yield from extend(ops, mask & ~bit)
            ops.pop()
            ops.append(Operation(OpKind.QUERY, x))
            yield from extend(ops, mask)
            ops.pop()

    yield from extend([Operation(OpKind.INIT)], 0)
