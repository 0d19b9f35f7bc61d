"""Operation sequences over a bounded universe and their dataset traces.

A sequence starts with an init and then mixes inserts, deletes, and
queries over elements of [u] = {0, ..., u-1}.  The dataset trace follows
set semantics: init empties the set, insert adds, delete removes, query
leaves it alone.  A sequence is valid when the traced set never exceeds
cardinality n.

Two kinds of redundant operations are first-class citizens here:
inserting an element already present (a duplicate insertion) and deleting
an element that is absent (a deletion of a nonelement).  Both leave the
traced set unchanged.  The rewriters at the bottom of this module convert
between the two kinds while preserving the trace at every surviving index.

All functions are pure; everything is safe to call concurrently.

The package's value types are plain records built on _Record.  A record
lists its fields once, in __slots__, and the defaults of its trailing
fields once, in the class keyword defaults={name: value}; a default that
is a class, such as dict or list, is called for each record, so no two
records share one.  The base's __init__ binds positional and then keyword
arguments to the fields in order and raises TypeError for a missing,
unknown, repeated or surplus argument; records that validate their
arguments keep an explicit __init__ of their own.  The base derives ==,
hash and repr from __slots__ in the dataclass manner: equality holds only
between records of one class with equal fields, the hash is that of the
tuple of fields, and repr reads Name(field=value, ...); copy and pickle
rebuild a record through its __init__.  A record is frozen unless its
class says frozen=False, in which case its fields are assignable and it
is unhashable; hidden= names fields that repr leaves out.  Records are
built this way rather than with dataclasses, and the binder is a plain
loop with no exec, code generation or inspect, because every command is
one short process, and importing dataclasses and generating its methods
would cost each command more start-up than most of them spend on work.
"""

from __future__ import annotations

import re
from enum import Enum
from operator import attrgetter
from typing import Iterator, Sequence


class _Record:
    """Base of the package's records; see the module docstring."""

    __slots__ = ()

    def __init_subclass__(
        cls, frozen: bool = True, hidden: tuple[str, ...] = (), defaults: dict | None = None
    ) -> None:
        super().__init_subclass__()
        cls._values = attrgetter(*cls.__slots__)
        cls._shown = tuple(name for name in cls.__slots__ if name not in hidden)
        cls._defaults = defaults or {}
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __init__(self, *args: object, **kwargs: object) -> None:
        names, defaults = self.__slots__, self._defaults
        title = self.__class__.__qualname__
        if len(args) > len(names):
            raise TypeError(f"{title}() takes {len(names)} arguments but {len(args)} were given")
        for name in kwargs:
            if name not in names:
                raise TypeError(f"{title}() got an unexpected keyword argument {name!r}")
            if names.index(name) < len(args):
                raise TypeError(f"{title}() got multiple values for argument {name!r}")
        for i, name in enumerate(names):
            if i < len(args):
                value = args[i]
            elif name in kwargs:
                value = kwargs[name]
            elif name in defaults:
                value = defaults[name]
                if isinstance(value, type):
                    value = value()
            else:
                raise TypeError(f"{title}() missing required argument {name!r}")
            _set(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through __init__, which a frozen record's
        # fields can only be written from
        return (self.__class__, self._values(self))


# what a frozen record's __init__ writes its fields with
_set = object.__setattr__


class OpKind(Enum):
    INIT = "init"
    INS = "ins"
    DEL = "del"
    QUERY = "query"


class Operation(_Record):
    """One step of a sequence.  arg is present exactly when kind is not INIT."""

    __slots__ = ("kind", "arg")

    def __init__(self, kind: OpKind, arg: int | None = None) -> None:
        if kind is OpKind.INIT:
            if arg is not None:
                raise ValueError("init carries no argument")
        elif arg is None:
            raise ValueError(f"{kind.value} requires an argument")
        _set(self, "kind", kind)
        _set(self, "arg", arg)


def op_init() -> Operation:
    return Operation(OpKind.INIT)


def op_ins(x: int) -> Operation:
    return Operation(OpKind.INS, x)


def op_del(x: int) -> Operation:
    return Operation(OpKind.DEL, x)


def op_query(x: int) -> Operation:
    return Operation(OpKind.QUERY, x)


class UniverseParams(_Record):
    """Universe size u and dataset cardinality bound n."""

    __slots__ = ("u", "n")

    def __init__(self, u: int, n: int) -> None:
        if u < 1:
            raise ValueError(f"universe size must be >= 1, got {u}")
        if n < 1:
            raise ValueError(f"cardinality bound must be >= 1, got {n}")
        _set(self, "u", u)
        _set(self, "n", n)


class OpSequence(_Record):
    __slots__ = ("params", "ops")

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.ops)


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
        self.arg = arg


class CardinalityExceeded(ValidationError):
    def __init__(self, t: int, card: int, n: int):
        super().__init__(f"dataset cardinality {card} exceeds bound {n}", t)
        self.card = card


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


class DatasetTrace(_Record):
    """Per-index dataset contents, stored as bitmasks over [u]."""

    __slots__ = ("u", "masks")

    def __len__(self) -> int:
        return len(self.masks)

    def set_at(self, t: int) -> frozenset[int]:
        return frozenset(_mask_elems(self.masks[t]))

    def card_at(self, t: int) -> int:
        return self.masks[t].bit_count()

    def sets(self) -> tuple[frozenset[int], ...]:
        return tuple(self.set_at(t) for t in range(len(self.masks)))


def _mask_elems(mask: int) -> Iterator[int]:
    x = 0
    while mask:
        if mask & 1:
            yield x
        mask >>= 1
        x += 1


def dataset_trace(seq: OpSequence) -> DatasetTrace:
    """Dataset after each operation of a valid sequence."""
    masks = []
    mask = 0
    for op in seq.ops:
        mask = _step_mask(mask, op)
        masks.append(mask)
    return DatasetTrace(seq.params.u, tuple(masks))


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


def _check_flags(
    seq: OpSequence, potential: Sequence[bool] | None
) -> tuple[bool, ...]:
    if potential is None:
        return tuple(True for _ in seq.ops)
    flags = tuple(bool(f) for f in potential)
    if len(flags) != len(seq.ops):
        raise ValueError(
            f"potential flags length {len(flags)} != sequence length {len(seq.ops)}"
        )
    return flags


def rewrite_dup_to_del(
    seq: OpSequence, potential: Sequence[bool] | None = None
) -> RewriteResult:
    """Replace potential duplicate insertions by delete-then-insert pairs.

    Every flagged insert ins(x) becomes del(x); ins(x).  The default flags
    every insert.  The inserted delete empties the slot first, so flagged
    inserts are never duplicates in the output; the deletes may of course
    target nonelements, which is the point of the exchange.  The output is
    valid for the same (u, n) and its trace agrees with the original at
    every image index.
    """
    flags = _check_flags(seq, potential)
    new_ops: list[Operation] = []
    index_map = []
    for op, flagged in zip(seq.ops, flags):
        if op.kind is OpKind.INS and flagged:
            new_ops.append(op_del(op.arg))
        new_ops.append(op)
        index_map.append(len(new_ops) - 1)
    return RewriteResult(
        validate_sequence(new_ops, seq.params), tuple(index_map)
    )


def rewrite_del_to_dup(
    seq: OpSequence, potential: Sequence[bool] | None = None
) -> RewriteResult:
    """Replace potential deletions of nonelements by insert-then-delete pairs.

    Every flagged delete del(x) becomes ins(x); del(x).  The default flags
    every delete.  After the inserted ins(x) the element is present, so
    flagged deletes never target nonelements in the output; the inserts
    may be duplicates.  The leading insert can hold one extra element for
    a moment, so the output is validated against bound n + 1 and carries
    that bound in its params.
    """
    flags = _check_flags(seq, potential)
    new_ops: list[Operation] = []
    index_map = []
    for op, flagged in zip(seq.ops, flags):
        if op.kind is OpKind.DEL and flagged:
            new_ops.append(op_ins(op.arg))
        new_ops.append(op)
        index_map.append(len(new_ops) - 1)
    relaxed = UniverseParams(seq.params.u, seq.params.n + 1)
    return RewriteResult(validate_sequence(new_ops, relaxed), tuple(index_map))


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
            ops.append(op_init())
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
                ops.append(op_ins(x))
                yield from extend(ops, mask | bit)
                ops.pop()
            ops.append(op_del(x))
            yield from extend(ops, mask & ~bit)
            ops.pop()
            ops.append(op_query(x))
            yield from extend(ops, mask)
            ops.pop()

    yield from extend([op_init()], 0)
