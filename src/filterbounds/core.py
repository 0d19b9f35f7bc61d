"""ConfigError, the record base, the universe parameters, the bitmask helper
and the two budgets that the config checks read.

What the other modules share: ConfigError; _Record and its field writer
_set; UniverseParams, a universe size u and a dataset cardinality bound
n; the set bits of a mask, _mask_elems; and DATASET_BUDGET and
SEED_BUDGET, which bounds imports from here, so that fp-rate and
demo-violations, which read them, load no bounds.

The package's value types are plain records built on _Record.  A record
lists its fields once, in __slots__, and the defaults of its trailing
fields once, in the class keyword defaults={name: value}; every record
shares a default, so each is an immutable value.  The base's __init__
binds positional and then keyword arguments to the fields in order, raises
TypeError for a missing, unknown, repeated or surplus argument, then calls
the record's _check, if it has one, which refuses a bad field or rewrites
it as its parsed value.  Only filters.Seed and filters.FilterState keep an
__init__ of their own: the binder takes 1.17 us per FilterState against
0.60 us for the hand-written one (min of 7 x 100,000 on Python 3.11, 2
vCPU), and fp-rate builds one Seed and one FilterState per trial, so the
binder would add about 12 ms to a 10,000-trial run of about 180 ms.  The
base derives ==, hash and repr from
__slots__ in the dataclass manner: equality holds only between records of
one class with equal fields, the hash is that of the tuple of fields, and
repr reads Name(field=value, ...); copy and pickle rebuild a record
through its __init__.  Every record is frozen, its fields written only by
__init__; hidden= names fields that repr leaves out.  Records are built
this way rather than with dataclasses, and the binder is a plain loop with
no exec, code generation or inspect, because every command is one short
process, and importing dataclasses and generating its methods would cost
each command more start-up than most of them spend on work.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterator


class ConfigError(ValueError):
    """An input the commands refuse; the CLI prints it on one line and exits 2."""


# the datasets and seeds a sweep may enumerate (bounds prices it); the
# config caps seed_bits by SEED_BUDGET, fp-rate's dataset by DATASET_BUDGET
DATASET_BUDGET = 10**6
SEED_BUDGET = 1 << 16


class _Record:
    """Base of the package's records; see the module docstring."""

    __slots__ = ()
    _check = None

    def __init_subclass__(cls, hidden: tuple[str, ...] = (), defaults: dict | None = None) -> None:
        super().__init_subclass__()
        cls._values = attrgetter(*cls.__slots__)
        cls._shown = tuple(name for name in cls.__slots__ if name not in hidden)
        cls._defaults = defaults or {}

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
            else:
                raise TypeError(f"{title}() missing required argument {name!r}")
            _set(self, name, value)
        if self._check is not None:
            self._check()

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
        # copy and pickle rebuild through __init__, which a record's fields
        # can only be written from
        return (self.__class__, self._values(self))


# what a record's fields are written with: by the binder, a _check or an __init__
_set = object.__setattr__


class UniverseParams(_Record):
    """Universe size u and dataset cardinality bound n."""

    __slots__ = ("u", "n")

    def _check(self) -> None:
        for what, value in (("universe size", self.u), ("cardinality bound", self.n)):
            if type(value) is not int:  # a bool is an int to Python
                raise ConfigError(f"{what} must be an integer, got {value!r}")
            if value < 1:
                raise ConfigError(f"{what} must be >= 1, got {value}")


def _mask_elems(mask: int) -> Iterator[int]:
    """The set bits of a nonnegative mask, lowest first."""
    while mask:
        low = mask & -mask  # peeling the lowest bit keeps a sparse mask cheap
        yield low.bit_length() - 1
        mask ^= low
