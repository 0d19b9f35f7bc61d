"""Outside-in tracer for the filterbounds layers.

The tracer wraps a fixed list of public functions and methods of the
package for the duration of one traced child process.  Every call becomes a
span (name, start, end, parent) kept in memory in flat arrays; the operation
id is written once in the file header because each child runs exactly one
step of one operation.  `dump` writes the spans out, `read_spans` loads them
back and `layer_stats` turns them into calls and self time per name.

Nothing under `src/` knows about the tracer: module-level names that other
modules imported by value (``from .witness import state_after``) are
rebound to the wrapper as well, and `uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

PACKAGE = "filterbounds"
LAYERS = ("combinat", "core", "filters", "witness", "reduction", "bounds", "harness", "cli")

# The public functions and methods the per-layer metrics are read from.  A
# method is named by the class that defines it, so calls that reach
# ExactSetModel.insert_state through NoisyExactModel count under
# ExactSetModel.  Every public function of `core` is added at install time.
TARGETS = (
    "cli.main",
    "harness.run_verification_suite",
    "harness.run_fp_experiment",
    "harness.run_encode",
    "harness.run_decode",
    "bounds.is_good_pair",
    "bounds.find_best_seed",
    "bounds.encode_dataset",
    "bounds.decode_dataset",
    "reduction.pair_init",
    "reduction.check_reduction",
    "witness.state_after",
    "witness.yes_set",
    "witness.check_sticky",
    "witness.WitnessModel.query_bit",
    "filters.ExactSetModel.insert_state",
    "filters.ExactSetModel.delete_state",
    "filters.ExactSetModel.query_bit",
    "filters.NoisyExactModel.query_bit",
    "filters.FingerprintMultisetModel.state_for_elements",
    "filters.FingerprintMultisetModel.query_bit",
    "filters.fingerprint",
    "filters.seed_word",
    "combinat.bounded_subset_index",
    "combinat.bounded_subset_unindex",
)

WRAPPED_MARK = "__perfbench_original__"


def core_targets() -> list[str]:
    core = importlib.import_module(f"{PACKAGE}.core")
    return sorted(
        f"core.{name}"
        for name, obj in vars(core).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == core.__name__
    )


def _elements_key(elems) -> tuple:
    return tuple(sorted(elems)) if isinstance(elems, (list, tuple, set, frozenset, range)) else (id(elems),)


class Tracer:
    """Span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: array = array("H")
        self.starts: array = array("q")
        self.ends: array = array("q")
        self.parents: array = array("l")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        # witness.state_after inputs, keyed by the unwrapped model so that a
        # witness model and its base share keys for the same insertion run
        self.state_after_inputs: set[tuple] = set()
        # per WitnessModel: seed of the previous query; a change is a table build
        self._last_query_seed: dict[int, tuple[int, int]] = {}
        self.table_builds = 0

    # -- observers: run before the span starts, never change the arguments
    def _observe_state_after(self, model, seed, insert_elems, delete_elems=(), *_):
        self.state_after_inputs.add(
            (
                id(getattr(model, "base", model)),
                seed.value,
                seed.bits,
                _elements_key(insert_elems),
                _elements_key(delete_elems),
            )
        )

    def _observe_witness_query(self, model, seed, *_):
        key = (seed.value, seed.bits)
        if self._last_query_seed.get(id(model)) != key:
            self._last_query_seed[id(model)] = key
            self.table_builds += 1

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        observe = {
            "witness.state_after": self._observe_state_after,
            "witness.WitnessModel.query_bit": self._observe_witness_query,
        }.get(qualname)
        name_ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if observe is not None:
                observe(*args, **kwargs)
            span = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                starts[span] = start
                stack.pop()

        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper

    def install(self) -> None:
        """Wrap every target and rebind each module's imported copy of it."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        targets = list(TARGETS) + core_targets()
        for layer in LAYERS:
            importlib.import_module(f"{PACKAGE}.{layer}")
        modules = [m for n, m in sorted(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for qualname in targets:
            layer, *path = qualname.split(".")
            owner = importlib.import_module(f"{PACKAGE}.{layer}")
            for part in path[:-1]:
                owner = getattr(owner, part)
            attr = path[-1]
            if attr not in vars(owner):
                raise AttributeError(f"{qualname} is not defined where the tracer expects it")
            original = vars(owner)[attr]
            wrapper = self._wrap(qualname, original)
            self._set(owner, attr, wrapper)
            if inspect.isclass(owner):
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original and not (module is owner and name == attr):
                        self._set(module, name, wrapper)

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Put back every original function, newest binding first."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def observed(self) -> dict:
        return {
            "witness.state_after.distinct": len(self.state_after_inputs),
            "witness.table_builds": self.table_builds,
        }

    def dump(self, path: str, header: dict) -> None:
        """Write the header as one JSON line, then the span columns raw."""
        if len(self._stack) != 1:
            raise RuntimeError("dump while spans are still open")
        head = {**header, "names": self.names, "spans": len(self.starts), "observed": self.observed()}
        with open(path, "wb") as fh:
            fh.write(json.dumps(head, sort_keys=True).encode() + b"\n")
            for column in (self.name_ids, self.starts, self.ends, self.parents):
                column.tofile(fh)


def read_spans(path: str) -> tuple[dict, array, array, array, array]:
    """Inverse of Tracer.dump: (header, name ids, starts, ends, parents)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = []
        for code in ("H", "q", "q", "l"):
            column = array(code)
            column.fromfile(fh, header["spans"])
            columns.append(column)
    return (header, *columns)


def layer_stats(names, name_ids, starts, ends, parents) -> dict[str, dict]:
    """Calls and self time (ns) per name.

    A span's self time is its duration minus the durations of its direct
    child spans.  Spans nest strictly inside one process, so the children
    of a span cover disjoint parts of its interval.
    """
    durations = [end - start for start, end in zip(starts, ends)]
    covered = [0] * len(durations)
    for parent, duration in zip(parents, durations):
        if parent >= 0:
            covered[parent] += duration
    calls = [0] * len(names)
    self_ns = [0] * len(names)
    for name_id, duration, child in zip(name_ids, durations, covered):
        calls[name_id] += 1
        self_ns[name_id] += duration - child
    return {
        name: {"calls": calls[i], "self_ns": self_ns[i]} for i, name in enumerate(names)
    }
