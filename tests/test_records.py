"""The package's value records: construction, equality, hashing, repr.

Every record keeps the behaviour it had as a frozen dataclass: the same
positional order, keywords and defaults, equality only within one class,
a hash of its fields where they have one, and the dataclass repr text.

The module also ties the package to its benchmark: every perfbench tracer
target resolves, and every public function or method is run by a command,
named by the tracer, or kept in KEPT_UNRUN for a stated reason.
"""

import contextlib
import copy
import importlib.util
import inspect
import io
import json
import os
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import filterbounds
from filterbounds.bounds import (
    BestSeed,
    BinomScalingResult,
    BoundKind,
    BoundsParams,
    CountingBoundResult,
    DatasetCode,
    ParamsOutOfRange,
    SpaceBound,
)
from filterbounds.cli import main
from filterbounds.combinat import next_prime
from filterbounds.core import (
    _Record,
    Operation,
    OpKind,
    OpSequence,
    UniverseParams,
)
from filterbounds.filters import FilterState, Seed
from filterbounds.harness import (
    DEFAULT_GRID,
    ExperimentConfig,
    GridSpec,
    ModelSpec,
)
from filterbounds.reduction import PairedState, ReductionReport
from filterbounds.sequences import DatasetTrace, RewriteResult

SRC = Path(__file__).resolve().parent.parent / "src"

P62 = UniverseParams(6, 2)
SEQ = OpSequence(P62, (Operation(OpKind.INIT), Operation(OpKind.INS, 3)))
SPEC = ModelSpec("exact_set", 6, 2, Fraction(0))
GRID = GridSpec((16,), (4,), (Fraction(1),))

# (class, a value for every field in order, defaults of the trailing
# fields, the repr the dataclass printed for those values)
RECORDS = [
    # only init may omit its argument
    (
        Operation,
        (OpKind.INIT, None),
        {"arg": None},
        "Operation(kind=<OpKind.INIT: 'init'>, arg=None)",
    ),
    (UniverseParams, (6, 2), {}, "UniverseParams(u=6, n=2)"),
    (
        OpSequence,
        (P62, (Operation(OpKind.INIT),)),
        {},
        "OpSequence(params=UniverseParams(u=6, n=2), "
        "ops=(Operation(kind=<OpKind.INIT: 'init'>, arg=None),))",
    ),
    (DatasetTrace, (6, (0, 8)), {}, "DatasetTrace(u=6, masks=(0, 8))"),
    (
        RewriteResult,
        (SEQ, (0, 1)),
        {},
        "RewriteResult(seq=OpSequence(params=UniverseParams(u=6, n=2), "
        "ops=(Operation(kind=<OpKind.INIT: 'init'>, arg=None), "
        "Operation(kind=<OpKind.INS: 'ins'>, arg=3))), index_map=(0, 1))",
    ),
    (Seed, (5, 8), {}, "Seed(value=5, bits=8)"),
    (
        FilterState,
        (3, 4, True),
        {"fail": False},
        "FilterState(value=3, nbits=4, fail=True)",
    ),
    (
        BoundsParams,
        (6, 2, Fraction(1, 3), Fraction(1, 8), Fraction(3, 2)),
        {"eps_minus": Fraction(0), "p_fail": Fraction(0), "alpha": Fraction(2)},
        "BoundsParams(u=6, n=2, eps_minus=Fraction(1, 3), p_fail=Fraction(1, 8), "
        "alpha=Fraction(3, 2))",
    ),
    (
        CountingBoundResult,
        (False, 8, Fraction(15, 2), 3, BoundsParams(8, 2)),
        {},
        "CountingBoundResult(holds=False, lhs=8, rhs=Fraction(15, 2), fspace_bits=3, "
        "params=BoundsParams(u=8, n=2, eps_minus=Fraction(0, 1), p_fail=Fraction(0, 1), "
        "alpha=Fraction(2, 1)))",
    ),
    (
        BinomScalingResult,
        (True, 1.5, 2.25, 16, 4, Fraction(1, 2)),
        {},
        "BinomScalingResult(holds=True, lhs_bits=1.5, rhs_bits=2.25, u=16, n=4, "
        "beta=Fraction(1, 2))",
    ),
    (
        SpaceBound,
        (BoundKind.DYNAMIC, 16, 4, Fraction(1, 8), 3.0, 1.5),
        {},
        "SpaceBound(kind=<BoundKind.DYNAMIC: 'dynamic'>, u=16, n=4, eps=Fraction(1, 8), "
        "leading_bits=3.0, constant_bits=1.5)",
    ),
    (
        BestSeed,
        (Seed(1, 2), 5, Fraction(15, 2), False),
        {},
        "BestSeed(seed=Seed(value=1, bits=2), good_count=5, required=Fraction(15, 2), "
        "meets_bound=False)",
    ),
    (
        DatasetCode,
        (FilterState(1, 2), 7),
        {},
        "DatasetCode(state=FilterState(value=1, nbits=2, fail=False), index=7)",
    ),
    (
        ModelSpec,
        ("fingerprint_multiset", 8, 2, Fraction(1, 2), 1, 3, ((1, 0), (2, 0))),
        {"noise_m": 0, "fingerprint_bits": None, "collision_table": None},
        "ModelSpec(kind='fingerprint_multiset', u=8, n=2, eps_plus=Fraction(1, 2), "
        "noise_m=1, fingerprint_bits=3, collision_table=((1, 0), (2, 0)))",
    ),
    (
        GridSpec,
        ((16,), (4, 8), (Fraction(1, 2),)),
        {},
        "GridSpec(u_values=(16,), n_values=(4, 8), beta_values=(Fraction(1, 2),))",
    ),
    (
        ExperimentConfig,
        (7, 3, 10, (Fraction(2),), Fraction(4), (SPEC,), GRID, None),
        {
            "seed": 20260823,
            "seed_bits": 8,
            "trials": 100_000,
            "alphas": (Fraction(3, 2), Fraction(2), Fraction(4)),
            "best_seed_alpha": Fraction(2),
            "models": (),
            "grid": DEFAULT_GRID,
            "negative_probe": None,
        },
        "ExperimentConfig(seed=7, seed_bits=3, trials=10, alphas=(Fraction(2, 1),), "
        "best_seed_alpha=Fraction(4, 1), models=(ModelSpec(kind='exact_set', u=6, n=2, "
        "eps_plus=Fraction(0, 1), noise_m=0, fingerprint_bits=None, collision_table=None),), "
        "grid=GridSpec(u_values=(16,), n_values=(4,), beta_values=(Fraction(1, 1),)), "
        "negative_probe=None)",
    ),
    (
        PairedState,
        (FilterState(1, 2), FilterState(0, 2)),
        {},
        "PairedState(after_insert=FilterState(value=1, nbits=2, fail=False), "
        "after_delete=FilterState(value=0, nbits=2, fail=False))",
    ),
    (
        ReductionReport,
        (
            6, 2, "witness(exact_set)", 2, 4, 15, 1, 0, Fraction(1, 2),
            False, 8, 8, Fraction(1, 4), 3,
            (Seed(1, 2), (0, 1), [2]), [(Seed(0, 2), [0, 1])],
        ),
        {
            "fn_matches_delete_fp": True,
            "space_pair_bits": 0,
            "space_budget_bits": 0,
            "fail_fraction": Fraction(0),
            "failed_pairs": 0,
            "first_false_positive": None,
            "misses_by_class": [],
        },
        # misses_by_class is left out of the repr
        "ReductionReport(u=6, n=2, model='witness(exact_set)', seed_bits=2, seed_count=4, "
        "dataset_count=15, false_positive_count=1, completeness_violations=0, "
        "max_false_negative_rate=Fraction(1, 2), fn_matches_delete_fp=False, "
        "space_pair_bits=8, space_budget_bits=8, fail_fraction=Fraction(1, 4), "
        "failed_pairs=3, first_false_positive=(Seed(value=1, bits=2), (0, 1), [2]))",
    ),
]

# records with a list field, whose field tuple has no hash
UNHASHABLE = {ReductionReport}


@pytest.mark.parametrize(
    "cls, values, defaults, text", RECORDS, ids=[case[0].__name__ for case in RECORDS]
)
def test_record_keeps_its_dataclass_behaviour(cls, values, defaults, text):
    names = cls.__slots__
    assert len(names) == len(values)
    record = cls(*values)
    assert tuple(getattr(record, name) for name in names) == values
    assert cls(**dict(zip(names, values))) == record

    required = len(values) - len(defaults)
    assert tuple(defaults) == names[required:]
    bare, other_bare = cls(*values[:required]), cls(*values[:required])
    for name, default in defaults.items():
        assert getattr(bare, name) == default
        if isinstance(default, (list, dict)):
            assert getattr(bare, name) is not getattr(other_bare, name)

    twin = cls(*values)
    assert twin == record and not twin != record
    assert (bare == record) == (values[required:] == tuple(defaults.values()))

    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(twin) == hash(record)
        assert hash(record) == hash(values)
    with pytest.raises(AttributeError):
        setattr(record, names[0], values[1])
    with pytest.raises(AttributeError):
        delattr(record, names[0])
    assert getattr(record, names[0]) == values[0]

    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record and copy.copy(record) == record

    stranger = type("Stranger", (cls,), {})(*values)
    assert stranger != record and record != stranger

    assert repr(record) == text


VALIDATING = {Operation, UniverseParams, Seed, FilterState, BoundsParams}


def test_only_validating_records_write_their_own_init():
    own = {case[0] for case in RECORDS if "__init__" in vars(case[0])}
    assert own == VALIDATING
    assert all(case[0].__init__ is _Record.__init__ for case in RECORDS if case[0] not in own)


@pytest.mark.parametrize(
    "cls, values, defaults, text",
    [case for case in RECORDS if case[0] not in VALIDATING],
    ids=[case[0].__name__ for case in RECORDS if case[0] not in VALIDATING],
)
def test_binding_init_rejects_bad_arguments(cls, values, defaults, text):
    names = cls.__slots__
    required = len(values) - len(defaults)
    if required:
        with pytest.raises(TypeError, match="missing"):
            cls(*values[: required - 1])
        with pytest.raises(TypeError, match="missing"):
            cls(**dict(zip(names[1:], values[1:])))
    with pytest.raises(TypeError, match="unexpected"):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError, match="multiple"):
        cls(*values[:1], **{names[0]: values[0]})
    with pytest.raises(TypeError, match="multiple"):
        cls(*values, **{names[-1]: values[-1]})
    with pytest.raises(TypeError, match="arguments"):
        cls(*values, values[0])


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Seed(256, 8), ValueError),
        (lambda: Seed(-1, 8), ValueError),
        (lambda: Seed(0, -1), ValueError),
        (lambda: FilterState(4, 2), ValueError),
        (lambda: FilterState(-1, 2), ValueError),
        (lambda: FilterState(0, -1), ValueError),
        (lambda: UniverseParams(0, 1), ValueError),
        (lambda: UniverseParams(1, 0), ValueError),
        (lambda: Operation(OpKind.INS), ValueError),
        (lambda: Operation(OpKind.INIT, 1), ValueError),
        (lambda: BoundsParams(0, 1), ParamsOutOfRange),
        (lambda: BoundsParams(6, 0), ParamsOutOfRange),
        (lambda: BoundsParams(6, 2, eps_minus=Fraction(-1)), ParamsOutOfRange),
        (lambda: BoundsParams(6, 2, p_fail=Fraction(3, 2)), ParamsOutOfRange),
        (lambda: BoundsParams(6, 2, alpha=Fraction(1)), ParamsOutOfRange),
        (lambda: BoundsParams(6, 2, eps_minus=Fraction(2)), ParamsOutOfRange),
    ],
)
def test_record_construction_checks_still_raise(build, error):
    with pytest.raises(error):
        build()


def test_cli_import_pulls_in_neither_dataclasses_nor_inspect():
    # every command is one short process, so the modules its import drags
    # in are paid on every run; dataclasses and inspect cost several
    # milliseconds, hashlib loads OpenSSL, and only demo-violations runs the
    # sequence algebra and the demo
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import filterbounds.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    added = out.stdout.split()
    assert "filterbounds.cli" in added
    for name in ("dataclasses", "inspect", "hashlib", "_hashlib",
                 "filterbounds.sequences", "filterbounds.demo"):
        assert name not in added


def test_importing_the_package_loads_no_module():
    probe = (
        "import sys\n"
        "import filterbounds\n"
        "print(' '.join(m for m in sys.modules if m.startswith('filterbounds.')))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "\n"


PERFBENCH = SRC.parent / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_benchmark_trace_target_is_defined_where_the_tracer_looks():
    # the tracer wraps each target in the namespace that defines it, and
    # refuses to start when one has moved or gone
    tracer = _load_tracer()
    for qualname in tracer.TARGETS:
        layer, *path = qualname.split(".")
        owner = importlib.import_module(f"{tracer.PACKAGE}.{layer}")
        for part in path[:-1]:
            owner = getattr(owner, part)
        assert path[-1] in vars(owner), qualname


# Public code that no command runs and no tracer target names, with the
# reason each stays.  Keys are module.function or module.Class.method; a
# bare module name covers every name the module defines.
KEPT_UNRUN = {
    "harness.negative_control_config":
        "perfbench/launch.py builds the certify workload's control config",
    "filters.FilterModel.yes_mask":
        "the brute-force default that the tests hold every override to",
    "filters.FilterModel.seed_class":
        "the brute-force default, one class per seed, that the tests sweep against",
    "filters.ExactSetModel.decode_set":
        "unranks states the model never handed out, as the tests build them",
    "filters.NoisyExactModel.noise_set":
        "the noise oracle that the bounds and reduction tests compare against",
    "reduction.PairedStaticFilter.query":
        "the static filter's query, which is_good_pair, a tracer target, calls",
    "sequences":
        "acceptance test 8 checks its rewriters, and ROADMAP item 6 builds on them",
}


def _public_code():
    """module.function and module.Class.method -> code object, for every
    public function and method the package defines.  Property getters count
    as methods; abstract methods and Protocol classes do not count."""
    found = {}
    for info in pkgutil.iter_modules(filterbounds.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"filterbounds.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if not inspect.isclass(obj):
                if inspect.isfunction(inspect.unwrap(obj)):
                    found[f"{info.name}.{name}"] = inspect.unwrap(obj).__code__
                continue
            if getattr(obj, "_is_protocol", False):
                continue
            for attr, member in vars(obj).items():
                member = getattr(member, "fget", member)  # a property's getter
                member = getattr(member, "__func__", member)  # static or class method
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(member)
                    and not getattr(member, "__isabstractmethod__", False)
                ):
                    found[f"{info.name}.{name}.{attr}"] = member.__code__
    return found


def _codes_every_command_calls(tmp_path):
    """The code objects entered while the six commands run, at small sizes."""
    verify_config = tmp_path / "verify.json"
    verify_config.write_text(json.dumps({"models": [
        {"kind": "exact_set", "u": 6, "n": 2},
        {"kind": "noisy_exact", "u": 6, "n": 2, "eps_plus": "1/6", "noise_m": 1},
    ]}))
    bounds_config = tmp_path / "bounds.json"
    bounds_config.write_text(json.dumps({"bounds_checks": [
        {"check": "counting", "u": 8, "n": 2, "fspace_bits": 5},
        {"check": "binom_scaling", "u": 16, "n": 4, "beta": "1/2"},
        {"check": "space", "kind": "dynamic", "u": 64, "n": 4, "eps": "1/8"},
    ]}))

    def run(*argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(list(argv)) in (0, 1)
        return out.getvalue()

    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    next_prime.cache_clear()  # a cached call enters no code
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run("verify", "--seed-bits", "7", "--config", str(verify_config))
        run("fp-rate", "--trials", "500")
        run("fp-rate", "--trials", "500", "--format", "csv")
        run("demo-violations", "--seed-bits", "4")
        run("bounds", "--config", str(bounds_config))
        code = json.loads(run("encode", "--seed-bits", "4", "--elements", "1,4"))
        run("decode", "--seed-bits", "4", "--state", code["state"], "--index", code["index"])
    finally:
        sys.setprofile(previous)
    return called


def test_every_public_function_is_run_by_a_command_or_kept_for_a_reason(tmp_path):
    called = _codes_every_command_calls(tmp_path)
    traced = set(_load_tracer().TARGETS)
    unrun = {
        name for name, code in _public_code().items()
        if code not in called and name not in traced
    }
    # a name's own entry first, else its module's
    excused_by = {
        name: name if name in KEPT_UNRUN else name.split(".")[0]
        for name in unrun
        if name in KEPT_UNRUN or name.split(".")[0] in KEPT_UNRUN
    }
    dead = sorted(unrun - set(excused_by))
    assert not dead, f"no command runs {dead}: delete them, or keep them in KEPT_UNRUN"
    stale = sorted(set(KEPT_UNRUN) - set(excused_by.values()))
    assert not stale, f"{stale} in KEPT_UNRUN are run by a command or traced"


@pytest.mark.parametrize("workload", ["certify", "montecarlo", "coding"])
def test_benchmark_setup_builds_its_workload(workload, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "launch.py"), "--setup", workload, str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
