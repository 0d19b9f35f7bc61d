"""Sequence validation, traces, classification, rewriters, text format."""

import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from filterbounds.core import UniverseParams, _mask_elems
from filterbounds.sequences import (
    ArgOutOfUniverse,
    CardinalityExceeded,
    FirstOpNotInit,
    OpClass,
    OpKind,
    OpSequence,
    Operation,
    classify_ops,
    dataset_trace,
    enumerate_sequences,
    format_sequence,
    parse_sequence,
    rewrite_del_to_dup,
    rewrite_dup_to_del,
    validate_sequence,
)

P82 = UniverseParams(8, 2)


def oracle_trace(seq: OpSequence) -> list[frozenset[int]]:
    """Independent trace oracle with plain Python sets."""
    sets = []
    current: set[int] = set()
    for op in seq.ops:
        if op.kind is OpKind.INIT:
            current = set()
        elif op.kind is OpKind.INS:
            current = current | {op.arg}
        elif op.kind is OpKind.DEL:
            current = current - {op.arg}
        sets.append(frozenset(current))
    return sets


@st.composite
def valid_sequences(draw, u=5, n=2, max_extra=7):
    """Build a valid sequence constructively: init first, card bound kept."""
    ops = [Operation(OpKind.INIT)]
    mask = 0
    for _ in range(draw(st.integers(0, max_extra))):
        x = draw(st.integers(0, u - 1))
        kinds = ["del", "query"]
        if mask & (1 << x) or bin(mask).count("1") < n:
            kinds.append("ins")
        kind = draw(st.sampled_from(kinds))
        ops.append(Operation(OpKind(kind), x))
        if kind == "ins":
            mask |= 1 << x
        elif kind == "del":
            mask &= ~(1 << x)
    return validate_sequence(ops, UniverseParams(u, n))


class TestOperations:
    def test_init_carries_no_arg(self):
        with pytest.raises(ValueError):
            Operation(OpKind.INIT, 3)

    def test_others_require_arg(self):
        with pytest.raises(ValueError):
            Operation(OpKind.INS)

    def test_factories(self):
        assert Operation(OpKind.INIT).kind is OpKind.INIT
        assert Operation(OpKind.INS, 3) == Operation(OpKind.INS, 3)
        assert Operation(OpKind.DEL, 0).arg == 0
        assert Operation(OpKind.QUERY, 7).kind is OpKind.QUERY


class TestValidation:
    def test_empty_is_not_init(self):
        with pytest.raises(FirstOpNotInit):
            validate_sequence([], P82)

    def test_first_op_must_be_init(self):
        with pytest.raises(FirstOpNotInit) as err:
            validate_sequence([Operation(OpKind.INS, 1)], P82)
        assert err.value.t == 0

    def test_arg_out_of_universe_reports_index(self):
        with pytest.raises(ArgOutOfUniverse) as err:
            validate_sequence([
                Operation(OpKind.INIT), Operation(OpKind.INS, 1),
                Operation(OpKind.QUERY, 8),
            ], P82)
        assert err.value.t == 2

    def test_cardinality_exceeded_reports_index(self):
        ops = [
            Operation(OpKind.INIT), Operation(OpKind.INS, 0), Operation(OpKind.INS, 1),
            Operation(OpKind.INS, 2),
        ]
        with pytest.raises(CardinalityExceeded) as err:
            validate_sequence(ops, P82)
        assert err.value.t == 3

    def test_earliest_violation_wins(self):
        # cardinality breaks at t=3 before the bad argument at t=4
        ops = [
            Operation(OpKind.INIT), Operation(OpKind.INS, 0), Operation(OpKind.INS, 1),
            Operation(OpKind.INS, 2), Operation(OpKind.INS, 9),
        ]
        with pytest.raises(CardinalityExceeded):
            validate_sequence(ops, P82)

    def test_duplicates_and_nonelement_deletes_are_valid(self):
        ops = [
            Operation(OpKind.INIT), Operation(OpKind.INS, 3), Operation(OpKind.INS, 3),
            Operation(OpKind.DEL, 5), Operation(OpKind.QUERY, 3),
        ]
        seq = validate_sequence(ops, P82)
        assert len(seq) == 5

    def test_mid_sequence_init_resets(self):
        ops = [
            Operation(OpKind.INIT), Operation(OpKind.INS, 0), Operation(OpKind.INS, 1),
            Operation(OpKind.INIT), Operation(OpKind.INS, 2),
        ]
        seq = validate_sequence(ops, P82)
        assert dataset_trace(seq)[3] == frozenset()
        assert dataset_trace(seq)[4] == {2}


class TestTrace:
    def test_duplicate_insert_leaves_set(self):
        seq = validate_sequence([
            Operation(OpKind.INIT), Operation(OpKind.INS, 3), Operation(OpKind.INS, 3),
        ], P82)
        assert dataset_trace(seq) == (frozenset(), {3}, {3})

    def test_delete_of_nonelement_leaves_set(self):
        seq = validate_sequence([Operation(OpKind.INIT), Operation(OpKind.DEL, 7)], P82)
        assert dataset_trace(seq) == (frozenset(), frozenset())

    def test_query_leaves_set(self):
        seq = validate_sequence(
            [
                Operation(OpKind.INIT), Operation(OpKind.INS, 1),
                Operation(OpKind.QUERY, 1), Operation(OpKind.QUERY, 5),
            ], P82
        )
        trace = dataset_trace(seq)
        assert trace[2] == {1} == trace[3]
        assert len(trace[3]) == 1

    @given(valid_sequences())
    def test_matches_set_semantics_oracle(self, seq):
        trace = dataset_trace(seq)
        assert list(trace) == oracle_trace(seq)

    @given(valid_sequences())
    def test_trace_is_deterministic(self, seq):
        assert dataset_trace(seq) == dataset_trace(seq)


class TestClassify:
    def test_example_labels(self):
        seq = validate_sequence(
            [
                Operation(OpKind.INIT), Operation(OpKind.INS, 3),
                Operation(OpKind.INS, 3), Operation(OpKind.DEL, 3),
                Operation(OpKind.DEL, 3), Operation(OpKind.QUERY, 0),
            ],
            P82,
        )
        assert classify_ops(seq) == (
            OpClass.NORMAL,
            OpClass.NORMAL,
            OpClass.DUPLICATE_INSERTION,
            OpClass.NORMAL,
            OpClass.DELETION_OF_NONELEMENT,
            OpClass.NORMAL,
        )

    @given(valid_sequences())
    def test_redundant_ops_never_change_the_set(self, seq):
        trace = dataset_trace(seq)
        classes = classify_ops(seq)
        for t, cls in enumerate(classes):
            if cls is not OpClass.NORMAL:
                before = trace[t - 1] if t else frozenset()
                assert trace[t] == before


class TestRewriters:
    def test_dup_to_del_frozen_example(self):
        seq = validate_sequence([
            Operation(OpKind.INIT), Operation(OpKind.INS, 3), Operation(OpKind.INS, 3),
        ], P82)
        out = rewrite_dup_to_del(seq)
        assert [
            (op.kind.value, op.arg) for op in out.seq.ops
        ] == [("init", None), ("del", 3), ("ins", 3), ("del", 3), ("ins", 3)]
        assert out.index_map == (0, 2, 4)
        assert out.seq.params == P82

    def test_del_to_dup_frozen_example(self):
        seq = validate_sequence([Operation(OpKind.INIT), Operation(OpKind.DEL, 7)], P82)
        out = rewrite_del_to_dup(seq)
        assert [
            (op.kind.value, op.arg) for op in out.seq.ops
        ] == [("init", None), ("ins", 7), ("del", 7)]
        assert out.index_map == (0, 2)
        assert out.seq.params.n == P82.n + 1

    def test_del_to_dup_regular_delete(self):
        seq = validate_sequence([
            Operation(OpKind.INIT), Operation(OpKind.INS, 1), Operation(OpKind.DEL, 1),
        ], P82)
        out = rewrite_del_to_dup(seq)
        assert [
            (op.kind.value, op.arg) for op in out.seq.ops
        ] == [("init", None), ("ins", 1), ("ins", 1), ("del", 1)]
        trace = dataset_trace(out.seq)
        assert max(len(trace[t]) for t in range(len(trace))) == 1

    @given(valid_sequences())
    def test_dup_to_del_properties(self, seq):
        out = rewrite_dup_to_del(seq)
        assert OpClass.DUPLICATE_INSERTION not in classify_ops(out.seq)
        assert len(out.seq) <= 2 * len(seq)
        original = oracle_trace(seq)
        rewritten = oracle_trace(out.seq)
        for t, image in enumerate(out.index_map):
            assert rewritten[image] == original[t]

    @given(valid_sequences())
    def test_del_to_dup_properties(self, seq):
        out = rewrite_del_to_dup(seq)
        assert OpClass.DELETION_OF_NONELEMENT not in classify_ops(out.seq)
        assert len(out.seq) <= 2 * len(seq)
        original = oracle_trace(seq)
        rewritten = oracle_trace(out.seq)
        for t, image in enumerate(out.index_map):
            assert rewritten[image] == original[t]


def run_rewriter_exhaustive(u: int, n: int, max_len: int) -> int:
    """Check both rewriters over every valid sequence; returns the count."""
    params = UniverseParams(u, n)
    count = 0
    for seq in enumerate_sequences(params, max_len):
        count += 1
        original = oracle_trace(seq)
        for rewrite, banned, bound in (
            (rewrite_dup_to_del, OpClass.DUPLICATE_INSERTION, n),
            (rewrite_del_to_dup, OpClass.DELETION_OF_NONELEMENT, n + 1),
        ):
            out = rewrite(seq)
            assert banned not in classify_ops(out.seq)
            assert out.seq.params.n == bound
            assert len(out.seq) <= 2 * len(seq)
            rewritten = oracle_trace(out.seq)
            assert all(len(s) <= bound for s in rewritten)
            for t, image in enumerate(out.index_map):
                assert rewritten[image] == original[t]
    return count


def test_rewriters_exhaustive_small():
    # every valid sequence of length <= 4 over a tiny universe
    assert run_rewriter_exhaustive(3, 1, 4) > 100


class TestTextFormat:
    def test_parse_example(self):
        seq = parse_sequence("u=8 n=2\ninit\nins 3\nquery 3\n")
        assert seq.params == P82
        assert seq.ops == (
            Operation(OpKind.INIT), Operation(OpKind.INS, 3),
            Operation(OpKind.QUERY, 3),
        )

    def test_comments_and_blanks_skip(self):
        seq = parse_sequence("# fixture\n\nu=4 n=1\ninit\n# mid comment\nins 0\n")
        assert len(seq) == 2

    def test_bad_header(self):
        with pytest.raises(ValueError):
            parse_sequence("u=8\ninit\n")

    def test_bad_op_line(self):
        with pytest.raises(ValueError):
            parse_sequence("u=8 n=2\ninit\nbump 3\n")

    def test_parse_validates(self):
        with pytest.raises(ArgOutOfUniverse):
            parse_sequence("u=4 n=2\ninit\nins 9\n")

    @given(valid_sequences())
    def test_round_trip(self, seq):
        assert parse_sequence(format_sequence(seq)) == seq


class TestEnumerator:
    def test_counts_small_universe(self):
        # u=1, n=1: after init each slot offers ins 0 / del 0 / query 0
        seqs = list(enumerate_sequences(UniverseParams(1, 1), 3))
        assert len(seqs) == 1 + 3 + 9

    def test_all_emitted_are_valid_and_init_first(self):
        for seq in enumerate_sequences(UniverseParams(4, 2), 4):
            assert seq.ops[0].kind is OpKind.INIT
            assert all(op.kind is not OpKind.INIT for op in seq.ops[1:])
            validate_sequence(seq.ops, seq.params)

    @settings(deadline=None)
    @given(st.integers(2, 4), st.integers(1, 2))
    def test_enumeration_has_no_duplicates(self, u, n):
        seqs = list(enumerate_sequences(UniverseParams(u, n), 3))
        assert len(seqs) == len(set(seqs))


def bin_elems(mask: int) -> list[int]:
    """The set bits of mask read off its binary text, lowest first."""
    # a regex scan keeps the million-bit example well inside the deadline
    return [digit.start() for digit in re.finditer("1", bin(mask)[:1:-1])]


@given(st.one_of(
    st.integers(0, 1 << 200),
    st.sets(st.integers(0, 5000), max_size=20).map(lambda xs: sum(1 << x for x in xs)),
))
@example(1 << 10**6 | 1)  # two bits a million apart: stepping bit by bit is quadratic
def test_mask_elems_lists_the_set_bits_lowest_first(mask):
    assert list(_mask_elems(mask)) == bin_elems(mask)
