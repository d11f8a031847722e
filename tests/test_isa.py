"""Tests for the instruction set and functional-unit model."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa import (
    FU_LIBRARY,
    OPCODES,
    OpCategory,
    fu_for_opcode,
    opcode,
    opcodes_in_category,
    select_functional_units,
)
from repro.isa.fu import categories_of
from repro.isa.opcodes import evaluate


class TestOpcodeRegistry:
    def test_core_opcodes_present(self):
        for name in ("add", "sub", "mul", "fadd", "fmul", "select", "sjoin",
                     "acc", "mac", "fdiv", "sigmoid"):
            assert name in OPCODES

    def test_lookup_unknown_raises(self):
        with pytest.raises(KeyError):
            opcode("no_such_op")

    def test_arity_matches_semantics(self):
        assert opcode("abs").arity == 1
        assert opcode("add").arity == 2
        assert opcode("select").arity == 3
        assert opcode("mac").arity == 3

    def test_divides_are_unpipelined(self):
        for name in ("div", "mod", "fdiv", "fsqrt"):
            assert not opcode(name).pipelined
            assert opcode(name).latency > 4

    def test_category_listing_sorted(self):
        arith = opcodes_in_category(OpCategory.ARITH)
        names = [op.name for op in arith]
        assert names == sorted(names)
        assert "add" in names and "fadd" not in names

    def test_every_opcode_has_semantics(self):
        """evaluate() must cover the full registry (simulator requirement)."""
        samples = {1: [3], 2: [3, 2], 3: [1, 3, 2]}
        for op in OPCODES.values():
            operands = samples[op.arity]
            if op.is_floating:
                operands = [float(v) for v in operands]
            result = evaluate(op, operands)
            assert result is not None


class TestEvaluate:
    def test_integer_arithmetic(self):
        assert evaluate("add", [2, 3]) == 5
        assert evaluate("sub", [2, 3]) == -1
        assert evaluate("mul", [4, 5]) == 20
        assert evaluate("mac", [4, 5, 1]) == 21

    def test_division_by_zero_yields_zero(self):
        assert evaluate("div", [5, 0]) == 0
        assert evaluate("mod", [5, 0]) == 0

    def test_division_truncates_toward_zero(self):
        assert evaluate("div", [-7, 2]) == -3
        assert evaluate("mod", [-7, 2]) == -1

    def test_wraparound_at_width(self):
        assert evaluate("add", [(1 << 63) - 1, 1]) == -(1 << 63)
        assert evaluate("add", [127, 1], bits=8) == -128

    def test_select(self):
        assert evaluate("select", [1, 10, 20]) == 10
        assert evaluate("select", [0, 10, 20]) == 20

    def test_comparisons_produce_bits(self):
        assert evaluate("cmp_lt", [1, 2]) == 1
        assert evaluate("cmp_ge", [1, 2]) == 0

    def test_float_ops(self):
        assert evaluate("fadd", [1.5, 2.5]) == 4.0
        assert evaluate("fsqrt", [9.0]) == 3.0
        assert math.isnan(evaluate("fsqrt", [-1.0]))
        assert evaluate("fdiv", [1.0, 0.0]) == math.inf

    def test_sigmoid_saturates(self):
        assert evaluate("sigmoid", [1000.0]) == pytest.approx(1.0)
        assert evaluate("sigmoid", [-1000.0]) == pytest.approx(0.0, abs=1e-9)

    def test_unknown_opcode_raises(self):
        with pytest.raises(KeyError):
            evaluate("bogus", [1, 2])

    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_commutative_ops_commute(self, a, b):
        for name in ("add", "mul", "min", "max", "and", "or", "xor"):
            assert evaluate(name, [a, b]) == evaluate(name, [b, a])


class TestFunctionalUnits:
    def test_library_nonempty_and_consistent(self):
        assert len(FU_LIBRARY) >= 8
        for unit in FU_LIBRARY.values():
            assert unit.gate_cost > 0
            assert unit.decomposable_to <= unit.width
            for op_name in unit.opcodes:
                assert op_name in OPCODES

    def test_fu_for_opcode_prefers_cheapest(self):
        assert fu_for_opcode("add").name == "alu"
        assert fu_for_opcode("fmul").name == "fpmul"

    def test_fu_for_unknown_raises(self):
        with pytest.raises(KeyError):
            fu_for_opcode("bogus")

    def test_selection_covers_requested_ops(self):
        requested = {"add", "mul", "fadd", "fmul", "sjoin", "sigmoid"}
        units = select_functional_units(requested)
        covered = set()
        for unit in units:
            covered |= unit.opcodes
        assert requested <= covered

    def test_selection_minimal_for_alu_subset(self):
        units = select_functional_units({"add", "sub", "cmp_lt", "select"})
        assert [u.name for u in units] == ["alu"]

    def test_selection_rejects_unknown(self):
        with pytest.raises(KeyError):
            select_functional_units({"add", "bogus"})

    def test_decomposable_support(self):
        alu = FU_LIBRARY["alu"]
        assert alu.supports("add", 32)
        assert alu.supports("add", 8)
        assert not alu.supports("add", 128)
        shifter = FU_LIBRARY["shifter"]
        assert not shifter.supports("shl", 32)  # not decomposable

    def test_lanes(self):
        alu = FU_LIBRARY["alu"]
        assert alu.lanes(64) == 1
        assert alu.lanes(16) == 4
        assert alu.lanes(128) == 0

    def test_sharing_cheaper_than_sum(self):
        alu = FU_LIBRARY["alu"]
        dedicated_sum = sum(OPCODES[op].gate_cost for op in alu.opcodes)
        assert alu.gate_cost < dedicated_sum

    @given(st.sets(st.sampled_from(sorted(OPCODES)), min_size=1, max_size=8))
    def test_selection_always_covers(self, ops):
        units = select_functional_units(ops)
        for op_name in ops:
            assert any(op_name in unit.opcodes for unit in units)

    def test_categories_of(self):
        cats = categories_of({"add", "fmul"})
        assert cats == {OpCategory.ARITH, OpCategory.FP_MULTIPLY}

    def test_is_control_only(self):
        assert categories_of({"select", "copy"}) == {OpCategory.CONTROL}
        assert categories_of({"select", "add"}) == {
            OpCategory.CONTROL, OpCategory.ARITH,
        }
        assert categories_of(set()) == set()
