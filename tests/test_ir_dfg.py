"""Tests for the dataflow graph (repro.ir.dfg)."""

import pickle

import pytest

from repro.errors import IrError
from repro.ir.dfg import Dfg, Operand


def simple_dfg():
    dfg = Dfg("t")
    a = dfg.add_input("a", lanes=2)
    b = dfg.add_input("b")
    mul = dfg.add_instr("mul", [(a, 0), b])
    add = dfg.add_instr("add", [(a, 1), mul])
    dfg.add_output("out", add)
    return dfg, (a, b, mul, add)


class TestConstruction:
    def test_counts(self):
        dfg, _ = simple_dfg()
        assert len(dfg.inputs()) == 2
        assert len(dfg.instructions()) == 2
        assert len(dfg.outputs()) == 1
        assert len(dfg) == 5

    def test_operand_forms(self):
        dfg = Dfg()
        a = dfg.add_input("a")
        b = dfg.add_input("b")
        # node, id, Operand, (node, lane) all accepted
        dfg.add_instr("add", [a, b.node_id])
        dfg.add_instr("add", [Operand(a.node_id), (b, 0)])

    def test_bad_operand_rejected(self):
        dfg = Dfg()
        dfg.add_input("a")
        with pytest.raises(IrError):
            dfg.add_instr("abs", ["nonsense"])

    def test_unknown_node_reference_rejected(self):
        dfg = Dfg()
        with pytest.raises(IrError):
            dfg.add_instr("abs", [99])

    def test_unknown_opcode_rejected(self):
        dfg = Dfg()
        a = dfg.add_input("a")
        with pytest.raises(IrError):
            dfg.add_instr("warp", [a])

    def test_arity_enforced(self):
        dfg = Dfg()
        a = dfg.add_input("a")
        with pytest.raises(IrError):
            dfg.add_instr("add", [a])

    def test_reduction_takes_one_less_operand(self):
        dfg = Dfg()
        a = dfg.add_input("a")
        acc = dfg.add_instr("acc", [a], reduction=True)
        assert acc.reduction
        with pytest.raises(IrError):
            dfg.add_instr("acc", [a, a], reduction=True)

    def test_output_needs_operand(self):
        dfg = Dfg()
        with pytest.raises(IrError):
            dfg.add_output("o", [])


class TestAnalysis:
    def test_topological_order_respects_deps(self):
        dfg, (a, b, mul, add) = simple_dfg()
        order = dfg.topological_order()
        assert order.index(mul.node_id) < order.index(add.node_id)
        assert order.index(a.node_id) < order.index(mul.node_id)

    def test_duplicate_operand_edges_handled(self):
        dfg = Dfg()
        a = dfg.add_input("a")
        sq = dfg.add_instr("mul", [a, a])
        dfg.add_output("o", sq)
        assert len(dfg.topological_order()) == 3

    def test_order_memo_sees_later_nodes(self):
        dfg, (a, b, mul, add) = simple_dfg()
        before = dfg.topological_order()
        late = dfg.add_instr("mul", [add, b])
        out = dfg.add_output("late", late)
        order = dfg.topological_order()
        assert order == before + [late.node_id, out.node_id]
        assert order == dfg._compute_topological_order()

    def test_returned_order_is_a_copy(self):
        dfg, _ = simple_dfg()
        order = dfg.topological_order()
        expected = list(order)
        order.reverse()
        order.append(99)
        assert dfg.topological_order() == expected
        assert dfg.topological_order() is not dfg.topological_order()

    def test_pickle_without_memo_attribute(self):
        """Artifacts pickled before the memo existed carry no
        ``_topo_order`` in their state; they must still order."""
        dfg, (a, b, mul, add) = simple_dfg()
        expected = dfg.topological_order()
        state = dict(dfg.__dict__)
        state.pop("_topo_order")
        legacy = Dfg.__new__(Dfg)
        legacy.__dict__.update(state)
        loaded = pickle.loads(pickle.dumps(legacy))
        assert "_topo_order" not in loaded.__dict__
        assert loaded.topological_order() == expected
        extra = loaded.add_instr("add", [mul, b])
        order = loaded.topological_order()
        assert extra.node_id in order
        assert order == loaded._compute_topological_order()

    def test_users_of(self):
        dfg, (a, b, mul, add) = simple_dfg()
        users = dfg.users_of(a.node_id)
        assert {u.node_id for u in users} == {mul.node_id, add.node_id}

    def test_edges_include_predicates(self):
        dfg = Dfg()
        a = dfg.add_input("a")
        p = dfg.add_instr("cmp_gt", [a, a])
        guarded = dfg.add_instr("abs", [a], predicate=p)
        edge_kinds = [
            idx for src, dst, idx, lane in dfg.edges()
            if dst == guarded.node_id
        ]
        assert -1 in edge_kinds

    def test_opcode_histogram(self):
        dfg, _ = simple_dfg()
        assert dfg.opcode_histogram() == {"mul": 1, "add": 1}
        assert dfg.required_ops() == {"mul", "add"}

    def test_longest_path_latency(self):
        dfg, _ = simple_dfg()
        # mul (3) -> add (1)
        assert dfg.longest_path_latency() == 4

    def test_clone_independent(self):
        dfg, _ = simple_dfg()
        twin = dfg.clone()
        twin.add_input("extra")
        assert len(twin) == len(dfg) + 1


class TestValidation:
    def test_valid_graph_passes(self):
        dfg, _ = simple_dfg()
        dfg.validate()

    def test_lane_overflow_rejected(self):
        dfg = Dfg()
        a = dfg.add_input("a", lanes=2)
        dfg.add_instr("abs", [(a, 5)])
        with pytest.raises(IrError):
            dfg.validate()

    def test_instr_lane_must_be_zero(self):
        dfg = Dfg()
        a = dfg.add_input("a")
        m = dfg.add_instr("abs", [a])
        dfg.add_instr("abs", [(m, 1)])
        with pytest.raises(IrError):
            dfg.validate()

    def test_consuming_output_rejected(self):
        dfg = Dfg()
        a = dfg.add_input("a")
        out = dfg.add_output("o", a)
        dfg.add_instr("abs", [out])
        with pytest.raises(IrError):
            dfg.validate()

    def test_unnamed_output_rejected(self):
        dfg = Dfg()
        a = dfg.add_input("a")
        dfg.add_output("", a)
        with pytest.raises(IrError):
            dfg.validate()
