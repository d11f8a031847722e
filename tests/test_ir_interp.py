"""Tests for regions, scopes, and the functional interpreter."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IrError
from repro.ir import (
    ConfigScope,
    ConstStream,
    Dfg,
    IndirectStream,
    JoinSpec,
    LinearStream,
    OffloadRegion,
    RecurrenceStream,
    StreamDirection,
    UpdateStream,
    execute_region,
    execute_scope,
)


def write(array, length, **kwargs):
    return LinearStream(
        array, direction=StreamDirection.WRITE, length=length, **kwargs
    )


def dot_region(n, unroll=1):
    dfg = Dfg("dot")
    a = dfg.add_input("a", lanes=unroll)
    b = dfg.add_input("b", lanes=unroll)
    products = [
        dfg.add_instr("mul", [(a, lane), (b, lane)]) for lane in range(unroll)
    ]
    total = products[0]
    for product in products[1:]:
        total = dfg.add_instr("add", [total, product])
    acc = dfg.add_instr("acc", [total], reduction=True)
    dfg.add_output("c", acc)
    return OffloadRegion(
        "dot",
        dfg,
        input_streams={
            "a": LinearStream("A", length=n),
            "b": LinearStream("B", length=n),
        },
        output_streams={"c": write("C", 1)},
    )


class TestRegionValidation:
    def test_valid_dot(self):
        dot_region(8).validate()

    def test_unknown_port_binding_rejected(self):
        region = dot_region(8)
        region.input_streams["ghost"] = LinearStream("A", length=8)
        with pytest.raises(IrError):
            region.validate()

    def test_missing_stream_rejected(self):
        region = dot_region(8)
        del region.input_streams["b"]
        with pytest.raises(IrError):
            region.validate()

    def test_write_stream_on_input_rejected(self):
        region = dot_region(8)
        region.input_streams["a"] = write("A", 8)
        with pytest.raises(IrError):
            region.validate()

    def test_read_stream_on_output_rejected(self):
        region = dot_region(8)
        region.output_streams["c"] = LinearStream("C", length=1)
        with pytest.raises(IrError):
            region.validate()

    def test_mixed_output_binding_validates(self):
        region = dot_region(8)
        region.output_streams["c"] = [
            write("C", 1),
            RecurrenceStream(
                array="", source_port="c", length=1,
                direction=StreamDirection.WRITE,
            ),
        ]
        region.validate()  # interleaved segments are legal

    def test_instance_count(self):
        assert dot_region(8).instance_count() == 8
        assert dot_region(8, unroll=2).instance_count() is not None

    def test_inconsistent_volumes_rejected(self):
        region = dot_region(8)
        region.input_streams["b"] = LinearStream("B", length=6)
        with pytest.raises(IrError):
            region.instance_count()

    def test_indivisible_lanes_rejected(self):
        region = dot_region(7, unroll=2)
        region.input_streams["a"] = LinearStream("A", length=7)
        region.input_streams["b"] = LinearStream("B", length=7)
        with pytest.raises(IrError):
            region.instance_count()


class TestInterpreterBasics:
    @pytest.mark.parametrize("unroll", [1, 2, 4])
    def test_dot_product(self, unroll):
        n = 8
        region = dot_region(n, unroll)
        region.input_streams["a"] = LinearStream("A", length=n)
        region.input_streams["b"] = LinearStream("B", length=n)
        mem = {
            "A": list(range(1, n + 1)),
            "B": list(range(n, 0, -1)),
            "C": [0],
        }
        execute_region(region, mem)
        assert mem["C"][0] == sum(
            (i + 1) * (n - i) for i in range(n)
        )

    def test_elementwise_with_const(self):
        dfg = Dfg("scale")
        x = dfg.add_input("x")
        k = dfg.add_const(3)
        y = dfg.add_instr("mul", [x, k])
        dfg.add_output("y", y)
        region = OffloadRegion(
            "scale", dfg,
            input_streams={"x": LinearStream("X", length=4)},
            output_streams={"y": write("Y", 4)},
        )
        mem = {"X": [1, 2, 3, 4], "Y": [0] * 4}
        execute_region(region, mem)
        assert mem["Y"] == [3, 6, 9, 12]

    def test_select_implements_branch(self):
        # y[i] = x[i] > 0 ? x[i] : -x[i]  (abs via select)
        dfg = Dfg("abs")
        x = dfg.add_input("x")
        zero = dfg.add_const(0)
        pred = dfg.add_instr("cmp_gt", [x, zero])
        neg = dfg.add_instr("neg", [x])
        y = dfg.add_instr("select", [pred, x, neg])
        dfg.add_output("y", y)
        region = OffloadRegion(
            "abs", dfg,
            input_streams={"x": LinearStream("X", length=5)},
            output_streams={"y": write("Y", 5)},
        )
        mem = {"X": [-2, 3, 0, -7, 5], "Y": [0] * 5}
        execute_region(region, mem)
        assert mem["Y"] == [2, 3, 0, 7, 5]

    def test_emit_every_reduction(self):
        # Row sums of a 3x4 matrix: acc emits every 4 instances.
        dfg = Dfg("rowsum")
        x = dfg.add_input("x")
        acc = dfg.add_instr("acc", [x], reduction=True, emit_every=4)
        dfg.add_output("s", acc)
        region = OffloadRegion(
            "rowsum", dfg,
            input_streams={
                "x": LinearStream("X", length=4, outer_length=3,
                                  outer_stride=4),
            },
            output_streams={"s": write("S", 3)},
        )
        mem = {"X": list(range(12)), "S": [0] * 3}
        execute_region(region, mem)
        assert mem["S"] == [6, 22, 38]

    @pytest.mark.parametrize("op, pairs, expected", [
        ("mac", [(1, 2), (3, 4), (5, 6), (7, 8)], [14, 86]),
        ("fmac", [(0.5, 4.0), (1.5, 2.0), (2.5, 2.0), (3.0, 1.0)],
         [5.0, 8.0]),
    ])
    def test_ternary_reduction_folds_both_operands(self, op, pairs,
                                                   expected):
        # A reduction supplies one operand fewer than its arity, so a
        # mac reduction computes state = x * y + state: two dot products
        # of two-element rows, hand-computed (1*2 + 3*4 = 14, 5*6 + 7*8
        # = 86; 0.5*4 + 1.5*2 = 5, 2.5*2 + 3*1 = 8).
        dfg = Dfg("dot_mac")
        xy = dfg.add_input("xy", lanes=2)
        acc = dfg.add_instr(op, [(xy, 0), (xy, 1)], reduction=True,
                            emit_every=2)
        dfg.add_output("c", acc)
        region = OffloadRegion(
            "dot_mac", dfg,
            input_streams={"xy": LinearStream("XY", length=8)},
            output_streams={"c": write("C", 2)},
        )
        mem = {"XY": [v for pair in pairs for v in pair], "C": [0, 0]}
        execute_region(region, mem)
        assert mem["C"] == expected
        assert [type(v) for v in mem["C"]] == [type(v) for v in expected]

    def test_predicated_store_filters(self):
        # Write only positive values (resparsification-style filter).
        dfg = Dfg("filter")
        x = dfg.add_input("x")
        zero = dfg.add_const(0)
        pred = dfg.add_instr("cmp_gt", [x, zero])
        kept = dfg.add_instr("copy", [x], predicate=pred)
        dfg.add_output("y", kept)
        region = OffloadRegion(
            "filter", dfg,
            input_streams={"x": LinearStream("X", length=6)},
            output_streams={"y": write("Y", 3)},
        )
        mem = {"X": [1, -2, 3, -4, 5, -6], "Y": [0] * 3}
        execute_region(region, mem)
        assert mem["Y"] == [1, 3, 5]

    def test_gather(self):
        dfg = Dfg("gather")
        v = dfg.add_input("v")
        dfg.add_output("y", dfg.add_instr("copy", [v]))
        region = OffloadRegion(
            "gather", dfg,
            input_streams={
                "v": IndirectStream(
                    "A", index=LinearStream("IDX", length=4)
                ),
            },
            output_streams={"y": write("Y", 4)},
        )
        mem = {"A": [10, 20, 30, 40], "IDX": [3, 0, 2, 2], "Y": [0] * 4}
        execute_region(region, mem)
        assert mem["Y"] == [40, 10, 30, 30]

    def test_scatter(self):
        dfg = Dfg("scatter")
        v = dfg.add_input("v")
        dfg.add_output("y", dfg.add_instr("copy", [v]))
        region = OffloadRegion(
            "scatter", dfg,
            input_streams={"v": LinearStream("V", length=3)},
            output_streams={
                "y": IndirectStream(
                    "A", direction=StreamDirection.WRITE,
                    index=LinearStream("IDX", length=3),
                ),
            },
        )
        mem = {"A": [0] * 5, "IDX": [4, 1, 2], "V": [7, 8, 9]}
        execute_region(region, mem)
        assert mem["A"] == [0, 8, 9, 0, 7]

    def test_atomic_histogram(self):
        dfg = Dfg("hist")
        v = dfg.add_input("v")
        dfg.add_output("upd", dfg.add_instr("copy", [v]))
        region = OffloadRegion(
            "hist", dfg,
            input_streams={"v": ConstStream(array="", value=1, length=6)},
            output_streams={
                "upd": UpdateStream(
                    "H", direction=StreamDirection.WRITE,
                    index=LinearStream("IDX", length=6), update_op="add",
                ),
            },
        )
        mem = {"IDX": [0, 1, 1, 2, 1, 0], "H": [0] * 4}
        execute_region(region, mem)
        assert mem["H"] == [2, 3, 1, 0]

    def test_out_of_range_address_raises(self):
        region = dot_region(8)
        mem = {"A": [0] * 4, "B": [0] * 8, "C": [0]}
        with pytest.raises(IrError):
            execute_region(region, mem)

    def test_unknown_array_raises(self):
        region = dot_region(8)
        mem = {"B": [0] * 8, "C": [0]}
        with pytest.raises(IrError):
            execute_region(region, mem)


class TestJoinRegions:
    def join_region(self, mode="intersect"):
        dfg = Dfg("join")
        k0 = dfg.add_input("k0")
        k1 = dfg.add_input("k1")
        v0 = dfg.add_input("v0")
        v1 = dfg.add_input("v1")
        del k0, k1
        product = dfg.add_instr("mul", [v0, v1])
        acc = dfg.add_instr("acc", [product], reduction=True)
        dfg.add_output("out", acc)
        return OffloadRegion(
            "join", dfg,
            input_streams={
                "k0": LinearStream("K0", length=4),
                "v0": LinearStream("V0", length=4),
                "k1": LinearStream("K1", length=5),
                "v1": LinearStream("V1", length=5),
            },
            output_streams={"out": write("OUT", 1)},
            join_spec=JoinSpec(
                left_key="k0", right_key="k1",
                left_payloads=("v0",), right_payloads=("v1",),
                mode=mode,
            ),
            expected_instances=2,
        )

    def test_sparse_inner_product(self):
        region = self.join_region()
        mem = {
            "K0": [1, 3, 5, 7], "V0": [10, 20, 30, 40],
            "K1": [2, 3, 4, 7, 9], "V1": [1, 2, 3, 4, 5],
            "OUT": [0],
        }
        execute_region(region, mem)
        assert mem["OUT"][0] == 20 * 2 + 40 * 4

    def test_no_matches_yields_identity(self):
        region = self.join_region()
        mem = {
            "K0": [1, 3, 5, 7], "V0": [1, 1, 1, 1],
            "K1": [0, 2, 4, 6, 8], "V1": [1, 1, 1, 1, 1],
            "OUT": [-1],
        }
        execute_region(region, mem)
        assert mem["OUT"][0] == 0

    def test_union_mode_sums_all(self):
        region = self.join_region(mode="union")
        # union: every distinct key fires; absent payload is 0, so the
        # accumulated product only counts matches — but it *fires* 7 times.
        mem = {
            "K0": [1, 3, 5, 7], "V0": [10, 20, 30, 40],
            "K1": [2, 3, 4, 7, 9], "V1": [1, 2, 3, 4, 5],
            "OUT": [0],
        }
        execute_region(region, mem)
        assert mem["OUT"][0] == 20 * 2 + 40 * 4

    def test_join_spec_validation(self):
        spec = JoinSpec(left_key="", right_key="b")
        with pytest.raises(IrError):
            spec.check()
        with pytest.raises(IrError):
            JoinSpec(left_key="a", right_key="b", mode="weird").check()

    def test_join_referencing_unbound_port_rejected(self):
        region = self.join_region()
        del region.input_streams["v1"]
        region.dfg = region.dfg  # keep dfg; validation must flag the port
        with pytest.raises(IrError):
            region.validate()


class TestRecurrenceAndScopes:
    def test_in_place_update(self):
        outer, m = 3, 4
        dfg = Dfg("upd")
        a = dfg.add_input("a")
        b = dfg.add_input("b")
        c = dfg.add_input("c")
        t = dfg.add_instr("mul", [a, b])
        updated = dfg.add_instr("add", [c, t])
        dfg.add_output("c_out", updated)
        region = OffloadRegion(
            "upd", dfg,
            input_streams={
                "a": LinearStream("A", length=m, outer_length=outer,
                                  stride=0, outer_stride=1),
                "b": LinearStream("B", length=m, outer_length=outer),
                "c": [
                    LinearStream("C", length=m),
                    RecurrenceStream(array="", source_port="c_out",
                                     length=(outer - 1) * m),
                ],
            },
            output_streams={
                "c_out": [
                    RecurrenceStream(
                        array="", source_port="c_out",
                        length=(outer - 1) * m,
                        direction=StreamDirection.WRITE,
                    ),
                    write("C", m),
                ],
            },
        )
        a_data, b_data = [2, 3, 4], [1, 2, 3, 4]
        mem = {"A": list(a_data), "B": list(b_data), "C": [0] * m}
        execute_region(region, mem)
        expected = [0] * m
        for i in range(outer):
            for j in range(m):
                expected[j] += a_data[i] * b_data[j]
        assert mem["C"] == expected

    def test_producer_consumer_scope(self):
        # Region 1: v = sum(a); Region 2: b[i] = a[i] - v
        n = 4
        producer_dfg = Dfg("prod")
        a1 = producer_dfg.add_input("a")
        acc = producer_dfg.add_instr("acc", [a1], reduction=True)
        producer_dfg.add_output("v_out", acc)
        producer = OffloadRegion(
            "prod", producer_dfg,
            input_streams={"a": LinearStream("A", length=n)},
            output_streams={
                "v_out": RecurrenceStream(
                    array="", source_port="v_out", length=1,
                    direction=StreamDirection.WRITE,
                ),
            },
        )
        consumer_dfg = Dfg("cons")
        a2 = consumer_dfg.add_input("a")
        v = consumer_dfg.add_input("v")
        diff = consumer_dfg.add_instr("sub", [a2, v])
        consumer_dfg.add_output("b", diff)
        consumer = OffloadRegion(
            "cons", consumer_dfg,
            input_streams={
                "a": LinearStream("A", length=n),
                "v": [
                    RecurrenceStream(array="", source_port="v_out", length=1),
                    ConstStream(array="", value=0, length=n - 1),
                ],
            },
            output_streams={"b": write("B", n)},
        )
        # The consumer broadcasts v: recurrence carries it once; for the
        # functional model we re-add it per-instance via a reduction-free
        # trick — instead bind v as 1 recurrence + zeros and accumulate.
        # Simpler: test with n reads of the forwarded value is not the
        # model; keep lanes consistent by subtracting v only from the
        # first element and zeros elsewhere.
        scope = ConfigScope(
            "s", regions=[producer, consumer],
            forwards=[("prod", "v_out", "cons", "v")],
        )
        mem = {"A": [1, 2, 3, 4], "B": [0] * n}
        execute_scope(scope, mem)
        assert mem["B"][0] == 1 - 10
        assert mem["B"][1:] == [2, 3, 4]

    def test_scope_validation_catches_bad_forward(self):
        region = dot_region(8)
        scope = ConfigScope(
            "s", regions=[region],
            forwards=[("dot", "c", "dot", "a")],
        )
        with pytest.raises(IrError):
            scope.validate()

    def test_duplicate_region_names_rejected(self):
        scope = ConfigScope("s", regions=[dot_region(8), dot_region(8)])
        with pytest.raises(IrError):
            scope.validate()

    def test_lag_violation_detected(self):
        # Recurrence read before anything is produced.
        dfg = Dfg("bad")
        x = dfg.add_input("x")
        y = dfg.add_instr("abs", [x])
        dfg.add_output("y_out", y)
        region = OffloadRegion(
            "bad", dfg,
            input_streams={
                "x": RecurrenceStream(array="", source_port="y_out", length=2),
            },
            output_streams={
                "y_out": RecurrenceStream(
                    array="", source_port="y_out", length=2,
                    direction=StreamDirection.WRITE,
                ),
            },
        )
        with pytest.raises(IrError):
            execute_region(region, {})

    @settings(max_examples=25)
    @given(
        values=st.lists(st.integers(-50, 50), min_size=1, max_size=32),
    )
    def test_sum_matches_python(self, values):
        dfg = Dfg("sum")
        x = dfg.add_input("x")
        acc = dfg.add_instr("acc", [x], reduction=True)
        dfg.add_output("s", acc)
        region = OffloadRegion(
            "sum", dfg,
            input_streams={"x": LinearStream("X", length=len(values))},
            output_streams={"s": write("S", 1)},
        )
        mem = {"X": list(values), "S": [0]}
        execute_region(region, mem)
        assert mem["S"][0] == sum(values)
