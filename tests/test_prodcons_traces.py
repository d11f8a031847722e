"""Tests for producer-consumer forwarding and interpreter traces."""

import pytest

from repro.compiler.transforms.prodcons import forward_value
from repro.ir import (
    ConfigScope,
    Dfg,
    LinearStream,
    OffloadRegion,
    execute_scope,
)
from repro.ir.stream import RecurrenceStream, StreamDirection
from repro.workloads import kernel as make_kernel
from repro.compiler.kernel import VariantParams


def producer_consumer_scope(n=8, forwarded=True):
    """Producer computes s = sum(a); consumer writes b[i] = a[i] * s."""
    producer_dfg = Dfg("prod")
    a1 = producer_dfg.add_input("a")
    total = producer_dfg.add_instr("acc", [a1], reduction=True)
    producer_dfg.add_output("s_out", total)
    producer = OffloadRegion(
        "prod", producer_dfg,
        input_streams={"a": LinearStream("A", length=n)},
        output_streams={
            "s_out": LinearStream("S", direction=StreamDirection.WRITE,
                                  length=1),
        },
    )
    consumer_dfg = Dfg("cons")
    a2 = consumer_dfg.add_input("a")
    s = consumer_dfg.add_input("s")
    product = consumer_dfg.add_instr("mul", [a2, s])
    consumer_dfg.add_output("b", product)
    consumer = OffloadRegion(
        "cons", consumer_dfg,
        input_streams={
            "a": LinearStream("A", length=n),
            "s": LinearStream("S", length=1, stride=0,
                              outer_length=n, outer_stride=0),
        },
        output_streams={
            "b": LinearStream("B", direction=StreamDirection.WRITE,
                              length=n),
        },
    )
    scope = ConfigScope("pc", regions=[producer, consumer])
    if forwarded:
        # Replace the memory round-trip on s with a forwarded broadcast
        # (the value never touches memory in this lowering).
        consumer.input_streams["s"] = RecurrenceStream(
            array="", source_port="s_out", length=n, repeat=n,
        )
        producer.output_streams["s_out"] = RecurrenceStream(
            array="", source_port="s_out", length=1,
            direction=StreamDirection.WRITE,
        )
        scope.forwards.append(("prod", "s_out", "cons", "s"))
    else:
        # The fallback: a memory fence after the producer, so the
        # consumer reads the value back from memory.
        scope.barriers.append("prod")
    return scope


class TestProducerConsumer:
    @pytest.mark.parametrize("forwarded", [True, False])
    def test_both_lowerings_compute_the_same(self, forwarded):
        n = 8
        scope = producer_consumer_scope(n, forwarded)
        memory = {"A": list(range(1, n + 1)), "S": [0], "B": [0] * n}
        execute_scope(scope, memory)
        total = sum(range(1, n + 1))
        if not forwarded:
            assert memory["S"][0] == total
        assert memory["B"] == [v * total for v in range(1, n + 1)]

    def test_fallback_adds_barrier(self):
        scope = producer_consumer_scope(8, forwarded=False)
        assert "prod" in scope.barriers

    def test_forward_value_helper_wires_everything(self):
        scope = producer_consumer_scope(8, forwarded=False)
        scope.barriers.clear()
        consumer = scope.region("cons")
        consumer.input_streams["s"] = []  # helper fills it
        forward_value(scope, "prod", "s_out", "cons", "s", length=1)
        assert scope.forwards == [("prod", "s_out", "cons", "s")]
        from repro.ir.region import as_stream_list

        streams = as_stream_list(consumer.input_streams["s"])
        assert any(isinstance(s, RecurrenceStream) for s in streams)
        assert "prod" in consumer.metadata["forwarded_from"]


class TestInterpreterTraces:
    def test_trace_counts_instances_and_emissions(self):
        workload = make_kernel("classifier", 0.05)
        scope = workload.build(VariantParams(unroll=2))
        memory = workload.make_memory()
        trace = {}
        execute_scope(scope, memory, trace=trace)
        mac = trace[f"{workload.name}_mac"]
        act = trace[f"{workload.name}_act"]
        assert mac["instances"] > act["instances"]
        # The mac region emits once per output neuron.
        assert sum(mac["emitted"]["s_out"]) == act["instances"]
        # Every activation instance emits exactly one word.
        assert all(c == 1 for c in act["emitted"]["y"])

    def test_join_pop_trace_conserves_keys(self):
        workload = make_kernel("join", 0.05)
        scope = workload.build(VariantParams(use_join=True))
        memory = workload.make_memory()
        left_len = len(memory["K0"])
        right_len = len(memory["K1"])
        trace = {}
        execute_scope(scope, memory, trace=trace)
        pops = trace["join"]["join_pops"]
        total_left = sum(left for left, _ in pops)
        total_right = sum(r for _, r in pops)
        assert total_left == left_len
        assert total_right == right_len

    def test_compacting_trace_matches_survivors(self):
        workload = make_kernel("resparsify", 0.05)
        scope = workload.build(VariantParams())
        memory = workload.make_memory()
        trace = {}
        execute_scope(scope, memory, trace=trace)
        record = trace["resparsify"]
        survivors = sum(record["emitted"]["val"])
        import copy

        golden = copy.deepcopy(workload.make_memory())
        workload.reference(golden)
        expected = sum(
            1 for v in workload.make_memory()["C"] if abs(v) > 2.0
        )
        assert survivors == expected
        del golden
