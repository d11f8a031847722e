"""The functional interpreter's column path against its instance loop.

``execute_region`` runs a region without join, recurrence, reduction or
predicate a phase at a time (``interp._run_phases``). Every check here
runs the same input twice, once as it is and once with the column path
switched off, and requires the same outcome: final memory (element type
and value), produced words, the replay trace and the error raised.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import (
    ConstStream,
    Dfg,
    LinearStream,
    OffloadRegion,
    StreamDirection,
    UpdateStream,
    execute_region,
    interp,
)
from repro.workloads import kernel as make_kernel
from repro.workloads.registry import workload_names
from tests.engine_parity import compiled_for
from tests.test_interp_parity import SCALE, variant_facts


def count_calls(monkeypatch):
    """Count :class:`_DfgEvaluator` ``run_columns``/``run_instance``
    calls while ``monkeypatch`` is active."""
    calls = {"run_columns": 0, "run_instance": 0}
    for name in calls:
        original = getattr(interp._DfgEvaluator, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)
        monkeypatch.setattr(interp._DfgEvaluator, name, counted)
    return calls


def both_paths(run):
    """``(run() with the column path, run() without it, the evaluator
    calls of the first run)``."""
    with pytest.MonkeyPatch.context() as patch:
        calls = count_calls(patch)
        columnar = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(interp._DfgEvaluator, "_straight_line",
                      lambda self, dfg: False)
        scalar = run()
    return columnar, scalar, calls


def _element(value):
    return type(value).__name__, repr(value)


def outcome(region, memory):
    """Everything one run of ``region`` on a copy of ``memory`` leaves."""
    memory = copy.deepcopy(memory)
    trace = {}
    try:
        produced = execute_region(region, memory, trace=trace)
        error = None
    except Exception as exc:  # the two paths must raise alike
        produced = None
        error = (type(exc).__name__, str(exc))
    return (
        error,
        {name: [_element(v) for v in data] for name, data in memory.items()},
        produced,
        trace,
    )


def write(array, length, **kwargs):
    return LinearStream(
        array, direction=StreamDirection.WRITE, length=length, **kwargs
    )


def unary_region(op, inputs, outputs, const=None):
    """``y = op(x)`` (or ``op(x, const)``) per instance, on one port each."""
    dfg = Dfg("unary")
    x = dfg.add_input("x")
    operands = [x] if const is None else [x, dfg.add_const(const)]
    dfg.add_output("y", dfg.add_instr(op, operands))
    return OffloadRegion(
        "unary", dfg, input_streams={"x": inputs},
        output_streams={"y": outputs},
    )


def assert_same(region, memory):
    """Both paths leave the same :func:`outcome`; returns it and the
    column run's evaluator calls."""
    fast, slow, calls = both_paths(lambda: outcome(region, memory))
    assert fast == slow
    return fast, calls


@pytest.mark.parametrize("name", workload_names())
def test_registry_variants_agree(name):
    kernel = make_kernel(name, SCALE)
    for params, scope in kernel.variants():
        fast, slow, _calls = both_paths(
            lambda: variant_facts(kernel, params, scope))
        assert fast == slow, params


#: Where the column path must run: ``(kernel, takes it)`` at the scale
#: the ``sim-paper`` benchmark compiles the Fig. 10 kernels.
FIG10_PATHS = (
    ("histogram", True), ("stencil2d", True), ("fft", True),
    ("mm", False), ("pb_2mm", False),
)


@pytest.mark.parametrize("name,columnar", FIG10_PATHS)
def test_fig10_kernels_take_the_expected_path(monkeypatch, name, columnar):
    kernel = make_kernel(name, 0.3)
    _adg, compiled = compiled_for(name, "softbrain", scale=0.3)
    assert compiled.ok
    memory = kernel.make_memory()
    compiled.scope.bind_constants(memory)
    calls = count_calls(monkeypatch)
    interp.execute_scope(compiled.scope, memory)
    if columnar:
        assert calls["run_columns"] > 0
        assert calls["run_instance"] == 0
    else:
        assert calls["run_columns"] == 0
        assert calls["run_instance"] > 0


def values_of(memory_after, name):
    return [value for _type, value in memory_after[name]]


class TestErrors:
    def test_store_out_of_range_mid_phase(self):
        region = unary_region("mul", LinearStream("X", length=8),
                              write("Y", 8), const=3)
        memory = {"X": list(range(8)), "Y": [0] * 5}
        (error, after, _produced, trace), calls = assert_same(region, memory)
        assert error[0] == "IrError" and "address 5" in error[1]
        assert values_of(after, "Y") == ["0", "3", "6", "9", "12"]
        assert trace["unary"]["instances"] == 6
        assert calls == {"run_columns": 1, "run_instance": 0}

    def test_store_out_of_range_on_a_later_port(self):
        dfg = Dfg("pair")
        x = dfg.add_input("x")
        dfg.add_output("y", dfg.add_instr("add", [x, dfg.add_const(1)]))
        dfg.add_output("z", dfg.add_instr("sub", [x, dfg.add_const(1)]))
        region = OffloadRegion(
            "pair", dfg,
            input_streams={"x": LinearStream("X", length=6)},
            output_streams={"y": write("Y", 6), "z": write("Z", 6)},
        )
        memory = {"X": list(range(6)), "Y": [0] * 6, "Z": [0] * 4}
        (error, after, _produced, trace), calls = assert_same(region, memory)
        assert "address 4" in error[1]
        assert values_of(after, "Y") == ["1", "2", "3", "4", "5", "0"]
        assert trace["pair"]["emitted"] == {"y": [1] * 5, "z": [1] * 5}
        assert calls["run_instance"] == 0

    def test_load_out_of_range_in_a_later_segment(self):
        region = unary_region(
            "copy",
            [LinearStream("X", length=4),
             LinearStream("X", offset=6, length=4)],
            write("Y", 8),
        )
        memory = {"X": list(range(8)), "Y": [0] * 8}
        (error, after, _produced, trace), _calls = assert_same(region,
                                                               memory)
        assert "address 8" in error[1]
        assert values_of(after, "Y")[:5] == ["0", "1", "2", "3", "0"]
        assert trace["unary"]["instances"] == 4

    def test_integer_op_on_a_float_reruns_the_phase(self):
        region = unary_region("add", LinearStream("X", length=4),
                              write("Y", 4), const=1)
        memory = {"X": [1, 2, 2.5, 4], "Y": [0] * 4}
        (error, after, _produced, _trace), calls = assert_same(region,
                                                               memory)
        assert error[0] == "TypeError"
        assert values_of(after, "Y") == ["2", "3", "0", "0"]
        # The column computation raised and the phase re-ran instance by
        # instance up to the failing third one.
        assert calls == {"run_columns": 1, "run_instance": 3}

    def test_update_out_of_range_mid_phase(self):
        region = unary_region(
            "copy", LinearStream("V", length=5),
            UpdateStream("H", direction=StreamDirection.WRITE,
                         index=LinearStream("IDX", length=5),
                         update_op="add"),
        )
        memory = {"V": [1, 2, 3, 4, 5], "IDX": [0, 1, 0, 9, 1],
                  "H": [0, 0]}
        (error, after, _produced, _trace), _calls = assert_same(region,
                                                                memory)
        assert "address 9" in error[1]
        assert values_of(after, "H") == ["4", "2"]

    def test_more_words_than_the_streams_take(self):
        region = unary_region("copy", LinearStream("X", length=4),
                              write("Y", 3))
        memory = {"X": [1, 2, 3, 4], "Y": [0] * 3}
        (error, _after, _produced, trace), _calls = assert_same(region,
                                                                memory)
        assert "more words than its streams consume" in error[1]
        assert trace["unary"]["instances"] == 4


class TestSemantics:
    def test_in_place_phases_read_earlier_phases_writes(self):
        # Three passes over X, each storing it back doubled and reversed:
        # a pass must read what the previous pass stored.
        region = unary_region(
            "mul",
            [LinearStream("X", length=4) for _ in range(3)],
            [write("X", 4, offset=3, stride=-1) for _ in range(3)],
            const=2,
        )
        (_error, after, _produced, _trace), calls = assert_same(
            region, {"X": [1, 2, 3, 4]})
        assert values_of(after, "X") == ["32", "24", "16", "8"]
        assert calls == {"run_columns": 3, "run_instance": 0}

    def test_update_clamp_applies_in_order(self):
        big = (1 << 63) - 2
        region = unary_region(
            "copy", LinearStream("V", length=4),
            UpdateStream("H", direction=StreamDirection.WRITE,
                         index=LinearStream("IDX", length=4),
                         update_op="add"),
        )
        memory = {"V": [big, 5, -7, 1], "IDX": [0, 0, 0, 1], "H": [1, 0]}
        (_error, after, _produced, _trace), _calls = assert_same(region,
                                                                 memory)
        # 1 + big + 5 wraps to -2**63 + 4; adding -7 wraps back.
        assert values_of(after, "H") == [str((1 << 63) - 3), "1"]

    def test_lanes_straddle_a_segment(self):
        dfg = Dfg("lanes")
        x = dfg.add_input("x", lanes=2)
        dfg.add_output("y", dfg.add_instr("fadd", [(x, 0), (x, 1)]))
        region = OffloadRegion(
            "lanes", dfg,
            input_streams={"x": [LinearStream("X", length=3),
                                 LinearStream("X", offset=3, length=5)]},
            output_streams={"y": write("X", 4, offset=2)},
        )
        memory = {"X": [float(v) for v in range(8)]}
        _outcome, calls = assert_same(region, memory)
        assert calls == {"run_columns": 2, "run_instance": 0}

    def test_select_const_and_multi_ref_outputs(self):
        dfg = Dfg("sel")
        a = dfg.add_input("a")
        b = dfg.add_input("b")
        less = dfg.add_instr("cmp_lt", [a, b])
        low = dfg.add_instr("select", [less, a, b])
        dfg.add_output("y", [low, dfg.add_const(7), a])
        region = OffloadRegion(
            "sel", dfg,
            input_streams={"a": LinearStream("A", length=5),
                           "b": ConstStream(array="", value=3, length=5)},
            output_streams={"y": write("Y", 15)},
        )
        memory = {"A": [5, 1, 3, 0, 9], "Y": [0] * 15}
        (_error, after, _produced, _trace), calls = assert_same(region,
                                                                memory)
        assert values_of(after, "Y")[:6] == ["3", "7", "5", "1", "7", "1"]
        assert calls["run_instance"] == 0

    def test_none_input_reruns_the_phase(self):
        survivors = write("Y", 3)
        survivors.compacting = True  # None words are dropped
        region = unary_region("copy", LinearStream("X", length=3),
                              survivors)
        memory = {"X": [1, None, 3], "Y": [0] * 3}
        (_error, _after, produced, trace), calls = assert_same(region,
                                                               memory)
        assert produced == {"y": [1, 3]}
        assert trace["unary"]["emitted"] == {"y": [1, 0, 1]}
        assert calls == {"run_columns": 0, "run_instance": 3}

    def test_paired_update_words(self):
        dfg = Dfg("paired")
        i = dfg.add_input("i")
        v = dfg.add_input("v")
        dfg.add_output("p", [i, v])
        region = OffloadRegion(
            "paired", dfg,
            input_streams={"i": LinearStream("I", length=4),
                           "v": LinearStream("V", length=4)},
            output_streams={"p": UpdateStream(
                "H", direction=StreamDirection.WRITE,
                index=LinearStream("I", length=0), update_op="max",
                paired_index=True, pair_count=4)},
        )
        memory = {"I": [1, 0, 1, 1], "V": [4, 2, 9, 3], "H": [0, 0]}
        (_error, after, _produced, _trace), _calls = assert_same(region,
                                                                 memory)
        assert values_of(after, "H") == ["2", "9"]


@settings(max_examples=60, deadline=None)
@given(
    segments=st.lists(st.integers(0, 5), min_size=1, max_size=4),
    lanes=st.sampled_from([1, 2]),
    offset=st.integers(0, 6),
    stride=st.sampled_from([1, -1, 2]),
    size=st.integers(4, 12),
)
def test_in_place_segments_agree(segments, lanes, offset, stride, size):
    """Random segment cuts of a region that reads and writes one array:
    both paths agree, out-of-range errors included."""
    dfg = Dfg("fuzz")
    x = dfg.add_input("x", lanes=lanes)
    total = dfg.add_instr("mul", [(x, 0), dfg.add_const(3)])
    if lanes == 2:
        total = dfg.add_instr("sub", [total, (x, 1)])
    dfg.add_output("y", total)
    reads = [LinearStream("X", offset=index % size, length=length * lanes)
             for index, length in enumerate(segments)]
    instances = sum(segments)
    writes = [write("X", instances, offset=offset, stride=stride)]
    region = OffloadRegion("fuzz", dfg, input_streams={"x": reads},
                           output_streams={"y": writes})
    memory = {"X": list(range(size))}
    assert_same(region, memory)
