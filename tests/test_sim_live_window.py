"""The event engine's live-segment window.

``_Replay._snapshot_key`` keys, and the bulk-fire step advances, only
the *live* segments: on an input port the one under the cursor, on an
output port those between the drain cursor and the production cursor.
That is exact only if every other segment is frozen. At every probe,
on every registry workload and on randomized FIFO-depth/bank shapes,
this checks:

* every output segment below the window is fully filled and moved, and
  every one above it has ``filled == moved == 0`` and no carry;
* every input segment below the live one is fully moved, and every one
  above it has ``moved == 0`` and no carry;
* between two probes, an input segment moves only if it is the live
  one at either probe or the cursor passed over it in between.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.machine as machine
from repro.errors import SimulationError
from repro.sim import simulate
from repro.workloads import kernel as make_kernel
from repro.workloads.registry import workload_names
from tests.engine_parity import SPU_ONLY, compiled_for


def _live_indices(port, live_ids):
    indices = [i for i, seg in enumerate(port.segments)
               if id(seg) in live_ids]
    if indices:
        assert indices == list(range(indices[0], indices[-1] + 1)), (
            f"{port.name}: live segments {indices} are not contiguous"
        )
    return indices


def _split(port, indices, finished, untouched):
    """The window's first index: every segment below the window must be
    ``finished`` and every one above it ``untouched``. An empty window
    sits where the untouched tail begins."""
    segments = port.segments
    if indices:
        low, high = indices[0], indices[-1] + 1
    else:
        low = len(segments)
        while low and untouched(segments[low - 1]):
            low -= 1
        high = low
    for i, seg in enumerate(segments[:low]):
        assert finished(seg), (
            f"{port.name}: segment {i} below the window "
            f"[{low}, {high}) is not finished "
            f"(filled {seg.filled}, moved {seg.moved} of {seg.words})"
        )
    for i, seg in enumerate(segments[high:], start=high):
        assert untouched(seg), (
            f"{port.name}: segment {i} above the window "
            f"[{low}, {high}) has state (filled {seg.filled}, "
            f"moved {seg.moved}, carry {seg._carry})"
        )
    return low


def _out_finished(seg):
    return seg.filled == seg.moved == seg.words


def _out_untouched(seg):
    return seg.filled == 0 and seg.moved == 0 and seg._carry == 0.0


def _in_finished(seg):
    return seg.moved == seg.words


def _in_untouched(seg):
    return seg.moved == 0 and seg._carry == 0.0


def check_probe(replay, previous):
    """Assert the window invariants at one probe; returns what the next
    probe's between-probes check compares against."""
    live_out = {id(seg) for seg in replay._live_out}
    live_in = {id(seg) for seg in replay._live_in}
    current = {}
    for state in replay.state_list:
        for port in state.out_ports.values():
            _split(port, _live_indices(port, live_out),
                   _out_finished, _out_untouched)
        for port, _lanes in state.in_ports.values():
            indices = _live_indices(port, live_in)
            assert len(indices) <= 1, (
                f"{port.name}: {len(indices)} live input segments"
            )
            low = _split(port, indices, _in_finished, _in_untouched)
            moved = [seg.moved for seg in port.segments]
            if id(port) in previous:
                before_low, before = previous[id(port)]
                for i, (now, then) in enumerate(zip(moved, before)):
                    assert now == then or before_low <= i <= low, (
                        f"{port.name}: segment {i} moved between probes "
                        f"while the live one went {before_low} -> {low}"
                    )
            current[id(port)] = (low, moved)
    return current


def check_every_probe(monkeypatch):
    """Wrap ``_snapshot_key`` so every probe checks the invariants;
    returns the list of per-replay probe counts it fills."""
    original = machine._Replay._snapshot_key
    seen = {}
    counts = []

    def checked(replay):
        key = original(replay)
        if id(replay) not in seen:
            seen.clear()
            counts.append(0)
        seen[id(replay)] = check_probe(replay, seen.get(id(replay), {}))
        counts[-1] += 1
        return key

    monkeypatch.setattr(machine._Replay, "_snapshot_key", checked)
    return counts


def _simulate(name, scale=0.05, depth=None, banks=None):
    accel = "spu" if name in SPU_ONLY else "softbrain"
    adg, compiled = compiled_for(name, accel, scale=scale, depth=depth,
                                 banks=banks)
    if not compiled.ok:
        return False
    memory = make_kernel(name, scale).make_memory()
    bound = copy.deepcopy(compiled)
    bound.scope.bind_constants(memory)
    try:
        simulate(adg, bound, memory, engine="event")
    except SimulationError:
        pass  # a stressed shape may deadlock; its probes were checked
    return True


@pytest.mark.parametrize("name", workload_names())
def test_window_invariants_on_registry(name, monkeypatch):
    counts = check_every_probe(monkeypatch)
    assert _simulate(name)
    assert counts and all(count > 0 for count in counts)


@settings(max_examples=10, deadline=None)
@given(
    name=st.sampled_from(
        ["mm", "ellpack", "histogram", "stencil2d", "pool",
         "join", "spmm_outer", "fft", "pb_2mm"]
    ),
    depth=st.sampled_from([None, 1, 2]),
    banks=st.sampled_from([None, 1, 4]),
    scale=st.sampled_from([0.03, 0.05]),
)
def test_window_invariants_on_random_shapes(name, depth, banks, scale):
    with pytest.MonkeyPatch.context() as patch:
        counts = check_every_probe(patch)
        _simulate(name, scale=scale, depth=depth, banks=banks)
    assert all(count > 0 for count in counts)
