"""The stream-join transform and its serialized fallback (Section IV-E).

Control-dependent memory access (merge joins, sparse tensor ops) naively
maps with a recurrence from the control decision back to the pointer
increments — a long dependence chain. The stream-join transform decouples
the accesses and reuses inputs under dataflow control, which is only
valid on dynamically scheduled PEs.

``make_join_region`` builds either form:

* ``use_join=True`` — a :class:`~repro.ir.region.JoinSpec` region the
  scheduler will pin to dynamic PEs;
* ``use_join=False`` — the *fallback*: functionally identical join
  semantics, but marked ``serial_join`` so (a) the scheduler may place it
  on any PE and (b) timing/performance honor the serialized pointer-
  chasing recurrence (``forced_recurrence`` metadata), reproducing the
  paper's observation that the naive form is recurrence-limited.
"""

from repro.errors import CompilationError
from repro.ir.region import JoinSpec, OffloadRegion

#: Dependence cycles of the naive (serialized) join: compare (1) + branch
#: resolution through the network back to the address pipeline. Matches
#: the ~6-cycle decision loops reported for CGRA merge loops [20].
SERIAL_JOIN_RECURRENCE = 6


def make_join_region(
    name,
    dfg,
    input_streams,
    output_streams,
    left_key,
    right_key,
    left_payloads=(),
    right_payloads=(),
    mode="intersect",
    use_join=True,
    expected_instances=0,
    frequency=1.0,
    metadata=None,
):
    """Build a join region in either transformed or fallback form."""
    spec = JoinSpec(
        left_key=left_key,
        right_key=right_key,
        left_payloads=tuple(left_payloads),
        right_payloads=tuple(right_payloads),
        mode=mode,
    )
    spec.check()
    region_metadata = dict(metadata or {})
    if not use_join:
        region_metadata["serial_join"] = True
        region_metadata["forced_recurrence"] = max(
            region_metadata.get("forced_recurrence", 0),
            SERIAL_JOIN_RECURRENCE,
        )
    region = OffloadRegion(
        name,
        dfg,
        input_streams=input_streams,
        output_streams=output_streams,
        join_spec=spec,
        expected_instances=expected_instances,
        frequency=frequency,
        metadata=region_metadata,
    )
    return region


def estimate_join_instances(left_length, right_length, mode="intersect"):
    """Trip-count estimate for data-dependent joins.

    The merge loop performs roughly ``left + right`` comparisons before
    both inputs drain, regardless of how many keys match, and each
    comparison occupies the join pipeline for a cycle (or a full
    decision loop in the serialized fallback) — so the loop trip count,
    not the match count, is what the performance model needs.
    """
    if mode not in ("intersect", "union"):
        raise CompilationError(f"unknown join mode {mode!r}")
    return max(1, left_length + right_length)
