"""Indirect memory access encoding and the scalar fallback (Section IV-E).

With an indirect memory controller, ``a[b[i]]`` gathers/scatters and
``a[b[i]] += v`` updates are encoded as single stream intrinsics and
vectorized across banks. Without one, "the compiler will fall back to
generating scalar operations for this memory access": the control core
dereferences each index itself. Functionally both forms are identical —
the fallback is the same stream marked ``scalarized``, which the
performance model and simulator charge at core-issued-load throughput.
"""

from repro.ir.stream import (
    IndirectStream,
    LinearStream,
    StreamDirection,
    UpdateStream,
)

#: Control-core cycles per scalarized indirect access (address compute +
#: load/store issue on an in-order core).
SCALAR_ACCESS_CYCLES = 4


def gather_stream(array, index, use_indirect=True, index_scale=1,
                  index_offset=0, word_bytes=8):
    """A read of ``array[index[i]]``.

    ``index`` is the :class:`LinearStream` over the index array.
    """
    stream = IndirectStream(
        array,
        direction=StreamDirection.READ,
        index=index,
        index_scale=index_scale,
        index_offset=index_offset,
        word_bytes=word_bytes,
    )
    stream.scalarized = not use_indirect
    return stream


def update_stream(array, index, op="add", use_atomic=True, index_scale=1,
                  index_offset=0, word_bytes=8):
    """An atomic ``array[index[i]] op= v`` update.

    With ``use_atomic`` the in-bank units perform the read-modify-write;
    otherwise the same stream is ``scalarized`` (the core serializes the
    updates, which also resolves the read-after-write hazards it would
    otherwise race on).
    """
    stream = UpdateStream(
        array,
        direction=StreamDirection.WRITE,
        index=index,
        update_op=op,
        index_scale=index_scale,
        index_offset=index_offset,
        word_bytes=word_bytes,
    )
    stream.scalarized = not use_atomic
    return stream


def index_stream(array, length, offset=0, stride=1, outer_length=1,
                 outer_stride=0, word_bytes=8):
    """Convenience: the linear stream fetching the index array."""
    return LinearStream(
        array,
        direction=StreamDirection.READ,
        offset=offset,
        stride=stride,
        length=length,
        outer_length=outer_length,
        outer_stride=outer_stride,
        word_bytes=word_bytes,
    )
