"""Memory streams: coarse-grained access patterns.

A stream is the unit the control core hands to a memory engine
(Section III-A "Memories"). Two controllers exist in the design space:

* the **linear** controller generates inductive 2D affine patterns
  (REVEL-style [92]): an inner run of ``length`` words strided by
  ``stride``, repeated ``outer_length`` times with the start advancing by
  ``outer_stride`` — and, inductively, the inner length growing by
  ``length_stretch`` per outer iteration (triangular patterns for qr/chol);
* the **indirect** controller generates gather/scatter ``a[b[i]]``
  patterns and atomic read-modify-write updates (SPU-style [20]).

All offsets/strides/lengths are in *words* of ``word_bytes`` bytes;
:meth:`addresses` yields word addresses relative to the named array.
"""

import enum
from dataclasses import dataclass

from repro.errors import IrError


class StreamDirection(enum.Enum):
    READ = "read"    # memory -> input port
    WRITE = "write"  # output port -> memory


@dataclass
class StreamBase:
    """Fields shared by every stream kind."""

    array: str                     # symbolic array the stream touches
    direction: StreamDirection = StreamDirection.READ
    word_bytes: int = 8
    port: str = ""                 # sync-element name, bound at codegen

    def check(self):
        if self.word_bytes not in (1, 2, 4, 8):
            raise IrError(f"unsupported word size {self.word_bytes}")

    @property
    def is_read(self):
        return self.direction is StreamDirection.READ


@dataclass
class LinearStream(StreamBase):
    """Inductive 2D affine stream.

    word index for (outer ``o``, inner ``i``):
    ``offset + o * outer_stride + i * stride`` with inner trip count
    ``length + o * length_stretch``.
    """

    offset: int = 0
    stride: int = 1
    length: int = 1
    outer_stride: int = 0
    outer_length: int = 1
    length_stretch: int = 0

    def check(self):
        super().check()
        if self.length < 0 or self.outer_length < 1:
            raise IrError(f"bad trip counts in {self}")
        if self.length_stretch and (
            self.length + (self.outer_length - 1) * self.length_stretch < 0
        ):
            raise IrError(f"inductive stream {self} goes negative")

    def addresses(self):
        """Yield word addresses in issue order."""
        for outer in range(self.outer_length):
            inner_trip = self.length + outer * self.length_stretch
            base = self.offset + outer * self.outer_stride
            for inner in range(inner_trip):
                yield base + inner * self.stride

    def volume(self):
        """Total words touched."""
        total = 0
        for outer in range(self.outer_length):
            total += self.length + outer * self.length_stretch
        return total


@dataclass
class IndirectStream(StreamBase):
    """Gather (``a[b[i]]`` read) or scatter (``a[b[i]] = v`` write).

    ``index`` is the linear stream producing the index values from the
    index array; this stream dereferences ``array`` at those indices
    (optionally scaled/offset).
    """

    index: LinearStream = None
    index_scale: int = 1
    index_offset: int = 0

    def check(self):
        super().check()
        if self.index is None:
            raise IrError("indirect stream requires an index stream")
        self.index.check()
        if not self.index.is_read:
            raise IrError("index stream must be a read stream")

    def volume(self):
        return self.index.volume()

    def addresses(self, index_values):
        """Yield word addresses given the fetched index values."""
        for value in index_values:
            yield self.index_offset + int(value) * self.index_scale


@dataclass
class UpdateStream(IndirectStream):
    """Atomic read-modify-write: ``array[index[i]] op= value[i]``.

    Executed by in-bank compute units when the memory has
    ``atomic_update`` (Section III-A); otherwise the compiler falls back
    to scalar control-core code.

    With ``paired_index`` the addresses are *computed on the fabric* (SPU
    outer-product style): the bound output port emits ``(address, value)``
    pairs — ``pair_count`` of them — and no memory-side index stream is
    used.
    """

    update_op: str = "add"
    paired_index: bool = False
    pair_count: int = 0

    def check(self):
        if self.paired_index:
            StreamBase.check(self)
            if self.pair_count < 1:
                raise IrError("paired update stream needs pair_count >= 1")
        else:
            super().check()
        if self.direction is not StreamDirection.WRITE:
            raise IrError("update streams are writes")

    def volume(self):
        if self.paired_index:
            return self.pair_count
        return super().volume()


@dataclass
class ConstStream(StreamBase):
    """A constant delivered ``length`` times (e.g. a scalar loop invariant
    broadcast into the fabric)."""

    value: float = 0
    length: int = 1

    def __post_init__(self):
        self.array = self.array or "__const__"

    def check(self):
        super().check()
        if self.length < 1:
            raise IrError("const stream needs length >= 1")

    def volume(self):
        return self.length

    def values(self):
        for _ in range(self.length):
            yield self.value


@dataclass
class RecurrenceStream(StreamBase):
    """Fabric-to-fabric recurrence: an output port recycled into an input
    port without touching memory (the producer-consumer and repetitive-
    update optimizations of Section IV-D lower to these).

    ``repeat`` models non-discarding port reads: each forwarded word is
    delivered ``repeat`` times before the next is popped (how a forwarded
    scalar is broadcast to every instance of a consumer region). A reader
    of ``length`` words with ``repeat=r`` pops ``length / r`` distinct
    words from the source.
    """

    source_port: str = ""
    length: int = 1
    repeat: int = 1

    def __post_init__(self):
        self.array = self.array or "__recur__"

    def check(self):
        super().check()
        if not self.source_port:
            raise IrError("recurrence stream needs a source port")
        if self.length < 1:
            raise IrError("recurrence stream needs length >= 1")
        if self.repeat < 1 or self.length % self.repeat:
            raise IrError(
                f"recurrence repeat {self.repeat} must divide length "
                f"{self.length}"
            )

    def volume(self):
        return self.length


def stream_requests(stream, line_words=8, coalescing=False):
    """Estimate memory-line requests a stream issues (bandwidth model).

    Contiguous words within one ``line_words``-aligned line coalesce into
    a single request; strided/indirect accesses cost one request per word.
    With ``coalescing`` (a hardware request-coalescing unit on the bound
    memory), strided linear accesses shorter than a line merge too.
    Used by the performance model (Section V-B).
    """
    if isinstance(stream, ConstStream) or isinstance(stream, RecurrenceStream):
        return 0
    if isinstance(stream, IndirectStream):
        # Indirect requests hit arbitrary banks: one request per word.
        return stream.volume()
    if isinstance(stream, LinearStream):
        if getattr(stream, "coalesced", False):
            # Manually tuned code combines same-line requests (the fft
            # peephole the paper describes in Section VIII-A).
            return -(-stream.volume() // line_words)
        if stream.stride == 0:
            # A repeated scalar is fetched once per outer iteration and
            # reused from the stream buffer.
            return stream.outer_length
        if coalescing:
            # The coalescing unit merges same-line words regardless of
            # the pattern shape: a strided run yields line/stride useful
            # words per line; short unit-stride runs whose outer stride
            # stays within a line (fft's early stages) merge across
            # iterations.
            if 1 < abs(stream.stride) < line_words:
                per_line = max(1, line_words // abs(stream.stride))
                return -(-stream.volume() // per_line)
            if (abs(stream.stride) == 1 and stream.length < line_words
                    and 0 < stream.outer_stride < line_words):
                per_line = max(
                    1,
                    (line_words // stream.outer_stride) * stream.length,
                )
                return -(-stream.volume() // per_line)
        if abs(stream.stride) == 1:
            total = 0
            for outer in range(stream.outer_length):
                trip = stream.length + outer * stream.length_stretch
                total += -(-trip // line_words) if trip else 0
            return total
        return stream.volume()
    raise IrError(f"unknown stream type {type(stream).__name__}")
