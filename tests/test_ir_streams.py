"""Tests for memory streams (repro.ir.stream)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import IrError
from repro.ir.stream import (
    ConstStream,
    IndirectStream,
    LinearStream,
    RecurrenceStream,
    StreamDirection,
    UpdateStream,
    stream_requests,
)


class TestLinearStream:
    def test_1d_contiguous(self):
        stream = LinearStream("a", length=5)
        assert list(stream.addresses()) == [0, 1, 2, 3, 4]
        assert stream.volume() == 5
        assert stream.outer_length == 1 and stream.length_stretch == 0

    def test_strided(self):
        stream = LinearStream("a", offset=3, stride=2, length=4)
        assert list(stream.addresses()) == [3, 5, 7, 9]

    def test_2d_row_major(self):
        stream = LinearStream(
            "a", length=3, outer_length=2, outer_stride=10
        )
        assert list(stream.addresses()) == [0, 1, 2, 10, 11, 12]
        assert stream.volume() == 6

    def test_inductive_triangular(self):
        stream = LinearStream(
            "a", length=3, outer_length=3, outer_stride=4, length_stretch=-1
        )
        assert list(stream.addresses()) == [0, 1, 2, 4, 5, 8]
        assert stream.volume() == 6

    def test_inductive_growing(self):
        stream = LinearStream(
            "a", length=1, outer_length=3, outer_stride=0, length_stretch=1
        )
        assert stream.volume() == 1 + 2 + 3

    def test_negative_trip_count_rejected(self):
        stream = LinearStream(
            "a", length=1, outer_length=4, length_stretch=-1
        )
        with pytest.raises(IrError):
            stream.check()

    def test_bad_word_size_rejected(self):
        with pytest.raises(IrError):
            LinearStream("a", word_bytes=3).check()

    @given(
        offset=st.integers(0, 100),
        stride=st.integers(1, 8),
        length=st.integers(0, 20),
        outer_stride=st.integers(0, 50),
        outer_length=st.integers(1, 5),
    )
    def test_volume_matches_address_count(
        self, offset, stride, length, outer_stride, outer_length
    ):
        stream = LinearStream(
            "a", offset=offset, stride=stride, length=length,
            outer_stride=outer_stride, outer_length=outer_length,
        )
        assert len(list(stream.addresses())) == stream.volume()

    @given(length=st.integers(1, 16), outer=st.integers(1, 4))
    def test_row_major_matches_nested_loop(self, length, outer):
        stream = LinearStream(
            "a", length=length, outer_length=outer, outer_stride=length
        )
        expected = [o * length + i for o in range(outer) for i in range(length)]
        assert list(stream.addresses()) == expected


class TestIndirectStream:
    def make(self):
        index = LinearStream("idx", length=4)
        return IndirectStream("a", index=index, index_scale=2, index_offset=1)

    def test_addresses_follow_indices(self):
        stream = self.make()
        assert list(stream.addresses([3, 0, 2, 1])) == [7, 1, 5, 3]

    def test_volume_is_index_volume(self):
        assert self.make().volume() == 4

    def test_requires_index(self):
        with pytest.raises(IrError):
            IndirectStream("a").check()

    def test_index_must_be_read(self):
        index = LinearStream(
            "idx", direction=StreamDirection.WRITE, length=4
        )
        with pytest.raises(IrError):
            IndirectStream("a", index=index).check()


class TestUpdateStream:
    def test_must_be_write(self):
        index = LinearStream("idx", length=4)
        stream = UpdateStream("a", index=index, update_op="add")
        with pytest.raises(IrError):
            stream.check()
        stream.direction = StreamDirection.WRITE
        stream.check()  # now fine


class TestConstAndRecurrence:
    def test_const_values(self):
        stream = ConstStream(array="", value=7, length=3)
        assert list(stream.values()) == [7, 7, 7]
        assert stream.volume() == 3
        assert stream.array == "__const__"

    def test_const_needs_positive_length(self):
        with pytest.raises(IrError):
            ConstStream(array="", value=1, length=0).check()

    def test_recurrence_needs_source(self):
        with pytest.raises(IrError):
            RecurrenceStream(array="", length=4).check()
        RecurrenceStream(array="", source_port="p", length=4).check()


class TestStreamRequests:
    def test_contiguous_coalesces(self):
        stream = LinearStream("a", length=16)
        assert stream_requests(stream, line_words=8) == 2

    def test_partial_line_rounds_up(self):
        stream = LinearStream("a", length=9)
        assert stream_requests(stream, line_words=8) == 2

    def test_strided_no_coalescing(self):
        stream = LinearStream("a", stride=4, length=16)
        assert stream_requests(stream, line_words=8) == 16

    def test_indirect_one_request_per_word(self):
        index = LinearStream("idx", length=10)
        stream = IndirectStream("a", index=index)
        assert stream_requests(stream) == 10

    def test_const_and_recurrence_free(self):
        assert stream_requests(ConstStream(array="", value=0, length=9)) == 0
        assert stream_requests(
            RecurrenceStream(array="", source_port="p", length=9)
        ) == 0

    def test_2d_coalesces_per_row(self):
        stream = LinearStream(
            "a", length=10, outer_length=3, outer_stride=100
        )
        assert stream_requests(stream, line_words=8) == 6  # ceil(10/8)*3
