"""Producer-consumer forwarding between regions (Section IV-D).

"The compiler will generate control code that directly forwards the
produced value to the consumer. This not only avoids the synchronization
overhead introduced by waiting for the producer phase to be done, but
also enables pipelining the producer and consumer regions."
"""

from repro.ir.region import as_stream_list
from repro.ir.stream import RecurrenceStream, StreamDirection


def forward_value(scope, producer_name, producer_port, consumer_name,
                  consumer_port, length):
    """Wire a forwarded value: producer output port -> consumer input.

    Appends the recurrence streams to both regions' bindings and records
    the forward on the scope. Call after both regions are in the scope.

    The forwarded words bypass memory entirely (that is the point of the
    optimization): the producer port must not also write those words
    through a memory stream — a port routes each produced word to exactly
    one stream segment.
    """
    producer = scope.region(producer_name)
    consumer = scope.region(consumer_name)

    out_binding = as_stream_list(
        producer.output_streams.get(producer_port, [])
    )
    out_binding.insert(0, RecurrenceStream(
        array="",
        source_port=producer_port,
        length=length,
        direction=StreamDirection.WRITE,
    ))
    producer.output_streams[producer_port] = out_binding

    in_binding = as_stream_list(
        consumer.input_streams.get(consumer_port, [])
    )
    in_binding.insert(0, RecurrenceStream(
        array="",
        source_port=producer_port,
        length=length,
    ))
    consumer.input_streams[consumer_port] = in_binding

    scope.forwards.append(
        (producer_name, producer_port, consumer_name, consumer_port)
    )
    # Forwarded regions pipeline: mark so the performance model can
    # overlap them instead of serializing on a fence.
    consumer.metadata.setdefault("forwarded_from", []).append(producer_name)
    return scope
