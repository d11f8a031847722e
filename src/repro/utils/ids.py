"""Monotonic id allocation for graph nodes.

ADG components, dataflow nodes, and simulator entities all need stable,
human-readable identifiers (``pe3``, ``sw12``). :class:`IdAllocator` hands
out per-prefix counters and can be primed from existing names so that graphs
loaded from disk keep allocating fresh ids.
"""

import re

_NAME_RE = re.compile(r"^([a-zA-Z_]+?)(\d+)$")


class IdAllocator:
    """Allocates ``<prefix><n>`` names with per-prefix counters."""

    def __init__(self):
        self._counters = {}

    def allocate(self, prefix):
        """Return the next unused name for ``prefix``."""
        count = self._counters.get(prefix, 0)
        self._counters[prefix] = count + 1
        return f"{prefix}{count}"

    def reserve(self, name):
        """Mark an externally chosen name as used.

        If the name matches ``<prefix><n>``, the prefix counter is bumped past
        ``n`` so future :meth:`allocate` calls cannot collide with it.
        """
        match = _NAME_RE.match(name)
        if match is None:
            return
        prefix, number = match.group(1), int(match.group(2))
        current = self._counters.get(prefix, 0)
        if number >= current:
            self._counters[prefix] = number + 1

    def copy(self):
        """An allocator with the same counters, advancing independently."""
        twin = IdAllocator()
        twin._counters = dict(self._counters)
        return twin

    def peek(self, prefix):
        """Return the counter value without consuming a name."""
        return self._counters.get(prefix, 0)
