"""Memory-reference trace representation.

A trace event is a tuple ``(gap, op, address)`` — the number of
non-memory instructions executed since the previous event, the operation
kind, and the byte address.  A generated trace is a :class:`Trace`,
which stores its events as three ``array("q")`` columns: 24 bytes per
event, against about 100 for a list of tuples, and no Python object per
event to build.  Iterating a trace yields event tuples of plain ``int``
values, never numpy scalars, which would turn the simulation's clocks
into numpy floats.  ``NetworkInMemory.run_trace`` replays any iterable
of events, so a hand-written list of tuples works as well.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator

OP_READ = 0
OP_WRITE = 1
OP_IFETCH = 2

_OP_NAMES = {OP_READ: "read", OP_WRITE: "write", OP_IFETCH: "ifetch"}

# (gap instructions, op code, byte address)
TraceEvent = tuple[int, int, int]

# Buffer formats of a native signed 64-bit integer ("l" is numpy's int64
# on LP64 hosts).
_INT64_FORMATS = ("q", "l")


def _column(values: object) -> array:
    """Copy a contiguous int64 buffer, such as a numpy array, to a column."""
    view = memoryview(values)
    if view.format not in _INT64_FORMATS or view.itemsize != 8:
        raise TypeError(
            f"trace column must be a signed 64-bit integer buffer, got "
            f"format {view.format!r} of {view.itemsize} bytes"
        )
    column = array("q")
    column.frombytes(view.cast("B"))
    return column


class Trace:
    """One CPU's reference trace, held as gap, op and address columns.

    Built from three equal-length int64 buffers, which are copied.
    Every ``iter()`` starts a fresh pass over the events.  Two traces are
    equal when their events are.
    """

    __slots__ = ("gaps", "ops", "addresses")

    def __init__(self, gaps: object, ops: object, addresses: object):
        self.gaps = _column(gaps)
        self.ops = _column(ops)
        self.addresses = _column(addresses)
        if not len(self.gaps) == len(self.ops) == len(self.addresses):
            raise ValueError(
                f"trace columns differ in length: {len(self.gaps)} gaps, "
                f"{len(self.ops)} ops, {len(self.addresses)} addresses"
            )

    def __iter__(self) -> Iterator[TraceEvent]:
        return zip(self.gaps, self.ops, self.addresses)

    def __len__(self) -> int:
        return len(self.gaps)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.gaps == other.gaps
            and self.ops == other.ops
            and self.addresses == other.addresses
        )


def op_name(op: int) -> str:
    try:
        return _OP_NAMES[op]
    except KeyError:
        raise ValueError(f"unknown op code {op}") from None


def validate_trace(events: Iterable[TraceEvent]) -> Iterator[TraceEvent]:
    """Validate events lazily; raises on the first malformed one."""
    for event in events:
        gap, op, address = event
        if gap < 0:
            raise ValueError(f"negative instruction gap in {event}")
        if op not in _OP_NAMES:
            raise ValueError(f"unknown op code in {event}")
        if address < 0:
            raise ValueError(f"negative address in {event}")
        yield event
