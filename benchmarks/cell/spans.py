"""Stack-based span timer that measures a program's layers from outside.

The benchmark never edits the simulator.  It replaces a few public
functions with wrappers that time each call, run only in the traced
child process, and are restored before it exits.  Each span is keyed by
``(layer, function, parent layer)``, and records a call count, total
time and self time.  Self time is the span's duration minus the time
covered by the spans opened inside it.  The self times of every span
under one root therefore add up to the root's duration, which is what
lets a cell's wall time be split by layer.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

Key = tuple[str, str, Optional[str]]


class SpanRecorder:
    """In-memory span aggregates plus the patches that produce them."""

    def __init__(self) -> None:
        # Open spans, innermost last: [layer, seconds covered by children].
        self._stack: list[list] = []
        # (layer, function, parent layer) -> [count, total_s, self_s]
        self.table: dict[Key, list] = {}
        self._patches: list[tuple[object, str, object]] = []

    def wrap(
        self,
        layer: str,
        name: str,
        fn: Callable,
        after: Optional[Callable[[tuple, object], None]] = None,
    ) -> Callable:
        """``fn`` timed as one span per call.

        ``after(args, result)`` runs outside the span, so work it does
        to count results is never charged to the layer.
        """
        stack = self._stack
        table = self.table
        clock = time.perf_counter

        def timed(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if parent is not None:
                    parent[1] += elapsed
                key = (layer, name, parent[0] if parent is not None else None)
                entry = table.get(key)
                if entry is None:
                    entry = table[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
            if after is not None:
                after(args, result)
            return result

        return timed

    def patch(
        self,
        owner: object,
        attr: str,
        layer: str,
        name: Optional[str] = None,
        after: Optional[Callable[[tuple, object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` (a class or module attribute) by a span."""
        original = vars(owner)[attr]
        self.replace(owner, attr, self.wrap(layer, name or attr, original, after))

    def replace(self, owner: object, attr: str, replacement: object) -> None:
        """Set ``owner.attr`` until :meth:`restore`."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregates ---------------------------------------------------------

    def calls(self, layer: str, name: str, outside_layer: bool = False) -> int:
        """Call count of one function; ``outside_layer`` drops nested calls."""
        return sum(
            entry[0]
            for (lay, fn, parent), entry in self.table.items()
            if lay == layer and fn == name
            and not (outside_layer and parent == layer)
        )

    def self_s(self, layer: str, name: Optional[str] = None) -> float:
        """Self time of a layer, or of one of its functions."""
        return sum(
            entry[2]
            for (lay, fn, __), entry in self.table.items()
            if lay == layer and (name is None or fn == name)
        )

    def total_s(self, layer: str, name: str) -> float:
        """Total time of one function's spans."""
        return sum(
            entry[1]
            for (lay, fn, __), entry in self.table.items()
            if lay == layer and fn == name
        )

    def root_s(self) -> float:
        """Total time of the spans that had no parent."""
        return sum(
            entry[1]
            for (__, __, parent), entry in self.table.items()
            if parent is None
        )

    def rows(self) -> list[dict]:
        """The span table as JSON-safe rows, slowest self time first."""
        return [
            {
                "layer": layer,
                "function": name,
                "parent": parent,
                "count": entry[0],
                "total_s": entry[1],
                "self_s": entry[2],
            }
            for (layer, name, parent), entry in sorted(
                self.table.items(), key=lambda item: -item[1][2]
            )
        ]
