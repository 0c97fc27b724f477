"""Shared experiment helpers: plain-text table formatting.

The simulation entry point lives at the :mod:`repro.api` facade
(``repro.api.run`` over a frozen :class:`~repro.experiments.spec.SimSpec`;
grids of cells through ``repro.api.sweep``).  The paper's scheme
presentation order lives with the rest of the experiment registry
(:data:`repro.experiments.registry.SCHEME_ORDER`).
"""

from __future__ import annotations


def format_table(
    headers: list[str], rows: list[list[str]], title: str = ""
) -> str:
    """Plain-text table used by every experiment's ``render``."""
    widths = [
        max(len(str(headers[i])), *(len(str(r[i])) for r in rows))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths))
        )
    return "\n".join(lines)
