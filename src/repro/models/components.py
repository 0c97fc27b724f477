"""Synthesized component area and power (the paper's Table 1).

The paper implemented the dTDMA bus components in Verilog and synthesized
them with 90 nm TSMC libraries; we record those results and derive the
paper's headline comparison: the vertical-interconnect hardware is orders
of magnitude smaller and less power-hungry than the NoC router it attaches
to, which is what justifies the hybrid NoC/bus fabric.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ComponentSpec:
    """One synthesized hardware block at 90 nm."""

    name: str
    power_w: float
    area_mm2: float
    per: str    # what one instance serves


NOC_ROUTER_5PORT = ComponentSpec(
    name="Generic NoC Router (5-port)",
    power_w=119.55e-3,
    area_mm2=0.3748,
    per="node",
)

DTDMA_RX_TX = ComponentSpec(
    name="dTDMA Bus Rx/Tx (2 per client)",
    power_w=97.39e-6,
    area_mm2=0.00036207,
    per="pillar client",
)

DTDMA_ARBITER = ComponentSpec(
    name="dTDMA Bus Arbiter (1 per bus)",
    power_w=204.98e-6,
    area_mm2=0.00065480,
    per="pillar",
)


def table1_rows() -> list[tuple[str, float, float]]:
    """(component, power W, area mm^2) rows in the paper's order."""
    return [
        (spec.name, spec.power_w, spec.area_mm2)
        for spec in (NOC_ROUTER_5PORT, DTDMA_RX_TX, DTDMA_ARBITER)
    ]


def pillar_overhead_vs_router(num_layers: int) -> tuple[float, float]:
    """(power ratio, area ratio) of one pillar's hardware to one router.

    A pillar adds one Rx/Tx pair per layer plus one arbiter; the paper's
    point is that both ratios are well below 1% — "orders of magnitude
    smaller than the overall budget".
    """
    pillar_power = num_layers * DTDMA_RX_TX.power_w + DTDMA_ARBITER.power_w
    pillar_area = num_layers * DTDMA_RX_TX.area_mm2 + DTDMA_ARBITER.area_mm2
    return (
        pillar_power / NOC_ROUTER_5PORT.power_w,
        pillar_area / NOC_ROUTER_5PORT.area_mm2,
    )
