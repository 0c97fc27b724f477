"""Address decomposition for the clustered NUCA L2.

The paper's placement policy (Section 4.2.2): the low-order bits of the
cache *tag* pick the initial cluster, the low-order bits of the cache
*index* pick the bank within the cluster, and the remaining index bits pick
the set within the bank.  After migration the tag's cluster bits no longer
identify the line's cluster — which is exactly why the search policy
exists — but the index (and therefore the bank/set position *within*
whatever cluster holds the line) never changes.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.core.chip import ChipConfig
from repro.params import LINE_BYTES, NUM_CLUSTERS


def _log2_exact(value: int, what: str) -> int:
    bits = value.bit_length() - 1
    if value <= 0 or (1 << bits) != value:
        raise ValueError(f"{what} must be a power of two, got {value}")
    return bits


class DecodedAddress(NamedTuple):
    """A physical address split into NUCA placement fields.

    A named tuple, not a frozen dataclass: one is decoded per L2
    transaction, and a tuple builds in a fraction of the time.
    """

    address: int
    line_address: int   # address >> offset_bits
    tag: int
    index: int          # set index within a cluster
    home_cluster: int   # initial cluster (low-order tag bits)
    bank: int           # bank within the cluster (low-order index bits)
    set_in_bank: int    # set within the bank (high-order index bits)


class AddressMap:
    """Decodes addresses for a given chip configuration."""

    def __init__(self, config: ChipConfig):
        config.validate()
        self.config = config
        self.offset_bits = LINE_BYTES.bit_length() - 1
        self.index_bits = _log2_exact(
            config.sets_per_cluster, "sets per cluster"
        )
        self.bank_bits = _log2_exact(
            config.banks_per_cluster, "banks per cluster"
        )
        self.cluster_bits = NUM_CLUSTERS.bit_length() - 1
        self.sets_per_cluster = config.sets_per_cluster

    def decode(self, address: int) -> DecodedAddress:
        if address < 0:
            raise ValueError("addresses are non-negative")
        line_address = address >> self.offset_bits
        index = line_address & (self.sets_per_cluster - 1)
        tag = line_address >> self.index_bits
        home_cluster = tag & ((1 << self.cluster_bits) - 1)
        bank = index & ((1 << self.bank_bits) - 1)
        set_in_bank = index >> self.bank_bits
        return DecodedAddress(
            address, line_address, tag, index, home_cluster, bank,
            set_in_bank,
        )

    def line_of(self, address: int) -> int:
        return address >> self.offset_bits

    def compose(self, tag: int, index: int) -> int:
        """Inverse of :meth:`decode` (line-aligned address)."""
        return ((tag << self.index_bits) | index) << self.offset_bits
