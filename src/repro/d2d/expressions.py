"""LTE-direct expression codes and modem-side filters.

LTE-direct identifies services with fixed-width binary *expression
codes* managed by the mobile carrier.  A subscriber registers
code-and-mask filters in its modem; an incoming broadcast matches when
``incoming & mask == code & mask``.  We model a 192-bit code split into
a 64-bit carrier-assigned service prefix (e.g. one per retail chain)
and a 128-bit application suffix (e.g. one per store section), so a
subscriber can match a whole service (mask only the prefix) or one
specific offering (mask everything).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import NamedTuple

#: Total expression width in bits.
CODE_BITS = 192
#: Carrier-managed service prefix width.
SERVICE_BITS = 64
#: Application-specific suffix width.
SUFFIX_BITS = CODE_BITS - SERVICE_BITS

_CODE_MASK = (1 << CODE_BITS) - 1
_PREFIX_MASK = ((1 << SERVICE_BITS) - 1) << SUFFIX_BITS
_SUFFIX_MASK = (1 << SUFFIX_BITS) - 1


def _digest_bits(text: str, bits: int) -> int:
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest, "big") >> (256 - bits)


@dataclass(frozen=True)
class ExpressionCode:
    """A concrete 192-bit expression code."""

    value: int

    def __post_init__(self) -> None:
        if not (0 <= self.value <= _CODE_MASK):
            raise ValueError(f"expression code out of range: {self.value}")

    @property
    def service_prefix(self) -> int:
        return self.value >> SUFFIX_BITS

    @property
    def suffix(self) -> int:
        return self.value & _SUFFIX_MASK

    def __str__(self) -> str:
        return f"0x{self.value:048x}"


class ExpressionFilter(NamedTuple):
    """A modem filter: ``incoming & mask == code & mask``."""

    code: int
    mask: int

    def matches(self, incoming: ExpressionCode) -> bool:
        return (incoming.value & self.mask) == (self.code & self.mask)


class ExpressionNamespace:
    """Carrier-side registry deriving codes from human-readable names.

    ``code("acme-retail", "laptops")`` always yields the same code, so
    the pair of retail applications (employee publisher, customer
    subscriber) agree on codes without any out-of-band exchange -- the
    carrier manages the namespace, as Section 5.2 describes.
    """

    def code(self, service_name: str, offering: str = "") -> ExpressionCode:
        prefix = _digest_bits(f"service:{service_name}", SERVICE_BITS)
        suffix = _digest_bits(f"offering:{offering}", SUFFIX_BITS) if offering else 0
        return ExpressionCode((prefix << SUFFIX_BITS) | suffix)

    def service_filter(self, service_name: str) -> ExpressionFilter:
        """Match *any* offering of a service (prefix-only mask)."""
        code = self.code(service_name)
        return ExpressionFilter(code=code.value, mask=_PREFIX_MASK)

    def offering_filter(self, service_name: str,
                        offering: str) -> ExpressionFilter:
        """Match one specific offering (full-width mask)."""
        code = self.code(service_name, offering)
        return ExpressionFilter(code=code.value, mask=_CODE_MASK)
