"""Control-plane overhead accounting.

The paper argues (Section 4) that always recreating a dedicated MEC
bearer alongside the default bearer is expensive: 15 control messages
(2914 bytes) per release+re-establish, i.e. ~2.58 MB/day/device at the
observed 929 bearer events/day, and up to ~20 MB/day in the worst case of
one event per LTE radio promotion (7200/day).  Every procedure counts the
control messages it exchanges per protocol
(:attr:`~repro.epc.procedures.ProcedureResult.by_protocol`), so those
numbers are re-derived rather than asserted; :func:`combined_by_protocol`
sums the counters of a sequence of procedures.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.epc.procedures import ProcedureResult

#: Bearer re-creations per device per day driven by popular-app traffic
#: patterns (Aucinas et al., CoNEXT'13, as cited by the paper).
APP_DRIVEN_EVENTS_PER_DAY = 929

#: Worst case: one re-creation per LTE radio promotion event.
PROMOTION_EVENTS_PER_DAY = 7200

#: LTE RRC inactivity timeout before bearers are torn down (seconds).
LTE_IDLE_TIMEOUT = 11.576


def combined_by_protocol(*results: "ProcedureResult"
                         ) -> dict[str, list[int]]:
    """Per-protocol ``[messages, bytes]`` totals summed over procedure
    results."""
    out: dict[str, list[int]] = {}
    for result in results:
        for protocol, (count, size) in result.by_protocol.items():
            entry = out.setdefault(protocol, [0, 0])
            entry[0] += count
            entry[1] += size
    return out


def daily_overhead_bytes(bytes_per_event: int, events_per_day: int) -> int:
    """Daily control overhead in bytes for a bearer-management policy."""
    return bytes_per_event * events_per_day


def daily_overhead_mb(bytes_per_event: int, events_per_day: int) -> float:
    """Daily overhead in MiB (the unit the paper's 2.58/20 MB figures use)."""
    return daily_overhead_bytes(bytes_per_event, events_per_day) / (1024 ** 2)
