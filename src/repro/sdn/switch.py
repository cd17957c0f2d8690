"""Flow-table switch: the Open vSwitch analog realising GW user planes.

The switch keeps a priority-ordered OpenFlow table (the *slow path*) and
an exact-match cache (the *kernel fast path*).  The first packet of a
flow is matched against the table, pays the slow-path CPU cost and
installs a cache entry; later packets hit the cache at the fast-path
cost.  The CPU is a serial resource: costs accumulate on a busy-until
clock, which is what caps a user-space gateway's throughput in Figure 8.

The table is hash-indexed.  Each rule sits in one bucket keyed by its
most selective exact field -- outer TEID, else inner destination IP,
else inner source IP -- or in a wildcard list, and every bucket is kept
in table order ``(-priority, install sequence)``.  A lookup reads the
packet's TEID once, probes at most three buckets plus the wildcard
list, and returns the matching rule that sorts first: exactly the rule
a linear scan of ``table`` would find.  The simulated slow-path cost is
unchanged; only the host time of a lookup stops growing with the table.

Packets with no matching rule are counted as table misses, announced as
a :class:`~repro.sdn.events.TableMiss` on the hook bus (the paging
manager's punt path) and dropped.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import TYPE_CHECKING, Hashable, Optional

from repro.epc.gtp import gtp_teid
from repro.sdn.dataplane import IDEAL_PROFILE, DataPlaneProfile
from repro.sdn.events import FlowRuleInstalled, FlowRuleRemoved, TableMiss
from repro.sdn.openflow import FlowMatch, FlowRule, Output
from repro.sim.node import Node
from repro.sim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.link import Link

#: A table entry: ``(-priority, install sequence, rule)``.  The sequence
#: is unique within a switch, so entries sort in table order and a
#: comparison never reaches the rule.
_Entry = tuple[int, int, FlowRule]

_WILDCARD = ("any",)


def _cache_key(packet: Packet) -> tuple:
    """Exact-match key: outer TEID (if tunnelled) + inner five-tuple."""
    return (gtp_teid(packet),) + packet.five_tuple


def _bucket_key(match: FlowMatch) -> Hashable:
    """The bucket of a rule: its most selective exact field."""
    if match.teid is not None:
        return ("teid", match.teid)
    if match.dst_ip is not None:
        return ("dst", match.dst_ip)
    if match.src_ip is not None:
        return ("src", match.src_ip)
    return _WILDCARD


class FlowSwitch(Node):
    """An SDN switch with GTP-capable actions and a fast-path cache."""

    def __init__(self, sim: "Simulator", name: str,
                 profile: DataPlaneProfile = IDEAL_PROFILE,
                 ip: Optional[str] = None) -> None:
        super().__init__(sim, name, ip)
        self.profile = profile
        self.table: list[FlowRule] = []
        self._ranks: list[tuple[int, int]] = []     # parallel to table
        self._buckets: dict[Hashable, list[_Entry]] = {}
        self._by_cookie: dict[str, dict[tuple[int, FlowMatch], _Entry]] = {}
        self._seq = 0
        self._cache: dict[tuple, FlowRule] = {}
        self._cpu_free_at = 0.0
        self._fluid_cpu = None
        self.table_misses = 0
        self.fast_path_hits = 0
        self.slow_path_hits = 0

    def set_fluid_cpu(self, queue) -> None:
        """Attach the fluid server modelling aggregated background load
        on this switch's CPU (a :class:`repro.sim.fluid.FluidQueue`
        with ``capacity=1.0`` in CPU-seconds per second).  Per-packet
        arrivals then wait behind the fluid CPU backlog in addition to
        the per-packet busy-until clock."""
        self._fluid_cpu = queue

    # -- table management (driven by the controller) ---------------------

    def install(self, rule: FlowRule) -> None:
        """Add a rule; idempotent for an identical (cookie, priority,
        match) triple -- re-installing replaces the previous rule
        instead of duplicating it, so a retried FlowMod (or a re-steer
        replayed over a lossy channel) leaves exactly one rule in the
        table.  A (re-)installed rule goes last among its priority."""
        key = (rule.priority, rule.match)
        rules = self._by_cookie.setdefault(rule.cookie, {})
        previous = rules.pop(key, None)
        if previous is not None:
            self._unindex(previous)
        self._seq += 1
        entry = (-rule.priority, self._seq, rule)
        rules[key] = entry
        self._index(entry)
        self._cache.clear()     # conservatively invalidate the fast path
        hooks = self.sim.hooks
        if hooks.has(FlowRuleInstalled):
            hooks.emit(FlowRuleInstalled(switch=self, rule=rule))

    def rules_for_cookie(self, cookie: str) -> list[FlowRule]:
        """The installed rules carrying a cookie (table order)."""
        return [entry[2] for entry
                in sorted(self._by_cookie.get(cookie, {}).values())]

    def remove(self, cookie: str) -> list[FlowRule]:
        entries = sorted(self._by_cookie.pop(cookie, {}).values())
        for entry in entries:
            self._unindex(entry)
        self._cache.clear()
        hooks = self.sim.hooks
        if hooks.has(FlowRuleRemoved):
            hooks.emit(FlowRuleRemoved(switch=self, cookie=cookie,
                                       count=len(entries)))
        return [entry[2] for entry in entries]

    def _index(self, entry: _Entry) -> None:
        rank = entry[:2]
        position = bisect_left(self._ranks, rank)
        self._ranks.insert(position, rank)
        self.table.insert(position, entry[2])
        insort(self._buckets.setdefault(_bucket_key(entry[2].match), []),
               entry)

    def _unindex(self, entry: _Entry) -> None:
        rank = entry[:2]
        position = bisect_left(self._ranks, rank)
        del self._ranks[position]
        del self.table[position]
        key = _bucket_key(entry[2].match)
        bucket = self._buckets[key]
        del bucket[bisect_left(bucket, rank)]
        if not bucket:
            del self._buckets[key]

    def lookup(self, packet: Packet) -> Optional[FlowRule]:
        """The highest-priority matching rule (earliest installed among
        equals), or ``None``: the first match of a scan of ``table``."""
        teid = gtp_teid(packet)
        buckets = self._buckets
        best = None
        for key in (("teid", teid), ("dst", packet.dst),
                    ("src", packet.src), _WILDCARD):
            bucket = buckets.get(key)
            if bucket is None:
                continue
            for entry in bucket:
                if best is not None and entry > best:
                    break
                if entry[2].match.matches_teid(packet, teid):
                    best = entry
                    break
        return None if best is None else best[2]

    # -- data path --------------------------------------------------------

    def on_receive(self, packet: Packet, link: "Link") -> None:
        # only a fast-path profile fills the cache, so only it reads it
        key = rule = None
        if self.profile.has_fast_path:
            key = _cache_key(packet)
            rule = self._cache.get(key)
        cached = rule is not None
        if rule is None:
            rule = self.lookup(packet)
            if rule is None:
                self.table_misses += 1
                hooks = self.sim.hooks
                if hooks.has(TableMiss):
                    hooks.emit(TableMiss(switch=self, packet=packet))
                return
            if key is not None:
                self._cache[key] = rule
        if cached:
            self.fast_path_hits += 1
        else:
            self.slow_path_hits += 1
        cost = self.profile.cost_for(cached)
        start = max(self.sim.now, self._cpu_free_at)
        self._cpu_free_at = start + cost
        fluid = self._fluid_cpu
        if fluid is not None:
            # aggregated background occupies the same serial CPU: the
            # packet waits behind the instantaneous fluid backlog, but
            # the wait is *not* chained into the busy-until clock (the
            # backlog itself already carries that state forward)
            start += fluid.packet_wait(self.sim.now)
        done = start + cost
        if done <= self.sim.now:
            self._forward(packet, rule)
        else:
            self.sim.schedule(done - self.sim.now, self._forward,
                              packet, rule)

    def _forward(self, packet: Packet, rule: FlowRule) -> None:
        rule.record(packet)
        for action in rule.actions:
            if isinstance(action, Output):
                self.send(action.port, packet)
            else:
                packet = action.apply(packet)
