"""Typed hook/signal bus.

Cross-layer instrumentation used to be wired by rebinding methods at
runtime (``ue.on_downlink = probe`` and friends), which made probes
impossible to stack or remove and left dangling state behind.  The
:class:`HookBus` replaces that with typed publish/subscribe: layers
*emit* small frozen event dataclasses and any number of subscribers
*observe* them, each holding a :class:`Subscription` it can ``close()``.

Design rules:

* dispatch is by **exact event type** -- one dict lookup per emit, so
  emitting on a bus nobody listens to is near-free (guard hot paths
  with :meth:`HookBus.has` to skip even the event construction);
* a subscription may be **keyed**: ``bus.on(DownlinkDelivered, fn,
  key=ue)`` only sees events whose key field (named by the event
  type's ``hook_key`` class attribute) is ``ue``, found with one more
  dict lookup -- so a thousand per-UE listeners cost an emit one call,
  not a thousand;
* handlers run synchronously, in subscription order, on the emitter's
  stack -- the bus adds no scheduling of its own.  Keyed and unkeyed
  handlers of one event are served merged, in subscription order;
* handlers may subscribe/unsubscribe (including themselves) during
  dispatch: a subscription closed mid-dispatch never sees the event
  again, a subscription opened mid-dispatch first sees the *next*
  event, and other subscribers are neither skipped nor double-served.
  Removal is deferred while a dispatch is on the stack (handler lists
  are compacted when the outermost emit returns), so the emit loop
  walks the live list by index instead of allocating a snapshot per
  event -- except when keyed and unkeyed handlers both match, which
  walks a merged snapshot.

The sim-layer events live here too; higher layers define their own
(:mod:`repro.epc.events`, :mod:`repro.sdn.events`) and emit them over
the same bus -- the bus is type-agnostic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Type

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.link import Link
    from repro.sim.node import Node
    from repro.sim.packet import Packet


class Subscription:
    """Handle returned by :meth:`HookBus.on`; ``close()`` detaches it."""

    __slots__ = ("bus", "event_type", "fn", "key", "order", "active")

    def __init__(self, bus: "HookBus", event_type: type,
                 fn: Callable[[Any], None], key: Any, order: int) -> None:
        self.bus = bus
        self.event_type = event_type
        self.fn = fn
        self.key = key          # None: every event of the type
        self.order = order      # bus-wide subscription order
        self.active = True

    def close(self) -> None:
        """Detach this handler.  Idempotent."""
        self.bus.off(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self.active else "closed"
        return (f"<Subscription {self.event_type.__name__} -> "
                f"{getattr(self.fn, '__name__', self.fn)} {state}>")


_by_order = attrgetter("order")


class HookBus:
    """Synchronous typed signal bus."""

    def __init__(self) -> None:
        self._handlers: dict[type, list[Subscription]] = {}     # unkeyed
        self._keyed: dict[type, dict[Any, list[Subscription]]] = {}
        self._order = itertools.count()
        self.emitted = 0
        #: bumped on every subscribe/unsubscribe; hot paths cache their
        #: ``has()`` verdict against it instead of probing per emit
        self.generation = 0
        self._dispatching = 0                   # emit() nesting depth
        self._deferred: list[Subscription] = []  # closed mid-dispatch

    # -- subscription management -----------------------------------------

    def on(self, event_type: Type[Any], fn: Callable[[Any], None],
           key: Any = None) -> Subscription:
        """Register ``fn`` to run for every emitted ``event_type``.

        With ``key``, only for events whose ``hook_key`` field is
        ``key``; a type without a ``hook_key`` raises ``TypeError``.
        """
        if not isinstance(event_type, type):
            raise TypeError(f"event type must be a class, got {event_type!r}")
        sub = Subscription(self, event_type, fn, key, next(self._order))
        if key is None:
            self._handlers.setdefault(event_type, []).append(sub)
        else:
            if not isinstance(getattr(event_type, "hook_key", None), str):
                raise TypeError(f"{event_type.__name__} declares no "
                                f"hook_key; it cannot be subscribed by key")
            self._keyed.setdefault(event_type, {}).setdefault(
                key, []).append(sub)
        self.generation += 1
        return sub

    def off(self, subscription: Subscription) -> None:
        """Remove a subscription.  Idempotent.

        Safe to call from inside a handler: while any dispatch is on
        the stack the subscription is only marked inactive (so in-flight
        emit loops skip it without disturbing their iteration) and it
        leaves its handler list when the outermost emit returns.
        """
        if not subscription.active:
            return
        subscription.active = False
        if self._dispatching:
            self._deferred.append(subscription)
        else:
            self._remove(subscription)
        self.generation += 1

    def _remove(self, subscription: Subscription) -> None:
        event_type, key = subscription.event_type, subscription.key
        if key is None:
            table, slot = self._handlers, event_type
        else:
            table, slot = self._keyed[event_type], key
        subs = table[slot]
        subs.remove(subscription)
        if not subs:
            del table[slot]
            if key is not None and not table:
                del self._keyed[event_type]

    def _lists(self, event_type: Optional[type] = None
               ) -> Iterator[list[Subscription]]:
        """Every handler list, or only those of ``event_type``."""
        if event_type is None:
            yield from self._handlers.values()
            for by_key in self._keyed.values():
                yield from by_key.values()
            return
        if event_type in self._handlers:
            yield self._handlers[event_type]
        yield from self._keyed.get(event_type, {}).values()

    def has(self, event_type: type) -> bool:
        """True if anyone listens for ``event_type`` (hot-path guard).

        Keyed subscribers count, whatever their key.  May report a
        false positive for a type whose last subscriber closed during
        an in-flight dispatch (pending removal); the guard's contract
        -- "emitting is a no-op when False" -- holds either way.
        """
        return event_type in self._handlers or event_type in self._keyed

    def subscriber_count(self, event_type: Optional[type] = None) -> int:
        return sum(1 for subs in self._lists(event_type)
                   for s in subs if s.active)

    def close(self) -> None:
        """Detach every subscriber."""
        for subs in list(self._lists()):
            for sub in list(subs):
                self.off(sub)

    # -- emission ---------------------------------------------------------

    def emit(self, event: Any) -> int:
        """Dispatch ``event`` to its type's subscribers, in order.

        Returns the number of handlers invoked.  The loop walks the
        live handler list by index up to its length at entry: handlers
        added during dispatch are not served this event (they start
        with the next one), handlers closed during dispatch are skipped
        via their ``active`` flag, and removal is deferred until the
        outermost dispatch returns so no subscriber is skipped or
        double-served by list compaction happening mid-iteration.
        Handlers keyed on the event's key join the unkeyed ones in
        subscription order (a merged snapshot when both exist).
        """
        event_type = type(event)
        subs = self._handlers.get(event_type)
        by_key = self._keyed.get(event_type)
        if by_key is not None:
            keyed = by_key.get(getattr(event, event_type.hook_key))
            if keyed:
                subs = sorted(subs + keyed, key=_by_order) if subs \
                    else keyed
        if not subs:
            return 0
        self.emitted += 1
        count = 0
        self._dispatching += 1
        try:
            for i in range(len(subs)):
                sub = subs[i]
                if sub.active:
                    sub.fn(event)
                    count += 1
        finally:
            self._dispatching -= 1
            if not self._dispatching and self._deferred:
                deferred, self._deferred = self._deferred, []
                for sub in deferred:
                    self._remove(sub)
        return count


# -- sim-layer events ------------------------------------------------------

@dataclass(frozen=True)
class PacketDelivered:
    """A packet reached a terminal sink (:class:`~repro.sim.node.PacketSink`)."""

    node: "Node"
    packet: "Packet"
    link: Optional["Link"]


@dataclass(frozen=True)
class PacketDropped:
    """A packet was dropped somewhere in the simulated world.

    ``reason`` distinguishes the cause on the bus:

    * ``"link-down"`` -- the carrying link was administratively down;
    * ``"queue-overflow"`` -- drop-tail at a full link queue;
    * ``"injected-loss"`` -- a fault-layer channel perturbation;
    * ``"entity-down"`` -- the addressed control-plane party crashed.

    For fault-layer signalling drops ``link``/``sender`` refer to the
    signalling channel's link and sending end (``sender`` may be None
    when the drop happened before any channel was involved).
    """

    link: Optional["Link"]
    packet: "Packet"
    sender: Optional["Node"]
    reason: str
