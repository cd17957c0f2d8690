"""Unit tests for the typed hook bus and SimContext RNG streams."""

from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.sim import HookBus, SimContext, derive_seed


@dataclass(frozen=True)
class Ping:
    value: int


@dataclass(frozen=True)
class Pong:
    value: int


@dataclass(frozen=True)
class Keyed:
    hook_key: ClassVar[str] = "who"

    who: str
    value: int = 0


# ---------------------------------------------------------------------------
# HookBus
# ---------------------------------------------------------------------------

def test_emit_dispatches_by_exact_type():
    bus = HookBus()
    seen = []
    bus.on(Ping, seen.append)
    assert bus.emit(Ping(1)) == 1
    assert bus.emit(Pong(2)) == 0
    assert seen == [Ping(1)]


def test_handlers_run_in_subscription_order():
    bus = HookBus()
    order = []
    bus.on(Ping, lambda e: order.append("first"))
    bus.on(Ping, lambda e: order.append("second"))
    bus.on(Ping, lambda e: order.append("third"))
    bus.emit(Ping(0))
    assert order == ["first", "second", "third"]


def test_subscription_close_detaches_and_is_idempotent():
    bus = HookBus()
    seen = []
    sub = bus.on(Ping, seen.append)
    bus.emit(Ping(1))
    sub.close()
    sub.close()     # second close is a no-op
    bus.emit(Ping(2))
    assert seen == [Ping(1)]
    assert not sub.active
    assert bus.subscriber_count(Ping) == 0


def test_has_reflects_live_subscribers():
    bus = HookBus()
    assert not bus.has(Ping)
    sub = bus.on(Ping, lambda e: None)
    assert bus.has(Ping)
    sub.close()
    assert not bus.has(Ping)


def test_subscriber_count_total_and_per_type():
    bus = HookBus()
    bus.on(Ping, lambda e: None)
    bus.on(Ping, lambda e: None)
    bus.on(Pong, lambda e: None)
    assert bus.subscriber_count(Ping) == 2
    assert bus.subscriber_count(Pong) == 1
    assert bus.subscriber_count() == 3


def test_bus_close_detaches_everyone():
    bus = HookBus()
    subs = [bus.on(Ping, lambda e: None), bus.on(Pong, lambda e: None)]
    bus.close()
    assert bus.subscriber_count() == 0
    assert all(not s.active for s in subs)
    assert bus.emit(Ping(0)) == 0


def test_handler_may_unsubscribe_itself_during_dispatch():
    bus = HookBus()
    seen = []

    def once(event):
        seen.append(event.value)
        sub.close()

    sub = bus.on(Ping, once)
    bus.emit(Ping(1))
    bus.emit(Ping(2))
    assert seen == [1]


def test_handler_subscribed_during_dispatch_misses_current_event():
    bus = HookBus()
    late = []

    def subscribe_late(event):
        bus.on(Ping, lambda e: late.append(e.value))

    bus.on(Ping, subscribe_late)
    bus.emit(Ping(1))   # snapshot: the late handler must not see this one
    assert late == []
    bus.emit(Ping(2))
    assert late == [2]


# ---------------------------------------------------------------------------
# Mutation during dispatch (regression: removal used to compact the
# subscriber list mid-walk, skipping the handler after the removed one)
# ---------------------------------------------------------------------------

def test_close_earlier_sub_mid_dispatch_does_not_skip_later_subs():
    bus = HookBus()
    seen = []
    first = bus.on(Ping, lambda e: (seen.append("first"),
                                    first.close()))
    bus.on(Ping, lambda e: seen.append("second"))
    bus.on(Ping, lambda e: seen.append("third"))
    assert bus.emit(Ping(1)) == 3
    # every *other* subscriber still ran exactly once
    assert seen == ["first", "second", "third"]
    assert bus.emit(Ping(2)) == 2
    assert seen == ["first", "second", "third", "second", "third"]


def test_close_later_sub_mid_dispatch_skips_it_without_double_serving():
    bus = HookBus()
    seen = []
    later_holder = []
    bus.on(Ping, lambda e: (seen.append("first"),
                            later_holder[0].close()))
    later_holder.append(bus.on(Ping, lambda e: seen.append("second")))
    bus.on(Ping, lambda e: seen.append("third"))
    bus.emit(Ping(1))
    # the closed-but-not-yet-visited handler must not run at all
    assert seen == ["first", "third"]
    bus.emit(Ping(2))
    assert seen == ["first", "third", "first", "third"]


def test_subscribe_during_dispatch_sees_only_subsequent_events():
    bus = HookBus()
    seen = []
    bus.on(Ping, lambda e: (seen.append(("outer", e.value)),
                            bus.on(Ping, lambda e2: seen.append(
                                ("inner", e2.value)))))
    bus.emit(Ping(1))
    assert seen == [("outer", 1)]       # new sub not served this event
    seen.clear()
    bus.emit(Ping(2))
    assert ("outer", 2) in seen and ("inner", 2) in seen


def test_self_close_mid_dispatch_is_idempotent_and_final():
    bus = HookBus()
    seen = []
    sub = bus.on(Ping, lambda e: (seen.append(e.value), sub.close(),
                                  sub.close()))
    bus.emit(Ping(1))
    bus.emit(Ping(2))
    assert seen == [1]
    assert bus.subscriber_count(Ping) == 0


def test_nested_emit_with_mid_dispatch_close():
    bus = HookBus()
    seen = []

    def outer(e):
        seen.append(("outer", e.value))
        if e.value == 1:
            pong_sub.close()            # removal during nested depth 0
            bus.emit(Pong(10))          # nested dispatch

    bus.on(Ping, outer)
    pong_sub = bus.on(Pong, lambda e: seen.append(("pong", e.value)))
    bus.on(Pong, lambda e: seen.append(("pong2", e.value)))
    bus.emit(Ping(1))
    # the closed Pong handler was dead before the nested emit started
    assert seen == [("outer", 1), ("pong2", 10)]
    # list compaction after the outermost emit leaves the bus coherent
    assert bus.subscriber_count(Pong) == 1
    bus.emit(Pong(11))
    assert seen[-1] == ("pong2", 11)


def test_bus_close_mid_dispatch_stops_remaining_handlers_cleanly():
    bus = HookBus()
    seen = []
    bus.on(Ping, lambda e: (seen.append("first"), bus.close()))
    bus.on(Ping, lambda e: seen.append("second"))
    bus.emit(Ping(1))
    assert seen == ["first"]
    assert bus.subscriber_count() == 0
    bus.emit(Ping(2))       # a closed bus is inert, not broken
    assert seen == ["first"]


def test_on_rejects_non_type():
    with pytest.raises(TypeError):
        HookBus().on("PacketDelivered", lambda e: None)


def test_emitted_counts_only_observed_events():
    bus = HookBus()
    bus.emit(Ping(1))               # nobody listening: not counted
    assert bus.emitted == 0
    bus.on(Ping, lambda e: None)
    bus.emit(Ping(2))
    assert bus.emitted == 1


# ---------------------------------------------------------------------------
# Keyed subscriptions
# ---------------------------------------------------------------------------

def test_keyed_and_unkeyed_handlers_merge_in_subscription_order():
    bus = HookBus()
    order = []
    bus.on(Keyed, lambda e: order.append("any-1"))
    bus.on(Keyed, lambda e: order.append("a-1"), key="a")
    bus.on(Keyed, lambda e: order.append("b-1"), key="b")
    bus.on(Keyed, lambda e: order.append("any-2"))
    bus.on(Keyed, lambda e: order.append("a-2"), key="a")
    assert bus.emit(Keyed("a")) == 4
    assert order == ["any-1", "a-1", "any-2", "a-2"]


def test_other_keys_are_never_delivered():
    bus = HookBus()
    seen = {"a": [], "b": []}
    for who in seen:
        bus.on(Keyed, lambda e, who=who: seen[who].append(e.value), key=who)
    bus.emit(Keyed("a", 1))
    bus.emit(Keyed("b", 2))
    assert bus.emit(Keyed("c", 3)) == 0
    assert seen == {"a": [1], "b": [2]}


def test_keyed_handler_closed_mid_dispatch_is_skipped():
    bus = HookBus()
    seen = []
    holder = []
    bus.on(Keyed, lambda e: (seen.append("any"), holder[0].close()))
    holder.append(bus.on(Keyed, lambda e: seen.append("a"), key="a"))
    bus.on(Keyed, lambda e: seen.append("a-late"), key="a")
    assert bus.emit(Keyed("a")) == 2
    assert seen == ["any", "a-late"]
    assert bus.subscriber_count(Keyed) == 2


def test_keyed_handler_opened_mid_dispatch_misses_current_event():
    bus = HookBus()
    late = []

    def subscribe_late(event):
        bus.on(Keyed, lambda e: late.append(e.value), key="a")

    sub = bus.on(Keyed, subscribe_late, key="a")
    bus.emit(Keyed("a", 1))
    assert late == []
    sub.close()
    bus.emit(Keyed("a", 2))
    assert late == [2]


def test_has_and_count_with_only_keyed_subscribers():
    bus = HookBus()
    assert not bus.has(Keyed)
    first = bus.on(Keyed, lambda e: None, key="a")
    second = bus.on(Keyed, lambda e: None, key="b")
    assert bus.has(Keyed)
    assert bus.subscriber_count(Keyed) == 2
    assert bus.subscriber_count() == 2
    first.close()
    assert bus.has(Keyed) and bus.subscriber_count(Keyed) == 1
    second.close()
    assert not bus.has(Keyed)
    assert bus.subscriber_count() == 0


def test_key_on_a_type_without_hook_key_raises():
    bus = HookBus()
    with pytest.raises(TypeError):
        bus.on(Ping, lambda e: None, key="a")
    assert bus.subscriber_count() == 0


# ---------------------------------------------------------------------------
# SimContext named RNG streams
# ---------------------------------------------------------------------------

def test_same_seed_same_stream_regardless_of_request_order():
    a = SimContext(seed=42)
    b = SimContext(seed=42)
    a.rng("net.jitter")     # materialise an unrelated stream first
    assert (a.rng("d2d.channel").random(8).tolist()
            == b.rng("d2d.channel").random(8).tolist())


def test_distinct_names_give_independent_streams():
    ctx = SimContext(seed=0)
    assert (ctx.rng("net.jitter").random(8).tolist()
            != ctx.rng("d2d.channel").random(8).tolist())


def test_rng_is_cached_per_name():
    ctx = SimContext(seed=0)
    assert ctx.rng("x") is ctx.rng("x")
    assert ctx.rng("y") is not ctx.rng("x")


def test_derive_seed_is_stable_and_component_sensitive():
    assert derive_seed("exp", "ping", 0) == derive_seed("exp", "ping", 0)
    assert derive_seed("exp", "ping", 0) != derive_seed("exp", "ping", 1)
    assert derive_seed("exp", "ping", 0) != derive_seed("other", "ping", 0)
    assert 0 <= derive_seed("exp") < 2 ** 63


def test_context_owns_clock_and_bus():
    ctx = SimContext(seed=0)
    fired = []
    ctx.sim.schedule(1.5, lambda: fired.append(ctx.now))
    ctx.sim.run(until=2.0)
    assert fired == [1.5]
    assert ctx.hooks is ctx.sim.hooks
