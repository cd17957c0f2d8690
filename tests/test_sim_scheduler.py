"""Event-queue order: the simulator against a sorted-list oracle.

The queue's whole contract is the total order ``(time, priority, seq)``
with ties broken by insertion sequence, whichever of ``schedule`` and
the handle-less ``post`` armed an event.  :class:`Oracle` below realises
that order in the plainest way there is -- a list of keys kept sorted
by insertion -- and the tests replay identical randomized
workloads on it and on :class:`~repro.sim.engine.Simulator`, comparing
the full execution traces ``(time, priority, seq, fn, args)``.  The
simulator's trace is recorded from inside each callback, off the key
the run loop left for the running event, so the real loop is what is
compared.
"""

import bisect
import itertools
import random

import pytest

from repro.core.config import DATA_PLANES, NetworkConfig, SimConfig
from repro.core.network import MobileNetwork
from repro.sim.engine import COMPACT_FLOOR, Event, SimulationError, Simulator


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------

class OracleEvent:
    def __init__(self, sim, delay, priority, fn, args):
        self.sim = sim
        self.priority = priority
        self.fn = fn
        self.args = args
        self._arm(delay)

    def _arm(self, delay):
        self.time = self.sim.now + delay
        self.seq = next(self.sim.seq)
        self.cancelled = False
        bisect.insort(self.sim.queue, (self.time, self.priority, self.seq,
                                       self))

    def cancel(self):
        self.cancelled = True

    def reschedule(self, delay):
        self._arm(delay)
        return self


class Oracle:
    """The ``(time, priority, seq)`` order as a sorted list of keys."""

    def __init__(self):
        self.now = 0.0
        self.seq = itertools.count()
        self.queue = []
        self.trace = []

    def schedule(self, delay, fn, *args, priority=0):
        return OracleEvent(self, delay, priority, fn, args)

    def post(self, delay, fn, *args):
        OracleEvent(self, delay, 0, fn, args)

    def run(self, until=None):
        while self.queue:
            event = self.queue[0][3]
            if event.cancelled:
                del self.queue[0]
                continue
            if until is not None and event.time > until:
                break
            del self.queue[0]
            self.trace.append((event.time, event.priority, event.seq,
                               event.fn.__name__, event.args))
            self.now = event.time
            event.fn(*event.args)
        if until is not None and self.now < until:
            self.now = until


def traced(sim):
    """Record every event the simulator runs, in the oracle's shape:
    each callback is wrapped to log the running event's key (``now``
    and the ``(priority, seq)`` the loop recorded) before it runs."""
    sim.trace = []
    schedule, post = sim.schedule, sim.post

    def recording(fn):
        def record(*call_args):
            sim.trace.append((sim.now, sim._run_priority, sim._run_seq,
                              fn.__name__, call_args))
            fn(*call_args)
        return record

    def recording_schedule(delay, fn, *args, priority=0):
        return schedule(delay, recording(fn), *args, priority=priority)

    def recording_post(delay, fn, *args):
        return post(delay, recording(fn), *args)

    sim.schedule = recording_schedule
    sim.post = recording_post
    return sim


def replay(workload, seed):
    """Run ``workload`` on both queues; return the two traces."""
    traces = []
    for sim in (traced(Simulator()), Oracle()):
        workload(sim, random.Random(seed))
        traces.append(sim.trace)
    return traces


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def _delay(rng):
    """Zero delays, grid delays that tie with other events exactly,
    near-ties a few ulps apart, and short and long timers."""
    band = rng.random()
    if band < 0.3:
        return 0.0
    if band < 0.5:
        return rng.randrange(1, 20) * 1e-3
    if band < 0.6:
        return rng.randrange(1, 20) * 1e-3 + rng.choice([-1e-12, 1e-12])
    if band < 0.85:
        return rng.random() * 0.09
    return 0.11 + rng.random() * 0.4


def mixed_workload(sim, rng, n_roots=300):
    """Nested scheduling, cancels, non-zero priorities (zero-delay ones
    too) and ``run(until=...)`` stops; about two in five of the
    default-priority events are armed through the handle-less
    ``post``, interleaved with ``schedule`` calls at the same times."""
    handles = []

    def arm(delay, fn, *args, priority):
        if priority == 0 and rng.random() < 0.4:
            sim.post(delay, fn, *args)
        else:
            handles.append(sim.schedule(delay, fn, *args,
                                        priority=priority))

    def leaf(tag, depth):
        pass

    def nested(tag, depth):
        if depth > 0:
            arm(_delay(rng), nested, tag, depth - 1,
                priority=rng.choice([0, 0, -1, 2]))
        if handles and rng.random() < 0.3:
            handles.pop(rng.randrange(len(handles))).cancel()

    def arm_roots(count, base):
        for i in range(count):
            tag = f"r{base + i}"
            priority = rng.choice([0, 0, 0, 0, -1, 1, 5])
            fn = nested if rng.random() < 0.2 else leaf
            arm(_delay(rng), fn, tag, 2, priority=priority)
            if handles and rng.random() < 0.2:
                handles.pop(rng.randrange(len(handles))).cancel()

    arm_roots(n_roots, 0)
    # stop exactly on grid times that events tie with, and between them
    for k, until in enumerate((0.0, 0.005, 0.0123, 0.05, 0.2)):
        sim.run(until=until)
        arm_roots(20, 1000 * (k + 1))
    sim.run()


def flood_workload(sim, rng, n_sources=60, packets=40, check=None):
    """Cancel-heavy flood: every packet arms a retransmission guard far
    out and cancels the previous one, so almost every timer dies young.
    The packet hops themselves are posted: heap entries without a
    handle sit among the tombstones that compaction drops."""
    guards = {}

    def expire(src):
        pass

    def packet(src, left):
        old = guards.get(src)
        if old is not None:
            old.cancel()
        if check is not None:
            check()
        if left:
            guards[src] = sim.schedule(1.0 + rng.random(), expire, src)
            sim.post(rng.choice([0.0, 1e-4, 2e-4, 5e-4]), packet, src,
                     left - 1)

    for src in range(n_sources):
        sim.schedule(rng.random() * 1e-3, packet, src, packets)
    sim.run()


# ---------------------------------------------------------------------------
# order against the oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 7, 42])
def test_identical_execution_order_randomized(seed):
    mine, oracle = replay(mixed_workload, seed)
    assert mine == oracle
    assert len(mine) > 300


@pytest.mark.parametrize("seed", [3, 99])
def test_identical_order_with_reschedules(seed):
    """Periodic re-arms in place, some at a non-default priority, plus a
    cancellation storm of guards."""
    def workload(sim, rng):
        timers = []

        def tick(i, interval):
            if sim.now < 1.0:
                timers[i] = timers[i].reschedule(interval)

        def guard(i):
            pass

        for i in range(40):
            interval = rng.choice([3e-4, 1e-3, 7.77e-3, 0.13])
            timers.append(sim.schedule(interval, tick, i, interval,
                                       priority=rng.choice([0, 0, -1, 3])))
        guards = [sim.schedule(0.4 + rng.random(), guard, i)
                  for i in range(60)]
        for i, event in enumerate(guards):
            if i % 3:
                event.cancel()
        sim.run(until=1.5)

    mine, oracle = replay(workload, seed)
    assert mine == oracle
    assert len(mine) > 1000


def test_cancel_heavy_flood_compacts_and_keeps_order():
    """Tombstones never make up more than about half the heap, and
    compaction does not disturb the order."""
    sim = traced(Simulator())
    sizes = []

    def check():
        sizes.append(len(sim._heap))
        assert len(sim._heap) <= 2 * sim.pending + COMPACT_FLOOR

    flood_workload(sim, random.Random(5), check=check)
    oracle = Oracle()
    flood_workload(oracle, random.Random(5))
    assert sim.trace == oracle.trace
    assert sim.profile()["compactions"] > 0
    assert len(sizes) == 60 * 41


def test_priority_orders_simultaneous_events():
    sim = Simulator()
    out = []
    sim.schedule(0.01, out.append, "late-low", priority=5)
    sim.schedule(0.01, out.append, "default")
    sim.schedule(0.01, out.append, "urgent", priority=-3)
    sim.run()
    assert out == ["urgent", "default", "late-low"]


def test_now_lane_yields_to_an_earlier_timer_at_the_same_time():
    """A timer armed earlier for ``t`` runs before a zero-delay event
    armed at ``t``; a zero-delay event with a priority runs by it."""
    sim = Simulator()
    out = []

    def at_t():
        out.append("first")
        sim.schedule(0.0, out.append, "zero-delay")
        sim.schedule(0.0, out.append, "zero-delay-urgent", priority=-1)
        sim.schedule(0.0, out.append, "zero-delay-low", priority=1)

    sim.schedule(0.5, at_t)
    sim.schedule(0.5, out.append, "timer")
    sim.run()
    assert out == ["first", "zero-delay-urgent", "timer", "zero-delay",
                   "zero-delay-low"]


def test_run_until_boundary_inclusive():
    sim = Simulator()
    out = []
    sim.schedule(1.0, out.append, "at")
    sim.schedule(1.0 + 1e-9, out.append, "after")
    sim.run(until=1.0)
    assert out == ["at"]
    assert sim.now == 1.0
    sim.run()
    assert out == ["at", "after"]


def test_slot_boundary_times_do_not_lose_events():
    """Times packed a few ulps either side of 0.1 ms grid boundaries run
    in sorted order and none is lost."""
    sim = Simulator()
    ran = []
    for k in range(80, 200):
        base = k * 1e-4
        for eps in (-1e-12, 0.0, 1e-12, 5e-9):
            sim.schedule_at(base + eps, ran.append, base + eps)
    sim.run()
    assert len(ran) == 120 * 4
    assert ran == sorted(ran)
    assert sim.pending == 0


def test_next_event_time_is_the_earlier_head():
    sim = Simulator()
    assert sim.next_event_time() is None
    sim.schedule(2.0, lambda: None)
    assert sim.next_event_time() == 2.0
    sim.schedule(0.0, lambda: None)
    assert sim.next_event_time() == 0.0
    sim.run(max_events=1)
    assert sim.next_event_time() == 2.0


# ---------------------------------------------------------------------------
# construction, cancellation, handles, reschedule, profile
# ---------------------------------------------------------------------------

def test_sim_config_builds_simulator():
    # the network's SimContext builds one fresh Simulator per run,
    # whichever data plane the SimConfig selects
    for plane in DATA_PLANES:
        config = NetworkConfig(sim=SimConfig(data_plane=plane))
        network = MobileNetwork(config)
        assert isinstance(network.sim, Simulator)
        assert network.sim.pending == 0 and network.sim.events_run == 0


def test_cancelled_timers_cost_no_execution():
    sim = Simulator()
    ran = []
    guards = [sim.schedule(0.05 + i * 1e-3, ran.append, i)
              for i in range(100)]
    for guard in guards[:90]:
        guard.cancel()
    sim.schedule(5.0, ran.append, "far")
    sim.run()
    assert ran == list(range(90, 100)) + ["far"]
    prof = sim.profile()
    assert prof["cancelled_discarded"] == 90
    assert prof["events_run"] == 11


def _entries(sim):
    return list(sim._heap) + list(sim._now_lane)


def test_internal_entries_carry_no_handle(monkeypatch):
    """Posted, step and reserved entries are plain tuples: no
    :class:`Event` is made for them, and they run in key order."""
    made = []
    init = Event.__init__

    def counting_init(self, *args):
        made.append(self)
        init(self, *args)

    monkeypatch.setattr(Event, "__init__", counting_init)
    sim = Simulator()
    ran = []
    assert sim.post(0.002, ran.append, "internal") is None
    assert sim.post(0.0, ran.append, "internal-now") is None
    sim._schedule_step(ran.append, "step")
    seq = next(sim._seq)
    sim._schedule_reserved(0.001, seq, ran.append, "reserved")
    entries = _entries(sim)
    assert len(entries) == 4
    assert all(entry[5] is None for entry in entries)
    assert made == []
    public = sim.schedule(0.003, ran.append, "public")
    assert [e[5] for e in _entries(sim) if e[5] is not None] == [public]
    assert made == [public]
    sim.run()
    assert ran == ["internal-now", "step", "reserved", "internal", "public"]
    assert sim.pending == 0


@pytest.mark.parametrize("delay", [float("nan"), -1e-9, -1.0,
                                   float("inf"), float("-inf")])
def test_post_rejects_what_schedule_rejects(delay):
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(delay, lambda: None)
    with pytest.raises(SimulationError):
        sim.post(delay, lambda: None)
    assert sim.pending == 0
    assert sim.next_event_time() is None


def test_post_returns_nothing_and_counts_as_pending():
    sim = Simulator()
    ran = []
    assert sim.post(0.0, ran.append, "now") is None
    assert sim.post(0.01, ran.append, "later") is None
    assert sim.pending == 2
    assert sim.next_event_time() == 0.0
    sim.run(max_events=1)
    assert sim.pending == 1
    sim.run()
    assert ran == ["now", "later"]
    assert sim.pending == 0
    assert sim.events_run == 2


def test_public_handle_cancels_before_it_runs():
    sim = Simulator()
    ran = []
    lane = sim.schedule(0.0, ran.append, "lane")
    heap = sim.schedule(0.01, ran.append, "heap")
    sim.post(0.005, ran.append, "internal")
    assert sim.pending == 3
    lane.cancel()
    heap.cancel()
    assert sim.pending == 1
    sim.run()
    assert ran == ["internal"]
    assert sim.pending == 0
    assert sim.profile()["cancelled_discarded"] == 2


def test_stale_cancel_after_run_is_harmless():
    sim = Simulator()
    ran = []
    events = [sim.schedule(0.001 * i, ran.append, i) for i in range(1, 20)]
    sim.run(until=0.0105)
    assert ran == list(range(1, 11))
    assert sim.pending == 9
    for event in events[:10]:
        event.cancel()                   # already ran: nothing to count off
    assert sim.pending == 9
    events[15].cancel()
    assert sim.pending == 8
    sim.run()
    assert ran == [i for i in range(1, 20) if i != 16]
    assert sim.pending == 0
    for event in events:
        event.cancel()
    assert sim.pending == 0


def test_reschedule_after_compaction():
    """A periodic timer re-armed in place keeps ticking while a flood
    of cancelled guards forces compactions with its entry queued."""
    sim = Simulator()
    ticks = []

    def tick():
        ticks.append(sim.now)
        if len(ticks) < 10:
            timer.reschedule(0.1)
        guards = [sim.schedule(5.0 + k, lambda: None)
                  for k in range(COMPACT_FLOOR)]
        for guard in guards:
            guard.cancel()

    timer = sim.schedule(0.1, tick)
    sim.run()
    assert sim.profile()["compactions"] >= 5
    assert ticks == [pytest.approx(0.1 * (i + 1)) for i in range(10)]
    assert sim.pending == 0


def test_reschedule_requires_popped_event():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    with pytest.raises(SimulationError):
        event.reschedule(1.0)


def test_compacted_tombstone_can_be_rescheduled():
    """A cancelled event dropped by compaction has left the queue, so
    re-arming it is legal and it runs once."""
    sim = Simulator()
    ran = []
    events = [sim.schedule(1.0 + i, ran.append, i)
              for i in range(COMPACT_FLOOR + 10)]
    for event in events:
        event.cancel()
    assert sim.profile()["compactions"] >= 1
    events[0].reschedule(0.5)
    sim.run()
    assert ran == [0]


def test_profile_shape():
    sim = Simulator()
    sim.schedule(0.0, lambda: None)
    sim.schedule(0.01, lambda: None)
    sim.schedule(0.02, lambda: None).cancel()
    sim.run()
    prof = sim.profile()
    assert set(prof) == {"events_run", "pending", "heap_peak",
                         "cancelled_discarded", "compactions"}
    assert prof["events_run"] == 2
    assert prof["pending"] == 0
    assert prof["heap_peak"] == 2
    assert prof["cancelled_discarded"] == 1
