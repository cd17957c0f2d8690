"""Unit tests for the discrete-event engine."""

import operator

import pytest

from repro.sim.engine import Process, SimulationError, Simulator


def test_events_run_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(2.0, seen.append, "b")
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(3.0, seen.append, "c")
    sim.run()
    assert seen == ["a", "b", "c"]
    assert sim.now == 3.0


def test_ties_break_by_insertion_order():
    sim = Simulator()
    seen = []
    for tag in "abc":
        sim.schedule(1.0, seen.append, tag)
    sim.run()
    assert seen == ["a", "b", "c"]


def test_priority_overrides_insertion_order():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "late", priority=5)
    sim.schedule(1.0, seen.append, "early", priority=0)
    sim.run()
    assert seen == ["early", "late"]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: sim.schedule_at(5.0, seen.append, "x"))
    sim.run()
    assert seen == ["x"]
    assert sim.now == 5.0


def test_schedule_at_past_rejected():
    sim = Simulator()

    def later():
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    sim.schedule(1.0, later)
    sim.run()


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    seen = []
    event = sim.schedule(1.0, seen.append, "x")
    event.cancel()
    sim.run()
    assert seen == []


def test_run_until_stops_clock_at_bound():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(10.0, seen.append, "b")
    sim.run(until=5.0)
    assert seen == ["a"]
    assert sim.now == 5.0
    sim.run()
    assert seen == ["a", "b"]


def test_step_runs_single_event():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(2.0, seen.append, "b")
    assert sim.step()
    assert seen == ["a"]
    assert sim.step()
    assert not sim.step()


def test_pending_counts_live_events():
    sim = Simulator()
    e1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending == 2
    e1.cancel()
    assert sim.pending == 1


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    seen = []

    def first():
        seen.append("first")
        sim.schedule(1.0, seen.append, "second")

    sim.schedule(1.0, first)
    sim.run()
    assert seen == ["first", "second"]
    assert sim.now == 2.0


def test_max_events_bound():
    sim = Simulator()
    seen = []
    for i in range(10):
        sim.schedule(float(i), seen.append, i)
    sim.run(max_events=3)
    assert seen == [0, 1, 2]


def test_max_events_stop_leaves_clock_at_last_event():
    """The clock parks at ``until`` only once nothing before it is left,
    so it never runs backwards on the next run."""
    sim = Simulator()
    for t in (1.0, 2.0, 3.0):
        sim.schedule(t, lambda: None)
    sim.run(until=5.0, max_events=1)
    assert sim.now == 1.0
    sim.run(until=5.0)
    assert sim.now == 5.0


class TestProcess:
    def test_process_sleeps_for_yielded_delay(self):
        sim = Simulator()
        trace = []

        def proc():
            trace.append(sim.now)
            yield 1.5
            trace.append(sim.now)
            yield 2.5
            trace.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert trace == [0.0, 1.5, 4.0]

    def test_process_join_waits_for_child(self):
        sim = Simulator()
        trace = []

        def child():
            yield 3.0
            return "done"

        def parent():
            proc = sim.spawn(child())
            result = yield proc
            trace.append((sim.now, result))

        sim.spawn(parent())
        sim.run()
        assert trace == [(3.0, "done")]

    def test_join_already_finished_process(self):
        sim = Simulator()
        trace = []

        def child():
            yield 0.5
            return 42

        def parent(proc):
            yield 2.0
            value = yield proc
            trace.append(value)

        proc = sim.spawn(child())
        sim.spawn(parent(proc))
        sim.run()
        assert trace == [42]

    def test_yield_none_resumes_without_time_advance(self):
        sim = Simulator()
        trace = []

        def proc():
            yield None
            trace.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert trace == [0.0]

    def test_negative_yield_raises(self):
        sim = Simulator()

        def proc():
            yield -1.0

        sim.spawn(proc())
        with pytest.raises(SimulationError):
            sim.run()

    def test_process_return_value_recorded(self):
        sim = Simulator()

        def proc():
            yield 1.0
            return "value"

        handle = sim.spawn(proc())
        sim.run()
        assert handle.finished
        assert handle.value == "value"


def test_pending_tracks_cancel_after_run():
    sim = Simulator()
    early = sim.schedule(1.0, lambda: None)
    late = sim.schedule(5.0, lambda: None)
    sim.run(until=2.0)
    assert sim.pending == 1
    early.cancel()                       # already ran: counter unchanged
    assert sim.pending == 1
    late.cancel()
    assert sim.pending == 0
    late.cancel()                        # double-cancel is a no-op
    assert sim.pending == 0


def test_pending_matches_external_count_randomized():
    import random

    rnd = random.Random(1234)
    sim = Simulator()
    ran = set()
    events = []
    expected = 0
    for step in range(300):
        action = rnd.random()
        if action < 0.5 or not events:
            key = ("ev", step)
            events.append((key, sim.schedule(rnd.uniform(0, 10),
                                             ran.add, key)))
            expected += 1
        elif action < 0.8:
            key, event = events.pop(rnd.randrange(len(events)))
            if not event.cancelled and key not in ran:
                expected -= 1
            event.cancel()
        else:
            before = len(ran)
            sim.run(max_events=rnd.randrange(1, 4))
            expected -= len(ran) - before
        assert sim.pending == expected
    sim.run()
    assert sim.pending == 0


def _ran_event(sim):
    event = sim.schedule(0.5, lambda: None)
    sim.run()
    return event


ARMS = {
    "schedule": lambda sim, t: sim.schedule(t, lambda: None),
    "schedule_at": lambda sim, t: sim.schedule_at(t, lambda: None),
    "reschedule": lambda sim, t: _ran_event(sim).reschedule(t),
    "process_yield": lambda sim, t: sim.run_until_complete(
        sim.spawn(x for x in [t])),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")], ids=str)
@pytest.mark.parametrize("entry", sorted(ARMS))
def test_non_finite_times_rejected(entry, value):
    """NaN would silently break the heap order and inf would park an
    event forever, so every way of arming an event refuses both."""
    sim = Simulator()
    with pytest.raises(SimulationError):
        ARMS[entry](sim, value)
    assert sim.pending == 0


@pytest.mark.parametrize("drive", ["run", "step"])
def test_raising_event_is_counted(drive):
    """``step()`` counts a callback that raises, exactly as ``run()``."""
    sim = Simulator()
    sim.schedule(1.0, operator.truediv, 1, 0)
    with pytest.raises(ZeroDivisionError):
        getattr(sim, drive)()
    assert sim.events_run == 1
    assert sim.pending == 0
