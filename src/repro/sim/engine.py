"""Deterministic discrete-event engine.

The simulator executes scheduled callbacks in ``(time, priority,
sequence)`` order -- ties break by insertion order, which makes runs
bit-for-bit reproducible.  One queue inside :class:`Simulator` keeps
that order, and every entry in it is a plain tuple ``(time, priority,
seq, fn, args, handle)``:

* a binary heap of entries, so sifting compares tuples in C (``seq``
  is unique, so a comparison never reaches ``fn``);
* a FIFO *now lane* for zero-delay events at default priority -- the
  dominant kind (process steps, future settlement).  It is sorted by
  construction, because the clock never runs backwards and sequence
  numbers only grow, so those events cost no ordering work.

The run loop takes the lesser of the two heads by comparing the two
entries.  ``handle`` is the :class:`Event` of a public, cancellable
event (:meth:`Simulator.schedule`, :meth:`Event.reschedule`) and
``None`` for a handle-less one, which therefore never allocates an
:class:`Event`: process steps, future settlement, and everything armed
through :meth:`Simulator.post` -- link arrivals, process sleeps, and
the fire-and-forget timers whose callers never cancel them (a switch's
CPU-done hop, ping sends, paced transfer chunks, server replies).
``post`` takes the key ``schedule`` would have given (same time,
priority 0, next sequence number), so moving a caller between the two
changes no order.
Cancelling an event leaves a tombstone in place (O(1)); tombstones are
skipped when reached, and the heap is compacted in O(n) once it holds
more than twice as many entries as there are live events.

Two programming styles are supported:

* callback style -- ``sim.schedule(delay, fn, *args)``, or
  ``sim.post(delay, fn, *args)`` when the handle is not needed;
* process style -- ``sim.spawn(generator)`` where the generator yields
  a float delay in seconds, another :class:`Process` to join, or a
  :class:`Future` to await.

:meth:`Simulator.run_until_complete` bridges the two worlds: it drives
the shared event queue until one process finishes, which lets ordinary
synchronous code (including code already running inside an event
callback) block on a signalling procedure that is itself modelled as
simulated traffic.

Periodic sources re-arm one :class:`Event` in place via
:meth:`Event.reschedule` instead of allocating one per period.

An internal event can also be *reserved* instead of pushed: its caller
takes the key the push would have had (``now + delay`` and
``next(sim._seq)``) and pushes it later, under that same key, only if
it turns out to have work (:meth:`Simulator._schedule_reserved`).  A
link's tx-done is the one user: it almost always finds an empty queue.
Whether a reserved key has already "run" is answered by
:meth:`Simulator._key_ran` from the key of the running event, which
the run loop records.  The order of every pushed event is the
order it would have had with the eager push.
"""

from __future__ import annotations

import itertools
import sys
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.sim.hooks import HookBus

_INF = float("inf")

#: Heap entries tolerated beyond twice the live-event count before the
#: heap is compacted (keeps tiny queues from compacting on every cancel).
COMPACT_FLOOR = 64


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (negative or non-finite
    delays, etc.)."""


def _invalid_delay(delay: float) -> SimulationError:
    return SimulationError(f"invalid delay {delay}: must be finite "
                           f"and non-negative")


def _check_delay(delay: float) -> None:
    # NaN fails both comparisons, so it is rejected with the infinities
    if not 0.0 <= delay < _INF:
        raise _invalid_delay(delay)


class Event:
    """The handle of a public scheduled callback.

    Events are returned by :meth:`Simulator.schedule` and can be
    cancelled.  Cancelled events stay queued as tombstones and are
    skipped (and discarded) when reached, which keeps cancellation O(1).
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled",
                 "_sim", "_popped")

    def __init__(self, time: float, priority: int, seq: int,
                 fn: Callable[..., Any], args: tuple, sim: "Simulator"):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._sim = sim
        self._popped = False

    def cancel(self) -> None:
        """Prevent this event's callback from running."""
        if self.cancelled:
            return
        self.cancelled = True
        # keep the owning simulator's live-event counter exact: an
        # event still queued leaves the pending count when cancelled;
        # one that already ran was counted off at pop time
        if not self._popped:
            sim = self._sim
            sim._live -= 1
            if len(sim._heap) > 2 * sim._live + COMPACT_FLOOR:
                sim._compact()

    def reschedule(self, delay: float) -> "Event":
        """Re-arm this event ``delay`` seconds from now, reusing the slot.

        Only valid once the event has left the queue (it ran, or it
        was cancelled and then skipped) -- re-arming an event that is
        still queued would enqueue it twice.  Periodic sources use this
        to tick without allocating a fresh :class:`Event` per period.
        Returns ``self`` so call sites can keep ``timer =
        timer.reschedule(dt)`` shaped like the allocating form.
        """
        sim = self._sim
        if not self._popped:
            raise SimulationError(
                "cannot reschedule an event that is still queued")
        _check_delay(delay)
        self.time = sim.now + delay
        self.seq = next(sim._seq)
        self.cancelled = False
        self._popped = False
        sim._push((self.time, self.priority, self.seq, self.fn, self.args,
                   self), delay == 0.0 and self.priority == 0)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} {getattr(self.fn, '__name__', self.fn)} {state}>"


class Future:
    """A one-shot waitable result.

    Producers (a signalling channel delivering a message, for example)
    call :meth:`resolve` or :meth:`reject` exactly once; consumers
    either ``yield`` the future from a process or attach a callback.
    """

    __slots__ = ("_sim", "done", "value", "error", "_waiters", "_callbacks")

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        self.done = False
        self.value: Any = None
        self.error: Optional[BaseException] = None
        self._waiters: list["Process"] = []
        self._callbacks: list[Callable[["Future"], Any]] = []

    def _settle(self) -> None:
        waiters, self._waiters = self._waiters, []
        callbacks, self._callbacks = self._callbacks, []
        for waiter in waiters:
            if self.error is not None:
                self._sim._schedule_step(waiter._step, None, self.error)
            else:
                self._sim._schedule_step(waiter._step, self.value)
        for fn in callbacks:
            fn(self)

    def resolve(self, value: Any = None) -> None:
        """Complete the future; waiting processes resume at ``now``."""
        if self.done:
            raise SimulationError("future already settled")
        self.done = True
        self.value = value
        self._settle()

    def reject(self, error: BaseException) -> None:
        """Fail the future; the error is thrown into waiting processes."""
        if self.done:
            raise SimulationError("future already settled")
        self.done = True
        self.error = error
        self._settle()

    def add_done_callback(self, fn: Callable[["Future"], Any]) -> None:
        """Run ``fn(future)`` when settled (immediately if already done)."""
        if self.done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("rejected" if self.error is not None
                 else "resolved" if self.done else "pending")
        return f"<Future {state}>"


class Process:
    """A generator-driven coroutine running inside the simulator.

    The generator may yield:

    * ``float`` -- sleep for that many simulated seconds;
    * :class:`Process` -- suspend until that process finishes;
    * :class:`Future` -- suspend until the future settles;
    * ``None`` -- yield control and resume immediately (time does not
      advance).

    An exception escaping the generator marks the process ``finished``
    with ``error`` set.  If other processes are joined on it, the
    exception is thrown into each of them; otherwise it propagates out
    of the event loop (fail fast for fire-and-forget processes).
    """

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        self._sim = sim
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.finished = False
        self.value: Any = None
        self.error: Optional[BaseException] = None
        self._waiters: list[Process] = []

    def _step(self, send_value: Any = None,
              throw: Optional[BaseException] = None) -> None:
        if self.finished:
            return
        try:
            if throw is not None:
                yielded = self._gen.throw(throw)
            else:
                yielded = self._gen.send(send_value)
        except StopIteration as stop:
            self.finished = True
            self.value = stop.value
            for waiter in self._waiters:
                self._sim._schedule_step(waiter._step, self.value)
            self._waiters.clear()
            return
        except Exception as exc:
            self.finished = True
            self.error = exc
            waiters, self._waiters = self._waiters, []
            if not waiters:
                raise
            for waiter in waiters:
                self._sim._schedule_step(waiter._step, None, exc)
            return
        if yielded is None:
            self._sim._schedule_step(self._step)
        elif isinstance(yielded, Process):
            if yielded.finished:
                if yielded.error is not None:
                    self._sim._schedule_step(self._step, None, yielded.error)
                else:
                    self._sim._schedule_step(self._step, yielded.value)
            else:
                yielded._waiters.append(self)
        elif isinstance(yielded, Future):
            if yielded.done:
                if yielded.error is not None:
                    self._sim._schedule_step(self._step, None, yielded.error)
                else:
                    self._sim._schedule_step(self._step, yielded.value)
            else:
                yielded._waiters.append(self)
        else:
            delay = float(yielded)
            if not 0.0 <= delay < _INF:
                raise SimulationError(
                    f"process {self.name!r} yielded invalid delay {delay}")
            self._sim.post(delay, self._step)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self.finished else "running"
        return f"<Process {self.name} {state}>"


class Simulator:
    """Single-threaded discrete-event simulator.

    Attributes
    ----------
    now:
        Current simulated time in seconds.
    hooks:
        The simulation's :class:`~repro.sim.hooks.HookBus`.  Nodes and
        probes publish/subscribe typed events here instead of rebinding
        each other's methods.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self.hooks = HookBus()
        #: monotone counter bumped every time an event is armed (fresh
        #: or re-armed).  Real-time pacers snapshot it before a
        #: wall-clock sleep: a changed epoch means a callback (possibly
        #: a reentrant ``run_until_complete`` one) armed new work, so the
        #: cached ``next_event_time()`` bound may now be stale and must
        #: be re-sampled instead of sleeping through the old target.
        self.arm_epoch: int = 0
        # entries (time, priority, seq, fn, args, handle); handle is
        # the Event of a public event, None for an internal one
        self._heap: list[tuple] = []
        self._now_lane: deque[tuple] = deque()  # zero delay, priority 0
        self._seq = itertools.count()
        self._events_run = 0
        self._live = 0          # not-yet-cancelled, not-yet-run events
        self._heap_peak = 0
        self._discarded = 0     # tombstones dropped at pop or compaction
        self._compactions = 0
        # (priority, seq) of the running event, whose time is ``now``;
        # after a drained or ``until``-bounded run, a watermark seq
        # under which every priority-0 event at ``now`` has run
        self._run_priority = 0
        self._run_seq = -1

    # -- the queue --------------------------------------------------------

    def _push(self, entry: tuple, lane: bool) -> None:
        """Queue an entry: the now lane takes zero-delay entries at
        default priority (``lane``), the heap everything else."""
        self._live += 1
        self.arm_epoch += 1
        if lane:
            self._now_lane.append(entry)
            return
        heap = self._heap
        heappush(heap, entry)
        size = len(heap)
        if size > self._heap_peak:
            self._heap_peak = size
        if size > 2 * self._live + COMPACT_FLOOR:
            self._compact()

    def _compact(self) -> None:
        """Drop every tombstone from the heap and re-heapify: O(n).
        In place, so the run loop's reference to the heap stays valid."""
        heap = self._heap
        live = []
        for entry in heap:
            handle = entry[5]
            if handle is not None and handle.cancelled:
                handle._popped = True
            else:
                live.append(entry)
        self._discarded += len(heap) - len(live)
        heapify(live)
        heap[:] = live
        self._compactions += 1

    # -- scheduling -----------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., Any],
                 *args: Any, priority: int = 0) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        _check_delay(delay)
        time = self.now + delay
        seq = next(self._seq)
        event = Event(time, priority, seq, fn, args, self)
        self._push((time, priority, seq, fn, args, event),
                   delay == 0.0 and priority == 0)
        return event

    def post(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now, with
        no handle.

        The fire-and-forget form of :meth:`schedule`: the same delay
        check and the same key (``now + delay``, priority 0,
        ``next(seq)``), so the same order, but no :class:`Event` is
        made, nothing is returned and the call cannot be cancelled.
        Link arrivals, process sleeps and every caller that would throw
        the handle away use it.  The queue push is inlined: this is the
        per-packet call.
        """
        if not 0.0 <= delay < _INF:
            raise _invalid_delay(delay)
        self._live += 1
        self.arm_epoch += 1
        if delay == 0.0:
            self._now_lane.append((self.now, 0, next(self._seq), fn, args,
                                   None))
            return
        heap = self._heap
        heappush(heap, (self.now + delay, 0, next(self._seq), fn, args, None))
        size = len(heap)
        if size > self._heap_peak:
            self._heap_peak = size
        if size > 2 * self._live + COMPACT_FLOOR:
            self._compact()

    def _schedule_reserved(self, time: float, seq: int,
                           fn: Callable[..., Any], *args: Any) -> None:
        """Push an internal event under a key reserved earlier.

        ``time`` and ``seq`` are the key an eager :meth:`post` would
        have given the event when it was reserved (``seq`` came
        from ``next(self._seq)`` then), so it runs exactly where the
        eager event would have run.  The key must not have run yet
        (:meth:`_key_ran`).  It always goes to the heap: an older seq
        would break the now lane's FIFO order.
        """
        self._push((time, 0, seq, fn, args, None), False)

    def _key_ran(self, seq: int) -> bool:
        """Whether the priority-0 key ``(now, 0, seq)`` has run, i.e. is
        at or before the running event's key (or the watermark left by
        the last drained or ``until``-bounded run)."""
        priority = self._run_priority
        return priority > 0 or (priority == 0 and seq <= self._run_seq)

    def _mark_all_ran(self) -> None:
        """Every event at or before ``now`` has run: set the watermark
        to the last seq issued, so keys reserved later still count as
        pending.  Peeking at the counter restarts it at the same value,
        so the seqs it hands out are unchanged."""
        mark = next(self._seq)
        self._seq = itertools.count(mark)
        self._run_priority = 0
        self._run_seq = mark - 1

    def _schedule_step(self, fn: Callable[..., Any], *args: Any) -> None:
        """Zero-delay internal continuation (the dominant event kind):
        straight onto the now lane."""
        self._live += 1
        self.arm_epoch += 1
        self._now_lane.append((self.now, 0, next(self._seq), fn, args, None))

    def schedule_at(self, time: float, fn: Callable[..., Any],
                    *args: Any, priority: int = 0) -> Event:
        """Schedule ``fn(*args)`` at an absolute simulated time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before now ({self.now})")
        # a NaN or infinite time yields a non-finite delay: schedule()
        # rejects it
        return self.schedule(time - self.now, fn, *args, priority=priority)

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a generator as a process; its first step runs at ``now``."""
        proc = Process(self, gen, name)
        self._schedule_step(proc._step)
        return proc

    def future(self) -> Future:
        """Create a fresh :class:`Future` bound to this simulator."""
        return Future(self)

    # -- execution ------------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` passes, or
        ``max_events`` callbacks have executed.

        The clock parks at ``until`` only once no event at or before it
        is left: a ``max_events`` stop leaves it at the last event run,
        so the next run never moves it backwards."""
        self._run(until, max_events)

    def _run(self, until: Optional[float],
             max_events: Optional[int]) -> int:
        """The event loop behind :meth:`run` and :meth:`step`; returns
        the number of callbacks it executed.  ``step`` enters it
        directly, not through ``run``, so a tracer wrapped around
        ``run`` sees one span per ``run_until_complete``, not one per
        event."""
        lane = self._now_lane
        heap = self._heap
        popleft = lane.popleft
        bound = _INF if until is None else until
        limit = sys.maxsize if max_events is None else max_events
        # the executed-event count is accumulated locally and folded
        # into the counter on exit (a callback that raises still counts)
        ran = 0
        try:
            while ran < limit:
                if lane:
                    entry = lane[0]
                    if heap and heap[0] < entry:
                        entry = heap[0]
                        from_lane = False
                    else:
                        from_lane = True
                elif heap:
                    entry = heap[0]
                    from_lane = False
                else:
                    break
                time, priority, seq, fn, args, handle = entry
                if time > bound and (handle is None or not handle.cancelled):
                    break
                if from_lane:
                    popleft()
                else:
                    heappop(heap)
                if handle is not None:
                    handle._popped = True
                    if handle.cancelled:
                        self._discarded += 1
                        continue
                self._live -= 1
                ran += 1
                self.now = time
                self._run_priority = priority
                self._run_seq = seq
                fn(*args)
            else:
                return ran
            # drained, or the next event is later than ``until``
            if until is not None and self.now < until:
                self.now = until
            self._mark_all_ran()
            return ran
        finally:
            self._events_run += ran

    def run_until_complete(self, proc: Process) -> Any:
        """Drive the event queue until ``proc`` finishes; return its value.

        This is the synchronous facade over process-style procedures:
        it pops events off the *shared* queue, so it is reentrant --
        an event callback may call it, and the whole world (other
        procedures, data-plane traffic, timers) keeps advancing while
        the caller blocks.  Raises the process's own exception if it
        fails, and :class:`SimulationError` if the queue drains before
        the process can finish (a deadlocked wait).
        """
        while not proc.finished:
            if not self.step():
                raise SimulationError(
                    f"deadlock: no pending events but process "
                    f"{proc.name!r} has not finished")
        if proc.error is not None:
            raise proc.error
        return proc.value

    def step(self) -> bool:
        """Run exactly one pending event.  Returns False if none remain."""
        return self._run(None, 1) == 1

    def next_event_time(self) -> Optional[float]:
        """A lower bound on the next pending event's time, or ``None``.

        ``None`` means the queue is drained (no live events).  Otherwise
        the returned time is ``>= now`` and ``<=`` the true next event
        time: it is the earlier of the two queue heads, which may be a
        cancelled tombstone, so the bound may be early but never late.
        Real-time pacers (:mod:`repro.ops.pacer`) use it to sleep
        through idle stretches instead of polling empty quanta; running
        the simulator ``until`` the bound and asking again converges on
        the true next event.

        The bound describes the queue *as it stands now*: any callback
        that arms events afterwards -- including control code calling
        :meth:`run_until_complete` reentrantly -- invalidates it.  Such
        arming bumps :attr:`arm_epoch`, which sleepers compare against
        a snapshot to know when to re-sample instead of trusting a
        stale bound.

        A link's reserved but unarmed tx-done is not in the queue, so
        it never sets the bound.  The pacer is unaffected: that event
        would do no work, and the arrival of the same packet is queued
        at or after it, so the bound still never passes real work.
        """
        if self._live <= 0:
            return None
        bound = self._heap[0][0] if self._heap else _INF
        if self._now_lane and self._now_lane[0][0] < bound:
            bound = self._now_lane[0][0]
        return self.now if bound < self.now else bound

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued.

        A link's reserved but unarmed tx-done is not counted: it is
        never queued unless a packet waits behind it.

        O(1): maintained as a live-event counter on push/pop/cancel
        (monitoring loops call this per tick; scanning the queue made
        it O(queue) per call)."""
        return self._live

    @property
    def events_run(self) -> int:
        """Total callbacks executed so far."""
        return self._events_run

    def profile(self) -> dict:
        """Execution counters: events run, queue peaks, tombstones.

        Counters are diagnostics only -- nothing in the simulation may
        read them back into behaviour.
        """
        return {
            "events_run": self._events_run,
            "pending": self._live,
            "heap_peak": self._heap_peak,
            "cancelled_discarded": self._discarded,
            "compactions": self._compactions,
        }

    def drain(self, events: Iterable[Event]) -> None:
        """Cancel a collection of events."""
        for event in events:
            event.cancel()
