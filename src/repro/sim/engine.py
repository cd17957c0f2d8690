"""Deterministic discrete-event engine.

The simulator executes :class:`Event` records in ``(time, priority,
sequence)`` order -- ties break by insertion order, which makes runs
bit-for-bit reproducible.  One queue inside :class:`Simulator` keeps
that order:

* a binary heap of ``(time, priority, seq, event)`` tuples, so sifting
  compares tuples in C;
* a FIFO *now lane* for zero-delay events at default priority -- the
  dominant kind (process steps, future settlement).  It is sorted by
  construction, because the clock never runs backwards and sequence
  numbers only grow, so those events cost no ordering work.

A pop takes the lesser of the two heads under the full key.  Cancelling
an event leaves a tombstone in place (O(1)); tombstones are skipped
when reached, and the heap is compacted in O(n) once it holds more than
twice as many entries as there are live events.

Two programming styles are supported:

* callback style -- ``sim.schedule(delay, fn, *args)``;
* process style -- ``sim.spawn(generator)`` where the generator yields
  a float delay in seconds, another :class:`Process` to join, or a
  :class:`Future` to await.

:meth:`Simulator.run_until_complete` bridges the two worlds: it drives
the shared event queue until one process finishes, which lets ordinary
synchronous code (including code already running inside an event
callback) block on a signalling procedure that is itself modelled as
simulated traffic.

Internal continuations (process steps, future settlement) recycle their
:class:`Event` records through a free pool: those handles never escape
the engine, so reuse is safe, and a signalling storm allocates almost
no event objects in steady state.  Periodic sources get the same
benefit explicitly via :meth:`Event.reschedule`.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, Optional

from repro.sim.hooks import HookBus

_INF = float("inf")

#: Upper bound on the free pool of recycled internal events.
POOL_CAP = 1024

#: Heap entries tolerated beyond twice the live-event count before the
#: heap is compacted (keeps tiny queues from compacting on every cancel).
COMPACT_FLOOR = 64


class SimulationError(RuntimeError):
    """Raised for invalid scheduling requests (negative or non-finite
    delays, etc.)."""


def _check_delay(delay: float) -> None:
    # NaN fails both comparisons, so it is rejected with the infinities
    if not 0.0 <= delay < _INF:
        raise SimulationError(f"invalid delay {delay}: must be finite "
                              f"and non-negative")


class Event:
    """A scheduled callback.

    Events are returned by :meth:`Simulator.schedule` and can be
    cancelled.  Cancelled events stay queued as tombstones and are
    skipped (and discarded) when reached, which keeps cancellation O(1).
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled",
                 "_sim", "_popped", "_recyclable")

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
        self._recyclable = False

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
        sim._push(self, delay)
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
            self._sim._schedule_internal(delay, self._step)

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
        #: monotone counter bumped every time an event is armed (fresh,
        #: recycled or re-armed).  Real-time pacers snapshot it before a
        #: wall-clock sleep: a changed epoch means a callback (possibly
        #: a reentrant ``run_until_complete`` one) armed new work, so the
        #: cached ``next_event_time()`` bound may now be stale and must
        #: be re-sampled instead of sleeping through the old target.
        self.arm_epoch: int = 0
        self._heap: list[tuple] = []            # (time, priority, seq, Event)
        self._now_lane: deque[Event] = deque()  # zero delay, priority 0
        self._seq = itertools.count()
        self._events_run = 0
        self._live = 0          # not-yet-cancelled, not-yet-run events
        self._heap_peak = 0
        self._discarded = 0     # tombstones dropped at pop or compaction
        self._compactions = 0
        self._pool: list[Event] = []
        self._pool_hits = 0
        self._pool_misses = 0

    # -- the queue --------------------------------------------------------

    def _push(self, event: Event, delay: float) -> None:
        """Queue an armed event: the now lane takes zero-delay events at
        default priority, the heap everything else."""
        self._live += 1
        self.arm_epoch += 1
        if delay == 0.0 and event.priority == 0:
            self._now_lane.append(event)
            return
        heap = self._heap
        heappush(heap, (event.time, event.priority, event.seq, event))
        size = len(heap)
        if size > self._heap_peak:
            self._heap_peak = size
        if size > 2 * self._live + COMPACT_FLOOR:
            self._compact()

    def _compact(self) -> None:
        """Drop every tombstone from the heap and re-heapify: O(n)."""
        heap = self._heap
        live = []
        for entry in heap:
            if entry[3].cancelled:
                entry[3]._popped = True
            else:
                live.append(entry)
        self._discarded += len(heap) - len(live)
        heapify(live)
        self._heap = live
        self._compactions += 1

    def _pop(self, until: Optional[float]) -> Optional[Event]:
        """Remove and return the next live event, or ``None`` if the
        queue is drained or the next event is later than ``until``."""
        lane = self._now_lane
        heap = self._heap
        while True:
            if lane:
                event = lane[0]
                from_lane = True
                if heap and heap[0] < (event.time, 0, event.seq):
                    event = heap[0][3]
                    from_lane = False
            elif heap:
                event = heap[0][3]
                from_lane = False
            else:
                return None
            if event.cancelled:
                self._discarded += 1
            elif until is not None and event.time > until:
                return None
            if from_lane:
                lane.popleft()
            else:
                heappop(heap)
            event._popped = True
            if not event.cancelled:
                self._live -= 1
                return event

    # -- scheduling -----------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., Any],
                 *args: Any, priority: int = 0) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        _check_delay(delay)
        event = Event(self.now + delay, priority, next(self._seq), fn, args,
                      self)
        self._push(event, delay)
        return event

    def _schedule_internal(self, delay: float, fn: Callable[..., Any],
                           *args: Any) -> None:
        """Engine-internal scheduling: the handle never escapes, so the
        event is recycled through the free pool after it runs."""
        pool = self._pool
        if pool:
            event = pool.pop()
            self._pool_hits += 1
            event.time = self.now + delay
            event.seq = next(self._seq)
            event.fn = fn
            event.args = args
            event.cancelled = False
            event._popped = False
        else:
            self._pool_misses += 1
            event = Event(self.now + delay, 0, next(self._seq), fn, args,
                          self)
            event._recyclable = True
        self._push(event, delay)

    def _schedule_step(self, fn: Callable[..., Any], *args: Any) -> None:
        """Zero-delay internal continuation (the dominant event kind)."""
        self._schedule_internal(0.0, fn, *args)

    def _recycle(self, event: Event) -> None:
        if event._recyclable and len(self._pool) < POOL_CAP:
            event.fn = None
            event.args = ()
            self._pool.append(event)

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
        ``max_events`` callbacks have executed."""
        pop = self._pop
        recycle = self._recycle
        # the executed-event count is accumulated locally and folded
        # into the counter on exit (a callback that raises still counts)
        ran = 0
        try:
            while max_events is None or ran < max_events:
                event = pop(until)
                if event is None:
                    break
                ran += 1
                self.now = event.time
                event.fn(*event.args)
                recycle(event)
        finally:
            self._events_run += ran
        if until is not None and self.now < until:
            self.now = until

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
        event = self._pop(None)
        if event is None:
            return False
        # counted before the call, as in run(): a raising callback ran
        self._events_run += 1
        self.now = event.time
        event.fn(*event.args)
        self._recycle(event)
        return True

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
        """
        if self._live <= 0:
            return None
        bound = self._heap[0][0] if self._heap else _INF
        if self._now_lane and self._now_lane[0].time < bound:
            bound = self._now_lane[0].time
        return self.now if bound < self.now else bound

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued.

        O(1): maintained as a live-event counter on push/pop/cancel
        (monitoring loops call this per tick; scanning the queue made
        it O(queue) per call)."""
        return self._live

    @property
    def events_run(self) -> int:
        """Total callbacks executed so far."""
        return self._events_run

    def profile(self) -> dict:
        """Execution counters: events run, queue peaks, tombstones, pool.

        Counters are diagnostics only -- nothing in the simulation may
        read them back into behaviour.
        """
        requests = self._pool_hits + self._pool_misses
        return {
            "events_run": self._events_run,
            "pending": self._live,
            "heap_peak": self._heap_peak,
            "cancelled_discarded": self._discarded,
            "compactions": self._compactions,
            "pool": {
                "hits": self._pool_hits,
                "misses": self._pool_misses,
                "hit_rate": self._pool_hits / requests if requests else 0.0,
                "free": len(self._pool),
            },
        }

    def drain(self, events: Iterable[Event]) -> None:
        """Cancel a collection of events."""
        for event in events:
            event.cancel()
