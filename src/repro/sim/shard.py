"""Sharded parallel simulation with conservative WAN-lookahead sync.

One discrete-event world is partitioned into *shards* -- independent
:class:`~repro.sim.engine.Simulator` instances (one per edge site in
the ACACIA fabric), each owning its site's eNodeBs, UEs, gateways and
MEC pod -- connected by *conduits*: directed pairs with a known
minimum propagation delay (the inter-site WAN links, whose latency is
the natural lookahead a Chandy-Misra-Bryant-style conservative scheme
needs).

Window protocol
---------------

The coordinator advances every shard through a sequence of global
time windows ``W_0 = 0 < W_1 <= W_2 <= ...``:

1. each shard reports ``nb_i = sim.next_event_time()`` -- a lower
   bound that may be early but never late (see
   :meth:`~repro.sim.engine.Simulator.next_event_time`);
2. the coordinator computes ``base = min(nb_i, pending envelope
   delivery times)`` and opens the next window
   ``W_{k+1} = min(T_end, max(W_k, base) + L)`` where ``L`` is the
   *lookahead*: the minimum conduit delay;
3. every shard injects its inbox (envelopes sorted canonically),
   runs ``sim.run(until=W_{k+1})`` and replies with its new bound and
   the envelopes it sent.

Safety: an event processed inside window ``k+1`` has time
``t >= max(W_k, base)``, so any envelope it emits delivers at
``t + delay >= max(W_k, base) + L = W_{k+1}`` (when ``W_{k+1}`` was
not clipped at ``T_end``; clipping only shrinks windows, which is
always safe) -- at or after the window every peer has already run to,
never in a peer's past.  Liveness: each round with work advances the
window by at least ``L > 0``, so a horizon needs at most
``T_end / L`` plus an envelope-drain tail of rounds -- two shards
with zero cross traffic cannot deadlock.

Determinism
-----------

Envelopes carry the sender's ``(deliver_time, priority, src_index,
seq)`` key; every inbox is sorted on exactly that key before
injection, and injection order fixes the receiver's event sequence
numbers, so the merged execution order is canonical.  The ``inline``
backend steps the very same federation in one process (shards in
index order per window); the ``process`` backend runs one OS process
per shard.  Both execute the identical window schedule with identical
envelope flows, so their results are byte-identical -- the
differential tests assert it on canonical JSON.

Cross-shard payloads must be plain JSON-able data (dicts, lists,
numbers, strings): they cross a ``multiprocessing`` pipe and must
mean the same thing in both backends.

This module is part of ``repro.sim`` and depends only on the stdlib:
shard *builders* (which may construct whole
:class:`~repro.core.network.MobileNetwork` worlds) are supplied by
higher layers as picklable module-level callables.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

__all__ = [
    "Conduit",
    "ShardPort",
    "ShardSpec",
    "ShardedSimulator",
    "canonical_digest",
    "run_isolated",
]

#: Environment marker set inside shard/isolated child processes, so
#: host-side dispatchers (the exp runner) never recurse into another
#: layer of process isolation.
SHARD_CHILD_ENV = "REPRO_SHARD_CHILD"

#: Hard cap on protocol rounds, as a guard against a mis-built
#: federation (e.g. a zero-lookahead loop slipping past validation).
#: Real runs need ~``T_end / lookahead`` rounds plus a short drain
#: tail; the guard is far above that.
_MAX_ROUND_SLACK = 64


def canonical_digest(value: Any) -> str:
    """SHA-256 of ``value``'s canonical JSON (sorted keys, no spaces).

    The byte-identity currency of the sharding layer: two runs are
    *identical* iff their results' canonical digests match.
    """
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Conduit:
    """An undirected inter-shard channel with a fixed minimum delay.

    Cross-shard messages between ``a`` and ``b`` (either direction)
    arrive exactly ``delay`` simulated seconds after they are sent;
    the smallest conduit delay in a federation is its lookahead.
    """

    a: str
    b: str
    delay: float

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError(f"conduit endpoints must differ, got {self.a!r}")
        if self.delay <= 0:
            raise ValueError(
                f"conduit {self.a!r}<->{self.b!r} needs a positive delay "
                f"(it is the conservative lookahead), got {self.delay}")


@dataclass(frozen=True)
class ShardSpec:
    """One shard: a name plus a picklable builder and its kwargs.

    ``build(port, **kwargs)`` must be a module-level callable (it
    crosses a process boundary) returning the shard *app*: any object
    with

    * ``sim`` -- the shard's :class:`~repro.sim.engine.Simulator`;
    * ``deliver(src, payload)`` -- invoked at an envelope's delivery
      time with the sender shard's name and the payload;
    * ``collect()`` -- the shard's JSON-able result dict, called once
      after the horizon.

    The builder receives a :class:`ShardPort` for outbound traffic and
    must only *arm* initial events (attach storms, traffic schedules);
    it must not run the simulator -- time advances exclusively inside
    the window protocol.
    """

    name: str
    build: Callable[..., Any]
    kwargs: dict = field(default_factory=dict)


class ShardPort:
    """A shard's handle onto the conduit mesh.

    ``send(dst, payload, priority=0)`` timestamps an envelope with the
    sender's current simulated time plus the conduit delay and queues
    it for the coordinator to route at the end of the window.
    """

    def __init__(self, index: int, name: str,
                 delays: dict[str, float]) -> None:
        self.index = index
        self.name = name
        self._delays = dict(delays)
        self._sim = None
        self._seq = 0
        self.outbox: list[tuple] = []

    @property
    def peers(self) -> tuple[str, ...]:
        """Names of the shards this one has a conduit to, sorted."""
        return tuple(sorted(self._delays))

    def bind(self, sim) -> None:
        """Attach the shard's simulator (done once, after build)."""
        self._sim = sim

    def send(self, dst: str, payload: Any, priority: int = 0) -> None:
        """Emit ``payload`` toward shard ``dst`` over its conduit."""
        try:
            delay = self._delays[dst]
        except KeyError:
            raise ValueError(
                f"shard {self.name!r} has no conduit to {dst!r}; "
                f"peers: {list(self.peers)}") from None
        if self._sim is None:
            raise RuntimeError("port not bound to a simulator yet")
        seq = self._seq
        self._seq += 1
        self.outbox.append((self._sim.now + delay, priority, self.index,
                            seq, self.name, dst, payload))


def _envelope_key(envelope: tuple) -> tuple:
    """Canonical merge order: (deliver_time, priority, src_index, seq)."""
    return envelope[:4]


def _inject(app, port: ShardPort, inbox: Sequence[tuple]) -> None:
    """Schedule an inbox (already canonically sorted) for delivery.

    Injection order assigns the receiver's event sequence numbers, so
    sorting + in-order ``schedule_at`` makes the merge deterministic.
    """
    for deliver_time, priority, _src_index, _seq, src, _dst, payload \
            in inbox:
        app.sim.schedule_at(deliver_time, app.deliver, src, payload,
                            priority=priority)


def _advance(app, port: ShardPort, window: float,
             inbox: Sequence[tuple]) -> tuple[Optional[float], list[tuple]]:
    """One shard's side of a protocol round."""
    _inject(app, port, inbox)
    port.outbox = []
    app.sim.run(until=window)
    return app.sim.next_event_time(), port.outbox


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------

class _InlineShard:
    """In-process shard: the single-process reference execution."""

    def __init__(self, index: int, spec: ShardSpec,
                 delays: dict[str, float]) -> None:
        self.port = ShardPort(index, spec.name, delays)
        self.app = spec.build(self.port, **spec.kwargs)
        self.port.bind(self.app.sim)
        self._reply: Any = None

    def ready_bound(self) -> Optional[float]:
        return self.app.sim.next_event_time()

    def post_advance(self, window: float, inbox: list[tuple]) -> None:
        self._reply = _advance(self.app, self.port, window, inbox)

    def recv_reply(self) -> tuple[Optional[float], list[tuple]]:
        return self._reply

    def post_finish(self, horizon: float) -> None:
        self.app.sim.run(until=horizon)
        self._reply = self.app.collect()

    def recv_result(self) -> dict:
        return self._reply

    def close(self) -> None:
        pass


def _shard_worker(conn, index: int, spec: ShardSpec,
                  delays: dict[str, float]) -> None:
    """Child-process main loop: build once, then serve protocol rounds."""
    os.environ[SHARD_CHILD_ENV] = "1"
    try:
        port = ShardPort(index, spec.name, delays)
        app = spec.build(port, **spec.kwargs)
        port.bind(app.sim)
        conn.send(("ready", app.sim.next_event_time()))
        while True:
            message = conn.recv()
            if message[0] == "advance":
                _op, window, inbox = message
                conn.send(("ok",) + _advance(app, port, window, inbox))
            elif message[0] == "finish":
                # park the clock exactly at the horizon: the last
                # window's end depends on next_event_time() lower
                # bounds, the horizon does not, so collected clocks do
                # not depend on the window schedule
                app.sim.run(until=message[1])
                conn.send(("result", app.collect()))
                return
            else:  # pragma: no cover - protocol misuse
                raise RuntimeError(f"unknown op {message[0]!r}")
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - pipe already gone
            pass
    finally:
        conn.close()


def _mp_context():
    """Prefer ``fork`` (cheap, inherits the built code); fall back to
    ``spawn`` where fork is unavailable."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


class _ProcessShard:
    """One shard in its own OS process, spoken to over a pipe."""

    def __init__(self, index: int, spec: ShardSpec,
                 delays: dict[str, float], ctx) -> None:
        self.name = spec.name
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(
            target=_shard_worker, args=(child, index, spec, delays),
            name=f"shard-{spec.name}")
        self._proc.start()
        child.close()
        self._ready = self._recv()

    def _recv(self):
        try:
            message = self._conn.recv()
        except EOFError:
            raise RuntimeError(
                f"shard {self.name!r} process died without replying "
                f"(exitcode {self._proc.exitcode})") from None
        if message[0] == "error":
            raise RuntimeError(
                f"shard {self.name!r} failed:\n{message[1]}")
        return message[1:]

    def ready_bound(self) -> Optional[float]:
        return self._ready[0]

    def post_advance(self, window: float, inbox: list[tuple]) -> None:
        self._conn.send(("advance", window, inbox))

    def recv_reply(self) -> tuple[Optional[float], list[tuple]]:
        return self._recv()

    def post_finish(self, horizon: float) -> None:
        self._conn.send(("finish", horizon))

    def recv_result(self) -> dict:
        return self._recv()[0]

    def close(self) -> None:
        try:
            self._conn.close()
        except OSError:  # pragma: no cover
            pass
        self._proc.join(timeout=10.0)
        if self._proc.is_alive():  # pragma: no cover - hung child
            self._proc.terminate()
            self._proc.join(timeout=10.0)


#: Execution backends: ``inline`` is the single-process reference,
#: ``process`` runs one OS process per shard.  Identical results.
BACKENDS = ("inline", "process")


class ShardedSimulator:
    """Coordinator for a federation of shards (see the module docs).

    Parameters
    ----------
    specs:
        One :class:`ShardSpec` per shard; order fixes shard indices
        (and therefore canonical envelope merge order), so callers
        must pass the same order in every backend.
    conduits:
        The inter-shard channels.  Shards without any conduit simply
        never exchange traffic; with *no* conduits at all the
        lookahead is infinite and the horizon runs in one window.
    backend:
        ``"inline"`` or ``"process"``.
    """

    def __init__(self, specs: Sequence[ShardSpec],
                 conduits: Sequence[Conduit] = (),
                 backend: str = "inline") -> None:
        if not specs:
            raise ValueError("at least one shard is required")
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one "
                             f"of {BACKENDS}")
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate shard names in {names}")
        self.specs = list(specs)
        self.backend = backend
        self._index = {name: i for i, name in enumerate(names)}
        delays: list[dict[str, float]] = [{} for _ in specs]
        for conduit in conduits:
            for end in (conduit.a, conduit.b):
                if end not in self._index:
                    raise ValueError(f"conduit endpoint {end!r} is not a "
                                     f"shard; shards: {names}")
            delays[self._index[conduit.a]][conduit.b] = conduit.delay
            delays[self._index[conduit.b]][conduit.a] = conduit.delay
        self._delays = delays
        self.lookahead = min((c.delay for c in conduits),
                             default=float("inf"))
        # protocol statistics (backend-invariant, safe to embed in
        # byte-compared results)
        self.rounds = 0
        self.envelopes_sent = 0
        self.envelopes_dropped = 0
        self._shards: Optional[list] = None

    # -- lifecycle -------------------------------------------------------

    def _start(self) -> list:
        if self.backend == "inline":
            return [_InlineShard(i, spec, self._delays[i])
                    for i, spec in enumerate(self.specs)]
        ctx = _mp_context()
        shards = []
        try:
            for i, spec in enumerate(self.specs):
                shards.append(_ProcessShard(i, spec, self._delays[i], ctx))
        except BaseException:
            for shard in shards:
                shard.close()
            raise
        return shards

    def run(self, until: float) -> dict[str, dict]:
        """Advance every shard to simulated time ``until`` and collect.

        Returns ``{shard name: app.collect()}``.  One-shot: builds the
        shards, runs the window protocol to the horizon, gathers the
        results and tears the backend down.
        """
        t_end = float(until)
        if t_end < 0:
            raise ValueError(f"negative horizon {until}")
        shards = self._start()
        try:
            return self._drive(shards, t_end)
        finally:
            for shard in shards:
                shard.close()

    def _drive(self, shards: list, t_end: float) -> dict[str, dict]:
        bounds = [shard.ready_bound() for shard in shards]
        pending: list[list[tuple]] = [[] for _ in shards]
        window = 0.0
        max_rounds = _MAX_ROUND_SLACK + (
            0 if self.lookahead == float("inf")
            else int(4 * t_end / self.lookahead))
        while True:
            base = min(
                (b for b in bounds if b is not None),
                default=float("inf"))
            for box in pending:
                for envelope in box:
                    base = min(base, envelope[0])
            if base > t_end:
                break
            window = min(t_end, max(window, base) + self.lookahead)
            for i, shard in enumerate(shards):
                inbox = sorted(pending[i], key=_envelope_key)
                pending[i] = []
                shard.post_advance(window, inbox)
            for i, shard in enumerate(shards):
                bound, outbox = shard.recv_reply()
                bounds[i] = bound
                for envelope in outbox:
                    self.envelopes_sent += 1
                    if envelope[0] > t_end:
                        # undeliverable inside the horizon; dropped by
                        # the coordinator, identically in every backend
                        self.envelopes_dropped += 1
                        continue
                    pending[self._index[envelope[5]]].append(envelope)
            self.rounds += 1
            if self.rounds > max_rounds:
                raise RuntimeError(
                    f"window protocol exceeded {max_rounds} rounds "
                    f"(lookahead {self.lookahead}, horizon {t_end}); "
                    f"federation is mis-built")
        results = {}
        for shard in shards:
            shard.post_finish(t_end)
        for spec, shard in zip(self.specs, shards):
            results[spec.name] = shard.recv_result()
        return results

    def stats(self) -> dict[str, Any]:
        """Protocol counters (identical across backends)."""
        return {
            "backend": self.backend,
            "shards": len(self.specs),
            "lookahead": self.lookahead,
            "rounds": self.rounds,
            "envelopes_sent": self.envelopes_sent,
            "envelopes_dropped": self.envelopes_dropped,
        }


# ---------------------------------------------------------------------------
# degenerate single-shard isolation
# ---------------------------------------------------------------------------

def _isolated_entry(conn, fn, args) -> None:
    os.environ[SHARD_CHILD_ENV] = "1"
    try:
        conn.send(("ok", fn(*args)))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - pipe already gone
            pass
    finally:
        conn.close()


def in_shard_child() -> bool:
    """True inside a shard or isolated child process."""
    return os.environ.get(SHARD_CHILD_ENV) == "1"


def run_isolated(fn: Callable[..., Any], *args: Any) -> Any:
    """Run ``fn(*args)`` to completion in a dedicated child process.

    The degenerate single-shard execution path: a monolithic world
    (one shared MME/control plane, so it cannot be partitioned along
    WAN conduits) still honours ``sharding="site"`` by running whole
    in one shard process -- trivially byte-identical to in-process
    execution, since it runs the very same code.  ``fn`` and ``args``
    must be picklable; the return value crosses the pipe back.
    """
    ctx = _mp_context()
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_isolated_entry, args=(child, fn, args),
                       name=f"isolated-{getattr(fn, '__name__', 'fn')}")
    proc.start()
    child.close()
    try:
        try:
            message = parent.recv()
        except EOFError:
            raise RuntimeError(
                f"isolated process died without replying "
                f"(exitcode {proc.exitcode})") from None
    finally:
        parent.close()
        proc.join(timeout=10.0)
        if proc.is_alive():  # pragma: no cover - hung child
            proc.terminate()
            proc.join(timeout=10.0)
    if message[0] == "error":
        raise RuntimeError(f"isolated run failed:\n{message[1]}")
    return message[1]
