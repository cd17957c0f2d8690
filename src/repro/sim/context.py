"""Simulation context: clock + named RNG streams + hook bus.

Experiments used to derive randomness informally (``default_rng(seed)``
here, ``default_rng(seed + 1)`` there), which couples unrelated
subsystems to the order and count of draws and makes seed collisions a
matter of luck.  :class:`SimContext` replaces that with **named,
hierarchically-derived streams**: every stream is identified by a
dotted name (``"net.jitter"``, ``"d2d.channel"``) and derived from the
root seed through :class:`numpy.random.SeedSequence` spawn keys, so

* the same ``(seed, name)`` always yields the same stream, in any
  process, regardless of which other streams were requested first;
* distinct names yield statistically independent streams -- no more
  ``seed + k`` arithmetic colliding with someone else's ``seed + k``.

The name is hashed (SHA-256) into a spawn key, which is exactly the
mechanism ``SeedSequence.spawn`` uses for its children -- the hash just
makes the key a stable function of the name instead of a call-order
counter.

The context also owns the :class:`~repro.sim.engine.Simulator` (the
clock) and its :class:`~repro.sim.hooks.HookBus`, so one object carries
everything a deterministic experiment needs.
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Optional

import numpy as np

from repro.sim.engine import Event, Simulator
from repro.sim.hooks import HookBus


def _spawn_key(name: str) -> tuple[int, ...]:
    """Stable 128-bit spawn key for a stream name."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i:i + 4], "little")
                 for i in range(0, 16, 4))


def derive_seed(*components: Any) -> int:
    """Collapse arbitrary components into a stable 63-bit seed.

    Process-independent (no ``hash()``), so parallel workers derive the
    same seed as a serial run.
    """
    text = "\x1f".join(repr(c) for c in components)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


class SimContext:
    """Deterministic substrate for one simulation run."""

    def __init__(self, seed: int = 0, sim: Optional[Simulator] = None) -> None:
        self.seed = int(seed)
        self.sim = sim if sim is not None else Simulator()
        self._streams: dict[str, np.random.Generator] = {}

    # -- clock ------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    def schedule(self, delay: float, fn: Callable[..., Any],
                 *args: Any, priority: int = 0) -> Event:
        return self.sim.schedule(delay, fn, *args, priority=priority)

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        self.sim.run(until=until, max_events=max_events)

    # -- hooks ------------------------------------------------------------

    @property
    def hooks(self) -> HookBus:
        return self.sim.hooks

    # -- named RNG streams -------------------------------------------------

    def seed_sequence(self, name: str) -> np.random.SeedSequence:
        """The :class:`~numpy.random.SeedSequence` behind stream ``name``."""
        return np.random.SeedSequence(entropy=self.seed,
                                      spawn_key=_spawn_key(name))

    def rng(self, name: str) -> np.random.Generator:
        """The named stream's generator (cached: one per name)."""
        gen = self._streams.get(name)
        if gen is None:
            gen = np.random.default_rng(self.seed_sequence(name))
            self._streams[name] = gen
        return gen

    def stream_names(self) -> tuple[str, ...]:
        """Streams materialised so far (diagnostics / provenance)."""
        return tuple(sorted(self._streams))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SimContext seed={self.seed} t={self.sim.now:.6f} "
                f"streams={len(self._streams)}>")
