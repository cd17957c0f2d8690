"""Simulated per-site MEC matcher fleets.

Each edge site runs a :class:`SiteMatcherService`: a FIFO queue of
match requests drained by ``workers`` parallel simulated workers whose
per-job service time is drawn from the site's own named RNG stream
(``ops.match.<site>``), so ops-layer load never perturbs the network
simulation's draws and two runs with the same seed serve identical
latencies.

Growing a fleet takes effect immediately (idle capacity starts
draining the queue in the same event).  Shrinking is graceful: a
retired worker finishes its in-flight job and is simply not given
another, so scaling down never cancels a match in flight.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.ops.config import MatcherServiceConfig, TelemetryConfig
from repro.ops.events import MatchCompleted, MatchDropped

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.context import SimContext

#: Requests queued beyond this are shed (and counted in ``dropped``).
DEFAULT_MAX_QUEUE = 256


class SiteMatcherService:
    """One edge site's simulated matcher fleet."""

    def __init__(self, ctx: "SimContext", site: str,
                 config: Optional[MatcherServiceConfig] = None,
                 workers: int = 1, window: int = 256,
                 max_queue: int = DEFAULT_MAX_QUEUE) -> None:
        self.ctx = ctx
        self.site = site
        self.config = config or MatcherServiceConfig()
        self.workers = workers
        self.max_queue = max_queue
        self.rng: np.random.Generator = ctx.rng(f"ops.match.{site}")
        self._queue: deque[float] = deque()     # arrival sim-times
        self._busy = 0
        self.latencies: deque[float] = deque(maxlen=window)
        self.submitted = 0
        self.completed = 0
        self.dropped = 0

    # -- queue -------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def busy(self) -> int:
        return self._busy

    def submit(self) -> bool:
        """Offer one match request; returns False if it was shed."""
        self.submitted += 1
        if len(self._queue) >= self.max_queue:
            self.dropped += 1
            if self.ctx.hooks.has(MatchDropped):
                self.ctx.hooks.emit(MatchDropped(
                    site=self.site, queue_depth=len(self._queue),
                    time=self.ctx.now))
            return False
        self._queue.append(self.ctx.now)
        self._dispatch()
        return True

    def _dispatch(self) -> None:
        while self._busy < self.workers and self._queue:
            arrival = self._queue.popleft()
            self._busy += 1
            cfg = self.config
            service = cfg.service_time
            if cfg.jitter > 0:
                service += float(self.rng.uniform(-cfg.jitter,
                                                  cfg.jitter))
            started = self.ctx.now
            self.ctx.sim.schedule(service, self._complete, arrival,
                                  started)

    def _complete(self, arrival: float, started: float) -> None:
        self._busy -= 1
        self.completed += 1
        latency = self.ctx.now - arrival
        self.latencies.append(latency)
        if self.ctx.hooks.has(MatchCompleted):
            self.ctx.hooks.emit(MatchCompleted(
                site=self.site, latency=latency,
                queued=started - arrival, time=self.ctx.now))
        self._dispatch()

    # -- scaling -----------------------------------------------------------

    def scale_to(self, workers: int) -> None:
        """Set the fleet size.  Growth drains the queue immediately;
        shrink retires workers as their in-flight jobs complete."""
        if workers < 1:
            raise ValueError("a site keeps at least one matcher worker")
        self.workers = workers
        self._dispatch()

    # -- health ------------------------------------------------------------

    def p50_ms(self) -> float:
        if not self.latencies:
            return 0.0
        return float(np.median(self.latencies)) * 1e3

    def p99_ms(self) -> float:
        if not self.latencies:
            return 0.0
        return float(np.percentile(self.latencies, 99)) * 1e3

    def load(self) -> float:
        """0..1 pressure signal for load-aware admission: 0 when idle,
        1 when the queue is at the shedding threshold."""
        if self.max_queue <= 0:
            return 0.0
        return min(1.0, len(self._queue) / self.max_queue)

    def gauges(self) -> dict:
        return {"site": self.site, "workers": self.workers,
                "busy": self._busy, "queue_depth": len(self._queue),
                "p50_ms": self.p50_ms(), "p99_ms": self.p99_ms(),
                "completed": self.completed, "dropped": self.dropped}


def build_services(ctx: "SimContext", sites, config: MatcherServiceConfig,
                   telemetry: TelemetryConfig,
                   workers: int = 1) -> dict[str, SiteMatcherService]:
    """One service per edge site, in sorted site order (so stream
    creation order -- and thus nothing at all -- depends on dict
    iteration order)."""
    return {site: SiteMatcherService(ctx, site, config, workers=workers,
                                     window=telemetry.window)
            for site in sorted(sites)}
