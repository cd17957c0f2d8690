"""Per-site matcher autoscaling with hysteresis and cooldown.

Runs entirely in *simulated* time -- evaluation is a periodic sim
event, not an asyncio task -- so a paced soak and an unpaced
deterministic run make byte-identical scaling decisions.

Policy per site, each ``interval`` simulated seconds:

* **up** when queue depth exceeds ``high_queue`` *or* p99 match
  latency exceeds ``high_p99_ms`` for ``sustain`` consecutive
  evaluations (and the cooldown has elapsed): grow by ``step`` up to
  ``max_workers``;
* **down** when depth is below ``low_queue`` *and* p99 below
  ``low_p99_ms`` for ``sustain`` consecutive evaluations: shrink by
  ``step`` down to ``min_workers`` (graceful -- see
  :meth:`~repro.ops.matchsvc.SiteMatcherService.scale_to`);
* anything in between resets both streaks (hysteresis band).

Decisions are emitted as typed :class:`~repro.ops.events.ScaleUp` /
:class:`~repro.ops.events.ScaleDown` events on the hook bus.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.ops.config import AutoscalerConfig
from repro.ops.events import ScaleDown, ScaleUp

if TYPE_CHECKING:  # pragma: no cover
    from repro.ops.matchsvc import SiteMatcherService
    from repro.sim.context import SimContext


class Autoscaler:
    """Scales every site's :class:`SiteMatcherService` fleet."""

    def __init__(self, ctx: "SimContext",
                 services: Mapping[str, "SiteMatcherService"],
                 config: AutoscalerConfig) -> None:
        self.ctx = ctx
        self.services = services
        self.config = config
        self._up_streak: dict[str, int] = {s: 0 for s in services}
        self._down_streak: dict[str, int] = {s: 0 for s in services}
        self._last_action: dict[str, float] = {}
        self.scale_ups = 0
        self.scale_downs = 0
        self._running = False

    def start(self, until: float) -> None:
        """Begin periodic evaluation (sim events) until sim time
        ``until``."""
        if not self.config.enabled or self._running:
            return
        self._running = True
        self.ctx.sim.post(self.config.interval, self._tick, until)

    def _tick(self, until: float) -> None:
        self.evaluate()
        if self.ctx.now + self.config.interval <= until:
            self.ctx.sim.post(self.config.interval, self._tick, until)
        else:
            self._running = False

    # -- policy ------------------------------------------------------------

    def evaluate(self) -> None:
        """One evaluation pass over every site (sorted order)."""
        for site in sorted(self.services):
            self._evaluate_site(site, self.services[site])

    def _evaluate_site(self, site: str,
                       svc: "SiteMatcherService") -> None:
        cfg = self.config
        depth = svc.queue_depth
        p99 = svc.p99_ms()
        hot = depth > cfg.high_queue or p99 > cfg.high_p99_ms
        cold = depth < cfg.low_queue and p99 < cfg.low_p99_ms

        self._up_streak[site] = self._up_streak[site] + 1 if hot else 0
        self._down_streak[site] = (self._down_streak[site] + 1
                                   if cold else 0)

        last = self._last_action.get(site)
        cooling = (last is not None
                   and self.ctx.now - last < cfg.cooldown)
        if cooling:
            return

        if (self._up_streak[site] >= cfg.sustain
                and svc.workers < cfg.max_workers):
            target = min(cfg.max_workers, svc.workers + cfg.step)
            before = svc.workers
            svc.scale_to(target)
            self.scale_ups += 1
            self._last_action[site] = self.ctx.now
            self._up_streak[site] = 0
            self.ctx.hooks.emit(ScaleUp(
                site=site, from_workers=before, to_workers=target,
                queue_depth=depth, p99_ms=p99, time=self.ctx.now))
        elif (self._down_streak[site] >= cfg.sustain
                and svc.workers > cfg.min_workers):
            target = max(cfg.min_workers, svc.workers - cfg.step)
            before = svc.workers
            svc.scale_to(target)
            self.scale_downs += 1
            self._last_action[site] = self.ctx.now
            self._down_streak[site] = 0
            self.ctx.hooks.emit(ScaleDown(
                site=site, from_workers=before, to_workers=target,
                queue_depth=depth, p99_ms=p99, time=self.ctx.now))
