"""UE mobility: walk paths driving automatic handover.

Ties the store-floor geometry to the network: a mobile UE follows a
:class:`~repro.apps.scenario.WalkPath`; every update interval the
manager re-evaluates the serving cell by distance and hands the UE over
to the closest eNodeB, with a hysteresis margin so cell-edge users do
not ping-pong.  The D2D subscriber position (and hence discovery and
localisation) moves along automatically when a customer app is bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.apps.scenario import Position, WalkPath

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.retail import RetailCustomerApp
    from repro.core.network import MobileNetwork
    from repro.epc.ue import UEDevice


@dataclass
class MobileUser:
    """One walking UE."""

    ue: "UEDevice"
    walk: WalkPath
    started_at: float
    customer: Optional["RetailCustomerApp"] = None
    handovers: list[tuple[float, str, str]] = field(default_factory=list)
    #: True while an (asynchronous) handover procedure is in flight
    handover_in_flight: bool = False

    def position_at(self, now: float) -> Position:
        return self.walk.position_at(now - self.started_at)

    @property
    def finished(self) -> bool:
        return False    # the manager decides based on walk duration


class MobilityManager:
    """Periodic position updates + distance-based handover decisions."""

    def __init__(self, network: "MobileNetwork",
                 enb_positions: dict[str, Position],
                 update_interval: float = 1.0,
                 hysteresis: float = 3.0,
                 hysteresis_db: float = 0.0,
                 path_loss_exponent: float = 3.0) -> None:
        """``hysteresis`` is the metres by which a neighbour cell must
        be closer before a handover is triggered (A3-offset analog).

        ``hysteresis_db`` expresses the same A3 offset in received-power
        terms: under a log-distance path-loss model with exponent
        ``path_loss_exponent``, the neighbour must look
        ``10 * n * log10(d_serving / d_neighbour)`` dB stronger before
        the handover fires.  Both margins must be met.  The default of
        ``0.0`` dB disables the power criterion, preserving the
        distance-only behaviour.
        """
        unknown = set(enb_positions) - set(network.enbs)
        if unknown:
            raise ValueError(f"positions given for unknown eNodeBs: "
                             f"{sorted(unknown)}")
        if update_interval <= 0:
            raise ValueError("update interval must be positive")
        if hysteresis_db < 0:
            raise ValueError("hysteresis_db must be >= 0")
        if path_loss_exponent <= 0:
            raise ValueError("path_loss_exponent must be positive")
        self.network = network
        self.enb_positions = dict(enb_positions)
        self.update_interval = update_interval
        self.hysteresis = hysteresis
        self.hysteresis_db = hysteresis_db
        self.path_loss_exponent = path_loss_exponent
        self.users: dict[str, MobileUser] = {}

    # -- registration ---------------------------------------------------------

    def add_mobile(self, ue: "UEDevice", walk: WalkPath,
                   customer: Optional["RetailCustomerApp"] = None
                   ) -> MobileUser:
        user = MobileUser(ue=ue, walk=walk,
                          started_at=self.network.sim.now,
                          customer=customer)
        self.users[ue.name] = user
        self._tick(user)
        return user

    def remove_mobile(self, ue_name: str) -> None:
        self.users.pop(ue_name, None)

    # -- the update loop ---------------------------------------------------------

    def _tick(self, user: MobileUser) -> None:
        if self.users.get(user.ue.name) is not user:
            return      # removed (or replaced) -> stop ticking
        now = self.network.sim.now
        position = user.position_at(now)
        if user.customer is not None:
            user.customer.move_to(position)
        self._maybe_handover(user, position)
        elapsed = now - user.started_at
        if elapsed < user.walk.duration:
            self.network.sim.post(self.update_interval, self._tick, user)

    def _distance_to(self, enb_name: str, position: Position) -> float:
        x, y = self.enb_positions[enb_name]
        return ((position[0] - x) ** 2 + (position[1] - y) ** 2) ** 0.5

    def best_cell(self, position: Position) -> str:
        return min(self.enb_positions,
                   key=lambda name: self._distance_to(name, position))

    def _maybe_handover(self, user: MobileUser, position: Position) -> None:
        ue = user.ue
        if user.handover_in_flight:
            return      # one signalling procedure per UE at a time
        if not ue.rrc_connected:
            return      # idle-mode reselection is out of scope
        current = self.network.mme.context(ue.imsi).enb.name
        if current not in self.enb_positions:
            return
        best = self.best_cell(position)
        if best == current:
            return
        d_current = self._distance_to(current, position)
        d_best = self._distance_to(best, position)
        if d_current - d_best < self.hysteresis:
            return
        if self.hysteresis_db > 0.0:
            gain_db = self._gain_db(d_current, d_best)
            if gain_db < self.hysteresis_db:
                return
        # run the handover as a process: the tick loop (and every other
        # user's signalling) keeps going while this one's is in flight
        user.handover_in_flight = True
        self.network.sim.spawn(self._handover_proc(user, current, best),
                               name=f"mobility-ho:{ue.name}")

    def _gain_db(self, d_current: float, d_best: float) -> float:
        """Neighbour-over-serving received-power advantage in dB under
        log-distance path loss (zero-distance clamps avoid a log blowup
        when the UE stands on an antenna)."""
        d_current = max(d_current, 1e-3)
        d_best = max(d_best, 1e-3)
        return (10.0 * self.path_loss_exponent
                * math.log10(d_current / d_best))

    def _handover_proc(self, user: MobileUser, current: str, best: str):
        try:
            yield self.network.handover_async(user.ue, best)
            user.handovers.append((self.network.sim.now, current, best))
        finally:
            user.handover_in_flight = False
