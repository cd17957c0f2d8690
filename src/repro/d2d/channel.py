"""The D2D broadcast channel: publishers, subscribers, propagation.

Publishers broadcast their discovery message once per discovery period
(a simulator process); for every subscriber the channel draws a shadowed
rxPower from the radio model, discards undecodable receptions, and hands
decodable ones to the subscriber's modem for filter matching.  Device
positions are dynamic (callables), so walk-path experiments (Figures 6
and 9) just move the subscriber between periods.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Union

import numpy as np

from repro.d2d.messages import DiscoveryMessage
from repro.d2d.modem import LteDirectModem
from repro.d2d.radio import RadioModel
from repro.sim.engine import Simulator

Position = tuple[float, float]
PositionSource = Union[Position, Callable[[], Position]]


def _resolve(position: PositionSource) -> Position:
    return position() if callable(position) else position


class Publisher:
    """A landmark device broadcasting one discovery message periodically."""

    def __init__(self, device_id: str, position: PositionSource,
                 message: DiscoveryMessage, period: float = 10.0) -> None:
        self.device_id = device_id
        self._position = position
        self.message = message
        self.period = period
        self.broadcasts_sent = 0
        self.enabled = True

    @property
    def position(self) -> Position:
        return _resolve(self._position)


class Subscriber:
    """A device listening for discovery broadcasts through its modem."""

    def __init__(self, device_id: str, position: PositionSource,
                 modem: Optional[LteDirectModem] = None) -> None:
        self.device_id = device_id
        self._position = position
        self.modem = modem if modem is not None else LteDirectModem(device_id)

    @property
    def position(self) -> Position:
        return _resolve(self._position)

    def move_to(self, position: PositionSource) -> None:
        self._position = position


class D2DChannel:
    """Connects publishers and subscribers through the radio model."""

    def __init__(self, sim: Simulator, radio: Optional[RadioModel] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.sim = sim
        self.radio = radio if radio is not None else RadioModel()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.publishers: dict[str, Publisher] = {}
        self.subscribers: dict[str, Subscriber] = {}
        self.undecodable = 0

    # -- registration -----------------------------------------------------

    def add_publisher(self, publisher: Publisher,
                      start: Optional[float] = None) -> None:
        if publisher.device_id in self.publishers:
            raise ValueError(f"duplicate publisher {publisher.device_id!r}")
        self.publishers[publisher.device_id] = publisher
        # stagger first broadcasts unless an explicit start is given
        offset = (start if start is not None
                  else float(self.rng.uniform(0, publisher.period)))
        self.sim.post(offset, self._broadcast, publisher)

    def add_subscriber(self, subscriber: Subscriber) -> None:
        if subscriber.device_id in self.subscribers:
            raise ValueError(f"duplicate subscriber {subscriber.device_id!r}")
        self.subscribers[subscriber.device_id] = subscriber

    def remove_publisher(self, device_id: str) -> None:
        publisher = self.publishers.pop(device_id, None)
        if publisher is not None:
            publisher.enabled = False

    # -- propagation --------------------------------------------------------

    @staticmethod
    def distance(a: Position, b: Position) -> float:
        return math.dist(a, b)

    def _broadcast(self, publisher: Publisher) -> None:
        if not publisher.enabled:
            return
        publisher.broadcasts_sent += 1
        self.deliver_once(publisher)
        self.sim.post(publisher.period, self._broadcast, publisher)

    def deliver_once(self, publisher: Publisher) -> None:
        """Propagate one broadcast to every current subscriber."""
        src = publisher.position
        for subscriber in self.subscribers.values():
            d = self.distance(src, subscriber.position)
            rx_power = self.radio.rx_power(d, self.rng)
            if not self.radio.decodable(rx_power):
                self.undecodable += 1
                continue
            snr = self.radio.snr(rx_power)
            subscriber.modem.receive_broadcast(
                publisher.message, rx_power, snr, self.sim.now)
