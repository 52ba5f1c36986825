"""Energy accounting for mobile devices.

The paper motivates its optimizations partly by energy constraints
("processing and energy saving techniques", Section 2) without reporting
energy numbers; this module provides the standard first-order radio/CPU
energy model so the library can report the energy side of the
communication-vs-computation trade-off the protocols make.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["EnergyModel", "EnergyMeter"]


@dataclass(frozen=True)
class EnergyModel:
    """First-order energy parameters (802.11-class radio, ARM CPU).

    Attributes:
        tx_per_byte: Joules to transmit one byte.
        rx_per_byte: Joules to receive one byte.
        cpu_per_second: Joules per second of active computation.
    """

    tx_per_byte: float = 1.2e-6
    rx_per_byte: float = 0.8e-6
    cpu_per_second: float = 0.9

    def __post_init__(self) -> None:
        for name in ("tx_per_byte", "rx_per_byte", "cpu_per_second"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")


@dataclass
class EnergyMeter:
    """Accumulates a single device's energy expenditure."""

    model: EnergyModel = field(default_factory=EnergyModel)
    tx_bytes: int = 0
    rx_bytes: int = 0
    cpu_seconds: float = 0.0

    def on_transmit(self, size_bytes: int) -> None:
        """Record a frame transmission."""
        if size_bytes < 0:
            raise ValueError("size_bytes must be >= 0")
        self.tx_bytes += size_bytes

    def on_receive(self, size_bytes: int) -> None:
        """Record a frame reception."""
        if size_bytes < 0:
            raise ValueError("size_bytes must be >= 0")
        self.rx_bytes += size_bytes

    def on_compute(self, seconds: float) -> None:
        """Record active CPU time."""
        if seconds < 0:
            raise ValueError("seconds must be >= 0")
        self.cpu_seconds += seconds

    @property
    def joules(self) -> float:
        """Total energy spent so far."""
        return (
            self.tx_bytes * self.model.tx_per_byte
            + self.rx_bytes * self.model.rx_per_byte
            + self.cpu_seconds * self.model.cpu_per_second
        )
