"""Device substrate: calibrated PDA cost model and energy accounting."""

from .cost_model import (
    PDA_2006,
    DeviceCostModel,
    calibrate,
    estimate_comparisons,
)
from .energy import EnergyMeter, EnergyModel

__all__ = [
    "PDA_2006",
    "DeviceCostModel",
    "EnergyMeter",
    "EnergyModel",
    "calibrate",
    "estimate_comparisons",
]
