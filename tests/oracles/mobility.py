"""Scalar position sweep for mobility models."""

from __future__ import annotations

import numpy as np

from repro.net.mobility import MobilityModel

__all__ = ["positions_reference"]


def positions_reference(model: MobilityModel, t: float) -> np.ndarray:
    """All positions at ``t`` from one scalar :meth:`position` call per
    node: the sweep the vectorised ``positions`` of a model must match
    bit for bit."""
    return MobilityModel.positions(model, t)
