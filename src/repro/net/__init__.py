"""MANET substrate: event engine, mobility, radio world, AODV routing."""

from .aodv import AodvRouter, DataPacket, Route
from .engine import EventHandle, Simulator
from .messages import (
    CONTROL_BYTES,
    HEADER_BYTES,
    QUERY_BYTES,
    Frame,
    FrameKind,
    tuple_bytes,
)
from .mobility import (
    DEFAULT_HOLDING_TIME,
    DEFAULT_SPEED_RANGE,
    MobilityModel,
    RandomWaypoint,
    StaticPlacement,
)
from .node import Node
from .spatial_index import NeighborIndex
from .world import NetworkNode, RadioConfig, TrafficStats, World

__all__ = [
    "AodvRouter",
    "CONTROL_BYTES",
    "DEFAULT_HOLDING_TIME",
    "DEFAULT_SPEED_RANGE",
    "DataPacket",
    "EventHandle",
    "Frame",
    "FrameKind",
    "HEADER_BYTES",
    "MobilityModel",
    "NeighborIndex",
    "NetworkNode",
    "Node",
    "QUERY_BYTES",
    "RadioConfig",
    "RandomWaypoint",
    "Route",
    "Simulator",
    "StaticPlacement",
    "TrafficStats",
    "World",
    "tuple_bytes",
]
