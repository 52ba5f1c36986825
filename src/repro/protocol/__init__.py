"""Distributed skyline protocols: BF/DF forwarding and the static grid."""

from .coordinator import (
    STRATEGIES,
    SimulationConfig,
    SimulationResult,
    build_network,
    run_manet_simulation,
)
from .device import (
    BFDevice,
    DFDevice,
    DeviceContribution,
    ProtocolConfig,
    QueryRecord,
    SkylineDevice,
)
from .messages import QueryMessage, ResultAckMessage, ResultMessage, TokenMessage
from ..resilience import CompletionReport, ResiliencePolicy
from .static_grid import (
    StaticContribution,
    StaticQueryOutcome,
    run_static_grid,
    run_static_query,
)

__all__ = [
    "BFDevice",
    "CompletionReport",
    "DFDevice",
    "DeviceContribution",
    "ProtocolConfig",
    "QueryMessage",
    "QueryRecord",
    "ResiliencePolicy",
    "ResultAckMessage",
    "ResultMessage",
    "STRATEGIES",
    "SimulationConfig",
    "SimulationResult",
    "SkylineDevice",
    "StaticContribution",
    "StaticQueryOutcome",
    "TokenMessage",
    "build_network",
    "run_manet_simulation",
    "run_static_grid",
    "run_static_query",
]
