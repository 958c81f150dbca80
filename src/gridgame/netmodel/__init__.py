"""Radial network model: data types, document loading, topology, power flow."""

from .types import (
    CLOSED,
    OPEN,
    Bus,
    Der,
    Line,
    NetworkState,
    PowerFlowSolution,
    TieSwitch,
)
from .io import DEFAULT_DISPATCH, load_ieee33, load_network
from .topology import (
    check_radial,
    closing_creates_loop,
    energized_buses,
    island_assignment,
    islands,
    is_energized,
    reference_bus,
)
from .powerflow import MAX_SWEEPS, TOLERANCE, UNDERVOLTAGE_PU, power_flow

__all__ = [
    "CLOSED", "OPEN", "Bus", "Der", "Line", "NetworkState",
    "PowerFlowSolution", "TieSwitch",
    "DEFAULT_DISPATCH", "load_ieee33", "load_network",
    "check_radial", "closing_creates_loop", "energized_buses",
    "island_assignment", "islands", "is_energized", "reference_bus",
    "MAX_SWEEPS", "TOLERANCE", "UNDERVOLTAGE_PU", "power_flow",
]
