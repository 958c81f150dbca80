"""Radial network model: data types, topology, power flow, served load."""

from .types import (
    CLOSED,
    OPEN,
    Bus,
    Der,
    Line,
    NetworkState,
    PowerFlowSolution,
    ServedLoadReport,
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
from .serve import serve_loads

__all__ = [
    "CLOSED", "OPEN", "Bus", "Der", "Line", "NetworkState",
    "PowerFlowSolution", "ServedLoadReport", "TieSwitch",
    "DEFAULT_DISPATCH", "load_ieee33", "load_network",
    "check_radial", "closing_creates_loop", "energized_buses",
    "island_assignment", "islands", "is_energized", "reference_bus",
    "MAX_SWEEPS", "TOLERANCE", "UNDERVOLTAGE_PU", "power_flow", "serve_loads",
]
