"""Radial network model: data types, document loading, one-pass topology, power flow."""

from .types import CLOSED, OPEN, Bus, Der, Line, NetworkState, PowerFlowSolution
from .io import DEFAULT_DISPATCH, load_ieee33, load_network
from .topology import (Island, check_energized_radial, closing_creates_loop,
                       connectivity, energized_buses, islands)
from .powerflow import (MAX_SWEEPS, TOLERANCE, UNDERVOLTAGE_PU, forget_solution, power_flow,
                        solve_flows)

__all__ = [
    "CLOSED", "OPEN", "Bus", "Der", "Line", "NetworkState",
    "PowerFlowSolution",
    "DEFAULT_DISPATCH", "load_ieee33", "load_network",
    "Island", "check_energized_radial", "closing_creates_loop", "connectivity",
    "energized_buses", "islands",
    "MAX_SWEEPS", "TOLERANCE", "UNDERVOLTAGE_PU", "forget_solution", "power_flow",
    "solve_flows",
]
