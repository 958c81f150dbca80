"""Backward/forward-sweep load flow for radial islands, vectorised per island.

Each energized island is solved independently against its own voltage
reference (the slack bus, or the island's largest online DER).  Loads are
constant-power; DERs are constant-P injections at unity power factor.
Islands without a reference node are reported de-energized with zero
voltage.  Islands and references come from one ``topology.connectivity``
pass; the depth-first numbering the sweep runs on walks the neighbour lists
the state shares with its relatives (``Grid.neighbours``), skipping the
branches its own mask holds open.  The numbering of the energized islands, in
bus positions, is made the first time a state is solved and stored on it,
so the flows of a state and of the derivations that move no island (shed,
scaled loads, DER dispatch) number it once; each flow then builds its draw
vector, DER injections, voltages and undervoltage list as arrays over bus
positions, reading the DER outputs from the state's own DERs.
The solution is stored on the state as well, so the payoff build, which
asks for the flow of its unchanged base feeder once per cell, solves it
once.  Every call still runs the radiality check first, so a stored
solution is returned only where a fresh one would be.

Every sweep is the same Jacobi step as the per-bus backward/forward sweep:
node currents conj(S/V) at the previous voltages, summed into branch
currents, then voltage drops down from the reference.  It is written as the
path-matrix form of Teng (2003, "A direct approach for distribution system
load flow solutions") without the dense matrices.  An island numbered
depth-first from its reference holds the subtree of node i in the index
range [i, end[i]), so the current of the branch into i is C[end[i]] - C[i]
for the prefix sum C of the node currents, and the voltage at node j is one
minus the prefix sum at j of the branch drops z*I, each added at its node
and taken back at the end of its subtree.  A sweep is a few numpy calls on
arrays of the island's size.
"""

from __future__ import annotations

import numpy as np

from .types import NetworkState, PowerFlowSolution
from . import topology

TOLERANCE = 1e-6  # p.u., max-norm of successive voltage change
MAX_SWEEPS = 100
UNDERVOLTAGE_PU = 0.90


def _depth_first(state: NetworkState, root: int):
    """Depth-first numbering of a tree of the state's closed branches from
    bus position root, neighbours in bus-id order.

    Returns (order, end, r, x): order[i] is the bus position at place i, the
    subtree of place i is [i, end[i]), and r/x the impedance (ohm) of the
    edge from place i toward its parent (zero at the root).
    """
    grid = state._grid
    start, near, via = grid.neighbours
    closed = state._closed.tolist()
    order, parent, edge = [], [], []
    stack = [(root, -1, -1)]
    while stack:
        bus, up, k = stack.pop()
        here = len(order)
        order.append(bus)
        parent.append(up)
        edge.append(k)
        above = order[up] if up >= 0 else -1
        for j in range(start[bus + 1] - 1, start[bus] - 1, -1):
            if closed[via[j]] and near[j] != above:
                stack.append((near[j], here, via[j]))
    end = list(range(1, len(order) + 1))
    for i in range(len(order) - 1, 0, -1):
        if end[i] > end[parent[i]]:
            end[parent[i]] = end[i]
    r, x = np.zeros(len(order)), np.zeros(len(order))
    r[1:], x[1:] = grid.r[edge[1:]], grid.x[edge[1:]]
    return order, np.array(end), r, x


def _sweep(end, z, s):
    """Solve one island numbered by _depth_first, to TOLERANCE within
    MAX_SWEEPS sweeps.

    z is the impedance of the edge toward the parent (p.u.), s the net
    constant-power draw (p.u., consumption positive).  Node 0 is the
    reference: its voltage stays 1+0j and s[0] must be 0, since the swing
    source serves its local power directly.
    Returns (voltages, sweeps, final max |dV|); a non-finite |dV| never
    passes the tolerance, so a sweep that overflows (an impedance or a load
    near the float limit) reads as non-converged, without a warning.
    """
    k = len(s)
    inner = np.flatnonzero(end < k)
    back = end[inner]
    currents = np.zeros(k + 1, dtype=np.complex128)
    v = np.ones(k, dtype=np.complex128)
    with np.errstate(all="ignore"):
        for sweeps in range(1, MAX_SWEEPS + 1):
            np.cumsum(np.conj(s / v), out=currents[1:])
            drop = z * (currents[end] - currents[:-1])
            np.subtract.at(drop, back, drop[inner])
            v_new = 1.0 - np.cumsum(drop)
            max_dv = float(np.abs(v_new - v).max())
            v = v_new
            if max_dv <= TOLERANCE:
                break
    return v, sweeps, max_dv


def _numbering(state: NetworkState, isls):
    """(live mask, per energized island (positions in depth-first order,
    end, z in p.u.)), stored on the state.

    Every energized island must already have passed its radiality check.
    """
    if state._numbering is None:
        pos = state._grid.pos
        live = np.zeros(len(pos), dtype=bool)
        z_base = state.base_kv**2 / state.base_mva
        numbered = []
        for isl in isls:
            if isl.energized:
                order, end, r, x = _depth_first(state, pos[isl.reference])
                at = np.array(order)
                live[at] = True
                numbered.append((at, end, r / z_base + 1j * (x / z_base)))
        object.__setattr__(state, "_numbering", (live, tuple(numbered)))
    return state._numbering


def power_flow(state: NetworkState) -> PowerFlowSolution:
    """Per-island sweep solution to TOLERANCE within MAX_SWEEPS sweeps.
    Deterministic for identical states.

    Raises RadialityError if an energized island contains a loop. Islands
    that fail to converge within the sweep budget are reported with
    converged=False; the caller decides on a shedding fallback.  The
    solution is stored on the state, and a later call returns it after the
    radiality check.
    """
    isls = topology.check_energized_radial(state)
    if state._solution is not None:
        return state._solution
    live, numbered = _numbering(state, isls)
    ids, pos = state._grid.ids, state._grid.pos
    s_base_kw = 1000.0 * state.base_mva
    keep = np.ones(len(ids))
    keep[[pos[bus] for bus in state.shed_fractions]] = [
        1.0 - frac for frac in state.shed_fractions.values()]
    der_kw = np.zeros(len(ids))
    for d in state.ders:
        if d.online:
            der_kw[pos[d.bus]] += d.output_kw()
    draw = np.empty(len(ids), dtype=np.complex128)
    draw.real = (np.array([b.load_p for b in state.buses]) * keep - der_kw) / s_base_kw
    draw.imag = (np.array([b.load_q for b in state.buses]) * keep) / s_base_kw
    v_all = np.zeros(len(ids), dtype=np.complex128)
    all_converged = True
    iterations = 0
    max_mismatch = 0.0
    for at, end, z in numbered:
        s = draw[at]
        s[0] = 0.0  # the reference serves its local power directly
        v, iters, max_dv = _sweep(end, z, s)
        v_all[at] = v
        iterations = max(iterations, iters)
        max_mismatch = max(max_mismatch, max_dv)
        if not max_dv <= TOLERANCE:
            all_converged = False
    under = np.flatnonzero(live & (np.abs(v_all) < UNDERVOLTAGE_PU))
    solution = PowerFlowSolution(
        voltages=dict(zip(ids, v_all.tolist())),
        converged=all_converged,
        iterations=iterations,
        max_mismatch=max_mismatch,
        islands=tuple(isl.buses for isl in isls),
        energized=tuple(isl.energized for isl in isls),
        undervoltage_buses=tuple(ids[i] for i in under.tolist()),
    )
    object.__setattr__(state, "_solution", solution)
    return solution
