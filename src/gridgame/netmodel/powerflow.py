"""Backward/forward-sweep load flow for radial islands, vectorised per island.

Each energized island is solved independently against its own voltage
reference (the slack bus, or the island's largest online DER).  Loads are
constant-power; DERs are constant-P injections at unity power factor.
Islands without a reference node are reported de-energized with zero
voltage.  Islands, references and the adjacency the sweep numbers each
island on all come from one ``topology.connectivity`` pass.

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


def _depth_first(adj, root):
    """Depth-first numbering of a tree from root, neighbours in sorted order.

    Returns (order, end, r, x): order[i] is the bus at position i, the
    subtree of position i is [i, end[i]), and r/x the impedance (ohm) of the
    edge from position i toward its parent (zero at the root).
    """
    order, parent, rs, xs = [root], [-1], [0.0], [0.0]
    stack = [(nb, 0, r, x) for nb, r, x in sorted(adj[root], reverse=True)]
    while stack:
        bus, up, r, x = stack.pop()
        here = len(order)
        order.append(bus)
        parent.append(up)
        rs.append(r)
        xs.append(x)
        above = order[up]
        for nb, r, x in sorted(adj[bus], reverse=True):
            if nb != above:
                stack.append((nb, here, r, x))
    end = list(range(1, len(order) + 1))
    for i in range(len(order) - 1, 0, -1):
        if end[i] > end[parent[i]]:
            end[parent[i]] = end[i]
    return order, np.array(end), np.array(rs), np.array(xs)


def _sweep(end, z, s, tol, max_sweeps):
    """Solve one island numbered by _depth_first.

    z is the impedance of the edge toward the parent (p.u.), s the net
    constant-power draw (p.u., consumption positive).  Node 0 is the
    reference: its voltage stays 1+0j and s[0] must be 0, since the swing
    source serves its local power directly.
    Returns (voltages, sweeps, final max |dV|); a non-finite |dV| never
    passes the tolerance.
    """
    k = len(s)
    inner = np.flatnonzero(end < k)
    back = end[inner]
    currents = np.zeros(k + 1, dtype=np.complex128)
    v = np.ones(k, dtype=np.complex128)
    for sweeps in range(1, max_sweeps + 1):
        np.cumsum(np.conj(s / v), out=currents[1:])
        drop = z * (currents[end] - currents[:-1])
        np.subtract.at(drop, back, drop[inner])
        v_new = 1.0 - np.cumsum(drop)
        max_dv = float(np.abs(v_new - v).max())
        v = v_new
        if max_dv <= tol:
            break
    return v, sweeps, max_dv


def power_flow(state: NetworkState, tol: float = TOLERANCE,
               max_sweeps: int = MAX_SWEEPS) -> PowerFlowSolution:
    """Per-island sweep solution. Deterministic for identical states.

    Raises RadialityError if an energized island contains a loop. Islands
    that fail to converge within the sweep budget are reported with
    converged=False; the caller decides on a shedding fallback.
    """
    isls, adj = topology.connectivity(state)
    live = {bus for isl in isls if isl.energized for bus in isl.buses}
    voltages: dict[int, complex] = {b.id: 0j for b in state.buses}
    z_base = state.base_kv**2 / state.base_mva
    s_base_kw = 1000.0 * state.base_mva
    der_kw: dict[int, float] = {}
    for d in state.ders:
        if d.online:
            der_kw[d.bus] = der_kw.get(d.bus, 0.0) + d.output_kw()
    draw = {}
    for b in state.buses:
        keep = 1.0 - state.shed(b.id)
        draw[b.id] = complex((b.load_p * keep - der_kw.get(b.id, 0.0)) / s_base_kw,
                             (b.load_q * keep) / s_base_kw)
    all_converged = True
    iterations = 0
    max_mismatch = 0.0
    for isl in isls:
        if not isl.energized:
            continue
        isl.check_radial()
        order, end, r, x = _depth_first(adj, isl.reference)
        s = np.array([0j] + [draw[bus] for bus in order[1:]])
        z = r / z_base + 1j * (x / z_base)
        v, iters, max_dv = _sweep(end, z, s, tol, max_sweeps)
        voltages.update(zip(order, v.tolist()))
        iterations = max(iterations, iters)
        max_mismatch = max(max_mismatch, max_dv)
        if not max_dv <= tol:
            all_converged = False
    under = tuple(
        b.id for b in state.buses
        if b.id in live and abs(voltages[b.id]) < UNDERVOLTAGE_PU
    )
    return PowerFlowSolution(
        voltages=voltages,
        converged=all_converged,
        iterations=iterations,
        max_mismatch=max_mismatch,
        islands=tuple(isl.buses for isl in isls),
        energized=tuple(isl.energized for isl in isls),
        undervoltage_buses=under,
    )
