"""The sweeps power_flow was derived from, kept as its oracles.

``power_flow`` here is the per-bus backward/forward sweep, the loop the
package ran before the sweep was vectorised: each island is ordered
breadth-first from its reference bus, then every sweep walks the buses one
at a time, first up the tree to accumulate branch currents, then down it to
drop voltages.  It shares the topology pass and constants with the package,
so any difference the tests find lies in the sweep itself.

``one_island_sweep`` is the vectorised sweep of one island, as the package
ran it before it swept many islands per pass: the bits every island of
``powerflow._sweep_islands`` must equal.
"""
import numpy as np

from gridgame.netmodel import topology
from gridgame.netmodel.powerflow import MAX_SWEEPS, TOLERANCE, UNDERVOLTAGE_PU
from gridgame.netmodel.types import NetworkState, PowerFlowSolution
from topology_oracle import closed_branches


def bfs_tree(state: NetworkState, comp: frozenset[int], root: int):
    """(order, parent, branch): breadth-first visit order from the root,
    bus -> upstream bus, and bus -> (r_ohm, x_ohm) of the edge toward it."""
    adj: dict[int, list[tuple[int, float, float]]] = {b: [] for b in comp}
    for f, t, r, x, _id in closed_branches(state):
        if f in comp and t in comp:
            adj[f].append((t, r, x))
            adj[t].append((f, r, x))
    order = [root]
    parent: dict[int, int] = {root: -1}
    branch: dict[int, tuple[float, float]] = {}
    head = 0
    while head < len(order):
        node = order[head]
        head += 1
        for nb, r, x in sorted(adj[node]):
            if nb not in parent:
                parent[nb] = node
                branch[nb] = (r, x)
                order.append(nb)
    return order, parent, branch


def island_arrays(state: NetworkState, comp: frozenset[int], root: int):
    """Compact BFS-ordered per-node arrays for sweep(), plus the bus order."""
    order, parent, branch = bfs_tree(state, comp, root)
    pos = {bus: i for i, bus in enumerate(order)}
    k = len(order)
    parent_idx = np.empty(k, dtype=np.int64)
    zr = np.zeros(k, dtype=np.float64)
    zx = np.zeros(k, dtype=np.float64)
    sp = np.zeros(k, dtype=np.float64)
    sq = np.zeros(k, dtype=np.float64)
    z_base = state.base_kv**2 / state.base_mva
    s_base_kw = 1000.0 * state.base_mva
    der_by_bus: dict[int, float] = {}
    for d in state.ders:
        if d.online and d.bus in comp:
            der_by_bus[d.bus] = der_by_bus.get(d.bus, 0.0) + d.output_kw()
    for b in state.buses:
        if b.id not in comp or b.id == root:
            continue
        i = pos[b.id]
        keep = 1.0 - state.shed(b.id)
        sp[i] = (b.load_p * keep - der_by_bus.get(b.id, 0.0)) / s_base_kw
        sq[i] = (b.load_q * keep) / s_base_kw
    parent_idx[0] = -1
    for bus in order[1:]:
        i = pos[bus]
        parent_idx[i] = pos[parent[bus]]
        r, x = branch[bus]
        zr[i] = r / z_base
        zx[i] = x / z_base
    return order, parent_idx, zr, zx, sp, sq


def sweep(parent, zr, zx, sp, sq, tol, max_iter):
    """Solve one island ordered so that parent[i] < i and parent[0] = -1.

    z is the impedance of the edge toward the parent (p.u.), s the net
    constant-power draw (p.u., consumption positive).  Node 0 is the
    reference, pinned at 1+0j.  Returns (voltages, iterations, final max |dV|).
    """
    k = parent.shape[0]
    v = np.ones(k, dtype=np.complex128)
    flow = np.zeros(k, dtype=np.complex128)
    iters = 0
    max_dv = 0.0
    for _ in range(max_iter):
        iters += 1
        for i in range(1, k):
            s = complex(sp[i], sq[i])
            flow[i] = (s / v[i]).conjugate()
        flow[0] = 0.0 + 0.0j
        for i in range(k - 1, 0, -1):
            flow[parent[i]] += flow[i]
        max_dv = 0.0
        for i in range(1, k):
            z = complex(zr[i], zx[i])
            vnew = v[parent[i]] - z * flow[i]
            dv = abs(vnew - v[i])
            if dv > max_dv:
                max_dv = dv
            v[i] = vnew
        if max_dv <= tol:
            break
    return v, iters, max_dv


def one_island_sweep(end, z, s):
    """Solve one island numbered by powerflow._depth_first, to TOLERANCE
    within MAX_SWEEPS sweeps.

    z is the impedance of the edge toward the parent (p.u.), s the net
    constant-power draw (p.u., consumption positive).  Node 0 is the
    reference: its voltage stays 1+0j and s[0] must be 0, since the swing
    source serves its local power directly.
    Returns (voltages, sweeps, final max |dV|); a non-finite |dV| never
    passes the tolerance, so a sweep that overflows reads as non-converged.
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


def power_flow(state: NetworkState, tol: float = TOLERANCE,
               max_sweeps: int = MAX_SWEEPS) -> PowerFlowSolution:
    """The package's power_flow as it was, built on the per-bus sweep."""
    isls = topology.islands(state)
    comps = tuple(isl.buses for isl in isls)
    assign = {bus: idx for idx, comp in enumerate(comps) for bus in comp}
    voltages: dict[int, complex] = {b.id: 0j for b in state.buses}
    energized = []
    all_converged = True
    iterations = 0
    max_mismatch = 0.0
    for idx, isl in enumerate(isls):
        ref = isl.reference
        if ref is None:
            energized.append(False)
            continue
        energized.append(True)
        isl.check_radial()
        order, parent_idx, zr, zx, sp, sq = island_arrays(state, isl.buses, ref)
        v, iters, max_dv = sweep(parent_idx, zr, zx, sp, sq, tol, max_sweeps)
        for bus, volt in zip(order, v):
            voltages[bus] = complex(volt)
        iterations = max(iterations, int(iters))
        max_mismatch = max(max_mismatch, float(max_dv))
        if max_dv > tol:
            all_converged = False
    under = tuple(
        b.id for b in state.buses
        if energized[assign[b.id]] and abs(voltages[b.id]) < UNDERVOLTAGE_PU
    )
    return PowerFlowSolution(
        voltages=voltages,
        converged=all_converged,
        iterations=iterations,
        max_mismatch=max_mismatch,
        islands=comps,
        energized=tuple(energized),
        undervoltage_buses=under,
    )
