"""Backward/forward-sweep load flow for radial islands, many islands per sweep.

Each energized island is solved against its own voltage reference (the
slack bus, or the island's largest online DER).  Loads are constant-power;
DERs are constant-P injections at unity power factor.  Islands without a
reference are reported de-energized with zero voltage.  Islands and
references come from one ``topology.connectivity`` pass.  The depth-first
numbering of the energized islands walks the neighbour lists the state
shares with its relatives (``Grid.neighbours``), skipping the branches its
own mask holds open; it is made the first time one of a state's
relatives is solved, and shared by the states derived from each other by
shed, load or dispatch changes (``NetworkState._derive``).  The solution is
stored on the state too, and a later call returns it after the radiality
check, so it is returned only where a fresh one would be.

Every sweep is the same Jacobi step as the per-bus backward/forward sweep:
node currents conj(S/V) at the previous voltages, summed into branch
currents, then voltage drops down from the reference.  It is written as the
path-matrix form of Teng (2003, "A direct approach for distribution system
load flow solutions") without the dense matrices.  An island numbered
depth-first from its reference holds the subtree of node i in the index
range [i, end[i]), so the current of the branch into i is C[end[i]] - C[i]
for the prefix sum C of the node currents, and the voltage at node j is one
minus the prefix sum at j of the branch drops z*I, each added at its node
and taken back at the end of its subtree.

Those few array operations serve any number of islands at once:
``solve_flows`` sweeps the islands of all the states it is given together
(``_sweep_islands``), each island a row, grouped by the next power of two
of its size and padded to the widest of its pass, at most
``SWEEP_ENTRIES`` padded places per pass.  Each row stops at its own
stopping sweep, so every island gets the bits it would get alone.
``power_flow`` is the one-state call; the payoff build solves each row of
its matrix in one call (``scenario.solve_row``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .types import NetworkState, PowerFlowSolution
from . import topology

TOLERANCE = 1e-6  # p.u., max-norm of successive voltage change
MAX_SWEEPS = 100
UNDERVOLTAGE_PU = 0.90
# a pass of _sweep_rows holds at most this many padded (island, place)
# entries, or one island, whichever is more
SWEEP_ENTRIES = 16384


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


def _sweep_rows(sizes, end, z, s):
    """Sweep the islands padded into the rows of (rows, width) arrays, each
    to TOLERANCE within MAX_SWEEPS sweeps.

    Row i holds an island numbered by _depth_first in its first sizes[i]
    places: end is the end of each place's subtree within the row, z the
    impedance of the edge toward the parent (p.u.), s the net constant-power
    draw (p.u., consumption positive).  Place 0 is the reference: its
    voltage stays 1+0j and its s must be 0, since the swing source serves
    its local power directly.  A padded place is a leaf of its own, with
    zero z and s, after the row's last place: no prefix sum of a real place
    reaches it, and at every sweep its |dV| is the last place's, or NaN only
    when some place's is, so the max |dV| of a row is its island's.  Each
    row keeps the voltages of its first sweep within TOLERANCE, or of the
    last.
    Returns (voltages, sweeps, final max |dV|) per row; a non-finite |dV|
    never passes the tolerance, so a sweep that overflows (an impedance or
    a load near the float limit) reads as non-converged, without a warning.
    """
    rows, width = s.shape
    # the prefix sums C of the rows, C[end] of every place, and C[place]
    currents = np.zeros((rows, width + 1), dtype=np.complex128)
    sums, at_end, at_place = currents[:, 1:], currents.ravel(), currents[:, :-1]
    take = end + (width + 1) * np.arange(rows)[:, None]
    # each drop is taken back at the end of its subtree, unless that is the
    # end of its island; per row in place order, as the one-island sweep
    inner = np.flatnonzero(end < sizes[:, None])
    back = inner - inner % width + end.ravel()[inner]
    v = np.ones((rows, width), dtype=np.complex128)
    out = np.empty_like(v)
    sweeps = np.full(rows, MAX_SWEEPS)
    max_dv = np.empty(rows)
    live = np.ones(rows, dtype=bool)
    # ufunc methods, not np.cumsum and ndarray.max: the same loops, without
    # the wrappers' cost, which is most of a sweep of a few small islands
    with np.errstate(all="ignore"):
        for n in range(1, MAX_SWEEPS + 1):
            np.add.accumulate(np.conj(s / v), axis=1, out=sums)
            drop = z * (at_end[take] - at_place)
            flat = drop.ravel()
            np.subtract.at(flat, back, flat[inner])
            v_new = 1.0 - np.add.accumulate(drop, axis=1)
            step = np.maximum.reduce(np.abs(v_new - v), axis=1)
            v = v_new
            stop = live & (step <= TOLERANCE)
            if stop.any():
                out[stop], sweeps[stop], max_dv[stop] = v[stop], n, step[stop]
                live &= ~stop
                if not live.any():
                    break
    out[live], max_dv[live] = v[live], step[live]
    return out, sweeps, max_dv


def _sweep_islands(sizes, end, z, s):
    """Solve islands numbered by _depth_first, given one after another:
    island i holds the next sizes[i] entries of end (its own places), z and
    s, as in ``_sweep_rows``.

    Islands whose sizes share the next power of two are swept together, at
    most SWEEP_ENTRIES padded entries (or one island) per ``_sweep_rows``
    pass.  Returns (voltages, one after another as the inputs, and per
    island its sweeps and final max |dV|).
    """
    starts = np.cumsum(sizes) - sizes
    v = np.empty(len(s), dtype=np.complex128)
    sweeps = np.empty(len(sizes), dtype=np.int64)
    max_dv = np.empty(len(sizes))
    power = np.frexp(sizes - 1)[1]  # the next power of two of a size is 2**power
    for p in sorted(set(power.tolist())):
        group = np.flatnonzero(power == p)
        per_pass = max(1, SWEEP_ENTRIES >> p)
        for at in range(0, group.size, per_pass):
            rows = group[at:at + per_pass]
            k = sizes[rows]
            row = np.repeat(np.arange(rows.size), k)
            place = np.arange(row.size) - np.repeat(np.cumsum(k) - k, k)
            src = np.repeat(starts[rows], k) + place
            shape = (rows.size, int(k.max()))
            padded_end = np.tile(np.arange(1, shape[1] + 1), (rows.size, 1))
            padded_end[row, place] = end[src]
            padded_z = np.zeros(shape, dtype=np.complex128)
            padded_z[row, place] = z[src]
            padded_s = np.zeros(shape, dtype=np.complex128)
            padded_s[row, place] = s[src]
            out, sweeps[rows], max_dv[rows] = _sweep_rows(k, padded_end, padded_z, padded_s)
            v[src] = out[row, place]
    return v, sweeps, max_dv


class _Numbering(NamedTuple):
    """The energized islands of a state, numbered for the sweep."""

    order: np.ndarray  # bus positions, island after island, each depth-first from its reference
    sizes: np.ndarray  # places per island
    end: np.ndarray    # per place: the end of its subtree within its island
    z: np.ndarray      # per place: impedance of the edge toward its parent, p.u.


def _numbering(state: NetworkState, isls) -> _Numbering:
    """The state's numbering, made the first time and stored in its
    numbering slot, which its same-topology relatives share.

    Every energized island must already have passed its radiality check.
    """
    held = state._numbering
    if held[0] is None:
        pos = state._grid.pos
        z_base = state.base_kv**2 / state.base_mva
        walks = [_depth_first(state, pos[isl.reference]) for isl in isls if isl.energized]
        end, r, x = (np.concatenate([w[i] for w in walks]) for i in (1, 2, 3))
        held[0] = _Numbering(
            np.array([bus for at, _end, _r, _x in walks for bus in at]),
            np.array([len(w[0]) for w in walks]), end, r / z_base + 1j * (x / z_base))
    return held[0]


def _draw(state: NetworkState, numbering: _Numbering) -> np.ndarray:
    """Net constant-power draw per place of the numbering (p.u., consumption
    positive): the loads kept after shedding, less the online DERs' output;
    zero at each reference, which serves its local power directly."""
    pos = state._grid.pos
    s_base_kw = 1000.0 * state.base_mva
    keep = np.ones(len(pos))
    keep[[pos[bus] for bus in state.shed_fractions]] = [
        1.0 - frac for frac in state.shed_fractions.values()]
    der_kw = np.zeros(len(pos))
    for d in state.ders:
        if d.online:
            der_kw[pos[d.bus]] += d.output_kw()
    draw = np.empty(len(pos), dtype=np.complex128)
    draw.real = (np.array([b.load_p for b in state.buses]) * keep - der_kw) / s_base_kw
    draw.imag = (np.array([b.load_q for b in state.buses]) * keep) / s_base_kw
    draw = draw[numbering.order]
    draw[np.cumsum(numbering.sizes) - numbering.sizes] = 0.0
    return draw


def solve_flows(states) -> list[PowerFlowSolution]:
    """The per-island sweep solution of each state, to TOLERANCE within
    MAX_SWEEPS sweeps, in the order given.  Deterministic for identical
    states.

    Every state gets its radiality check first, in the order given, which
    raises RadialityError if an energized island contains a loop.  The
    islands of every state without a stored solution are then swept
    together (``_sweep_islands``), and each solution is stored on its state,
    so a later call returns it after the radiality check: its iterations are
    the most sweeps of an island, and its max mismatch the largest finite
    max |dV| (0.0 if none is).  Islands that fail to converge within the
    sweep budget are reported with converged=False; the caller decides on a
    shedding fallback.
    """
    todo = {}
    for state in states:
        isls = topology.check_energized_radial(state)
        if state._solution is None:
            todo[id(state)] = (state, isls, _numbering(state, isls))
    if todo:
        jobs = todo.values()
        numberings = [n for _state, _isls, n in jobs]
        v, sweeps, max_dv = _sweep_islands(
            np.concatenate([n.sizes for n in numberings]),
            np.concatenate([n.end for n in numberings]),
            np.concatenate([n.z for n in numberings]),
            np.concatenate([_draw(state, n) for state, _isls, n in jobs]))
        # each state's figures reduce its islands', from its first island on
        first = np.cumsum([0] + [n.sizes.size for n in numberings[:-1]])
        converged = np.logical_and.reduceat(max_dv <= TOLERANCE, first).tolist()
        iterations = np.maximum.reduceat(sweeps, first).tolist()
        mismatch = np.fmax(np.fmax.reduceat(max_dv, first), 0.0).tolist()
        low = np.abs(v) < UNDERVOLTAGE_PU
        at = 0
        for k, (state, isls, n) in enumerate(jobs):
            here = slice(at, at + n.order.size)
            at = here.stop
            ids = state._grid.ids
            v_all = np.zeros(len(ids), dtype=np.complex128)
            v_all[n.order] = v[here]
            object.__setattr__(state, "_solution", PowerFlowSolution(
                voltages=dict(zip(ids, v_all.tolist())),
                converged=converged[k],
                iterations=iterations[k],
                max_mismatch=mismatch[k],
                islands=tuple(isl.buses for isl in isls),
                energized=tuple(isl.energized for isl in isls),
                undervoltage_buses=tuple(ids[i] for i in np.sort(n.order[low[here]]).tolist()),
            ))
    return [state._solution for state in states]


def forget_solution(state: NetworkState) -> None:
    """Free the solution stored on the state; a later flow of it solves it
    again."""
    object.__setattr__(state, "_solution", None)


def power_flow(state: NetworkState) -> PowerFlowSolution:
    """The state's per-island sweep solution: ``solve_flows`` of it alone.

    Raises RadialityError if an energized island contains a loop.  The
    solution is stored on the state, and a later call returns it after the
    radiality check.
    """
    return solve_flows([state])[0]
