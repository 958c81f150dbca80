"""Connectivity of the switched network graph: one pass per network state.

``connectivity`` labels the connected components of a state's closed
branches in numpy, over the branch arrays the state shares with its
relatives, and every other connectivity question in the package reads the
``Island``s and the labels it returns.  It stores its result on the state,
so a state is resolved at most once however many questions are asked of
it, and a derivation that changes only loads, shed fractions or a DER's
dispatch shares its parent's result.

The labelling is hooking with pointer jumping, after Shiloach and Vishkin
(1982, "An O(log n) parallel connectivity algorithm"): every bus starts as
its own root; each round hooks the larger root of each branch's two ends
onto the smaller (where several branches hook one root, one of them wins,
as in their concurrent-write model), then jumps every pointer to its root,
until both ends of every branch share a root.  A root only ever hooks onto
a smaller one, so each component ends at its smallest node.  Buses are
numbered by bus id for it, so that node is its smallest bus id.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import RadialityError
from .types import NetworkState


@dataclass(frozen=True)
class Island:
    """One connected component of the closed branches, from a ``connectivity`` pass."""

    buses: frozenset[int]
    branches: int           # closed branches inside the island
    ders: tuple[str, ...]   # ids of its online DERs, in state order
    reference: int | None   # slack bus, else the largest-rated online DER; None when dead

    @property
    def energized(self) -> bool:
        """An island is energized iff it holds the slack bus or an online DER."""
        return self.reference is not None

    def check_radial(self) -> None:
        """Raise RadialityError when the island's closed branches form a loop."""
        if self.branches != len(self.buses) - 1:
            raise RadialityError(f"island with {len(self.buses)} buses has "
                                 f"{self.branches} closed branches; not a tree")


def connectivity(state: NetworkState) -> tuple[tuple[Island, ...], np.ndarray]:
    """(islands, labels) of the state, from one pass made the first time.

    Islands are ordered by their smallest bus id, so the slack island of the
    bundled system is always index 0; labels[i] is the index of the island
    that holds the bus at position i, shared by every caller, so none may
    modify it. The reference of an island without the slack bus is its
    largest-rated online DER, rating ties breaking toward the lower bus id.
    """
    if state._topology is None:
        object.__setattr__(state, "_topology", _connectivity(state))
    return state._topology


def _roots(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The smallest node connected to each of nodes 0..n-1 by the edges (a, b)."""
    root = np.arange(n)
    while True:
        ra, rb = root[a], root[b]
        apart = ra != rb
        if not apart.any():
            return root
        ra, rb = ra[apart], rb[apart]
        root[np.maximum(ra, rb)] = np.minimum(ra, rb)
        # a jump halves every pointer path, so this many leave only roots
        for _ in range(n.bit_length()):
            root = root[root]


def _connectivity(state: NetworkState):
    grid = state._grid
    closed = state._closed
    ends = grid.rank[grid.frm[closed]]
    roots = _roots(len(grid.ids), ends, grid.rank[grid.to[closed]])
    # roots are smallest ranks, so numbering them in order puts the islands
    # in bus-id order
    is_root = roots == np.arange(len(roots))
    island = (np.cumsum(is_root) - 1)[roots]
    labels = island[grid.rank]
    labels.flags.writeable = False
    count = int(is_root.sum())
    branches = np.bincount(island[ends], minlength=count).tolist()
    members: list[list[int]] = [[] for _ in range(count)]
    for bus, idx in zip(grid.sorted_ids, island.tolist()):
        members[idx].append(bus)

    online: list[list] = [[] for _ in range(count)]
    for d in state.ders:
        if d.online:
            online[labels[grid.pos[d.bus]]].append(d)

    slack_island = labels[grid.pos[state.slack_bus]]
    out = []
    for idx, (buses, n_branches, ders) in enumerate(zip(members, branches, online)):
        if idx == slack_island:
            ref = state.slack_bus
        elif ders:
            ref = min(ders, key=lambda d: (-d.rating_p, d.bus)).bus
        else:
            ref = None
        out.append(Island(buses=frozenset(buses), branches=n_branches,
                          ders=tuple(d.id for d in ders), reference=ref))
    return tuple(out), labels


def islands(state: NetworkState) -> tuple[Island, ...]:
    """The state's islands, ordered by their smallest bus id."""
    return connectivity(state)[0]


def check_energized_radial(state: NetworkState) -> tuple[Island, ...]:
    """The state's islands, after raising the RadialityError power_flow would."""
    isls = islands(state)
    for isl in isls:
        if isl.energized:
            isl.check_radial()
    return isls


def energized_buses(state: NetworkState) -> set[int]:
    """Bus ids inside energized islands."""
    return {bus for isl in islands(state) if isl.energized for bus in isl.buses}


def closing_creates_loop(state: NetworkState, a: int, b: int) -> bool:
    """True when buses a and b are already connected, so one more branch loops."""
    labels, pos = connectivity(state)[1], state._grid.pos
    return bool(labels[pos[a]] == labels[pos[b]])
