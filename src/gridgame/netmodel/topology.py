"""Connectivity of the switched network graph: one pass per network state.

``connectivity`` is the one reader of ``NetworkState.closed_branches()``: it
scans the closed branches once and the online DERs once, and every other
connectivity question in the package reads the ``Island``s it returns.  It
stores its result on the state, so a state is resolved at most once however
many questions are asked of it, and a derivation that changes only loads or
shed fractions shares its parent's result.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import RadialityError
from .types import Der, NetworkState


@dataclass(frozen=True)
class Island:
    """One connected component of the closed branches, from a ``connectivity`` pass."""

    buses: frozenset[int]
    branches: int           # closed branches inside the island: half its degree sum
    ders: tuple[Der, ...]   # online DERs, in state order
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


def connectivity(state: NetworkState) -> tuple[tuple[Island, ...],
                                               dict[int, list[tuple[int, float, float]]]]:
    """(islands, adjacency) of the state, from one pass made the first time.

    Islands are ordered by their smallest bus id, so the slack island of the
    bundled system is always index 0. The adjacency maps each bus to its
    (neighbour, r_ohm, x_ohm) over closed branches; it is shared by every
    caller, so none may modify it. The reference of an island without the
    slack bus is its largest-rated online DER, rating ties breaking toward
    the lower bus id.
    """
    if state._topology is None:
        object.__setattr__(state, "_topology", _connectivity(state))
    return state._topology


def _connectivity(state: NetworkState):
    adj: dict[int, list[tuple[int, float, float]]] = {b.id: [] for b in state.buses}
    for f, t, r, x, _id in state.closed_branches():
        adj[f].append((t, r, x))
        adj[t].append((f, r, x))

    island_of: dict[int, int] = {}
    found: list[tuple[list[int], int]] = []  # (buses, degree sum) per island
    for start in sorted(adj):
        if start in island_of:
            continue
        island_of[start] = len(found)
        members, degree = [start], 0
        for bus in members:  # members grows as it is walked: a breadth-first visit
            degree += len(adj[bus])
            for nb, _r, _x in adj[bus]:
                if nb not in island_of:
                    island_of[nb] = len(found)
                    members.append(nb)
        found.append((members, degree))

    ders: list[list[Der]] = [[] for _ in found]
    for d in state.ders:
        if d.online:
            ders[island_of[d.bus]].append(d)

    slack_island = island_of[state.slack_bus]
    out = []
    for idx, ((members, degree), online) in enumerate(zip(found, ders)):
        if idx == slack_island:
            ref = state.slack_bus
        elif online:
            ref = min(online, key=lambda d: (-d.rating_p, d.bus)).bus
        else:
            ref = None
        out.append(Island(buses=frozenset(members), branches=degree // 2,
                          ders=tuple(online), reference=ref))
    return tuple(out), adj


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
    return any(a in isl.buses and b in isl.buses for isl in islands(state))
