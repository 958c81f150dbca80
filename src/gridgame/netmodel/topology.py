"""Connectivity analysis for the switched network graph."""

from __future__ import annotations

from ..errors import RadialityError
from .types import Der, NetworkState


def islands(state: NetworkState) -> list[frozenset[int]]:
    """Partition bus ids into connected components over closed branches.

    Components are ordered by their smallest bus id, so the slack component
    of the bundled system is always index 0.
    """
    adj: dict[int, list[int]] = {b.id: [] for b in state.buses}
    for f, t, _r, _x, _id in state.closed_branches():
        adj[f].append(t)
        adj[t].append(f)

    seen: set[int] = set()
    comps: list[frozenset[int]] = []
    for start in sorted(adj):
        if start in seen:
            continue
        stack = [start]
        comp = {start}
        seen.add(start)
        while stack:
            node = stack.pop()
            for nb in adj[node]:
                if nb not in comp:
                    comp.add(nb)
                    seen.add(nb)
                    stack.append(nb)
        comps.append(frozenset(comp))
    comps.sort(key=min)
    return comps


def island_assignment(state: NetworkState) -> dict[int, int]:
    out: dict[int, int] = {}
    for idx, comp in enumerate(islands(state)):
        for bus in comp:
            out[bus] = idx
    return out


def online_ders_in(state: NetworkState, comp: frozenset[int]) -> list[Der]:
    return [d for d in state.ders if d.online and d.bus in comp]


def is_energized(state: NetworkState, comp: frozenset[int]) -> bool:
    """An island is energized iff it holds the slack bus or an online DER."""
    if state.slack_bus in comp:
        return True
    return any(d.online and d.bus in comp for d in state.ders)


def energized_buses(state: NetworkState) -> set[int]:
    """Bus ids inside energized islands."""
    out: set[int] = set()
    for comp in islands(state):
        if is_energized(state, comp):
            out |= comp
    return out


def reference_bus(state: NetworkState, comp: frozenset[int]) -> int | None:
    """Voltage-reference node: the slack bus, else the largest-rated online DER.

    Rating ties break toward the lower bus id. Returns None for a
    de-energized island.
    """
    if state.slack_bus in comp:
        return state.slack_bus
    ders = online_ders_in(state, comp)
    if not ders:
        return None
    best = min(ders, key=lambda d: (-d.rating_p, d.bus))
    return best.bus


def check_radial(state: NetworkState, comp: frozenset[int]) -> None:
    """Raise RadialityError when the island's closed branches form a loop."""
    edges = sum(
        1 for f, t, _r, _x, _id in state.closed_branches() if f in comp and t in comp
    )
    if edges != len(comp) - 1:
        raise RadialityError(
            f"island with {len(comp)} buses has {edges} closed branches; not a tree"
        )


def closing_creates_loop(state: NetworkState, a: int, b: int) -> bool:
    """True when buses a and b are already connected, so one more branch loops."""
    assign = island_assignment(state)
    return assign.get(a) == assign.get(b)

