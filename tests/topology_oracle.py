"""The breadth-first connectivity walk, kept as the oracle of topology.connectivity.

This is the pass the package ran before it labelled components in numpy: it
lists the closed branches from the state's ``Line`` objects, builds a dict
adjacency and walks it breadth-first from each unvisited bus in bus-id
order.  It reads nothing of the state's branch arrays, so an array that
drifts from the lines and switches it stands for shows up as a difference.
"""
from gridgame.netmodel.topology import Island


def closed_branches(state):
    """(from, to, r_ohm, x_ohm, branch id) for every closed line and switch."""
    return [(ln.from_bus, ln.to_bus, ln.r, ln.x, ln.id)
            for ln in (*state.lines, *state.switches) if ln.closed]


def breadth_first_connectivity(state):
    """(islands, island index per bus id), islands ordered by their smallest
    bus id, each with the reference ``topology.connectivity`` must pick."""
    adj = {b.id: [] for b in state.buses}
    for f, t, _r, _x, _id in closed_branches(state):
        adj[f].append(t)
        adj[t].append(f)

    island_of: dict[int, int] = {}
    found: list[tuple[list[int], int]] = []  # (buses, degree sum) per island
    for start in sorted(adj):
        if start in island_of:
            continue
        island_of[start] = len(found)
        members, degree = [start], 0
        for bus in members:  # members grows as it is walked: a breadth-first visit
            degree += len(adj[bus])
            for nb in adj[bus]:
                if nb not in island_of:
                    island_of[nb] = len(found)
                    members.append(nb)
        found.append((members, degree))

    online = [[] for _ in found]
    for d in state.ders:
        if d.online:
            online[island_of[d.bus]].append(d)

    out = []
    for idx, ((members, degree), ders) in enumerate(zip(found, online)):
        if idx == island_of[state.slack_bus]:
            ref = state.slack_bus
        elif ders:
            ref = min(ders, key=lambda d: (-d.rating_p, d.bus)).bus
        else:
            ref = None
        out.append(Island(buses=frozenset(members), branches=degree // 2,
                          ders=tuple(d.id for d in ders), reference=ref))
    return tuple(out), island_of
