"""The one connectivity pass against networkx and the reference rule.

Random feeders are a random tree plus extra closed branches (sometimes a
line and a closed tie between the same two buses), with some lines opened
and the DERs online or offline at a few shared ratings, so rating ties
happen.  ``topology.connectivity`` must agree with the connected components
of the closed branches as a networkx ``MultiGraph``, count each island's
branches so that the tree rule matches ``nx.is_tree``, and pick the
reference the slack/largest-DER rule picks.
"""
import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridgame.errors import RadialityError
from gridgame.netmodel import CLOSED, OPEN, Bus, Der, Line, NetworkState, topology


@st.composite
def feeders(draw):
    n = draw(st.integers(1, 25))
    pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    lines = [Line(f"L{i}", draw(st.integers(1, i - 1)), i, 0.1, 0.2,
                  draw(st.sampled_from([CLOSED, CLOSED, OPEN])))
             for i in range(2, n + 1)]
    switches = []
    if n >= 2:
        for a, b in draw(st.lists(pair, max_size=4)):
            lines.append(Line(f"X{len(lines)}", a, b, 0.3, 0.1,
                              draw(st.sampled_from([CLOSED, OPEN]))))
        for a, b in draw(st.lists(pair, max_size=3)):
            switches.append(Line(f"T{len(switches)}", a, b, 0.5, 0.5,
                                 draw(st.sampled_from([CLOSED, OPEN]))))
        if draw(st.booleans()):
            # a line and a closed tie between the same two buses: a two-bus loop
            a, b = draw(pair)
            lines.append(Line(f"P{len(lines)}", a, b, 0.2, 0.2, CLOSED))
            switches.append(Line(f"T{len(switches)}", b, a, 0.4, 0.4, CLOSED))
    ders = tuple(
        Der(f"G{k}", draw(st.integers(1, n)), draw(st.sampled_from([0.0, 300.0, 500.0])),
            online=draw(st.booleans()))
        for k in range(draw(st.integers(0, 6))))
    return NetworkState(buses=tuple(Bus(i, 10.0, 5.0) for i in range(1, n + 1)),
                        lines=tuple(lines), switches=tuple(switches), ders=ders,
                        slack_bus=draw(st.integers(1, n)))


def multigraph(state):
    g = nx.MultiGraph()
    g.add_nodes_from(b.id for b in state.buses)
    g.add_edges_from((ln.from_bus, ln.to_bus) for ln in state.lines if ln.closed)
    g.add_edges_from((sw.from_bus, sw.to_bus) for sw in state.switches if sw.closed)
    return g


def expected_reference(state, buses):
    if state.slack_bus in buses:
        return state.slack_bus
    online = [d for d in state.ders if d.online and d.bus in buses]
    if not online:
        return None
    best = max(d.rating_p for d in online)
    return min(d.bus for d in online if d.rating_p == best)


@settings(max_examples=300, deadline=None)
@given(feeders())
def test_connectivity_matches_networkx(state):
    g = multigraph(state)
    isls, adj = topology.connectivity(state)
    assert [isl.buses for isl in isls] == sorted(
        (frozenset(c) for c in nx.connected_components(g)), key=min)
    assert topology.islands(state) == isls
    for isl in isls:
        sub = g.subgraph(isl.buses)
        assert isl.branches == sub.number_of_edges()
        assert (isl.branches == len(isl.buses) - 1) == nx.is_tree(sub)
        if nx.is_tree(sub):
            isl.check_radial()
        else:
            with pytest.raises(RadialityError, match="not a tree"):
                isl.check_radial()
        assert isl.ders == tuple(d for d in state.ders if d.online and d.bus in isl.buses)
        assert isl.reference == expected_reference(state, isl.buses)
        assert isl.energized == (isl.reference is not None)
    for bus, near in adj.items():
        assert sorted(nb for nb, _r, _x in near) == sorted(nb for _b, nb in g.edges(bus))
