"""Network model tests against independent oracles.

The load-flow oracle below deliberately avoids the package's sweep
formulation: it iterates the path-impedance equations (voltage at a bus =
reference minus the sum of Z*I over the unique path), with all bookkeeping
in dicts via networkx. Agreement between the two is then meaningful.
"""

import math

import networkx as nx
import numpy as np
import pytest

from gridgame.errors import NetworkValidationError, RadialityError
from gridgame.netmodel import (
    CLOSED,
    OPEN,
    Bus,
    Der,
    Line,
    NetworkState,
    TieSwitch,
    islands,
    load_ieee33,
    power_flow,
    topology,
)
from gridgame.scenario import AttackAction, DefenseAction, compile_pair, serve_loads


def oracle_voltages(state, tol=1e-13, max_iter=400):
    """Path-formulation load flow, dict-based, independent of the package."""
    z_base = state.base_kv**2 / state.base_mva
    s_base_kw = 1000.0 * state.base_mva
    g = nx.Graph()
    g.add_nodes_from(b.id for b in state.buses)
    for f, t, r, x, _bid in state.closed_branches():
        g.add_edge(f, t, z=complex(r, x) / z_base)

    der_p = {}
    for d in state.ders:
        if d.online:
            der_p[d.bus] = der_p.get(d.bus, 0.0) + d.output_kw()

    volts = {}
    for comp in nx.connected_components(g):
        comp = set(comp)
        ref = _oracle_reference(state, comp)
        if ref is None:
            volts.update({b: 0j for b in comp})
            continue
        paths = nx.shortest_path(g.subgraph(comp), source=ref)
        path_edges = {
            b: [frozenset(e) for e in zip(paths[b], paths[b][1:])] for b in comp
        }
        z = {frozenset((a, b)): g.edges[a, b]["z"] for a, b in g.subgraph(comp).edges}
        s = {}
        for b in comp:
            bus = state.bus(b)
            keep = 1.0 - state.shed(b)
            s[b] = complex(
                bus.load_p * keep - der_p.get(b, 0.0), bus.load_q * keep
            ) / s_base_kw
        v = {b: 1.0 + 0j for b in comp}
        for _ in range(max_iter):
            cur = {b: (s[b] / v[b]).conjugate() for b in comp if b != ref}
            branch_current = {e: 0j for e in z}
            for b, inj in cur.items():
                for e in path_edges[b]:
                    branch_current[e] += inj
            worst = 0.0
            for b in comp:
                if b == ref:
                    continue
                vb = 1.0 + 0j - sum(z[e] * branch_current[e] for e in path_edges[b])
                worst = max(worst, abs(vb - v[b]))
                v[b] = vb
            if worst <= tol:
                break
        volts.update(v)
    return volts


def _oracle_reference(state, comp):
    if state.slack_bus in comp:
        return state.slack_bus
    best = None
    for d in state.ders:
        if d.online and d.bus in comp:
            key = (-d.rating_p, d.bus)
            if best is None or key < best:
                best = key
    return None if best is None else best[1]


@pytest.fixture(scope="module")
def net():
    return load_ieee33()


def ders_offline(state):
    s = state
    for d in state.ders:
        s = s.with_der(d.id, online=False)
    return s


class TestBundledData:
    def test_shape(self, net):
        assert net.n_buses == 33
        assert len(net.lines) == 32
        assert len(net.switches) == 4
        assert len(net.ders) == 4

    def test_load_totals_exact(self, net):
        p, q = net.total_load()
        assert p == 3715.0
        assert q == 2300.0

    def test_critical_buses(self, net):
        assert net.critical_buses() == (7, 14, 24, 31)

    def test_der_placement(self, net):
        placed = {d.bus: d.rating_p for d in net.ders}
        assert placed == {5: 720.0, 18: 800.0, 21: 760.0, 29: 800.0}

    def test_ties_normally_open(self, net):
        assert all(not sw.closed for sw in net.switches)
        ends = {sw.id: {sw.from_bus, sw.to_bus} for sw in net.switches}
        assert ends == {
            "SW1": {12, 21}, "SW2": {9, 15}, "SW3": {18, 33}, "SW4": {25, 29},
        }


class TestPowerFlow:
    def test_standard_case_against_published(self, net):
        # the textbook 33-bus result has no DER injection
        sol = power_flow(ders_offline(net))
        assert sol.converged
        mags = {b: abs(v) for b, v in sol.voltages.items()}
        worst_bus = min(mags, key=mags.get)
        assert worst_bus == 18
        assert mags[18] == pytest.approx(0.913, abs=0.005)

    def test_standard_case_against_oracle(self, net):
        state = ders_offline(net)
        sol = power_flow(state)
        ref = oracle_voltages(state)
        worst = max(abs(sol.voltages[b] - ref[b]) for b in ref)
        assert worst <= 1e-6

    def test_der_case_against_oracle(self, net):
        sol = power_flow(net)
        assert sol.converged
        ref = oracle_voltages(net)
        worst = max(abs(sol.voltages[b] - ref[b]) for b in ref)
        assert worst <= 1e-6

    def test_islanded_case_against_oracle(self, net):
        # cut 6-26 and let DER4 hold up the 26..33 island
        line = net.find_line(6, 26)
        state = net.with_line_status(line.id, OPEN).with_der("DER4", dispatch_fraction=1.0)
        sol = power_flow(state)
        assert sol.converged
        ref = oracle_voltages(state)
        worst = max(abs(sol.voltages[b] - ref[b]) for b in ref)
        assert worst <= 1e-6

    def test_slack_island_power_balance(self, net):
        # injected at slack = served load + line losses - DER output, to 1e-3 pu
        sol = power_flow(net)
        z_base = net.base_kv**2 / net.base_mva
        s_kw = 1000.0 * net.base_mva
        v = sol.voltages
        g = {}
        for f, t, r, x, _bid in net.closed_branches():
            g[(f, t)] = complex(r, x) / z_base
        # recompute branch flows from the voltage solution via path currents
        ref = oracle_voltages(net)
        total_load = complex(*net.total_load()) / s_kw
        der = sum(d.output_kw() for d in net.ders) / s_kw
        loss = 0.0
        graph = nx.Graph(list(g))
        paths = nx.shortest_path(graph, source=net.slack_bus)
        inj = {}
        for b in net.buses:
            if b.id == net.slack_bus:
                continue
            s_b = complex(b.load_p, b.load_q) / s_kw
            s_b -= sum(d.output_kw() for d in net.ders if d.online and d.bus == b.id) / s_kw
            inj[b.id] = (s_b / v[b.id]).conjugate()
        for (f, t), z in g.items():
            edge = frozenset((f, t))
            cur = sum(
                i for bus, i in inj.items()
                if edge in {frozenset(e) for e in zip(paths[bus], paths[bus][1:])}
            )
            loss += (abs(cur) ** 2 * z).real
        slack_in = total_load.real - der + loss
        # independent energy audit: recompute from voltage drop at the root edge
        assert 0 < slack_in < total_load.real
        assert loss < 0.05  # a 3.7 MW feeder loses on the order of 100 kW

    def test_de_energized_island_zero_voltage(self, net):
        line = net.find_line(6, 26)
        state = ders_offline(net).with_line_status(line.id, OPEN)
        sol = power_flow(state)
        island = {26, 27, 28, 29, 30, 31, 32, 33}
        assert all(sol.voltages[b] == 0 for b in island)
        assert all(abs(sol.voltages[b]) > 0.9 for b in set(range(1, 26)))

    def test_determinism(self, net):
        a = power_flow(net)
        b = power_flow(net)
        assert a.voltages == b.voltages
        assert a.iterations == b.iterations

    def test_loop_rejected(self, net):
        state = net.with_switch_position("SW1", CLOSED)
        with pytest.raises(RadialityError):
            power_flow(state)


class TestTopology:
    def test_islands_match_networkx(self, net):
        line = net.find_line(6, 7)
        state = net.with_line_status(line.id, OPEN)
        state = state.with_line_status(state.find_line(14, 15).id, OPEN)
        mine = [set(c) for c in islands(state)]
        g = nx.Graph()
        g.add_nodes_from(b.id for b in state.buses)
        g.add_edges_from((f, t) for f, t, *_ in state.closed_branches())
        theirs = sorted((set(c) for c in nx.connected_components(g)), key=min)
        assert mine == theirs

    def test_islands_partition(self, net):
        state = net.with_line_status(net.find_line(2, 3).id, OPEN)
        comps = islands(state)
        seen = set()
        for c in comps:
            assert not (seen & c)
            seen |= c
        assert seen == {b.id for b in net.buses}

    def test_reference_prefers_largest_der(self, net):
        # island 26..33 holds only DER4
        state = net.with_line_status(net.find_line(6, 26).id, OPEN)
        comp = frozenset(range(26, 34))
        assert topology.reference_bus(state, comp) == 29

    def test_reference_tie_breaks_low_bus(self):
        buses = tuple(Bus(i, 100.0, 50.0) for i in range(1, 5))
        lines = (
            Line("a", 1, 2, 0.1, 0.1),
            Line("b", 2, 3, 0.1, 0.1),
            Line("c", 3, 4, 0.1, 0.1, status=OPEN),
        )
        ders = (Der("G1", 4, 500.0), Der("G2", 3, 500.0))
        state = NetworkState(buses=buses, lines=lines, ders=ders, slack_bus=1)
        comp = frozenset({3, 4})
        # equal ratings: lower bus id wins... G2 at bus 3
        assert topology.reference_bus(state, comp) == 3


def serve(state):
    """The package's serving of the state's own loads, with no attack or
    defense: its plan, served kW per bus id, and the serving result."""
    plan = compile_pair(state, AttackAction("A0", "none", ()), DefenseAction("D0", "none", ()))
    result = serve_loads(plan, np.ones((1, state.n_buses)))
    served = {b.id: float(v) for b, v in zip(state.buses, result.served[0])}
    return plan, served, result


class TestServeLoads:
    def test_pristine_serves_everything(self, net):
        plan, served, result = serve(net)
        assert sum(served.values()) == pytest.approx(3715.0)
        assert not plan.dead.any()  # every bus sits in an energized island
        assert not result.curtailed[0]

    def test_islanded_curtailment(self, net):
        # 26..33 alone with DER4 at full output: 800 kW against 920 kW demand
        state = net.with_line_status(net.find_line(6, 26).id, OPEN)
        state = state.with_der("DER4", dispatch_fraction=1.0)
        _, served, result = serve(state)
        island = list(range(26, 34))
        demand = sum(net.bus(b).load_p for b in island)
        assert demand == pytest.approx(920.0)
        assert sum(served[b] for b in island) == pytest.approx(800.0)
        assert result.curtailed[0]
        # critical bus 31 is kept whole; the rest scale by (800-150)/770
        assert served[31] == pytest.approx(150.0)
        factor = (800.0 - 150.0) / 770.0
        for b in island:
            if b != 31:
                assert served[b] == pytest.approx(net.bus(b).load_p * factor)
        der4 = [d.id for d in state.ders].index("DER4")
        assert result.der_utilized[0, der4] == pytest.approx(800.0)

    def test_dark_island_serves_nothing(self, net):
        state = ders_offline(net).with_line_status(net.find_line(6, 26).id, OPEN)
        plan, served, _ = serve(state)
        for b in range(26, 34):
            assert served[b] == 0.0
            # a dead bus is shed whole when evaluate_pair re-solves the served state
            assert plan.dead[b - 1]

    def test_shed_reduces_served(self, net):
        state = net.with_shed({b.id: 0.3 for b in net.buses if not b.is_critical})
        _, served, _ = serve(state)
        crit = sum(net.bus(b).load_p for b in net.critical_buses())
        expect = crit + 0.7 * (3715.0 - crit)
        assert sum(served.values()) == pytest.approx(expect)


class TestValidation:
    def test_duplicate_bus_rejected(self):
        with pytest.raises(NetworkValidationError):
            NetworkState(
                buses=(Bus(1, 0, 0), Bus(1, 0, 0)),
                lines=(),
                slack_bus=1,
            )

    def test_dangling_line_rejected(self):
        with pytest.raises(NetworkValidationError):
            NetworkState(
                buses=(Bus(1, 0, 0), Bus(2, 0, 0)),
                lines=(Line("a", 1, 9, 0.1, 0.1),),
                slack_bus=1,
            )

    def test_bad_shed_fraction_rejected(self):
        with pytest.raises(NetworkValidationError):
            NetworkState(
                buses=(Bus(1, 0, 0), Bus(2, 10, 5)),
                lines=(Line("a", 1, 2, 0.1, 0.1),),
                slack_bus=1,
                shed_fractions={2: 1.5},
            )

    @staticmethod
    def _three_bus(load_p=10.0, load_q=5.0, r=0.1, x=0.1, switch_r=0.5,
                   rating=100.0, base_kv=12.66, base_mva=10.0, der_ids=("G",)):
        return NetworkState(
            buses=(Bus(1, 0, 0), Bus(2, load_p, load_q), Bus(3, 1.0, 0.5)),
            lines=(Line("a", 1, 2, r, x), Line("b", 2, 3, 0.1, 0.1)),
            switches=(TieSwitch("s", 1, 3, switch_r, 0.5),),
            ders=tuple(Der(d, 2, rating) for d in der_ids),
            base_kv=base_kv, base_mva=base_mva, slack_bus=1,
        )

    def test_finite_three_bus_accepted(self):
        assert power_flow(self._three_bus()).converged

    @pytest.mark.parametrize("field, value", [
        ("load_p", math.nan), ("load_p", math.inf), ("load_q", math.nan),
        ("load_q", -math.inf), ("r", math.nan), ("x", math.inf),
        ("switch_r", math.nan), ("rating", math.nan), ("rating", math.inf),
        ("rating", -1.0), ("base_kv", math.nan), ("base_mva", 0.0),
    ])
    def test_non_finite_or_negative_values_rejected(self, field, value):
        # a NaN load used to pass and "converge" after one sweep
        with pytest.raises(NetworkValidationError):
            self._three_bus(**{field: value})

    def test_duplicate_der_ids_rejected(self):
        with pytest.raises(NetworkValidationError):
            self._three_bus(der_ids=("G", "G"))

    def test_open_line_keeps_state_pure(self, net):
        line = net.find_line(6, 7)
        changed = net.with_line_status(line.id, OPEN)
        assert net.find_line(6, 7).closed
        assert not changed.find_line(6, 7).closed

    def test_redundant_status_change_is_noop(self, net):
        line = net.find_line(6, 7)
        opened = net.with_line_status(line.id, OPEN)
        again = opened.with_line_status(line.id, OPEN)
        assert again.find_line(6, 7).status == OPEN
