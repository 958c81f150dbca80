"""Network model tests against independent oracles.

The load-flow oracle below deliberately avoids the package's sweep
formulation: it iterates the path-impedance equations (voltage at a bus =
reference minus the sum of Z*I over the unique path), with all bookkeeping
in dicts via networkx. Agreement between the two is then meaningful.
"""

import contextlib
import dataclasses
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
    islands,
    load_ieee33,
    power_flow,
    topology,
)
from gridgame.resilience import DEFAULT_AHP_MATRIX, ahp_weights, build_payoff_matrix
from gridgame.scenario import (AttackAction, DefenseAction, catalog_default, compile_pair,
                               serve_loads)
from topology_oracle import closed_branches


def oracle_voltages(state, tol=1e-13, max_iter=400):
    """Path-formulation load flow, dict-based, independent of the package."""
    z_base = state.base_kv**2 / state.base_mva
    s_base_kw = 1000.0 * state.base_mva
    g = nx.Graph()
    g.add_nodes_from(b.id for b in state.buses)
    for f, t, r, x, _bid in closed_branches(state):
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
        assert sum(b.load_p for b in net.buses) == 3715.0
        assert sum(b.load_q for b in net.buses) == 2300.0

    def test_critical_buses(self, net):
        assert [b.id for b in net.buses if b.is_critical] == [7, 14, 24, 31]

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
        for f, t, r, x, _bid in closed_branches(net):
            g[(f, t)] = complex(r, x) / z_base
        # recompute branch flows from the voltage solution via path currents
        ref = oracle_voltages(net)
        total_load = complex(sum(b.load_p for b in net.buses),
                             sum(b.load_q for b in net.buses)) / s_kw
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
        state = net.with_line_status("SW1", CLOSED)
        with pytest.raises(RadialityError):
            power_flow(state)


class TestTopology:
    def test_islands_match_networkx(self, net):
        line = net.find_line(6, 7)
        state = net.with_line_status(line.id, OPEN)
        state = state.with_line_status(state.find_line(14, 15).id, OPEN)
        mine = [set(isl.buses) for isl in islands(state)]
        g = nx.Graph()
        g.add_nodes_from(b.id for b in state.buses)
        g.add_edges_from((f, t) for f, t, *_ in closed_branches(state))
        theirs = sorted((set(c) for c in nx.connected_components(g)), key=min)
        assert mine == theirs

    def test_islands_partition(self, net):
        state = net.with_line_status(net.find_line(2, 3).id, OPEN)
        seen = set()
        for isl in islands(state):
            assert not (seen & isl.buses)
            seen |= isl.buses
        assert seen == {b.id for b in net.buses}

    def test_reference_prefers_largest_der(self, net):
        # island 26..33 holds only DER4
        state = net.with_line_status(net.find_line(6, 26).id, OPEN)
        isl = next(isl for isl in islands(state) if 29 in isl.buses)
        assert isl.buses == frozenset(range(26, 34))
        assert isl.reference == 29
        assert isl.energized

    def test_reference_tie_breaks_low_bus(self):
        buses = tuple(Bus(i, 100.0, 50.0) for i in range(1, 5))
        lines = (
            Line("a", 1, 2, 0.1, 0.1),
            Line("b", 2, 3, 0.1, 0.1, status=OPEN),
            Line("c", 3, 4, 0.1, 0.1),
        )
        ders = (Der("G1", 4, 500.0), Der("G2", 3, 500.0))
        state = NetworkState(buses=buses, lines=lines, ders=ders, slack_bus=1)
        slack, isl = islands(state)
        assert slack.buses == frozenset({1, 2}) and slack.reference == 1
        assert isl.buses == frozenset({3, 4})
        assert isl.ders == ("G1", "G2")  # state order, not rating order
        # equal ratings: lower bus id wins... G2 at bus 3
        assert isl.reference == 3

    def test_dead_island_and_loop(self, net):
        # SW1 closes a loop in the slack island; 26..33 loses its only DER
        state = net.with_line_status("SW1", CLOSED)
        state = state.with_line_status(state.find_line(6, 26).id, OPEN)
        state = state.with_der(state.der_at_bus(29).id, online=False)
        slack, dead = islands(state)
        assert dead.buses == frozenset(range(26, 34))
        assert (dead.reference, dead.energized, dead.ders) == (None, False, ())
        dead.check_radial()
        assert slack.branches == len(slack.buses)
        with pytest.raises(RadialityError, match="^island with 25 buses has 25 closed "
                                                 "branches; not a tree$"):
            slack.check_radial()
        assert topology.energized_buses(state) == set(slack.buses)
        assert topology.closing_creates_loop(state, 2, 3)
        assert not topology.closing_creates_loop(state, 25, 26)


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
        crit = sum(b.load_p for b in net.buses if b.is_critical)
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
            switches=(Line("s", 1, 3, switch_r, 0.5, OPEN),),
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


# -- the trusted path of the with_* derivations -------------------------------

@contextlib.contextmanager
def derived_states():
    """Collects every state a ``with_*`` derivation makes while the block runs."""
    made, derive = [], NetworkState._derive

    def record(self, *args, **kwargs):
        made.append(derive(self, *args, **kwargs))
        return made[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(NetworkState, "_derive", record)
        yield made


def assert_revalidates(state):
    """The full validator accepts a derived state and rebuilds it equal; the
    topology and numbering it holds, perhaps its parent's, are the rebuilt
    state's own."""
    again = NetworkState(**{f.name: getattr(state, f.name)
                            for f in dataclasses.fields(state) if f.init})
    assert again == state
    if state._topology is not None:
        isls, labels = topology.connectivity(again)
        assert state._topology[0] == isls
        assert np.array_equal(state._topology[1], labels)
    if state._numbering is not None:
        assert power_flow(state) == power_flow(again)


def test_every_derived_state_of_the_bundled_build_revalidates(monkeypatch):
    base = load_ieee33()
    validations = []
    validate = NetworkState.__post_init__

    def counted(self):
        validations.append(self)
        validate(self)

    monkeypatch.setattr(NetworkState, "__post_init__", counted)
    with derived_states() as made:
        build_payoff_matrix(base, catalog_default(), ahp_weights(DEFAULT_AHP_MATRIX))
    # one derivation per state the build makes, and none runs the full check;
    # each attack is applied once per row of ten cells, not once per cell
    assert (len(made), len(validations)) == (212, 0)
    for state in made:
        assert_revalidates(state)
    assert sum(s._numbering is not None for s in made) == 163


class TestDerivations:
    @pytest.mark.parametrize("derive", [
        pytest.param(lambda s: s.with_scaled_loads({2: -1.0}), id="negative-scale"),
        pytest.param(lambda s: s.with_scaled_loads({2: math.nan}), id="nan-scale"),
        pytest.param(lambda s: s.with_scaled_loads({2: math.inf}), id="infinite-scale"),
        pytest.param(lambda s: s.with_shed({2: 1.5}), id="shed-above-one"),
        pytest.param(lambda s: s.with_shed({2: -0.1}), id="negative-shed"),
        pytest.param(lambda s: s.with_shed({2: math.nan}), id="nan-shed"),
        pytest.param(lambda s: s.with_shed({99: 0.5}), id="unknown-shed-bus"),
        pytest.param(lambda s: s.with_der("DER1", dispatch_fraction=1.5), id="dispatch-above-one"),
        pytest.param(lambda s: s.with_der("DER1", dispatch_fraction=-0.5), id="negative-dispatch"),
        pytest.param(lambda s: s.with_der("DER1", dispatch_fraction=math.nan), id="nan-dispatch"),
        pytest.param(lambda s: s.with_der("DER1", rating_p=math.inf), id="infinite-rating"),
        pytest.param(lambda s: s.with_der("DER1", bus=99), id="unknown-der-bus"),
        pytest.param(lambda s: s.with_der("DER1", id="DER2"), id="duplicate-der-id"),
    ])
    def test_bad_value_rejected(self, net, derive):
        with pytest.raises(NetworkValidationError):
            derive(net)

    def test_der_change_resolves_its_own_islands(self, net):
        # a trip or a new rating may move an island's reference, so the
        # derived state resolves its own islands and numbering
        power_flow(net)
        for derived in (net.with_der("DER4", online=False), net.with_der("DER4", rating_p=1.0),
                        net.with_der("DER4", online=False, dispatch_fraction=1.0)):
            assert (derived._topology, derived._numbering) == (None, None)
            power_flow(derived)
            assert topology.connectivity(derived) is not topology.connectivity(net)
            assert derived._numbering is not net._numbering
            assert_revalidates(derived)
        tripped = net.with_line_status(net.find_line(6, 26).id, OPEN)
        assert topology.islands(tripped)[1].reference == 29
        assert topology.islands(tripped.with_der("DER4", online=False))[1].reference is None

    def test_dispatch_change_keeps_the_parents_topology(self, net):
        # islands name their DERs by id and the flow reads the outputs from
        # the state's own DERs, so a dispatch change moves neither
        power_flow(net)
        boosted = net.with_der("DER1", dispatch_fraction=1.0)
        assert topology.connectivity(boosted) is topology.connectivity(net)
        assert boosted._numbering is net._numbering
        assert boosted._solution is None
        assert_revalidates(boosted)
        assert power_flow(boosted).voltages != power_flow(net).voltages

    @pytest.mark.parametrize("derive", [
        pytest.param(lambda s: s.with_shed({2: 0.5}), id="shed"),
        pytest.param(lambda s: s.with_scaled_loads({2: 2.0}), id="scaled-loads"),
        pytest.param(lambda s: s.with_der("DER1", dispatch_fraction=1.0), id="der"),
        pytest.param(lambda s: s.with_line_status("L1-2", OPEN), id="line"),
        pytest.param(lambda s: s.with_line_status("SW1", CLOSED), id="switch"),
        pytest.param(lambda s: dataclasses.replace(s, slack_bus=2), id="replace"),
    ])
    def test_derivations_start_without_a_solution(self, net, derive):
        solved = power_flow(net)
        assert net._solution is solved
        assert derive(net)._solution is None

    def test_a_state_keeps_its_solution(self, monkeypatch):
        from gridgame.netmodel import powerflow
        net = load_ieee33()  # one island, never solved
        sweeps = []
        real = powerflow._sweep
        monkeypatch.setattr(powerflow, "_sweep", lambda *a: sweeps.append(a) or real(*a))
        first = power_flow(net)
        assert power_flow(net) is first
        assert len(sweeps) == 1

    def test_a_stored_solution_still_checks_radiality(self, net, monkeypatch):
        power_flow(net)
        checked = []
        real = topology.check_energized_radial
        monkeypatch.setattr(topology, "check_energized_radial",
                            lambda s: checked.append(s) or real(s))
        power_flow(net)
        assert checked == [net]

    def test_load_only_derivations_keep_the_parents_topology(self, net):
        power_flow(net)
        for derived in (net.with_shed({2: 0.5}), net.with_scaled_loads({2: 2.0})):
            assert topology.connectivity(derived) is topology.connectivity(net)
            assert derived._numbering is net._numbering
            assert_revalidates(derived)
