"""The vectorised power flow against the per-bus sweep it replaced.

``sweep_oracle.power_flow`` is the old loop, bus by bus.  Both must agree on
every topological field and on convergence exactly, and on every voltage to
1e-12, over random radial feeders and over every state the payoff builds
flow.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sweep_oracle
from gridgame import scenario
from gridgame.errors import RadialityError
from gridgame.experiments import _probe_catalog, synthetic_feeder
from gridgame.netmodel import CLOSED, OPEN, Bus, Der, Line, NetworkState
from gridgame.netmodel import islands, load_ieee33, power_flow
from gridgame.resilience import DEFAULT_AHP_MATRIX, ahp_weights, build_payoff_matrix
from gridgame.scenario import catalog_default

EXACT_FIELDS = ("islands", "energized", "converged", "iterations", "undervoltage_buses")


def assert_matches_oracle(state):
    try:
        want = sweep_oracle.power_flow(state)
    except RadialityError as exc:
        with pytest.raises(RadialityError) as got:
            power_flow(state)
        assert str(got.value) == str(exc)
        return "loop"
    got = power_flow(state)
    for name in EXACT_FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    assert got.voltages.keys() == want.voltages.keys()
    assert all(type(v) is complex for v in got.voltages.values())
    gap = max(abs(got.voltages[b] - want.voltages[b]) for b in want.voltages)
    assert gap <= 1e-12
    assert abs(got.max_mismatch - want.max_mismatch) <= 1e-12
    return "converged" if got.converged else "not converged"


def feeder(n, seed, load_kw, open_share, n_ders, shed_share, tie, critical_share=0.0):
    """A random tree of n buses with shuffled ids; some lines open, DERs
    online or offline at any dispatch, shed fractions, optionally one closed
    tie switch, which loops when both ends share an island, and some buses
    critical."""
    rng = np.random.default_rng(seed)
    ids = [int(b) for b in rng.permutation(n) + 1]
    buses = tuple(
        Bus(b, float(p), float(p * rng.uniform(-0.2, 0.8)))
        for b, p in zip(ids, rng.uniform(0.0, load_kw, n)))
    lines = []
    for i in range(1, n):
        ends = (ids[int(rng.integers(0, i))], ids[i])
        a, b = ends if rng.random() < 0.5 else ends[::-1]
        lines.append(Line(f"L{i}", a, b, float(rng.uniform(0.01, 1.5)),
                          float(rng.uniform(0.01, 1.5)),
                          OPEN if rng.random() < open_share else CLOSED))
    ders = tuple(
        Der(f"G{k}", ids[int(rng.integers(0, n))], float(rng.uniform(0.0, 4.0 * load_kw)),
            float(rng.choice([0.0, 1.0, rng.random()])), bool(rng.random() < 0.7))
        for k in range(n_ders))
    shed = {b: float(rng.choice([1.0, rng.random()]))
            for b in ids if rng.random() < shed_share}
    switches = ()
    if tie and n >= 2:
        a, b = rng.choice(ids, 2, replace=False)
        switches = (Line("T1", int(a), int(b), 0.3, 0.2, CLOSED),)
    slack = ids[int(rng.integers(0, n))]
    # drawn last, so the other fields do not depend on critical_share
    buses = tuple(Bus(b.id, b.load_p, b.load_q, bool(rng.random() < critical_share))
                  for b in buses)
    return NetworkState(buses=buses, lines=tuple(lines), switches=switches, ders=ders,
                        slack_bus=slack, shed_fractions=shed)


FEEDERS = st.builds(
    feeder,
    n=st.integers(2, 60),
    seed=st.integers(0, 2**32 - 1),
    load_kw=st.sampled_from([20.0, 150.0, 600.0]),
    open_share=st.sampled_from([0.0, 0.1, 0.4]),
    n_ders=st.integers(0, 4),
    shed_share=st.sampled_from([0.0, 0.3]),
    tie=st.booleans(),
    critical_share=st.sampled_from([0.0, 0.3]),
)


@settings(max_examples=300, deadline=None)
@given(state=FEEDERS)
def test_random_feeders_match_oracle(state):
    assert_matches_oracle(state)


def test_generator_reaches_every_outcome():
    # the property above is only as good as the feeders it sees
    seen = {assert_matches_oracle(feeder(n, seed, load, 0.2, 3, 0.3, seed % 2 == 0))
            for n in (2, 30, 60) for seed in range(12) for load in (150.0, 2000.0)}
    assert seen == {"loop", "converged", "not converged"}


def flowed_states(base, catalog):
    """Every state a payoff build hands to power_flow, in call order."""
    states = []
    real = scenario.power_flow

    def record(state, *args, **kwargs):
        states.append(state)
        return real(state, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario, "power_flow", record)
        build_payoff_matrix(base, catalog, ahp_weights(DEFAULT_AHP_MATRIX))
    return states


def test_every_bundled_build_state_matches_oracle():
    states = flowed_states(load_ieee33(), catalog_default())
    assert len(states) == 263
    for state in states:
        assert assert_matches_oracle(state) == "converged"


def test_every_118_bus_probe_state_matches_oracle():
    base = synthetic_feeder(118, 1)
    states = flowed_states(base, _probe_catalog(base))
    assert states
    for state in states:
        assert_matches_oracle(state)


def assert_power_balance(state):
    """Check the converged voltages against the nodal power-flow equations.

    Independent of the sweep: the dense admittance matrix Y of each energized
    island is built from the closed branches, and at every bus but the
    reference the injection V_i * conj((Y V)_i) must cancel the bus's
    constant-power draw, net of online DER output and shed.  Returns
    whether the flow converged; a flow that did not is not checked.
    """
    try:
        sol = power_flow(state, tol=1e-12, max_sweeps=1000)
    except RadialityError:
        return False
    if not sol.converged:
        return False
    z_base = state.base_kv ** 2 / state.base_mva
    s_base_kw = 1000.0 * state.base_mva
    der_kw = {}
    for d in state.ders:
        der_kw[d.bus] = der_kw.get(d.bus, 0.0) + d.output_kw()
    for isl in islands(state):
        if not isl.energized:
            continue
        pos = {b: k for k, b in enumerate(sorted(isl.buses))}
        y_bus = np.zeros((len(pos), len(pos)), dtype=complex)
        for f, t, r, x, _id in state.closed_branches():
            if f in pos:
                y = 1.0 / complex(r / z_base, x / z_base)
                i, j = pos[f], pos[t]
                y_bus[i, i] += y
                y_bus[j, j] += y
                y_bus[i, j] -= y
                y_bus[j, i] -= y
        v = np.array([sol.voltages[b] for b in pos])
        keep = np.array([1.0 - state.shed(b) for b in pos])
        load = np.array([complex(state.bus(b).load_p, state.bus(b).load_q) for b in pos])
        der = np.array([der_kw.get(b, 0.0) for b in pos])
        s = (load * keep - der) / s_base_kw
        mismatch = v * np.conj(y_bus @ v) + s
        mismatch[pos[isl.reference]] = 0.0
        assert np.abs(mismatch).max() <= 1e-10
    return True


@settings(max_examples=300, deadline=None)
@given(state=FEEDERS)
def test_random_feeders_balance_power(state):
    assert_power_balance(state)


@pytest.mark.parametrize("base", [load_ieee33(), synthetic_feeder(118, 1)],
                         ids=["ieee33", "synthetic118"])
def test_feeder_balances_power(base):
    assert assert_power_balance(base)
