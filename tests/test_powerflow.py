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
from gridgame.netmodel import islands, load_ieee33, power_flow, powerflow
from gridgame.resilience import DEFAULT_AHP_MATRIX, ahp_weights, build_payoff_matrix
from gridgame.scenario import catalog_default
from topology_oracle import closed_branches

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


def test_branchless_islands_match_oracle():
    # one bus alone, and an isolated DER bus beside a two-bus slack island:
    # islands of one bus have no branch toward a parent
    alone = NetworkState(buses=(Bus(1, 10.0, 5.0),), lines=())
    apart = NetworkState(buses=tuple(Bus(i, 10.0, 5.0) for i in (1, 2, 3)),
                         lines=(Line("a", 1, 2, 0.1, 0.2), Line("b", 2, 3, 0.1, 0.2, OPEN)),
                         ders=(Der("G", 3, 50.0),))
    for state in (alone, apart):
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


def test_bundled_build_sweeps_each_row_once(monkeypatch):
    # each row's flows are one kernel call, whose passes are at most one per
    # width group and SWEEP_ENTRIES chunk of the row's islands; the served
    # states share their defended state's numbering, so the build walks no
    # more trees than one numbering per defended state would (202), and
    # evaluate_pair still asks for every flow
    calls, walks, rows, passes = [], [], [], []
    for name, log in (("_depth_first", walks), ("_sweep_islands", rows),
                      ("_sweep_rows", passes)):
        real = getattr(powerflow, name)
        monkeypatch.setattr(powerflow, name,
                            lambda *a, real=real, log=log: log.append(a) or real(*a))
    real_flow = scenario.power_flow
    monkeypatch.setattr(scenario, "power_flow", lambda s: calls.append(s) or real_flow(s))
    catalog = catalog_default()
    build_payoff_matrix(load_ieee33(), catalog, ahp_weights(DEFAULT_AHP_MATRIX))
    assert len(calls) == 263
    assert len(walks) <= 202
    assert len(rows) <= len(catalog.attacks)
    chunks = 0
    for sizes, *_ in rows:
        power = np.frexp(sizes - 1)[1]
        for p, count in zip(*np.unique(power, return_counts=True)):
            chunks += -(-count // max(1, powerflow.SWEEP_ENTRIES >> int(p)))
    assert len(passes) <= chunks


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
    constant-power draw, net of online DER output and shed.  The flow is
    solved to 1e-12 within 1000 sweeps, on a copy of the state that holds no
    stored solution.  Returns whether the flow converged; a flow that did not
    is not checked.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(powerflow, "TOLERANCE", 1e-12)
        mp.setattr(powerflow, "MAX_SWEEPS", 1000)
        try:
            sol = power_flow(state.with_shed({}))
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
        for f, t, r, x, _id in closed_branches(state):
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


# -- the many-island kernel against the one-island sweep ---------------------

# (z, s) scales of a drawn island: a light feeder converges, a heavy one
# runs out of sweeps, and one near the float limit overflows
ISLAND_SCALES = {"light": (0.05, 0.02), "heavy": (0.5, 3.0), "overflow": (1e308, 1e308)}


def numbered_island(size, seed, scale):
    """(end, z, s) of a random tree of ``size`` places in depth-first order:
    each place after the root is one level deeper than the last or returns
    to a level at most as deep, and its subtree ends at the next place no
    deeper than it."""
    rng = np.random.default_rng(seed)
    depth = [0]
    for _ in range(1, size):
        depth.append(int(rng.integers(1, depth[-1] + 2)))
    end = np.array([next((j for j in range(i + 1, size) if depth[j] <= depth[i]), size)
                    for i in range(size)])
    z_scale, s_scale = ISLAND_SCALES[scale]
    z = z_scale * (rng.random(size) + 1j * rng.random(size))
    s = s_scale * (rng.random(size) + 1j * rng.uniform(-0.2, 0.8, size))
    z[0] = s[0] = 0.0
    return end, z, s


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64).tolist()


def assert_kernel_matches(islands, entries=None):
    """``_sweep_islands`` over the islands in one call, at ``entries``
    padded entries per pass, gives every island the bits of its one-island
    sweep; returns each island's outcome."""
    with pytest.MonkeyPatch.context() as mp:
        if entries is not None:
            mp.setattr(powerflow, "SWEEP_ENTRIES", entries)
        v, sweeps, max_dv = powerflow._sweep_islands(
            np.array([len(s) for _end, _z, s in islands]),
            *(np.concatenate(parts) for parts in zip(*islands)))
    outcomes, at = [], 0
    for i, (end, z, s) in enumerate(islands):
        want_v, want_sweeps, want_dv = sweep_oracle.one_island_sweep(end, z, s)
        assert bits(v[at:at + len(s)].view(np.float64)) == bits(want_v.view(np.float64))
        assert (int(sweeps[i]), bits(max_dv[i])) == (want_sweeps, bits(want_dv))
        at += len(s)
        outcomes.append("converged" if want_dv <= powerflow.TOLERANCE
                        else "exhausted" if np.isfinite(want_dv) else "non-finite")
    return outcomes


ISLANDS = st.lists(st.builds(
    numbered_island,
    size=st.integers(1, 70),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from(sorted(ISLAND_SCALES)),
), min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(islands=ISLANDS, entries=st.sampled_from([1, 64, None]))
def test_kernel_matches_the_one_island_sweep(islands, entries):
    assert_kernel_matches(islands, entries)


def test_kernel_cases_reach_every_outcome():
    # one call of mixed widths (1 to 70 places) holding one-node islands, and
    # width groups whose islands converge, exhaust MAX_SWEEPS and overflow
    islands = [numbered_island(size, seed, scale)
               for seed, (size, scale) in enumerate([
                   (1, "light"), (70, "light"), (40, "heavy"), (33, "light"), (5, "light"),
                   (50, "overflow"), (1, "heavy"), (6, "heavy"), (7, "overflow"), (2, "light")])]
    for entries in (1, 64, None):
        outcomes = assert_kernel_matches(islands, entries)
        assert set(outcomes) == {"converged", "exhausted", "non-finite"}
