"""Metric, AHP, and payoff-matrix tests.

The AHP oracle is numpy's general eigensolver; the package must agree with
it even though it only ever runs power iteration.
"""

import csv
import json
import math
import random
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gridgame import cli, resilience, scenario
from gridgame.errors import CatalogError, NetworkValidationError, RadialityError
from gridgame.netmodel import (CLOSED, OPEN, Bus, Der, Line, NetworkState, load_ieee33,
                              load_network, topology)
from gridgame.resilience import (
    DEFAULT_AHP_MATRIX,
    AhpWeights,
    PayoffMatrix,
    ResilienceScorecard,
    ahp_weights,
    left_sum,
    unified_score,
)

REPORTED_WEIGHTS = np.array([0.277, 0.466, 0.096, 0.161])


def eig_oracle(a):
    vals, vecs = np.linalg.eig(a)
    k = int(np.argmax(vals.real))
    w = np.abs(vecs[:, k].real)
    return vals[k].real, w / w.sum()


class TestAhp:
    def test_matches_eigensolver(self):
        res = ahp_weights(DEFAULT_AHP_MATRIX)
        lam, w = eig_oracle(DEFAULT_AHP_MATRIX)
        assert res.lambda_max == pytest.approx(lam, abs=1e-9)
        assert np.max(np.abs(res.w - w)) <= 1e-9

    def test_frozen_values(self):
        # principal eigenpair of the default judgment matrix, frozen from
        # an independent eigensolver run
        res = ahp_weights(DEFAULT_AHP_MATRIX)
        assert np.allclose(
            res.w, [0.27718059, 0.46729598, 0.09543495, 0.16008848], atol=1e-7
        )
        assert res.lambda_max == pytest.approx(4.0309835, abs=1e-6)
        assert res.consistency_ratio == pytest.approx(0.0114754, abs=1e-6)

    def test_near_published_weights(self):
        # the published vector rounds a cruder approximation; the true
        # eigenvector sits within 1.5e-3 of it componentwise
        res = ahp_weights(DEFAULT_AHP_MATRIX)
        assert np.max(np.abs(res.w - REPORTED_WEIGHTS)) < 1.5e-3

    def test_eigenpair_residual(self):
        res = ahp_weights(DEFAULT_AHP_MATRIX)
        residual = np.max(np.abs(DEFAULT_AHP_MATRIX @ res.w - res.lambda_max * res.w))
        assert residual <= 1e-8

    def test_consistent_matrix_recovered_exactly(self):
        w = np.array([0.4, 0.3, 0.2, 0.1])
        a = np.outer(w, 1.0 / w)
        res = ahp_weights(a)
        assert np.max(np.abs(res.w - w)) <= 1e-10
        assert abs(res.consistency_ratio) <= 1e-8
        assert res.lambda_max == pytest.approx(4.0, abs=1e-10)

    def test_normalization_invariants(self):
        res = ahp_weights(DEFAULT_AHP_MATRIX)
        assert res.w.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(res.w >= 0)
        assert res.lambda_max >= 4.0

    def test_rejects_non_reciprocal(self):
        bad = DEFAULT_AHP_MATRIX.copy()
        bad[0, 1] = 0.9
        with pytest.raises(NetworkValidationError):
            ahp_weights(bad)

    def test_rejects_non_positive(self):
        bad = DEFAULT_AHP_MATRIX.copy()
        bad[2, 3] = -0.5
        bad[3, 2] = -2.0
        with pytest.raises(NetworkValidationError):
            ahp_weights(bad)

    def test_rejects_non_square(self):
        with pytest.raises(NetworkValidationError):
            ahp_weights(np.ones((3, 4)))


NO_ATTACK = scenario.AttackAction("A0", "no attack", ())
NO_DEFENSE = scenario.DefenseAction("D0", "no action", ())
LSR, CLR, TSS, DRS = range(4)


def plan_of(state):
    return scenario.compile_pair(state, NO_ATTACK, NO_DEFENSE)


def metric(k, state, served, utilized=()):
    """Metric ``k`` of one run and whether its denominator is empty, from a
    serving result set by hand: served kW per bus id, utilised kW per DER."""
    demand = [[b.load_p for b in state.buses]]
    kept = [[served.get(b.id, 0.0) for b in state.buses]]
    result = scenario.ServedLoads(
        demand=np.array(demand), served=np.array(kept),
        der_utilized=np.array([utilized], dtype=float).reshape(1, -1),
        curtailed=np.zeros(1, dtype=bool))
    cards, empty = plan_of(state).metrics(result)
    return float(cards[0, k]), bool(empty[0, k])


def toy_state(loads, critical=(), lines=None, ders=()):
    buses = tuple(
        Bus(i + 1, p, 0.0, is_critical=(i + 1) in critical)
        for i, p in enumerate(loads)
    )
    lines = lines or tuple(
        Line(f"l{i}", i, i + 1, 0.01, 0.01) for i in range(1, len(loads))
    )
    return NetworkState(buses=buses, lines=lines, ders=ders, slack_bus=1)


class TestMetrics:
    def test_lsr_full(self):
        base = toy_state([100.0, 200.0, 300.0])
        assert metric(LSR, base, {1: 100.0, 2: 200.0, 3: 300.0}) == (1.0, False)

    def test_lsr_half(self):
        base = toy_state([2000.0, 2000.0])
        assert metric(LSR, base, {1: 2000.0, 2: 0.0})[0] == pytest.approx(0.5)

    def test_lsr_zero_demand_convention(self):
        base = toy_state([0.0, 0.0])
        assert metric(LSR, base, {1: 0.0, 2: 0.0}) == (1.0, True)

    def test_clr_critical_ratings(self):
        # published critical ratings: 200 + 120 + 1420 + 150 = 1890
        base = toy_state([200.0, 120.0, 1420.0, 150.0], critical=(1, 2, 3, 4))
        part = {1: 0.0, 2: 0.0, 3: 1420.0, 4: 0.0}
        assert metric(CLR, base, part)[0] == pytest.approx(1420.0 / 1890.0)
        full = {1: 200.0, 2: 120.0, 3: 1420.0, 4: 150.0}
        assert metric(CLR, base, full)[0] == pytest.approx(1.0)

    def test_clr_no_critical_convention(self):
        base = toy_state([100.0, 100.0])
        assert metric(CLR, base, {1: 100.0, 2: 100.0}) == (1.0, True)

    def test_drs_ratio(self):
        base = toy_state([100.0, 100.0], ders=(Der("G1", 2, 3080.0, dispatch_fraction=1.0),))
        assert metric(DRS, base, {}, utilized=[1540.0])[0] == pytest.approx(0.5)

    def test_drs_empty_convention(self):
        base = toy_state([100.0, 100.0], ders=(Der("G1", 2, 3080.0, dispatch_fraction=0.0),))
        assert metric(DRS, base, {}, utilized=[0.0]) == (0.0, True)

    def test_tss_pristine(self):
        net = load_ieee33()
        assert plan_of(net).tss == 1.0

    def test_tss_counts_der_islands(self):
        net = load_ieee33()
        cut = net.with_line_status(net.find_line(6, 26).id, "open")
        assert plan_of(cut).tss == 1.0  # DER4 keeps 26..33 alive
        dark = cut
        for d in net.ders:
            dark = dark.with_der(d.id, online=False)
        assert plan_of(dark).tss == pytest.approx(25 / 33)


def loop_sums(a):
    """Each row of ``a`` along its last axis summed by a plain Python loop,
    left to right from its first entry; 0.0 for an empty row."""
    rows = a.reshape(math.prod(a.shape[:-1]), a.shape[-1]).tolist()
    sums = []
    for row in rows:
        total = row[0] if row else 0.0
        for v in row[1:]:
            total += v
        sums.append(total)
    return np.array(sums, dtype=float).reshape(a.shape[:-1])


@settings(max_examples=300, deadline=None)
@given(st.data(), hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4),
       st.integers(0, 40), st.booleans())
def test_property_left_sum_adds_as_a_plain_loop(data, lead, width, in_place):
    # bounded so that no sum of 40 entries overflows; rows past 8 entries are
    # where numpy's pairwise np.sum and a BLAS kernel part from the loop
    a = data.draw(hnp.arrays(np.float64, (*lead, width), elements=st.floats(
        -1e300, 1e300, allow_subnormal=True) | st.floats(-1.0, 1.0)))
    want = loop_sums(a)
    got = left_sum(a, out=a if in_place else None)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestUnifiedScore:
    def reported_weights(self):
        return AhpWeights(
            w=REPORTED_WEIGHTS, lambda_max=4.03, consistency_index=0.01,
            consistency_ratio=0.011,
        )

    def test_worked_example(self):
        card = ResilienceScorecard(lsr=0.8, clr=0.9, tss=0.7, drs=0.6)
        expect = 0.277 * 0.8 + 0.466 * 0.9 + 0.096 * 0.7 + 0.161 * 0.6
        assert expect == pytest.approx(0.8048)
        assert unified_score(card, self.reported_weights()) == pytest.approx(expect)

    def test_extremes(self):
        w = self.reported_weights()
        ones = ResilienceScorecard(1.0, 1.0, 1.0, 1.0)
        zeros = ResilienceScorecard(0.0, 0.0, 0.0, 0.0)
        assert unified_score(ones, w) == pytest.approx(1.0)
        assert unified_score(zeros, w) == 0.0

    @pytest.mark.parametrize("k", [0.25, 0.5, 1.0])
    def test_linearity(self, k):
        w = ahp_weights(DEFAULT_AHP_MATRIX)
        card = ResilienceScorecard(0.9, 0.8, 0.6, 0.5)
        scaled = ResilienceScorecard(0.9 * k, 0.8 * k, 0.6 * k, 0.5 * k)
        assert unified_score(scaled, w) == pytest.approx(k * unified_score(card, w))


@pytest.fixture(scope="module")
def built():
    net = load_ieee33()
    cat = scenario.catalog_default()
    w = ahp_weights(DEFAULT_AHP_MATRIX)
    return resilience.build_payoff_matrix(net, cat, w)


class TestPayoffMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            resilience.PayoffMatrix(entries=np.array([[0.5, bad]]),
                                    attack_ids=("A1",), defense_ids=("D1", "D2"))

    def test_shape_and_bounds(self, built):
        assert built.shape == (10, 10)
        assert np.all(built.entries >= 0.0)
        assert np.all(built.entries <= 1.0)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_permuted_catalog_permutes_matrix(self, built, data):
        # cells are scored independently: reordering the catalog's actions
        # reorders the entries bit for bit, and the flags move with them
        cat = scenario.catalog_default()
        pa = data.draw(st.permutations(range(len(cat.attacks))), label="attacks")
        pd = data.draw(st.permutations(range(len(cat.defenses))), label="defenses")
        permuted = scenario.ScenarioCatalog(
            attacks=tuple(cat.attacks[i] for i in pa),
            defenses=tuple(cat.defenses[j] for j in pd))
        m = resilience.build_payoff_matrix(load_ieee33(), permuted,
                                           ahp_weights(DEFAULT_AHP_MATRIX))
        assert m.attack_ids == tuple(built.attack_ids[i] for i in pa)
        assert m.defense_ids == tuple(built.defense_ids[j] for j in pd)
        assert np.array_equal(m.entries, built.entries[np.ix_(pa, pd)])
        assert m.cell_flags == {
            (i, j): built.cell_flags[a, d]
            for i, a in enumerate(pa) for j, d in enumerate(pd)
            if (a, d) in built.cell_flags}

    @pytest.mark.parametrize("seed", range(6))
    def test_shuffled_network_document_keeps_the_matrix(self, built, seed, tmp_path):
        # the order of the document's lists is no part of the network: the
        # sums run in another order, so entries may move in the last bit
        rng = random.Random(seed)

        def shuffled(node):
            if isinstance(node, dict):
                return {k: shuffled(v) for k, v in node.items()}
            if isinstance(node, list):
                return rng.sample([shuffled(v) for v in node], len(node))
            return node

        doc = json.loads(resources.files("gridgame.data").joinpath("ieee33.json").read_text())
        path = tmp_path / "net.json"
        path.write_text(json.dumps(shuffled(doc)))
        net, cat = load_network(path), scenario.catalog_default()
        w = ahp_weights(DEFAULT_AHP_MATRIX)
        m = resilience.build_payoff_matrix(net, cat, w)
        assert np.abs(m.entries - built.entries).max() <= 1e-12
        assert m.cell_flags == built.cell_flags
        nominal = resilience.nominal_payoff(scenario.compile_catalog(net, cat), cat, w)
        assert np.array_equal(nominal.entries, m.entries)

    def test_deterministic_rebuild(self, built):
        net = load_ieee33()
        cat = scenario.catalog_default()
        w = ahp_weights(DEFAULT_AHP_MATRIX)
        again = resilience.build_payoff_matrix(net, cat, w)
        assert np.array_equal(built.entries, again.entries)

    def test_bundled_build_counts(self, monkeypatch):
        # the work of one build, counted where evaluate_pair looks its
        # helpers up: 100 cells, 100 pre-attack and 100 post-defense flows,
        # and 63 curtailment re-solves; 39 cells carry a flag
        calls = {"evaluate_pair": 0, "power_flow": 0}

        def counted(name):
            inner = getattr(scenario, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(scenario, name, counted(name))
        m = resilience.build_payoff_matrix(
            load_ieee33(), scenario.catalog_default(), ahp_weights(DEFAULT_AHP_MATRIX))
        assert calls == {"evaluate_pair": 100, "power_flow": 263}
        assert len(m.cell_flags) == 39

    def test_one_branch_scan_per_connectivity_pass(self, monkeypatch):
        # each state labels its branch arrays once, a derivation that moves no
        # island shares its parent's labels, and the cells of a row share
        # their attacked state
        calls = {"scans": 0, "passes": 0, "questions": 0}
        scan, connectivity = topology._connectivity, topology.connectivity

        def counted_scan(state):
            calls["scans"] += 1
            return scan(state)

        def counted_pass(state):
            calls["questions"] += 1
            calls["passes"] += state._topology is None
            return connectivity(state)

        monkeypatch.setattr(topology, "_connectivity", counted_scan)
        monkeypatch.setattr(topology, "connectivity", counted_pass)
        net, cat = load_ieee33(), scenario.catalog_default()
        assert calls == {"scans": 1, "passes": 1, "questions": 1}
        resilience.build_payoff_matrix(net, cat, ahp_weights(DEFAULT_AHP_MATRIX))
        # 85 passes; the questions: the radiality check of each of the 263
        # flows, two per cell (its radiality check and its plan), one per row
        # (the base's check) and 75 close_switch loop tests
        assert calls == {"scans": 1 + 85, "passes": 1 + 85,
                         "questions": 1 + 263 + 2 * 100 + 10 + 75}
        scenario.compile_catalog(net, cat)
        assert calls == {"scans": 1 + 85 + 85, "passes": 1 + 85 + 85,
                         "questions": 1 + 548 + 2 * 100 + 10 + 75}

    def test_cell_error_names_the_cell(self):
        cat = scenario.catalog_default()
        bad = scenario.DefenseAction("DX", "close a missing tie", (
            scenario.Effect("close_switch", "SW9"),))
        small = scenario.ScenarioCatalog(
            attacks=(cat.attack("A2"),), defenses=(cat.defense("D1"), bad))
        with pytest.raises(CatalogError, match=r"^payoff cell \(A2,DX\): DX: no tie switch"):
            resilience.build_payoff_matrix(load_ieee33(), small, ahp_weights(DEFAULT_AHP_MATRIX))
        with pytest.raises(CatalogError, match=r"^payoff cell \(A2,DX\): DX: no tie switch"):
            scenario.compile_catalog(load_ieee33(), small)

    @pytest.mark.parametrize("build", ["payoff", "plan-table"])
    def test_shared_row_errors_name_their_cell(self, build, monkeypatch):
        # a row applies its attack once, in its first cell, so an attack's
        # error names (attack, first defense); a defense's error, and a loop
        # that a defense leaves, name their own cell, in catalog order
        cat = scenario.catalog_default()
        bad_attack = scenario.AttackAction("AX", "trip a missing line", (
            scenario.Effect("trip_line", "1-33"),))
        bad_defense = scenario.DefenseAction("DX", "close a missing tie", (
            scenario.Effect("close_switch", "SW9"),))
        net = load_ieee33()
        looped = net.with_line_status("SW1", CLOSED)
        # a dead island that holds a loop, which closing SW energizes
        dead_loop = NetworkState(
            buses=tuple(Bus(i, 10.0, 5.0) for i in range(1, 7)),
            lines=tuple(Line(f"L{a}-{b}", a, b, 0.1, 0.1)
                        for a, b in ((1, 2), (2, 3), (4, 5), (5, 6), (6, 4))),
            switches=(Line("SW", 3, 4, 0.1, 0.1, OPEN),))
        no_attack = scenario.AttackAction("A0", "none", ())
        join = scenario.DefenseAction("DZ", "close SW", (scenario.Effect("close_switch", "SW"),))
        join_again = scenario.DefenseAction("DW", "close SW", join.effects)
        w = ahp_weights(DEFAULT_AHP_MATRIX)

        def run(base, attacks, defenses):
            small = scenario.ScenarioCatalog(attacks=attacks, defenses=defenses)
            if build == "payoff":
                return resilience.build_payoff_matrix(base, small, w)
            return scenario.compile_catalog(base, small)

        d1, d4 = cat.defense("D1"), cat.defense("D4")
        applied = []
        real = scenario.apply_attack
        monkeypatch.setattr(scenario, "apply_attack", lambda s, a: applied.append(a.id)
                            or real(s, a))
        run(net, (cat.attack("A2"), cat.attack("A6")), (d1, d4, cat.defense("D7")))
        assert applied == ["A2", "A6"]
        cases = [
            (net, (cat.attack("A2"), bad_attack), (d1, d4), CatalogError,
             r"\(AX,D1\): AX: no line"),
            (net, (cat.attack("A2"),), (d1, bad_defense, d4), CatalogError,
             r"\(A2,DX\): DX: no tie switch"),
            (looped, (bad_attack,), (d1,), RadialityError, r"\(AX,D1\): island with"),
            (dead_loop, (no_attack,), (join, join_again), RadialityError,
             r"\(A0,DZ\): island with 6 buses has 6"),
        ]
        for base, attacks, defenses, error, match in cases:
            with pytest.raises(error, match=r"^payoff cell " + match):
                run(base, attacks, defenses)

    @pytest.mark.parametrize("feeder", ["bundled", "synthetic-118"])
    def test_plan_table_scores_the_flagged_entries(self, feeder):
        # the matrix every command but payoff uses equals payoff's bit for bit
        from gridgame.experiments import _probe_catalog, synthetic_feeder

        if feeder == "bundled":
            net, cat = load_ieee33(), scenario.catalog_default()
        else:
            net = synthetic_feeder(118, 2)
            cat = _probe_catalog(net)
        w = ahp_weights(DEFAULT_AHP_MATRIX)
        plans = scenario.compile_catalog(net, cat)
        assert [len(row) for row in plans] == [len(cat.defenses)] * len(cat.attacks)
        flagged = resilience.build_payoff_matrix(net, cat, w)
        nominal = resilience.nominal_payoff(plans, cat, w)
        assert np.array_equal(nominal.entries, flagged.entries)
        assert (nominal.attack_ids, nominal.defense_ids) == (flagged.attack_ids,
                                                             flagged.defense_ids)
        assert nominal.cell_flags == {}

    def test_single_cell_catalog(self):
        net = load_ieee33()
        cat = scenario.catalog_default()
        small = scenario.ScenarioCatalog(
            attacks=(cat.attack("A3"),), defenses=(cat.defense("D1"),))
        w = ahp_weights(DEFAULT_AHP_MATRIX)
        m = resilience.build_payoff_matrix(net, small, w)
        card = scenario.evaluate_pair(net, cat.attack("A3"), cat.defense("D1"))
        assert m.entries[0, 0] == pytest.approx(unified_score(card, w))

    def test_csv_round_trip(self, built, tmp_path):
        path = tmp_path / "payoff.csv"
        built.to_csv(path)
        back = PayoffMatrix.from_csv(path)
        assert back.attack_ids == built.attack_ids
        assert back.defense_ids == built.defense_ids
        assert np.allclose(back.entries, built.entries, atol=1e-10)

    def test_long_csv_has_all_cells(self, built, tmp_path, monkeypatch):
        # the CLI writes payoff_long.csv from the matrix it builds
        monkeypatch.setattr(cli, "build_payoff_matrix", lambda *args: built)
        assert cli.main(["payoff", "--out", str(tmp_path)]) == 0
        with open(tmp_path / "payoff_long.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 100
        assert rows[0] == ["attack", "defense", "score"]
        assert [float(r[2]) for r in rows[1:]] == pytest.approx(
            built.entries.ravel().tolist(), abs=1e-12)

    def test_flags_csv_in_catalog_order(self, tmp_path, monkeypatch):
        # ids that sort differently from the catalog, flags inserted unsorted
        matrix = PayoffMatrix(
            entries=np.zeros((2, 2)), attack_ids=("A10", "A2"), defense_ids=("D2", "D1"),
            cell_flags={(1, 0): frozenset({"undervoltage", "non-convergence"}),
                        (0, 1): frozenset({"empty-denominator"})})
        monkeypatch.setattr(cli, "build_payoff_matrix", lambda *args: matrix)
        assert cli.main(["payoff", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "payoff_flags.csv").read_bytes().split(b"\r\n") == [
            b"attack,defense,flag", b"A10,D1,empty-denominator",
            b"A2,D2,non-convergence", b"A2,D2,undervoltage", b""]
