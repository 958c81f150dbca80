"""Metric, AHP, and payoff-matrix tests.

The AHP oracle is numpy's general eigensolver; the package must agree with
it even though it only ever runs power iteration.
"""

import numpy as np
import pytest

from gridgame import resilience, scenario
from gridgame.errors import CatalogError, NetworkValidationError
from gridgame.netmodel import Bus, Der, Line, NetworkState, ServedLoadReport, load_ieee33
from gridgame.resilience import (
    DEFAULT_AHP_MATRIX,
    AhpWeights,
    PayoffMatrix,
    ResilienceScorecard,
    ahp_weights,
    clr,
    drs,
    lsr,
    tss,
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


def report(served, base, utilized=None, available=None):
    return ServedLoadReport(
        served_p=served,
        served_q={b: 0.0 for b in served},
        der_utilized=utilized or {},
        der_available=available or {},
        connected_buses=frozenset(served),
    )


def toy_state(loads, critical=(), lines=None):
    buses = tuple(
        Bus(i + 1, p, 0.0, is_critical=(i + 1) in critical)
        for i, p in enumerate(loads)
    )
    lines = lines or tuple(
        Line(f"l{i}", i, i + 1, 0.01, 0.01) for i in range(1, len(loads))
    )
    return NetworkState(buses=buses, lines=lines, slack_bus=1)


class TestMetrics:
    def test_lsr_full(self):
        base = toy_state([100.0, 200.0, 300.0])
        rep = report({1: 100.0, 2: 200.0, 3: 300.0}, base)
        assert lsr(rep, base) == (1.0, frozenset())

    def test_lsr_half(self):
        base = toy_state([2000.0, 2000.0])
        rep = report({1: 2000.0, 2: 0.0}, base)
        assert lsr(rep, base)[0] == pytest.approx(0.5)

    def test_lsr_zero_demand_convention(self):
        base = toy_state([0.0, 0.0])
        val, flags = lsr(report({1: 0.0, 2: 0.0}, base), base)
        assert val == 1.0
        assert resilience.FLAG_EMPTY_DENOMINATOR in flags

    def test_clr_critical_ratings(self):
        # published critical ratings: 200 + 120 + 1420 + 150 = 1890
        base = toy_state([200.0, 120.0, 1420.0, 150.0], critical=(1, 2, 3, 4))
        rep = report({1: 0.0, 2: 0.0, 3: 1420.0, 4: 0.0}, base)
        assert clr(rep, base)[0] == pytest.approx(1420.0 / 1890.0)
        full = report({1: 200.0, 2: 120.0, 3: 1420.0, 4: 150.0}, base)
        assert clr(full, base)[0] == pytest.approx(1.0)

    def test_clr_no_critical_convention(self):
        base = toy_state([100.0, 100.0])
        val, flags = clr(report({1: 100.0, 2: 100.0}, base), base)
        assert val == 1.0
        assert resilience.FLAG_EMPTY_DENOMINATOR in flags

    def test_drs_ratio(self):
        rep = report({}, None, utilized={"G1": 1540.0}, available={"G1": 3080.0})
        assert drs(rep)[0] == pytest.approx(0.5)

    def test_drs_empty_convention(self):
        rep = report({}, None, utilized={}, available={"G1": 0.0})
        val, flags = drs(rep)
        assert val == 0.0
        assert resilience.FLAG_EMPTY_DENOMINATOR in flags

    def test_tss_pristine(self):
        net = load_ieee33()
        assert tss(net) == 1.0

    def test_tss_counts_der_islands(self):
        net = load_ieee33()
        cut = net.with_line_status(net.find_line(6, 26).id, "open")
        assert tss(cut) == 1.0  # DER4 keeps 26..33 alive
        dark = cut
        for d in net.ders:
            dark = dark.with_der(d.id, online=False)
        assert tss(dark) == pytest.approx(25 / 33)


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

    def test_cell_error_names_the_cell(self):
        cat = scenario.catalog_default()
        bad = scenario.DefenseAction("DX", "close a missing tie", (
            scenario.Effect("close_switch", "SW9"),))
        small = scenario.ScenarioCatalog(
            attacks=(cat.attack("A2"),), defenses=(cat.defense("D1"), bad))
        with pytest.raises(CatalogError, match=r"^payoff cell \(A2,DX\): DX: no tie switch"):
            resilience.build_payoff_matrix(load_ieee33(), small, ahp_weights(DEFAULT_AHP_MATRIX))

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

    def test_long_csv_has_all_cells(self, built, tmp_path):
        path = tmp_path / "long.csv"
        built.to_long_csv(path)
        rows = path.read_text().strip().splitlines()
        assert len(rows) == 1 + 100
        assert rows[0] == "attack,defense,score"

    def test_flags_csv_in_catalog_order(self, tmp_path):
        # ids that sort differently from the catalog, flags inserted unsorted
        matrix = PayoffMatrix(
            entries=np.zeros((2, 2)), attack_ids=("A10", "A2"), defense_ids=("D2", "D1"),
            cell_flags={(1, 0): frozenset({"undervoltage", "non-convergence"}),
                        (0, 1): frozenset({"empty-denominator"})})
        path = tmp_path / "flags.csv"
        matrix.to_flags_csv(path)
        assert path.read_text().splitlines() == [
            "attack,defense,flag", "A10,D1,empty-denominator",
            "A2,D2,non-convergence", "A2,D2,undervoltage"]
