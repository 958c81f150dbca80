"""Game solver tests.

nash_exact is checked three independent ways: a fine-grid brute force over
the defender simplex, scipy's linprog on the same LP, and the minimax
sandwich. The in-package simplex never sees scipy.
"""

import json

import numpy as np
import pytest
from scipy.optimize import linprog

from gridgame import gamesolve as gs
from gridgame.errors import SolverError
from gridgame.gamesolve import (
    EquilibriumReport,
    MixedStrategy,
    best_response,
    nash_exact,
    nash_fictitious_play,
    qre_fixed_point,
    regret_matching,
    softmax_response,
    stackelberg,
    verify_epsilon_equilibrium,
)

PENNIES = np.array([[1.0, -1.0], [-1.0, 1.0]])
RPS = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])


def linprog_value(m):
    """Zero-sum value via scipy: max v s.t. (M pd)_i >= v, sum pd = 1."""
    rows, cols = m.shape
    # variables: pd (cols) then v; minimize -v
    c = np.zeros(cols + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-m, np.ones((rows, 1))])
    b_ub = np.zeros(rows)
    a_eq = np.zeros((1, cols + 1))
    a_eq[0, :cols] = 1.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * cols + [(None, None)])
    assert res.success
    return -res.fun


def grid_value(m, step=1e-3):
    """Brute force over the defender simplex; exact min inside."""
    assert m.shape[1] == 3
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    best = -np.inf
    for p1 in ticks:
        p2 = np.arange(0.0, 1.0 - p1 + step / 2, step)
        p3 = 1.0 - p1 - p2
        pd = np.stack([np.full_like(p2, p1), p2, p3], axis=0)
        vals = (m @ pd).min(axis=0)
        best = max(best, vals.max())
    return best


class TestBestResponse:
    def test_attacker_scan(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0]])
        idx, val = best_response(m, MixedStrategy(np.array([1.0, 0.0])), "attacker")
        assert (idx, val) == (1, 0.0)

    def test_defender_tie_breaks_low(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0]])
        idx, val = best_response(m, MixedStrategy(np.array([0.5, 0.5])), "defender")
        assert idx == 0
        assert val == pytest.approx(0.5)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_exhaustive_scan(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.random((5, 5))
        pd = rng.dirichlet(np.ones(5))
        pa = rng.dirichlet(np.ones(5))
        idx, val = best_response(m, pd, "attacker")
        scan = [float(m[i] @ pd) for i in range(5)]
        assert val == pytest.approx(min(scan))
        assert idx == scan.index(min(scan))
        jdx, jval = best_response(m, pa, "defender")
        scan = [float(pa @ m[:, j]) for j in range(5)]
        assert jval == pytest.approx(max(scan))
        assert jdx == scan.index(max(scan))

    def test_dimension_mismatch(self):
        with pytest.raises(SolverError):
            best_response(np.ones((3, 4)), MixedStrategy(np.ones(3) / 3), "attacker")


class TestNashExact:
    def test_singleton(self):
        r = nash_exact(np.array([[0.7323]]))
        assert r.game_value == pytest.approx(0.7323)
        assert r.attacker.probs[0] == 1.0
        assert r.defender.probs[0] == 1.0

    def test_matching_pennies(self):
        r = nash_exact(PENNIES)
        assert r.game_value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(r.attacker.probs, [0.5, 0.5])
        assert np.allclose(r.defender.probs, [0.5, 0.5])

    @pytest.mark.parametrize("seed", range(10))
    def test_3x3_against_grid_oracle(self, seed):
        rng = np.random.default_rng(1000 + seed)
        m = rng.random((3, 3))
        exact = nash_exact(m).game_value
        grid = grid_value(m)
        # the grid can only undershoot, and at 1e-3 spacing it undershoots
        # by at most the simplex diameter times the entry range
        assert grid <= exact + 1e-9
        assert exact - grid <= 2e-3

    @pytest.mark.parametrize("seed", range(20))
    def test_against_linprog(self, seed):
        rng = np.random.default_rng(2000 + seed)
        m = rng.random((rng.integers(2, 11), rng.integers(2, 11)))
        assert nash_exact(m).game_value == pytest.approx(linprog_value(m), abs=1e-8)

    @pytest.mark.parametrize("seed", range(20))
    def test_epsilon_and_sandwich(self, seed):
        rng = np.random.default_rng(3000 + seed)
        m = rng.random((rng.integers(1, 11), rng.integers(1, 11)))
        r = nash_exact(m)
        assert r.epsilon <= 1e-7
        assert m.min(axis=0).max() <= r.game_value + 1e-9
        assert r.game_value <= m.max(axis=1).min() + 1e-9

    def test_shift_invariance(self):
        rng = np.random.default_rng(99)
        m = rng.random((6, 6))
        base = nash_exact(m).game_value
        shifted = nash_exact(m + 3.7).game_value
        assert shifted == pytest.approx(base + 3.7, abs=1e-9)

    def test_simplex_mixes_are_valid(self):
        rng = np.random.default_rng(5)
        m = rng.random((8, 8))
        r = nash_exact(m)
        for mix in (r.attacker.probs, r.defender.probs):
            assert abs(mix.sum() - 1.0) <= 1e-9
            assert np.all(mix >= -1e-12)


class TestFictitiousPlay:
    def test_matching_pennies_uniform(self):
        r = nash_fictitious_play(PENNIES, max_iters=100_000)
        assert np.allclose(r.attacker.probs, [0.5, 0.5], atol=0.02)
        assert np.allclose(r.defender.probs, [0.5, 0.5], atol=0.02)
        assert abs(r.game_value) <= 0.02

    def test_dominant_column(self):
        m = np.array([[0.9, 0.2], [0.8, 0.1]])  # column 1 dominates for defender
        r = nash_fictitious_play(m, max_iters=10_000, tol=1e-6)
        assert r.defender.probs[0] >= 0.999
        # empirical averages decay O(1/t): one early off-row action leaves
        # ~1e-5 of epsilon at t=1e4, so 1e-6 is not reachable here
        assert r.epsilon <= 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_value_close_to_exact(self, seed):
        rng = np.random.default_rng(4000 + seed)
        m = rng.random((10, 10))
        fp = nash_fictitious_play(m, max_iters=100_000, tol=1e-4)
        assert fp.game_value == pytest.approx(nash_exact(m).game_value, abs=1e-2)

    def test_reported_epsilon_is_honest(self):
        r = nash_fictitious_play(PENNIES, max_iters=500)
        recomputed = verify_epsilon_equilibrium(PENNIES, r.attacker, r.defender)
        assert r.epsilon == pytest.approx(recomputed, abs=1e-9)


class TestStackelberg:
    def test_hand_example(self):
        j, level, i = stackelberg(np.array([[0.9, 0.2], [0.1, 0.8]]))
        assert (j, i) == (1, 0)
        assert level == pytest.approx(0.2)

    def test_constant_matrix_tie_break(self):
        j, level, i = stackelberg(np.full((4, 4), 0.42))
        assert (j, i) == (0, 0)
        assert level == pytest.approx(0.42)

    @pytest.mark.parametrize("seed", range(10))
    def test_sandwich(self, seed):
        rng = np.random.default_rng(5000 + seed)
        m = rng.random((7, 7))
        _, level, _ = stackelberg(m)
        value = nash_exact(m).game_value
        assert level <= value + 1e-9
        assert value <= m.max(axis=1).min() + 1e-9


class TestRegretMatching:
    def test_rps_converges_to_uniform(self):
        r = regret_matching(RPS, T=100_000, seed=11)
        assert np.allclose(r.attacker.probs, 1 / 3, atol=0.05)
        assert np.allclose(r.defender.probs, 1 / 3, atol=0.05)

    def test_dominant_column_mass(self):
        m = np.array([[0.9, 0.2], [0.8, 0.1]])
        r = regret_matching(m, T=10_000, seed=3)
        assert r.defender.probs[0] >= 0.95

    def test_regret_decays(self):
        rng = np.random.default_rng(8)
        ratios = []
        for seed in range(8):
            m = rng.random((10, 10))
            r = regret_matching(m, T=10_000, seed=seed)
            by_iter = {int(row[0]): row for row in r.trajectory}
            early = max(by_iter[1000][1], by_iter[1000][2])
            late = max(by_iter[10_000][1], by_iter[10_000][2])
            ratios.append(late / early if early > 0 else 0.0)
        assert np.median(ratios) <= 0.5

    def test_deterministic_given_seed(self):
        a = regret_matching(RPS, T=5_000, seed=42)
        b = regret_matching(RPS, T=5_000, seed=42)
        assert np.array_equal(a.attacker.probs, b.attacker.probs)
        assert a.trajectory == b.trajectory

    def test_trajectory_csv(self, tmp_path):
        r = regret_matching(RPS, T=2_000, seed=1)
        path = tmp_path / "traj.csv"
        r.trajectory_to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,avg_regret_attacker,avg_regret_defender,value"
        assert len(lines) == 1 + len(r.trajectory)


class TestSoftmax:
    def test_beta_zero_uniform(self):
        rng = np.random.default_rng(0)
        m = rng.random((7, 4))
        mix = softmax_response(m, MixedStrategy.uniform(4), 0.0, "attacker")
        assert np.array_equal(mix.probs, np.full(7, 1 / 7))

    def test_huge_beta_is_best_response(self):
        rng = np.random.default_rng(1)
        m = rng.random((6, 6))
        pd = MixedStrategy.uniform(6)
        mix = softmax_response(m, pd, 1e6, "attacker")
        idx, _ = best_response(m, pd, "attacker")
        assert mix.probs[idx] >= 1 - 1e-6

    def test_symmetric_payoffs_stay_uniform(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0]])
        mix = softmax_response(m, MixedStrategy.uniform(2), 3.5, "attacker")
        assert np.allclose(mix.probs, [0.5, 0.5])

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        m = rng.random((5, 5))
        pd = MixedStrategy(rng.dirichlet(np.ones(5)))
        a = softmax_response(m, pd, 2.0, "defender" ).probs
        b = softmax_response(m + 11.0, pd, 2.0, "defender").probs
        assert np.allclose(a, b, atol=1e-12)


class TestQre:
    def test_beta_zero_one_step(self):
        res = qre_fixed_point(PENNIES, 0.0, 0.0, damping=1.0)
        assert np.allclose(res.attacker.probs, [0.5, 0.5])
        assert np.allclose(res.defender.probs, [0.5, 0.5])
        assert res.converged

    def test_pennies_uniform_fixed_point(self):
        res = qre_fixed_point(PENNIES, 4.0, 4.0)
        assert np.allclose(res.attacker.probs, [0.5, 0.5], atol=1e-9)
        assert res.residual <= 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_residual_post_hoc(self, seed):
        rng = np.random.default_rng(6000 + seed)
        m = rng.random((2, 2))
        res = qre_fixed_point(m, 2.0, 2.0)
        assert res.converged
        assert res.residual <= 1e-8

    def test_bad_damping_rejected(self):
        with pytest.raises(SolverError):
            qre_fixed_point(PENNIES, 1.0, 1.0, damping=0.0)

    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_bad_beta_rejected(self, beta):
        with pytest.raises(SolverError, match="beta"):
            softmax_response(PENNIES, MixedStrategy.uniform(2), beta, "attacker")
        with pytest.raises(SolverError, match="beta"):
            qre_fixed_point(PENNIES, beta, 1.0)
        with pytest.raises(SolverError, match="beta"):
            qre_fixed_point(PENNIES, 1.0, beta)


class TestVerifier:
    def test_saddle_point(self):
        eps = verify_epsilon_equilibrium(
            np.array([[0.5]]), MixedStrategy.pure(1, 0), MixedStrategy.pure(1, 0))
        assert eps == 0.0

    def test_pennies_uniform(self):
        eps = verify_epsilon_equilibrium(
            PENNIES, MixedStrategy.uniform(2), MixedStrategy.uniform(2))
        assert eps == pytest.approx(0.0, abs=1e-12)

    def test_disequilibrium_positive(self):
        eps = verify_epsilon_equilibrium(
            PENNIES, MixedStrategy.pure(2, 0), MixedStrategy.pure(2, 0))
        assert eps == pytest.approx(2.0)


class TestReportPlumbing:
    def test_json_fields(self, tmp_path):
        r = nash_exact(PENNIES)
        path = tmp_path / "eq.json"
        obj = r.to_json(path)
        again = json.loads(path.read_text())
        assert again == obj
        assert set(obj) == {
            "method", "value", "epsilon", "attacker_probs", "defender_probs",
            "iterations",
        }

    def test_value_consistency_invariant(self):
        r = nash_exact(RPS)
        recomputed = float(r.attacker.probs @ RPS @ r.defender.probs)
        assert r.game_value == pytest.approx(recomputed, abs=1e-9)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("solver", [
        nash_exact,
        stackelberg,
        lambda m: nash_fictitious_play(m, max_iters=10),
        lambda m: regret_matching(m, T=10, seed=0),
        lambda m: qre_fixed_point(m, 1.0, 1.0),
    ], ids=["nash", "stackelberg", "fp", "regret", "qre"])
    def test_non_finite_matrix_rejected(self, solver, bad):
        m = np.array([[0.5, bad], [0.2, 0.3]])
        with pytest.raises(SolverError, match="non-finite"):
            solver(m)

    def test_mixed_strategy_validation(self):
        with pytest.raises(SolverError):
            MixedStrategy(np.array([0.6, 0.6]))
        with pytest.raises(SolverError):
            MixedStrategy(np.array([-0.1, 1.1]))
