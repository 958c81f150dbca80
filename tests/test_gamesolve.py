"""Game solver tests.

nash_exact is checked three independent ways: a fine-grid brute force over
the defender simplex, scipy's linprog on the same LP, and the minimax
sandwich. The in-package simplex never sees scipy.
"""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from gridgame import cli
from gridgame import gamesolve as gs
from gridgame.errors import ConfigError, SolverError
from gridgame.experiments import DefensePolicy
from gridgame.gamesolve import (
    EquilibriumReport,
    MixedStrategy,
    best_response,
    draw_bounds,
    nash_exact,
    nash_fictitious_play,
    qre_fixed_point,
    regret_matching,
    softmax_response,
    stackelberg,
    verify_epsilon_equilibrium,
)
from gridgame.marl import StageMdp
from gridgame.resilience import PayoffMatrix

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


@pytest.fixture(scope="module")
def bundled_csv_matrix(tmp_path_factory):
    """The bundled payoff matrix as ``payoff`` writes it, read back."""
    out = tmp_path_factory.mktemp("payoff")
    assert cli.main(["payoff", "--out", str(out)]) == 0
    return PayoffMatrix.from_csv(out / "payoff.csv")


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

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["uniform", "tied", "rank-one"]),
           rows=st.integers(1, 12), cols=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_property_against_linprog(self, kind, rows, cols, seed):
        # tied and rank-one games are degenerate LPs: many optimal mixes and
        # ties in the ratio test, but one value
        m = rm_game(kind, rows, cols, seed)
        r = nash_exact(m)
        assert r.game_value == pytest.approx(linprog_value(m), abs=1e-8)
        assert r.epsilon <= 1e-7

    # one cell of the bundled payoff.csv (12 significant digits) set to a new
    # value: each once took a degenerate pivot of about 1e-12 and failed the
    # solver's own verification
    @pytest.mark.parametrize("row, col, value", [
        (0, 0, 0.5), (0, 2, 0.268), (2, 6, 0.151), (6, 3, 0.291), (7, 2, -0.275),
        (1, 1, -0.135), (7, 9, 0.108), (1, 4, 0.268)])
    def test_edited_bundled_matrix_against_linprog(self, bundled_csv_matrix, row, col, value):
        m = bundled_csv_matrix.entries.copy()
        m[row, col] = value
        r = nash_exact(m)
        assert r.epsilon <= 1e-7
        assert r.game_value == pytest.approx(linprog_value(m), abs=1e-8)

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


class TestDrawBounds:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.one_of(st.just(-1e-12), st.floats(0.0, 1.0)),
                             min_size=4, max_size=4), min_size=1, max_size=3))
    def test_bisection_is_a_linear_scan(self, rows):
        # u at, just below and just above every partial sum, where a dip of
        # the sums would send a bisection of the raw sums astray
        cdf = np.cumsum(rows, axis=1)
        bounds = draw_bounds(cdf)
        for row, row_bounds in zip(cdf, bounds):
            for u in np.r_[0.0, row, np.nextafter(row, -1.0), np.nextafter(row, 2.0)]:
                scan = next((k for k, c in enumerate(row) if u < c), len(row) - 1)
                assert np.searchsorted(row_bounds, u, side="right") == scan


class TestFictitiousPlay:
    def test_bad_max_iters_rejected(self):
        with pytest.raises(ConfigError, match="max_iters must be at least 1, got 0"):
            nash_fictitious_play(PENNIES, max_iters=0)

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

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(["uniform", "tied", "rank-one"]),
           rows=st.integers(1, 12), cols=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1), max_iters=st.integers(1, 3000),
           tol=st.sampled_from([0.0, 1e-3, 1e-2, 5e-2]))
    def test_property_stops_at_tol(self, kind, rows, cols, seed, max_iters, tol):
        m = rm_game(kind, rows, cols, seed)
        r = nash_fictitious_play(m, max_iters=max_iters, tol=tol)
        assert 1 <= r.iterations <= max_iters
        # an early stop happens at a check, every 100 steps, and only once
        # the verifier that fills r.epsilon reads tol or less
        if r.iterations < max_iters:
            assert r.iterations % 100 == 0
            assert r.epsilon <= tol


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


def rm_game(kind, rows, cols, seed):
    """Payoffs in [-1, 1]: uniform, tied (three levels) or rank one."""
    rng = np.random.default_rng(seed)
    if kind == "tied":
        return rng.integers(0, 3, (rows, cols)) - 1.0
    if kind == "rank-one":
        return np.outer(rng.random(rows) * 2 - 1, rng.random(cols) * 2 - 1)
    return rng.random((rows, cols)) * 2 - 1


class TestRegretMatching:
    def test_bad_T_rejected(self):
        with pytest.raises(ConfigError, match="T must be at least 1, got 0"):
            regret_matching(PENNIES, T=0)

    def test_rps_converges_to_uniform(self):
        r = regret_matching(RPS, T=100_000)
        assert r.epsilon <= 1e-4
        assert np.allclose(r.attacker.probs, 1 / 3, atol=1e-3)
        assert np.allclose(r.defender.probs, 1 / 3, atol=1e-3)

    def test_dominant_column_mass(self):
        m = np.array([[0.9, 0.2], [0.8, 0.1]])
        r = regret_matching(m, T=10_000)
        assert r.defender.probs[0] >= 0.95

    def test_regret_decays(self):
        rng = np.random.default_rng(8)
        ratios = []
        for _ in range(8):
            m = rng.random((10, 10))
            # tol=0 runs all 10 000 steps, so rows 1 000 and 10 000 exist
            r = regret_matching(m, T=10_000, tol=0.0)
            by_iter = {int(row[0]): row for row in r.trajectory}
            early = max(by_iter[1000][1], by_iter[1000][2])
            late = max(by_iter[10_000][1], by_iter[10_000][2])
            ratios.append(late / early if early > 0 else 0.0)
        assert np.median(ratios) <= 0.5

    def test_rerun_is_identical(self):
        a = regret_matching(RPS, T=5_000)
        b = regret_matching(RPS, T=5_000)
        assert np.array_equal(a.attacker.probs, b.attacker.probs)
        assert np.array_equal(a.defender.probs, b.defender.probs)
        assert (a.iterations, a.epsilon) == (b.iterations, b.epsilon)
        assert a.trajectory == b.trajectory

    def test_stops_at_tol_and_reports_steps_run(self):
        m = np.random.default_rng(2).random((6, 9))
        r = regret_matching(m, T=100_000, tol=1e-4)
        assert 100 < r.iterations < 100_000
        assert r.iterations % 10 == 0
        assert r.epsilon <= 1e-4
        assert r.trajectory[-1][0] == r.iterations
        # stride 100: rows at 100, 200, ... and one at the stop
        assert [row[0] for row in r.trajectory[:-1]] == list(
            range(100, r.iterations, 100))

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(["uniform", "tied", "rank-one"]),
           rows=st.integers(1, 12), cols=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1), T=st.integers(1, 1500),
           tol=st.sampled_from([0.0, 1e-3, 1e-2]))
    def test_property_stops_at_tol_within_the_rate(self, kind, rows, cols, seed, T, tol):
        m = rm_game(kind, rows, cols, seed)
        r = regret_matching(m, T=T, tol=tol)
        # the stop rule: tol reached, or the cap; the kernel stops on the
        # verifier that fills r.epsilon, so no slack is needed
        assert r.epsilon <= tol or r.iterations == T
        assert 1 <= r.iterations <= T
        # the RM+ rate: the t-weighted average is within the sum of the two
        # sides' weighted regrets, each at most 2 * range * sqrt(k / t)
        spread = m.max() - m.min()
        bound = 2 * spread * (np.sqrt(rows) + np.sqrt(cols)) / np.sqrt(r.iterations)
        assert r.epsilon <= bound + 1e-12

    def test_trajectory_csv(self, tmp_path):
        m = np.random.default_rng(3).random((4, 5))
        r = regret_matching(m, T=2_000, tol=0.0)
        assert len(r.trajectory) == 1000
        assert all(len(row) == 4 for row in r.trajectory)
        # the CLI writes the trajectory its solve returns, one row per line
        path = tmp_path / "m.csv"
        PayoffMatrix(entries=m, attack_ids=("A1", "A2", "A3", "A4"),
                     defense_ids=("D1", "D2", "D3", "D4", "D5")).to_csv(path)
        r = regret_matching(PayoffMatrix.from_csv(path).entries, T=2_000)
        assert cli.main(["solve", "--method", "regret", "--iters", "2000",
                         "--matrix", str(path), "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "trajectory.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "avg_regret_attacker", "avg_regret_defender",
                           "value"]
        assert len(rows) == 1 + len(r.trajectory)
        assert np.allclose(np.array(rows[1:], dtype=float), np.array(r.trajectory),
                           rtol=1e-11, atol=0.0)


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
        res = qre_fixed_point(PENNIES, 0.0, 0.0)
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

    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), -float("inf"), -1.0])
    def test_bad_beta_rejected(self, beta):
        with pytest.raises(ConfigError, match="beta"):
            softmax_response(PENNIES, MixedStrategy.uniform(2), beta, "attacker")
        with pytest.raises(ConfigError, match="beta"):
            qre_fixed_point(PENNIES, beta, 1.0)
        with pytest.raises(ConfigError, match="beta"):
            qre_fixed_point(PENNIES, 1.0, beta)


class TestVerifier:
    def test_saddle_point(self):
        eps = verify_epsilon_equilibrium(
            np.array([[0.5]]), MixedStrategy(np.eye(1)[0]), MixedStrategy(np.eye(1)[0]))
        assert eps == 0.0

    def test_pennies_uniform(self):
        eps = verify_epsilon_equilibrium(
            PENNIES, MixedStrategy.uniform(2), MixedStrategy.uniform(2))
        assert eps == pytest.approx(0.0, abs=1e-12)

    def test_disequilibrium_positive(self):
        eps = verify_epsilon_equilibrium(
            PENNIES, MixedStrategy(np.eye(2)[0]), MixedStrategy(np.eye(2)[0]))
        assert eps == pytest.approx(2.0)


class TestReportPlumbing:
    def test_json_fields(self, tmp_path):
        r = nash_exact(PENNIES)
        obj = r.to_json()
        # the CLI writes the report's to_json as equilibrium.json
        path = tmp_path / "m.csv"
        PayoffMatrix(entries=PENNIES, attack_ids=("A1", "A2"),
                     defense_ids=("D1", "D2")).to_csv(path)
        assert cli.main(["solve", "--method", "nash", "--matrix", str(path),
                         "--out", str(tmp_path / "out")]) == 0
        again = json.loads((tmp_path / "out" / "equilibrium.json").read_text())
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
        lambda m: regret_matching(m, T=10),
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


class TestDistributionRule:
    """One rule decides MixedStrategy, DefensePolicy rows and StageMdp
    transition rows: entries at least -1e-12, sums within 1e-9 of 1."""

    @staticmethod
    def stage_mdp(row):
        # two states with one action each, both moving by row
        return StageMdp(labels=("a", "b"), rewards=np.zeros((2, 1, 1)),
                        transitions=np.array([[[row]], [[row]]]))

    @pytest.mark.parametrize("row", [[0.5, 0.5 + 5e-10], [0.5, 0.5 - 5e-10]])
    def test_accepted(self, row):
        MixedStrategy(np.array(row))
        DefensePolicy("x", [row, [1.0, 0.0]])
        self.stage_mdp(row)

    @pytest.mark.parametrize("row", [[0.5, 0.5 + 2e-9], [1.0 + 2e-12, -2e-12],
                                     [np.nan, 1.0]])
    def test_rejected(self, row):
        with pytest.raises(SolverError, match="not a probability vector"):
            MixedStrategy(np.array(row))
        with pytest.raises(ConfigError, match="every defense mix row must be a distribution"):
            DefensePolicy("x", [[1.0, 0.0], row])
        # StageMdp rejects NaN as non-finite before it reads a row
        with pytest.raises(ConfigError, match="finite|sum to 1"):
            self.stage_mdp(row)
