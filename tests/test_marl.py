"""Learning-agent tests.

Oracles: exhaustive argmax/argmin scans for best responses, an exhaustive
saddle-point scan for pure equilibria, closed-form value iteration for the
deterministic chain, and plain arithmetic for the update rule.
"""

import json
import math

import numpy as np
import pytest

from gridgame import marl
from gridgame.errors import ConfigError
from gridgame.gamesolve import MixedStrategy
from gridgame.marl import (
    LearnedPolicy,
    LearningConfig,
    StageMdp,
    mdp_train,
    pac_sample_bound,
    stage_mdp_default,
    train_multi_agent,
    train_single_agent,
)

PENNIES = np.array([[1.0, -1.0], [-1.0, 1.0]])


def strict_saddle(m):
    """Exhaustive scan: the (i, j) that is a strict pure saddle, or None."""
    rows, cols = m.shape
    found = None
    for i in range(rows):
        for j in range(cols):
            col = np.delete(m[:, j], i)
            row = np.delete(m[i, :], j)
            if np.all(m[i, j] < col) and np.all(m[i, j] > row):
                found = (i, j)
    return found


def saddle_matrix(seed, size=6):
    """Random matrix rejection-sampled to contain a strict pure saddle."""
    rng = np.random.default_rng(seed)
    while True:
        m = rng.random((size, size))
        if strict_saddle(m) is not None:
            return m


class TestConfig:
    def test_defaults_satisfy_robbins_monro(self):
        cfg = LearningConfig()
        assert cfg.robbins_monro_ok()
        assert cfg.provenance()["robbins_monro"] == "ok"

    def test_constant_alpha_flagged(self):
        cfg = LearningConfig(alpha_schedule="constant", alpha_constant=0.2)
        assert not cfg.robbins_monro_ok()
        assert cfg.provenance()["robbins_monro"].startswith("violated")

    def test_power_exponent_range(self):
        LearningConfig(alpha_schedule="power", alpha_power=0.6)
        with pytest.raises(ConfigError):
            LearningConfig(alpha_schedule="power", alpha_power=0.4)
        with pytest.raises(ConfigError):
            LearningConfig(alpha_schedule="power", alpha_power=1.5)

    @pytest.mark.parametrize("bad", [
        dict(alpha_schedule="linear"),
        dict(epsilon0=1.5),
        dict(epsilon_decay=1.0),
        dict(epsilon_decay=0.0),
        dict(gamma=1.0),
        dict(gamma=-0.1),
        dict(episodes=0),
        dict(alpha_schedule="constant", alpha_constant=0.0),
    ])
    def test_rejects_bad_values(self, bad):
        with pytest.raises(ConfigError):
            LearningConfig(**bad)

    def test_equal_values_give_equal_provenance(self):
        # a JSON 1 and 1.0, or a numpy integer, must not change the policy file
        cfg = LearningConfig(epsilon0=1, gamma=0, episodes=np.int64(50), seed=np.int32(3))
        assert json.dumps(cfg.provenance()) == json.dumps(
            LearningConfig(epsilon0=1.0, gamma=0.0, episodes=50, seed=3).provenance())


def one_action_mdp(rewards, transitions):
    """StageMdp over states 0..n-1 with one action per side."""
    r = np.asarray(rewards, dtype=float)[:, None, None]
    t = np.asarray(transitions, dtype=float)[:, None, None, :]
    return StageMdp(labels=tuple(map(str, range(len(r)))), rewards=r, transitions=t)


def learner_visits(m, opp_probs, epsilon0, epsilon_decay, episodes=100_000, seed=0):
    """Per-action visit counts of a defender trained by the single-agent kernel."""
    uniforms = np.random.default_rng(seed).random((episodes, 3))
    _q, visits, _opp, _tel = marl._single_kernel(
        m, np.cumsum(opp_probs), True, 0, 0.1, 1.0, epsilon0, epsilon_decay,
        uniforms, episodes)
    return visits.sum(axis=1)


class TestQUpdate:
    """The update rule q += alpha*(reward + gamma*next_best - q) in the kernels."""

    def test_full_overwrite(self):
        # alpha = 1 replaces the cell with its target, here the reward
        rng = np.random.default_rng(0)
        m = rng.random((4, 5))
        cfg = LearningConfig(alpha_schedule="constant", alpha_constant=1.0,
                             episodes=2_000, seed=1)
        pol = train_single_agent(m, MixedStrategy.pure(4, 2), cfg)
        assert pol.q_rows[0] == tuple(m[2])

    def test_bootstrap_arithmetic(self):
        # 0 -> 1 -> 0, rewards 0 and 1, harmonic alpha: q1 = 1 after its first
        # visit, then the second visit of state 0 gives 0 + 1/2*(0 + 0.9*1 - 0)
        mdp = one_action_mdp([0.0, 1.0], [[0.0, 1.0], [1.0, 0.0]])
        res = mdp_train(mdp, LearningConfig(episodes=3, gamma=0.9))
        assert res.values == pytest.approx((0.45, 1.0), abs=1e-15)

    def test_running_average_identity(self):
        # a self-loop with gamma > 0 gives a new target r + gamma*q every
        # visit; the harmonic schedule keeps q the mean of the targets seen
        mdp = one_action_mdp([0.6], [[1.0]])
        q_prev, targets = 0.0, []
        for k in range(1, 8):
            targets.append(0.6 + 0.5 * q_prev)
            q_prev = mdp_train(mdp, LearningConfig(episodes=k, gamma=0.5)).values[0]
            assert q_prev == pytest.approx(np.mean(targets), abs=1e-12)

    def test_unseen_keys_are_zero(self):
        # a greedy defender facing a pure attack never leaves action 0
        m = np.random.default_rng(2).random((3, 3))
        cfg = LearningConfig(epsilon0=0.0, episodes=500, seed=0)
        pol = train_single_agent(m, MixedStrategy.pure(3, 1), cfg)
        assert pol.q_rows[0] == (m[1, 0], 0.0, 0.0)

    def test_alpha_out_of_range(self):
        for alpha in (0.0, -0.2, 1.5):
            with pytest.raises(ConfigError):
                LearningConfig(alpha_schedule="constant", alpha_constant=alpha)

    def test_reward_bound_enforced(self):
        with pytest.raises(ConfigError, match="bounded by 1"):
            train_single_agent(np.full((2, 2), 1.5), MixedStrategy.uniform(2),
                               LearningConfig(episodes=10))
        with pytest.raises(ConfigError):
            train_multi_agent(np.full((2, 2), 1.5), LearningConfig(episodes=10))
        with pytest.raises(ConfigError):
            mdp_train(one_action_mdp([-1.5], [[1.0]]), LearningConfig(episodes=10))

    def test_bounded_iterates(self):
        # rewards in [0,1], gamma=0.8: values must stay within 1/(1-gamma)
        mdp = stage_mdp_default(np.random.default_rng(0).random((3, 3)))
        cfg = LearningConfig(alpha_schedule="constant", alpha_constant=0.3,
                             gamma=0.8, episodes=5_000, seed=0)
        uniforms = np.random.default_rng(cfg.seed).random((cfg.episodes, 5))
        qa, qd = marl._mdp_kernel(
            mdp.rewards, mdp.transitions, cfg.gamma, cfg._alpha_mode(),
            cfg.alpha_constant, cfg.alpha_power, cfg.epsilon0, cfg.epsilon_decay,
            uniforms, 0, cfg.episodes)[:2]
        cap = 1.0 / (1.0 - 0.8)
        for q in (qa, qd):
            assert q.max() <= cap + 1e-9
            assert q.min() >= 0.0
        res = mdp_train(mdp, cfg)
        assert all(0.0 <= v <= cap for v in res.values)


class TestEpsilonGreedy:
    """Action choice in the kernels: greedy vs the opponent's last move, else uniform."""

    def test_zero_epsilon_always_greedy(self, tmp_path):
        # epsilon 0: the attacker tries the all-zero rows in index order,
        # then plays the argmin of its learned column every episode after;
        # rewards lie in [0.1, 1), inside the trainers' bound of 1
        m = np.random.default_rng(1).random((6, 6)) * 0.9 + 0.1
        path = tmp_path / "telemetry.csv"
        pol = train_single_agent(m, MixedStrategy.pure(6, 4),
                                 LearningConfig(epsilon0=0.0, episodes=400, seed=1),
                                 side="attacker", telemetry_path=path)
        rewards = [float(line.split(",")[3])
                   for line in path.read_text().splitlines()[1:]]
        assert len(rewards) == 400
        # telemetry keeps 12 significant digits
        assert rewards[:6] == pytest.approx(m[:, 4], abs=1e-11)
        assert rewards[6:] == pytest.approx([m[:, 4].min()] * 394, abs=1e-11)
        assert pol.greedy_action() == int(np.argmin(m[:, 4]))

    def test_full_epsilon_uniform(self):
        n = 100_000
        counts = learner_visits(np.random.default_rng(2).random((10, 10)),
                                np.full(10, 0.1), 1.0, 1.0 - 1e-12, n)
        p = 0.1
        sigma = math.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(counts / n - p) <= 3 * sigma)

    def test_partial_epsilon_greedy_share(self):
        # eps=0.2, m=10: greedy frequency 0.8 + 0.02 = 0.82; action 3 holds
        # the best reward against the pure attack
        m = np.tile(np.linspace(0.1, 0.9, 10), (10, 1))
        m[0, 3] = 0.95
        n = 100_000
        counts = learner_visits(m, np.eye(10)[0], 0.2, 1.0 - 1e-15, n, seed=3)
        p = 0.82
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(counts[3] / n - p) <= 3 * sigma

    def test_tie_breaks_low_index(self):
        # actions 2 and 5 tie for the best reward: greedy play picks 2
        row = np.array([0.1, 0.2, 0.7, 0.3, 0.4, 0.7])
        counts = learner_visits(row[None, :], np.ones(1), 1.0, 0.99, 20_000)
        assert counts[2] > 19_000
        assert counts[5] < 500

    def test_epsilon_range_checked(self):
        with pytest.raises(ConfigError):
            LearningConfig(epsilon0=1.2)


class TestSingleAgent:
    def test_pure_opponent_recovers_column_argmax(self):
        rng = np.random.default_rng(10)
        m = rng.random((10, 10))
        cfg = LearningConfig(episodes=50_000, seed=1)
        pol = train_single_agent(m, MixedStrategy.pure(10, 0), cfg)
        assert pol.greedy_action() == int(np.argmax(m[0]))

    def test_constant_matrix_indifference(self):
        m = np.full((4, 4), 0.6)
        cfg = LearningConfig(episodes=20_000, seed=2)
        pol = train_single_agent(m, MixedStrategy.uniform(4), cfg)
        row = np.asarray(pol.q_rows[0])
        assert row.max() - row.min() <= 0.01

    def test_visited_q_matches_matrix(self):
        rng = np.random.default_rng(11)
        m = rng.random((10, 10))
        cfg = LearningConfig(episodes=100_000, seed=3)
        pol = train_single_agent(m, MixedStrategy.uniform(10), cfg)
        # harmonic running average of a deterministic reward hits it exactly,
        # so the frequency-weighted row equals the expected payoff row
        expected = np.full(10, 1 / 10) @ m
        assert np.allclose(np.asarray(pol.q_rows[0]), expected, atol=0.05)

    @pytest.mark.parametrize("seed", range(5))
    def test_epsilon_best_response(self, seed):
        rng = np.random.default_rng(100 + seed)
        m = rng.random((8, 8))
        mix = MixedStrategy(rng.dirichlet(np.ones(8)))
        cfg = LearningConfig(episodes=100_000, seed=seed)
        pol = train_single_agent(m, mix, cfg)
        exp = mix.probs @ m
        assert exp.max() - exp[pol.greedy_action()] <= 0.02

    def test_attacker_side_minimizes(self):
        rng = np.random.default_rng(12)
        m = rng.random((6, 6))
        cfg = LearningConfig(episodes=50_000, seed=4)
        pol = train_single_agent(m, MixedStrategy.pure(6, 2), cfg,
                                 side="attacker")
        assert pol.side == "attacker"
        assert pol.greedy_action() == int(np.argmin(m[:, 2]))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(13)
        m = rng.random((5, 5))
        mix = MixedStrategy(rng.dirichlet(np.ones(5)))
        cfg = LearningConfig(episodes=10_000, seed=77)
        a = train_single_agent(m, mix, cfg)
        b = train_single_agent(m, mix, cfg)
        assert a.q_rows == b.q_rows
        assert a.greedy == b.greedy

    def test_opponent_length_checked(self):
        with pytest.raises(ConfigError):
            train_single_agent(np.ones((3, 3)), MixedStrategy.uniform(4),
                               LearningConfig(episodes=10))

    def test_telemetry_csv(self, tmp_path):
        rng = np.random.default_rng(14)
        m = rng.random((4, 4))
        path = tmp_path / "telemetry.csv"
        train_single_agent(m, MixedStrategy.uniform(4),
                           LearningConfig(episodes=5_000, seed=5),
                           telemetry_path=path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "episode,epsilon,alpha,reward,q_max_delta"
        assert len(lines) == 1 + 1000
        first = lines[1].split(",")
        assert first[0] == "5"  # cadence: episodes/1000


class TestMultiAgent:
    @pytest.mark.parametrize("seed", range(6))
    def test_recovers_strict_saddle(self, seed):
        m = saddle_matrix(seed)
        oracle = strict_saddle(m)
        res = train_multi_agent(
            m, LearningConfig(episodes=60_000, seed=seed, epsilon_decay=0.9995))
        assert (res.attacker.greedy_action(), res.defender.greedy_action()) == oracle
        assert res.converged
        assert res.value == pytest.approx(m[oracle], abs=0.05)

    def test_pennies_flagged_non_converged(self):
        res = train_multi_agent(PENNIES, LearningConfig(episodes=50_000, seed=9))
        assert not res.converged
        assert abs(res.value) <= 0.25

    def test_constant_matrix_value(self):
        res = train_multi_agent(np.full((5, 5), 0.42),
                                LearningConfig(episodes=20_000, seed=6))
        assert res.value == pytest.approx(0.42, abs=0.01)

    def test_tuple_unpacking(self):
        att, dfn, value = train_multi_agent(
            PENNIES, LearningConfig(episodes=2_000, seed=0))
        assert isinstance(att, LearnedPolicy) and isinstance(dfn, LearnedPolicy)
        assert isinstance(value, float)

    def test_deterministic_given_seed(self):
        m = saddle_matrix(3)
        cfg = LearningConfig(episodes=10_000, seed=21)
        a = train_multi_agent(m, cfg)
        b = train_multi_agent(m, cfg)
        assert a.attacker.q_rows == b.attacker.q_rows
        assert a.defender.q_rows == b.defender.q_rows
        assert a.value == b.value


class TestStageMdp:
    def test_default_rows_sum_to_one(self):
        rng = np.random.default_rng(20)
        mdp = stage_mdp_default(rng.random((10, 10)))
        assert mdp.n_states == 3
        assert np.allclose(mdp.transitions.sum(axis=3), 1.0, atol=1e-12)
        assert np.abs(mdp.rewards).max() <= 1.0

    def test_default_shape_and_scaling(self):
        m = np.full((3, 3), 0.8)
        mdp = stage_mdp_default(m, reward_scale=(1.0, 0.5, 0.25))
        assert mdp.rewards.shape == (3, 3, 3)
        assert mdp.rewards[1, 0, 0] == pytest.approx(0.4)
        assert mdp.rewards[2, 0, 0] == pytest.approx(0.2)

    def test_inactive_defense_never_recovers(self):
        m = np.ones((2, 2)) * 0.5
        mdp = stage_mdp_default(m, defense_active=[True, False])
        # from degraded, the inactive defense has zero probability of moving down
        assert mdp.transitions[1, 0, 1, 0] == 0.0
        assert mdp.transitions[1, 0, 0, 0] > 0.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            StageMdp(labels=("a",), rewards=np.ones((1, 2, 2)) * 2.0,
                     transitions=np.ones((1, 2, 2, 1)))
        bad_rows = np.ones((1, 2, 2, 1)) * 0.5
        with pytest.raises(ConfigError):
            StageMdp(labels=("a",), rewards=np.ones((1, 2, 2)) * 0.5,
                     transitions=bad_rows)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        rewards = np.full((2, 2, 2), 0.5)
        transitions = np.full((2, 2, 2, 2), 0.5)
        rewards[1, 0, 1] = bad
        with pytest.raises(ConfigError, match="finite"):
            StageMdp(labels=("a", "b"), rewards=rewards, transitions=transitions)
        rewards[1, 0, 1] = 0.5
        # NaN > 1 and NaN < 0 are both False: only a finiteness check sees it
        transitions[0, 1, 1] = (bad, 1.0)
        with pytest.raises(ConfigError, match="finite"):
            StageMdp(labels=("a", "b"), rewards=rewards, transitions=transitions)


class TestMdpTrain:
    def test_reduction_identity(self):
        # single state, gamma=0: must equal train_multi_agent bit for bit
        rng = np.random.default_rng(30)
        m = rng.random((4, 4))
        cfg = LearningConfig(episodes=20_000, seed=8, epsilon_decay=0.9995)
        flat = StageMdp(labels=("s",), rewards=m[None],
                        transitions=np.ones((1, 4, 4, 1)))
        a = mdp_train(flat, cfg)
        b = train_multi_agent(m, cfg)
        assert a.attacker.q_rows == b.attacker.q_rows
        assert a.defender.q_rows == b.defender.q_rows
        assert a.attacker.greedy == b.attacker.greedy
        assert a.defender.greedy == b.defender.greedy

    def test_two_state_chain_matches_value_iteration(self):
        # deterministic cycle a->b->a with single actions: closed form fixed point
        r0, r1, g = 0.5, 0.2, 0.9
        chain = StageMdp(labels=("a", "b"),
                         rewards=np.array([[[r0]], [[r1]]]),
                         transitions=np.array([[[[0.0, 1.0]]], [[[1.0, 0.0]]]]))
        cfg = LearningConfig(episodes=50_000, seed=2, gamma=g,
                             alpha_schedule="power", alpha_power=0.6)
        res = mdp_train(chain, cfg)
        assert res.values[0] == pytest.approx((r0 + g * r1) / (1 - g * g), abs=0.05)
        assert res.values[1] == pytest.approx((r1 + g * r0) / (1 - g * g), abs=0.05)

    def test_constant_alpha_is_exact_on_deterministic_chain(self):
        # alpha=1 turns the update into asynchronous value iteration
        r0, r1, g = 0.5, 0.2, 0.9
        chain = StageMdp(labels=("a", "b"),
                         rewards=np.array([[[r0]], [[r1]]]),
                         transitions=np.array([[[[0.0, 1.0]]], [[[1.0, 0.0]]]]))
        cfg = LearningConfig(episodes=2_000, seed=2, gamma=g,
                             alpha_schedule="constant", alpha_constant=1.0)
        res = mdp_train(chain, cfg)
        assert res.values[0] == pytest.approx((r0 + g * r1) / (1 - g * g), abs=1e-6)
        assert res.values[1] == pytest.approx((r1 + g * r0) / (1 - g * g), abs=1e-6)

    def test_absorbing_zero_reward_state_stays_zero(self):
        # two states, state 1 absorbing with zero reward; reachable from state 0
        rewards = np.array([[[0.5]], [[0.0]]])
        transitions = np.array([[[[0.7, 0.3]]], [[[0.0, 1.0]]]])
        mdp = StageMdp(labels=("live", "dead"), rewards=rewards,
                       transitions=transitions)
        res = mdp_train(mdp, LearningConfig(episodes=10_000, seed=1, gamma=0.9))
        assert res.values[1] == 0.0
        assert all(v == 0.0 for v in res.defender.q_rows[1])

    def test_q_values_bounded(self):
        rng = np.random.default_rng(31)
        mdp = stage_mdp_default(rng.random((5, 5)))
        res = mdp_train(mdp, LearningConfig(episodes=30_000, seed=3, gamma=0.8))
        cap = 1.0 / (1.0 - 0.8)
        for pol in (res.attacker, res.defender):
            for row in pol.q_rows:
                assert all(-1e-9 <= v <= cap + 1e-9 for v in row)

    def test_policy_export_json(self, tmp_path):
        rng = np.random.default_rng(32)
        mdp = stage_mdp_default(rng.random((4, 4)))
        res = mdp_train(mdp, LearningConfig(episodes=5_000, seed=4, gamma=0.5))
        path = tmp_path / "policy.json"
        obj = res.defender.to_json(path)
        back = json.loads(path.read_text())
        assert back == obj
        assert len(back["contexts"]) == 3
        for ctx in back["contexts"]:
            row = np.asarray(ctx["q_row"])
            assert ctx["greedy"] == int(np.argmax(row))
        assert back["config"]["gamma"] == 0.5


class TestLearnedPolicy:
    def test_greedy_invariant_enforced(self):
        with pytest.raises(ConfigError):
            LearnedPolicy(side="defender", greedy=(0,), q_rows=((0.1, 0.9),),
                          episodes=1, provenance={})

    def test_softmax_mix_orients_by_side(self):
        pol = LearnedPolicy(side="defender", greedy=(1,), q_rows=((0.2, 0.8),),
                            episodes=1, provenance={})
        mix = pol.softmax_mix(beta=50.0)
        assert mix.probs[1] > 0.99
        pol = LearnedPolicy(side="attacker", greedy=(0,), q_rows=((0.2, 0.8),),
                            episodes=1, provenance={})
        mix = pol.softmax_mix(beta=50.0)
        assert mix.probs[0] > 0.99


class TestPacBound:
    def test_worked_case(self):
        got = pac_sample_bound(2, 2, 1, gamma=0.5, eps=0.1, delta=0.1)
        assert got == pytest.approx(25_600 * math.log(40), rel=1e-12)
        assert got == pytest.approx(94_435.31, abs=0.01)

    def test_eps_scaling(self):
        base = pac_sample_bound(3, 4, 2, 0.9, 0.2, 0.05)
        assert pac_sample_bound(3, 4, 2, 0.9, 0.1, 0.05) == pytest.approx(4 * base)

    def test_monotone_in_gamma_and_horizon(self):
        lo = pac_sample_bound(2, 2, 1, 0.5, 0.1, 0.1)
        assert pac_sample_bound(2, 2, 1, 0.9, 0.1, 0.1) > lo
        assert pac_sample_bound(2, 2, 2, 0.5, 0.1, 0.1) > lo

    @pytest.mark.parametrize("kwargs", [
        dict(states=0, actions=2, horizon=1, gamma=0.5, eps=0.1, delta=0.1),
        dict(states=2, actions=2, horizon=1, gamma=1.0, eps=0.1, delta=0.1),
        dict(states=2, actions=2, horizon=1, gamma=0.5, eps=0.0, delta=0.1),
        dict(states=2, actions=2, horizon=1, gamma=0.5, eps=0.1, delta=1.0),
    ])
    def test_domain_checks(self, kwargs):
        with pytest.raises(ConfigError):
            pac_sample_bound(**kwargs)
