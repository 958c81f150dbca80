"""Each game kernel of the package against its array loop, bit for bit.

The package runs one build of each kernel: fictitious play and regret
matching in ``gamesolve``, single-agent and stage-MDP Q-learning in ``marl``.
``kernel_oracle`` keeps the numpy array loops they were derived from.
Kernels take pre-drawn uniforms instead of RNG handles precisely so that
both walk identical sample paths, and every output must match to the bit.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracle
from gridgame import gamesolve, marl


def random_matrix(seed, shape=(10, 10)):
    return np.random.default_rng(seed).random(shape)


# (oracle, package kernel) pairs
RM = (kernel_oracle.rm_kernel, gamesolve._rm_kernel)
FP = (kernel_oracle.fp_kernel, gamesolve._fp_kernel)
SINGLE = (kernel_oracle.single_kernel, marl._single_kernel)
MDP = (kernel_oracle.mdp_kernel, marl._mdp_kernel)


def assert_same_outputs(kernels, args):
    oracle, kernel = kernels
    ref = oracle(*args)
    got = kernel(*args)
    assert len(ref) == len(got)
    for r, g in zip(ref, got):
        r, g = np.asarray(r), np.asarray(g)
        assert r.dtype == g.dtype and r.shape == g.shape
        # equal bits, so -0.0 and 0.0 would differ here
        assert r.tobytes() == g.tobytes()
    return got


def rm_args(m, T, record_every, seed=0):
    return m, np.random.default_rng(seed).random((T, 2)), record_every


def single_args(m, opp_probs, defender_side, alpha_mode, eps0, eps_decay, T,
                record_every, seed=0):
    return (m, np.cumsum(opp_probs), defender_side, alpha_mode, 0.3, 0.7,
            eps0, eps_decay, np.random.default_rng(seed).random((T, 3)), record_every)


def mdp_args(mdp, gamma, alpha_mode, eps0, eps_decay, T, window_start,
             record_every, seed=0):
    return (mdp.rewards, mdp.transitions, gamma, alpha_mode, 0.3, 0.7, eps0,
            eps_decay, np.random.default_rng(seed).random((T, 5)), window_start,
            record_every)


def flat_mdp(m):
    return marl.StageMdp(labels=("s",), rewards=m[None],
                         transitions=np.ones((1,) + m.shape + (1,)))


TIED = np.array([[0.5, 0.5, 0.2], [0.5, 0.5, 0.2], [0.2, 0.2, 0.2]])

CASES = {
    "rm-10x10": (RM, rm_args(random_matrix(1), 3001, 7)),
    "rm-1x1": (RM, rm_args(np.array([[0.4]]), 50, 3)),
    "rm-tied": (RM, rm_args(TIED, 500, 1)),
    "fp-10x10": (FP, (random_matrix(2), 3000, 0.0, 100)),
    "fp-tied": (FP, (TIED, 301, 0.0, 7)),
    # the attacker's rows 0 and 1 stay tied all run: the lowest index wins
    "fp-tied-rows": (FP, (1.0 - TIED, 301, 0.0, 7)),
    "single-harmonic-defender": (SINGLE, single_args(
        random_matrix(3), np.full(10, 0.1), True, 0, 1.0, 0.999, 5000, 11)),
    "single-constant-attacker": (SINGLE, single_args(
        random_matrix(4, (5, 8)), np.full(8, 0.125), False, 1, 1.0, 0.99, 3000, 7)),
    "single-power-greedy": (SINGLE, single_args(
        TIED, np.array([0.0, 1.0, 0.0]), True, 2, 0.0, 0.9, 400, 1)),
    "maql": (MDP, mdp_args(
        flat_mdp(random_matrix(5)), 0.0, 0, 1.0, 0.9995, 5000, 4500, 5)),
    "mdp-power-gamma": (MDP, mdp_args(
        marl.stage_mdp_default(random_matrix(6, (4, 4))), 0.8, 2, 1.0, 0.999,
        4000, 3600, 9)),
    "mdp-constant-tied": (MDP, mdp_args(
        marl.stage_mdp_default(TIED), 0.5, 1, 1.0, 0.99, 2000, 0, 3)),
}


def game(rows, cols, levels, seed):
    """Payoffs in [-1, 1]; levels > 0 rounds them to a few values, so ties abound."""
    rng = np.random.default_rng(seed)
    if levels:
        return rng.integers(0, levels + 1, (rows, cols)) * (2.0 / levels) - 1.0
    return rng.random((rows, cols)) * 2.0 - 1.0


GAMES = st.builds(game, st.integers(1, 12), st.integers(1, 12),
                  st.sampled_from([0, 2, 3]), st.integers(0, 2**32 - 1))


class TestAgainstOracle:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_array_function(self, case):
        kernels, args = CASES[case]
        assert_same_outputs(kernels, args)

    def test_fp_stops_early_on_tol(self):
        m = random_matrix(7, (6, 6))
        pa, pd, iters, eps = assert_same_outputs(FP, (m, 100_000, 0.05, 10))
        assert iters < 100_000
        assert eps <= 0.05

    @settings(max_examples=60, deadline=None)
    @given(m=GAMES, T=st.integers(1, 300), record_every=st.integers(1, 40))
    def test_property_regret_matching(self, m, T, record_every):
        assert_same_outputs(RM, rm_args(m, T, record_every))

    @settings(max_examples=60, deadline=None)
    @given(m=GAMES, max_iters=st.integers(1, 300),
           tol=st.sampled_from([0.0, 0.02, 0.2]), check_every=st.integers(1, 40))
    def test_property_fictitious_play(self, m, max_iters, tol, check_every):
        assert_same_outputs(FP, (m, max_iters, tol, check_every))

    @settings(max_examples=60, deadline=None)
    @given(m=GAMES, defender_side=st.booleans(), alpha_mode=st.integers(0, 2),
           eps0=st.sampled_from([0.0, 1.0, 0.3]), eps_decay=st.sampled_from([0.9, 0.995]),
           T=st.integers(1, 300), record_every=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_property_single_agent(self, m, defender_side, alpha_mode, eps0,
                                   eps_decay, T, record_every, seed):
        n_opp = m.shape[0] if defender_side else m.shape[1]
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(n_opp)) if seed % 2 else np.eye(n_opp)[seed % n_opp]
        assert_same_outputs(SINGLE, single_args(
            m, probs, defender_side, alpha_mode, eps0, eps_decay, T, record_every, seed))

    @settings(max_examples=60, deadline=None)
    @given(m=GAMES, n_states=st.integers(1, 3), gamma=st.sampled_from([0.0, 0.5, 0.9]),
           alpha_mode=st.integers(0, 2), eps0=st.sampled_from([0.0, 1.0, 0.3]),
           eps_decay=st.sampled_from([0.9, 0.995]), T=st.integers(1, 300),
           window=st.integers(0, 300), record_every=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_property_mdp(self, m, n_states, gamma, alpha_mode, eps0, eps_decay,
                          T, window, record_every, seed):
        rng = np.random.default_rng(seed)
        rewards = np.stack([m * (1.0 - 0.3 * s) for s in range(n_states)])
        # sparse rows: some transitions have probability 0
        weights = rng.random(m.shape + (n_states, n_states)) * rng.integers(
            0, 2, m.shape + (n_states, n_states))
        weights[..., 0] += 1e-3
        transitions = np.moveaxis(weights / weights.sum(axis=-1, keepdims=True), 2, 0)
        mdp = marl.StageMdp(labels=tuple(range(n_states)), rewards=rewards,
                            transitions=transitions)
        assert_same_outputs(MDP, mdp_args(
            mdp, gamma, alpha_mode, eps0, eps_decay, T, min(window, T),
            record_every, seed))
