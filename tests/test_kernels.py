"""Each game kernel of the package against its array loop, bit for bit.

The package runs one build of each kernel: fictitious play and regret
matching+ in ``gamesolve``, single-agent and stage-MDP Q-learning in
``marl``.  ``kernel_oracle`` keeps the numpy array loops they were derived
from.  The package learners take their ``LearningConfig``; the oracle loops
take its fields as scalars, a seeded generator and an episode count, and
``single_args`` and ``mdp_args`` build both calls from one set of values.
The oracle draws every uniform up front and the package chunk by chunk from
a generator of the same seed, so both walk identical sample paths, and every
output must match to the bit.  Under the harmonic schedule with gamma 0 the
package learners stop updating once every cell was visited and count the
rest of the run in numpy; the frozen-tail cases and properties reach that
tail and cross chunk boundaries in it.  The stage-MDP kernel plays a
one-state tail in numpy and steps through a tail of several states;
``TestSettledSelfPlay`` holds its one-state tail to the loop on cycling,
locking and random games, and a property holds the settled telemetry
count to a per-step loop.
The stage-MDP kernel counts its window per chunk; one case never settles,
and its window spans two chunk boundaries of the step loop.
Fictitious play advances a run of one best-response pair as one block;
``TestFictitiousPlayBlocks`` holds it to the loop around every check step
and whatever size a block is given.
"""
import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernel_oracle
from gridgame import cli, gamesolve, marl
from gridgame.resilience import PayoffMatrix


def random_matrix(seed, shape=(10, 10)):
    return np.random.default_rng(seed).random(shape)


# (oracle, package kernel) pairs
RM = (kernel_oracle.rm_kernel, gamesolve._rm_kernel)
FP = (kernel_oracle.fp_kernel, gamesolve._fp_kernel)
SINGLE = (kernel_oracle.single_kernel, marl._single_kernel)
MDP = (kernel_oracle.mdp_kernel, marl._mdp_kernel)


def both(*args):
    """One argument list for the oracle and the package kernel."""
    return args, args


def assert_same_outputs(kernels, calls):
    """Run the oracle and the package kernel on their arguments in
    calls = (oracle_args, kernel_args); every output must match to the bit."""
    oracle, kernel = kernels
    # a generator in the arguments is drawn from: each side draws from a copy
    ref = oracle(*copy.deepcopy(calls[0]))
    got = kernel(*copy.deepcopy(calls[1]))
    assert len(ref) == len(got)
    for r, g in zip(ref, got):
        r, g = np.asarray(r), np.asarray(g)
        assert r.dtype == g.dtype and r.shape == g.shape
        # equal bits, so -0.0 and 0.0 would differ here
        assert r.tobytes() == g.tobytes()
    return got


def learner_config(alpha_mode, eps0, eps_decay, T, seed, gamma=0.0):
    """The config of a learner call, alpha_mode indexing ALPHA_SCHEDULES;
    constant steps are 0.3 and power steps count ** -0.7."""
    return marl.LearningConfig(
        alpha_schedule=marl.ALPHA_SCHEDULES[alpha_mode], alpha_constant=0.3,
        alpha_power=0.7, epsilon0=eps0, epsilon_decay=eps_decay, gamma=gamma,
        episodes=T, seed=seed)


def single_args(m, opp_probs, alpha_mode, eps0, eps_decay, T, record_every, seed=0):
    """(oracle_args, kernel_args) of one single-agent run."""
    cfg = learner_config(alpha_mode, eps0, eps_decay, T, seed)
    cdf = np.cumsum(opp_probs)
    return ((m, cdf, alpha_mode, cfg.alpha_constant, cfg.alpha_power, cfg.epsilon0,
             cfg.epsilon_decay, np.random.default_rng(seed), T, record_every),
            (m, cdf, cfg, record_every))


def mdp_args(mdp, gamma, alpha_mode, eps0, eps_decay, T, window_start,
             record_every, seed=0):
    """(oracle_args, kernel_args) of one stage-MDP run."""
    cfg = learner_config(alpha_mode, eps0, eps_decay, T, seed, gamma)
    return ((mdp.rewards, mdp.transitions, cfg.gamma, alpha_mode, cfg.alpha_constant,
             cfg.alpha_power, cfg.epsilon0, cfg.epsilon_decay,
             np.random.default_rng(seed), T, window_start, record_every),
            (mdp.rewards, mdp.transitions, cfg, window_start, record_every))


def flat_mdp(m):
    return marl.StageMdp(labels=("s",), rewards=m[None],
                         transitions=np.ones((1,) + m.shape + (1,)))


def random_mdp(m, n_states, rng):
    """n_states scaled copies of m, with sparse random transition rows."""
    rewards = np.stack([m * (1.0 - 0.3 * s) for s in range(n_states)])
    # sparse rows: some transitions have probability 0
    weights = rng.random(m.shape + (n_states, n_states)) * rng.integers(
        0, 2, m.shape + (n_states, n_states))
    weights[..., 0] += 1e-3
    transitions = np.moveaxis(weights / weights.sum(axis=-1, keepdims=True), 2, 0)
    return marl.StageMdp(labels=tuple(range(n_states)), rewards=rewards,
                         transitions=transitions)


def settled_stretch(run):
    """Call run(); return the first step the package counts as settled (or
    None) and the number of steps ``marl._settled_play`` played."""
    with mock.patch.object(marl, "_settled_steps", wraps=marl._settled_steps) as steps, \
            mock.patch.object(marl, "_settled_play", wraps=marl._settled_play) as play:
        run()
    start = steps.call_args_list[0].args[2] if steps.called else None
    return start, sum(len(call.args[1]) for call in play.call_args_list)


def tail_start(kernels, calls):
    """The first step the package kernel counts as settled, or None."""
    return settled_stretch(lambda: kernels[1](*calls[1]))[0]


CHUNK = marl.DRAW_CHUNK


TIED = np.array([[0.5, 0.5, 0.2], [0.5, 0.5, 0.2], [0.2, 0.2, 0.2]])

CASES = {
    # (M, T, tol, check_every, record_every)
    "rm-10x10": (RM, both(random_matrix(1), 3001, 0.0, 10, 7)),
    # stops at tol after a few hundred steps
    "rm-10x10-stops": (RM, both(random_matrix(1), 100_000, 1e-4, 10, 100)),
    "rm-1x1": (RM, both(np.array([[0.4]]), 50, 0.0, 10, 3)),
    "rm-tied": (RM, both(TIED, 500, 0.0, 1, 1)),
    # rows 0 and 1 are equal: their regrets, and so their mass, tie all run
    "rm-tied-rows": (RM, both(1.0 - TIED, 301, 1e-3, 7, 5)),
    "fp-10x10": (FP, both(random_matrix(2), 3000, 0.0, 100)),
    "fp-tied": (FP, both(TIED, 301, 0.0, 7)),
    # the attacker's rows 0 and 1 stay tied all run: the lowest index wins
    "fp-tied-rows": (FP, both(1.0 - TIED, 301, 0.0, 7)),
    "single-harmonic-defender": (SINGLE, single_args(
        random_matrix(3), np.full(10, 0.1), 0, 1.0, 0.999, 5000, 11)),
    "single-constant-5x8": (SINGLE, single_args(
        random_matrix(4, (5, 8)), np.full(5, 0.2), 1, 1.0, 0.99, 3000, 7)),
    "single-power-greedy": (SINGLE, single_args(
        TIED, np.array([0.0, 1.0, 0.0]), 2, 0.0, 0.9, 400, 1)),
    "maql": (MDP, mdp_args(
        flat_mdp(random_matrix(5)), 0.0, 0, 1.0, 0.9995, 5000, 4500, 5)),
    "mdp-power-gamma": (MDP, mdp_args(
        marl.stage_mdp_default(random_matrix(6, (4, 4))), 0.8, 2, 1.0, 0.999,
        4000, 3600, 9)),
    "mdp-constant-tied": (MDP, mdp_args(
        marl.stage_mdp_default(TIED), 0.5, 1, 1.0, 0.99, 2000, 0, 3)),
    # harmonic, gamma 0: Q settles inside the first chunk, and the tail
    # crosses two chunk boundaries
    "single-frozen-tail": (SINGLE, single_args(
        random_matrix(8, (3, 4)), np.array([0.5, 0.3, 0.2]), 0, 1.0, 0.999,
        2 * CHUNK + 1500, 7)),
    "mdp-frozen-tail": (MDP, mdp_args(
        marl.stage_mdp_default(random_matrix(9, (3, 3))), 0.0, 0, 1.0, 0.999,
        2 * CHUNK + 1500, CHUNK + 700, 7)),
    # gamma > 0: the run steps to the end, and the window's counts and reward
    # are taken over two chunk boundaries of the step loop
    "mdp-window-across-chunks": (MDP, mdp_args(
        marl.stage_mdp_default(random_matrix(10, (3, 3))), 0.5, 0, 1.0, 0.999,
        2 * CHUNK + 300, CHUNK - 200, 7)),
}
FROZEN_TAIL_CASES = ["single-frozen-tail", "mdp-frozen-tail"]


def game(rows, cols, levels, seed):
    """Payoffs in [-1, 1]; levels > 0 rounds them to a few values, so ties abound."""
    rng = np.random.default_rng(seed)
    if levels:
        return rng.integers(0, levels + 1, (rows, cols)) * (2.0 / levels) - 1.0
    return rng.random((rows, cols)) * 2.0 - 1.0


GAMES = st.builds(game, st.integers(1, 12), st.integers(1, 12),
                  st.sampled_from([0, 2, 3]), st.integers(0, 2**32 - 1))
# small enough that every cell is visited early: Q settles inside a run
SMALL_GAMES = st.builds(game, st.integers(1, 4), st.integers(1, 4),
                        st.sampled_from([0, 2, 3]), st.integers(0, 2**32 - 1))


class TestAgainstOracle:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_array_function(self, case):
        kernels, calls = CASES[case]
        assert_same_outputs(kernels, calls)

    @pytest.mark.parametrize("case", FROZEN_TAIL_CASES)
    def test_frozen_tail_cases_settle_in_the_first_chunk(self, case):
        # so their tails run 2 * CHUNK + 1500 - tail_start steps, over two boundaries
        kernels, calls = CASES[case]
        assert tail_start(kernels, calls) < CHUNK

    def test_window_case_steps_to_the_end(self):
        kernels, calls = CASES["mdp-window-across-chunks"]
        assert tail_start(kernels, calls) is None

    def test_fp_stops_early_on_tol(self):
        m = random_matrix(7, (6, 6))
        pa, pd, iters = assert_same_outputs(FP, both(m, 100_000, 0.05, 10))
        assert iters < 100_000
        assert gamesolve.verify_epsilon_equilibrium(m, pa, pd) <= 0.05

    @settings(max_examples=60, deadline=None)
    @given(m=GAMES, T=st.integers(1, 300), tol=st.sampled_from([0.0, 0.02, 0.2]),
           check_every=st.integers(1, 40), record_every=st.integers(1, 40))
    def test_property_regret_matching(self, m, T, tol, check_every, record_every):
        assert_same_outputs(RM, both(m, T, tol, check_every, record_every))

    @settings(max_examples=60, deadline=None)
    @given(m=GAMES, max_iters=st.integers(1, 300),
           tol=st.sampled_from([0.0, 0.02, 0.2]), check_every=st.integers(1, 40))
    def test_property_fictitious_play(self, m, max_iters, tol, check_every):
        assert_same_outputs(FP, both(m, max_iters, tol, check_every))

    @settings(max_examples=60, deadline=None)
    @given(m=GAMES, alpha_mode=st.integers(0, 2),
           eps0=st.sampled_from([0.0, 1.0, 0.3]), eps_decay=st.sampled_from([0.9, 0.995]),
           T=st.integers(1, 300), record_every=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_property_single_agent(self, m, alpha_mode, eps0, eps_decay, T,
                                   record_every, seed):
        n_opp = m.shape[0]
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(n_opp)) if seed % 2 else np.eye(n_opp)[seed % n_opp]
        assert_same_outputs(SINGLE, single_args(
            m, probs, alpha_mode, eps0, eps_decay, T, record_every, seed))

    @settings(max_examples=60, deadline=None)
    @given(m=GAMES, n_states=st.integers(1, 3), gamma=st.sampled_from([0.0, 0.5, 0.9]),
           alpha_mode=st.integers(0, 2), eps0=st.sampled_from([0.0, 1.0, 0.3]),
           eps_decay=st.sampled_from([0.9, 0.995]), T=st.integers(1, 300),
           window=st.integers(0, 300), record_every=st.integers(1, 40),
           seed=st.integers(0, 2**32 - 1))
    def test_property_mdp(self, m, n_states, gamma, alpha_mode, eps0, eps_decay,
                          T, window, record_every, seed):
        mdp = random_mdp(m, n_states, np.random.default_rng(seed))
        assert_same_outputs(MDP, mdp_args(
            mdp, gamma, alpha_mode, eps0, eps_decay, T, min(window, T),
            record_every, seed))

    # harmonic, gamma 0, epsilon0 1 and up to three chunks of steps: most
    # runs settle, so the settled tail carries the rest of the run

    @settings(max_examples=40, deadline=None)
    @given(m=SMALL_GAMES, eps_decay=st.sampled_from([0.99, 0.999]),
           chunks=st.integers(0, 2), rest=st.integers(1, CHUNK),
           record_every=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
    def test_property_single_frozen_tail(self, m, eps_decay, chunks, rest, record_every,
                                         seed):
        T = chunks * CHUNK + rest
        probs = np.random.default_rng(seed).dirichlet(np.ones(m.shape[0]))
        assert_same_outputs(SINGLE, single_args(
            m, probs, 0, 1.0, eps_decay, T, record_every, seed))

    @settings(max_examples=40, deadline=None)
    @given(m=SMALL_GAMES, n_states=st.integers(1, 3),
           eps_decay=st.sampled_from([0.99, 0.999]), chunks=st.integers(0, 2),
           rest=st.integers(1, CHUNK), window=st.integers(-40, 40),
           record_every=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
    def test_property_mdp_frozen_tail(self, m, n_states, eps_decay, chunks, rest, window,
                                      record_every, seed):
        T = chunks * CHUNK + rest
        mdp = random_mdp(m, n_states, np.random.default_rng(seed))
        # the window starts before, at or after the step Q settles
        settled = tail_start(MDP, mdp_args(mdp, 0.0, 0, 1.0, eps_decay, T, 0,
                                           record_every, seed))
        window_start = min(max(0, (settled or T // 2) + window), T)
        assert_same_outputs(MDP, mdp_args(
            mdp, 0.0, 0, 1.0, eps_decay, T, window_start, record_every, seed))


# -- fictitious play in blocks of one pair ----------------------------------


def tied_game(rows, cols, seed):
    """Entries rounded to 0.1: many rows and columns tie."""
    return np.round(np.random.default_rng(seed).random((rows, cols)), 1)


FP_GAMES = {
    "tied-5x5": tied_game(5, 5, 1),
    "tied-4x7": tied_game(4, 7, 2),
    "tied-9x3": tied_game(9, 3, 3),
    "constant": np.full((4, 5), 0.3),
    "1x6": random_matrix(4, (1, 6)),
    "6x1": random_matrix(5, (6, 1)),
    "1x1": np.array([[0.7]]),
    "random-10x10": random_matrix(6),
}


class TestFictitiousPlayBlocks:
    """The package advances each run of a constant (attack, defense) pair as
    one block; the oracle steps.  Blocks end at check steps, so every cap
    around a check (99, 100, 101) and the first step are cases of their own."""

    @pytest.mark.parametrize("max_iters", [1, 99, 100, 101, 2500])
    @pytest.mark.parametrize("name", sorted(FP_GAMES))
    def test_equals_the_step_loop(self, name, max_iters):
        # no epsilon is below -1: the run goes to its cap
        _, _, iters = assert_same_outputs(FP, both(FP_GAMES[name], max_iters, -1.0, 100))
        assert iters == max_iters

    @pytest.mark.parametrize("name", ["tied-5x5", "random-10x10"])
    def test_stops_on_a_check_boundary(self, name):
        m = FP_GAMES[name]
        _, _, iters = assert_same_outputs(FP, both(m, 100_000, 0.02, 100))
        assert iters < 100_000 and iters % 100 == 0

    def test_a_constant_game_stops_at_the_first_check(self):
        # every pair is an equilibrium: epsilon is 0 at step 10
        _, _, iters = assert_same_outputs(FP, both(FP_GAMES["constant"], 2500, 0.0, 10))
        assert iters == 10

    @pytest.mark.parametrize("size", [
        pytest.param(lambda u, rate, k, cap: cap, id="to-the-check"),
        pytest.param(lambda u, rate, k, cap: 1, id="one-step"),
    ])
    @pytest.mark.parametrize("name", ["tied-5x5", "tied-9x3", "random-10x10"])
    def test_the_rows_decide_where_a_block_ends(self, name, size):
        # whatever size the estimate gives a block, it ends at the first step
        # whose best responses change
        with mock.patch.object(gamesolve, "_hold", size):
            assert_same_outputs(FP, both(FP_GAMES[name], 2500, -1.0, 100))

    def test_long_runs_of_one_pair_take_few_blocks(self):
        # on the random game the pair holds for tens of steps: the package
        # sizes far fewer blocks than it takes steps
        with mock.patch.object(gamesolve, "_hold", wraps=gamesolve._hold) as spy:
            gamesolve._fp_kernel(FP_GAMES["random-10x10"], 2500, 0.0, 100)
        assert spy.call_count < 2 * 2500 / 10


# -- settled self-play --------------------------------------------------------


# rock-paper-scissors, the attacker's rows against the defender's columns:
# each side's best reply to the other's last action cycles, a -> d -> a' ...
# round all three actions
CYCLIC = 0.9 * np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
# (1, 1) is a pure saddle: 0.3 is its column's minimum and its row's maximum
SADDLE = np.array([[0.2, 0.4], [0.1, 0.3]])


@pytest.fixture(scope="module")
def bundled_matrix():
    from gridgame.netmodel import load_ieee33
    from gridgame.resilience import DEFAULT_AHP_MATRIX, ahp_weights, build_payoff_matrix
    from gridgame.scenario import catalog_default
    return build_payoff_matrix(load_ieee33(), catalog_default(),
                               ahp_weights(DEFAULT_AHP_MATRIX)).entries


class TestSettledSelfPlay:
    """Once Q is final in a one-state game the package plays the rest of the
    run in numpy; the oracle steps every episode."""

    def test_maql_on_the_bundled_matrix(self, bundled_matrix):
        # experiments.strategy_policy's maql config, its window the last tenth
        cfg = marl.LearningConfig(epsilon_decay=0.9995)
        T = cfg.episodes
        calls = mdp_args(flat_mdp(bundled_matrix), 0.0, 0, cfg.epsilon0, cfg.epsilon_decay,
                         T, T - T // 10, gamesolve.telemetry_cadence(T))
        assert tail_start(MDP, calls) < CHUNK
        assert_same_outputs(MDP, calls)

    @pytest.mark.parametrize("seed", range(6))
    def test_maql_plays_its_settled_stretch_in_numpy(self, bundled_matrix, seed):
        cfg = marl.LearningConfig(seed=seed, epsilon_decay=0.9995)
        start, played = settled_stretch(lambda: marl.train_multi_agent(bundled_matrix, cfg))
        assert start < CHUNK
        assert played == cfg.episodes - start

    def test_learn_multi_plays_its_settled_stretch_in_numpy(self, tmp_path):
        path = tmp_path / "game.csv"
        PayoffMatrix(entries=random_matrix(15, (20, 20)),
                     attack_ids=tuple(f"A{i}" for i in range(20)),
                     defense_ids=tuple(f"D{j}" for j in range(20))).to_csv(path)
        argv = ["learn", "--method", "multi", "--matrix", str(path), "--iters", "25000",
                "--out", str(tmp_path / "out")]
        start, played = settled_stretch(lambda: cli.main(argv))
        assert start is not None
        assert played == 25_000 - start

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cyclic_game(self, seed):
        calls = mdp_args(flat_mdp(CYCLIC), 0.0, 0, 1.0, 0.999, 2 * CHUNK + 700,
                         CHUNK + 100, 7, seed)
        assert tail_start(MDP, calls) < CHUNK
        assert_same_outputs(MDP, calls)

    def test_pure_saddle_game(self):
        calls = mdp_args(flat_mdp(SADDLE), 0.0, 0, 1.0, 0.999, 2 * CHUNK + 700, 0, 7)
        assert tail_start(MDP, calls) < CHUNK
        assert_same_outputs(MDP, calls)

    def test_settles_mid_chunk(self):
        # rare exploration: Q settles inside the second chunk
        calls = mdp_args(flat_mdp(random_matrix(12, (4, 4))), 0.0, 0, 0.05, 0.9999,
                         3 * CHUNK, 0, 7, seed=2)
        start = tail_start(MDP, calls)
        assert CHUNK < start < 2 * CHUNK
        assert_same_outputs(MDP, calls)

    @pytest.mark.parametrize("after", [1, 700, CHUNK])
    def test_window_inside_the_settled_stretch(self, after):
        m = random_matrix(13, (5, 4))
        start = tail_start(MDP, mdp_args(flat_mdp(m), 0.0, 0, 1.0, 0.999, 2 * CHUNK + 300,
                                         0, 11, 4))
        calls = mdp_args(flat_mdp(m), 0.0, 0, 1.0, 0.999, 2 * CHUNK + 300, start + after,
                         11, 4)
        assert_same_outputs(MDP, calls)

    @pytest.mark.parametrize("alpha_mode, gamma", [(1, 0.0), (2, 0.0), (0, 0.5)])
    def test_other_schedules_and_gamma_keep_stepping(self, alpha_mode, gamma):
        calls = mdp_args(flat_mdp(random_matrix(14, (3, 3))), gamma, alpha_mode, 1.0,
                         0.999, CHUNK + 500, CHUNK, 7)
        assert settled_stretch(lambda: MDP[1](*calls[1])) == (None, 0)
        assert_same_outputs(MDP, calls)

    def test_several_states_keep_the_step_loop(self):
        # the state drawn depends on play; the tail settles in the step loop
        calls = CASES["mdp-frozen-tail"][1]
        start, played = settled_stretch(lambda: MDP[1](*calls[1]))
        assert start is not None and played == 0

    @settings(max_examples=25, deadline=None)
    @given(m=GAMES, eps_decay=st.sampled_from([0.99, 0.999]), chunks=st.integers(0, 1),
           rest=st.integers(1, CHUNK), window=st.floats(0.0, 1.0),
           record_every=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
    def test_property_one_state(self, m, eps_decay, chunks, rest, window, record_every,
                                seed):
        T = chunks * CHUNK + rest
        assert_same_outputs(MDP, mdp_args(flat_mdp(m), 0.0, 0, 1.0, eps_decay, T,
                                          int(window * T), record_every, seed))


# -- settled telemetry --------------------------------------------------------


def settled_steps_loop(telemetry, record_every, t0, epsilons, cells, rewards, visits):
    """_settled_steps one step at a time."""
    for i, cell in enumerate(cells.tolist()):
        visits[cell] += 1
        t = t0 + i
        if (t + 1) % record_every == 0:
            telemetry[t // record_every, :4] = (
                t + 1, epsilons[i], 1.0 / visits[cell], rewards[cell])


@settings(max_examples=300, deadline=None)
@given(n_cells=st.integers(1, 12), record_every=st.integers(1, 40), t0=st.integers(0, 500),
       cells=st.lists(st.integers(0, 11), min_size=1, max_size=300), one_cell=st.booleans(),
       before=st.lists(st.integers(0, 10**6), min_size=12, max_size=12))
# no recorded step: 5 steps, the first recorded one 9 steps on
@example(n_cells=3, record_every=10, t0=0, cells=[0, 1, 2, 1, 0], one_cell=False,
         before=[0] * 12)
# the first step is recorded, and so is the last
@example(n_cells=4, record_every=10, t0=9, cells=list(range(4)) * 5 + [1], one_cell=False,
         before=[3] * 12)
# only the last step is recorded
@example(n_cells=2, record_every=10, t0=3, cells=[1, 0, 1, 1, 0, 0, 1], one_cell=False,
         before=[5, 0] + [0] * 10)
# every step on one cell, counted on from 7 earlier visits
@example(n_cells=5, record_every=3, t0=0, cells=[2] * 40, one_cell=True, before=[7] * 12)
def test_property_settled_steps_count_as_a_loop(n_cells, record_every, t0, cells, one_cell,
                                                before):
    cells = np.array(cells, dtype=np.int64) % n_cells
    if one_cell:
        cells[:] = cells[0]
    rng = np.random.default_rng(len(cells))
    epsilons, rewards = rng.random(len(cells)), rng.random(n_cells) * 2.0 - 1.0
    rows = (t0 + len(cells)) // record_every + 1
    ref = (np.zeros((rows, 5)), np.array(before[:n_cells], dtype=np.int64))
    got = copy.deepcopy(ref)
    settled_steps_loop(ref[0], record_every, t0, epsilons, cells, rewards, ref[1])
    marl._settled_steps(got[0], record_every, t0, epsilons, cells, rewards, got[1])
    for r, g in zip(ref, got):
        assert r.dtype == g.dtype and r.tobytes() == g.tobytes()
