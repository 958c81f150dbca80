"""Every build of a kernel must agree bit for bit.

Kernels take pre-drawn uniforms instead of RNG handles precisely so the
builds walk identical sample paths.  The numba parity tests pin that
contract on every registered kernel through its public entry point; the
CPython builds, which the numpy backend runs, are compared against the array
functions they were derived from (the numba source) output by output.
"""
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridgame import backend
from gridgame import gamesolve, marl


@pytest.fixture(autouse=True)
def restore_backend():
    before = backend.active_backend()
    yield
    backend.set_backend(before)


def both(workload):
    results = {}
    for name in ("numpy", "numba"):
        if name == "numba":
            pytest.importorskip("numba")
        backend.set_backend(name)
        results[name] = workload()
    return results["numpy"], results["numba"]


def random_matrix(seed, shape=(10, 10)):
    return np.random.default_rng(seed).random(shape)


class TestSelection:
    def test_registry_contents(self):
        assert backend.registered_kernels() == [
            "_fp_kernel", "_mdp_kernel", "_rm_kernel", "_single_kernel"]

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError):
            backend.set_backend("cuda")

    def test_round_trip(self):
        backend.set_backend("numpy")
        assert backend.active_backend() == "numpy"
        pytest.importorskip("numba")
        backend.set_backend("numba")
        assert backend.active_backend() == "numba"


class TestParity:
    def test_fictitious_play(self):
        m = random_matrix(0)
        a, b = both(lambda: gamesolve.nash_fictitious_play(m, max_iters=3000))
        assert np.array_equal(a.attacker.probs, b.attacker.probs)
        assert np.array_equal(a.defender.probs, b.defender.probs)
        assert a.game_value == b.game_value

    def test_regret_matching(self):
        m = random_matrix(1)
        a, b = both(lambda: gamesolve.regret_matching(m, T=5000, seed=7))
        assert np.array_equal(a.attacker.probs, b.attacker.probs)
        assert np.array_equal(a.defender.probs, b.defender.probs)
        assert a.trajectory == b.trajectory

    def test_single_agent_training(self):
        m = random_matrix(2)
        opp = gamesolve.MixedStrategy(np.full(10, 0.1))
        cfg = marl.LearningConfig(episodes=20_000, seed=3)
        a, b = both(lambda: marl.train_single_agent(m, opp, cfg))
        assert a.greedy == b.greedy
        assert np.array_equal(np.asarray(a.q_rows), np.asarray(b.q_rows))

    def test_mdp_training(self):
        m = random_matrix(3, (4, 4))
        mdp = marl.stage_mdp_default(m)
        cfg = marl.LearningConfig(episodes=20_000, seed=4, gamma=0.8,
                                  alpha_schedule="power", alpha_power=0.6)
        a, b = both(lambda: marl.mdp_train(mdp, cfg))
        assert np.array_equal(a.values, b.values)
        assert a.attacker.greedy == b.attacker.greedy
        assert a.defender.greedy == b.defender.greedy

    def test_self_play(self):
        m = random_matrix(4, (6, 6))
        cfg = marl.LearningConfig(episodes=20_000, seed=5,
                                  epsilon_decay=0.9995)
        a, b = both(lambda: marl.train_multi_agent(m, cfg))
        assert a.value == b.value
        assert a.converged == b.converged


class TestDispatcher:
    def test_py_func_exposed(self):
        # plain build stays reachable for inspection regardless of backend
        from gridgame.gamesolve import _fp_kernel
        assert callable(_fp_kernel.py_func)
        m = np.array([[1.0, 0.0], [0.0, 1.0]])
        pa, pd, iters, eps = _fp_kernel.py_func(m, 100, 0.0, 100)
        assert pa.sum() == pytest.approx(1.0)
        assert iters == 100

    def test_env_var_honored_at_import(self):
        # a fresh interpreter started with GRIDGAME_BACKEND=numpy must not jit
        out = child_backend("numpy")
        assert out.stdout.strip() == "numpy"
        assert out.stderr == ""

    def test_unset_env_selects_default_quietly(self):
        out = child_backend(None)
        assert out.stdout.strip() == ("numba" if backend.HAS_NUMBA else "numpy")
        assert out.stderr == ""

    @pytest.mark.skipif(backend.HAS_NUMBA, reason="numba is installed")
    def test_explicit_numba_without_numba_warns(self):
        out = child_backend("numba")
        assert out.stdout.strip() == "numpy"
        assert "numba is not installed" in out.stderr

    def test_numpy_backend_runs_cpython_builds(self, monkeypatch):
        # with every array function broken the public API still runs
        def broken(*args):
            raise AssertionError("array function called on the numpy backend")

        for k in GAME_KERNELS:
            monkeypatch.setattr(k, "py_func", broken)
        backend.set_backend("numpy")
        run_public_api()
        monkeypatch.setattr(gamesolve._rm_kernel, "cpython", broken)
        with pytest.raises(AssertionError, match="array function"):
            gamesolve.regret_matching(random_matrix(0), T=10, seed=0)


def child_backend(value):
    """active_backend() and stderr of a fresh interpreter; None unsets the variable."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(backend.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "GRIDGAME_BACKEND"}
    if value is not None:
        env["GRIDGAME_BACKEND"] = value
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", "import gridgame.backend as b; print(b.active_backend())"],
        env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out


GAME_KERNELS = (gamesolve._fp_kernel, gamesolve._rm_kernel,
                marl._single_kernel, marl._mdp_kernel)


def run_public_api():
    m = random_matrix(5, (4, 3))
    cfg = marl.LearningConfig(episodes=500, seed=1)
    gamesolve.nash_fictitious_play(m, max_iters=500)
    gamesolve.regret_matching(m, T=500, seed=2)
    marl.train_single_agent(m, gamesolve.MixedStrategy.uniform(4), cfg)
    marl.train_multi_agent(m, cfg)
    marl.mdp_train(marl.stage_mdp_default(m), cfg)


# -- CPython builds against the array functions -------------------------------


def assert_same_outputs(kernel, args):
    ref = kernel.py_func(*args)
    got = kernel.cpython(*args)
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
    "rm-10x10": (gamesolve._rm_kernel, rm_args(random_matrix(1), 3001, 7)),
    "rm-1x1": (gamesolve._rm_kernel, rm_args(np.array([[0.4]]), 50, 3)),
    "rm-tied": (gamesolve._rm_kernel, rm_args(TIED, 500, 1)),
    "fp-10x10": (gamesolve._fp_kernel, (random_matrix(2), 3000, 0.0, 100)),
    "fp-tied": (gamesolve._fp_kernel, (TIED, 301, 0.0, 7)),
    "single-harmonic-defender": (marl._single_kernel, single_args(
        random_matrix(3), np.full(10, 0.1), True, 0, 1.0, 0.999, 5000, 11)),
    "single-constant-attacker": (marl._single_kernel, single_args(
        random_matrix(4, (5, 8)), np.full(8, 0.125), False, 1, 1.0, 0.99, 3000, 7)),
    "single-power-greedy": (marl._single_kernel, single_args(
        TIED, np.array([0.0, 1.0, 0.0]), True, 2, 0.0, 0.9, 400, 1)),
    "maql": (marl._mdp_kernel, mdp_args(
        flat_mdp(random_matrix(5)), 0.0, 0, 1.0, 0.9995, 5000, 4500, 5)),
    "mdp-power-gamma": (marl._mdp_kernel, mdp_args(
        marl.stage_mdp_default(random_matrix(6, (4, 4))), 0.8, 2, 1.0, 0.999,
        4000, 3600, 9)),
    "mdp-constant-tied": (marl._mdp_kernel, mdp_args(
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


class TestCPythonBuilds:
    def test_every_game_kernel_has_one(self):
        assert all(callable(k.cpython) for k in GAME_KERNELS)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equals_array_function(self, case):
        kernel, args = CASES[case]
        assert_same_outputs(kernel, args)

    def test_fp_stops_early_on_tol(self):
        m = random_matrix(7, (6, 6))
        pa, pd, iters, eps = assert_same_outputs(
            gamesolve._fp_kernel, (m, 100_000, 0.05, 10))
        assert iters < 100_000
        assert eps <= 0.05

    @settings(max_examples=60, deadline=None)
    @given(m=GAMES, T=st.integers(1, 300), record_every=st.integers(1, 40))
    def test_property_regret_matching(self, m, T, record_every):
        assert_same_outputs(gamesolve._rm_kernel, rm_args(m, T, record_every))

    @settings(max_examples=60, deadline=None)
    @given(m=GAMES, max_iters=st.integers(1, 300),
           tol=st.sampled_from([0.0, 0.02, 0.2]), check_every=st.integers(1, 40))
    def test_property_fictitious_play(self, m, max_iters, tol, check_every):
        assert_same_outputs(gamesolve._fp_kernel, (m, max_iters, tol, check_every))

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
        assert_same_outputs(marl._single_kernel, single_args(
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
        assert_same_outputs(marl._mdp_kernel, mdp_args(
            mdp, gamma, alpha_mode, eps0, eps_decay, T, min(window, T),
            record_every, seed))
