"""Q-learning on the attack/defense game, stateless and state-based.

Two training modes, kept deliberately separate:

* stateless play on the payoff matrix (``train_single_agent``, the
  defender against a stationary mixed attacker, and ``train_multi_agent``,
  both sides in self-play), where the update has no bootstrap term, so both
  reject a config whose gamma is not 0;
* a small stage MDP (``mdp_train``) where a factored transition model
  couples attack propagation with defense recovery and the update carries
  the usual gamma * next_best term.

Both trainers run on pre-drawn uniforms, so a seed pins the whole
trajectory bit for bit.  The "anticipated opponent move" used for greedy
selection and for the bootstrap target is the opponent's most recently
observed action.  Trainers write no files: each returned ``LearnedPolicy``
carries its run's telemetry rows, and the CLI writes them out.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from itertools import accumulate

import numpy as np

from .errors import ConfigError
from .gamesolve import MixedStrategy, _entries

ALPHA_SCHEDULES = ("harmonic", "constant", "power")

# telemetry cadence: at most ~1000 rows per run regardless of episode count
TELEMETRY_ROWS = 1000

# rows converted to Python lists per chunk: a whole (100000, 5) array as
# lists adds ~27 MB of peak memory, a 512-row chunk about 0.1 MB
ROW_CHUNK = 512


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class LearningConfig:
    """Schedules and horizon for one training run.

    harmonic (1/visits) and power (visits^-p with p in (0.5, 1]) step sizes
    satisfy the usual stochastic-approximation conditions (sum alpha infinite,
    sum alpha^2 finite); a constant step size does not, and the violation is
    recorded in :meth:`provenance` rather than raised.
    """

    alpha_schedule: str = "harmonic"
    alpha_constant: float = 0.1
    alpha_power: float = 1.0
    epsilon0: float = 1.0
    epsilon_decay: float = 0.9999
    gamma: float = 0.0
    episodes: int = 100_000
    seed: int = 0

    def __post_init__(self):
        # stored as int and float, so equal configs write equal provenance
        for name in ("episodes", "seed"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("alpha_constant", "alpha_power", "epsilon0", "epsilon_decay", "gamma"):
            value = getattr(self, name)
            if (not isinstance(value, numbers.Real) or isinstance(value, bool)
                    or not math.isfinite(value)):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.alpha_schedule not in ALPHA_SCHEDULES:
            raise ConfigError(
                f"alpha_schedule must be one of {ALPHA_SCHEDULES}, "
                f"got {self.alpha_schedule!r}")
        if self.alpha_schedule == "constant" and not 0.0 < self.alpha_constant <= 1.0:
            raise ConfigError(f"constant alpha must be in (0, 1], got {self.alpha_constant}")
        if self.alpha_schedule == "power" and not 0.5 < self.alpha_power <= 1.0:
            raise ConfigError(
                f"power schedule exponent must be in (0.5, 1], got {self.alpha_power}")
        if not 0.0 <= self.epsilon0 <= 1.0:
            raise ConfigError(f"epsilon0 must be in [0, 1], got {self.epsilon0}")
        if not 0.0 < self.epsilon_decay < 1.0:
            raise ConfigError(f"epsilon_decay must be in (0, 1), got {self.epsilon_decay}")
        if not 0.0 <= self.gamma < 1.0:
            raise ConfigError(f"gamma must be in [0, 1), got {self.gamma}")
        if self.episodes < 1:
            raise ConfigError(f"episodes must be positive, got {self.episodes}")

    def robbins_monro_ok(self) -> bool:
        return self.alpha_schedule != "constant"

    def provenance(self) -> dict:
        """Every field, plus whether the step sizes meet Robbins-Monro."""
        return {**asdict(self), "robbins_monro": (
            "ok" if self.robbins_monro_ok()
            else "violated: constant step size has divergent sum of squares")}

    def _alpha_mode(self) -> int:
        return ALPHA_SCHEDULES.index(self.alpha_schedule)


# ---------------------------------------------------------------------------
# learned-policy export


@dataclass(frozen=True)
class LearnedPolicy:
    """Expected-Q rows per context, and the greedy play they give.

    ``q_rows[s][a]`` is the learner's Q for action a in context s averaged
    over the opponent frequencies observed during training.  ``telemetry``
    holds the run's (episode, epsilon, alpha, reward, q_max_delta) rows; the
    two sides of a self-play run share them.
    """

    side: str
    q_rows: tuple
    episodes: int
    provenance: dict = field(compare=False)
    telemetry: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def greedy(self) -> tuple:
        """Per context, the action that optimizes its Q row: the defender's
        argmax, the attacker's argmin, the lowest index on ties."""
        pick = np.argmax if self.side == "defender" else np.argmin
        return tuple(int(pick(row)) for row in self.q_rows)

    def greedy_action(self, context: int = 0) -> int:
        return self.greedy[context]

    def to_json(self) -> dict:
        return {
            "side": self.side,
            "episodes": self.episodes,
            "contexts": [
                {"context": s, "greedy": int(g), "q_row": [float(v) for v in row]}
                for s, (g, row) in enumerate(zip(self.greedy, self.q_rows))
            ],
            "config": self.provenance,
        }


def _policy_from(side, q, opp_freq, episodes, provenance, telemetry) -> LearnedPolicy:
    # q: (S, own, opp); opp_freq: (S, opp) rows summing to 1
    rows = np.einsum("soj,sj->so", q, opp_freq)
    q_rows = tuple(tuple(float(v) for v in r) for r in rows)
    return LearnedPolicy(side=side, q_rows=q_rows, episodes=episodes,
                         provenance=provenance, telemetry=telemetry)


def _freq(counts: np.ndarray, fallback: np.ndarray | None = None) -> np.ndarray:
    """Row-normalize per-state action counts; empty rows fall back."""
    counts = counts.astype(float)
    out = np.empty_like(counts)
    for s in range(counts.shape[0]):
        total = counts[s].sum()
        if total > 0:
            out[s] = counts[s] / total
        elif fallback is not None and fallback[s].sum() > 0:
            out[s] = fallback[s] / fallback[s].sum()
        else:
            out[s] = 1.0 / counts.shape[1]
    return out


# ---------------------------------------------------------------------------
# kernels


# alpha_mode is the schedule's index in ALPHA_SCHEDULES: 0 harmonic,
# 1 constant, 2 power


def iter_rows(arr):
    """Yield the rows of a 2-d array as lists of Python floats, chunk by chunk."""
    for start in range(0, arr.shape[0], ROW_CHUNK):
        yield from arr[start:start + ROW_CHUNK].tolist()


def _greedy(col, pick) -> int:
    # lowest index among the extremes (Q values are finite)
    return col.index(pick(col))


def _first_above(cdf):
    """Running maxima of cdf; bisect_right(them, u) is the first k with u < cdf[k].

    That is the answer of a linear scan of cdf, also where rounding or a
    -1e-12 probability makes cdf dip; the maxima are sorted for bisection.
    """
    return list(accumulate(cdf, max))


def _single_kernel(m, opp_cdf, alpha_mode, alpha_c, alpha_p,
                   eps0, eps_decay, uniforms, record_every):
    """Stateless Q-learning of the defender against a sampled attacker.

    uniforms is (episodes, 3): attack draw, explore coin, explore pick.
    Q and visits are held per attack, and the greedy index of each attack's
    column is cached until a cell of that column changes value.  Under the
    harmonic schedule a cell is set to its reward on its first visit and
    never moves after, so the greedy scans stop once every cell was seen.
    """
    episodes = uniforms.shape[0]
    n_opp, n_own = m.shape
    reward_of = m.tolist()  # [opp][own]
    cdf = _first_above(opp_cdf[:n_opp - 1].tolist())
    q = [[0.0] * n_own for _ in range(n_opp)]
    visits = [[0] * n_own for _ in range(n_opp)]
    greedy = [0] * n_opp  # an all-zero column's greedy action is 0
    opp_counts = [0] * n_opp
    n_rec = episodes // record_every
    telemetry = np.zeros((n_rec, 5))
    rec = 0
    opp_last = 0
    eps = eps0
    for t, (u_opp, u_coin, u_pick) in enumerate(iter_rows(uniforms)):
        opp = bisect_right(cdf, u_opp)
        if u_coin < eps:
            own = int(u_pick * n_own)
            if own == n_own:
                own -= 1
        else:
            own = greedy[opp_last]
            if own is None:
                own = greedy[opp_last] = _greedy(q[opp_last], max)
        reward = reward_of[opp][own]
        count = visits[opp][own] + 1
        visits[opp][own] = count
        if alpha_mode == 0:
            alpha = 1.0 / count
        elif alpha_mode == 1:
            alpha = alpha_c
        else:
            alpha = float(count) ** (-alpha_p)
        col = q[opp]
        old = col[own]
        delta = alpha * (reward - old)
        col[own] = old + delta
        if col[own] != old:
            greedy[opp] = None
        opp_counts[opp] += 1
        opp_last = opp
        if (t + 1) % record_every == 0 and rec < n_rec:
            telemetry[rec] = (t + 1, eps, alpha, reward, abs(delta))
            rec += 1
        eps *= eps_decay
    return (np.array(q).T.copy(), np.array(visits, dtype=np.int64).T.copy(),
            np.array(opp_counts, dtype=np.int64), telemetry)


def _mdp_kernel(rewards, transitions, gamma, alpha_mode, alpha_c, alpha_p,
                eps0, eps_decay, uniforms, window_start, record_every):
    """Simultaneous Q-learning of both sides on a stage MDP.

    uniforms is (episodes, 5): attacker coin, attacker pick, defender coin,
    defender pick, state transition.  Each side's Q and visits are held per
    (state, opponent action) column with a cached greedy index, as in
    _single_kernel; the cache serves both
    the greedy pick and the bootstrap target, which is the column's extreme.
    """
    episodes = uniforms.shape[0]
    n_states, n_att, n_def = rewards.shape
    reward_of = rewards.tolist()  # [s][a][d]
    # np.cumsum adds left to right, as a linear scan of each row does
    next_state = [[[_first_above(row[:-1]) for row in by_d] for by_d in by_a]
                  for by_a in np.cumsum(transitions, axis=3).tolist()]
    qa = [[[0.0] * n_att for _ in range(n_def)] for _ in range(n_states)]  # [s][d][a]
    qd = [[[0.0] * n_def for _ in range(n_att)] for _ in range(n_states)]  # [s][a][d]
    visits_a = [[[0] * n_att for _ in range(n_def)] for _ in range(n_states)]
    visits_d = [[[0] * n_def for _ in range(n_att)] for _ in range(n_states)]
    greedy_a = [[0] * n_def for _ in range(n_states)]
    greedy_d = [[0] * n_att for _ in range(n_states)]
    a_counts = [[0] * n_att for _ in range(n_states)]
    d_counts = [[0] * n_def for _ in range(n_states)]
    a_counts_win = [[0] * n_att for _ in range(n_states)]
    d_counts_win = [[0] * n_def for _ in range(n_states)]
    n_rec = episodes // record_every
    telemetry = np.zeros((n_rec, 5))
    rec = 0
    s = 0
    a_last = 0
    d_last = 0
    reward_win = 0.0
    win_n = 0
    eps = eps0
    for t, (u_ac, u_ap, u_dc, u_dp, u_s) in enumerate(iter_rows(uniforms)):
        if u_ac < eps:
            a = int(u_ap * n_att)
            if a == n_att:
                a -= 1
        else:
            a = greedy_a[s][d_last]
            if a is None:
                a = greedy_a[s][d_last] = _greedy(qa[s][d_last], min)
        if u_dc < eps:
            d = int(u_dp * n_def)
            if d == n_def:
                d -= 1
        else:
            d = greedy_d[s][a_last]
            if d is None:
                d = greedy_d[s][a_last] = _greedy(qd[s][a_last], max)
        reward = reward_of[s][a][d]
        s_next = bisect_right(next_state[s][a][d], u_s)
        # bootstrap targets use the opponent action just observed
        k = greedy_a[s_next][d]
        if k is None:
            k = greedy_a[s_next][d] = _greedy(qa[s_next][d], min)
        next_a = qa[s_next][d][k]
        k = greedy_d[s_next][a]
        if k is None:
            k = greedy_d[s_next][a] = _greedy(qd[s_next][a], max)
        next_d = qd[s_next][a][k]
        count = visits_a[s][d][a] + 1
        visits_a[s][d][a] = count
        if alpha_mode == 0:
            alpha_a = 1.0 / count
        elif alpha_mode == 1:
            alpha_a = alpha_c
        else:
            alpha_a = float(count) ** (-alpha_p)
        col = qa[s][d]
        old = col[a]
        delta_a = alpha_a * (reward + gamma * next_a - old)
        col[a] = old + delta_a
        if col[a] != old:
            greedy_a[s][d] = None
        count = visits_d[s][a][d] + 1
        visits_d[s][a][d] = count
        if alpha_mode == 0:
            alpha_d = 1.0 / count
        elif alpha_mode == 1:
            alpha_d = alpha_c
        else:
            alpha_d = float(count) ** (-alpha_p)
        col = qd[s][a]
        old = col[d]
        delta_d = alpha_d * (reward + gamma * next_d - old)
        col[d] = old + delta_d
        if col[d] != old:
            greedy_d[s][a] = None
        a_counts[s][a] += 1
        d_counts[s][d] += 1
        if t >= window_start:
            a_counts_win[s][a] += 1
            d_counts_win[s][d] += 1
            reward_win += reward
            win_n += 1
        if (t + 1) % record_every == 0 and rec < n_rec:
            d1 = abs(delta_a)
            d2 = abs(delta_d)
            telemetry[rec] = (t + 1, eps, alpha_d, reward, d1 if d1 > d2 else d2)
            rec += 1
        a_last = a
        d_last = d
        s = s_next
        eps *= eps_decay
    value = reward_win / win_n if win_n > 0 else 0.0

    def table(rows):
        # [s][opp][own] lists -> (states, own, opp) array
        return np.array(rows, dtype=np.float64).transpose(0, 2, 1).copy()

    counts = [np.array(c, dtype=np.int64)
              for c in (a_counts, d_counts, a_counts_win, d_counts_win)]
    return (table(qa), table(qd), *counts, value, telemetry)


# ---------------------------------------------------------------------------
# stateless trainers


def _check_bounded(rewards) -> None:
    if np.abs(rewards).max() > 1.0 + 1e-12:
        raise ConfigError("rewards must be bounded by 1 in absolute value")


def _check_stateless(config: LearningConfig) -> None:
    if config.gamma != 0.0:
        raise ConfigError(
            f"gamma must be 0 for stateless learning (there is no next state to "
            f"bootstrap from), got {config.gamma}; mdp_train takes a gamma")


def train_single_agent(matrix, opponent: MixedStrategy,
                       config: LearningConfig) -> LearnedPolicy:
    """Stateless Q-learning of the defender against a stationary mixed attacker.

    The defender's table is keyed (defense, attack); with the harmonic
    schedule each cell is a running average of the rewards seen for that
    joint pair.  The exported greedy defense maximizes the Q row averaged
    under the attacker's empirical frequencies over the whole run.
    """
    _check_stateless(config)
    m = _entries(matrix)
    _check_bounded(m)
    if len(opponent.probs) != m.shape[0]:
        raise ConfigError(
            f"opponent mix has {len(opponent.probs)} entries, expected {m.shape[0]}")
    opp_cdf = np.cumsum(opponent.probs)
    uniforms = np.random.default_rng(config.seed).random((config.episodes, 3))
    record_every = max(1, config.episodes // TELEMETRY_ROWS)
    q, _visits, opp_counts, telemetry = _single_kernel(
        m, opp_cdf, config._alpha_mode(),
        config.alpha_constant, config.alpha_power,
        config.epsilon0, config.epsilon_decay, uniforms, record_every)
    freq = _freq(opp_counts[None, :])
    prov = config.provenance()
    prov["mode"] = "single-agent"
    prov["opponent"] = [float(p) for p in opponent.probs]
    return _policy_from("defender", q[None], freq, config.episodes, prov, telemetry)


@dataclass(frozen=True)
class SelfPlayResult:
    """Joint outcome of multi-agent training.

    ``value`` is the average reward over the final tenth of the run.
    ``converged`` is True only when the joint greedy pair is a pure saddle
    point of the payoff matrix; cycling play (no pure equilibrium) reports
    False and the time-averaged value still stands.
    """

    attacker: LearnedPolicy
    defender: LearnedPolicy
    value: float
    converged: bool


def train_multi_agent(matrix, config: LearningConfig) -> SelfPlayResult:
    """Simultaneous stateless Q-learning for both sides.

    Each episode both agents act epsilon-greedily against the opponent's
    previous action and both tables update on the same observed joint play.
    config.gamma must be 0; the bootstrapped form lives in mdp_train.
    Greedy exports weight Q rows by the opponent frequencies over the final
    tenth of the run, after exploration has decayed.
    """
    _check_stateless(config)
    m = _entries(matrix)
    mdp = StageMdp(
        labels=("stateless",),
        rewards=m[None],
        transitions=np.ones((1, m.shape[0], m.shape[1], 1)),
    )
    result = mdp_train(mdp, config, _mode="multi-agent")
    attacker, defender = result.attacker, result.defender
    i, j = attacker.greedy[0], defender.greedy[0]
    saddle = (m[i, j] <= m[:, j].min() + 1e-12) and (m[i, j] >= m[i, :].max() - 1e-12)
    return SelfPlayResult(attacker=attacker, defender=defender,
                          value=result.values[0], converged=bool(saddle))


# ---------------------------------------------------------------------------
# stage MDP


@dataclass(frozen=True, eq=False)
class StageMdp:
    """Finite joint-action MDP over grid degradation states.

    rewards: (states, attacks, defenses) in [-1, 1]; transitions:
    (states, attacks, defenses, states) with rows summing to 1.
    """

    labels: tuple
    rewards: np.ndarray
    transitions: np.ndarray

    def __post_init__(self):
        rewards = np.ascontiguousarray(np.asarray(self.rewards, dtype=float))
        transitions = np.ascontiguousarray(np.asarray(self.transitions, dtype=float))
        object.__setattr__(self, "rewards", rewards)
        object.__setattr__(self, "transitions", transitions)
        n = len(self.labels)
        if rewards.ndim != 3 or rewards.shape[0] != n:
            raise ConfigError(f"rewards must be (states, attacks, defenses) with "
                              f"{n} states, got {rewards.shape}")
        if transitions.shape != rewards.shape + (n,):
            raise ConfigError(f"transitions must be {rewards.shape + (n,)}, "
                              f"got {transitions.shape}")
        if not (np.isfinite(rewards).all() and np.isfinite(transitions).all()):
            raise ConfigError("rewards and transitions must be finite")
        _check_bounded(rewards)
        if np.any(transitions < -1e-12):
            raise ConfigError("transition probabilities must be non-negative")
        row_sums = transitions.sum(axis=3)
        if np.abs(row_sums - 1.0).max() > 1e-9:
            raise ConfigError("every transition row must sum to 1")

    @property
    def n_states(self) -> int:
        return len(self.labels)


# the default stage MDP: per-state degrade probability (normal, degraded),
# recovery probability under an active defense, per-state reward scale
P_DEGRADE = (0.9, 0.5)
P_RECOVER = 0.7
REWARD_SCALE = (1.0, 0.7, 0.4)


def stage_mdp_default(matrix, defense_active=None) -> StageMdp:
    """Three-state degradation chain driven by the payoff matrix.

    States normal/degraded/critical.  Each step two independent factored
    coins fire: the physical one degrades the grid one level (probability
    P_DEGRADE[state] while not yet critical), the cyber one recovers one
    level (probability P_RECOVER when the played defense is active, by
    default every defense).  Rewards are the matrix entries scaled by
    REWARD_SCALE, down as the state worsens.
    """
    m = _entries(matrix)
    n_att, n_def = m.shape
    labels = ("normal", "degraded", "critical")
    if defense_active is None:
        defense_active = np.ones(n_def, dtype=bool)
    defense_active = np.asarray(defense_active, dtype=bool)
    if defense_active.shape != (n_def,):
        raise ConfigError(f"defense_active must have shape ({n_def},)")
    rewards = np.asarray(REWARD_SCALE)[:, None, None] * m[None]
    transitions = np.zeros((3, n_att, n_def, 3))
    for s in range(3):
        up = P_DEGRADE[s] if s < 2 else 0.0
        for j in range(n_def):
            down = P_RECOVER if defense_active[j] else 0.0
            to_up = up * (1.0 - down)
            to_down = (1.0 - up) * down
            if s == 0:
                to_down = 0.0  # recovery from normal stays put
                stay = 1.0 - to_up
            elif s == 2:
                stay = 1.0 - to_down
            else:
                stay = 1.0 - to_up - to_down
            transitions[s, :, j, s] = stay
            if s < 2:
                transitions[s, :, j, s + 1] = to_up
            if s > 0:
                transitions[s, :, j, s - 1] = to_down
    return StageMdp(labels=labels, rewards=rewards, transitions=transitions)


@dataclass(frozen=True)
class MdpTrainResult:
    attacker: LearnedPolicy
    defender: LearnedPolicy
    values: tuple


def mdp_train(mdp: StageMdp, config: LearningConfig,
              _mode: str = "mdp") -> MdpTrainResult:
    """State-based simultaneous Q-learning on a StageMdp.

    Bootstrap targets anticipate the opponent repeating its just-observed
    action.  The per-state value estimate is the defender's learned Q at the
    joint greedy pair.  A single-state mdp with gamma=0 consumes uniforms
    identically to train_multi_agent, so the two match bit for bit.
    """
    uniforms = np.random.default_rng(config.seed).random((config.episodes, 5))
    record_every = max(1, config.episodes // TELEMETRY_ROWS)
    window_start = config.episodes - max(1, config.episodes // 10)
    qa, qd, a_counts, d_counts, a_win, d_win, value, telemetry = _mdp_kernel(
        mdp.rewards, mdp.transitions, config.gamma, config._alpha_mode(),
        config.alpha_constant, config.alpha_power,
        config.epsilon0, config.epsilon_decay, uniforms,
        window_start, record_every)
    prov = config.provenance()
    prov["mode"] = _mode
    prov["states"] = list(mdp.labels)
    attacker = _policy_from("attacker", qa, _freq(d_win, fallback=d_counts),
                            config.episodes, prov, telemetry)
    defender = _policy_from("defender", qd, _freq(a_win, fallback=a_counts),
                            config.episodes, prov, telemetry)
    values = []
    for s in range(mdp.n_states):
        if _mode == "multi-agent":
            values.append(float(value))
        else:
            values.append(float(qd[s, defender.greedy[s], attacker.greedy[s]]))
    return MdpTrainResult(attacker=attacker, defender=defender, values=tuple(values))


# ---------------------------------------------------------------------------
# sample-complexity calculator


def pac_sample_bound(states: int, actions: int, horizon: int,
                     gamma: float, eps: float, delta: float) -> float:
    """Worst-case sample count for an eps-accurate policy, constant factor 1.

        N = S * A * H^4 * log(S*A*H / delta) / ((1 - gamma)^6 * eps^2)

    A planning heuristic, not a guarantee: the leading constant of the
    underlying bound is unspecified, so this evaluates it as 1.
    """
    if min(states, actions, horizon) <= 0:
        raise ConfigError("states, actions, horizon must be positive")
    if not 0.0 < gamma < 1.0:
        raise ConfigError(f"gamma must be in (0, 1), got {gamma}")
    if not 0.0 < eps < 1.0 or not 0.0 < delta < 1.0:
        raise ConfigError("eps and delta must be in (0, 1)")
    n = states * actions * horizon ** 4
    return n * math.log(states * actions * horizon / delta) / ((1.0 - gamma) ** 6 * eps ** 2)
