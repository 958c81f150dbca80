"""Q-learning on the attack/defense game, stateless and state-based.

Two training modes, kept deliberately separate:

* stateless play on the payoff matrix (``train_single_agent``, the
  defender against a stationary mixed attacker, and ``train_multi_agent``,
  both sides in self-play), where the update has no bootstrap term, so both
  reject a config whose gamma is not 0;
* a small stage MDP (``mdp_train``) where a factored transition model
  couples attack propagation with defense recovery and the update carries
  the usual gamma * next_best term.

The kernels take the run's LearningConfig: its schedule, exploration,
gamma, episode count and seed.  They draw their uniforms from a generator
seeded by it, DRAW_CHUNK steps at a time, so a seed pins the whole
trajectory bit for bit and memory does not grow with the episode count.
Telemetry rows come every gamesolve.telemetry_cadence(episodes) steps, as
regret matching's do.  The "anticipated opponent
move" used for greedy selection and for the bootstrap target is the
opponent's most recently observed action.

Each step is one flat cell of the joint play, which indexes the rewards,
the transition rows and the visit counts; the stage MDP keeps one visit
count per cell, which gives both sides' step size.  The step loop only
picks actions and moves Q.  Numpy does the counting, once per chunk of
cells: the window's counts and reward.  The action counts of the run are
the visits summed over the opponent's actions.

Under the harmonic schedule (alpha = 1/visits) with gamma 0 a cell's target
is its reward, which does not depend on Q: the first visit sets the cell to
it and every later update adds alpha * 0.  So once every cell was visited no
Q value, and no greedy action, can change again.  The kernels then stop
updating and only pick the greedy actions of the rest of the run, whose
cells numpy counts as the loop would, which ends in the same bits as
stepping on.  The single-agent attacker is drawn apart from play, so numpy
also picks the defender's settled actions.  In self-play each side's greedy
action answers the other's last one: with one state the two fixed greedy
maps give the play, which numpy reads off their orbits; with more, the
state drawn depends on the play, and the step loop goes on picking the
actions and moving the state.  Any other run (constant or power steps,
gamma > 0, a cell never reached) steps to the end.  Trainers write no
files: each returned ``LearnedPolicy`` carries its run's telemetry rows,
and the CLI writes them out.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, number
from .gamesolve import MixedStrategy, _entries, draw_bounds, is_distribution, telemetry_cadence
from .resilience import REWARD_BOUND, left_sum

ALPHA_SCHEDULES = ("harmonic", "constant", "power")

# steps drawn per chunk of uniforms, so memory stays flat in the episode
# count: (100000, 5) uniforms drawn up front are 4 MB
DRAW_CHUNK = 4096


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
            object.__setattr__(self, name, number(getattr(self, name), name, ConfigError))
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
        if not 1 <= self.episodes < 2**63:  # numpy counts them in a C long
            raise ConfigError(f"episodes must be in [1, 2**63), got {self.episodes}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")

    def robbins_monro_ok(self) -> bool:
        return self.alpha_schedule != "constant"

    def provenance(self) -> dict:
        """Every field, plus whether the step sizes meet Robbins-Monro."""
        return {**asdict(self), "robbins_monro": (
            "ok" if self.robbins_monro_ok()
            else "violated: constant step size has divergent sum of squares")}


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
    rows = left_sum(q * opp_freq[:, None, :])
    q_rows = tuple(tuple(float(v) for v in r) for r in rows)
    return LearnedPolicy(side=side, q_rows=q_rows, episodes=episodes,
                         provenance=provenance, telemetry=telemetry)


def _freq(counts: np.ndarray, fallback: np.ndarray | None = None) -> np.ndarray:
    """Row-normalize per-state action counts; an empty row takes its
    fallback row, and reads uniform where that is empty too."""
    counts = counts.astype(float)
    if fallback is not None:
        counts = np.where(counts.sum(axis=1, keepdims=True) > 0, counts, fallback)
    totals = counts.sum(axis=1, keepdims=True)
    uniform = np.full_like(counts, 1.0 / counts.shape[1])
    return np.divide(counts, totals, out=uniform, where=totals > 0)


# ---------------------------------------------------------------------------
# kernels


# the harmonic step size 1.0 / count, with no Python frame per step; the
# kernels know it by identity, since only under it can Q settle
_HARMONIC = (1.0).__truediv__


def _step_size(config: LearningConfig):
    """The count -> alpha function of config's schedule."""
    alpha, p = config.alpha_constant, config.alpha_power
    if config.alpha_schedule == "harmonic":
        return _HARMONIC
    if config.alpha_schedule == "constant":
        return lambda count: alpha
    return lambda count: float(count) ** (-p)


def _draws(config: LearningConfig, width):
    """Yield (t0, uniforms, epsilons) for each chunk of at most DRAW_CHUNK of
    config's episodes, drawn from a generator seeded by config.seed.

    Successive rng.random calls give the numbers of one large call, so the
    chunks draw what an (episodes, width) array would.  The epsilons repeat
    ``eps *= epsilon_decay`` step by step from epsilon0, across chunks too:
    multiply.accumulate runs left to right.
    """
    rng = np.random.default_rng(config.seed)
    episodes, eps, decay = config.episodes, config.epsilon0, config.epsilon_decay
    for t0 in range(0, episodes, DRAW_CHUNK):
        n = min(DRAW_CHUNK, episodes - t0)
        epsilons = np.full(n, decay)
        epsilons[0] = eps
        epsilons = np.multiply.accumulate(epsilons)
        eps = float(epsilons[-1]) * decay
        yield t0, rng.random((n, width)), epsilons


def _explore(coins, picks, epsilons, n):
    """Each step's exploring action, or -1 where the step plays greedy.

    A step explores when its coin falls below epsilon and then plays
    int(pick * n), kept below n where the product rounds up to n.
    """
    act = np.minimum((picks * n).astype(np.int64), n - 1)
    act[coins >= epsilons] = -1
    return act


def _greedy(col, pick) -> int:
    # lowest index among the extremes (Q values are finite)
    return col.index(pick(col))


def _settled_steps(telemetry, record_every, t0, epsilons, cells, rewards, visits):
    """Count steps t0, t0 + 1, ... after Q settled, and write their telemetry.

    cells are the steps' flat Q cells, rewards the flat reward table and
    visits the flat visit counts before the steps, updated in place.  A
    settled step moves no Q value, so its row is (t + 1, epsilon,
    1 / visits, reward, 0.0), visits counting the step itself.
    """
    n_cells = len(visits)
    first = -(t0 + 1) % record_every
    at = np.arange(first, len(cells), record_every)  # the recorded steps
    cell = cells[at]
    # a column for each cell that a recorded step is on, one for the others
    on = np.flatnonzero(np.bincount(cell, minlength=n_cells))
    col = np.full(n_cells, len(on))
    col[on] = np.arange(len(on))
    # a step's segment is the first recorded step at or after it; the steps
    # after the last recorded one make one segment more.  Visits up to a
    # recorded step are then a running sum over segments
    seg = (np.arange(len(cells)) + (record_every - 1 - first)) // record_every
    width = len(on) + 1
    seen = np.bincount(seg * width + col[cells], minlength=(len(at) + 1) * width)
    seen = np.cumsum(seen.reshape(-1, width), axis=0)
    counts = visits[cell] + seen[np.arange(len(at)), col[cell]]
    visits += np.bincount(cells, minlength=n_cells)
    ts = t0 + at
    telemetry[ts // record_every, :4] = np.column_stack(
        (ts + 1, epsilons[at], 1.0 / counts, rewards[cell]))


def _single_kernel(m, opp_cdf, config, record_every):
    """Stateless Q-learning of the defender against a sampled attacker, for
    config's episodes under its schedule and exploration.

    Each step draws three uniforms: attack draw, explore coin, explore
    pick.  Its cell is opp * n_own + own.  Q is held per attack, and the
    greedy index of each attack's column is cached until a cell of that
    column changes value.  Under the harmonic schedule a cell is set to its
    reward on its first visit and never moves after, so once every cell
    was seen no Q value or greedy index can change: the steps stop, and the
    rest of the run is counted in numpy, the attacker being drawn
    independently of play.  The attack counts are the visits summed over
    the defender's actions.
    """
    n_opp, n_own = m.shape
    rewards = m.ravel()
    reward_of = rewards.tolist()  # [cell]
    cdf = draw_bounds(opp_cdf)
    step_size = _step_size(config)
    q = [[0.0] * n_own for _ in range(n_opp)]
    visits = [0] * (n_opp * n_own)
    greedy = [0] * n_opp  # an all-zero column's greedy action is 0
    telemetry = np.zeros((config.episodes // record_every, 5))
    opp_last = 0
    unvisited = n_opp * n_own
    settled = False
    for t0, u, epsilons in _draws(config, 3):
        # cdf is sorted, so its count of bounds <= u is its bisection
        opps = (cdf[:, None] <= u[:, 0]).sum(axis=0)
        # a greedy step answers the attack of the step before it
        prev = np.r_[opp_last, opps[:-1]]
        opp_last = opps[-1]
        explore = _explore(u[:, 1], u[:, 2], epsilons, n_own)
        done = 0
        if not settled:
            for t, opp, p, own in zip(range(t0, t0 + len(u)), opps.tolist(),
                                      prev.tolist(), explore.tolist()):
                if own < 0:
                    own = greedy[p]
                    if own is None:
                        own = greedy[p] = _greedy(q[p], max)
                cell = opp * n_own + own
                reward = reward_of[cell]
                count = visits[cell] + 1
                visits[cell] = count
                alpha = step_size(count)
                col = q[opp]
                old = col[own]
                delta = alpha * (reward - old)
                col[own] = old + delta
                if col[own] != old:
                    greedy[opp] = None
                if (t + 1) % record_every == 0:
                    telemetry[t // record_every] = (
                        t + 1, epsilons[t - t0], alpha, reward, abs(delta))
                if count == 1:
                    unvisited -= 1
                    if unvisited == 0 and step_size is _HARMONIC:
                        settled = True
                        break
            done = t + 1 - t0
            if settled:  # Q and every greedy action are final from here on
                greedy = np.array([_greedy(col, max) for col in q])
                visits = np.array(visits)
        if settled and done < len(u):
            own = explore[done:]
            own = np.where(own < 0, greedy[prev[done:]], own)
            _settled_steps(telemetry, record_every, t0 + done, epsilons[done:],
                           opps[done:] * n_own + own, rewards, visits)
    visits = np.array(visits, dtype=np.int64).reshape(n_opp, n_own)
    return np.array(q).T.copy(), visits.T.copy(), visits.sum(axis=1), telemetry


def _orbits(step):
    """Orbit tables of the map ``step`` on nodes 0..N-1: table[v, k] is the
    node k steps from v, for k < 2N, and period[v] the length of the cycle
    v's orbit runs into.  An orbit meets at most N distinct nodes, so it is
    on its cycle by step N - 1, and from there on its row repeats with that
    period."""
    n = len(step)
    table = np.empty((n, 2 * n), dtype=np.int64)
    table[:, 0] = np.arange(n)
    for k in range(1, 2 * n):
        table[:, k] = step[table[:, k - 1]]
    period = 1 + np.argmax(table[:, n:] == table[:, n - 1:n], axis=1)
    return table, period


def _settled_play(orbits, explore_a, explore_d, a_last, d_last, n_att):
    """The actions (a, d) of a run of settled one-state steps, given their
    exploring actions (-1 where a step plays greedy) and the actions of the
    step before.

    A greedy a_t answers d_{t-1} and a greedy d_t answers a_{t-1}, so play
    runs in two chains, a_t, d_{t+1}, a_{t+2}, ... and d_t, a_{t+1}, ...
    Nodes number the attacker's actions 0..n_att-1 and the defender's from
    n_att on, and one map (``_orbits``) steps a chain from node to node: each
    step is its chain's last exploring node moved on once per step since.
    """
    table, period = orbits
    n = len(period)
    d = np.where(explore_d < 0, -1, explore_d + n_att)
    # chain 0 holds a at the even steps and d at the odd ones, chain 1 the
    # other two; column 0 is the step before, an odd one
    nodes = np.empty((2, len(d) + 1), dtype=np.int64)
    nodes[:, 0] = d_last + n_att, a_last
    nodes[0, 1::2], nodes[0, 2::2] = explore_a[::2], d[1::2]
    nodes[1, 1::2], nodes[1, 2::2] = d[::2], explore_a[1::2]
    # each step's last exploring node, and the steps k since it; a k of n or
    # more is on the cycle, and moves back onto columns n..2n-1 by periods
    idx = np.arange(nodes.shape[1])
    start = np.maximum.accumulate(np.where(nodes >= 0, idx, 0), axis=1)
    nodes = np.take_along_axis(nodes, start, axis=1)
    k = idx - start
    k = np.minimum(k, n + (k - n) % period[nodes])
    nodes = table[nodes, k]
    a = np.empty_like(d)
    a[::2], a[1::2] = nodes[0, 1::2], nodes[1, 2::2]
    d[::2], d[1::2] = nodes[1, 1::2], nodes[0, 2::2]
    return a, d - n_att


def _mdp_kernel(rewards, transitions, config, window_start, record_every):
    """Simultaneous Q-learning of both sides on a stage MDP, for config's
    episodes under its schedule, exploration and gamma.

    Each step draws five uniforms: attacker coin, attacker pick, defender
    coin, defender pick, state transition.  Its cell is
    (s * n_att + a) * n_def + d, which indexes the rewards, the transition
    rows and the one visit count both sides' step size comes from.  Each
    side's Q is held per (state, opponent action) column with a cached
    greedy index, as in _single_kernel; the cache serves both the greedy
    pick and the bootstrap target, which is the column's extreme.  With the
    harmonic schedule and gamma 0 a cell's target is its reward, so once
    every cell was seen Q is final, and _settled_steps counts the settled
    steps of each chunk and writes their telemetry.  With one state the
    greedy maps are then fixed and _settled_play works out the rest of the
    run in numpy; with more, the state drawn depends on the play, and the
    same loop goes on picking the greedy actions from the cached indices
    and moving the state, but updates nothing.  Each chunk's cells give the
    window's counts and reward in numpy; the whole run's action counts are
    the visits summed over the opponent's actions.
    """
    n_states, n_att, n_def = rewards.shape
    n_cells = rewards.size
    flat_rewards = rewards.ravel()
    reward_of = flat_rewards.tolist()  # [cell]
    # np.cumsum adds left to right, as a linear scan of each row does
    next_state = draw_bounds(np.cumsum(transitions, axis=3)).reshape(n_cells, -1).tolist()
    step_size = _step_size(config)
    gamma = config.gamma
    qa = [[[0.0] * n_att for _ in range(n_def)] for _ in range(n_states)]  # [s][d][a]
    qd = [[[0.0] * n_def for _ in range(n_att)] for _ in range(n_states)]  # [s][a][d]
    visits = [0] * n_cells
    greedy_a = [[0] * n_def for _ in range(n_states)]
    greedy_d = [[0] * n_att for _ in range(n_states)]
    win_visits = np.zeros(n_cells, dtype=np.int64)
    telemetry = np.zeros((config.episodes // record_every, 5))
    s = a_last = d_last = 0
    reward_win = 0.0
    unvisited = n_cells
    settles = step_size is _HARMONIC and gamma == 0.0
    settled = False
    orbits = None  # the greedy map's orbits, once a one-state game settled
    for t0, u, epsilons in _draws(config, 5):
        explore_a = _explore(u[:, 0], u[:, 1], epsilons, n_att)
        explore_d = _explore(u[:, 2], u[:, 3], epsilons, n_def)
        cells = []
        done = 0 if settled else len(u)  # the chunk's first settled step
        # once a one-state game settled, _settled_play plays its chunks
        steps = () if orbits is not None else zip(
            range(t0, t0 + len(u)), explore_a.tolist(), explore_d.tolist(), u[:, 4].tolist())
        for t, a, d, u_s in steps:
            if a < 0:
                a = greedy_a[s][d_last]
                if a is None:
                    a = greedy_a[s][d_last] = _greedy(qa[s][d_last], min)
            if d < 0:
                d = greedy_d[s][a_last]
                if d is None:
                    d = greedy_d[s][a_last] = _greedy(qd[s][a_last], max)
            cell = (s * n_att + a) * n_def + d
            cells.append(cell)
            s_next = bisect_right(next_state[cell], u_s)
            if not settled:
                reward = reward_of[cell]
                # bootstrap targets use the opponent action just observed
                k = greedy_a[s_next][d]
                if k is None:
                    k = greedy_a[s_next][d] = _greedy(qa[s_next][d], min)
                next_a = qa[s_next][d][k]
                k = greedy_d[s_next][a]
                if k is None:
                    k = greedy_d[s_next][a] = _greedy(qd[s_next][a], max)
                next_d = qd[s_next][a][k]
                count = visits[cell] + 1
                visits[cell] = count
                alpha = step_size(count)
                col = qa[s][d]
                old = col[a]
                delta_a = alpha * (reward + gamma * next_a - old)
                col[a] = old + delta_a
                if col[a] != old:
                    greedy_a[s][d] = None
                col = qd[s][a]
                old = col[d]
                delta_d = alpha * (reward + gamma * next_d - old)
                col[d] = old + delta_d
                if col[d] != old:
                    greedy_d[s][a] = None
                if (t + 1) % record_every == 0:
                    d1 = abs(delta_a)
                    d2 = abs(delta_d)
                    telemetry[t // record_every] = (
                        t + 1, epsilons[t - t0], alpha, reward, d1 if d1 > d2 else d2)
                if count == 1:
                    unvisited -= 1
                    if unvisited == 0 and settles:  # Q is final from here on
                        settled = True
                        done = t + 1 - t0
                        visits = np.array(visits)
                        if n_states == 1:
                            # attacker node a steps to defender node n_att +
                            # greedy_d(a), defender node n_att + d to greedy_a(d)
                            gd = [n_att + _greedy(col, max) for col in qd[0]]
                            ga = [_greedy(col, min) for col in qa[0]]
                            orbits = _orbits(np.array(gd + ga))
                            a_last, d_last = a, d
                            break
            a_last, d_last, s = a, d, s_next
        cells = np.array(cells, dtype=np.int64)
        if orbits is not None and len(cells) < len(u):
            a, d = _settled_play(orbits, explore_a[len(cells):], explore_d[len(cells):],
                                 a_last, d_last, n_att)
            a_last, d_last = int(a[-1]), int(d[-1])
            cells = np.r_[cells, a * n_def + d]
        if done < len(u):
            _settled_steps(telemetry, record_every, t0 + done, epsilons[done:],
                           cells[done:], flat_rewards, visits)
        # the window holds the steps t >= window_start
        windowed = cells[max(0, window_start - t0):]
        win_visits += np.bincount(windowed, minlength=n_cells)
        # cumsum adds left to right, continuing the running sum
        reward_win = float(np.cumsum(np.r_[reward_win, flat_rewards[windowed]])[-1])
    win_n = int(win_visits.sum())
    value = reward_win / win_n if win_n > 0 else 0.0

    def table(rows):
        # [s][opp][own] lists -> (states, own, opp) array
        return np.array(rows, dtype=np.float64).transpose(0, 2, 1).copy()

    # (s, a, d) counts: the attacker's actions sum over d, the defender's over a
    visits = np.array(visits, dtype=np.int64).reshape(rewards.shape)
    win_visits = win_visits.reshape(rewards.shape)
    return (table(qa), table(qd), visits.sum(axis=2), visits.sum(axis=1),
            win_visits.sum(axis=2), win_visits.sum(axis=1), value, telemetry)


# ---------------------------------------------------------------------------
# stateless trainers


def _check_bounded(rewards) -> None:
    if np.abs(rewards).max() > REWARD_BOUND:
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
    q, _visits, opp_counts, telemetry = _single_kernel(
        m, np.cumsum(opponent.probs), config, telemetry_cadence(config.episodes))
    prov = {**config.provenance(), "mode": "single-agent",
            "opponent": [float(p) for p in opponent.probs]}
    return _policy_from("defender", q[None], _freq(opp_counts[None, :]), config.episodes,
                        prov, telemetry)


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
    mdp = StageMdp(labels=("stateless",), rewards=m[None],
                   transitions=np.ones((1, *m.shape, 1)))
    attacker, defender, _, value = _train_pair(mdp, config, "multi-agent")
    i, j = attacker.greedy[0], defender.greedy[0]
    saddle = (m[i, j] <= m[:, j].min() + 1e-12) and (m[i, j] >= m[i, :].max() - 1e-12)
    return SelfPlayResult(attacker=attacker, defender=defender,
                          value=value, converged=bool(saddle))


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
        if not is_distribution(transitions):
            raise ConfigError("every transition row must be non-negative and sum to 1")

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
    # (state, defense) probabilities of a step up, a step down and staying
    up = np.array([*P_DEGRADE, 0.0])[:, None]  # critical cannot degrade
    down = np.where(defense_active, P_RECOVER, 0.0)
    to_up = up * (1.0 - down)
    to_down = (1.0 - up) * down
    to_down[0] = 0.0  # recovery from normal stays put
    stay = 1.0 - to_up - to_down
    # (state, defense, next state): stay on the diagonal, the steps beside it
    moves = (stay[..., None] * np.eye(3)[:, None] + to_up[..., None] * np.eye(3, k=1)[:, None]
             + to_down[..., None] * np.eye(3, k=-1)[:, None])
    transitions = np.repeat(moves[:, None], n_att, axis=1)
    return StageMdp(labels=labels, rewards=rewards, transitions=transitions)


@dataclass(frozen=True)
class MdpTrainResult:
    attacker: LearnedPolicy
    defender: LearnedPolicy
    values: tuple


def _train_pair(mdp: StageMdp, config: LearningConfig, mode: str):
    """Train both sides on mdp; return their policies, the defender's Q and
    the mean reward over the final tenth of the run.  mode is the
    provenance's label for the run."""
    window_start = config.episodes - max(1, config.episodes // 10)
    qa, qd, a_counts, d_counts, a_win, d_win, value, telemetry = _mdp_kernel(
        mdp.rewards, mdp.transitions, config, window_start,
        telemetry_cadence(config.episodes))
    prov = {**config.provenance(), "mode": mode, "states": list(mdp.labels)}
    attacker = _policy_from("attacker", qa, _freq(d_win, fallback=d_counts),
                            config.episodes, prov, telemetry)
    defender = _policy_from("defender", qd, _freq(a_win, fallback=a_counts),
                            config.episodes, prov, telemetry)
    return attacker, defender, qd, float(value)


def mdp_train(mdp: StageMdp, config: LearningConfig) -> MdpTrainResult:
    """State-based simultaneous Q-learning on a StageMdp.

    Bootstrap targets anticipate the opponent repeating its just-observed
    action.  The per-state value estimate is the defender's learned Q at the
    joint greedy pair.  A single-state mdp with gamma=0 draws its uniforms
    as train_multi_agent does, so the two match bit for bit.
    """
    attacker, defender, qd, _ = _train_pair(mdp, config, "mdp")
    values = tuple(float(qd[s, defender.greedy[s], attacker.greedy[s]])
                   for s in range(mdp.n_states))
    return MdpTrainResult(attacker=attacker, defender=defender, values=values)


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
