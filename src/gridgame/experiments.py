"""Monte Carlo evaluation of defense strategies, baselines, and statistics.

Every run perturbs bus loads, draws an attack, draws a defense from the
policy under test, and scores the pair on its perturbed loads: islanding,
shedding, DER-island curtailment and the four metrics are recomputed per
run.  Voltage flags (undervoltage, non-convergence) belong to the nominal
payoff cells; a run's score never depends on a voltage.  Runs are seeded
individually (seed + run index) so methods compared in one call see the
same random draws (common random numbers); the draws are made once per
command and shared, read-only, by its methods.  All runs are drawn first
and then scored in one pass of the command's plan table, each on its
drawn cell, and a report keeps the runs as arrays in run order.
Results are values (``StatsReport``, ``ComparisonRow``, probe rows); the CLI writes them.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

# the method tags live in the package root, where the CLI parser reads them
# without importing this module; they stay importable from here
from . import (ADAPTIVE_TAGS, ATTACK_DISTRIBUTIONS, BASELINE_TAGS,  # noqa: F401
               DEFAULT_BETA, METHOD_TAGS)
from .errors import ConfigError, SolverError
from .gamesolve import (MixedStrategy, draw_bounds, is_distribution, nash_exact, qre_fixed_point,
                        regret_matching, stackelberg)
from .marl import LearningConfig, train_multi_agent, train_single_agent
from .netmodel import NetworkState, energized_buses, load_ieee33
from .netmodel.types import OPEN, Bus, Der, Line
from .resilience import PayoffMatrix, build_payoff_matrix, float_sum, left_sum
from .scenario import _resolve_buses, _resolve_ders
# evaluate_pair stays a module global: the benchmark's tracer wraps it here
from .scenario import apply_attack, apply_defense, catalog_default, evaluate_pair  # noqa: F401

# rationality of the softmax *defense strategy*: sharpness is relative to the
# payoff spread (about 0.3 on the bundled feeder), and beta*spread ~ 3 gives a
# bounded-rational but clearly non-random defender; beta 10 is the largest
# round value where the damped fixed point still converges on that testbed
STRATEGY_BETA = 10.0
# the cap of regret matching+, which stops once epsilon <= RM_DEFAULT_TOL
REGRET_STEPS = 100_000
# DERs and tie switches of a synthetic feeder, as many as the bundled one has
SYNTH_DERS = 4
SYNTH_SWITCHES = 4
SYNTH_MIN_BUSES = 12  # the fewest buses that hold them


# ---------------------------------------------------------------------------
# configuration and result types


def _check_seed(seed) -> None:
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class McConfig:
    runs: int = 1000
    seed: int = 0
    perturbation: tuple = (0.9, 1.1)
    attack_distribution: str = "adversarial-best-response"

    def __post_init__(self):
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        # run r draws from default_rng(seed + r), which takes no negative seed
        _check_seed(self.seed)
        low, high = self.perturbation
        if not (0.0 <= low <= high and math.isfinite(high)):
            raise ConfigError(
                "perturbation bounds must be finite and satisfy 0 <= low <= high, "
                f"got {self.perturbation}")
        if self.attack_distribution not in ATTACK_DISTRIBUTIONS:
            raise ConfigError(
                f"attack_distribution must be one of {ATTACK_DISTRIBUTIONS}, "
                f"got {self.attack_distribution!r}")


@dataclass(frozen=True, eq=False)
class DefensePolicy:
    """Defense mix per anticipated attack: row i is the mix played against
    attack index i.  Unconditional policies repeat one row."""

    label: str
    mixes: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        mixes = np.ascontiguousarray(np.asarray(self.mixes, dtype=float))
        object.__setattr__(self, "mixes", mixes)
        if mixes.ndim != 2:
            raise ConfigError("mixes must be (attacks, defenses)")
        if not is_distribution(mixes):
            raise ConfigError(f"{self.label}: every defense mix row must be a distribution")

    @classmethod
    def unconditional(cls, label: str, mix, n_attacks: int, provenance=None) -> "DefensePolicy":
        row = np.asarray(mix, dtype=float)
        return cls(label, np.tile(row, (n_attacks, 1)), provenance or {})

    @classmethod
    def pure(cls, label: str, index: int, n_attacks: int, n_defenses: int,
             provenance=None) -> "DefensePolicy":
        return cls.unconditional(label, np.eye(n_defenses)[index], n_attacks, provenance)


@dataclass(frozen=True)
class StatsReport:
    label: str
    mean: float
    std_dev: float
    ci95_low: float
    ci95_high: float
    samples: int
    attack: np.ndarray = field(compare=False, repr=False)  # per run in run order, read-only;
    defense: np.ndarray = field(compare=False, repr=False)  # indices into the matrix's ids
    scores: np.ndarray = field(compare=False, repr=False)
    per_attack: dict = field(compare=False, default_factory=dict)

    def __post_init__(self):
        if not self.ci95_low <= self.mean <= self.ci95_high:
            raise ConfigError("confidence bounds must bracket the mean")
        if self.std_dev < 0:
            raise ConfigError("std_dev must be non-negative")

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "mean": self.mean,
            "std_dev": self.std_dev,
            "ci95_low": self.ci95_low,
            "ci95_high": self.ci95_high,
            "samples": self.samples,
            "per_attack": {k: v for k, v in sorted(self.per_attack.items())},
        }


@dataclass(frozen=True)
class ComparisonRow:
    """One method's Monte Carlo report, its improvement over the reference
    row, its wall time and its policy's provenance."""

    method: str
    report: StatsReport
    improvement_pct: float
    wall_time_s: float
    provenance: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Monte Carlo core


def _attack_probs(mc: McConfig, policy: DefensePolicy, matrix) -> np.ndarray:
    entries = matrix.entries
    n_att = entries.shape[0]
    if mc.attack_distribution == "uniform":
        return np.full(n_att, 1.0 / n_att)
    if mc.attack_distribution == "equilibrium-mix":
        return nash_exact(entries).attacker.probs
    # adversarial-best-response: the attacker knows the policy and picks the
    # row minimizing the defender's expected score under its announced mix
    expected = left_sum(entries * policy.mixes)
    probs = np.zeros(n_att)
    probs[int(np.argmin(expected))] = 1.0
    return probs


@functools.lru_cache(maxsize=1)
def _run_draws(seed: int, runs: int, n_buses: int, low: float, high: float):
    """Each run's load multipliers (runs, n_buses) and its attack and defense
    uniforms (runs, 2), run r drawn from its own ``default_rng(seed + r)``.

    The draws do not depend on the policy, so the methods of one comparison
    share them: the last set is kept, read-only.
    """
    multipliers = np.empty((runs, n_buses))
    u = np.empty((runs, 2))
    for run in range(runs):
        rng = np.random.default_rng(seed + run)
        multipliers[run] = rng.uniform(low, high, n_buses)
        u[run] = rng.random(2)
    multipliers.flags.writeable = False
    u.flags.writeable = False
    return multipliers, u


def monte_carlo(table, weights, defense_policy: DefensePolicy, mc: McConfig,
                matrix: PayoffMatrix) -> StatsReport:
    """Evaluate one defense policy under load uncertainty and attack draws.

    ``table`` is the command's plan table (``scenario.compile_catalog``),
    whose cell a * n_defenses + d is the matrix's cell (a, d).  The nominal
    payoff matrix steers the non-uniform attack distributions and names the
    attacks.  Each run scores its drawn pair on its own perturbed loads, so
    reported statistics reflect physics under uncertainty, not matrix
    lookups.  No run solves a power flow, and no plan is compiled here.

    Every run is drawn first, from its own ``default_rng(seed + run)``
    stream (``_run_draws``, which the methods of one command share); then
    one table pass scores every run on its drawn cell, and the report holds
    every run in run order.
    """
    if defense_policy.mixes.shape != matrix.shape:
        raise ConfigError(f"policy shaped {defense_policy.mixes.shape}, matrix {matrix.shape}")
    n_buses = table.base.load_p.size
    att_bounds = draw_bounds(np.cumsum(_attack_probs(mc, defense_policy, matrix)))
    def_bounds = draw_bounds(np.cumsum(defense_policy.mixes, axis=1))
    multipliers, u = _run_draws(mc.seed, mc.runs, n_buses, *mc.perturbation)
    att = np.searchsorted(att_bounds, u[:, 0], side="right")
    # each row of bounds is sorted, so its count of bounds <= u is its bisection
    dfn = (def_bounds[att] <= u[:, 1:]).sum(axis=1)
    scores = table.scores(att * matrix.shape[1] + dfn, multipliers, weights)
    return summarize(defense_policy.label, matrix.attack_ids, att, dfn, scores)


def _mean_sd(x: np.ndarray) -> tuple[float, float]:
    """Mean and sample standard deviation (n - 1 denominator, 0 for one
    value) of the vector ``x``, each sum added left to right."""
    n = len(x)
    mean = float(left_sum(x)) / n
    dev = x - mean
    return mean, (math.sqrt(float(left_sum(dev * dev)) / (n - 1)) if n > 1 else 0.0)


def summarize(label: str, attack_ids, attack, defense, scores) -> StatsReport:
    """Aggregate per-run arrays: attack index into ``attack_ids``, defense index, score.

    Sample std (n-1 denominator, 0 for a single run) and a normal-
    approximation 95% interval with z = 1.96; the report keeps the arrays, read-only.
    """
    n = len(scores)
    if not n:
        raise ConfigError("cannot summarize zero runs")
    for runs in (attack, defense, scores):
        runs.flags.writeable = False
    mean, std = _mean_sd(scores)
    half = 1.96 * std / math.sqrt(n)
    per_attack = {attack_ids[a]: float(left_sum(scores[attack == a])) / count
                  for a, count in enumerate(np.bincount(attack).tolist()) if count}
    return StatsReport(label=label, mean=mean, std_dev=std, ci95_low=mean - half,
                       ci95_high=mean + half, samples=n, per_attack=per_attack,
                       attack=attack, defense=defense, scores=scores)


# ---------------------------------------------------------------------------
# baselines


# a defense fills an RBD role when it has effects and all of them are of the
# role's kinds; candidates are tried in catalog order
RBD_ROLE_KINDS = {
    "shed": {"shed_fraction"},
    "boost": {"set_der_dispatch"},
    "tie": {"close_switch", "companion_open"},
}


def _rbd_roles(catalog) -> dict:
    """Candidate defenses per RBD role, classified by their effect kinds.

    The stand-pat defense is the first one without effects, else the first.
    """
    roles = {role: [d for d in catalog.defenses
                    if d.effects and {e.kind for e in d.effects} <= kinds]
             for role, kinds in RBD_ROLE_KINDS.items()}
    idle = [d for d in catalog.defenses if not d.effects]
    roles["stand-pat"] = (idle or list(catalog.defenses))[0]
    return roles


def _rbd_rule_for(attack, base: NetworkState, roles) -> tuple[str, str]:
    """Classify one attack and name the rule plus chosen defense id.

    Rule priority: direct load tampering at a critical bus (shed), then DER
    compromise (boost), then line outages (tie), else stand pat.  A rule
    whose role has no candidate falls through to the next.
    """
    critical = {b.id for b in base.buses if b.is_critical}
    kinds = {e.kind for e in attack.effects}
    stand_pat = roles["stand-pat"].id

    if "scale_load" in kinds and roles["shed"]:
        hit = set()
        for e in attack.effects:
            if e.kind == "scale_load":
                hit.update(_resolve_buses(base, attack.id, e.target))
        if hit & critical:
            return "critical-load-tampering", roles["shed"][0].id

    if kinds & {"trip_der", "fdi_bias"} and roles["boost"]:
        attacked = apply_attack(base, attack)
        online = {d.id for d in attacked.ders if d.online}
        # prefer a boost whose DERs all survived the attack
        for dfn in roles["boost"]:
            if all(der_id in online for e in dfn.effects
                   for der_id in _resolve_ders(attacked, dfn.id, e.target)):
                return "der-compromise", dfn.id
        return "der-compromise", roles["boost"][0].id

    if kinds & {"trip_line", "open_switch"} and roles["tie"]:
        attacked = apply_attack(base, attack)
        dark = energized_buses(attacked)
        best_id, best_key = stand_pat, (0, 0.0)
        for dfn in roles["tie"]:
            gained = energized_buses(apply_defense(attacked, dfn)) - dark
            key = (len(gained),
                   float_sum(base.bus(b).load_p for b in gained if b in critical))
            if key > best_key:
                best_id, best_key = dfn.id, key
        return "line-outage-restoration", best_id

    return "no-match", stand_pat


def rbd_rule_table(base: NetworkState, catalog) -> tuple:
    """Enumerated rule decisions, one row per attack, for auditability."""
    roles = _rbd_roles(catalog)
    rows = []
    for attack in catalog.attacks:
        rule, defense = _rbd_rule_for(attack, base, roles)
        rows.append({"attack": attack.id, "rule": rule, "defense": defense})
    return tuple(rows)


# ---------------------------------------------------------------------------
# paired t-test with an internal t tail


def _betacf(a: float, b: float, x: float) -> float:
    # continued fraction for the regularized incomplete beta (Lentz)
    max_iter, eps, tiny = 300, 3e-14, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (tiny if abs(d) < tiny else d)
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        # the even and the odd coefficient of iteration m, one half-step each
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            d = 1.0 / (tiny if abs(d) < tiny else d)
            c = 1.0 + aa / c
            c = tiny if abs(c) < tiny else c
            step = d * c
            h *= step
        if abs(step - 1.0) < eps:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log(1.0 - x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def paired_t_test(a, b) -> tuple[float, float]:
    """Two-sided paired t: returns (t statistic, p value), df = n - 1.

    Zero-variance differences (including a == b elementwise) are degenerate
    and raise rather than return an infinite statistic.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ConfigError("paired samples must be equal-length vectors")
    n = len(a)
    if n < 2:
        raise ConfigError("need at least two pairs")
    mean, sd = _mean_sd(a - b)
    if sd == 0.0:
        raise SolverError("degenerate paired test: differences have zero variance")
    t = mean / (sd / math.sqrt(n))
    nu = n - 1
    p = _betainc(nu / 2.0, 0.5, nu / (nu + t * t))
    return t, float(p)


# ---------------------------------------------------------------------------
# strategy comparison


def strategy_policy(tag: str, matrix: PayoffMatrix, catalog=None,
                    base: NetworkState | None = None, seed: int = 0) -> DefensePolicy:
    """Materialize the defense policy a method tag stands for.

    The three non-adaptive baselines: RDS randomizes uniformly; RBD follows
    the fixed rule table (needs the catalog and network); SOD commits to the
    column with the best mean against a uniform attacker, ties to the lowest
    index.  ``seed`` drives the two learners only.
    """
    entries = matrix.entries
    n_att, n_def = entries.shape
    if tag == "RDS":
        return DefensePolicy.unconditional(
            "RDS", np.full(n_def, 1.0 / n_def), n_att)
    if tag == "SOD":
        means = left_sum(entries.T) / n_att
        return DefensePolicy.pure(
            "SOD", int(np.argmax(means)), n_att, n_def,
            provenance={"column_means": [float(v) for v in means]})
    if tag == "RBD":
        if catalog is None or base is None:
            raise ConfigError("RBD needs the catalog and the base network")
        table = rbd_rule_table(base, catalog)
        index = {d.id: j for j, d in enumerate(catalog.defenses)}
        # row i plays the defense the rule table names for attack i
        mixes = np.eye(n_def)[[index[row["defense"]] for row in table]]
        return DefensePolicy("RBD", mixes, provenance={"rules": list(table)})
    if tag == "nash":
        eq = nash_exact(entries)
        return DefensePolicy.unconditional(
            "nash", eq.defender.probs, n_att,
            provenance={"game_value": eq.game_value})
    if tag == "stackelberg":
        j, level, _ = stackelberg(entries)
        return DefensePolicy.pure("stackelberg", j, n_att, n_def,
                                  provenance={"commitment_level": level})
    if tag == "regret":
        rep = regret_matching(entries, T=REGRET_STEPS)
        return DefensePolicy.unconditional(
            "regret", rep.defender.probs, n_att,
            provenance={"steps": rep.iterations, "epsilon": rep.epsilon})
    if tag == "softmax":
        res = qre_fixed_point(entries, STRATEGY_BETA, STRATEGY_BETA)
        return DefensePolicy.unconditional(
            "softmax", res.defender.probs, n_att,
            provenance={"beta": STRATEGY_BETA, "converged": res.converged})
    if tag == "qlearn":
        cfg = LearningConfig(seed=seed)
        pol = train_single_agent(entries, MixedStrategy.uniform(n_att), cfg)
        return DefensePolicy.pure("qlearn", pol.greedy_action(), n_att, n_def,
                                  provenance={"episodes": cfg.episodes})
    if tag == "maql":
        cfg = LearningConfig(seed=seed, epsilon_decay=0.9995)
        res = train_multi_agent(entries, cfg)
        return DefensePolicy.pure(
            "maql", res.defender.greedy_action(), n_att, n_def,
            provenance={"episodes": cfg.episodes, "converged": res.converged})
    raise ConfigError(f"unknown method tag {tag!r}")


def compare_strategies(base: NetworkState, catalog, table, weights, methods, mc: McConfig,
                       matrix: PayoffMatrix, reference: str | None = None):
    """Monte Carlo every requested method on the plan table ``table`` under
    common random numbers; ``base`` and ``catalog`` make RBD's rule table.

    Returns ComparisonRow per method in canonical order, each carrying its
    StatsReport (whose per-run scores make paired tests possible downstream) and
    its policy's provenance; improvement is percent over the named reference
    row (default: the first row).
    """
    requested = set(methods)
    unknown = requested - set(METHOD_TAGS)
    if unknown:
        raise ConfigError(f"unknown method tags: {sorted(unknown)}")
    if not requested:
        raise ConfigError("no methods requested")
    ordered = [t for t in METHOD_TAGS if t in requested]
    reference = reference if reference is not None else ordered[0]
    if reference not in requested:
        raise ConfigError(f"reference {reference!r} not among requested methods")
    reports = {}
    walls = {}
    provenance = {}
    for tag in ordered:
        start = time.perf_counter()
        policy = strategy_policy(tag, matrix, catalog=catalog, base=base, seed=mc.seed)
        reports[tag] = monte_carlo(table, weights, policy, mc, matrix=matrix)
        walls[tag] = time.perf_counter() - start
        provenance[tag] = policy.provenance

    ref_mean = reports[reference].mean
    rows = []
    for tag in ordered:
        rep = reports[tag]
        improvement = 0.0 if ref_mean == 0 else (rep.mean - ref_mean) / ref_mean * 100.0
        rows.append(ComparisonRow(
            method=tag, report=rep, improvement_pct=improvement,
            wall_time_s=walls[tag], provenance=provenance[tag]))
    return tuple(rows)


# ---------------------------------------------------------------------------
# scalability probe


def synthetic_feeder(n_buses: int, seed: int = 0) -> NetworkState:
    """Radial chain feeder of arbitrary size for scaling measurements.

    Loads are seeded uniform draws, DERs sit at evenly spaced buses, tie
    switches span five-bus windows so closing one forms a loop that the
    companion line break resolves.  Total load and end-to-end impedance are
    held near the bundled feeder's regardless of bus count, so the voltage
    profile stays feasible while the solve cost scales with size.
    """
    if n_buses < SYNTH_MIN_BUSES:
        raise ConfigError(f"synthetic feeder needs at least {SYNTH_MIN_BUSES} buses")
    rng = np.random.default_rng(seed)
    scale = 33.0 / n_buses
    buses = [Bus(id=1, load_p=0.0, load_q=0.0)]
    for i in range(2, n_buses + 1):
        p = float(rng.uniform(60.0, 120.0)) * scale
        buses.append(Bus(id=i, load_p=p, load_q=0.6 * p, is_critical=(i % 8 == 0)))
    lines = tuple(
        Line(id=f"{i}-{i + 1}", from_bus=i, to_bus=i + 1,
             r=0.35 * scale, x=0.25 * scale)
        for i in range(1, n_buses))
    der_buses = np.linspace(4, n_buses - 1, SYNTH_DERS).astype(int)
    ders = tuple(
        Der(id=f"DER{k + 1}", bus=int(b), rating_p=800.0)
        for k, b in enumerate(der_buses))
    sw_from = np.linspace(2, n_buses - 6, SYNTH_SWITCHES).astype(int)
    switches = tuple(
        Line(id=f"SW{k + 1}", from_bus=int(a), to_bus=int(a + 5), r=0.5, x=0.5, status=OPEN)
        for k, a in enumerate(sw_from))
    return NetworkState(buses=tuple(buses), lines=lines, switches=switches, ders=ders)


def _probe_catalog(state: NetworkState):
    """Ten attacks and, on a synthetic feeder, nine defenses (no action, a close
    per tie switch, two DER boosts, two sheds) from the feeder's own components."""
    from .scenario import AttackAction, DefenseAction, Effect, ScenarioCatalog

    n = state.n_buses
    line_picks = np.linspace(1, n - 2, 10).astype(int)
    attacks = tuple(
        AttackAction(f"A{k + 1}", f"trip feeder segment {b}-{b + 1}",
                     (Effect("trip_line", (int(b), int(b + 1))),))
        for k, b in enumerate(line_picks))
    defenses = [DefenseAction("D1", "no action", ())]
    for k, sw in enumerate(state.switches):
        mid = sw.from_bus + 2
        defenses.append(DefenseAction(
            f"D{k + 2}", f"close {sw.id} with companion break",
            (Effect("close_switch", sw.id),
             Effect("companion_open", (mid, mid + 1)))))
    for der in state.ders[:2]:
        defenses.append(DefenseAction(
            f"D{len(defenses) + 1}", f"dispatch {der.id} fully",
            (Effect("set_der_dispatch", der.id, 1.0),)))
    defenses.append(DefenseAction(
        f"D{len(defenses) + 1}", "shed 30% of non-critical load",
        (Effect("shed_fraction", "non-critical", 0.30),)))
    defenses.append(DefenseAction(
        f"D{len(defenses) + 1}", "shed loads above 200 kW",
        (Effect("shed_threshold", None, 200.0),)))
    return ScenarioCatalog(attacks=attacks, defenses=tuple(defenses),
                           version="probe-1")


def scalability_probe(sizes=(33, 69, 118), methods=("nash",), seed: int = 0):
    """Measure pipeline cost against feeder size; estimates are reported,
    never judged.

    Each row carries log2 of the combinatorial state-space size 2^(N+D+K).
    For the bundled 33-bus configuration a previously reported estimate of
    about 2.1e6 states circulates; it is inconsistent with 2^41 and both
    numbers are surfaced with a note rather than reconciled.
    """
    from .resilience import DEFAULT_AHP_MATRIX, ahp_weights

    # the feeders and the learners draw from it, so check it before any build
    _check_seed(seed)
    unknown = set(methods) - set(METHOD_TAGS)
    if unknown:
        raise ConfigError(f"unknown method tags: {sorted(unknown)}")
    if len(set(sizes)) != len(sizes):
        raise ConfigError(f"sizes repeat a feeder size: {list(sizes)}")
    weights = ahp_weights(np.asarray(DEFAULT_AHP_MATRIX))
    rows = []
    for size in sizes:
        if size == 33:
            state = load_ieee33()
            catalog = catalog_default()
        else:
            state = synthetic_feeder(size, seed=seed)
            catalog = _probe_catalog(state)
        n_der = len(state.ders)
        n_switch = len(state.switches)
        exponent = size + n_der + n_switch
        start = time.perf_counter()
        matrix = build_payoff_matrix(state, catalog, weights)
        method_times = {}
        for tag in methods:
            t0 = time.perf_counter()
            strategy_policy(tag, matrix, catalog=catalog, base=state, seed=seed)
            method_times[tag] = time.perf_counter() - t0
        row = {
            "buses": size,
            "ders": n_der,
            "switches": n_switch,
            "state_space_log2": exponent,
            "wall_time_s": time.perf_counter() - start,
            "method_times": method_times,
        }
        if size == 33 and n_der == 4 and n_switch == 4:
            row["note"] = (
                "a previously reported estimate gives ~2.1e6 states for this "
                "configuration; 2^(N+D+K) = 2^41 ~ 2.2e12 disagrees, both reported")
        rows.append(row)
    return tuple(rows)

