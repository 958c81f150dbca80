"""Evaluation-harness tests.

scipy.stats is the oracle for the internal t tail; everything else checks
against hand arithmetic, frozen rule traces on the bundled feeder, or
repeatability. The heavyweight 1000-run pipeline lives in the acceptance
suite; runs here stay small.
"""

import csv
import json
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as sps

import pair_oracle
from gridgame import cli, experiments, scenario
from gridgame.errors import ConfigError, SolverError
from gridgame.experiments import (
    DefensePolicy,
    McConfig,
    StatsReport,
    compare_strategies,
    monte_carlo,
    paired_t_test,
    rbd_rule_table,
    scalability_probe,
    strategy_policy,
    summarize,
    synthetic_feeder,
)
from gridgame.netmodel import islands, load_ieee33, power_flow
from gridgame.gamesolve import nash_exact
from gridgame.resilience import (
    DEFAULT_AHP_MATRIX,
    ahp_weights,
    build_payoff_matrix,
    unified_score,
)
from gridgame.scenario import catalog_default, evaluate_pair


# the RBD decisions on the bundled feeder and catalog: (attack, rule, defense)
BUNDLED_RBD_TABLE = (
    ("A1", "der-compromise", "D7"),
    ("A2", "line-outage-restoration", "D2"),
    ("A3", "der-compromise", "D6"),
    ("A4", "critical-load-tampering", "D8"),
    ("A5", "line-outage-restoration", "D5"),
    ("A6", "line-outage-restoration", "D1"),
    ("A7", "line-outage-restoration", "D1"),
    ("A8", "line-outage-restoration", "D1"),
    ("A9", "line-outage-restoration", "D1"),
    ("A10", "line-outage-restoration", "D4"),
)


def records(rep, matrix):
    """A report's runs as (attack id, defense id, score) tuples, in run order."""
    return tuple((matrix.attack_ids[a], matrix.defense_ids[d], score) for a, d, score
                 in zip(rep.attack.tolist(), rep.defense.tolist(), rep.scores.tolist()))


@pytest.fixture(scope="module")
def bundle():
    base = load_ieee33()
    catalog = catalog_default()
    weights = ahp_weights(np.asarray(DEFAULT_AHP_MATRIX))
    matrix = build_payoff_matrix(base, catalog, weights)
    return base, catalog, weights, matrix


@pytest.fixture(scope="module")
def plans(bundle):
    base, catalog, _, _ = bundle
    return scenario.compile_catalog(base, catalog)


class TestMcConfig:
    def test_defaults(self):
        mc = McConfig()
        assert mc.runs == 1000
        assert mc.attack_distribution == "adversarial-best-response"

    @pytest.mark.parametrize("bad", [
        dict(runs=0),
        dict(perturbation=(-0.1, 1.1)),
        dict(perturbation=(1.2, 0.8)),
        dict(attack_distribution="worst-case"),
        dict(perturbation=(0.0, float("inf"))),
        dict(perturbation=(float("nan"), 1.0)),
        dict(perturbation=(0.5, float("nan"))),
        dict(perturbation=(float("-inf"), 1.0)),
        dict(seed=-1),
        dict(seed=1.5),
        dict(seed=None),
    ])
    def test_validation(self, bad):
        with pytest.raises(ConfigError):
            McConfig(**bad)


class TestDefensePolicy:
    def test_rows_must_be_distributions(self):
        with pytest.raises(ConfigError):
            DefensePolicy("bad", np.array([[0.5, 0.2], [0.5, 0.5]]))

    def test_constructors(self, bundle):
        p = DefensePolicy.pure("p", 1, 3, 4)
        assert p.mixes.shape == (3, 4)
        assert np.all(p.mixes[:, 1] == 1.0)
        # RBD plays, against each attack, the one defense its rule names
        base, catalog, _, matrix = bundle
        r = strategy_policy("RBD", matrix, catalog=catalog, base=base)
        ids = [d.id for d in catalog.defenses]
        assert [ids[j] for j in np.argmax(r.mixes, axis=1)] == [
            d for _, _, d in BUNDLED_RBD_TABLE]
        assert np.all(r.mixes.max(axis=1) == 1.0)


def one_cell(scores):
    """(attack, defense) index arrays of runs that all drew cell (0, 0)."""
    return np.zeros(len(scores), dtype=int), np.zeros(len(scores), dtype=int)


class TestSummarize:
    def test_two_sample_arithmetic(self):
        scores = np.array([0.7, 0.8])
        rep = summarize("x", ("A1",), *one_cell(scores), scores)
        assert rep.mean == pytest.approx(0.75)
        assert rep.std_dev == pytest.approx(0.0707, abs=5e-5)
        assert rep.ci95_low <= rep.mean <= rep.ci95_high

    def test_single_run_degenerate(self):
        scores = np.array([0.6])
        rep = summarize("x", ("A1",), *one_cell(scores), scores)
        assert rep.std_dev == 0.0
        assert rep.ci95_low == rep.ci95_high == 0.6

    def test_per_attack_breakdown(self):
        rep = summarize("x", ("A1", "A2"), np.array([0, 1, 0]), np.array([0, 0, 1]),
                        np.array([0.4, 0.8, 0.6]))
        assert rep.per_attack["A1"] == pytest.approx(0.5)
        assert rep.per_attack["A2"] == pytest.approx(0.8)

    def test_ci_calibration(self):
        # normal-approx CI must contain a known mean ~95% of the time
        rng = np.random.default_rng(123)
        true_mean = 0.6
        hits = 0
        trials = 1000
        for _ in range(trials):
            scores = rng.normal(true_mean, 0.05, size=30)
            rep = summarize("cal", ("A",), *one_cell(scores), scores)
            hits += rep.ci95_low <= true_mean <= rep.ci95_high
        assert 0.93 * trials <= hits <= 0.97 * trials

    def test_invariants_enforced(self):
        scores = np.full(3, 0.5)
        runs = dict(zip(("attack", "defense"), one_cell(scores)), scores=scores)
        with pytest.raises(ConfigError):
            StatsReport(label="x", mean=0.5, std_dev=0.1,
                        ci95_low=0.6, ci95_high=0.7, samples=3, **runs)
        with pytest.raises(ConfigError):
            StatsReport(label="x", mean=0.5, std_dev=-0.1,
                        ci95_low=0.4, ci95_high=0.6, samples=3, **runs)

    def test_the_report_keeps_its_runs_read_only(self):
        scores = np.array([0.4, 0.8, 0.6])
        rep = summarize("x", ("A1", "A2"), np.array([0, 1, 0]), np.array([2, 0, 1]), scores)
        assert rep.scores is scores
        assert (rep.attack.tolist(), rep.defense.tolist()) == ([0, 1, 0], [2, 0, 1])
        for runs in (rep.attack, rep.defense, rep.scores):
            with pytest.raises(ValueError):
                runs[0] = 1


class TestMonteCarlo:
    def test_constant_policy_no_perturbation(self, bundle, plans):
        base, catalog, weights, matrix = bundle
        mc = McConfig(runs=8, seed=1, perturbation=(1.0, 1.0))
        policy = DefensePolicy.pure("D1-always", 0, 10, 10)
        rep = monte_carlo(plans, weights, policy, mc, matrix=matrix)
        assert rep.std_dev == 0.0
        assert rep.ci95_high - rep.ci95_low == 0.0
        # adversarial draw is degenerate: one attack, one defense
        assert len(rep.per_attack) == 1

    def test_deterministic_given_seed(self, bundle, plans):
        base, catalog, weights, matrix = bundle
        mc = McConfig(runs=20, seed=5)
        policy = strategy_policy("RDS", matrix)
        a = monte_carlo(plans, weights, policy, mc, matrix=matrix)
        b = monte_carlo(plans, weights, policy, mc, matrix=matrix)
        assert records(a, matrix) == records(b, matrix)
        assert a.mean == b.mean

    def test_std_follows_sample_convention(self, bundle, plans):
        base, catalog, weights, matrix = bundle
        mc = McConfig(runs=12, seed=3)
        rep = monte_carlo(plans, weights, strategy_policy("RDS", matrix), mc,
                          matrix=matrix)
        scores = rep.scores
        assert rep.std_dev == pytest.approx(float(scores.std(ddof=1)))
        assert rep.mean == pytest.approx(float(scores.mean()))

    def test_common_random_numbers(self, bundle, plans):
        base, catalog, weights, matrix = bundle
        mc = McConfig(runs=30, seed=9, attack_distribution="uniform")
        rds = monte_carlo(plans, weights, strategy_policy("RDS", matrix), mc,
                          matrix=matrix)
        sod = monte_carlo(plans, weights, strategy_policy("SOD", matrix), mc,
                          matrix=matrix)
        assert rds.attack.tolist() == sod.attack.tolist()

    def test_uniform_distribution_spreads(self, bundle, plans):
        base, catalog, weights, matrix = bundle
        mc = McConfig(runs=120, seed=2, attack_distribution="uniform")
        rep = monte_carlo(plans, weights, strategy_policy("SOD", matrix), mc,
                          matrix=matrix)
        assert len(rep.per_attack) == 10

    def test_equilibrium_mix_distribution(self, bundle, plans):
        base, catalog, weights, matrix = bundle
        mc = McConfig(runs=60, seed=4, attack_distribution="equilibrium-mix")
        rep = monte_carlo(plans, weights, strategy_policy("SOD", matrix), mc,
                          matrix=matrix)
        # bundled equilibrium mixes over two attacks only
        assert set(rep.per_attack) <= {"A2", "A10"}

    def test_policy_shape_checked(self, bundle, plans):
        base, catalog, weights, matrix = bundle
        with pytest.raises(ConfigError):
            monte_carlo(plans, weights, DefensePolicy.pure("p", 0, 4, 4),
                        McConfig(runs=2), matrix=matrix)

    def test_report_json_and_csv(self, bundle, plans, tmp_path):
        # the CLI writes the report's to_json and runs on the bundled inputs
        base, catalog, weights, matrix = bundle
        mc = McConfig(runs=5, seed=7)
        rep = monte_carlo(plans, weights, strategy_policy("SOD", matrix), mc,
                          matrix=matrix)
        obj = rep.to_json()
        assert obj["samples"] == 5
        assert cli.main(["baseline", "--method", "SOD", "--runs", "5", "--seed", "7",
                         "--out", str(tmp_path)]) == 0
        assert json.loads((tmp_path / "stats.json").read_text()) == obj
        with open(tmp_path / "runs.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["run", "attack", "defense", "score"]
        assert [(int(r[0]), r[1], r[2]) for r in rows[1:]] == [
            (run, a, d) for run, (a, d, _) in enumerate(records(rep, matrix))]
        assert [float(r[3]) for r in rows[1:]] == pytest.approx(rep.scores.tolist(), abs=1e-12)


def _oracle_records(base, catalog, weights, policy, matrix, mc):
    """The Monte Carlo contract, one run at a time: seed the run's stream,
    draw its multipliers, attack and defense, perturb, score the pair."""
    entries = matrix.entries
    n_att = entries.shape[0]
    if mc.attack_distribution == "uniform":
        probs = np.full(n_att, 1.0 / n_att)
    elif mc.attack_distribution == "equilibrium-mix":
        probs = nash_exact(entries).attacker.probs
    else:
        expected = []  # each row's expected score, added left to right
        for row, mix in zip(entries.tolist(), policy.mixes.tolist()):
            total = row[0] * mix[0]
            for e, p in zip(row[1:], mix[1:]):
                total += e * p
            expected.append(total)
        probs = np.zeros(n_att)
        probs[expected.index(min(expected))] = 1.0

    def pick(probs, u):
        # a linear scan: the first k with u < cdf[k], else the last index
        cdf = np.cumsum(probs)
        return next((k for k, c in enumerate(cdf) if u < c), len(cdf) - 1)

    records = []
    for run in range(mc.runs):
        rng = np.random.default_rng(mc.seed + run)
        row = rng.uniform(*mc.perturbation, base.n_buses)
        a = pick(probs, rng.random())
        d = pick(policy.mixes[a], rng.random())
        perturbed = base.with_scaled_loads({b.id: m for b, m in zip(base.buses, row)})
        card = pair_oracle.evaluate_pair(perturbed, catalog.attacks[a], catalog.defenses[d])
        records.append((catalog.attacks[a].id, catalog.defenses[d].id,
                        unified_score(card, weights)))
    return tuple(records)


class TestMonteCarloBatch:
    @pytest.mark.parametrize("dist", ["uniform", "equilibrium-mix",
                                      "adversarial-best-response"])
    @pytest.mark.parametrize("perturbation", [(0.9, 1.1), (0.0, 3.0)])
    def test_records_equal_scalar_oracle(self, bundle, plans, dist, perturbation):
        base, catalog, weights, matrix = bundle
        mc = McConfig(runs=40, seed=11, perturbation=perturbation, attack_distribution=dist)
        policy = strategy_policy("RDS", matrix)
        rep = monte_carlo(plans, weights, policy, mc, matrix=matrix)
        assert records(rep, matrix) == _oracle_records(base, catalog, weights, policy, matrix, mc)

    def test_a_dipping_cdf_draws_as_a_linear_scan(self, bundle, plans, monkeypatch):
        # the cdf of the mix row [0.5, -1e-12, 0.5 + 1e-12] dips below 0.5 at
        # defense 1; u = 0.5 - 5e-13 lies in the dip, and a linear scan, like
        # the learners, draws defense 0 for it
        _, _, weights, matrix = bundle

        class Stub:
            """A generator that draws loads at 1 and uniforms 0, then u."""

            def __init__(self, seed):
                self.u = [0.0, 0.5 - 5e-13]

            def uniform(self, low, high, size):
                return np.ones(size)

            def random(self, size=None):
                if size is None:
                    return self.u.pop(0)
                out, self.u = self.u[:size], self.u[size:]
                return np.array(out)

        mixes = np.zeros(matrix.shape)
        mixes[:, :3] = [0.5, -1e-12, 0.5 + 1e-12]
        policy = DefensePolicy("dip", mixes)
        monkeypatch.setattr(np.random, "default_rng", Stub)
        # the stub draws only where no draws of the same key are kept, and
        # its draws are not kept for later tests
        experiments._run_draws.cache_clear()
        rep = monte_carlo(plans, weights, policy,
                          McConfig(runs=3, attack_distribution="uniform"), matrix=matrix)
        experiments._run_draws.cache_clear()
        assert (rep.attack.tolist(), rep.defense.tolist()) == ([0] * 3, [0] * 3)

    def test_one_plan_per_drawn_cell(self, bundle, plans, monkeypatch):
        # each drawn cell is scored once, by its plan in the table: no plan is
        # compiled and no power flow solved
        _, _, weights, matrix = bundle
        scored = []
        real = scenario.PairPlan.scores

        def counting(plan, multipliers, w):
            scored.append(plan)
            return real(plan, multipliers, w)

        def forbidden(*args, **kwargs):
            raise AssertionError("monte_carlo compiled a plan or solved a flow")

        monkeypatch.setattr(scenario.PairPlan, "scores", counting)
        for name in ("compile_pair", "evaluate_pair", "power_flow"):
            monkeypatch.setattr(scenario, name, forbidden)
        monkeypatch.setattr(experiments, "evaluate_pair", forbidden)

        rep = monte_carlo(plans, weights, strategy_policy("SOD", matrix),
                          McConfig(runs=200, seed=1), matrix=matrix)
        assert rep.samples == 200
        assert len(scored) == 1

        scored.clear()
        mc = McConfig(runs=200, seed=1, attack_distribution="uniform")
        rep = monte_carlo(plans, weights, strategy_policy("RDS", matrix), mc, matrix=matrix)
        drawn = set(zip(rep.attack.tolist(), rep.defense.tolist()))
        assert len(scored) == len(drawn)
        assert {id(p) for p in scored} == {id(plans[a][d]) for a, d in drawn}


class TestRunDraws:
    """The runs' draws do not depend on the policy, so one command makes them
    once (``experiments._run_draws``) and every method scores the same
    read-only arrays."""

    def test_compare_equals_one_monte_carlo_per_method_on_fresh_draws(self, bundle, plans):
        base, catalog, weights, matrix = bundle
        mc = McConfig(runs=60, seed=4)
        experiments._run_draws.cache_clear()
        rows = compare_strategies(base, catalog, plans, weights, set(experiments.METHOD_TAGS),
                                  mc, matrix=matrix)
        assert len(rows) == 9
        # one set of draws served the nine methods
        assert experiments._run_draws.cache_info()[:2] == (8, 1)
        for row in rows:
            experiments._run_draws.cache_clear()
            policy = strategy_policy(row.method, matrix, catalog=catalog, base=base,
                                     seed=mc.seed)
            rep = monte_carlo(plans, weights, policy, mc, matrix=matrix)
            assert (rep, records(rep, matrix)) == (row.report, records(row.report, matrix))

    def test_the_shared_arrays_reject_writes(self):
        for table in experiments._run_draws(3, 5, 33, 0.9, 1.1):
            with pytest.raises(ValueError):
                table[0, 0] = 1.0

    def test_each_run_draws_from_its_own_stream(self):
        multipliers, u = experiments._run_draws(7, 4, 6, 0.5, 2.0)
        for run in range(4):
            rng = np.random.default_rng(7 + run)
            assert multipliers[run].tobytes() == rng.uniform(0.5, 2.0, 6).tobytes()
            assert u[run].tobytes() == rng.random(2).tobytes()

    @pytest.mark.parametrize("changed", [
        pytest.param((4, 5, 33, 0.9, 1.1), id="seed"),
        pytest.param((3, 6, 33, 0.9, 1.1), id="runs"),
        pytest.param((3, 5, 34, 0.9, 1.1), id="buses"),
        pytest.param((3, 5, 33, 0.8, 1.1), id="low"),
        pytest.param((3, 5, 33, 0.9, 1.2), id="high"),
    ])
    def test_every_key_changes_the_table(self, changed):
        key = (3, 5, 33, 0.9, 1.1)
        before = experiments._run_draws(*key)
        after = experiments._run_draws(*changed)
        assert after[0].shape != before[0].shape or \
            not np.array_equal(after[0], before[0])
        # and back: the draws of the first key again, bit for bit
        again = experiments._run_draws(*key)
        for a, b in zip(again, before):
            assert a.tobytes() == b.tobytes()


class TestBaselines:
    def test_rds_uniform(self, bundle):
        _, _, _, matrix = bundle
        p = strategy_policy("RDS", matrix)
        assert np.allclose(p.mixes, 0.1)

    def test_sod_tie_breaks_low(self):
        m = np.array([[0.9, 0.2], [0.1, 0.8]])

        class Fake:
            entries = m
        p = strategy_policy("SOD", Fake())
        assert p.mixes[0, 0] == 1.0
        assert p.provenance["column_means"] == [0.5, 0.5]

    def test_sod_picks_best_mean_column(self, bundle):
        _, _, _, matrix = bundle
        p = strategy_policy("SOD", matrix)
        j = int(np.argmax(p.mixes[0]))
        assert j == int(np.argmax(matrix.entries.mean(axis=0)))

    def test_sod_row_permutation_invariant(self, bundle):
        _, _, _, matrix = bundle
        perm = np.random.default_rng(0).permutation(10)

        class Fake:
            entries = matrix.entries[perm]
        assert np.array_equal(strategy_policy("SOD", Fake()).mixes,
                              strategy_policy("SOD", matrix).mixes)

    def test_rbd_rule_trace(self, bundle):
        base, catalog, _, _ = bundle
        table = {row["attack"]: row for row in rbd_rule_table(base, catalog)}
        # direct load tampering at critical bus 24
        assert table["A4"]["defense"] == "D8"
        assert table["A4"]["rule"] == "critical-load-tampering"
        # A1 biases sensors at DER buses 5/18/29; the DER3 boost survives
        assert table["A1"]["defense"] == "D7"
        # A3 downs every unit; boost choice falls back to the lowest index
        assert table["A3"]["defense"] in ("D6", "D7")
        assert table["A3"]["rule"] == "der-compromise"
        # A2 cuts 6-7 and 14-15; SW1 and SW2 re-energize the same eight buses
        assert table["A2"]["defense"] == "D2"
        # A6 isolates no island that a tie switch could re-energize
        assert table["A6"]["defense"] == "D1"
        assert rbd_rule_table(base, catalog) == tuple(
            {"attack": a, "rule": r, "defense": d} for a, r, d in BUNDLED_RBD_TABLE)

    def test_rbd_follows_renamed_defenses(self, bundle):
        # rules pick defenses by their effect kinds, never by their ids
        base, catalog, _, _ = bundle
        renamed = scenario.ScenarioCatalog(
            attacks=catalog.attacks,
            defenses=tuple(replace(d, id=f"X{d.id}") for d in catalog.defenses))
        assert rbd_rule_table(base, renamed) == tuple(
            {"attack": a, "rule": r, "defense": f"X{d}"} for a, r, d in BUNDLED_RBD_TABLE)

    def test_rbd_rule_without_candidates_falls_through(self, bundle):
        base, catalog, _, _ = bundle
        shed = catalog.defense("D8")

        def decisions(*defenses):
            cat = scenario.ScenarioCatalog(attacks=catalog.attacks, defenses=defenses)
            return {row["attack"]: (row["rule"], row["defense"])
                    for row in rbd_rule_table(base, cat)}

        table = decisions(scenario.DefenseAction("S1", "shed", shed.effects),
                          scenario.DefenseAction("N0", "no action", ()))
        assert table["A4"] == ("critical-load-tampering", "S1")
        # no boost and no tie defense: stand pat on the effect-free defense
        assert table["A1"] == ("no-match", "N0")
        assert table["A2"] == ("no-match", "N0")
        # with no effect-free defense, standing pat plays the first one
        table = decisions(shed, catalog.defense("D2"))
        assert table["A1"] == ("no-match", "D8")
        assert table["A2"] == ("line-outage-restoration", "D2")
        assert table["A6"] == ("line-outage-restoration", "D8")

    def test_rbd_needs_context(self, bundle):
        _, _, _, matrix = bundle
        with pytest.raises(ConfigError):
            strategy_policy("RBD", matrix)

    def test_unknown_kind(self, bundle):
        _, _, _, matrix = bundle
        with pytest.raises(ConfigError):
            strategy_policy("SAD", matrix)


class TestPairedT:
    def test_worked_example(self):
        t, p = paired_t_test([0.1, 0.1, 0.1, 0.1, 0.2], [0.0] * 5)
        assert t == pytest.approx(6.0, abs=1e-12)
        assert p == pytest.approx(0.0038825, abs=1e-6)

    def test_degenerate_inputs(self):
        with pytest.raises(SolverError):
            paired_t_test([0.5, 0.6, 0.7], [0.5, 0.6, 0.7])
        with pytest.raises(SolverError):
            paired_t_test([1.0, 2.0], [0.0, 1.0])  # constant nonzero diff
        with pytest.raises(ConfigError):
            paired_t_test([0.1], [0.2])
        with pytest.raises(ConfigError):
            paired_t_test([0.1, 0.2], [0.1, 0.2, 0.3])

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 200))
        a = rng.normal(0.6, 0.1, n)
        b = a + rng.normal(0.01, 0.05, n)
        t, p = paired_t_test(a, b)
        ref = sps.ttest_rel(a, b)
        assert t == pytest.approx(float(ref.statistic), abs=1e-10)
        assert p == pytest.approx(float(ref.pvalue), abs=1e-9)

    def test_calibration_under_null(self):
        # identical distributions: p should exceed 0.01 nearly always
        rng = np.random.default_rng(77)
        ok = 0
        for _ in range(100):
            a = rng.normal(0.5, 0.1, 1000)
            b = rng.normal(0.5, 0.1, 1000)
            _, p = paired_t_test(a, b)
            ok += p > 0.01
        assert ok >= 95


class TestCompare:
    def test_single_method_row(self, bundle, plans):
        base, catalog, weights, matrix = bundle
        rows = compare_strategies(base, catalog, plans, weights, {"SOD"},
                                  McConfig(runs=10, seed=1), matrix=matrix)
        assert len(rows) == 1
        assert rows[0].method == "SOD"
        assert rows[0].improvement_pct == 0.0

    def test_bundled_ordering(self, bundle, plans):
        base, catalog, weights, matrix = bundle
        rows = compare_strategies(
            base, catalog, plans, weights, {"RDS", "RBD", "SOD", "nash"},
            McConfig(runs=150, seed=11), matrix=matrix)
        means = {r.method: r.report.mean for r in rows}
        assert means["RDS"] < means["RBD"] < means["SOD"] < means["nash"]

    def test_stackelberg_vs_sod_guarantee(self, bundle, plans):
        base, catalog, weights, matrix = bundle
        rows = compare_strategies(base, catalog, plans, weights, {"SOD", "stackelberg"},
                                  McConfig(runs=40, seed=2), matrix=matrix)
        by = {r.method: r.report for r in rows}
        width = by["SOD"].ci95_high - by["SOD"].ci95_low
        assert by["stackelberg"].mean >= by["SOD"].mean - 2 * width

    def test_reproducible_rows(self, bundle, plans):
        base, catalog, weights, matrix = bundle
        mc = McConfig(runs=25, seed=13)
        a = compare_strategies(base, catalog, plans, weights, {"RDS", "SOD"}, mc,
                               matrix=matrix)
        b = compare_strategies(base, catalog, plans, weights, {"RDS", "SOD"}, mc,
                               matrix=matrix)
        assert [(r.method, r.report.mean, r.report.std_dev) for r in a] == \
               [(r.method, r.report.mean, r.report.std_dev) for r in b]

    def test_errors(self, bundle, plans):
        base, catalog, weights, matrix = bundle
        mc = McConfig(runs=2)
        with pytest.raises(ConfigError):
            compare_strategies(base, catalog, plans, weights, {"SOD", "minimax"}, mc,
                               matrix=matrix)
        with pytest.raises(ConfigError):
            compare_strategies(base, catalog, plans, weights, set(), mc, matrix=matrix)
        with pytest.raises(ConfigError):
            compare_strategies(base, catalog, plans, weights, {"SOD"}, mc,
                               matrix=matrix, reference="RDS")

    def test_csv_writer(self, bundle, plans, tmp_path):
        # the CLI's comparison.csv holds each row's report, on the bundled inputs
        base, catalog, weights, matrix = bundle
        rows = compare_strategies(base, catalog, plans, weights, {"RDS", "SOD"},
                                  McConfig(runs=5, seed=3), matrix=matrix)
        assert cli.main(["compare", "--methods", "RDS,SOD", "--runs", "5", "--seed", "3",
                         "--out", str(tmp_path)]) == 0
        with open(tmp_path / "comparison.csv", newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0][:3] == ["method", "mean", "std_dev"]
        assert [r[0] for r in table[1:]] == [r.method for r in rows]
        assert [float(r[1]) for r in table[1:]] == pytest.approx(
            [r.report.mean for r in rows], abs=1e-12)

    def test_all_tags_materialize(self, bundle):
        base, catalog, _, matrix = bundle
        for tag in ("nash", "stackelberg", "regret", "softmax"):
            p = strategy_policy(tag, matrix, catalog=catalog, base=base, seed=0)
            assert p.mixes.shape == (10, 10)
            assert p.label == tag


class TestLearnedStrategies:
    # training tags are slower; exercised once on the bundled matrix
    def test_qlearn_and_maql_policies(self, bundle):
        base, catalog, _, matrix = bundle
        for tag in ("qlearn", "maql"):
            p = strategy_policy(tag, matrix, catalog=catalog, base=base, seed=0)
            assert p.mixes.shape == (10, 10)
            assert np.all((p.mixes == 0.0) | (p.mixes == 1.0))


class TestProbe:
    def test_synthetic_feeder_valid(self):
        for n in (33, 69, 118):
            st = synthetic_feeder(n)
            assert st.n_buses == n
            for isl in islands(st):
                isl.check_radial()
            sol = power_flow(st)
            assert sol.converged

    def test_feeder_too_small(self):
        with pytest.raises(ConfigError):
            synthetic_feeder(8)

    def test_bundled_row_reports_discrepancy(self):
        rows = scalability_probe(sizes=(33,), methods=())
        row = rows[0]
        assert row["state_space_log2"] == 41
        assert "2.1e6" in row["note"]
        assert row["method_times"] == {}

    def test_estimates_repeatable(self):
        a = scalability_probe(sizes=(33, 69), methods=())
        b = scalability_probe(sizes=(33, 69), methods=())
        assert [r["state_space_log2"] for r in a] == \
               [r["state_space_log2"] for r in b]

    def test_method_timing(self):
        rows = scalability_probe(sizes=(33,), methods=("nash",))
        assert rows[0]["method_times"]["nash"] > 0

    def test_one_build_per_size(self, monkeypatch):
        built = []
        real = experiments.build_payoff_matrix

        def spy(state, *args):
            built.append(state.n_buses)
            return real(state, *args)

        monkeypatch.setattr(experiments, "build_payoff_matrix", spy)
        scalability_probe(sizes=(33, 40), methods=("nash",))
        assert built == [33, 40]

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError):
            scalability_probe(sizes=(33,), methods=("foo",))
