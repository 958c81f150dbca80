"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` for the scoreboard.  Every test
computes all of its criterion's clauses first, prints a single line with the
measured numbers, then asserts, so the line appears for failures too.

Criterion 1 checks the AHP step against what the paper prints: weights
[0.277, 0.466, 0.096, 0.161] and CR 0.099.  The printed weights are exactly
Saaty's approximate method (average of the normalised columns) on the
bundled 4x4 matrix: it gives [0.2771, 0.4658, 0.0960, 0.1611], so the bundled
matrix is the paper's.  `ahp_weights` returns the principal eigenvector, as
its docstring says, and that lies 0.0013 from the printed weights; the gap is
the approximation's, not the solver's.  The printed CR of 0.099 is not
reproducible from this matrix by any standard lambda_max estimate: the
eigenvalue (4.030983) gives 0.0115, column sums times w give 0.0146, the
largest (Aw)_i/w_i gives 0.0190.  It would need lambda_max ~ 4.27.  A real-
valued reciprocal matrix can pair such a lambda_max with the printed weights,
but none on Saaty's 1-9 scale does: a search over all 17^6 reciprocal 4x4
matrices on that scale found none with weights within 0.001 of the printed
ones, and none with CR in 0.099 +- 0.002 and weights within 0.005.  The paper
does not say which weight method or lambda_max estimate it used.  So the
criterion pins the package to an independent eigen solve, pins the matrix by
the approximate method, bounds the eigenvector's distance to the printed
weights, and holds CR below Saaty's 0.10 acceptance bound, which the printed
0.099 also claims.  The scoreboard line shows the paper's 0.099 beside the
measured CR.
"""
import json
import math
import time

import numpy as np
import pytest

from gridgame import gamesolve, marl, experiments, scenario
from gridgame.cli import main as cli_main
from gridgame.gamesolve import MixedStrategy
from gridgame.marl import LearningConfig
from gridgame.netmodel import load_ieee33, power_flow
from gridgame.resilience import (DEFAULT_AHP_MATRIX, SAATY_RANDOM_INDEX,
                                 ahp_weights, build_payoff_matrix)
from gridgame.scenario import catalog_default

from test_netmodel import ders_offline, oracle_voltages
from test_marl import saddle_matrix, strict_saddle


def scoreboard(num, name, ok, detail):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def testbed():
    net = load_ieee33()
    cat = catalog_default()
    weights = ahp_weights(DEFAULT_AHP_MATRIX)
    matrix = build_payoff_matrix(net, cat, weights)
    return net, cat, weights, matrix


def test_criterion_1_ahp_reproduction():
    ahp_weights(DEFAULT_AHP_MATRIX)  # warmup
    elapsed = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        res = ahp_weights(DEFAULT_AHP_MATRIX)
        elapsed = min(elapsed, time.perf_counter() - t0)

    # independent oracle: dense eigen solve, Perron vector normalised to 1
    vals, vecs = np.linalg.eig(DEFAULT_AHP_MATRIX)
    k = int(np.argmax(vals.real))
    lam = float(vals[k].real)
    w_oracle = np.abs(vecs[:, k].real)
    w_oracle /= w_oracle.sum()
    cr_oracle = (lam - 4) / 3 / SAATY_RANDOM_INDEX[4]
    oracle_dev = max(float(np.max(np.abs(res.w - w_oracle))),
                     abs(res.consistency_ratio - cr_oracle))

    # the paper's weights, printed to three decimals, are Saaty's
    # normalised-column average of the bundled matrix
    target = np.array([0.277, 0.466, 0.096, 0.161])
    a = DEFAULT_AHP_MATRIX
    approx = (a / a.sum(axis=0)).mean(axis=1)
    approx_dev = float(np.max(np.abs(approx - target)))
    w_dev = float(np.max(np.abs(res.w - target)))

    ok = (oracle_dev <= 1e-9 and approx_dev <= 0.0005 and w_dev <= 0.002
          and res.consistency_ratio < 0.10 and elapsed < 1e-3)
    scoreboard(1, "ahp-reproduction", ok,
               f"|ahp-eig oracle|={oracle_dev:.1e} (<=1e-9), "
               f"max|colavg-target|={approx_dev:.4f} (<=0.0005), "
               f"max|w-target|={w_dev:.4f} (<=0.002), "
               f"CR={res.consistency_ratio:.4f} (<0.10; paper 0.099), "
               f"t={elapsed * 1e3:.3f}ms")


def test_criterion_2_feeder_physics(testbed):
    net, _, _, _ = testbed
    p = sum(b.load_p for b in net.buses)
    q = sum(b.load_q for b in net.buses)
    totals_ok = (p == 3715.0 and q == 2300.0)

    base = ders_offline(net)
    power_flow(base)  # warmup (jit)
    t0 = time.perf_counter()
    sol = power_flow(base)
    elapsed = time.perf_counter() - t0

    mags = {b: abs(v) for b, v in sol.voltages.items()}
    vmin = min(mags.values())
    ref = oracle_voltages(base)
    oracle_dev = max(abs(sol.voltages[b] - ref[b]) for b in ref)

    ok = (totals_ok and sol.converged and oracle_dev <= 1e-6
          and abs(vmin - 0.913) <= 0.005 and elapsed < 0.1)
    scoreboard(2, "feeder-physics", ok,
               f"load={p:.0f}kW/{q:.0f}kvar, vmin={vmin:.4f} vs 0.913+-0.005, "
               f"oracle_dev={oracle_dev:.2e} (<=1e-6), t={elapsed * 1e3:.1f}ms")


def test_criterion_3_solver_correctness():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst_eps = 0.0
    worst_fp = 0.0
    sandwich_ok = True
    for _ in range(100):
        shape = (int(rng.integers(1, 11)), int(rng.integers(1, 11)))
        m = rng.random(shape)
        exact = gamesolve.nash_exact(m)
        worst_eps = max(worst_eps, exact.epsilon)
        fp = gamesolve.nash_fictitious_play(m, max_iters=100_000)
        worst_fp = max(worst_fp, abs(fp.game_value - exact.game_value))
        lo = m.min(axis=0).max()  # defender commits, attacker answers
        hi = m.max(axis=1).min()  # attacker commits, defender answers
        sandwich_ok &= (lo - 1e-9 <= exact.game_value <= hi + 1e-9)
    elapsed = time.perf_counter() - t0

    ok = worst_eps <= 1e-7 and worst_fp <= 1e-2 and sandwich_ok and elapsed < 60
    scoreboard(3, "solver-correctness", ok,
               f"100 matrices: max eps={worst_eps:.2e} (<=1e-7), "
               f"max|fp-exact|={worst_fp:.2e} (<=1e-2), "
               f"sandwich={'held' if sandwich_ok else 'violated'}, t={elapsed:.1f}s")


def test_criterion_4_regret_decay():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    ratios = []
    for _ in range(20):
        m = rng.random((10, 10))
        # tol=0 runs all 10 000 steps, so rows 1 000 and 10 000 exist
        rep = gamesolve.regret_matching(m, T=10_000, tol=0.0)
        by_iter = {int(row[0]): row for row in rep.trajectory}
        early = max(by_iter[1_000][1], by_iter[1_000][2])
        late = max(by_iter[10_000][1], by_iter[10_000][2])
        ratios.append(late / early if early > 0 else 0.0)
    elapsed = time.perf_counter() - t0
    med = float(np.median(ratios))

    ok = med <= 0.5 and elapsed < 30
    scoreboard(4, "regret-decay", ok,
               f"median regret(1e4)/regret(1e3)={med:.3f} (<=0.5) "
               f"over 20 games, t={elapsed:.1f}s")


def test_criterion_5_learning_convergence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)

    single_hits = 0
    single_runs = 0
    for k in range(10):
        m = rng.random((10, 10))
        mix = rng.dirichlet(np.ones(10))
        best = int(np.argmax(mix @ m))
        for seed in range(4):
            cfg = LearningConfig(episodes=100_000, seed=seed)
            pol = marl.train_single_agent(m, MixedStrategy(mix), cfg)
            single_hits += (pol.greedy_action() == best)
            single_runs += 1

    multi_hits = 0
    for seed in range(20):
        m = saddle_matrix(seed)
        target = strict_saddle(m)
        cfg = LearningConfig(episodes=100_000, seed=seed, epsilon_decay=0.9995)
        res = marl.train_multi_agent(m, cfg)
        pair = (res.attacker.greedy_action(), res.defender.greedy_action())
        multi_hits += (res.converged and pair == target)
    elapsed = time.perf_counter() - t0

    ok = (single_hits >= 0.95 * single_runs and multi_hits >= 19
          and elapsed < 300)
    scoreboard(5, "learning-convergence", ok,
               f"single BR {single_hits}/{single_runs} (>=95%), "
               f"self-play saddle {multi_hits}/20 (>=19), t={elapsed:.1f}s")


def test_criterion_6_qre_limits():
    rng = np.random.default_rng(5)
    uniform_dev = 0.0
    br_mass_min = 1.0
    residual_max = 0.0
    converged_any = False
    for _ in range(10):
        m = rng.random((6, 6))
        opp = rng.dirichlet(np.ones(6))
        for side in ("attacker", "defender"):
            soft0 = gamesolve.softmax_response(m, opp, 0.0, side)
            uniform_dev = max(uniform_dev,
                              float(np.max(np.abs(soft0.probs - 1 / 6))))
            sharp = gamesolve.softmax_response(m, opp, 1e6, side)
            br, _ = gamesolve.best_response(m, opp, side)
            br_mass_min = min(br_mass_min, float(sharp.probs[br]))
        res = gamesolve.qre_fixed_point(m, 2.0, 2.0)
        if res.converged:
            converged_any = True
            residual_max = max(residual_max, res.residual)

    ok = (uniform_dev <= 1e-12 and br_mass_min >= 1 - 1e-6
          and converged_any and residual_max <= 1e-8)
    scoreboard(6, "qre-limits", ok,
               f"beta=0 uniform dev={uniform_dev:.1e} (<=1e-12), "
               f"beta=1e6 BR mass>={br_mass_min:.8f} (>=1-1e-6), "
               f"max residual={residual_max:.1e} (<=1e-8)")


def test_criterion_7_pipeline_ordering(testbed):
    net, cat, weights, matrix = testbed
    t0 = time.perf_counter()
    mc = experiments.McConfig(runs=1000, seed=42,
                              attack_distribution="adversarial-best-response")
    rows = experiments.compare_strategies(
        net, cat, scenario.compile_catalog(net, cat), weights, experiments.METHOD_TAGS, mc,
        matrix=matrix)
    elapsed = time.perf_counter() - t0

    reports = {r.method: r.report for r in rows}
    means = {r.method: r.report.mean for r in rows}
    best = max(experiments.ADAPTIVE_TAGS, key=lambda t: means[t])
    ordering_ok = means["RDS"] < means["RBD"] < means["SOD"] < means[best]

    rds_high = reports["RDS"].ci95_high
    min_gap = min(reports[t].ci95_low - rds_high
                  for t in experiments.ADAPTIVE_TAGS)

    _, p = experiments.paired_t_test(reports[best].scores, reports["SOD"].scores)

    ok = ordering_ok and min_gap > 0 and p < 1e-3 and elapsed < 600
    scoreboard(7, "pipeline-ordering", ok,
               f"RDS {means['RDS']:.3f} < RBD {means['RBD']:.3f} < "
               f"SOD {means['SOD']:.3f} < {best} {means[best]:.3f}, "
               f"min CI gap={min_gap:+.4f} (>0), "
               f"t-test {best} vs SOD p={p:.1e} (<1e-3), t={elapsed:.0f}s")


def test_criterion_8_cli_determinism(testbed, tmp_path):
    _, _, _, matrix = testbed
    mpath = tmp_path / "m.csv"
    matrix.to_csv(mpath)
    commands = {
        "payoff": ["payoff"],
        "solve": ["solve", "--method", "regret", "--iters", "2000",
                  "--seed", "3", "--matrix", str(mpath)],
        "learn": ["learn", "--method", "single", "--iters", "2000",
                  "--matrix", str(mpath)],
        "baseline": ["baseline", "--method", "SOD", "--runs", "5"],
        "compare": ["compare", "--methods", "RDS,SOD,nash", "--runs", "5"],
        "probe": ["probe", "--sizes", "33"],
    }
    mismatches = []
    for name, argv in commands.items():
        dirs = []
        for rep in ("a", "b"):
            out = tmp_path / f"{name}-{rep}"
            code = cli_main(argv + ["--out", str(out)])
            assert code == 0, f"{name} exited {code}"
            dirs.append(out)
        files = sorted(p.name for p in dirs[0].iterdir())
        if files != sorted(p.name for p in dirs[1].iterdir()):
            mismatches.append(f"{name}: file sets differ")
            continue
        for fname in files:
            if fname == "manifest.json":
                # volatile by design (timestamps, wall times); its recorded
                # output digests must still agree
                m1 = json.loads((dirs[0] / fname).read_text())
                m2 = json.loads((dirs[1] / fname).read_text())
                if m1["outputs"] != m2["outputs"]:
                    mismatches.append(f"{name}: manifest digests differ")
            elif (dirs[0] / fname).read_bytes() != (dirs[1] / fname).read_bytes():
                mismatches.append(f"{name}/{fname}")

    ok = not mismatches
    scoreboard(8, "cli-determinism", ok,
               "all 6 commands byte-identical on rerun" if ok
               else "diverged: " + ", ".join(mismatches))


def test_criterion_9_pac_calculator():
    value = marl.pac_sample_bound(states=2, actions=2, horizon=1,
                                  gamma=0.5, eps=0.1, delta=0.1)
    exact = 2 * 2 * 1 / ((1 - 0.5) ** 6 * 0.1**2) * math.log(2 * 2 * 1 / 0.1)
    ok = value == pytest.approx(exact, rel=1e-12) and abs(value - 94_430) < 10
    scoreboard(9, "pac-calculator", ok,
               f"bound={value:.2f}, formula={exact:.2f}, "
               f"|bound-94430|={abs(value - 94_430):.2f} (<10)")
