"""Game-theoretic resilience analysis for microgrids under cyber-physical attack.

Builds an AHP-weighted payoff matrix from power-flow simulation on a radial
feeder, then computes and compares defensive strategies with equilibrium
solvers, learning agents, and a Monte Carlo statistics harness.
"""

__version__ = "0.1.0"

# Method tags and solver defaults shared by the CLI parser and
# gridgame.experiments.  They live here, beside the version, so that the
# parser can be built without importing the evaluation harness.
ATTACK_DISTRIBUTIONS = ("uniform", "equilibrium-mix", "adversarial-best-response")
BASELINE_TAGS = ("RDS", "RBD", "SOD")
ADAPTIVE_TAGS = ("nash", "stackelberg", "regret", "softmax", "qlearn", "maql")
METHOD_TAGS = BASELINE_TAGS + ADAPTIVE_TAGS

# beta = 1/temperature for the QRE solver surface
DEFAULT_BETA = 2.0

__all__ = ["__version__", "ATTACK_DISTRIBUTIONS", "BASELINE_TAGS",
           "ADAPTIVE_TAGS", "METHOD_TAGS", "DEFAULT_BETA"]
