"""Write the committed reference payoff matrices the benchmark checks against.

    python3 perfbench/make_reference.py

Builds the bundled 10x10 matrix and the 10x9 matrix of every 118-bus feeder
variant through the library with the numpy backend.  Run it only when a
change to the physics or the scoring is meant to move these numbers, and
say so in the change.
"""
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))
os.environ["GRIDGAME_BACKEND"] = "numpy"
os.environ["GRIDGAME_THREADS"] = "1"

from gridgame.experiments import synthetic_feeder  # noqa: E402
from gridgame.netmodel import load_ieee33  # noqa: E402
from gridgame.resilience import DEFAULT_AHP_MATRIX, ahp_weights, build_payoff_matrix  # noqa: E402
from gridgame.scenario import catalog_default  # noqa: E402

import workloads as wl  # noqa: E402


def main() -> None:
    weights = ahp_weights(DEFAULT_AHP_MATRIX)
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    build_payoff_matrix(load_ieee33(), catalog_default(), weights).to_csv(
        wl.REFERENCE_DIR / "payoff_ieee33.csv")
    for variant in range(wl.FEEDER_VARIANTS):
        state = synthetic_feeder(wl.SYNTH_BUSES, seed=variant)
        build_payoff_matrix(state, wl.feeder_catalog(state), weights).to_csv(
            wl.REFERENCE_DIR / f"payoff_synth{wl.SYNTH_BUSES}_v{variant}.csv")


if __name__ == "__main__":
    main()
