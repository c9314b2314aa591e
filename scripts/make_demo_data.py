#!/usr/bin/env python3
"""Write the two hand-analyzable demo fixtures and print CLI commands to try.

Creates a plant whose to-be-controlled variable simply equals the control
variable (every reference dynamics is implementable there), an accumulator
plant (whose hidden constant trajectories rule out decaying references), and
a geometrically decaying reference trajectory.
"""

import argparse
from pathlib import Path

from canonctrl import harness, lti_core, signal

#: length and data seed of every fixture trajectory
T, SEED = 50, 7


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="demo_data", help="output directory")
    args = parser.parse_args()

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    static, _ = harness.static_plant()
    integrator, _ = harness.integrator_plant()
    lti_core.write_model_json(out / "static_plant.json", static)
    lti_core.write_model_json(out / "integrator_plant.json", integrator)
    signal.write_csv(out / "reference.csv", harness.decaying_reference_data(T))
    signal.write_csv(out / "static_data.csv", harness.plant_data(static, T, SEED))
    signal.write_csv(out / "integrator_data.csv", harness.plant_data(integrator, T, SEED))

    print(f"fixtures written to {out}/")
    print("\ntry:")
    print(
        f"  canonctrl check --plant {out}/static_data.csv --ref {out}/reference.csv"
        " --picks-w 1 --picks-c 2 --L 2 --lag-bound 0 --m-bound 1,0 --n-bound 0,1"
    )
    print(
        f"  canonctrl check --plant {out}/integrator_data.csv --ref {out}/reference.csv"
        " --picks-w 1 --picks-c 2 --L 2 --lag-bound 1 --m-bound 1,0 --n-bound 1,1"
    )
    print(
        f"  canonctrl synth --plant {out}/static_data.csv --ref {out}/reference.csv"
        " --picks-w 1 --picks-c 2 --L 2 --lag-bound 0 --m-bound 1,0 --n-bound 0,1"
        f" --out {out}/controller.csv"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
