"""Sweep the balanced-superposition weight mu and record both resource counts.

For the two-level superposition sqrt(mu)|h_max> + sqrt(1-mu)|h_min>, the
shifted expectation grows linearly in mu while the standard deviation follows
a semicircle; the two counts meet at mu = 0, where both vanish, and cross at
mu = 1/2. Writes a CSV and prints where the curves agree.
"""
import argparse

import numpy as np

from phasebound.cli import _csv_text, format_float
from phasebound.metrology import mu_sweep
from phasebound.opalg import HermitianOperator
from phasebound.procedures import JointGenerator


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seminorm", type=float, default=1.0, help="spectral width of the generator")
    parser.add_argument("--grid", type=int, default=101, help="number of mu points")
    parser.add_argument("--out", default="fig5.csv", help="output CSV path")
    args = parser.parse_args()

    gen = JointGenerator(HermitianOperator.from_diagonal([0.0, args.seminorm]), 1)
    rows = mu_sweep(gen, np.linspace(0.0, 1.0, args.grid))
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(_csv_text(["mu", "shifted_expectation", "stddev"], [list(r) for r in rows]))
    print(f"wrote {args.out} ({args.grid} rows, seminorm {format_float(args.seminorm)})")

    crossings = [mu for mu, shifted, stddev in rows if abs(shifted - stddev) < 1e-10]
    print(f"curves agree at mu = {crossings}")
    gaps = [(abs(shifted - stddev), mu) for mu, shifted, stddev in rows]
    gap, at = max(gaps)
    print(f"largest gap {format_float(gap)} at mu = {format_float(at)}")


if __name__ == "__main__":
    main()
