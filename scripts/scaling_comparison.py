"""Fit precision-bound scaling exponents across procedure kinds.

Uses closed-form query counts and spectral widths only, so N can go far past
any materializable Hilbert space. Prints the comparison table and, per kind,
the log-log slope of the query bound, or for the exponential kind, whose
bound falls geometrically, the factor by which each added system divides it.
"""
import argparse

import numpy as np

from phasebound.cli import compare_procedures, format_float


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--kinds",
        default="linear,kbody:2,exponential",
        help="comma list of kind tokens (linear, kbody:K, exponential, sequential:T)",
    )
    parser.add_argument("--n", default="2,4,8,16,32,64", help="comma list of system counts")
    args = parser.parse_args()

    kinds = [tok for tok in args.kinds.split(",") if tok]
    n_range = [int(tok) for tok in args.n.split(",") if tok]
    rows, skipped = compare_procedures(n_range, kinds)

    print(f"{'kind':<14} {'n':>5} {'q':>12} {'seminorm':>14} {'bound_query':>14}")
    for kind, n, q, seminorm, bound, _ in rows:
        print(f"{kind:<14} {n:>5} {q:>12} {format_float(seminorm):>14} {format_float(bound):>14}")
    for note in skipped:
        print(note)

    print()
    for token in kinds:
        pts = [(n, bound) for kind, n, _, _, bound, _ in rows if kind == token]
        if len(pts) < 2:
            continue
        ns, bounds = zip(*pts)
        if token == "exponential":
            factor = np.exp(-np.polyfit(ns, np.log(bounds), 1)[0])
            print(f"{token}: bound_query ~ {factor:.3f}^-N over N = {list(ns)}")
        else:
            slope = np.polyfit(np.log(ns), np.log(bounds), 1)[0]
            print(f"{token}: bound_query ~ N^{slope:.3f} over N = {list(ns)}")


if __name__ == "__main__":
    main()
