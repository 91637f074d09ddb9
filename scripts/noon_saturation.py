"""Monte-Carlo check that NOON-state phase estimation reaches its bound.

Runs repeated maximum-likelihood trials against the parity measurement and
compares the empirical RMSE with the Cramer-Rao value 1/sqrt(nu F) and with
1/(2 <H> sqrt(nu)), the single-shot resource bound ``bound_new_hl`` divided
by sqrt(nu) for nu shots per trial.  For the NOON probe that value equals
the Cramer-Rao value.  It is not a lower bound on the RMSE of nu shots: a
product probe on the exponential kind reaches about 0.64 times it, so the
line is labelled by its formula, not as a bound.
"""
import argparse
import math
import time

from phasebound.estimation import TrialConfig, optimal_povm, precision_trial
from phasebound.metrology import build_report
from phasebound.states import mode_number_generator, noon_state


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--photons", type=int, default=3)
    parser.add_argument("--shots", type=int, default=1000)
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--phi", type=float, default=0.4)
    parser.add_argument("--seed", type=int, default=20260819)
    args = parser.parse_args()

    gen = mode_number_generator(args.photons)
    probe = noon_state(args.photons)
    config = TrialConfig(
        phi_true=args.phi,
        shots_per_trial=args.shots,
        n_trials=args.trials,
        rng_seed=args.seed,
        povm=optimal_povm(gen),
        search_interval=(args.phi - 0.3, args.phi + 0.5),
    )

    t0 = time.monotonic()
    result = precision_trial(gen, probe, config)
    elapsed = time.monotonic() - t0

    report = build_report(probe, gen)
    scaled_resource = report.bound_new_hl / math.sqrt(args.shots)

    print(f"photons {args.photons}, {args.trials} trials x {args.shots} shots ({elapsed:.1f}s)")
    print(f"empirical RMSE      {result.empirical_rmse:.6f}")
    print(f"Cramer-Rao value    {result.predicted_crb:.6f}")
    print(f"1/(2<H>√nu)         {scaled_resource:.6f}")
    print(f"RMSE / CRB          {result.empirical_rmse / result.predicted_crb:.3f}")
    print(f"RMSE·2<H>√nu        {result.empirical_rmse / scaled_resource:.3f}")


if __name__ == "__main__":
    main()
