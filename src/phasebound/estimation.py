"""Monte-Carlo measurement sampling and maximum-likelihood phase estimation.

Every measurement is a validated ``metrology.Measurement``: ``optimal_povm``
gives the fringe form, two vectors and no d x d element, and the
site-product POVM ``Measurement(site, n)`` applies one site factor to every
site, so neither needs an element of the joint space.

Estimation is local: the true phase is assumed to sit inside a known search
interval shorter than the likelihood period set by the generator's spectrum,
so the global phase ambiguity never enters.  Outcome sampling is multinomial
with a splittable counter-based seed scheme (one child stream per trial), so
results are reproducible and independent of execution order.  A trial's
estimator takes one of two paths:

- fringe: ``_reduced_fringe`` finds a closed-form fringe
  p+ = 1/2 + V cos(Delta phi + theta) on a count (n+, n-): the fringe form
  on extreme eigenvectors of the trial's generator, or a site-product
  measurement of (I +/- X)/2 whose + site outcomes (product probe) or even
  words (two-word probe) are the count.  Each estimate is a fringe
  inversion (``_fringe_estimate``);
- grid: every other measurement is estimated on a phase grid, refined by
  bisection on the sign of the log-likelihood score.  The score's slope is
  the analytic phase derivative that also gives the Fisher information
  (``mle_estimate``, on a model callable, takes a central difference).
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from .errors import BoundaryWarning, UsageError, ValidationError
from .metrology import (Measurement, _probabilities_and_slope, _require_measurement, classical_fisher,
                        outcome_probabilities)
from .opalg import (HermitianOperator, PureState, _as_count, _evolved, _Frozen, _kron_power, _lifted_site_values,
                    _read_only, evolve, hermitian_eigensystem)
from .procedures import JointGenerator
from .states import _extreme_columns

RNG_ALGORITHM = "pcg64"  # numpy default_rng bit generator
GRID_POINTS = 1000
REFINE_TOL = 1e-8
MODEL_STEP = 1e-6  # central-difference step of mle_estimate's score
MAX_TRIALS = 10**6
MAX_SHOTS = 10**9  # multinomial draws need a C long, 32 bits on some platforms
_SWAP_TOL = 1e-12  # entry error of a site element read as (I +/- X)/2
_FACTOR_TOL = 1e-8  # residual of a fringe vector or a probe; relative to the spectral scale where a value enters
_CHUNK_AMPLITUDES = 1 << 18  # evolved or site-eigenbasis amplitudes one chunk of the grid table may hold (4 MB)


class TrialConfig(_Frozen):
    """Inputs of one Monte-Carlo estimation run.

    ``povm`` is a Measurement, kept as built.  The three counts are integers,
    ``n_trials`` <= MAX_TRIALS (10^6) and ``shots_per_trial`` <= MAX_SHOTS (10^9).
    """

    __slots__ = ("phi_true", "shots_per_trial", "n_trials", "rng_seed", "povm", "search_interval")

    def __init__(self, phi_true: float, shots_per_trial: int, n_trials: int, rng_seed: int, povm: Measurement,
                 search_interval: tuple[float, float]):
        shots_per_trial = _as_count(shots_per_trial, "shots_per_trial", 1)
        if shots_per_trial > MAX_SHOTS:
            raise ValidationError(f"shots_per_trial must lie in [1, {MAX_SHOTS}], got {shots_per_trial}")
        n_trials = _as_count(n_trials, "n_trials", 1)
        if n_trials > MAX_TRIALS:
            raise ValidationError(f"n_trials must lie in [1, {MAX_TRIALS}], got {n_trials}")
        rng_seed = _as_count(rng_seed, "rng_seed", 0)
        _require_measurement(povm)
        lo, hi = (float(search_interval[0]), float(search_interval[1]))
        if not lo < hi:
            raise ValidationError(f"search interval must satisfy lo < hi, got ({lo}, {hi})")
        if not lo <= phi_true <= hi:
            raise ValidationError(f"phi_true {phi_true} lies outside the search interval ({lo}, {hi})")
        self._set(phi_true=phi_true, shots_per_trial=shots_per_trial, n_trials=n_trials, rng_seed=rng_seed,
                  povm=povm, search_interval=(lo, hi))


class TrialResult(_Frozen):
    """Per-trial estimates plus the realized and predicted errors."""

    __slots__ = ("estimates", "empirical_rmse", "predicted_crb")

    def __init__(self, estimates: np.ndarray, empirical_rmse: float, predicted_crb: float):
        est = _read_only(np.array(estimates, dtype=float))  # a copy, so the caller's array stays writable
        if empirical_rmse < 0:
            raise ValidationError("empirical_rmse must be >= 0")
        self._set(estimates=est, empirical_rmse=empirical_rmse, predicted_crb=predicted_crb)

    def to_dict(self) -> dict:
        return {
            "estimates": [float(x) for x in self.estimates],
            "empirical_rmse": self.empirical_rmse,
            "predicted_crb": self.predicted_crb,
            "rng_algorithm": RNG_ALGORITHM,
        }


def optimal_povm(gen: JointGenerator) -> Measurement:
    """Balanced two-outcome measurement (I +/- X)/2 of X = |h_max><h_min| + h.c., in the fringe form.

    On probes confined to the plane of the two extreme eigenstates this is
    the parity-type measurement whose statistics carry the full quantum
    Fisher information of the balanced superposition.  Only the two extreme
    eigenvectors are kept: no d x d element is built, and ``.site`` is ().
    """
    vec_min, vec_max = _extreme_columns(hermitian_eigensystem(gen.generator))
    return Measurement._of_fringe(vec_max, vec_min)


def _outcome_sampler(state: PureState, povm: Measurement):
    """(shots, seed) -> multinomial counts, on outcome probabilities computed and checked once."""
    probs = outcome_probabilities(state, povm)
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"outcome probabilities sum to {total!r}, not 1")
    probs = probs / total
    return lambda shots, seed: np.random.default_rng(seed).multinomial(shots, probs)


def sample_outcomes(state: PureState, povm: Measurement, shots: int, seed) -> np.ndarray:
    """Multinomial outcome counts for the given probe and measurement.

    ``seed`` may be an integer or a numpy SeedSequence; equal seeds give
    identical counts.
    """
    if shots < 1:
        raise UsageError("shots must be >= 1")
    return _outcome_sampler(state, povm)(shots, seed)


def _floored_log(probs: np.ndarray) -> np.ndarray:
    return np.log(np.clip(probs, 1e-300, None))


def _outcome_table(state: PureState, gen: HermitianOperator, povm: Measurement, grid: np.ndarray) -> np.ndarray:
    """P[g, k] = outcome_probabilities(evolve(state, gen, grid[g]), povm)[k] for a 1-D array of phases.

    The probe is evolved (``opalg._evolved`` checks each row's norm) and measured (the kernel rejects probabilities
    below -1e-12) in chunks of phases holding at most _CHUNK_AMPLITUDES amplitudes, evolved or site-eigenbasis.
    """
    # a site element of rank r keeps r eigen-rows, so a state can take more site-eigenbasis amplitudes than d
    width = state.dim if povm._fringe is not None else max(state.dim, povm._rows_t.shape[1] ** povm.n_sites)
    step = max(1, _CHUNK_AMPLITUDES // width)
    return np.vstack([povm.probabilities(_evolved(state, gen, grid[i:i + step])) for i in range(0, grid.size, step)])


def _warn_boundary() -> None:
    # reported at the caller of precision_trial or mle_estimate, two frames above the estimator
    warnings.warn(
        "likelihood maximum sits on the search-interval boundary; the interval may not contain the true phase",
        BoundaryWarning,
        stacklevel=4,
    )


def _pair_fringe(amplitudes: np.ndarray, values: np.ndarray, i: int, j: int) -> tuple[float, float, float] | None:
    """(Delta, V, theta) of p+ = 1/2 + Re(conj(a_i) a_j), a_k = amplitudes[k] exp(-i phi values[k]); None when flat.

    p+ is symmetric in i and j, so i is taken as the level with the larger
    value and Delta = values[i] - values[j] >= 0.
    """
    if values[i] < values[j]:
        i, j = j, i
    z = np.conj(amplitudes[i]) * amplitudes[j]
    delta = float(values[i] - values[j])
    return (delta, float(abs(z)), float(np.angle(z))) if delta > 0 and z != 0 else None


def _fringe_estimate(delta: float, vis: float, theta: float, lo: float, hi: float, counts) -> float:
    """Maximize the floored log-likelihood of counts (n+, n-) under the fringe over [lo, hi], with no grid.

    The candidates are the roots of p+ = n+/n, the fringe extrema (cos = +/-1)
    inside the interval and its two ends; the highest likelihood wins, ties go
    to the smaller phase, and a winning end raises BoundaryWarning.
    """
    counts = np.asarray(counts, dtype=float)
    c = (counts[0] / counts.sum() - 0.5) / vis
    # (phase, cos(Delta phi + theta)): a root or an extremum carries its cosine exactly, so mirror roots tie exactly
    candidates = [(lo, math.cos(delta * lo + theta)), (hi, math.cos(delta * hi + theta))]
    for x, cos_x in [(0.0, 1.0), (math.pi, -1.0)] + ([(math.acos(c), c), (-math.acos(c), c)] if abs(c) <= 1 else []):
        k_lo = math.ceil((delta * lo + theta - x) / (2 * math.pi))  # Delta phi + theta = x + 2 pi k
        k_hi = math.floor((delta * hi + theta - x) / (2 * math.pi))
        phis = ((x - theta + 2 * math.pi * k) / delta for k in range(k_lo, k_hi + 1))
        candidates += [(phi, cos_x) for phi in phis if lo < phi < hi]
    # one small product per candidate: a batched product may round equal columns differently
    best, _ = max(sorted(candidates), key=lambda cand: counts @ _floored_log(0.5 + vis * np.array([1, -1]) * cand[1]))
    if best in (lo, hi):
        _warn_boundary()
    return float(best)


def _site_swap(povm: Measurement) -> tuple[int, int, int] | None:
    """(plus, i, j) when the site elements are (I + X)/2, at index ``plus``, and (I - X)/2; else None.

    X swaps site levels i and j.  Each element must match its form within
    _SWAP_TOL in every entry; a site with other than two elements gives None.
    """
    if len(povm.site) != 2:
        return None
    e0, e1 = (element.entries for element in povm.site)
    i, j = np.unravel_index(np.argmax(np.abs(e0 - e1)), e0.shape)  # e0 - e1 = +/- X
    if i == j:
        return None
    x = np.zeros(e0.shape)
    x[i, j] = x[j, i] = 1.0
    eye = np.eye(e0.shape[0])
    for plus, sign in ((0, 1.0), (1, -1.0)):
        if max(np.abs(e0 - (eye + sign * x) / 2).max(), np.abs(e1 - (eye - sign * x) / 2).max()) <= _SWAP_TOL:
            return plus, int(i), int(j)
    return None


def _tensor_root(psi: np.ndarray, n: int, ds: int) -> np.ndarray | None:
    """A unit site state s with psi = c s^(xn) within _FACTOR_TOL, or None; s is read through psi's peak."""
    peak = np.unravel_index(np.argmax(np.abs(psi)), [ds] * n)
    site = psi.reshape([ds] * n)[(slice(None),) + peak[1:]]
    site = site / np.linalg.norm(site)
    power = _kron_power(site, n)
    return site if np.linalg.norm(psi - np.vdot(power, psi) * power) <= _FACTOR_TOL else None


def _site_sum(v: np.ndarray, n: int, ds: int, tol: float) -> np.ndarray | None:
    """Site values g with v(b) = v(0) + sum_j g(b_j) within tol on every word b, or None; g(0) = 0."""
    g = v.reshape([ds] * n)[(slice(None),) + (0,) * (n - 1)] - v[0]  # site 0's levels, every other site at 0
    lifted = v[0] + sum(_lifted_site_values(g, j, n, ds) for j in range(n))
    return g if np.max(np.abs(v - lifted)) <= tol else None


def _reduced_fringe(povm: Measurement, gen: JointGenerator, state: PureState):
    """(fringe, rows): the trial's counts reduce to the fringe counts (n+, n-) = rows @ counts; None when they do not.

    The fringe p+ = 1/2 + V cos(Delta phi + theta) is oriented for
    ``_fringe_estimate``; a flat one gives None.  Three cases hold, each to
    _FACTOR_TOL (relative to the spectral scale for eigenvectors and site sums):

    - the fringe form, decided first since it has no site elements: its
      vectors are eigenvectors of the generator at h_max and h_min, V = |ab|
      and theta = arg(conj(a) b) with a = <max|psi> and b = <min|psi>, and
      the counts already are (n+, n-);
    - a site-product measurement of (I +/- X)/2, X swapping site levels M and
      m (``_site_swap``), under a diagonal generator, on a product probe
      c s^(xN) when the generator is a sum of one set of site values,
      v(b) = sum_j g(b_j): every site shows the one-site fringe
      p+ = 1/2 + Re(conj(s_M) s_m), so the + outcomes over all nu N site
      draws are the count;
    - the same measurement on a two-word probe on the all-M and all-m words,
      under any diagonal generator: a word's probability depends only on the
      parity of its - outcomes, and the even words carry the parity fringe
      (Bollinger et al., PRA 54, R4649, 1996) with Delta = v(all-M) - v(all-m).

    The site-product cases are recognised in O(N d).
    """
    tol = _FACTOR_TOL * max(1.0, abs(gen.h_min), abs(gen.h_max))
    if povm._fringe is not None:
        for v, h in zip(povm._fringe, (gen.h_max, gen.h_min)):
            if np.linalg.norm(gen.generator.apply(v) - h * v) > tol:
                return None
        fringe = _pair_fringe(povm._fringe.conj() @ state.amplitudes, np.array([gen.h_max, gen.h_min]), 0, 1)
        return None if fringe is None else (fringe, np.eye(2, dtype=int))
    swap = _site_swap(povm)
    if swap is None or not gen.generator.is_diagonal:
        return None
    plus, i, j = swap
    n, ds = povm.n_sites, povm.site[0].dim
    v, psi = gen.generator.diagonal, state.amplitudes
    # plus_sites[k]: the sites with outcome + in word k, site 0 most significant
    plus_sites = sum(_lifted_site_values((np.arange(2) == plus).astype(int), k, n, 2) for k in range(n))
    site = _tensor_root(psi, n, ds)
    g = None if site is None else _site_sum(v, n, ds, tol)
    if g is not None:
        fringe, rows = _pair_fringe(site, g, i, j), np.stack([plus_sites, n - plus_sites])
    else:
        words = [level * (ds**n - 1) // (ds - 1) for level in (i, j)]  # the all-i and all-j words
        rest = psi.copy()
        rest[words] = 0
        if np.linalg.norm(rest) > _FACTOR_TOL:
            return None
        even = (n - plus_sites) % 2 == 0
        fringe, rows = _pair_fringe(psi[words], v[words], 0, 1), np.stack([even, ~even]).astype(int)
    return None if fringe is None else (fringe, rows)


def _scan_and_refine(counts, log_table: np.ndarray, grid: np.ndarray, slope) -> float:
    """Maximize the floored log-likelihood of the counts over [grid[0], grid[-1]].

    The scan keeps the first of exactly tied grid points; bisection on the sign
    of the score sum_k n_k p_k'/p_k, (p, p') = slope(phi), halves that point's
    bracket to REFINE_TOL.  An end is the estimate, with a BoundaryWarning, only
    when it is the best grid point and the score there points outward.
    """
    counts = np.asarray(counts, dtype=float)
    seen = counts > 0

    def score(phi: float) -> float:
        p, dp = slope(phi)
        return float(counts[seen] @ (dp[seen] / np.clip(p[seen], 1e-300, None)))

    best, last = int(np.argmax(log_table @ counts)), grid.size - 1
    if (best == 0 and score(grid[0]) <= 0) or (best == last and score(grid[last]) >= 0):
        _warn_boundary()
        return float(grid[best])
    a, b = float(grid[max(best - 1, 0)]), float(grid[min(best + 1, last)])
    # far from 0 adjacent floats may be wider than REFINE_TOL: stop once the midpoint rounds onto an end
    while b - a >= REFINE_TOL and a < (mid := (a + b) / 2) < b:
        a, b = (mid, b) if score(mid) > 0 else (a, mid)
    return (a + b) / 2


def _grid_estimator(state: PureState, gen: HermitianOperator, povm: Measurement, lo: float, hi: float):
    """counts -> ``_scan_and_refine`` estimate, on outcome probabilities tabulated once over the GRID_POINTS grid."""
    grid = np.linspace(lo, hi, GRID_POINTS)
    slope = functools.partial(_probabilities_and_slope, povm, state, gen)
    return functools.partial(_scan_and_refine, log_table=_floored_log(_outcome_table(state, gen, povm, grid)),
                             grid=grid, slope=slope)


def mle_estimate(counts, model, interval: tuple[float, float]) -> float:
    """Maximize the multinomial log-likelihood of the counts over the interval by precision_trial's grid path.

    The model (phase -> outcome probabilities) has no analytic derivative, so the
    score's slope is a central difference with step MODEL_STEP, which reaches
    that far outside the interval.
    """
    lo, hi = (float(interval[0]), float(interval[1]))
    if not lo < hi:
        raise UsageError(f"interval must satisfy lo < hi, got ({lo}, {hi})")
    grid = np.linspace(lo, hi, GRID_POINTS)
    table = np.array([np.asarray(model(phi), dtype=float) for phi in grid])

    def slope(phi: float):
        ahead, behind = (np.asarray(model(phi + s), dtype=float) for s in (MODEL_STEP, -MODEL_STEP))
        return np.asarray(model(phi), dtype=float), (ahead - behind) / (2 * MODEL_STEP)

    return _scan_and_refine(counts, _floored_log(table), grid, slope)


def precision_trial(gen: JointGenerator, state: PureState, config: TrialConfig) -> TrialResult:
    """Repeated sample-and-estimate rounds against a fixed true phase.

    Each trial draws its RNG stream from (rng_seed, trial_index), so the
    result does not depend on scheduling; the predicted error is the
    Cramer-Rao value 1/sqrt(shots * F), F the exact ``classical_fisher`` of the
    full measurement at the true phase, whose outcome probabilities are
    computed twice per call (there and for the sampler), never per trial.
    A measurement whose counts ``_reduced_fringe`` reduces to a fringe count
    is estimated by ``_fringe_estimate`` on that count; any other by a grid
    scan, on outcome probabilities tabulated once per call, refined by
    bisection on the score.  Both paths raise one BoundaryWarning per
    estimate that equals an interval end.
    """
    if state.dim != gen.dim:
        raise UsageError(f"dimension mismatch: state {state.dim} vs generator {gen.dim}")
    if config.povm.dim != gen.dim:
        raise UsageError("POVM dimension does not match the generator")
    lo, hi = config.search_interval
    if gen.seminorm > 0 and hi - lo > 2 * math.pi / gen.seminorm:
        raise ValidationError(
            f"search interval width {hi - lo:g} exceeds the likelihood period "
            f"{2 * math.pi / gen.seminorm:g}; local estimation would be ambiguous"
        )
    povm = config.povm
    fisher = classical_fisher(povm, state, gen.generator, config.phi_true)
    if fisher <= 0:
        raise ValidationError("measurement carries no phase information at phi_true")
    if (reduced := _reduced_fringe(povm, gen, state)) is not None:
        fringe, rows = reduced
        estimate = functools.partial(_fringe_estimate, *fringe, lo, hi)
    else:
        rows, estimate = None, _grid_estimator(state, gen.generator, povm, lo, hi)
    draw = _outcome_sampler(evolve(state, gen.generator, config.phi_true), povm)
    estimates = np.empty(config.n_trials)
    for trial in range(config.n_trials):
        counts = draw(config.shots_per_trial, np.random.SeedSequence(entropy=config.rng_seed, spawn_key=(trial,)))
        estimates[trial] = estimate(counts if rows is None else rows @ counts)
    rmse = float(np.sqrt(np.mean((estimates - config.phi_true) ** 2)))
    crb = 1.0 / math.sqrt(config.shots_per_trial * fisher)
    return TrialResult(estimates, rmse, crb)
