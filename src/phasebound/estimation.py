"""Monte-Carlo measurement sampling and maximum-likelihood phase estimation.

Measurements are ``metrology.Measurement`` values: the joint optimal POVM is
one site of two d x d elements, and the site-product POVM from
``tensor_power_povm`` is one validated site factor applied to every site, so
its probabilities never need an element of the joint space.

Estimation is local: the true phase is assumed to sit inside a known search
interval shorter than the likelihood period set by the generator's spectrum,
so the global phase ambiguity never enters.  Outcome sampling is multinomial
with a splittable counter-based seed scheme (one child stream per trial), so
results are reproducible and independent of execution order.  The predicted
error uses the exact Fisher information at the true phase (an analytic
phase derivative, no finite-difference step).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryWarning, UsageError, ValidationError
from .metrology import Measurement, _as_measurement, classical_fisher, outcome_probabilities
from .opalg import HermitianOperator, PureState, _evolved, evolve, hermitian_eigensystem
from .procedures import JointGenerator
from .states import _extreme_columns

RNG_ALGORITHM = "pcg64"  # numpy default_rng bit generator
GRID_POINTS = 1000
REFINE_TOL = 1e-8
MAX_TRIALS = 10**6
MAX_SHOTS = 10**9  # multinomial draws need a C long, 32 bits on some platforms
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True, eq=False)
class TrialConfig:
    """Inputs of one Monte-Carlo estimation run.

    ``povm`` is a Measurement or a list of elements; a list is validated and
    wrapped here, a Measurement is kept as built.  ``n_trials`` may not exceed
    MAX_TRIALS (10^6) and ``shots_per_trial`` may not exceed MAX_SHOTS (10^9).
    """

    phi_true: float
    shots_per_trial: int
    n_trials: int
    rng_seed: int
    povm: Measurement
    search_interval: tuple[float, float]

    def __post_init__(self):
        if not 1 <= self.shots_per_trial <= MAX_SHOTS:
            raise ValidationError(f"shots_per_trial must lie in [1, {MAX_SHOTS}], got {self.shots_per_trial}")
        if not 1 <= self.n_trials <= MAX_TRIALS:
            raise ValidationError(f"n_trials must lie in [1, {MAX_TRIALS}], got {self.n_trials}")
        if self.rng_seed < 0:
            raise ValidationError("rng_seed must be >= 0")
        povm = _as_measurement(self.povm)
        lo, hi = (float(self.search_interval[0]), float(self.search_interval[1]))
        if not lo < hi:
            raise ValidationError(f"search interval must satisfy lo < hi, got ({lo}, {hi})")
        if not lo <= self.phi_true <= hi:
            raise ValidationError(
                f"phi_true {self.phi_true} lies outside the search interval ({lo}, {hi})"
            )
        object.__setattr__(self, "povm", povm)
        object.__setattr__(self, "search_interval", (lo, hi))


@dataclass(frozen=True, eq=False)
class TrialResult:
    """Per-trial estimates plus the realized and predicted errors."""

    estimates: np.ndarray
    empirical_rmse: float
    predicted_crb: float
    rng_algorithm: str = RNG_ALGORITHM

    def __post_init__(self):
        est = np.asarray(self.estimates, dtype=float)
        est.setflags(write=False)
        object.__setattr__(self, "estimates", est)
        if self.empirical_rmse < 0:
            raise ValidationError("empirical_rmse must be >= 0")

    def to_dict(self) -> dict:
        return {
            "estimates": [float(x) for x in self.estimates],
            "empirical_rmse": self.empirical_rmse,
            "predicted_crb": self.predicted_crb,
            "rng_algorithm": self.rng_algorithm,
        }


def optimal_povm(gen: JointGenerator) -> list[HermitianOperator]:
    """Balanced two-outcome measurement of |h_max><h_min| + h.c.

    On probes confined to the plane of the two extreme eigenstates this is
    the parity-type measurement whose statistics carry the full quantum
    Fisher information of the balanced superposition.
    """
    vec_min, vec_max = _extreme_columns(hermitian_eigensystem(gen.generator))
    cross = np.outer(vec_max, vec_min.conj())
    x = cross + cross.conj().T
    eye = np.eye(gen.dim)
    return [HermitianOperator((eye + x) / 2), HermitianOperator((eye - x) / 2)]


def tensor_power_povm(povm: list[HermitianOperator], n: int) -> Measurement:
    """n-fold tensor power of a site POVM: one outcome per length-n word of site outcomes.

    Words are numbered with site 0 most significant.  The result is the site
    factor, validated once, applied to each of the n sites.
    """
    return Measurement(povm, n)


def sample_outcomes(state: PureState, povm, shots: int, seed) -> np.ndarray:
    """Multinomial outcome counts for the given probe and measurement.

    ``seed`` may be an integer or a numpy SeedSequence; equal seeds give
    identical counts.
    """
    if shots < 1:
        raise UsageError("shots must be >= 1")
    probs = outcome_probabilities(state, povm)
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValidationError(f"outcome probabilities sum to {total!r}, not 1")
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, probs / total)


def _golden_max(f, lo: float, hi: float, tol: float) -> float:
    # ties break toward the left end, keeping estimates deterministic
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return (a + b) / 2


def _floored_log(probs: np.ndarray) -> np.ndarray:
    return np.log(np.clip(probs, 1e-300, None))


def _outcome_table(state: PureState, gen: HermitianOperator, povm, grid) -> np.ndarray:
    """P[g, k] = outcome_probabilities(evolve(state, gen, grid[g]), povm)[k]; one row (K,) for a float grid.

    The probe is evolved to every phase at once by ``opalg._evolved``, which
    checks each row's norm, and the batch goes through the measurement's
    probability kernel, which rejects probabilities below -1e-12.
    """
    return _as_measurement(povm).probabilities(_evolved(state, gen, grid))


def _scan_and_refine(counts, log_table: np.ndarray, grid: np.ndarray, model) -> float:
    # grid scan over the tabulated log-probabilities, golden refinement on the model
    counts = np.asarray(counts, dtype=float)

    def loglik(phi: float) -> float:
        return float(np.dot(counts, _floored_log(np.asarray(model(phi), dtype=float))))

    best = int(np.argmax(log_table @ counts))
    if best in (0, grid.size - 1):
        warnings.warn(
            "likelihood maximum sits on the search-interval boundary; the interval may not "
            "contain the true phase",
            BoundaryWarning,
            stacklevel=3,
        )
    left = grid[max(best - 1, 0)]
    right = grid[min(best + 1, grid.size - 1)]
    return _golden_max(loglik, float(left), float(right), REFINE_TOL)


def mle_estimate(counts, model, interval: tuple[float, float]) -> float:
    """Maximize the multinomial log-likelihood of the counts over the interval.

    The model is tabulated on a 1000-point grid whose scan brackets the
    maximum (first occurrence wins, so exact ties resolve to the smaller
    phase), then golden-section search on the model tightens the bracket to
    1e-8.  A maximum on the interval edge raises BoundaryWarning since the
    true optimum may lie outside.  precision_trial runs the same scan and
    refinement on a table it builds once per trial run.
    """
    lo, hi = (float(interval[0]), float(interval[1]))
    if not lo < hi:
        raise UsageError(f"interval must satisfy lo < hi, got ({lo}, {hi})")
    grid = np.linspace(lo, hi, GRID_POINTS)
    table = np.array([np.asarray(model(phi), dtype=float) for phi in grid])
    return _scan_and_refine(counts, _floored_log(table), grid, model)


def precision_trial(gen: JointGenerator, state: PureState, config: TrialConfig) -> TrialResult:
    """Repeated sample-and-estimate rounds against a fixed true phase.

    Each trial draws its RNG stream from (rng_seed, trial_index), so the
    result does not depend on scheduling; the predicted error is the
    Cramer-Rao value 1/sqrt(shots * F) at the true phase, with F the exact
    Fisher information of ``classical_fisher``.  The outcome
    probabilities over mle_estimate's grid are tabulated once per call, so
    each trial's grid scan is one table-vector product; the golden-section
    refinement evaluates ``_outcome_table`` at one phase, the same
    probabilities as outcome_probabilities(evolve(...)).
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
    model = functools.partial(_outcome_table, state, gen.generator, povm)
    fisher = classical_fisher(povm, state, gen.generator, config.phi_true)
    if fisher <= 0:
        raise ValidationError("measurement carries no phase information at phi_true")
    grid = np.linspace(lo, hi, GRID_POINTS)
    log_table = _floored_log(model(grid))
    truth = evolve(state, gen.generator, config.phi_true)
    estimates = np.empty(config.n_trials)
    for trial in range(config.n_trials):
        stream = np.random.SeedSequence(entropy=config.rng_seed, spawn_key=(trial,))
        counts = sample_outcomes(truth, povm, config.shots_per_trial, stream)
        estimates[trial] = _scan_and_refine(counts, log_table, grid, model)
    rmse = float(np.sqrt(np.mean((estimates - config.phi_true) ** 2)))
    crb = 1.0 / math.sqrt(config.shots_per_trial * fisher)
    return TrialResult(estimates, rmse, crb)
