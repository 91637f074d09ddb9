"""Probe-state families and the generators naturally paired with them.

Covers the mu-parameterized superpositions of the extreme eigenvectors of a
joint generator, NOON states in the fixed-photon-number two-mode sector,
balanced product states, and truncated coherent states.  The photonic
families come with their phase generators (mode occupation numbers) so they
can flow through the same resource accounting as the qubit procedures.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateGeneratorError, ValidationError
from .opalg import HermitianOperator, PureState, Spectrum, _check_dim, _kron_power, hermitian_eigensystem
from .procedures import JointGenerator

COHERENT_DEFICIT_TOL = 1e-8
_DEGENERACY_TOL = 1e-12


def _check_mu(mu: float) -> None:
    if not 0.0 <= mu <= 1.0:
        raise ValidationError(f"mu must lie in [0, 1], got {mu}")


def _check_photons(n_photons: int) -> None:
    if n_photons < 1:
        raise ValidationError("n_photons must be >= 1")
    _check_dim(n_photons + 1)  # before the n + 1 amplitudes are allocated


def _check_cutoff(alpha: complex, cutoff: int) -> None:
    if cutoff < 1:
        raise ValidationError("cutoff must be >= 1")
    _check_dim(cutoff + 1)
    # a float product overflows to inf where ** 2 would raise OverflowError
    floor = 10.0 * abs(alpha) * abs(alpha)
    if cutoff < floor:
        raise ValidationError(
            f"cutoff {cutoff} is below 10*|alpha|^2 = {floor:g}; truncation would be uncontrolled"
        )


def _extreme_columns(spectrum: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    # ties resolved to the smallest column index inside each extreme block,
    # which the stable diagonal sort maps to the smallest basis index
    w = spectrum.eigenvalues
    scale = max(1.0, abs(w[0]), abs(w[-1]))
    top = int(np.argmax(w >= w[-1] - _DEGENERACY_TOL * scale))
    return spectrum.column(0), spectrum.column(top)


def optimal_state(gen: JointGenerator, mu: float, rel_phase: float = 0.0) -> PureState:
    """sqrt(mu) |h_max> + sqrt(1-mu) e^{i rel_phase} |h_min>.

    The relative phase never shows up in any moment of the generator; it is
    kept for completeness of the family.
    """
    _check_mu(mu)
    if gen.seminorm < _DEGENERACY_TOL:
        raise DegenerateGeneratorError(
            "generator has a flat spectrum (h_max = h_min); no superposition of distinct "
            "extreme eigenvectors exists"
        )
    vec_min, vec_max = _extreme_columns(hermitian_eigensystem(gen.generator))
    amps = math.sqrt(mu) * vec_max + math.sqrt(1.0 - mu) * np.exp(1j * rel_phase) * vec_min
    return PureState(amps)


def noon_state(n_photons: int) -> PureState:
    """(|N,0> + |0,N>)/sqrt(2) in the fixed-N two-mode sector.

    Basis index m counts photons in mode 1, so the sector has dimension N+1
    and the phase generator is the diagonal mode-1 number operator.
    """
    _check_photons(n_photons)
    amps = np.zeros(n_photons + 1, dtype=complex)
    amps[0] = 1 / math.sqrt(2)
    amps[n_photons] = 1 / math.sqrt(2)
    return PureState(amps)


def mode_number_generator(n_photons: int) -> JointGenerator:
    """Mode-1 photon number diag(0..N) on the sector; each photon queries the phase once."""
    _check_photons(n_photons)
    op = HermitianOperator.from_diagonal(np.arange(n_photons + 1, dtype=float))
    return JointGenerator(op, n_photons)


def product_balanced_state(n_systems: int, base_spectrum: Spectrum) -> PureState:
    """N-fold tensor power of the balanced superposition of the extreme eigenvectors."""
    if n_systems < 1:
        raise ValidationError("n_systems must be >= 1")
    vec_min, vec_max = _extreme_columns(base_spectrum)
    return PureState(_kron_power((vec_min + vec_max) / math.sqrt(2), n_systems))


def coherent_state(alpha: complex, cutoff: int) -> PureState:
    """Fock expansion of |alpha> truncated at ``cutoff`` and renormalized.

    Amplitudes are assembled in log space so large cutoffs stay finite; the
    truncated weight must not exceed 1e-8.
    """
    _check_cutoff(alpha, cutoff)
    n = np.arange(cutoff + 1)
    if alpha == 0:
        amps = np.zeros(cutoff + 1, dtype=complex)
        amps[0] = 1.0
        return PureState(amps)
    log_mag = -abs(alpha) ** 2 / 2 + n * math.log(abs(alpha)) - 0.5 * np.array(
        [math.lgamma(m + 1) for m in n]
    )
    amps = np.exp(log_mag) * np.exp(1j * n * np.angle(alpha))
    deficit = 1.0 - float(np.sum(np.abs(amps) ** 2))
    if deficit > COHERENT_DEFICIT_TOL:
        raise ValidationError(
            f"truncation deficit {deficit:.3e} exceeds {COHERENT_DEFICIT_TOL:.0e}; raise the cutoff"
        )
    return PureState(amps / math.sqrt(1.0 - deficit))


def number_operator(cutoff: int) -> JointGenerator:
    """Photon-number generator diag(0..cutoff) for coherent probes.

    The query count is left undefined: with a coherent probe the photon
    number is known only on average, so no integer Q exists.
    """
    if cutoff < 1:
        raise ValidationError("cutoff must be >= 1")
    _check_dim(cutoff + 1)
    op = HermitianOperator.from_diagonal(np.arange(cutoff + 1, dtype=float))
    return JointGenerator(op, None)
