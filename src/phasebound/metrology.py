"""Resource counts, precision bounds, measurements and Fisher information.

Three resource counts are in play: the query count Q carried by the
generator, the standard deviation of the generator in the probe, and the
expectation of the generator above its ground state.  Each feeds its own
lower bound on the phase uncertainty; for the balanced extreme-eigenvector
superpositions all of them collapse to the same number.

A measurement is a ``Measurement``, and nothing else is accepted: one site
factor, validated once when it is built, applied to each of N sites, or the
two-outcome fringe (I +/- X)/2 held as two vectors.  One kernel gives the
outcome probabilities of a single state or of a batch of states, by
contracting the amplitudes site axis by site axis (the ``opalg`` site
kernel) or with the two fringe vectors, so neither form needs an element of
the joint space.

Phase derivatives are analytic.  Every phase family is exp(-i phi H) psi, so
dpsi/dphi = -i H psi costs one ``apply``, and the Fisher information pushes
that tangent through the same kernel.  The quantum Fisher information of a
pure probe, 4 Var(H), is the ``qfi`` of ``build_report``.

Bounds that would be infinite (zero resource, e.g. an eigenstate probe or a
flat generator) are reported as the NO_SENSITIVITY sentinel instead of a
float so serialized reports stay finite and explicit.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalIntegrityError, UsageError, ValidationError
from .opalg import (HermitianOperator, PureState, _contract_sites, _Frozen, _read_only, evolve,
                    hermitian_eigensystem, moments)
from .procedures import JointGenerator, ProcedureSpec, snl_baseline, sum_orders
from .states import optimal_state

NO_SENSITIVITY = "no-sensitivity"
ZERO_RESOURCE_TOL = 1e-12
POVM_TOL = 1e-9
_PROB_FLOOR = 1e-12
# site-eigenbasis amplitudes one chunk of a probability batch may hold (4 MB)
_CHUNK_AMPLITUDES = 1 << 18


class ResourceReport(_Frozen):
    """Every resource count and bound for one probe/generator pair.

    Optional fields are None when undefined: q for probes without a query
    count, bound_query without a procedure giving the per-query constant,
    bound_snl for kinds without a separable baseline.  ``to_dict`` drops the
    None fields so serialized reports omit rather than null them.
    """

    __slots__ = ("expectation_raw", "expectation_shifted", "stddev", "seminorm", "bound_new_hl", "bound_stddev", "qfi",
                 "q", "bound_query", "bound_snl")

    def __init__(self, expectation_raw: float, expectation_shifted: float, stddev: float, seminorm: float,
                 bound_new_hl: float | str, bound_stddev: float | str, qfi: float, q: int | None = None,
                 bound_query: float | None = None, bound_snl: float | None = None):
        if expectation_shifted < -1e-10:
            raise ValidationError(f"shifted expectation {expectation_shifted:.3e} is negative beyond tolerance")
        if stddev < 0 or seminorm < 0 or qfi < 0:
            raise ValidationError("stddev, seminorm and qfi must be non-negative")
        self._set(expectation_raw=expectation_raw, expectation_shifted=expectation_shifted, stddev=stddev,
                  seminorm=seminorm, bound_new_hl=bound_new_hl, bound_stddev=bound_stddev, qfi=qfi, q=q,
                  bound_query=bound_query, bound_snl=bound_snl)

    def to_dict(self) -> dict:
        return {name: value for name in self.__slots__ if (value := getattr(self, name)) is not None}


def resource_count_shifted(state: PureState, gen: JointGenerator) -> float:
    """Expectation of the generator above its ground state, <H - h_min I>."""
    return _shifted_expectation(moments(state, gen.generator)[0], gen)


def _shifted_expectation(expectation: float, gen: JointGenerator) -> float:
    if (shifted := expectation - gen.h_min) < -1e-10:
        raise NumericalIntegrityError(f"shifted expectation {shifted:.3e} fell below the ground state beyond tolerance")
    return shifted


def heisenberg_bound_expectation(shifted_expectation: float):
    """1/(2 <H - h_min I>), or NO_SENSITIVITY when the resource vanishes."""
    if shifted_expectation < -1e-10:
        raise UsageError(f"shifted expectation must be >= 0, got {shifted_expectation}")
    if shifted_expectation <= ZERO_RESOURCE_TOL:
        return NO_SENSITIVITY
    return 1.0 / (2.0 * shifted_expectation)


def heisenberg_bound_stddev(stddev: float):
    """1/(2 dH), or NO_SENSITIVITY when the probe carries no spread."""
    if stddev < 0:
        raise UsageError(f"stddev must be >= 0, got {stddev}")
    if stddev <= ZERO_RESOURCE_TOL:
        return NO_SENSITIVITY
    return 1.0 / (2.0 * stddev)


def query_bound(q: int, lambda_min: float, lambda_max: float, k: int) -> float:
    """c_k / q with c_k = 1/(lambda_max^k - lambda_min^k)."""
    if q < 1:
        raise UsageError(f"query count must be >= 1, got {q}")
    span = lambda_max**k - lambda_min**k
    if span <= 0:
        raise ValidationError(
            f"degenerate powers: lambda_max^{k} - lambda_min^{k} = {span:g} is not positive"
        )
    return 1.0 / (span * q)


def validate_povm(povm: list[HermitianOperator]) -> None:
    """Reject an empty list, mixed dimensions, a negative eigenvalue or a sum other than I.

    Each element's eigensystem is computed, and cached on the element, on
    the way; ``Measurement`` reads it from that cache.
    """
    if not povm:
        raise ValidationError("POVM must have at least one element")
    dim = povm[0].dim
    total = np.zeros((dim, dim), dtype=complex)
    for element in povm:
        if element.dim != dim:
            raise ValidationError("POVM elements must share one dimension")
        if hermitian_eigensystem(element).lambda_min < -POVM_TOL:
            raise ValidationError("POVM element has a negative eigenvalue beyond tolerance")
        total += element.entries
    defect = float(np.max(np.abs(total - np.eye(dim))))
    if defect > POVM_TOL:
        raise ValidationError(f"POVM does not sum to identity: defect {defect:.3e}")


class Measurement(_Frozen):
    """A POVM given by one site factor applied to each of ``n_sites`` sites, or a fringe.

    Outcome (k_0, ..., k_{N-1}) has the element E_{k_0} (x) ... (x) E_{k_{N-1}}
    of the ``site`` elements; outcomes are numbered in word order, site 0 most
    significant (the package's tensor order); N = 1 measures the whole space.
    The site elements are validated once, here.  Each is kept as the rows of
    its eigensystem (eigenvalues within rounding of zero dropped) and its
    signed eigenvalues: a probability is |amplitudes contracted with the rows
    on every site axis|^2, contracted with those eigenvalues on every axis.
    That is exact for non-projective and non-commuting elements, builds no
    operator on the joint space, and costs O(N d) per state for a projective
    qubit site.

    The fringe form, built by ``_of_fringe``, is the two-outcome (I +/- X)/2
    of X = |max><min| + h.c., held as its two vectors, whose orthonormality
    is checked once.  Its probabilities are p+/- = 1/2 +/- Re(conj(<max|psi>)
    <min|psi>), O(d) per state; ``site`` builds the two dense elements on
    each read, and ``Measurement(site, n)`` validates them.
    """

    __slots__ = ("n_sites", "dim", "n_outcomes", "_fringe", "_site", "_rows_t", "_weights_t", "_chunk")

    def __init__(self, site, n_sites: int = 1):
        site = tuple(site)
        if n_sites < 1:
            raise UsageError(f"site count must be >= 1, got {n_sites}")
        validate_povm(site)
        columns, weights = [], []
        for k, element in enumerate(site):
            spec = hermitian_eigensystem(element)  # cached by validate_povm
            keep = np.abs(spec.eigenvalues) > element.dim * np.finfo(float).eps
            columns.append(spec.eigenvectors[:, keep].conj())
            block = np.zeros((np.count_nonzero(keep), len(site)))
            block[:, k] = spec.eigenvalues[keep]
            weights.append(block)
        rows_t = np.hstack(columns)  # (d_s, R): the eigen-rows, transposed
        self._set(
            n_sites=n_sites,
            dim=site[0].dim**n_sites,
            n_outcomes=len(site) ** n_sites,
            _fringe=None,
            _site=site,
            _rows_t=rows_t,
            _weights_t=np.vstack(weights),  # (R, K): signed eigenvalues by outcome
            _chunk=max(1, _CHUNK_AMPLITUDES // rows_t.shape[1] ** n_sites),
        )

    @classmethod
    def _of_fringe(cls, vec_max: np.ndarray, vec_min: np.ndarray) -> "Measurement":
        """The fringe form of (I +/- X)/2; the two vectors must be orthonormal."""
        vectors = np.array([vec_max, vec_min], dtype=complex)
        defect = float(np.max(np.abs(vectors.conj() @ vectors.T - np.eye(2))))
        if defect > POVM_TOL:
            raise ValidationError(f"fringe vectors are not orthonormal: defect {defect:.3e}")
        meas = object.__new__(cls)
        meas._set(n_sites=1, dim=vectors.shape[1], n_outcomes=2, _fringe=_read_only(vectors), _site=())
        return meas

    @property
    def site(self) -> tuple:
        """The site elements; the fringe form builds its two d x d elements (I +/- X)/2 on each read, unvalidated."""
        if self._fringe is None:
            return self._site
        cross = np.outer(self._fringe[0], self._fringe[1].conj())
        x = cross + cross.conj().T  # X = |max><min| + h.c.
        eye = np.eye(self.dim)
        return HermitianOperator((eye + x) / 2), HermitianOperator((eye - x) / 2)

    def probabilities(self, amplitudes) -> np.ndarray:
        """Outcome probabilities of one state (dim,) or of each row of a batch (G, dim).

        Probabilities below -1e-12 raise ValidationError; the rest are clipped
        at 0.  A batch is contracted in chunks of grid states, so no chunk holds
        more than _CHUNK_AMPLITUDES site-eigenbasis amplitudes.
        """
        psi = np.asarray(amplitudes)
        if psi.shape[-1] != self.dim:
            raise UsageError(f"dimension mismatch: state {psi.shape[-1]} vs measurement {self.dim}")
        if self._fringe is not None:
            ab = psi @ self._fringe.conj().T  # (..., 2): <max|psi>, <min|psi>
            half = (ab[..., 0].conj() * ab[..., 1]).real
            probs = np.stack([0.5 + half, 0.5 - half], axis=-1)
        else:
            batch = psi.reshape(-1, self.dim)
            n, step = self.n_sites, self._chunk
            probs = np.concatenate([
                _contract_sites(np.abs(_contract_sites(batch[i:i + step], self._rows_t, n)) ** 2, self._weights_t, n)
                for i in range(0, batch.shape[0], step)
            ]).reshape(psi.shape[:-1] + (self.n_outcomes,))
        if probs.min() < -1e-12:
            raise ValidationError(f"negative outcome probability {probs.min():.3e}")
        return np.maximum(probs, 0.0)

    def _derivative(self, psi: np.ndarray, tangent: np.ndarray) -> np.ndarray:
        """dp/dphi of one state psi (dim,) whose phase derivative is ``tangent``.

        d|R psi|^2 = 2 Re(conj(R psi) (R tangent)) on every site-eigenbasis
        amplitude, weighted as ``probabilities`` weights |R psi|^2; the fringe
        form differentiates Re(conj(a) b) the same way.
        """
        if self._fringe is not None:
            (a, b), (da, db) = np.stack([psi, tangent]) @ self._fringe.conj().T
            dp = (a.conj() * db + da.conj() * b).real
            return np.array([dp, -dp])
        r = _contract_sites(np.stack([psi, tangent]), self._rows_t, self.n_sites)
        return _contract_sites(2.0 * (r[:1].conj() * r[1:]).real, self._weights_t, self.n_sites)[0]


def _require_measurement(povm) -> None:
    if not isinstance(povm, Measurement):
        raise UsageError(f"a measurement must be a Measurement, got {type(povm).__name__}")


def outcome_probabilities(state: PureState, povm: Measurement) -> np.ndarray:
    """Outcome probabilities of the Measurement ``povm`` in ``state``."""
    _require_measurement(povm)
    return povm.probabilities(state.amplitudes)


def classical_fisher(povm: Measurement, state: PureState, gen: HermitianOperator, phi: float) -> float:
    """Fisher information of the POVM statistics of exp(-i phi gen) state, sum over (dp/dphi)^2 / p.

    The derivative is exact: the phase tangent -i gen psi goes through the
    measurement kernel with psi.  Outcomes with probability under 1e-12 are
    skipped before dividing.
    """
    _require_measurement(povm)
    p, dp = _probabilities_and_slope(povm, state, gen, phi)
    keep = p >= _PROB_FLOOR
    return float(np.sum(dp[keep] ** 2 / p[keep]))


def _probabilities_and_slope(povm: Measurement, state: PureState, gen: HermitianOperator, phi: float):
    """(p, dp/dphi) of the outcome probabilities of exp(-i phi gen) state; the tangent -i gen psi goes through the kernel."""
    psi = evolve(state, gen, phi).amplitudes
    return povm.probabilities(psi), povm._derivative(psi, -1j * gen.apply(psi))


def mu_sweep(gen: JointGenerator, grid) -> list[tuple[float, float, float]]:
    """Rows (mu, shifted expectation, stddev) for the extreme-superposition family."""
    rows = []
    for mu in grid:
        mu = float(mu)
        if not 0.0 <= mu <= 1.0:
            raise ValidationError(f"mu grid values must lie in [0, 1], got {mu}")
        probe = optimal_state(gen, mu)
        expectation, variance = moments(probe, gen.generator)
        rows.append((mu, expectation - gen.h_min, float(np.sqrt(variance))))
    return rows


def _procedure_query_bound(spec: ProcedureSpec, gen: JointGenerator) -> float | None:
    # a kind adding sums e_k of one order k has per-query span lambda_max^k - lambda_min^k; with several orders
    # (exponential) the constant is computed from the seminorm itself (c_e = Q/seminorm, of order one on [0,1])
    orders = sum_orders(spec)[0]
    if len(orders) > 1:
        return 1.0 / gen.seminorm if gen.seminorm > 0 else None
    try:
        return query_bound(gen.query_complexity, *spec.base_eigs, orders[0])
    except ValidationError:
        return None


def build_report(state: PureState, gen: JointGenerator, spec: ProcedureSpec | None = None) -> ResourceReport:
    """Assemble every count and bound for one probe/generator pair.

    The per-query bound needs the procedure's base eigenvalues, so it is
    omitted when no spec is given (network-derived or photonic generators);
    the separable baseline applies to the linear kind only.
    """
    if state.dim != gen.dim:
        raise UsageError(f"dimension mismatch: state {state.dim} vs generator {gen.dim}")
    expectation, variance = moments(state, gen.generator)
    shifted = _shifted_expectation(expectation, gen)
    stddev = float(np.sqrt(variance))
    bound_query = None
    bound_snl = None
    if spec is not None and gen.query_complexity is not None:
        bound_query = _procedure_query_bound(spec, gen)
    if spec is not None and spec.kind == "linear":
        bound_snl = snl_baseline(spec)[1]
    return ResourceReport(
        expectation_raw=expectation,
        expectation_shifted=shifted,
        stddev=stddev,
        seminorm=gen.seminorm,
        bound_new_hl=heisenberg_bound_expectation(shifted),
        bound_stddev=heisenberg_bound_stddev(stddev),
        qfi=4.0 * variance,
        q=gen.query_complexity,
        bound_query=bound_query,
        bound_snl=bound_snl,
    )
