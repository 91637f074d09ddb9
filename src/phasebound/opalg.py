"""Complex linear algebra for small Hilbert spaces, in two operator forms.

A ``HermitianOperator`` is either diagonal or dense.  The diagonal form
holds one real vector: ``from_diagonal`` and ``identity`` build it, and
``shifted``, ``+`` and scalar ``*`` keep it when their inputs have it, so
``evolve``, ``moments``, ``is_diagonal`` and the spectrum cost O(d) or
O(d log d) and no d x d array exists.  Its ``entries`` matrix, and the
eigenvector matrix of its spectrum, are built only when a caller asks for
them.  The dense form holds a d x d complex matrix checked for Hermiticity
at construction, and its eigensystem comes from ``eigh``; networks,
measurements and non-diagonal bases use it.

Operators and states are immutable after construction and every operation is
pure, so values can be shared freely between workers.  The tensor convention
is fixed once for the whole package: the LEFT factor is the most significant
one, i.e. ``tensor_product(a, b)`` indexes the joint basis as
``i = i_a * dim_b + i_b`` (numpy's Kronecker order).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalIntegrityError, UsageError, ValidationError

DIM_CAP = 4096  # 12 qubits; exponential constructions make larger spaces pointless
HERMITIAN_TOL = 1e-9
NORM_TOL = 1e-12


def _as_complex_matrix(entries) -> np.ndarray:
    a = np.asarray(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise UsageError(f"operator entries must be a square matrix, got shape {a.shape}")
    return a


def _check_dim(dim: int) -> None:
    if dim < 1:
        raise ValidationError("dimension must be >= 1")
    if dim > DIM_CAP:
        raise ValidationError(
            f"dimension {dim} exceeds the cap {DIM_CAP}; this toolkit targets desk-scale spaces"
        )


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class _Frozen:
    """Attributes are set once, through ``_set``, and never reassigned."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __setstate__(self, state):
        # pickle and copy hand slot values over as (None, {slot: value})
        self._set(**state[1])


class HermitianOperator(_Frozen):
    """Hermitian operator, dense or diagonal (see the module docstring).

    ``HermitianOperator(entries)`` builds the dense form; violations beyond
    ``hermitian_tol`` fail construction.  ``from_diagonal`` builds the
    diagonal form, which is Hermitian by construction.
    """

    __slots__ = ("_matrix", "_diagonal", "_is_diagonal", "hermitian_tol", "_spectrum_cache")

    def __init__(self, entries, hermitian_tol: float = HERMITIAN_TOL):
        a = _as_complex_matrix(entries)
        _check_dim(a.shape[0])
        defect = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
        if defect > hermitian_tol:
            raise ValidationError(
                f"matrix is not Hermitian: max |A - A^dag| = {defect:.3e} > {hermitian_tol:.1e}"
            )
        # _is_diagonal stays unknown until first asked: the scan is O(d^2)
        self._set(
            _matrix=_read_only(a), _diagonal=None, _is_diagonal=None,
            hermitian_tol=hermitian_tol, _spectrum_cache=[],
        )

    @classmethod
    def _of_vector(cls, values: np.ndarray) -> "HermitianOperator":
        # values: a fresh real vector the new operator owns
        op = object.__new__(cls)
        op._set(
            _matrix=None, _diagonal=_read_only(values), _is_diagonal=True,
            hermitian_tol=HERMITIAN_TOL, _spectrum_cache=[],
        )
        return op

    @property
    def dim(self) -> int:
        return (self._diagonal if self._matrix is None else self._matrix).shape[0]

    @property
    def entries(self) -> np.ndarray:
        """The d x d matrix; the diagonal form builds it on each access."""
        if self._matrix is not None:
            return self._matrix
        return _read_only(np.diag(self._diagonal.astype(complex)))

    @property
    def diagonal(self) -> np.ndarray:
        """The real diagonal, read without building any matrix."""
        if self._diagonal is not None:
            return self._diagonal
        return np.diagonal(self._matrix).real

    @property
    def is_diagonal(self) -> bool:
        """O(1); a dense operator scans its off-diagonal entries once and keeps the answer."""
        if self._is_diagonal is None:
            a = self._matrix
            self._set(_is_diagonal=bool(np.count_nonzero(a - np.diag(np.diagonal(a))) == 0))
        return self._is_diagonal

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """A @ amplitudes; elementwise in the diagonal form."""
        if self._diagonal is not None:
            return self._diagonal * amplitudes
        return self._matrix @ amplitudes

    @classmethod
    def from_diagonal(cls, values) -> "HermitianOperator":
        v = np.array(values, dtype=float)
        if v.ndim != 1:
            raise UsageError(f"diagonal values must form a vector, got shape {v.shape}")
        _check_dim(v.size)
        if not np.all(np.isfinite(v)):
            raise ValidationError("diagonal values must be finite")
        return cls._of_vector(v)

    @classmethod
    def identity(cls, dim: int) -> "HermitianOperator":
        _check_dim(dim)
        return cls._of_vector(np.ones(dim))

    def shifted(self, offset: float) -> "HermitianOperator":
        """A + offset * I."""
        if self._diagonal is not None:
            return HermitianOperator._of_vector(self._diagonal + offset)
        return HermitianOperator(self._matrix + offset * np.eye(self.dim))

    def __add__(self, other: "HermitianOperator") -> "HermitianOperator":
        if not isinstance(other, HermitianOperator):
            return NotImplemented
        if other.dim != self.dim:
            raise UsageError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if self._diagonal is not None and other._diagonal is not None:
            return HermitianOperator._of_vector(self._diagonal + other._diagonal)
        return HermitianOperator(self.entries + other.entries)

    def __mul__(self, scalar: float) -> "HermitianOperator":
        if self._diagonal is not None:
            return HermitianOperator._of_vector(self._diagonal * float(scalar))
        return HermitianOperator(self._matrix * float(scalar))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        form = "diagonal" if self._diagonal is not None else "dense"
        return f"HermitianOperator(dim={self.dim}, form={form})"


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized complex amplitude vector over an optionally labeled basis."""

    amplitudes: np.ndarray
    basis_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        _check_dim(a.shape[0])
        norm_sq = float(np.sum(np.abs(a) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValidationError(f"state is not normalized: sum |a|^2 = {norm_sq!r}")
        if self.basis_labels is not None and len(self.basis_labels) != a.shape[0]:
            raise ValidationError("basis_labels length must equal the state dimension")
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)
        if self.basis_labels is not None:
            object.__setattr__(self, "basis_labels", tuple(self.basis_labels))

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @classmethod
    def basis_vector(cls, dim: int, index: int, basis_labels=None) -> "PureState":
        if not 0 <= index < dim:
            raise UsageError(f"basis index {index} out of range for dimension {dim}")
        a = np.zeros(dim, dtype=complex)
        a[index] = 1.0
        return cls(a, basis_labels)


class Spectrum(_Frozen):
    """Full real eigensystem; eigenvalues ascending, eigenvectors as columns.

    The spectrum of a diagonal operator keeps only its sort permutation:
    eigenvector i is the standard basis vector at index ``order[i]``, and
    ``eigenvectors`` builds the permutation matrix on each access.
    """

    __slots__ = ("eigenvalues", "_vectors", "_order")

    def __init__(self, eigenvalues, eigenvectors):
        w = np.asarray(eigenvalues, dtype=float).reshape(-1)
        v = np.asarray(eigenvectors, dtype=complex)
        if np.any(np.diff(w) < 0):
            raise ValidationError("eigenvalues must be sorted ascending")
        if v.shape != (w.shape[0], w.shape[0]):
            raise ValidationError("eigenvector matrix shape must match eigenvalue count")
        self._set(eigenvalues=_read_only(w), _vectors=_read_only(v), _order=None)

    @classmethod
    def _of_permutation(cls, eigenvalues: np.ndarray, order: np.ndarray) -> "Spectrum":
        spec = object.__new__(cls)
        spec._set(eigenvalues=_read_only(eigenvalues), _vectors=None, _order=_read_only(order))
        return spec

    @property
    def eigenvectors(self) -> np.ndarray:
        if self._vectors is not None:
            return self._vectors
        return _read_only(np.eye(self.eigenvalues.size, dtype=complex)[:, self._order])

    def column(self, i: int) -> np.ndarray:
        """Eigenvector i; O(d) for a diagonal operator's spectrum."""
        if self._vectors is not None:
            return self._vectors[:, i]
        e = np.zeros(self.eigenvalues.size, dtype=complex)
        e[self._order[i]] = 1.0
        return e

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


def tensor_product(a, b):
    """Kronecker product of two operators or two states (left = most significant)."""
    if isinstance(a, HermitianOperator) and isinstance(b, HermitianOperator):
        return HermitianOperator(
            np.kron(a.entries, b.entries),
            hermitian_tol=max(a.hermitian_tol, b.hermitian_tol),
        )
    if isinstance(a, PureState) and isinstance(b, PureState):
        labels = None
        if a.basis_labels is not None and b.basis_labels is not None:
            labels = tuple(la + lb for la in a.basis_labels for lb in b.basis_labels)
        return PureState(np.kron(a.amplitudes, b.amplitudes), labels)
    raise UsageError(
        f"tensor_product needs two operators or two states, got {type(a).__name__} and {type(b).__name__}"
    )


def hermitian_eigensystem(a: HermitianOperator) -> Spectrum:
    """Eigenvalues ascending with orthonormal eigenvectors (cached on the operator).

    A diagonal operator sorts its diagonal stably, so tied eigenvalues keep
    basis order, and keeps the permutation instead of an eigenvector matrix.
    """
    if a._spectrum_cache:
        return a._spectrum_cache[0]
    if a.is_diagonal:
        d = a.diagonal
        order = np.argsort(d, kind="stable")
        spec = Spectrum._of_permutation(d[order], order)
    else:
        w, v = np.linalg.eigh(a.entries)
        spec = Spectrum(w, v)
    a._spectrum_cache.append(spec)
    return spec


def evolve(state: PureState, gen: HermitianOperator, phi: float) -> PureState:
    """Apply exp(-i * phi * gen): a phase per basis state when gen is diagonal,
    otherwise through its eigendecomposition."""
    if state.dim != gen.dim:
        raise UsageError(f"dimension mismatch: state {state.dim} vs generator {gen.dim}")
    if gen.is_diagonal:
        phases = np.exp(-1j * phi * gen.diagonal)
        return PureState(phases * state.amplitudes, state.basis_labels)
    spec = hermitian_eigensystem(gen)
    coeffs = spec.eigenvectors.conj().T @ state.amplitudes
    out = spec.eigenvectors @ (np.exp(-1j * phi * spec.eigenvalues) * coeffs)
    return PureState(out, state.basis_labels)


def moments(state: PureState, a: HermitianOperator) -> tuple[float, float]:
    """Expectation and variance of a Hermitian observable in a pure state.

    The variance is the squared norm of the centered vector (A - <A>) psi,
    which stays non-negative and avoids the cancellation of <A^2> - <A>^2
    for near-eigenstates; a residual imaginary part above 1e-8 aborts.
    """
    if state.dim != a.dim:
        raise UsageError(f"dimension mismatch: state {state.dim} vs operator {a.dim}")
    a_psi = a.apply(state.amplitudes)
    raw = np.vdot(state.amplitudes, a_psi)
    if abs(raw.imag) > 1e-8:
        raise NumericalIntegrityError(
            f"expectation has imaginary part {raw.imag:.3e}; operator or state is corrupted"
        )
    expectation = float(raw.real)
    centered = a_psi - expectation * state.amplitudes
    variance = float(np.vdot(centered, centered).real)
    return expectation, variance
