"""Complex linear algebra for small Hilbert spaces, in two operator forms.

A ``HermitianOperator``'s form is decided once, when it is built, and
``is_diagonal`` reports it.  The diagonal form holds one real vector:
``from_diagonal`` and ``identity`` build it, and ``shifted``, ``+`` and
scalar ``*`` keep it when their inputs have it, so ``evolve``, ``moments``
and the spectrum cost O(d) or O(d log d) and no d x d array exists.  Its
``entries`` matrix, and the eigenvector matrix of its spectrum, are built
only when a caller asks for them.  The dense form holds a d x d complex
matrix checked for Hermiticity at construction, stays dense even when that
matrix is diagonal, and takes its eigensystem from ``eigh`` unless the
operator was built with it: a diagonal vector rotated site by site
(``_rotated_diagonal``) knows its spectrum from that vector and the site
unitary.  One kernel, ``_evolved``, applies exp(-i phi H) to a state for
one phase or a batch of them; ``evolve`` is its one-phase case.

Operators and states are immutable after construction and every operation is
pure, so values can be shared freely between workers.  The tensor convention
is fixed once for the whole package: the LEFT factor is the most significant
one, i.e. ``tensor_product(a, b)`` indexes the joint basis as
``i = i_a * dim_b + i_b`` (numpy's Kronecker order).  On n identical sites
of dimension d, site 0 is the most significant digit of the joint index, so
a joint vector reshapes to ``[d] * n`` with site j on axis j.  The site
kernels at the end of this module are the only code that reshapes by site.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalIntegrityError, UsageError, ValidationError

DIM_CAP = 4096  # 12 qubits; exponential constructions make larger spaces pointless
HERMITIAN_TOL = 1e-9
NORM_TOL = 1e-12
_SCAN_BLOCK_BYTES = 1 << 19  # largest row block of the Hermiticity scan


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


def _hermitian_defect(a: np.ndarray) -> float:
    """max |A - A^dag| over row blocks of the upper triangle; no d x d temporary is built.

    Entry (j, i) of A - A^dag is minus the conjugate of entry (i, j), exactly
    in floating point, so both have the same modulus and the upper triangle
    holds the maximum.  Each block computes the same entries as the
    whole-matrix expression and a NaN propagates, so the result is that
    expression's exactly.
    """
    d = a.shape[0]
    rows = max(1, _SCAN_BLOCK_BYTES // (16 * d))
    return np.max([np.max(np.abs(a[i:i + rows, i:] - a[i:, i:i + rows].conj().T)) for i in range(0, d, rows)])


def _unitary_defect(v: np.ndarray) -> float:
    """max |V V^dag - I| over row blocks of the upper triangle; no d x d temporary is built.

    V V^dag - I is Hermitian, so, as in ``_hermitian_defect``, the upper
    triangle holds the maximum, at half the products.  The block on rows r
    from column i on is conj(conj(V[r]) @ V[i:].T): the transpose is a view,
    so only the block is conjugated.  A NaN propagates.
    """
    d = v.shape[0]
    rows = max(1, _SCAN_BLOCK_BYTES // (16 * d))
    worst = []
    for i in range(0, d, rows):
        block = np.conj(v[i:i + rows].conj() @ v[i:].T)
        r = np.arange(block.shape[0])
        block[r, r] -= 1.0
        worst.append(np.max(np.abs(block)))
    return np.max(worst)


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

    ``HermitianOperator(entries)`` builds the dense form, even for a diagonal
    matrix; violations beyond ``hermitian_tol`` fail construction, and an
    infinite tolerance skips the scan.  ``from_diagonal`` builds the diagonal
    form, which is Hermitian by construction.
    """

    __slots__ = ("_matrix", "_diagonal", "_spectrum_cache")

    def __init__(self, entries, hermitian_tol: float = HERMITIAN_TOL):
        a = _as_complex_matrix(entries)
        _check_dim(a.shape[0])
        if hermitian_tol < np.inf and (defect := _hermitian_defect(a)) > hermitian_tol:
            raise ValidationError(
                f"matrix is not Hermitian: max |A - A^dag| = {defect:.3e} > {hermitian_tol:.1e}"
            )
        self._set(_matrix=_read_only(a), _diagonal=None, _spectrum_cache=[])

    @classmethod
    def _of_vector(cls, values: np.ndarray) -> "HermitianOperator":
        # values: a fresh real vector the new operator owns
        op = object.__new__(cls)
        op._set(_matrix=None, _diagonal=_read_only(values), _spectrum_cache=[])
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
        """True for the diagonal form; a dense matrix is dense even when it is diagonal."""
        return self._diagonal is not None

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
        s = float(scalar)
        if self._diagonal is not None:
            return HermitianOperator._of_vector(self._diagonal * s)
        out = HermitianOperator(self._matrix * s)
        if s > 0 and self._spectrum_cache:
            # a positive scale keeps the eigenvectors and their order
            spec = self._spectrum_cache[0]
            out._spectrum_cache.append(Spectrum(spec.eigenvalues * s, spec.eigenvectors))
        return out

    __rmul__ = __mul__

    def __repr__(self) -> str:
        form = "diagonal" if self._diagonal is not None else "dense"
        return f"HermitianOperator(dim={self.dim}, form={form})"


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        _check_dim(a.shape[0])
        norm_sq = float(np.sum(np.abs(a) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValidationError(f"state is not normalized: sum |a|^2 = {norm_sq!r}")
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    @classmethod
    def _of_normalized(cls, amplitudes: np.ndarray) -> "PureState":
        # amplitudes: a fresh complex vector whose norm the caller has checked
        state = object.__new__(cls)
        object.__setattr__(state, "amplitudes", _read_only(amplitudes))
        return state

    @classmethod
    def basis_vector(cls, dim: int, index: int) -> "PureState":
        if not 0 <= index < dim:
            raise UsageError(f"basis index {index} out of range for dimension {dim}")
        a = np.zeros(dim, dtype=complex)
        a[index] = 1.0
        return cls(a)


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


def tensor_product(a: PureState, b: PureState) -> PureState:
    """Kronecker product of two states (left = most significant)."""
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(np.kron(a.amplitudes, b.amplitudes))
    raise UsageError(f"tensor_product needs two states, got {type(a).__name__} and {type(b).__name__}")


def hermitian_eigensystem(a: HermitianOperator) -> Spectrum:
    """Eigenvalues ascending with orthonormal eigenvectors (cached on the operator).

    A diagonal operator sorts its diagonal stably, so tied eigenvalues keep
    basis order, and keeps the permutation instead of an eigenvector matrix.
    """
    if a._spectrum_cache:
        return a._spectrum_cache[0]
    if a._diagonal is not None:
        order = np.argsort(a._diagonal, kind="stable")
        spec = Spectrum._of_permutation(a._diagonal[order], order)
    else:
        w, v = np.linalg.eigh(a.entries)
        spec = Spectrum(w, v)
    a._spectrum_cache.append(spec)
    return spec


def _evolved(state: PureState, gen: HermitianOperator, phases) -> np.ndarray:
    """exp(-i phi gen) psi for one float phase, shape (d,), or a 1-D array of G phases, shape (G, d).

    A phase per basis state in the diagonal form, the cached eigensystem in
    the dense form; every row's norm must lie within NORM_TOL of 1.
    """
    if state.dim != gen.dim:
        raise UsageError(f"dimension mismatch: state {state.dim} vs generator {gen.dim}")
    phi = phases[:, None] if isinstance(phases, np.ndarray) else phases
    if gen._diagonal is not None:
        out = np.exp(-1j * phi * gen._diagonal) * state.amplitudes
    else:
        spec = hermitian_eigensystem(gen)
        v = spec.eigenvectors
        out = (np.exp(-1j * phi * spec.eigenvalues) * (v.conj().T @ state.amplitudes)) @ v.T
    defect = abs((np.abs(out) ** 2).sum(-1) - 1.0).max()
    if defect > NORM_TOL:
        raise ValidationError(f"evolved state is not normalized: max |sum |a|^2 - 1| = {defect!r}")
    return out


def evolve(state: PureState, gen: HermitianOperator, phi: float) -> PureState:
    """Apply exp(-i * phi * gen): the one-phase case of ``_evolved``."""
    return PureState._of_normalized(_evolved(state, gen, phi))


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


# ------------------------------------------------------------- site kernels
# A joint space of n identical sites of dimension d, site 0 most significant.


def _lifted_site_values(values: np.ndarray, site: int, n: int, d: int) -> np.ndarray:
    """The entry of ``values`` that ``site`` reads on every product basis state."""
    stride = d ** (n - 1 - site)
    return values[(np.arange(d**n) // stride) % d]


def _contract_sites(x: np.ndarray, matrix_t: np.ndarray, n: int) -> np.ndarray:
    """x @ matrix_t^(xn): apply matrix_t.T (b x a) to each of the n site axes of every row of x.

    (G, a^n) -> (G, b^n).  Each pass contracts the leading site axis and
    appends its image as the trailing one, so after n passes the sites are
    back in order.
    """
    g, a = x.shape[0], matrix_t.shape[0]
    for _ in range(n):
        x = (x.reshape(g, a, -1).transpose(0, 2, 1).reshape(-1, a) @ matrix_t).reshape(g, -1)
    return x


def _apply_on_sites(small: np.ndarray, sites: tuple[int, ...], m: np.ndarray, n: int, d: int) -> np.ndarray:
    """(``small`` embedded on ``sites``) @ m, contracting only the target axes of m.

    The target axes of m, viewed as ``[d] * n + [columns]``, are moved side by
    side in box order, so one batched matmul applies the box.  The moves are
    views; reshaping copies only when the targets are not already adjacent
    and ascending.
    """
    k, first = len(sites), min(sites)
    block = range(first, first + k)
    t = np.moveaxis(m.reshape([d] * n + [-1]), sites, block)
    out = small @ t.reshape(d**first, d**k, -1)
    return np.moveaxis(out.reshape(t.shape), block, sites).reshape(m.shape)


def _rotated_diagonal(u: np.ndarray, values: np.ndarray, n: int) -> HermitianOperator:
    """U^(xn) diag(values) U^(xn)^dag for a d_s x d_s unitary u, in the dense form.

    U^(xn) is a Kronecker chain of u.  The product is U^(xn) (diag(values)
    U^(xn)^dag): n site-kernel passes of u, one per axis, at O(n d^2 d_s),
    with no transpose copy per pass.  The spectrum is known by construction and
    cached: the eigenvalues are ``values`` stably sorted, and eigenvector i is
    the matching column of U^(xn).
    """
    vectors = u
    for _ in range(n - 1):
        vectors = np.kron(vectors, u)
    x = np.multiply(vectors.T, values[:, None], order="C")
    np.conj(x, out=x)  # diag(values) U^(xn)^dag, laid out by row for the site passes
    for site in range(n):
        x = _apply_on_sites(u, (site,), x, n, u.shape[0])
    op = HermitianOperator(x, hermitian_tol=1e-8)
    order = np.argsort(values, kind="stable")
    op._spectrum_cache.append(Spectrum(values[order], vectors[:, order]))
    return op
