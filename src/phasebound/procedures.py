"""Named joint-generator constructions over N identical subsystems.

Four procedure kinds are supported.  ``linear`` applies one box per
subsystem, ``kbody`` one box per size-k subset (tensor product of the base
generator over the subset), ``exponential`` one box per nonempty subset, and
``sequential-wrapped`` repeats an inner evolution T times, which scales the
generator and the query count by T.

Every kind over a base u diag(w) u^dag is the site-wise rotation of one
diagonal operator, a symmetric sum of the site values x_j (w read by site
j): ``linear`` is e_1, ``kbody`` is e_k and ``exponential`` is
e_1 + ... + e_N, where e_k is the elementary symmetric polynomial.  One
recurrence over the sites builds e_1 .. e_k at O(N k d) with no subset
enumerated, in a fixed order so results are reproducible bit for bit.  A
diagonal base keeps that vector and builds no d x d matrix.  A non-diagonal
base costs one ``eigh`` of the d_s x d_s base; the joint operator
u^(xN) diag(v) u^(xN)^dag is then built site by site with its spectrum
known, and no joint-space eigensolver runs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import UsageError, ValidationError
from .networks import QuantumNetwork, _memoised_total, generator_analytic, query_count
from .opalg import (
    DIM_CAP,
    HermitianOperator,
    PureState,
    _lifted_site_values,
    _rotated_diagonal,
    hermitian_eigensystem,
    moments,
)

KINDS = ("linear", "kbody", "exponential", "sequential-wrapped")
EXTREME_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ProcedureSpec:
    """Declarative description of a procedure: kind, size, and base spectrum.

    ``base_eigs`` fixes the extreme eigenvalues of the single-subsystem base
    generator; the default base is the diagonal operator with ``subsystem_dim``
    equally spaced eigenvalues between them.  ``body_order`` is the subset
    size k and is meaningful for the kbody kind only; ``repetitions`` is the
    wrap count T for the sequential-wrapped kind only.
    """

    kind: str
    n_systems: int
    base_eigs: tuple[float, float]
    body_order: int | None = None
    repetitions: int | None = None
    subsystem_dim: int = 2

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown procedure kind {self.kind!r}; expected one of {KINDS}")
        if self.n_systems < 1:
            raise ValidationError("n_systems must be >= 1")
        if len(self.base_eigs) != 2:
            raise ValidationError(f"base_eigs must be a (lambda_min, lambda_max) pair, got {len(self.base_eigs)} values")
        lo, hi = (float(self.base_eigs[0]), float(self.base_eigs[1]))
        if not hi > lo:
            raise ValidationError(f"base_eigs must satisfy lambda_max > lambda_min, got ({lo}, {hi})")
        if self.subsystem_dim < 2:
            raise ValidationError("subsystem_dim must be >= 2 to hold two distinct eigenvalues")
        if self.kind == "kbody":
            if self.body_order is None:
                raise ValidationError("kbody needs body_order")
            if self.body_order < 1:
                raise ValidationError("body_order must be >= 1")
            if self.body_order > self.n_systems:
                raise UsageError(f"body_order {self.body_order} exceeds n_systems {self.n_systems}")
        elif self.body_order is not None:
            raise ValidationError(f"body_order applies to the kbody kind only, not {self.kind!r}")
        if self.kind == "sequential-wrapped":
            if self.repetitions is None:
                raise ValidationError("sequential-wrapped needs repetitions")
            if self.repetitions < 1:
                raise ValidationError("repetitions must be >= 1")
        elif self.repetitions is not None:
            raise ValidationError(f"repetitions applies to the sequential-wrapped kind only, not {self.kind!r}")
        object.__setattr__(self, "base_eigs", (lo, hi))

    @property
    def dim(self) -> int:
        return self.subsystem_dim**self.n_systems


@dataclass(frozen=True, eq=False)
class JointGenerator:
    """A materialized joint generator with its query count and extreme eigenvalues.

    ``query_complexity`` is None for probes without a defined query count
    (a coherent probe knows its photon number only on average).
    """

    generator: HermitianOperator
    query_complexity: int | None
    h_min: float
    h_max: float
    seminorm: float = field(init=False)

    def __post_init__(self):
        if self.query_complexity is not None and self.query_complexity < 1:
            raise ValidationError("query_complexity must be >= 1 when defined")
        spec = hermitian_eigensystem(self.generator)
        lo, hi = spec.lambda_min, spec.lambda_max
        if abs(lo - self.h_min) > EXTREME_TOL or abs(hi - self.h_max) > EXTREME_TOL:
            raise ValidationError(
                f"stated extremes ({self.h_min}, {self.h_max}) disagree with the spectrum "
                f"({lo}, {hi}) beyond {EXTREME_TOL:.0e}"
            )
        seminorm = self.h_max - self.h_min
        if seminorm < 0:
            raise ValidationError("h_max must not be below h_min")
        object.__setattr__(self, "seminorm", seminorm)

    @property
    def dim(self) -> int:
        return self.generator.dim


def base_diagonal(spec: ProcedureSpec) -> np.ndarray:
    """Eigenvalues of the default per-subsystem base, equally spaced over base_eigs."""
    lo, hi = spec.base_eigs
    return np.linspace(lo, hi, spec.subsystem_dim)


def _check_materialization(spec: ProcedureSpec) -> None:
    # subsystem_dim >= 2, so an n_systems past log2(DIM_CAP) is refused before the power is formed
    if spec.n_systems >= DIM_CAP.bit_length() or spec.dim > DIM_CAP:
        raise ValidationError(
            f"joint space dimension {spec.subsystem_dim}^{spec.n_systems} exceeds the cap {DIM_CAP}; "
            "closed_form_extremes and snl_baseline still work at this size"
        )


def _symmetric_sums(w: np.ndarray, n: int, k: int) -> np.ndarray:
    """Elementary symmetric sums e_0 .. e_k of the n site values, shape (k + 1, d^n).

    On each product basis state site j reads x_j = w[digit j], and enters by
    E_m <- E_m + x_j E_(m-1) with m descending, at O(n k d^n).  e_1 is
    zeros + x_0 + x_1 + ... in site order.
    """
    e = np.zeros((k + 1, w.size**n))
    e[0] = 1.0
    for j in range(n):
        xj = _lifted_site_values(w, j, n, w.size)
        for m in range(min(j + 1, k), 0, -1):
            e[m] += xj * e[m - 1]
    return e


def _joint_generator(spec: ProcedureSpec, base: HermitianOperator | None, kind: str) -> JointGenerator:
    if spec.kind != kind:
        raise UsageError(f"{kind}_generator got kind {spec.kind!r}")
    _check_materialization(spec)
    if base is None:
        base = HermitianOperator.from_diagonal(base_diagonal(spec))
    elif base.dim != spec.subsystem_dim:
        raise UsageError(f"base dimension {base.dim} does not match subsystem_dim {spec.subsystem_dim}")
    if base.is_diagonal:
        w, u = base.diagonal, None
    else:
        site = hermitian_eigensystem(base)
        w, u = site.eigenvalues, site.eigenvectors
    n = spec.n_systems
    if spec.kind == "exponential":
        # sum of e_k, not prod(1 + x_j) - 1, which loses bits to 1 + x_j and the final - 1
        q, total = 2**n - 1, _symmetric_sums(w, n, n)[1:].sum(axis=0)
    else:
        k = spec.body_order or 1
        q, total = math.comb(n, k), _symmetric_sums(w, n, k)[k]
    op = HermitianOperator.from_diagonal(total) if u is None else _rotated_diagonal(u, total, n)
    return JointGenerator(op, q, float(total.min()), float(total.max()))


def linear_generator(spec: ProcedureSpec, base: HermitianOperator | None = None) -> JointGenerator:
    """One box per subsystem: the sum of N commuting single-site terms, Q = N."""
    return _joint_generator(spec, base, "linear")


def kbody_generator(spec: ProcedureSpec, base: HermitianOperator | None = None) -> JointGenerator:
    """One box per size-k subset, each a k-fold tensor power of the base, Q = C(N,k)."""
    return _joint_generator(spec, base, "kbody")


def exponential_generator(spec: ProcedureSpec, base: HermitianOperator | None = None) -> JointGenerator:
    """One box per nonempty subset of the N subsystems, Q = 2^N - 1; DIM_CAP bounds N."""
    return _joint_generator(spec, base, "exponential")


def sequential_wrap(inner: JointGenerator, t: int) -> JointGenerator:
    """Repeat the inner evolution t times: generator, extremes and Q all scale by t."""
    if t < 1:
        raise UsageError(f"repetition count must be >= 1, got {t}")
    # an int compares with a float exactly, so a t past float range is refused without converting it
    if t > sys.float_info.max / max(abs(inner.h_min), abs(inner.h_max), 1.0):
        raise ValidationError("the repetition count takes the generator's extremes past float range")
    q = None if inner.query_complexity is None else t * inner.query_complexity
    return JointGenerator(inner.generator * t, q, t * inner.h_min, t * inner.h_max)


def build_generator(spec: ProcedureSpec, base: HermitianOperator | None = None) -> JointGenerator:
    """Dispatch on spec.kind; sequential-wrapped wraps the linear procedure."""
    if spec.kind == "linear":
        return linear_generator(spec, base)
    if spec.kind == "kbody":
        return kbody_generator(spec, base)
    if spec.kind == "exponential":
        return exponential_generator(spec, base)
    inner = replace(spec, kind="linear", repetitions=None)
    return sequential_wrap(linear_generator(inner, base), spec.repetitions)


def from_network(net: QuantumNetwork, phi: float = 0.0) -> JointGenerator:
    """Bridge an explicit evolution network to a JointGenerator at the given phi.

    After ``generator_analytic(net, phi)`` this reuses that call's total
    operator, so its spectrum is cached on the operator the caller holds.
    """
    total = _memoised_total(net, phi)
    if total is None:
        total, _ = generator_analytic(net, phi)
    spectrum = hermitian_eigensystem(total)
    return JointGenerator(total, query_count(net), spectrum.lambda_min, spectrum.lambda_max)


def closed_form_extremes(spec: ProcedureSpec) -> tuple[int, float, float]:
    """Query count and extreme eigenvalues without constructing any matrix.

    For subset products of degree two and higher the identification of the
    extremes with powers of the base extremes needs lambda_min >= 0; negative
    eigenvalues raised to even powers would reorder.  An extreme past float
    range is a ValidationError.
    """
    try:
        q, h_lo, h_hi = _closed_forms(spec)
        if math.isfinite(h_lo) and math.isfinite(h_hi):
            return q, h_lo, h_hi
    except OverflowError:
        pass
    raise ValidationError(f"the {spec.kind} extremes leave float range")


def _closed_forms(spec: ProcedureSpec) -> tuple[int, float, float]:
    lo, hi = spec.base_eigs
    n = spec.n_systems
    if spec.kind == "linear":
        return n, n * lo, n * hi
    if spec.kind == "kbody":
        k = spec.body_order
        if k >= 2 and lo < 0:
            raise ValidationError(f"kbody closed form needs lambda_min >= 0, got {lo}")
        # a C(N, k) far past float range is refused before its digits are formed
        if math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1) > math.log(sys.float_info.max) + 1:
            raise OverflowError
        q = math.comb(n, k)
        return q, q * lo**k, q * hi**k
    if spec.kind == "exponential":
        if lo < 0:
            raise ValidationError(f"exponential closed form needs lambda_min >= 0, got {lo}")
        # past N of about 1030 a C(N, j) overflows in the sums, before 2^N - 1 is formed
        h_lo = sum(math.comb(n, j) * lo**j for j in range(1, n + 1))
        h_hi = sum(math.comb(n, j) * hi**j for j in range(1, n + 1))
        return 2**n - 1, h_lo, h_hi
    inner = replace(spec, kind="linear", repetitions=None)
    q, h_lo, h_hi = _closed_forms(inner)
    t = spec.repetitions
    return t * q, t * h_lo, t * h_hi


def snl_baseline(spec: ProcedureSpec) -> tuple[float, float]:
    """Standard-noise-limit baseline for the linear kind on separable probes.

    Evaluates the generator's standard deviation in the N-fold product of
    per-site balanced superpositions of the two extreme eigenvectors.  Site
    variances add for product states, so only a single-site moment
    computation is needed and N can be arbitrarily large.
    """
    if spec.kind != "linear":
        raise UsageError(
            f"separable baseline is defined for the linear kind only, got {spec.kind!r}; "
            "no separable benchmark is established for entangling procedures"
        )
    v = base_diagonal(spec)
    base = HermitianOperator.from_diagonal(v)
    amps = np.zeros(spec.subsystem_dim, dtype=complex)
    amps[int(np.argmin(v))] = 1 / math.sqrt(2)
    amps[int(np.argmax(v))] += 1 / math.sqrt(2)
    _, site_var = moments(PureState(amps), base)
    delta = math.sqrt(spec.n_systems * site_var)
    if delta == 0.0:
        raise ValidationError("degenerate base spectrum gives a flat separable baseline")
    return delta, 1.0 / (2.0 * delta)
