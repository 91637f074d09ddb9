"""Named joint-generator constructions over N identical subsystems.

Four procedure kinds are supported.  ``linear`` applies one box per
subsystem, ``kbody`` one box per size-k subset (tensor product of the base
generator over the subset), ``exponential`` one box per nonempty subset, and
``sequential-wrapped`` sends one probe T times through a linear evolution,
which multiplies the generator and the query count by T.

Every kind over a base u diag(w) u^dag is the site-wise rotation of one
diagonal operator, T times a sum of elementary symmetric polynomials e_m of
the site values x_j (w read by site j).  ``sum_orders`` states each kind's
orders m and wrap count T once; its query count and closed-form extremes
follow from them.  One recurrence over the sites builds e_1 .. e_k at
O(N k d) with no subset enumerated, in a fixed order so results are
reproducible bit for bit, and T multiplies that vector before any operator
is built, so every kind takes the one construction path.  A diagonal base
keeps the vector and builds no d x d matrix.  A non-diagonal base costs one
``eigh`` of the d_s x d_s base; the joint operator u^(xN) diag(v)
u^(xN)^dag is then built site by site with its spectrum known, and no
joint-space eigensolver runs.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import UsageError, ValidationError
from .networks import QuantumNetwork, generator_analytic, query_count
from .opalg import (
    DIM_CAP,
    HermitianOperator,
    PureState,
    _as_count,
    _Frozen,
    _lifted_site_values,
    _rotated_diagonal,
    _site_power,
    hermitian_eigensystem,
    moments,
)

KINDS = ("linear", "kbody", "exponential", "sequential-wrapped")
_LOG_FLOAT_MAX = math.log(sys.float_info.max) + 1  # with one unit of slack for rounding of the log bound
# each optional ProcedureSpec field and the one kind that needs it
_FIELD_KINDS = {"body_order": "kbody", "repetitions": "sequential-wrapped"}


class ProcedureSpec(_Frozen):
    """Declarative description of a procedure: kind, size, and base spectrum.

    ``base_eigs`` fixes the extreme eigenvalues of the single-subsystem base
    generator; the default base is the diagonal operator with ``subsystem_dim``
    equally spaced eigenvalues between them.  ``body_order`` is the subset
    size k and is meaningful for the kbody kind only; ``repetitions`` is the
    wrap count T for the sequential-wrapped kind only.
    """

    __slots__ = ("kind", "n_systems", "base_eigs", "body_order", "repetitions", "subsystem_dim")

    def __init__(self, kind: str, n_systems: int, base_eigs: tuple[float, float], body_order: int | None = None,
                 repetitions: int | None = None, subsystem_dim: int = 2):
        if kind not in KINDS:
            raise ValidationError(f"unknown procedure kind {kind!r}; expected one of {KINDS}")
        n_systems = _as_count(n_systems, "n_systems", 1)
        if len(base_eigs) != 2:
            raise ValidationError(f"base_eigs must be a (lambda_min, lambda_max) pair, got {len(base_eigs)} values")
        lo, hi = (float(base_eigs[0]), float(base_eigs[1]))
        if not hi > lo:
            raise ValidationError(f"base_eigs must satisfy lambda_max > lambda_min, got ({lo}, {hi})")
        subsystem_dim = _as_count(subsystem_dim, "subsystem_dim", 2)  # two distinct eigenvalues need two levels
        if subsystem_dim > DIM_CAP:  # no kind builds such a site; refused before a site base is allocated
            raise ValidationError(f"subsystem_dim {subsystem_dim} exceeds the cap {DIM_CAP}")
        optional = {"body_order": body_order, "repetitions": repetitions}
        for name, owner in _FIELD_KINDS.items():
            value = optional[name]
            if kind != owner:
                if value is not None:
                    raise ValidationError(f"{name} applies to the {owner} kind only, not {kind!r}")
            elif value is None:
                raise ValidationError(f"{owner} needs {name}")
            else:
                optional[name] = _as_count(value, name, 1)
        # of the highest orders in sum_orders, only kbody's can exceed n_systems
        if kind == "kbody" and optional["body_order"] > n_systems:
            raise UsageError(f"body_order {optional['body_order']} exceeds n_systems {n_systems}")
        self._set(kind=kind, n_systems=n_systems, base_eigs=(lo, hi), subsystem_dim=subsystem_dim, **optional)

    @property
    def dim(self) -> int:
        return self.subsystem_dim**self.n_systems


class JointGenerator(_Frozen):
    """A materialized joint generator with its query count and extreme eigenvalues.

    ``h_min``, ``h_max`` and ``seminorm`` are read from the generator's
    spectrum.  ``query_complexity`` is None for probes without a defined
    query count (a coherent probe knows its photon number only on average).
    """

    __slots__ = ("generator", "query_complexity", "h_min", "h_max", "seminorm")

    def __init__(self, generator: HermitianOperator, query_complexity: int | None):
        if query_complexity is not None:
            query_complexity = _as_count(query_complexity, "query_complexity", 1)
        spec = hermitian_eigensystem(generator)
        lo, hi = spec.lambda_min, spec.lambda_max
        self._set(generator=generator, query_complexity=query_complexity, h_min=lo, h_max=hi, seminorm=hi - lo)

    @property
    def dim(self) -> int:
        return self.generator.dim


def base_diagonal(spec: ProcedureSpec) -> np.ndarray:
    """Eigenvalues of the default per-subsystem base, equally spaced over base_eigs."""
    lo, hi = spec.base_eigs
    return np.linspace(lo, hi, spec.subsystem_dim)


def sum_orders(spec: ProcedureSpec) -> tuple[range, int]:
    """The orders m of the symmetric sums e_m the kind adds, and its wrap count T."""
    if spec.kind == "kbody":
        return range(spec.body_order, spec.body_order + 1), 1
    if spec.kind == "exponential":
        return range(1, spec.n_systems + 1), 1
    return range(1, 2), spec.repetitions or 1


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


def build_generator(spec: ProcedureSpec, base: HermitianOperator | None = None) -> JointGenerator:
    """The joint generator of the spec's kind, over ``base`` or the default diagonal base."""
    _site_power(spec.subsystem_dim, spec.n_systems)
    if base is None:
        base = HermitianOperator.from_diagonal(base_diagonal(spec))
    elif base.dim != spec.subsystem_dim:
        raise UsageError(f"base dimension {base.dim} does not match subsystem_dim {spec.subsystem_dim}")
    if base.is_diagonal:
        w, u = base.diagonal, None
    else:
        site = hermitian_eigensystem(base)
        w, u = site.eigenvalues, site.eigenvectors
    n, (orders, t) = spec.n_systems, sum_orders(spec)
    # e_1 + ... + e_N for exponential, not prod(1 + x_j) - 1, which loses bits to 1 + x_j and the final - 1
    total = _symmetric_sums(w, n, orders[-1])[orders.start:].sum(axis=0)
    # an int compares with a Python float exactly, so a T past float range is refused without converting it
    if t > sys.float_info.max / max(float(np.abs(total).max()), 1.0):
        raise ValidationError("the repetition count takes the generator's extremes past float range")
    total *= float(t)
    q = t * sum(math.comb(n, m) for m in orders)
    op = HermitianOperator.from_diagonal(total) if u is None else _rotated_diagonal(u, total, n)
    return JointGenerator(op, q)


def kbody_generator(spec: ProcedureSpec, base: HermitianOperator | None = None) -> JointGenerator:
    """One box per size-k subset, each a k-fold tensor power of the base, Q = C(N,k)."""
    if spec.kind != "kbody":
        raise UsageError(f"kbody_generator got kind {spec.kind!r}")
    return build_generator(spec, base)


def from_network(net: QuantumNetwork, phi: float = 0.0) -> JointGenerator:
    """Bridge an explicit evolution network to a JointGenerator at the given phi.

    After ``generator_analytic(net, phi)`` this reuses that call's total
    operator, so its spectrum is cached on the operator the caller holds.
    """
    return JointGenerator(generator_analytic(net, phi)[0], query_count(net))


def closed_form_extremes(spec: ProcedureSpec) -> tuple[int, float, float]:
    """Query count and extreme eigenvalues without constructing any matrix.

    (Q, h_min, h_max) is T times the sum over the kind's orders m of
    C(N, m) (1, lambda_min^m, lambda_max^m), the symmetric sums at all-ones,
    all-lambda_min and all-lambda_max sites, added with plain + (``sum``
    compensates from Python 3.12).  An order of two or more needs
    lambda_min >= 0: negative eigenvalues raised to even powers would
    reorder.  An extreme past float range is a ValidationError.
    """
    orders, t = sum_orders(spec)
    lo, hi = spec.base_eigs
    n = spec.n_systems
    if orders[-1] >= 2 and lo < 0:
        raise ValidationError(f"{spec.kind} closed form needs lambda_min >= 0, got {lo}")
    q = h_lo = h_hi = 0
    try:
        for m in orders:
            # a C(N, m) past float range is refused before its digits are formed, by C(N, m) >= (N/j)^j
            j = min(m, n - m)
            if j and j * (math.log(n) - math.log(j)) > _LOG_FLOAT_MAX:
                raise OverflowError
            c = math.comb(n, m)
            q, h_lo, h_hi = q + c, h_lo + c * lo**m, h_hi + c * hi**m
        q, h_lo, h_hi = t * q, t * h_lo, t * h_hi
        if math.isfinite(h_lo) and math.isfinite(h_hi):
            return q, h_lo, h_hi
    except OverflowError:
        pass
    raise ValidationError(f"the {spec.kind} extremes leave float range")


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
