"""Black-box evolution networks: build U(phi), count queries, extract generators.

A network is an alternating chain of fixed unitaries and black-box slots,
``V_0, O_1, V_1, ..., O_Q, V_Q``, acting on ``n_subsystems`` identical
subsystems.  Each box applies ``exp(-i * phi * H)`` for a positive Hermitian
``H`` on its target subsystems; the fixed unitaries act on the full space.

A box acts on its target axes only: a box on k subsystems of dimension d_s
is applied to a d x m matrix by contracting its d_s^k x d_s^k matrix with
those k tensor axes (the ``opalg`` site kernel), at O(d * m * d_s^k), and no
d x d box matrix is built.

The fixed unitaries are copied at construction and frozen, so a network
never changes after it is built.  That lets a network remember its latest
analytic generator: ``generator_analytic`` keeps its total, for the phi it
ran at, and ``procedures.from_network`` at that phi returns the same
operator without a second backward pass.  Only the total is kept, never the
per-term list.

The generator of the composite evolution is extracted two ways: numerically,
as ``i * dU/dphi * U^dag`` by central differences from two compositions, at
phi + eps and phi - eps, with U(phi) taken as their mean (accurate to
O(eps^2)); and analytically, as the sum of Q unitary conjugations of the box
generators.  The two routes cross-check each other; the numeric route never
reads the memoised total.  The numeric definition is the authoritative sign
convention.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import StepSizeError, UsageError, ValidationError
from .opalg import HermitianOperator, _apply_on_sites, _check_dim, _hermitian_defect, _read_only, _unitary_defect
from .opalg import hermitian_eigensystem

UNITARY_TOL = 1e-10
DEFAULT_FD_STEP = 1e-6
# Residue model for the Hermitized numeric generator: truncation grows with
# eps^2 times the cube of the generator scale, roundoff with eps^-1.
_ROUNDOFF_FLOOR = 32 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class BlackBox:
    """One parameter-imprinting slot: exp(-i phi H) on ``target_subsystems``, ``order`` of them.

    The base generator is forced positive by shifting H -> H - lambda_min I
    when needed; the applied shift is recorded so downstream resource counts
    stay consistent with the operator actually exponentiated.
    """

    base_generator: HermitianOperator
    target_subsystems: tuple[int, ...]
    shift: float = field(default=0.0, init=False)

    def __post_init__(self):
        try:
            if any(isinstance(i, bool) for i in self.target_subsystems):
                raise TypeError
            targets = tuple(operator.index(i) for i in self.target_subsystems)
        except TypeError:
            raise ValidationError(f"box targets must be integers, got {self.target_subsystems!r}") from None
        if len(set(targets)) != len(targets):
            raise ValidationError(f"box targets repeat a subsystem: {targets}")
        spec = hermitian_eigensystem(self.base_generator)
        if not np.all(np.isfinite(spec.eigenvalues)):
            raise ValidationError("base generator has non-finite eigenvalues")
        shift = 0.0
        gen = self.base_generator
        if spec.lambda_min < 0:
            shift = -spec.lambda_min
            gen = gen.shifted(shift)
        object.__setattr__(self, "base_generator", gen)
        object.__setattr__(self, "target_subsystems", targets)
        object.__setattr__(self, "shift", shift)

    @property
    def order(self) -> int:
        return len(self.target_subsystems)


@dataclass(frozen=True, eq=False)
class QuantumNetwork:
    """Alternating layer list V_0, O_1, V_1, ..., O_Q, V_Q on n identical subsystems.

    Each fixed unitary is held as a read-only copy of the caller's array.
    """

    n_subsystems: int
    subsystem_dim: int
    layers: tuple
    # [(phi key, total)] of the latest generator_analytic call; at most one entry
    _analytic_memo: list = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        for name in ("n_subsystems", "subsystem_dim"):
            value = getattr(self, name)
            try:
                if isinstance(value, bool):
                    raise TypeError
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValidationError(f"{name} must be an integer, got {value!r}") from None
        if self.n_subsystems < 1 or self.subsystem_dim < 1:
            raise ValidationError("need at least one subsystem with dimension >= 1")
        dim = self.dim
        _check_dim(dim)  # before any fixed unitary is copied
        layers = tuple(self.layers)
        if len(layers) % 2 == 0 or not layers:
            raise ValidationError("layer list must be V_0 [, O_1, V_1, ...] with odd length")
        kept = []
        for pos, layer in enumerate(layers):
            if pos % 2 == 0:
                if isinstance(layer, BlackBox):
                    raise ValidationError(f"layer {pos} must be a fixed unitary, got a black box")
                v = np.array(layer, dtype=complex)
                if v.shape != (dim, dim):
                    raise ValidationError(f"fixed unitary at layer {pos} has shape {v.shape}, expected {(dim, dim)}")
                defect = _unitary_defect(v)
                if not defect <= UNITARY_TOL:
                    raise ValidationError(f"layer {pos} is not unitary: defect {defect:.3e}")
                layer = _read_only(v)
            else:
                if not isinstance(layer, BlackBox):
                    raise ValidationError(f"layer {pos} must be a BlackBox")
                if any(not 0 <= t < self.n_subsystems for t in layer.target_subsystems):
                    raise ValidationError(f"box at layer {pos} targets unknown subsystems")
                expected = self.subsystem_dim ** layer.order
                if layer.base_generator.dim != expected:
                    raise ValidationError(
                        f"box at layer {pos} has generator dim {layer.base_generator.dim}, expected {expected}"
                    )
            kept.append(layer)
        object.__setattr__(self, "layers", tuple(kept))

    @property
    def dim(self) -> int:
        return self.subsystem_dim**self.n_subsystems

    @property
    def boxes(self) -> tuple[BlackBox, ...]:
        return self.layers[1::2]

    @property
    def fixed_unitaries(self) -> tuple[np.ndarray, ...]:
        return self.layers[0::2]


def _box_unitary(box: BlackBox, phi: float) -> np.ndarray:
    spec = hermitian_eigensystem(box.base_generator)
    return (spec.eigenvectors * np.exp(-1j * phi * spec.eigenvalues)) @ spec.eigenvectors.conj().T


def _check_phi(phi: float) -> None:
    if not math.isfinite(phi):
        raise ValidationError(f"phi must be finite, got {phi!r}")


def _phi_key(phi: float) -> str:
    # the hex form tells -0.0 from 0.0, which can flip the sign of a zero entry
    return float(phi).hex()


def _memoised_total(net: QuantumNetwork, phi: float) -> HermitianOperator | None:
    """The total of the latest ``generator_analytic`` call on ``net`` if it ran at this phi."""
    _check_phi(phi)
    memo = net._analytic_memo
    if memo and memo[0][0] == _phi_key(phi):
        return memo[0][1]
    return None


def query_count(net: QuantumNetwork) -> int:
    """Number of black-box applications in the network."""
    return len(net.boxes)


def network_unitary(net: QuantumNetwork, phi: float) -> np.ndarray:
    """Compose V_Q O(phi) ... V_1 O(phi) V_0 into a dense unitary."""
    _check_phi(phi)
    n, d = net.n_subsystems, net.subsystem_dim
    u = net.layers[0]
    for pos in range(1, len(net.layers), 2):
        box = net.layers[pos]
        u = net.layers[pos + 1] @ _apply_on_sites(_box_unitary(box, phi), box.target_subsystems, u, n, d)
    return u


def _generator_scale(net: QuantumNetwork) -> float:
    total = 0.0
    for box in net.boxes:
        total += hermitian_eigensystem(box.base_generator).lambda_max
    return max(total, 1.0)


def generator_numeric(net: QuantumNetwork, phi: float, eps: float = DEFAULT_FD_STEP) -> HermitianOperator:
    """Generator i (dU/dphi) U^dag by central differences at the given phi.

    The network is composed twice, at phi + eps and phi - eps.  U(phi) is
    taken as the mean of the two, which is accurate to O(eps^2), the same
    order as the central difference, so no third pass at phi is needed.

    The anti-Hermitian residue must stay within the combined truncation plus
    roundoff model before the result is Hermitized; a violation usually means
    eps is too large for the generator's scale.
    """
    if not 0 < eps <= 1e-3:
        raise UsageError(f"eps must lie in (0, 1e-3], got {eps!r}")
    u_plus, u_minus = network_unitary(net, phi + eps), network_unitary(net, phi - eps)
    du, mean = u_plus - u_minus, u_plus + u_minus
    del u_plus, u_minus  # the steps below work in place, so at most four d x d arrays are alive
    du /= 2 * eps
    du *= 1j
    mean /= 2
    raw = du @ mean.conj().T
    residue = float(_hermitian_defect(raw)) / 2
    scale = _generator_scale(net)
    bound = 10.0 * eps**2 * scale**3 + _ROUNDOFF_FLOOR * scale / eps
    if residue > bound:
        raise StepSizeError(
            f"anti-Hermitian residue {residue:.3e} exceeds {bound:.3e}; try eps = {eps / 10:g}"
        )
    return HermitianOperator((raw + raw.conj().T) / 2, hermitian_tol=np.inf)


def generator_analytic(net: QuantumNetwork, phi: float) -> tuple[HermitianOperator, list[HermitianOperator]]:
    """The generator as a sum of Q conjugated box terms, plus the terms themselves.

    Term j is W_j H_j W_j^dag with W_j the partial product of all layers after
    box j (inclusive of V_j); each term therefore carries exactly the spectrum
    of the embedded box generator, whatever the fixed unitaries are.  The
    loop carries W_j^dag, so H_j W_j^dag and O_j^dag W_j^dag act on the box's
    target axes only.  The total is also kept on ``net`` for this phi (see
    the module docstring).
    """
    _check_phi(phi)
    phi = float(phi)  # compute at exactly the value the memo key names
    n, d, dim = net.n_subsystems, net.subsystem_dim, net.dim
    terms_rev: list[np.ndarray] = []
    w_dag = np.ascontiguousarray(net.layers[-1].conj().T)  # V_Q^dag
    for pos in range(len(net.layers) - 2, 0, -2):
        box = net.layers[pos]
        sites = box.target_subsystems
        terms_rev.append(w_dag.conj().T @ _apply_on_sites(box.base_generator.entries, sites, w_dag, n, d))
        o_dag = _box_unitary(box, phi).conj().T
        w_dag = net.layers[pos - 1].conj().T @ _apply_on_sites(o_dag, sites, w_dag, n, d)
    terms = [HermitianOperator(t, hermitian_tol=1e-8) for t in reversed(terms_rev)]
    total = np.zeros((dim, dim), dtype=complex)
    for t in terms:
        total += t.entries
    total = HermitianOperator(total, hermitian_tol=1e-8)
    net._analytic_memo[:] = [(_phi_key(phi), total)]
    return total, terms
