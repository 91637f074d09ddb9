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
ran at, and a repeat call at that phi (``procedures.from_network`` makes
one) returns the same operator without a second backward pass.  The pass
adds each term into the total as it makes it, so it holds O(d^2) memory
whatever Q is; the terms come back as a generator that reruns the pass.

The generator of the composite evolution is extracted two ways: numerically,
as ``i * dU/dphi * U^dag`` by central differences from two compositions, at
phi + eps and phi - eps, with U(phi) taken as their mean (accurate to
O(eps^2)); and analytically, as the sum of Q unitary conjugations of the box
generators.  The two routes cross-check each other; the numeric route never
reads the memoised total.  The numeric definition is the authoritative sign
convention.  Totals, numeric generators and each term, when it is built,
all pass the one Hermiticity rule of ``HermitianOperator``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .errors import StepSizeError, UsageError, ValidationError
from .opalg import HermitianOperator, _apply_on_sites, _as_count, _Frozen, _hermitian_defect, _read_only, _site_power
from .opalg import _unitary_defect, hermitian_eigensystem

UNITARY_TOL = 1e-10
DEFAULT_FD_STEP = 1e-6
# generator_numeric refuses eps * scale above this: its truncation error there is about 7e-7 relative
MAX_FD_STEP_SCALE = 1e-3
# Residue model for the Hermitized numeric generator: truncation grows with
# eps^2 times the cube of the generator scale, roundoff with eps^-1.
_ROUNDOFF_FLOOR = 32 * np.finfo(float).eps


class BlackBox(_Frozen):
    """One parameter-imprinting slot: exp(-i phi H) on ``target_subsystems``, ``order`` of them.

    The base generator is forced positive by shifting H -> H - lambda_min I
    when needed; the applied shift is recorded so downstream resource counts
    stay consistent with the operator actually exponentiated.
    """

    __slots__ = ("base_generator", "target_subsystems", "shift")

    def __init__(self, base_generator: HermitianOperator, target_subsystems: tuple[int, ...]):
        try:
            targets = tuple(_as_count(i, "box target", 0) for i in target_subsystems)
        except TypeError:
            raise ValidationError(f"box targets must be a sequence of integers, got {target_subsystems!r}") from None
        if len(set(targets)) != len(targets):
            raise ValidationError(f"box targets repeat a subsystem: {targets}")
        spec = hermitian_eigensystem(base_generator)
        if not np.all(np.isfinite(spec.eigenvalues)):
            raise ValidationError("base generator has non-finite eigenvalues")
        shift = 0.0
        if spec.lambda_min < 0:
            shift = -spec.lambda_min
            base_generator = base_generator.shifted(shift)
        self._set(base_generator=base_generator, target_subsystems=targets, shift=shift)

    @property
    def order(self) -> int:
        return len(self.target_subsystems)


class QuantumNetwork(_Frozen):
    """Alternating layer list V_0, O_1, V_1, ..., O_Q, V_Q on n identical subsystems.

    Each fixed unitary is held as a read-only copy of the caller's array.
    ``_analytic_memo`` holds [(phi key, total)] of the latest
    ``generator_analytic`` call, at most one entry.
    """

    __slots__ = ("n_subsystems", "subsystem_dim", "layers", "_analytic_memo")

    def __init__(self, n_subsystems: int, subsystem_dim: int, layers: tuple):
        n, ds = _as_count(n_subsystems, "n_subsystems", 1), _as_count(subsystem_dim, "subsystem_dim", 1)
        dim = _site_power(ds, n)  # before any fixed unitary is copied
        layers = tuple(layers)
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
                if any(not 0 <= t < n for t in layer.target_subsystems):
                    raise ValidationError(f"box at layer {pos} targets unknown subsystems")
                expected = ds**layer.order
                if layer.base_generator.dim != expected:
                    raise ValidationError(
                        f"box at layer {pos} has generator dim {layer.base_generator.dim}, expected {expected}"
                    )
            kept.append(layer)
        self._set(n_subsystems=n, subsystem_dim=ds, layers=tuple(kept), _analytic_memo=[])

    @property
    def dim(self) -> int:
        return self.subsystem_dim**self.n_subsystems

    @property
    def boxes(self) -> tuple[BlackBox, ...]:
        return self.layers[1::2]


def _box_unitary(box: BlackBox, phi: float) -> np.ndarray:
    spec = hermitian_eigensystem(box.base_generator)
    return (spec.eigenvectors * np.exp(-1j * phi * spec.eigenvalues)) @ spec.eigenvectors.conj().T


def _check_phi(phi: float) -> None:
    if not math.isfinite(phi):
        raise ValidationError(f"phi must be finite, got {phi!r}")


def _phi_key(phi: float) -> str:
    # the hex form tells -0.0 from 0.0, which can flip the sign of a zero entry
    return float(phi).hex()


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

    A step the difference cannot resolve is refused before any composition:
    eps times the generator scale (the summed largest box eigenvalues, at
    least 1) must not exceed ``MAX_FD_STEP_SCALE`` = 1e-3, where the
    truncation error is about 7e-7 of the scale.  The anti-Hermitian residue
    must then stay within the combined truncation plus roundoff model before
    the result is Hermitized; a violation means the compositions disagree.
    """
    if not 0 < eps <= 1e-3:
        raise UsageError(f"eps must lie in (0, 1e-3], got {eps!r}")
    scale = _generator_scale(net)
    if eps * scale > MAX_FD_STEP_SCALE:
        raise StepSizeError(
            f"eps * scale = {eps * scale:.3e} exceeds {MAX_FD_STEP_SCALE:g}; "
            f"try eps <= {MAX_FD_STEP_SCALE / scale:.3g} or generator_analytic"
        )
    u_plus, u_minus = network_unitary(net, phi + eps), network_unitary(net, phi - eps)
    du, mean = u_plus - u_minus, u_plus + u_minus
    del u_plus, u_minus  # the steps below work in place, so at most four d x d arrays are alive
    du /= 2 * eps
    du *= 1j
    mean /= 2
    raw = du @ mean.conj().T
    del du, mean
    residue = float(_hermitian_defect(raw)) / 2
    bound = 10.0 * eps**2 * scale**3 + _ROUNDOFF_FLOOR * scale / eps
    if residue > bound:
        raise StepSizeError(
            f"anti-Hermitian residue {residue:.3e} exceeds {bound:.3e}; try eps = {eps / 10:g}"
        )
    raw += raw.conj().T
    raw *= 0.5
    return HermitianOperator._of_matrix(raw)


def _conjugated_terms(net: QuantumNetwork, phi: float):
    """Yield each dense term W_j H_j W_j^dag of one backward pass, term Q first, down to term 1.

    W_j is the partial product of all layers after box j (inclusive of V_j).
    The pass carries W_j^dag, so H_j W_j^dag and O_j^dag W_j^dag act on the
    box's target axes only.  Each yielded array is fresh and owned by the caller.
    """
    n, d = net.n_subsystems, net.subsystem_dim
    w_dag = np.ascontiguousarray(net.layers[-1].conj().T)  # V_Q^dag
    for pos in range(len(net.layers) - 2, 0, -2):
        box = net.layers[pos]
        sites = box.target_subsystems
        yield w_dag.conj().T @ _apply_on_sites(box.base_generator.entries, sites, w_dag, n, d)
        if pos > 1:  # no term reads V_0^dag O_1^dag W_1^dag
            o_dag = _box_unitary(box, phi).conj().T
            w_dag = net.layers[pos - 1].conj().T @ _apply_on_sites(o_dag, sites, w_dag, n, d)


def _forward_terms(net: QuantumNetwork, phi: float):
    """Yield the Q terms as checked operators, term 1 first; the first ``next`` reruns the pass and builds all Q."""
    yield from [HermitianOperator._of_matrix(t) for t in reversed(list(_conjugated_terms(net, phi)))]


def generator_analytic(net: QuantumNetwork, phi: float) -> tuple[HermitianOperator, Iterator[HermitianOperator]]:
    """The generator as a sum of Q conjugated box terms, plus the terms themselves.

    Term j is W_j H_j W_j^dag with W_j the partial product of all layers after
    box j (inclusive of V_j); each term therefore carries exactly the spectrum
    of the embedded box generator, whatever the fixed unitaries are.  One
    backward pass adds each term into the total as it is made, from term Q
    down to term 1, so at most a few d x d arrays are alive at once.  The
    Q terms (``query_count``) come back as a generator in forward order, term
    1 first, that runs no pass until its first ``next`` reruns it on the
    (immutable) network, so they are bitwise the terms summed.  The total is
    kept on ``net`` for this phi; a repeat call at the same phi returns it
    with a fresh generator and runs no pass (see the module docstring).
    """
    _check_phi(phi)
    phi = float(phi)  # compute at exactly the value the memo key names
    if (memo := net._analytic_memo) and memo[0][0] == _phi_key(phi):
        return memo[0][1], _forward_terms(net, phi)
    total = np.zeros((net.dim, net.dim), dtype=complex)
    for term in _conjugated_terms(net, phi):
        total += term
        del term  # free before the pass makes the next one
    total = HermitianOperator._of_matrix(total)
    net._analytic_memo[:] = [(_phi_key(phi), total)]
    return total, _forward_terms(net, phi)
