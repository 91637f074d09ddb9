import copy
import pickle
import tracemalloc

import numpy as np

import phasebound.opalg as opalg
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from phasebound.errors import NumericalIntegrityError, UsageError, ValidationError
from phasebound.estimation import TrialConfig, TrialResult, optimal_povm
from phasebound.metrology import Measurement, build_report
from phasebound.networks import BlackBox, QuantumNetwork, generator_analytic
from phasebound.opalg import (
    DIM_CAP,
    HermitianOperator,
    PureState,
    Spectrum,
    _contract_sites,
    _hermitian_defect,
    _lifted_site_values,
    _unitary_defect,
    evolve,
    hermitian_eigensystem,
    moments,
    tensor_product,
)
from phasebound.procedures import ProcedureSpec, build_generator
from phasebound.states import optimal_state
from util import (
    charpoly_eigenvalues,
    kron_all,
    moments_by_eigensystem,
    random_hermitian,
    random_state_vector,
    random_unitary,
    rng,
)


# ---------------------------------------------------------------- construction

def test_operator_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_operator_defect_within_tolerance_accepted():
    a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    a[0, 1] += 5e-10  # below the 1e-9 default
    op = HermitianOperator(a)
    assert op.dim == 2


def test_operator_rejects_non_square():
    with pytest.raises(UsageError):
        HermitianOperator(np.zeros((2, 3)))


def test_operator_dim_cap():
    with pytest.raises(ValidationError):
        HermitianOperator.from_diagonal(np.zeros(DIM_CAP + 1))
    with pytest.raises(ValidationError):
        HermitianOperator.identity(DIM_CAP + 1)


def whole_matrix_defect(a):
    return np.max(np.abs(a - a.conj().T))


def defect_cases(g, d):
    h = random_hermitian(g, d)
    nan = h.copy()
    nan[d // 2, d - 1] = np.nan
    return {
        "random": g.normal(size=(d, d)) + 1j * g.normal(size=(d, d)),
        "hermitian": h,
        "perturbed": h + 1e-9 * (g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))),
        "nan": nan,
    }


@pytest.mark.parametrize(
    "d, rows", [(1, None), (50, 1), (50, 3), (50, 7), (50, 64), (1500, None)], ids=str
)
def test_hermitian_defect_equals_whole_matrix_expression(monkeypatch, d, rows):
    if rows is not None:
        monkeypatch.setattr(opalg, "_SCAN_BLOCK_BYTES", 16 * d * rows)
    for name, a in defect_cases(rng(d), d).items():
        got, want = _hermitian_defect(a), whole_matrix_defect(a)
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("rows", [None, 3])
def test_near_threshold_verdict_and_message_follow_whole_matrix_defect(monkeypatch, rows):
    # a defect of about the default tolerance, 1e-9 max(1, max |A|), lands on either side of it by rounding
    if rows is not None:
        monkeypatch.setattr(opalg, "_SCAN_BLOCK_BYTES", 16 * 40 * rows)
    g = rng(12)
    verdicts = set()
    for _ in range(40):
        a = random_hermitian(g, 40)
        i, j = g.integers(0, 40, size=2)
        a[i, j] += 1e-9 * max(1.0, np.max(np.abs(a))) * np.exp(1j * g.uniform(0, 2 * np.pi))
        want, tol = whole_matrix_defect(a), 1e-9 * max(1.0, np.max(np.abs(a)))
        if want > tol:
            message = f"matrix is not Hermitian: max |A - A^dag| = {want:.3e} > {tol:.3e}"
            with pytest.raises(ValidationError) as err:
                HermitianOperator(a)
            assert str(err.value) == message
        else:
            HermitianOperator(a)
        verdicts.add(bool(want > tol))
    assert verdicts == {True, False}


def test_default_tolerance_scales_with_the_largest_entry():
    # a correctly rounded u diag(0, 1e8) u^dag carries an absolute defect near 1e-8, far below 1e-9 of its scale
    g = rng(13)
    for _ in range(20):
        u = random_unitary(g, 2)
        assert HermitianOperator(u @ np.diag([0.0, 1e8]) @ u.conj().T).dim == 2
    small = np.array([[0.0, 0.5], [0.5 + 4e-9, 0.0]])  # below unit scale the tolerance stays 1e-9
    with pytest.raises(ValidationError, match=r"= 4\.000e-09 > 1\.000e-09"):
        HermitianOperator(small)
    nan = np.eye(2, dtype=complex)
    nan[0, 1] = np.nan
    with pytest.raises(ValidationError, match="not Hermitian: max .* = nan"):
        HermitianOperator(nan)


@pytest.mark.parametrize("d, rows", [(1, None), (50, 1), (50, 7), (50, 64), (700, None)], ids=str)
def test_unitary_defect_matches_whole_matrix_expression(monkeypatch, d, rows):
    if rows is not None:
        monkeypatch.setattr(opalg, "_SCAN_BLOCK_BYTES", 16 * d * rows)
    g = rng(d + 1)
    u = random_unitary(g, d)
    nan = u.copy()
    nan[d // 2, d - 1] = np.nan
    cases = {
        "unitary": u,
        "perturbed": u + 1e-9 * (g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))),
        "scaled": 1.5 * u,
        "nan": nan,
    }
    for name, v in cases.items():
        want = np.max(np.abs(v @ v.conj().T - np.eye(d)))
        assert_allclose(_unitary_defect(v), want, rtol=1e-12, atol=1e-15, err_msg=name)


def test_largest_entry_is_read_only_past_the_unit_floor(monkeypatch):
    # a defect at most HERMITIAN_TOL passes whatever max |A| is, so the common case scans once
    reads = []
    original = opalg._max_abs
    monkeypatch.setattr(opalg, "_max_abs", lambda a: reads.append(a.shape[0]) or original(a))
    g = rng(14)
    HermitianOperator(random_hermitian(g, 6, scale=1e6))
    assert reads == []
    u = random_unitary(g, 2)
    scaled = u @ np.diag([0.0, 1e8]) @ u.conj().T
    scaled[0, 1] += 2e-9  # past the floor, within 1e-9 max |A|
    HermitianOperator(scaled)
    assert reads == [2]


def test_dense_construction_scan_stays_off_matrix_size():
    # converting the real input is one complex d x d array; the scan adds blocks
    d = 2048
    g = rng(13)
    a = g.normal(size=(d, d))
    a = a + a.T
    tracemalloc.start()
    try:
        HermitianOperator(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * d * d + (16 << 20)


def test_from_diagonal_and_identity():
    op = HermitianOperator.from_diagonal([1.0, -2.0])
    assert_allclose(op.entries, np.diag([1.0 + 0j, -2.0 + 0j]))
    assert op.is_diagonal
    eye = HermitianOperator.identity(3)
    assert_allclose(eye.entries, np.eye(3))


def test_shifted_add_scale():
    op = HermitianOperator.from_diagonal([0.0, 1.0])
    assert_allclose(op.shifted(2.0).entries, np.diag([2.0 + 0j, 3.0]))


def test_state_requires_normalization():
    with pytest.raises(ValidationError):
        PureState(np.array([1.0, 1.0]))
    st_ok = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
    assert st_ok.dim == 2


def test_nan_state_is_refused():
    with pytest.raises(ValidationError, match=r"not normalized: sum \|a\|\^2 = nan"):
        PureState(np.array([np.nan, 0.0]))


def test_basis_vector():
    st_b = PureState.basis_vector(4, 2)
    assert_allclose(st_b.amplitudes, [0, 0, 1, 0])
    with pytest.raises(UsageError):
        PureState.basis_vector(4, 5)


def test_spectrum_rejects_descending_eigenvalues():
    with pytest.raises(ValidationError):
        Spectrum(np.array([1.0, 0.0]), np.eye(2, dtype=complex))


# ---------------------------------------------------------------- eigensystem

def test_eigensystem_matches_charpoly_roots():
    # independent oracle: roots of the characteristic polynomial
    g = rng(11)
    for _ in range(10):
        a = random_hermitian(g, 8)
        spec = hermitian_eigensystem(HermitianOperator(a))
        assert_allclose(spec.eigenvalues, charpoly_eigenvalues(a), atol=1e-8)


def test_eigensystem_reconstructs_operator():
    g = rng(12)
    a = random_hermitian(g, 6)
    spec = hermitian_eigensystem(HermitianOperator(a))
    v = spec.eigenvectors
    assert_allclose(v @ np.diag(spec.eigenvalues) @ v.conj().T, a, atol=1e-12)
    assert_allclose(v.conj().T @ v, np.eye(6), atol=1e-12)


def test_eigensystem_pauli_x():
    spec = hermitian_eigensystem(HermitianOperator(np.array([[0.0, 1.0], [1.0, 0.0]])))
    assert_allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-12)
    assert spec.lambda_min == pytest.approx(-1.0)
    assert spec.lambda_max == pytest.approx(1.0)


def test_eigensystem_diagonal_fast_path_is_stable():
    # ties keep basis order: eigenvalue 1 appears at indices 0 and 2
    spec = hermitian_eigensystem(HermitianOperator.from_diagonal([1.0, 0.0, 1.0]))
    assert_allclose(spec.eigenvalues, [0.0, 1.0, 1.0])
    assert_allclose(spec.eigenvectors[:, 0], [0, 1, 0])
    assert_allclose(spec.eigenvectors[:, 1], [1, 0, 0])
    assert_allclose(spec.eigenvectors[:, 2], [0, 0, 1])


def test_eigensystem_is_cached():
    op = HermitianOperator.from_diagonal([0.0, 2.0])
    assert hermitian_eigensystem(op) is hermitian_eigensystem(op)


# ---------------------------------------------------------------- site kernels

@pytest.mark.parametrize("d", [2, 3])
def test_lifted_site_values_match_kron_chain(d):
    values = np.arange(1.0, d + 1.0)
    n = 4
    for site in range(n):
        chain = kron_all([values if j == site else np.ones(d) for j in range(n)])
        assert_allclose(_lifted_site_values(values, site, n, d), chain, rtol=0, atol=0)


@pytest.mark.parametrize("a, b", [(2, 2), (3, 2), (2, 3)])
def test_contract_sites_matches_kron_power(a, b):
    g = rng(15)
    n = 3
    x = g.normal(size=(5, a**n)) + 1j * g.normal(size=(5, a**n))
    m = g.normal(size=(a, b)) + 1j * g.normal(size=(a, b))
    assert_allclose(_contract_sites(x, m, n), x @ kron_all([m] * n), atol=1e-13)


# ------------------------------------------------------------- tensor product

def test_tensor_index_convention():
    # e_i (x) e_j lands at i * dim_b + j
    a = PureState.basis_vector(2, 1)
    b = PureState.basis_vector(3, 2)
    joint = tensor_product(a, b)
    assert joint.dim == 6
    assert_allclose(joint.amplitudes, np.eye(6)[1 * 3 + 2])


def test_tensor_mixed_kinds_rejected():
    with pytest.raises(UsageError):
        tensor_product(PureState(np.array([1.0, 0.0])), HermitianOperator.identity(2))
    with pytest.raises(UsageError):
        tensor_product(HermitianOperator.identity(2), HermitianOperator.identity(3))


# -------------------------------------------------------------------- evolve

def test_evolve_zero_angle_is_identity():
    psi = PureState(random_state_vector(rng(14), 5))
    out = evolve(psi, HermitianOperator.from_diagonal(np.arange(5.0)), 0.0)
    assert_allclose(out.amplitudes, psi.amplitudes, atol=1e-15)


def test_evolve_eigenstate_picks_up_phase():
    psi = PureState.basis_vector(3, 1)
    out = evolve(psi, HermitianOperator.from_diagonal([0.0, 2.0, 5.0]), 0.7)
    assert_allclose(out.amplitudes, np.exp(-1j * 1.4) * psi.amplitudes, atol=1e-14)


def test_evolve_balanced_qubit_sign_flip():
    plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
    out = evolve(plus, HermitianOperator.from_diagonal([0.0, 1.0]), np.pi)
    assert_allclose(out.amplitudes, np.array([1.0, -1.0]) / np.sqrt(2), atol=1e-12)


def test_evolve_matches_expm_oracle():
    import scipy.linalg

    g = rng(15)
    a = random_hermitian(g, 5)
    psi = random_state_vector(g, 5)
    out = evolve(PureState(psi), HermitianOperator(a), 0.9)
    assert_allclose(out.amplitudes, scipy.linalg.expm(-1j * 0.9 * a) @ psi, atol=1e-12)


def test_evolve_group_property():
    g = rng(16)
    a = HermitianOperator(random_hermitian(g, 4))
    psi = PureState(random_state_vector(g, 4))
    once = evolve(psi, a, 1.1)
    twice = evolve(evolve(psi, a, 0.4), a, 0.7)
    assert np.max(np.abs(once.amplitudes - twice.amplitudes)) < 1e-10


def test_evolve_preserves_norm_on_grid():
    g = rng(17)
    a = HermitianOperator(random_hermitian(g, 6))
    psi = PureState(random_state_vector(g, 6))
    for phi in np.linspace(0.0, 2 * np.pi, 9):
        out = evolve(psi, a, float(phi))
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


@pytest.mark.parametrize("phases", [1e308, np.array([0.5, 1e308])], ids=["one", "batch"])
@pytest.mark.parametrize("form", ["diagonal", "dense"])
def test_overflowing_phase_raises_numerical_integrity_error(phases, form):
    # phi * 3 overflows to inf, so exp(-i phi h) is NaN on that row
    values = [0.0, 1.0, 3.0]
    gen = HermitianOperator.from_diagonal(values) if form == "diagonal" else HermitianOperator(np.diag(values))
    psi = PureState(np.ones(3) / np.sqrt(3))
    with pytest.raises(NumericalIntegrityError, match="evolved state is not normalized: .* = nan"):
        with pytest.warns(RuntimeWarning):
            opalg._evolved(psi, gen, phases)


def test_evolve_diagonal_and_dense_paths_agree():
    g = rng(18)
    d = np.array([0.0, 0.3, 1.7, 2.0])
    psi = random_state_vector(g, 4)
    u = random_unitary(g, 4)
    # dense path: conjugated generator acting on the rotated state
    out_diag = evolve(PureState(psi), HermitianOperator.from_diagonal(d), 0.6)
    dense = HermitianOperator(u @ np.diag(d) @ u.conj().T)
    out_dense = evolve(PureState(u @ psi), dense, 0.6)
    assert_allclose(u @ out_diag.amplitudes, out_dense.amplitudes, atol=1e-12)


def test_dense_evolve_copies_no_eigenvector_matrix():
    # with the eigensystem cached, one dense evolve needs only vectors of length d
    d = 1024
    g = rng(19)
    a = HermitianOperator(random_hermitian(g, d))
    hermitian_eigensystem(a)
    psi = PureState(random_state_vector(g, d))
    tracemalloc.start()
    try:
        out = evolve(psi, a, 0.6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # one d x d complex copy is 16 MiB
    assert_allclose(evolve(out, a, -0.6).amplitudes, psi.amplitudes, atol=1e-10)


# -------------------------------------------------------------------- moments

def test_moments_balanced_qubit():
    plus = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
    mean, var = moments(plus, HermitianOperator.from_diagonal([0.0, 1.0]))
    assert mean == pytest.approx(0.5, abs=1e-12)
    assert var == pytest.approx(0.25, abs=1e-12)


def test_moments_eigenstate_has_zero_variance():
    psi = PureState.basis_vector(3, 2)
    mean, var = moments(psi, HermitianOperator.from_diagonal([0.0, 1.0, 4.0]))
    assert mean == pytest.approx(4.0, abs=1e-12)
    assert var == pytest.approx(0.0, abs=1e-12)


def test_moments_tilted_superposition():
    psi = PureState(np.array([np.sqrt(0.75), np.sqrt(0.25)]))
    mean, var = moments(psi, HermitianOperator.from_diagonal([0.0, 1.0]))
    assert mean == pytest.approx(0.25, abs=1e-12)
    assert var == pytest.approx(0.1875, abs=1e-12)


def test_moments_match_eigensystem_oracle():
    g = rng(19)
    for _ in range(20):
        a = random_hermitian(g, 5, scale=2.0)
        psi = random_state_vector(g, 5)
        mean, var = moments(PureState(psi), HermitianOperator(a))
        mean_o, var_o = moments_by_eigensystem(psi, a)
        assert abs(mean - mean_o) < 1e-10
        assert abs(var - var_o) < 1e-10


def test_moments_near_eigenstate_variance_stays_tiny():
    # the centered form must not blow small variances up to rounding scale
    psi = PureState.basis_vector(2, 0)
    mean, var = moments(psi, HermitianOperator.from_diagonal([1.0, 1.0 + 1e-8]))
    assert mean == pytest.approx(1.0)
    assert 0.0 <= var < 1e-15


def test_moments_flag_corrupted_operator():
    # a defect of 5e-7 at max |A| = 1e3 is inside the Hermiticity rule, but <A> picks up an imaginary 2.5e-7
    bad = HermitianOperator(np.array([[1e3, 0.0], [5e-7, 0.0]]))
    with pytest.raises(NumericalIntegrityError, match="imaginary part"):
        moments(PureState(np.array([1.0, 1.0j]) / np.sqrt(2)), bad)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), dim=st.integers(2, 6))
def test_moments_variance_nonnegative_and_mean_in_range(seed, dim):
    g = rng(seed)
    a = random_hermitian(g, dim, scale=3.0)
    psi = random_state_vector(g, dim)
    mean, var = moments(PureState(psi), HermitianOperator(a))
    w = np.linalg.eigvalsh(a)
    assert var >= 0.0
    assert w[0] - 1e-9 <= mean <= w[-1] + 1e-9


# ------------------------------------------------------------ value classes

def _value_instances():
    """One instance of each value class, by class name."""
    spec = ProcedureSpec("linear", 2, (0, 1))
    gen = build_generator(spec)
    probe = optimal_state(gen, 0.5)
    box = BlackBox(HermitianOperator.from_diagonal([-1.0, 1.0]), (0,))
    net = QuantumNetwork(1, 2, (np.eye(2), box, np.eye(2)))
    generator_analytic(net, 0.3)  # fills the memo
    zero, one = HermitianOperator.from_diagonal([1.0, 0.0]), HermitianOperator.from_diagonal([0.0, 1.0])
    return {
        "HermitianOperator": HermitianOperator(random_hermitian(rng(1), 3)),
        "Spectrum": hermitian_eigensystem(HermitianOperator.from_diagonal([2.0, 0.0, 1.0])),
        "PureState": probe,
        "Measurement": Measurement((zero, one), 2),
        "BlackBox": box,
        "QuantumNetwork": net,
        "ProcedureSpec": spec,
        "JointGenerator": gen,
        "TrialConfig": TrialConfig(0.3, 10, 2, 1, optimal_povm(gen), (0, 1)),
        "TrialResult": TrialResult([0.1, 0.2], 0.1, 0.05),
        "ResourceReport": build_report(probe, gen, spec),
    }


def _public(obj) -> dict:
    """Every public non-method attribute, properties included."""
    return {name: getattr(obj, name) for name in dir(obj) if not name.startswith("_") and not callable(getattr(obj, name))}


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, opalg._Frozen):
        return type(a) is type(b) and _same(_public(a), _public(b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


@pytest.mark.parametrize("name", sorted(_value_instances()))
def test_value_class_is_frozen_and_copies(name):
    obj = _value_instances()[name]
    assert type(obj).__name__ == name and isinstance(obj, opalg._Frozen)
    first = type(obj).__slots__[0]
    for target in (first, "extra"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(obj, target, None)
    with pytest.raises(AttributeError, match="immutable"):
        delattr(obj, first)
    assert _public(obj)
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert _same(_public(clone), _public(obj))


def test_pure_state_copies_the_callers_array():
    v = np.array([1.0, 0.0], dtype=complex)
    state = PureState(v)
    v[:] = [5, 5]
    assert state.amplitudes.tolist() == [1, 0] and not state.amplitudes.flags.writeable


def test_trial_result_copies_the_callers_array():
    a = np.array([0.1, 0.2])
    result = TrialResult(a, 0.1, 0.05)
    a[:] = 9.0  # the caller's array stays writable
    assert result.estimates.tolist() == [0.1, 0.2] and not result.estimates.flags.writeable


def test_value_reprs_list_public_slots():
    values = _value_instances()
    assert repr(ProcedureSpec("linear", 3, (0, 1))) == (
        "ProcedureSpec(kind='linear', n_systems=3, base_eigs=(0.0, 1.0), body_order=None, repetitions=None, "
        "subsystem_dim=2)"
    )
    assert values["QuantumNetwork"]._analytic_memo
    assert repr(values["QuantumNetwork"]).startswith("QuantumNetwork(n_subsystems=1, subsystem_dim=2, layers=(")
    assert "_analytic_memo" not in repr(values["QuantumNetwork"])
    assert repr(values["Measurement"]) == "Measurement(n_sites=2, dim=4, n_outcomes=4)"
