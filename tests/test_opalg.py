import tracemalloc

import numpy as np

import phasebound.opalg as opalg
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from phasebound.errors import NumericalIntegrityError, UsageError, ValidationError
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
    # a defect of about 1e-9 lands on either side of the default tolerance by rounding
    if rows is not None:
        monkeypatch.setattr(opalg, "_SCAN_BLOCK_BYTES", 16 * 40 * rows)
    g = rng(12)
    verdicts = set()
    for _ in range(40):
        a = random_hermitian(g, 40)
        i, j = g.integers(0, 40, size=2)
        a[i, j] += 1e-9 * np.exp(1j * g.uniform(0, 2 * np.pi))
        want = whole_matrix_defect(a)
        if want > 1e-9:
            message = f"matrix is not Hermitian: max |A - A^dag| = {want:.3e} > {1e-9:.1e}"
            with pytest.raises(ValidationError) as err:
                HermitianOperator(a)
            assert str(err.value) == message
        else:
            HermitianOperator(a)
        verdicts.add(bool(want > 1e-9))
    assert verdicts == {True, False}


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


def test_infinite_tolerance_skips_the_scan(monkeypatch):
    def fail(a):
        raise AssertionError("scanned")

    monkeypatch.setattr(opalg, "_hermitian_defect", fail)
    assert HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian_tol=np.inf).dim == 2


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
    assert_allclose((op + op).entries, np.diag([0j, 2.0]))
    assert_allclose((3.0 * op).entries, np.diag([0j, 3.0]))
    with pytest.raises(UsageError):
        op + HermitianOperator.identity(3)


def test_state_requires_normalization():
    with pytest.raises(ValidationError):
        PureState(np.array([1.0, 1.0]))
    st_ok = PureState(np.array([1.0, 1.0]) / np.sqrt(2))
    assert st_ok.dim == 2


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


def test_positive_scale_keeps_cached_spectrum():
    g = rng(14)
    op = HermitianOperator(random_hermitian(g, 4))
    spec = hermitian_eigensystem(op)
    scaled = hermitian_eigensystem(op * 2.5)
    assert_allclose(scaled.eigenvalues, 2.5 * spec.eigenvalues, rtol=0, atol=0)
    assert_allclose(scaled.eigenvectors, spec.eigenvectors, rtol=0, atol=0)
    # a negative scale reverses the order, so its spectrum is computed afresh
    flipped = hermitian_eigensystem(op * -1.0)
    assert_allclose(flipped.eigenvalues, -spec.eigenvalues[::-1], atol=1e-12)


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


def test_evolve_diagonal_and_dense_paths_agree():
    g = rng(18)
    d = np.array([0.0, 0.3, 1.7, 2.0])
    psi = random_state_vector(g, 4)
    u = random_unitary(g, 4)
    # dense path: conjugated generator acting on the rotated state
    out_diag = evolve(PureState(psi), HermitianOperator.from_diagonal(d), 0.6)
    dense = HermitianOperator(u @ np.diag(d) @ u.conj().T, hermitian_tol=1e-12)
    out_dense = evolve(PureState(u @ psi), dense, 0.6)
    assert_allclose(u @ out_diag.amplitudes, out_dense.amplitudes, atol=1e-12)


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
    bad = HermitianOperator(np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian_tol=np.inf)
    with pytest.raises(NumericalIntegrityError):
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
