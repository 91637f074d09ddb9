"""The diagonal operator form against the dense form and the closed forms.

The dense reference is diag(v) held as a d x d matrix, built through
tests/util.py; joint diagonals are checked against explicit Kronecker
products of site vectors, extremes against closed_form_extremes.
"""
import itertools
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from phasebound.metrology import build_report, mu_sweep
from phasebound.opalg import HermitianOperator, PureState, evolve, hermitian_eigensystem, moments
from phasebound.procedures import (
    JointGenerator,
    ProcedureSpec,
    build_generator,
    closed_form_extremes,
    sequential_wrap,
)
from phasebound.states import optimal_state
from util import dense_diagonal_operator, random_state_vector, rng, subset_product_diagonal

TOL = 1e-12
N_MAX = 12  # DIM_CAP = 2^12
DENSE_REFERENCE_N = 10  # d = 1024; a dense reference at d = 4096 holds 256 MB per matrix


def kind_specs(n, base):
    """Every procedure kind the CLI builds, at n subsystems (kbody at k = 1, 2, 3)."""
    specs = [
        ProcedureSpec("linear", n, base),
        ProcedureSpec("sequential-wrapped", n, base, repetitions=3),
    ]
    specs += [ProcedureSpec("kbody", n, base, body_order=k) for k in (1, 2, 3) if k <= n]
    specs.append(ProcedureSpec("exponential", n, base))
    return specs


def expected_diagonal(spec):
    n = spec.n_systems
    if spec.kind == "kbody":
        subsets = list(itertools.combinations(range(n), spec.body_order))
    elif spec.kind == "exponential":
        subsets = [s for r in range(1, n + 1) for s in itertools.combinations(range(n), r)]
    else:
        subsets = [(j,) for j in range(n)]
    total = subset_product_diagonal(spec.base_eigs, n, subsets)
    return total * spec.repetitions if spec.kind == "sequential-wrapped" else total


def dense_twin(gen):
    ref = JointGenerator(dense_diagonal_operator(gen.generator.diagonal), gen.query_complexity, gen.h_min, gen.h_max)
    assert ref.generator._matrix is not None
    return ref


def assert_reports_close(a, b):
    da, db = a.to_dict(), b.to_dict()
    assert da.keys() == db.keys()
    for key in da:
        if isinstance(da[key], str):
            assert da[key] == db[key]
        else:
            assert da[key] == pytest.approx(db[key], abs=TOL)


# ------------------------------------------------------------------ the form

def test_algebra_keeps_the_diagonal_form():
    op = HermitianOperator.from_diagonal([0.0, 1.0, 3.0])
    wrapped = sequential_wrap(JointGenerator(op, 1, 0.0, 3.0), 2).generator
    for out in (op, HermitianOperator.identity(3), op.shifted(2.0), op + op, 3.0 * op, op * 3.0, wrapped):
        assert out.is_diagonal
        assert out._matrix is None
    assert_allclose(wrapped.diagonal, [0.0, 2.0, 6.0])
    mixed = op + dense_diagonal_operator([1.0, 1.0, 1.0])
    assert mixed._matrix is not None
    assert_allclose(mixed.entries, np.diag([1.0, 2.0, 4.0]))


def test_dense_matrix_stays_dense_and_runs_eigh(monkeypatch):
    # only from_diagonal and identity build the diagonal form; diag(v) as a matrix is dense
    v = [2.0, 0.0, 1.0]
    op = HermitianOperator(np.diag(v))
    assert op.is_diagonal is False
    assert op._diagonal is None
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    spec = hermitian_eigensystem(op)
    assert calls == [(3, 3)]
    assert spec._vectors is not None
    assert_allclose(spec.eigenvalues, [0.0, 1.0, 2.0])
    assert hermitian_eigensystem(HermitianOperator.from_diagonal(v))._vectors is None
    assert calls == [(3, 3)]


def test_diagonal_spectrum_keeps_the_permutation():
    v = [2.0, 0.0, 1.0, 0.0]
    spec = hermitian_eigensystem(HermitianOperator.from_diagonal(v))
    ref = hermitian_eigensystem(dense_diagonal_operator(v))
    assert spec._vectors is None
    assert_allclose(spec.eigenvalues, [0.0, 0.0, 1.0, 2.0])
    assert_allclose(spec.eigenvectors, ref.eigenvectors)
    for i in range(4):
        assert_allclose(spec.column(i), spec.eigenvectors[:, i])


def test_from_diagonal_rejects_bad_values():
    with pytest.raises(ValueError):
        HermitianOperator.from_diagonal([0.0, np.inf])
    with pytest.raises(ValueError):
        HermitianOperator.from_diagonal(np.zeros((2, 2)))


def test_operators_are_immutable():
    op = HermitianOperator.from_diagonal([0.0, 1.0])
    with pytest.raises(AttributeError):
        op.hermitian_tol = 1.0
    with pytest.raises(ValueError):
        op.diagonal[0] = 5.0


# ------------------------------------------------------- against the dense form

@pytest.mark.parametrize("dim", [1, 2, 5, 64])
def test_evolve_and_moments_match_dense_form(dim):
    g = rng(100 + dim)
    v = np.round(g.uniform(-2.0, 3.0, size=dim), 1)  # rounding makes ties
    diag, dense = HermitianOperator.from_diagonal(v), dense_diagonal_operator(v)
    for _ in range(5):
        psi = PureState(random_state_vector(g, dim))
        for phi in (0.0, 0.37, -2.1):
            out, ref = evolve(psi, diag, phi), evolve(psi, dense, phi)
            assert np.max(np.abs(out.amplitudes - ref.amplitudes)) < TOL
        assert_allclose(moments(psi, diag), moments(psi, dense), rtol=0, atol=TOL)


def test_report_and_mu_sweep_match_dense_form():
    for spec in kind_specs(6, (0.2, 1.1)):
        gen = build_generator(spec)
        ref = dense_twin(gen)
        for mu in (0.0, 0.3, 1.0):
            probe, probe_ref = optimal_state(gen, mu), optimal_state(ref, mu)
            assert np.max(np.abs(probe.amplitudes - probe_ref.amplitudes)) < TOL
            report = build_report(evolve(probe, gen.generator, 0.7), gen, spec)
            report_ref = build_report(evolve(probe_ref, ref.generator, 0.7), ref, spec)
            assert_reports_close(report, report_ref)
        grid = np.linspace(0.0, 1.0, 101)
        assert_allclose(mu_sweep(gen, grid), mu_sweep(ref, grid), rtol=0, atol=TOL)


@pytest.mark.parametrize("n", range(1, N_MAX + 1))
def test_every_kind_matches_references(n):
    g = rng(200 + n)
    for spec in kind_specs(n, (0.2, 1.1)):
        gen = build_generator(spec)
        assert gen.generator._matrix is None
        expected = expected_diagonal(spec)
        assert_allclose(gen.generator.diagonal, expected, rtol=TOL, atol=TOL)
        if n > DENSE_REFERENCE_N:
            continue
        ref = dense_twin(gen)
        psi = PureState(random_state_vector(g, spec.dim))
        assert_allclose(moments(psi, gen.generator), moments(psi, ref.generator), rtol=TOL, atol=TOL)
        assert_allclose(
            hermitian_eigensystem(gen.generator).eigenvalues,
            hermitian_eigensystem(ref.generator).eigenvalues,
            rtol=0,
            atol=0,
        )


@pytest.mark.parametrize("n", range(1, N_MAX + 1))
def test_extremes_match_closed_forms(n):
    for base in ((0.0, 1.0), (0.2, 1.1)):
        for spec in kind_specs(n, base):
            gen = build_generator(spec)
            q, lo, hi = closed_form_extremes(spec)
            assert gen.query_complexity == q
            assert_allclose([gen.h_min, gen.h_max], [lo, hi], rtol=TOL, atol=TOL)
            spectrum = hermitian_eigensystem(gen.generator)
            assert_allclose([spectrum.lambda_min, spectrum.lambda_max], [lo, hi], rtol=TOL, atol=TOL)


# -------------------------------------------------------------- memory ceiling

def test_linear_n12_report_and_sweep_stay_small():
    # every step keeps the 4096-wide generator as a vector; a d x d complex
    # matrix alone would be 256 MB
    tracemalloc.start()
    try:
        spec = ProcedureSpec("linear", 12, (0.0, 1.0))
        gen = build_generator(spec)
        probe = optimal_state(gen, 0.5)
        report = build_report(evolve(probe, gen.generator, 0.3), gen, spec)
        rows = mu_sweep(gen, np.linspace(0.0, 1.0, 101))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20
    assert report.q == 12
    assert report.expectation_shifted == pytest.approx(6.0, abs=TOL)
    assert len(rows) == 101
