import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from phasebound.errors import DegenerateGeneratorError, ValidationError
from phasebound.opalg import HermitianOperator, hermitian_eigensystem, moments
from phasebound.procedures import JointGenerator, ProcedureSpec, build_generator
from phasebound.states import (
    coherent_state,
    mode_number_generator,
    noon_state,
    number_operator,
    optimal_state,
    product_balanced_state,
)


def poisson_moments(alpha):
    lam = abs(alpha) ** 2
    return lam, lam


# -------------------------------------------------------------- optimal states

def test_optimal_state_mu_one_is_top_eigenstate():
    gen = build_generator(ProcedureSpec("linear", 3, (0.0, 1.0)))
    state = optimal_state(gen, 1.0)
    assert abs(state.amplitudes[7]) == pytest.approx(1.0, abs=1e-12)


def test_optimal_state_balanced_linear_three_qubits():
    gen = build_generator(ProcedureSpec("linear", 3, (0.0, 1.0)))
    state = optimal_state(gen, 0.5)
    amps = state.amplitudes
    assert abs(amps[0]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert abs(amps[7]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert np.max(np.abs(amps[1:7])) < 1e-12


def test_optimal_state_moment_identities_on_mu_grid():
    for spec in (
        ProcedureSpec("linear", 3, (0.0, 1.0)),
        ProcedureSpec("kbody", 4, (0.1, 0.8), body_order=2),
    ):
        gen = build_generator(spec)
        s = gen.seminorm
        for mu in np.linspace(0.0, 1.0, 11):
            state = optimal_state(gen, float(mu))
            mean, var = moments(state, gen.generator)
            assert abs((mean - gen.h_min) - mu * s) < 1e-10
            assert abs(math.sqrt(var) - math.sqrt(mu * (1 - mu)) * s) < 1e-10
            # shifted mean never exceeds the seminorm, spread never tops s/2
            assert mean - gen.h_min <= s + 1e-10
            assert math.sqrt(var) <= s / 2 + 1e-10


def test_optimal_state_mu_half_ties_mean_and_spread():
    gen = build_generator(ProcedureSpec("exponential", 3, (0.0, 1.0)))
    state = optimal_state(gen, 0.5)
    mean, var = moments(state, gen.generator)
    assert abs(2 * (mean - gen.h_min) - gen.seminorm) < 1e-10
    assert abs(2 * math.sqrt(var) - gen.seminorm) < 1e-10


def test_optimal_state_relative_phase_leaves_moments():
    gen = build_generator(ProcedureSpec("linear", 2, (0.0, 1.0)))
    base = optimal_state(gen, 0.3)
    rot = optimal_state(gen, 0.3, rel_phase=1.2)
    m0, v0 = moments(base, gen.generator)
    m1, v1 = moments(rot, gen.generator)
    assert m0 == pytest.approx(m1, abs=1e-12)
    assert v0 == pytest.approx(v1, abs=1e-12)
    assert not np.allclose(base.amplitudes, rot.amplitudes)


def test_optimal_state_rejects_flat_generator():
    flat = JointGenerator(HermitianOperator.identity(2), 1)
    with pytest.raises(DegenerateGeneratorError):
        optimal_state(flat, 0.5)


def test_optimal_state_degenerate_top_picks_first_basis_column():
    gen = JointGenerator(HermitianOperator.from_diagonal([0.0, 2.0, 2.0]), 1)
    state = optimal_state(gen, 0.5)
    assert abs(state.amplitudes[1]) == pytest.approx(1 / math.sqrt(2), abs=1e-12)
    assert abs(state.amplitudes[2]) < 1e-12


def test_optimal_state_mu_bounds():
    gen = build_generator(ProcedureSpec("linear", 2, (0.0, 1.0)))
    with pytest.raises(ValidationError):
        optimal_state(gen, -0.1)
    with pytest.raises(ValidationError):
        optimal_state(gen, 1.1)


# -------------------------------------------------------------------- sectors

def test_noon_state_amplitudes():
    state = noon_state(3)
    assert state.dim == 4
    assert abs(state.amplitudes[0]) == pytest.approx(1 / math.sqrt(2))
    assert abs(state.amplitudes[3]) == pytest.approx(1 / math.sqrt(2))


def test_noon_photon_number_moments():
    gen = mode_number_generator(3)
    mean, var = moments(noon_state(3), gen.generator)
    assert mean == pytest.approx(1.5, abs=1e-12)
    assert math.sqrt(var) == pytest.approx(1.5, abs=1e-12)
    assert gen.query_complexity == 3
    assert (gen.h_min, gen.h_max) == (0.0, 3.0)


def test_noon_equals_balanced_optimal_state():
    gen = mode_number_generator(4)
    noon = noon_state(4)
    opt = optimal_state(gen, 0.5)
    assert np.max(np.abs(noon.amplitudes - opt.amplitudes)) < 1e-12


# ------------------------------------------------------------- product probes

def test_product_balanced_single_site():
    base = hermitian_eigensystem(HermitianOperator.from_diagonal([0.0, 1.0]))
    state = product_balanced_state(1, base)
    assert_allclose(np.abs(state.amplitudes), [1 / math.sqrt(2)] * 2, atol=1e-12)


def test_product_balanced_is_uniform_for_qubits():
    base = hermitian_eigensystem(HermitianOperator.from_diagonal([0.0, 1.0]))
    state = product_balanced_state(3, base)
    assert_allclose(np.abs(state.amplitudes), np.full(8, 1 / math.sqrt(8)), atol=1e-12)


def test_product_balanced_exponential_expectation():
    # mean of prod-over-subsets generator on the uniform probe: sum over
    # nonempty subsets of (1/2)^|s| = (3/2)^3 - 1
    base = hermitian_eigensystem(HermitianOperator.from_diagonal([0.0, 1.0]))
    state = product_balanced_state(3, base)
    gen = build_generator(ProcedureSpec("exponential", 3, (0.0, 1.0)))
    mean, _ = moments(state, gen.generator)
    assert mean == pytest.approx(1.5**3 - 1.0, abs=1e-12)


# ------------------------------------------------------------------- coherent

def test_coherent_vacuum():
    state = coherent_state(0.0, 4)
    assert abs(state.amplitudes[0]) == pytest.approx(1.0, abs=1e-12)


def test_coherent_number_moments_match_poisson():
    state = coherent_state(2.0, 40)
    op = number_operator(40)
    mean, var = moments(state, op.generator)
    lam, lam_var = poisson_moments(2.0)
    assert mean == pytest.approx(lam, abs=1e-6)
    assert var == pytest.approx(lam_var, abs=1e-6)
    assert op.query_complexity is None


def test_coherent_complex_amplitude_same_moments():
    state = coherent_state(2.0j, 40)
    op = number_operator(40)
    mean, var = moments(state, op.generator)
    assert mean == pytest.approx(4.0, abs=1e-6)
    assert var == pytest.approx(4.0, abs=1e-6)


def test_coherent_rejects_small_cutoff():
    with pytest.raises(ValidationError):
        coherent_state(2.0, 20)


def test_level_counts_past_the_dimension_cap_are_refused_before_allocation():
    # 10^12 + 1 levels would take terabytes, so a missing check fails here with MemoryError
    for build in (noon_state, mode_number_generator, number_operator, lambda n: coherent_state(1.0, n)):
        with pytest.raises(ValidationError, match="exceeds the cap"):
            build(10**12)


def test_coherent_rejects_large_truncation_deficit():
    # cutoff passes the 10 |alpha|^2 floor but the Poisson tail is still fat
    with pytest.raises(ValidationError):
        coherent_state(0.1, 1)


def test_coherent_large_alpha_stays_finite():
    state = coherent_state(8.0, 640)
    assert np.all(np.isfinite(state.amplitudes))
    mean, var = moments(state, number_operator(640).generator)
    assert mean == pytest.approx(64.0, rel=1e-6)


def test_number_operator_extremes():
    op = number_operator(5)
    assert (op.h_min, op.h_max) == (0.0, 5.0)
    assert op.generator.dim == 6
