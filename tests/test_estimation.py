import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from phasebound.errors import BoundaryWarning, ValidationError
from phasebound.estimation import (
    GRID_POINTS,
    REFINE_TOL,
    RNG_ALGORITHM,
    TrialConfig,
    _outcome_table,
    mle_estimate,
    optimal_povm,
    precision_trial,
    sample_outcomes,
    tensor_power_povm,
)
from phasebound.metrology import outcome_probabilities, validate_povm
from phasebound.opalg import HermitianOperator, PureState, evolve, hermitian_eigensystem
from phasebound.procedures import JointGenerator, ProcedureSpec, build_generator
from phasebound.states import mode_number_generator, noon_state, product_balanced_state

from util import random_hermitian, random_state_vector, random_unitary, rng


def binary_model(phi):
    return np.array([math.cos(phi) ** 2, math.sin(phi) ** 2])


def qubit_base():
    return HermitianOperator.from_diagonal([0.0, 1.0])


# ----------------------------------------------------------------- POVM tools

def test_optimal_povm_is_valid_and_binary():
    gen = mode_number_generator(3)
    povm = optimal_povm(gen)
    assert len(povm) == 2
    validate_povm(povm)
    # projects onto (|min> +/- |max>)/sqrt(2)
    plus = (PureState.basis_vector(4, 0).amplitudes + PureState.basis_vector(4, 3).amplitudes) / math.sqrt(2)
    assert_allclose(povm[0].entries @ plus, plus, atol=1e-12)
    assert_allclose(povm[1].entries @ plus, np.zeros(4), atol=1e-12)


def test_tensor_power_povm_counts_and_completeness():
    site = optimal_povm(JointGenerator(qubit_base(), 1, 0.0, 1.0))
    joint = tensor_power_povm(site, 3)
    assert len(joint) == 8
    validate_povm(joint)


# ------------------------------------------------------------------- sampling

def test_sample_outcomes_eigenstate_all_one_bucket():
    povm = (
        HermitianOperator.from_diagonal([1.0, 0.0]),
        HermitianOperator.from_diagonal([0.0, 1.0]),
    )
    counts = sample_outcomes(PureState.basis_vector(2, 0), povm, 500, seed=1)
    assert_allclose(counts, [500, 0])


def test_sample_outcomes_concentrate_near_expectation():
    state = PureState(np.array([1.0, 1.0]) / math.sqrt(2))
    povm = (
        HermitianOperator.from_diagonal([1.0, 0.0]),
        HermitianOperator.from_diagonal([0.0, 1.0]),
    )
    shots = 1_000_000
    counts = sample_outcomes(state, povm, shots, seed=7)
    assert counts.sum() == shots
    # 5 sigma of a fair binomial
    assert abs(counts[0] - shots / 2) < 5 * math.sqrt(shots / 4)


def test_sample_outcomes_seed_reproducible():
    state = PureState(np.array([0.6, 0.8]))
    povm = (
        HermitianOperator.from_diagonal([1.0, 0.0]),
        HermitianOperator.from_diagonal([0.0, 1.0]),
    )
    a = sample_outcomes(state, povm, 1000, seed=123)
    b = sample_outcomes(state, povm, 1000, seed=123)
    assert_allclose(a, b)


# ------------------------------------------------------------------------ MLE

def test_mle_recovers_exact_model_counts():
    counts = 1000.0 * binary_model(0.4)
    est = mle_estimate(counts, binary_model, (0.1, 0.9))
    assert est == pytest.approx(0.4, abs=1e-6)


def test_mle_consistent_for_many_shots():
    gen = mode_number_generator(3)
    state_at = lambda phi: evolve(noon_state(3), gen.generator, phi)
    model = lambda phi: np.array(
        [(1 + math.cos(3 * phi)) / 2, (1 - math.cos(3 * phi)) / 2]
    )
    counts = sample_outcomes(state_at(0.4), optimal_povm(gen), 100_000, seed=5)
    est = mle_estimate(counts, model, (0.1, 0.9))
    assert abs(est - 0.4) < 0.01


def test_mle_tie_break_takes_smaller_phase():
    # even likelihood in phi: the scan must settle on the left peak
    counts = 1000.0 * binary_model(0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = mle_estimate(counts, binary_model, (-0.5, 0.5))
    assert est == pytest.approx(-0.2, abs=1e-4)


def test_mle_warns_at_interval_boundary():
    counts = 1000.0 * binary_model(0.6)
    with pytest.warns(BoundaryWarning):
        est = mle_estimate(counts, binary_model, (-0.4, 0.4))
    assert abs(abs(est) - 0.4) < 1e-6


# ------------------------------------------------------------ trial harness

def test_trial_config_validation():
    povm = optimal_povm(mode_number_generator(2))
    with pytest.raises(ValidationError):
        TrialConfig(0.4, 0, 10, 1, povm, (0.1, 0.9))
    with pytest.raises(ValidationError):
        TrialConfig(0.4, 100, 0, 1, povm, (0.1, 0.9))
    with pytest.raises(ValidationError):
        TrialConfig(0.4, 100, 10, 1, povm, (0.9, 0.1))
    with pytest.raises(ValidationError):
        TrialConfig(1.5, 100, 10, 1, povm, (0.1, 0.9))
    with pytest.raises(ValidationError):
        TrialConfig(0.4, 100, 10, -1, povm, (0.1, 0.9))


def test_trial_interval_must_fit_one_period():
    gen = mode_number_generator(3)
    cfg = TrialConfig(0.4, 100, 5, 1, optimal_povm(gen), (0.0, 2.2))
    with pytest.raises(ValidationError):
        precision_trial(gen, noon_state(3), cfg)


def test_trial_rejects_insensitive_probe():
    gen = mode_number_generator(2)
    probe = PureState.basis_vector(3, 0)  # phase-blind eigenstate
    cfg = TrialConfig(0.4, 100, 5, 1, optimal_povm(gen), (0.1, 0.9))
    with pytest.raises(ValidationError):
        precision_trial(gen, probe, cfg)


def test_trial_fixed_seed_is_bit_identical():
    gen = mode_number_generator(3)
    cfg = TrialConfig(0.4, 300, 20, 99, optimal_povm(gen), (0.1, 0.9))
    a = precision_trial(gen, noon_state(3), cfg)
    b = precision_trial(gen, noon_state(3), cfg)
    assert a.estimates.tobytes() == b.estimates.tobytes()
    assert a.empirical_rmse == b.empirical_rmse
    assert a.rng_algorithm == RNG_ALGORITHM == "pcg64"


def test_trial_estimates_shape_and_interval():
    gen = mode_number_generator(2)
    cfg = TrialConfig(0.5, 50, 8, 3, optimal_povm(gen), (0.2, 1.2))
    res = precision_trial(gen, noon_state(2), cfg)
    assert res.estimates.shape == (8,)
    assert np.all(res.estimates >= 0.2) and np.all(res.estimates <= 1.2)
    assert res.predicted_crb == pytest.approx(1.0 / (2.0 * math.sqrt(50)), rel=1e-3)


def test_trial_rmse_tracks_crb_for_noon():
    gen = mode_number_generator(3)
    cfg = TrialConfig(0.4, 1000, 200, 20260819, optimal_povm(gen), (0.1, 0.9))
    res = precision_trial(gen, noon_state(3), cfg)
    assert 0.85 <= res.empirical_rmse / res.predicted_crb <= 1.25


def test_trial_rmse_tracks_crb_for_separable_probe():
    n = 4
    gen = build_generator(ProcedureSpec("linear", n, (0.0, 1.0)))
    probe = product_balanced_state(n, hermitian_eigensystem(qubit_base()))
    povm = tensor_power_povm(optimal_povm(JointGenerator(qubit_base(), 1, 0.0, 1.0)), n)
    cfg = TrialConfig(0.7, 1000, 200, 42, povm, (0.2, 1.2))
    res = precision_trial(gen, probe, cfg)
    assert 0.85 <= res.empirical_rmse / res.predicted_crb <= 1.25


def test_trial_halving_gap_doubles_rmse():
    outs = []
    for hi in (1.0, 0.5):
        gen = build_generator(ProcedureSpec("linear", 1, (0.0, hi)))
        from phasebound.states import optimal_state

        cfg = TrialConfig(0.8, 1000, 100, 11, optimal_povm(gen), (0.1, 1.5))
        outs.append(precision_trial(gen, optimal_state(gen, 0.5), cfg).empirical_rmse)
    assert outs[1] / outs[0] == pytest.approx(2.0, rel=0.2)


def test_trial_result_serialization_fields():
    gen = mode_number_generator(2)
    cfg = TrialConfig(0.5, 50, 4, 3, optimal_povm(gen), (0.2, 1.2))
    res = precision_trial(gen, noon_state(2), cfg)
    d = res.to_dict()
    assert set(d) >= {"estimates", "empirical_rmse", "predicted_crb", "rng_algorithm"}
    assert isinstance(d["estimates"], list)


# -------------------------------------------------------- likelihood table

TABLE_ATOL = 1e-12  # float64 rounding of d <= 64 contractions sits far below this


def per_point_table(state, generator, povm, grid):
    return np.array([outcome_probabilities(evolve(state, generator, phi), list(povm)) for phi in grid])


def site_product_case(n):
    gen = build_generator(ProcedureSpec("linear", n, (0.0, 1.0)))
    probe = product_balanced_state(n, hermitian_eigensystem(qubit_base()))
    povm = tensor_power_povm(optimal_povm(JointGenerator(qubit_base(), 1, 0.0, 1.0)), n)
    return gen, probe, povm


def nondiagonal_case(dim=6, seed=17):
    gen = rng(seed)
    generator = HermitianOperator(random_hermitian(gen, dim))
    probe = PureState(random_state_vector(gen, dim))
    basis = random_unitary(gen, dim)
    povm = [HermitianOperator(np.outer(basis[:, k], basis[:, k].conj())) for k in range(dim)]
    return generator, probe, povm


def test_table_matches_per_point_noon_diagonal():
    gen = mode_number_generator(3)
    grid = np.linspace(0.1, 0.9, GRID_POINTS)
    table = _outcome_table(noon_state(3), gen.generator, optimal_povm(gen), grid)
    assert table.shape == (GRID_POINTS, 2)
    assert_allclose(table, per_point_table(noon_state(3), gen.generator, optimal_povm(gen), grid), rtol=0, atol=TABLE_ATOL)


def test_table_matches_per_point_nondiagonal_generator():
    generator, probe, povm = nondiagonal_case()
    assert not generator.is_diagonal
    grid = np.linspace(-1.0, 1.0, GRID_POINTS)
    table = _outcome_table(probe, generator, povm, grid)
    assert_allclose(table, per_point_table(probe, generator, povm, grid), rtol=0, atol=TABLE_ATOL)
    assert_allclose(table.sum(axis=1), 1.0, atol=1e-12)


def test_table_matches_per_point_site_product():
    gen, probe, povm = site_product_case(3)
    assert len(povm) == 8
    grid = np.linspace(0.2, 1.2, GRID_POINTS)
    table = _outcome_table(probe, gen.generator, povm, grid)
    assert_allclose(table, per_point_table(probe, gen.generator, povm, grid), rtol=0, atol=TABLE_ATOL)


def test_table_rejects_negative_probabilities():
    gen = mode_number_generator(1)
    bad = [HermitianOperator.from_diagonal([1.1, 1.0]), HermitianOperator.from_diagonal([-0.1, 0.0])]
    with pytest.raises(ValidationError):
        _outcome_table(noon_state(1), gen.generator, bad, np.linspace(0.0, 1.0, 5))


@pytest.mark.parametrize("case, phi_true", [("noon", 0.12), ("noon", 0.88), ("site-product", 0.7)])
def test_trial_matches_per_trial_mle_estimate(case, phi_true):
    if case == "noon":
        gen = mode_number_generator(3)
        probe, povm = noon_state(3), optimal_povm(gen)
        cfg = TrialConfig(phi_true, 200, 12, 5, povm, (0.1, 0.9))
    else:
        gen, probe, povm = site_product_case(3)
        cfg = TrialConfig(phi_true, 300, 4, 8, povm, (0.2, 1.2))
    model = lambda phi: outcome_probabilities(evolve(probe, gen.generator, phi), list(povm))
    truth = evolve(probe, gen.generator, cfg.phi_true)
    with warnings.catch_warnings(record=True) as batched:
        warnings.simplefilter("always", BoundaryWarning)
        res = precision_trial(gen, probe, cfg)
    reference = []
    with warnings.catch_warnings(record=True) as scalar:
        warnings.simplefilter("always", BoundaryWarning)
        for trial in range(cfg.n_trials):
            stream = np.random.SeedSequence(entropy=cfg.rng_seed, spawn_key=(trial,))
            counts = sample_outcomes(truth, povm, cfg.shots_per_trial, stream)
            reference.append(mle_estimate(counts, model, cfg.search_interval))
    assert_allclose(res.estimates, reference, rtol=0, atol=REFINE_TOL)
    assert len(batched) == len(scalar)
    if case == "noon":
        assert len(scalar) > 0  # phi_true next to an edge puts some maxima on it
