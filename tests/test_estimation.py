import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from phasebound.errors import BoundaryWarning, UsageError, ValidationError
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
from phasebound.metrology import Measurement, outcome_probabilities, validate_povm
from phasebound.opalg import HermitianOperator, PureState, _evolved, evolve, hermitian_eigensystem
from phasebound.procedures import JointGenerator, ProcedureSpec, build_generator
from phasebound.states import mode_number_generator, noon_state, product_balanced_state

from util import dense_product_probabilities, random_hermitian, random_state_vector, random_unitary, rng


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
    assert (joint.n_outcomes, joint.dim, joint.n_sites) == (8, 8, 3)
    g = rng(3)
    for _ in range(5):
        psi = random_state_vector(g, 8)
        probs = joint.probabilities(psi)
        dense = dense_product_probabilities([e.entries for e in site], 3, psi)
        assert_allclose(probs, dense, rtol=0, atol=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


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
    assert res.predicted_crb == pytest.approx(1.0 / (2.0 * math.sqrt(50)), rel=1e-13)


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
    assert res.predicted_crb == pytest.approx(1.0 / math.sqrt(1000 * n), rel=1e-13)
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
    return np.array([outcome_probabilities(evolve(state, generator, phi), povm) for phi in grid])


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
    assert povm.n_outcomes == 8
    grid = np.linspace(0.2, 1.2, GRID_POINTS)
    table = _outcome_table(probe, gen.generator, povm, grid)
    assert_allclose(table, per_point_table(probe, gen.generator, povm, grid), rtol=0, atol=TABLE_ATOL)


@pytest.mark.parametrize("form", ["diagonal", "dense"])
def test_table_and_evolve_share_one_kernel(form):
    # a one-phase table is evolve's state through the measurement, bit for bit;
    # a batch differs from it only where BLAS blocks the batched products differently
    if form == "diagonal":
        gen = mode_number_generator(3)
        generator, probe, povm = gen.generator, noon_state(3), Measurement(optimal_povm(gen))
    else:
        generator, probe, povm = nondiagonal_case()
        povm = Measurement(povm)
    assert generator.is_diagonal is (form == "diagonal")
    grid = np.linspace(-0.9, 0.9, 37)
    amplitudes = _evolved(probe, generator, grid)
    table = _outcome_table(probe, generator, povm, grid)
    atol = 0.0 if form == "diagonal" else 1e-12
    for g, phi in enumerate(grid):
        psi = evolve(probe, generator, float(phi))
        row = outcome_probabilities(psi, povm)
        assert np.array_equal(_outcome_table(probe, generator, povm, float(phi)), row)
        assert_allclose(amplitudes[g], psi.amplitudes, rtol=0, atol=atol)
        assert_allclose(table[g], row, rtol=0, atol=max(atol, 1e-15))


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
    model = lambda phi: outcome_probabilities(evolve(probe, gen.generator, phi), povm)
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


# ------------------------------------------------- site-factored measurements

REFERENCE_ATOL = 1e-12


def qubit_optimal_site():
    return optimal_povm(JointGenerator(qubit_base(), 1, 0.0, 1.0))


def qutrit_optimal_site():
    # (I +/- X)/2 with X = |2><0| + h.c.: eigenvalue 1/2 on |1>, so not projective
    return optimal_povm(JointGenerator(HermitianOperator.from_diagonal([0.0, 0.5, 1.0]), 1, 0.0, 1.0))


def random_three_outcome_site(seed=33):
    # E_k = S^(-1/2) A_k S^(-1/2) for random positive A_k and S = sum A_k
    g = rng(seed)
    parts = []
    for _ in range(3):
        z = g.normal(size=(2, 2)) + 1j * g.normal(size=(2, 2))
        parts.append(z @ z.conj().T)
    w, v = np.linalg.eigh(sum(parts))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    elements = [inv_sqrt @ a @ inv_sqrt for a in parts]
    return [HermitianOperator((e + e.conj().T) / 2) for e in elements]


SITES = {"qubit-optimal": qubit_optimal_site, "qutrit-optimal": qutrit_optimal_site, "random-3": random_three_outcome_site}


def test_reference_sites_are_what_they_claim():
    qutrit = [e.entries for e in qutrit_optimal_site()]
    assert np.max(np.abs(qutrit[0] @ qutrit[0] - qutrit[0])) > 0.1
    site = [e.entries for e in random_three_outcome_site()]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert np.max(np.abs(site[i] @ site[j] - site[j] @ site[i])) > 0.05
    assert min(np.linalg.eigvalsh(e).min() for e in site) > 0.05  # full rank: nothing projective


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("name", sorted(SITES))
def test_site_product_matches_dense_reference(name, n):
    site = SITES[name]()
    mats = [e.entries for e in site]
    meas = tensor_power_povm(site, n)
    dim = site[0].dim ** n
    assert (meas.dim, meas.n_outcomes) == (dim, len(site) ** n)
    g = rng(100 + n)
    probe = PureState(random_state_vector(g, dim))
    probs = outcome_probabilities(probe, meas)
    assert_allclose(probs, dense_product_probabilities(mats, n, probe.amplitudes), rtol=0, atol=REFERENCE_ATOL)
    # the grid table against the dense reference on independently evolved states
    gen = build_generator(ProcedureSpec("linear", n, (0.0, 1.0), subsystem_dim=site[0].dim))
    grid = np.linspace(-0.7, 1.3, 9)
    evolved = np.exp(-1j * grid[:, None] * np.diag(gen.generator.entries).real) * probe.amplitudes
    table = _outcome_table(probe, gen.generator, meas, grid)
    assert_allclose(table, dense_product_probabilities(mats, n, evolved), rtol=0, atol=REFERENCE_ATOL)


def test_sample_outcomes_match_dense_reference():
    site = random_three_outcome_site()
    n, shots, seed = 4, 5000, 77
    psi = random_state_vector(rng(8), 2**n)
    counts = sample_outcomes(PureState(psi), tensor_power_povm(site, n), shots, seed)
    dense = dense_product_probabilities([e.entries for e in site], n, psi)
    reference = np.random.default_rng(seed).multinomial(shots, dense / dense.sum())
    assert counts.tolist() == reference.tolist()


def test_product_measurement_rejects_negative_probability():
    # -delta passes the POVM tolerance but <000|E_0 (x) E_1 (x) E_1|000> = -delta (1 + delta)^2
    delta = 5e-10
    site = [HermitianOperator.from_diagonal([-delta, 1.0]), HermitianOperator.from_diagonal([1.0 + delta, 0.0])]
    meas = tensor_power_povm(site, 3)
    probe = PureState.basis_vector(8, 0)
    assert dense_product_probabilities([e.entries for e in site], 3, probe.amplitudes)[3] < -1e-12
    with pytest.raises(ValidationError, match="negative outcome probability"):
        outcome_probabilities(probe, meas)
    gen = build_generator(ProcedureSpec("linear", 3, (0.0, 1.0)))
    with pytest.raises(ValidationError, match="negative outcome probability"):
        _outcome_table(probe, gen.generator, meas, np.linspace(0.0, 1.0, 5))


def test_measurement_dimension_mismatch_is_usage_error():
    meas = tensor_power_povm(qubit_optimal_site(), 3)
    with pytest.raises(UsageError):
        outcome_probabilities(PureState.basis_vector(4, 0), meas)
    with pytest.raises(UsageError):
        tensor_power_povm(qubit_optimal_site(), 0)
    gen = build_generator(ProcedureSpec("linear", 2, (0.0, 1.0)))
    cfg = TrialConfig(0.7, 10, 2, 1, meas, (0.2, 1.2))
    with pytest.raises(UsageError):
        precision_trial(gen, product_balanced_state(2, hermitian_eigensystem(qubit_base())), cfg)


def test_measurement_is_validated_once(monkeypatch):
    import phasebound.metrology as metrology

    calls = []
    original = metrology.validate_povm
    monkeypatch.setattr(metrology, "validate_povm", lambda povm: calls.append(len(povm)) or original(povm))
    gen, probe, povm = site_product_case(3)
    assert calls == [2]
    cfg = TrialConfig(0.7, 50, 2, 4, povm, (0.2, 1.2))
    precision_trial(gen, probe, cfg)
    assert calls == [2]
    TrialConfig(0.7, 50, 2, 4, qubit_optimal_site(), (0.2, 1.2))
    assert calls == [2, 2]


def test_invalid_site_rejected_at_construction():
    with pytest.raises(ValidationError):
        tensor_power_povm([HermitianOperator.from_diagonal([0.5, 0.5])], 4)
    assert isinstance(tensor_power_povm(qubit_optimal_site(), 2), Measurement)
