import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from phasebound.errors import BoundaryWarning, UsageError, ValidationError
from phasebound.estimation import (
    GRID_POINTS,
    REFINE_TOL,
    RNG_ALGORITHM,
    TrialConfig,
    _fringe_estimate,
    _grid_estimator,
    _outcome_table,
    _reduced_fringe,
    _scan_and_refine,
    mle_estimate,
    optimal_povm,
    precision_trial,
    sample_outcomes,
)
from phasebound.metrology import Measurement, outcome_probabilities, validate_povm
from phasebound.opalg import HermitianOperator, PureState, _evolved, evolve, hermitian_eigensystem
from phasebound.procedures import JointGenerator, ProcedureSpec, base_diagonal, build_generator
from phasebound.states import mode_number_generator, noon_state, optimal_state, product_balanced_state

from util import (
    dense_product_probabilities,
    dense_score_mle,
    fringe_mle_bounded,
    product_probe_mle,
    random_hermitian,
    random_state_vector,
    random_unitary,
    rng,
    site_product_reduced_counts,
)


def binary_model(phi):
    return np.array([math.cos(phi) ** 2, math.sin(phi) ** 2])


def binary_grid_estimate(counts, interval):
    """The grid path on ``binary_model``: its table scanned, refined by bisection on its analytic score."""
    grid = np.linspace(*interval, GRID_POINTS)
    log_table = np.log(np.clip([binary_model(phi) for phi in grid], 1e-300, None))
    slope = lambda phi: (binary_model(phi), np.array([-math.sin(2 * phi), math.sin(2 * phi)]))
    return _scan_and_refine(counts, log_table, grid, slope)


def noon_grid_estimator(interval):
    """NOON N = 3 with the dense parity elements: no fringe form, so precision_trial would take the grid path."""
    gen = mode_number_generator(3)
    return _grid_estimator(noon_state(3), gen.generator, Measurement(optimal_povm(gen).site), *interval)


def qubit_base():
    return HermitianOperator.from_diagonal([0.0, 1.0])


def count_fringe_estimates(monkeypatch):
    """The argument tuples of every ``_fringe_estimate`` call from here on."""
    import phasebound.estimation as estimation

    calls = []
    original = estimation._fringe_estimate
    monkeypatch.setattr(estimation, "_fringe_estimate", lambda *args: calls.append(args) or original(*args))
    return calls


# ----------------------------------------------------------------- POVM tools

def test_optimal_povm_is_valid_and_binary():
    gen = mode_number_generator(3)
    povm = optimal_povm(gen)
    assert isinstance(povm, Measurement)
    assert (povm.n_sites, povm.n_outcomes, povm.dim) == (1, 2, 4)
    validate_povm(povm.site)
    # projects onto (|min> +/- |max>)/sqrt(2)
    plus = (PureState.basis_vector(4, 0).amplitudes + PureState.basis_vector(4, 3).amplitudes) / math.sqrt(2)
    assert_allclose(povm.site[0].entries @ plus, plus, atol=1e-12)
    assert_allclose(povm.site[1].entries @ plus, np.zeros(4), atol=1e-12)


@pytest.mark.parametrize("dim", [2, 3, 8])
def test_optimal_povm_matches_dense_parity_pair(dim):
    # (I +/- X)/2 with X = |max><min| + h.c., built from sorted diagonal values, not the spectrum code
    g = rng(40 + dim)
    values = g.permutation(np.linspace(-1.0, 2.0, dim))
    lo, hi = int(np.argmin(values)), int(np.argmax(values))
    x = np.zeros((dim, dim))
    x[hi, lo] = x[lo, hi] = 1.0
    dense = [(np.eye(dim) + x) / 2, (np.eye(dim) - x) / 2]
    povm = optimal_povm(JointGenerator(HermitianOperator.from_diagonal(values), 1))
    for _ in range(5):
        psi = random_state_vector(g, dim)
        expected = [np.vdot(psi, e @ psi).real for e in dense]
        assert_allclose(outcome_probabilities(PureState(psi), povm), expected, rtol=0, atol=1e-12)


def test_raw_element_list_is_refused_by_sampling_and_trials():
    povm = optimal_povm(mode_number_generator(2))
    state = noon_state(2)
    for raw in (list(povm.site), tuple(povm.site)):
        with pytest.raises(UsageError, match="must be a Measurement"):
            sample_outcomes(state, raw, 10, seed=1)
        with pytest.raises(UsageError, match="must be a Measurement"):
            TrialConfig(0.4, 100, 10, 1, raw, (0.1, 0.9))
        with pytest.raises(UsageError, match="must be a Measurement"):
            _outcome_table(state, mode_number_generator(2).generator, raw, np.linspace(0.1, 0.9, 5))


def test_tensor_power_povm_counts_and_completeness():
    site = optimal_povm(JointGenerator(qubit_base(), 1)).site
    joint = Measurement(site, 3)
    assert (joint.n_outcomes, joint.dim, joint.n_sites) == (8, 8, 3)
    g = rng(3)
    for _ in range(5):
        psi = random_state_vector(g, 8)
        probs = joint.probabilities(psi)
        dense = dense_product_probabilities([e.entries for e in site], 3, psi)
        assert_allclose(probs, dense, rtol=0, atol=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------------------- sampling

def z_measurement():
    return Measurement((HermitianOperator.from_diagonal([1.0, 0.0]), HermitianOperator.from_diagonal([0.0, 1.0])))


def test_sample_outcomes_eigenstate_all_one_bucket():
    povm = z_measurement()
    counts = sample_outcomes(PureState.basis_vector(2, 0), povm, 500, seed=1)
    assert_allclose(counts, [500, 0])


def test_sample_outcomes_concentrate_near_expectation():
    state = PureState(np.array([1.0, 1.0]) / math.sqrt(2))
    povm = z_measurement()
    shots = 1_000_000
    counts = sample_outcomes(state, povm, shots, seed=7)
    assert counts.sum() == shots
    # 5 sigma of a fair binomial
    assert abs(counts[0] - shots / 2) < 5 * math.sqrt(shots / 4)


def test_sample_outcomes_seed_reproducible():
    state = PureState(np.array([0.6, 0.8]))
    povm = z_measurement()
    a = sample_outcomes(state, povm, 1000, seed=123)
    b = sample_outcomes(state, povm, 1000, seed=123)
    assert_allclose(a, b)


# ------------------------------------------------------------------------ MLE

def test_mle_recovers_exact_model_counts():
    counts = 1000.0 * binary_model(0.4)
    est = binary_grid_estimate(counts, (0.1, 0.9))
    assert est == pytest.approx(0.4, abs=1e-6)


def test_mle_consistent_for_many_shots():
    gen = mode_number_generator(3)
    counts = sample_outcomes(evolve(noon_state(3), gen.generator, 0.4), optimal_povm(gen), 100_000, seed=5)
    est = noon_grid_estimator((0.1, 0.9))(counts)
    assert abs(est - 0.4) < 0.01


def test_mle_tie_break_takes_smaller_phase():
    # even likelihood in phi: the scan must settle on the left peak
    counts = 1000.0 * binary_model(0.2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = binary_grid_estimate(counts, (-0.5, 0.5))
    assert est == pytest.approx(-0.2, abs=1e-4)


def test_mle_warns_at_interval_boundary():
    counts = 1000.0 * binary_model(0.6)
    with pytest.warns(BoundaryWarning):
        est = binary_grid_estimate(counts, (-0.4, 0.4))
    assert abs(abs(est) - 0.4) < 1e-6
    assert est in (-0.4, 0.4)  # the winning end itself, not a point next to it


@pytest.mark.parametrize("n_plus", [97750, 97766])
def test_mle_inside_the_interval_does_not_warn(n_plus):
    # NOON N = 3 parity, p+ = (1 + cos 3 phi)/2: the root of p+ = n+/n lies under half a grid step
    # above 0.1, so the grid argmax is the end point, but the refined estimate is inside the interval
    root = math.acos(2 * n_plus / 10**5 - 1) / 3
    assert 0.1 < root < 0.1 + 0.4 / (GRID_POINTS - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = noon_grid_estimator((0.1, 0.9))([n_plus, 10**5 - n_plus])
    assert est == pytest.approx(root, abs=REFINE_TOL)



def test_mle_estimate_on_a_model_callable_finds_the_root():
    # cos^2 phi = 0.9 at phi = arccos(sqrt 0.9), inside the interval
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = mle_estimate([900, 100], binary_model, (0.1, 0.9))
    assert est == pytest.approx(math.acos(math.sqrt(0.9)), abs=REFINE_TOL)
    assert est == pytest.approx(binary_grid_estimate([900, 100], (0.1, 0.9)), abs=REFINE_TOL)


def test_mle_estimate_returns_a_winning_end_and_warns():
    # every shot on outcome 1: the likelihood peaks at pi/2, right of the interval
    with pytest.warns(BoundaryWarning):
        assert mle_estimate([0, 100], binary_model, (0.0, 1.0)) == 1.0


def test_mle_estimate_rejects_an_empty_interval():
    with pytest.raises(UsageError):
        mle_estimate([1, 1], binary_model, (0.5, 0.5))


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
    assert a.to_dict()["rng_algorithm"] == RNG_ALGORITHM == "pcg64"


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
    povm = Measurement(optimal_povm(JointGenerator(qubit_base(), 1)).site, n)
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
    povm = Measurement(optimal_povm(JointGenerator(qubit_base(), 1)).site, n)
    return gen, probe, povm


def nondiagonal_case(dim=6, seed=17):
    gen = rng(seed)
    generator = HermitianOperator(random_hermitian(gen, dim))
    probe = PureState(random_state_vector(gen, dim))
    basis = random_unitary(gen, dim)
    povm = Measurement([HermitianOperator(np.outer(basis[:, k], basis[:, k].conj())) for k in range(dim)])
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
        generator, probe, povm = gen.generator, noon_state(3), optimal_povm(gen)
    else:
        generator, probe, povm = nondiagonal_case()
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
    # -delta passes the POVM tolerance, but |0> then gives outcome 0 the probability -delta
    delta = 5e-10
    gen = mode_number_generator(1)
    meas = Measurement([HermitianOperator.from_diagonal([-delta, 1.0]), HermitianOperator.from_diagonal([1.0 + delta, 0.0])])
    with pytest.raises(ValidationError, match="negative outcome probability"):
        _outcome_table(PureState.basis_vector(2, 0), gen.generator, meas, np.linspace(0.0, 1.0, 5))


@pytest.mark.parametrize("case, phi_true", [("noon", 0.12), ("noon", 0.88), ("site-product", 0.7)])
def test_trial_matches_per_trial_mle_estimate(case, phi_true):
    # each estimate against an independent maximizer of its counts' likelihood: scipy's bounded search on
    # the NOON fringe p+ = 1/2 + V cos(3 phi + theta), the closed form on the product probe
    if case == "noon":
        gen = mode_number_generator(3)
        probe, povm = noon_state(3), optimal_povm(gen)
        cfg = TrialConfig(phi_true, 200, 12, 5, povm, (0.1, 0.9))
        z = np.conj(probe.amplitudes[3]) * probe.amplitudes[0]  # conj(<max|psi>) <min|psi>
        oracle = lambda counts: fringe_mle_bounded(3.0, abs(z), np.angle(z), *cfg.search_interval, counts)
    else:
        gen, probe, povm = site_product_case(3)
        cfg = TrialConfig(phi_true, 300, 4, 8, povm, (0.2, 1.2))
        oracle = lambda counts: product_probe_mle(counts, 3, *cfg.search_interval)
    truth = evolve(probe, gen.generator, cfg.phi_true)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", BoundaryWarning)
        res = precision_trial(gen, probe, cfg)
    reference = [
        oracle(sample_outcomes(truth, povm, cfg.shots_per_trial, np.random.SeedSequence(cfg.rng_seed, spawn_key=(t,))))
        for t in range(cfg.n_trials)
    ]
    assert_allclose(res.estimates, reference, rtol=0, atol=REFINE_TOL)
    assert len(caught) == np.isin(res.estimates, cfg.search_interval).sum()  # one warning per estimate on an end
    if case == "noon":
        assert len(caught) > 0  # phi_true next to an edge puts some maxima on it


# ------------------------------------------------------ closed-form fringe

def test_fringe_on_a_rotated_generator_takes_the_grid_path(monkeypatch):
    # the fringe's vectors are no eigenvectors of U H U^dag, so p+ is no cosine in phi there
    closed = count_fringe_estimates(monkeypatch)
    gen = mode_number_generator(3)
    u = random_unitary(rng(21), 4)
    rotated = JointGenerator(HermitianOperator(u @ gen.generator.entries @ u.conj().T), 1)
    probe, povm = noon_state(3), optimal_povm(gen)
    cfg = TrialConfig(0.4, 200, 6, 5, povm, (0.1, 0.9))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryWarning)
        precision_trial(gen, probe, cfg)
        assert len(closed) == cfg.n_trials
        closed.clear()
        res = precision_trial(rotated, probe, cfg)
        assert closed == []
    truth = evolve(probe, rotated.generator, cfg.phi_true)
    x = np.zeros((4, 4))
    x[3, 0] = x[0, 3] = 1.0  # X = |max><min| + h.c. of the unrotated generator
    elements = [(np.eye(4) + x) / 2, (np.eye(4) - x) / 2]
    reference = [
        dense_score_mle(elements, rotated.generator.entries, probe.amplitudes,
                        sample_outcomes(truth, povm, cfg.shots_per_trial, np.random.SeedSequence(5, spawn_key=(t,))),
                        *cfg.search_interval)
        for t in range(cfg.n_trials)
    ]
    assert_allclose(res.estimates, reference, rtol=0, atol=REFINE_TOL)


def test_fringe_estimate_candidates_ties_and_ends():
    # p+ = 1/2 + cos(2 phi)/2: on (0.1, 3.0) the mirror roots of p+ = 0.6 tie and the smaller phase wins
    root = math.acos(0.2) / 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _fringe_estimate(2.0, 0.5, 0.0, 0.1, 3.0, [60, 40]) == pytest.approx(root, abs=1e-15)
        assert _fringe_estimate(2.0, 0.5, 0.0, 0.1, 3.0, [40, 60]) == pytest.approx(math.pi / 2 - root, abs=1e-15)
        assert _fringe_estimate(2.0, 0.5, 0.0, 0.1, 3.0, [0, 40]) == pytest.approx(math.pi / 2, abs=1e-15)
    with pytest.warns(BoundaryWarning):
        assert _fringe_estimate(2.0, 0.5, 0.0, 0.1, 1.5, [40, 0]) == 0.1  # p+ peaks at phi = 0, left of the interval
    # mirror roots near 1.0795 and 2.2356 among six candidates, where one batched likelihood product
    # rounded the two roots' columns apart and the larger phase won
    args = (3.3556834957278125, 0.4462128641578254, 0.7209082426552142, 0.4743080203462817, 2.2747438595404663)
    assert _fringe_estimate(*args, [25607, 49909]) == pytest.approx(1.0795311864136574, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    delta=st.floats(0.5, 12.0),
    vis=st.floats(0.01, 0.49),
    theta=st.floats(-math.pi, math.pi),
    lo=st.floats(-2.0, 2.0),
    width=st.floats(0.01, 0.999),
    n=st.integers(1, 10**4),
    share=st.floats(0.0, 1.0),
)
def test_fringe_estimate_matches_bounded_search(delta, vis, theta, lo, width, n, share):
    # the closed-form candidates against scipy's bounded search on the binomial log-likelihood
    hi = lo + width * 2 * math.pi / delta
    counts = [round(share * n), n - round(share * n)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryWarning)
        est = _fringe_estimate(delta, vis, theta, lo, hi, counts)
    assert abs(est - fringe_mle_bounded(delta, vis, theta, lo, hi, counts)) <= 1e-9


def test_linear_n12_optimal_trial_stays_small():
    # the fringe holds two vectors, so d = 4096 needs no d x d array (one is 128-256 MB)
    tracemalloc.start()
    try:
        gen = build_generator(ProcedureSpec("linear", 12, (0.0, 1.0)))
        probe = optimal_state(gen, 0.5)
        tracemalloc.reset_peak()
        povm = optimal_povm(gen)
        povm_peak = tracemalloc.get_traced_memory()[1]
        res = precision_trial(gen, probe, TrialConfig(0.4, 100, 2, 7, povm, (0.27, 0.52)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert povm_peak < gen.dim**2  # bytes: smaller than any d x d array
    assert peak < 128 * 2**20
    assert np.all(np.abs(res.estimates - 0.4) < 0.05)


# ------------------------------------------------- site-factored measurements

REFERENCE_ATOL = 1e-12


def qubit_optimal_site():
    return optimal_povm(JointGenerator(qubit_base(), 1)).site


def qutrit_optimal_site():
    # (I +/- X)/2 with X = |2><0| + h.c.: eigenvalue 1/2 on |1>, so not projective
    return optimal_povm(JointGenerator(HermitianOperator.from_diagonal([0.0, 0.5, 1.0]), 1)).site


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
    meas = Measurement(site, n)
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
    counts = sample_outcomes(PureState(psi), Measurement(site, n), shots, seed)
    dense = dense_product_probabilities([e.entries for e in site], n, psi)
    reference = np.random.default_rng(seed).multinomial(shots, dense / dense.sum())
    assert counts.tolist() == reference.tolist()


def test_product_measurement_rejects_negative_probability():
    # -delta passes the POVM tolerance but <000|E_0 (x) E_1 (x) E_1|000> = -delta (1 + delta)^2
    delta = 5e-10
    site = [HermitianOperator.from_diagonal([-delta, 1.0]), HermitianOperator.from_diagonal([1.0 + delta, 0.0])]
    meas = Measurement(site, 3)
    probe = PureState.basis_vector(8, 0)
    assert dense_product_probabilities([e.entries for e in site], 3, probe.amplitudes)[3] < -1e-12
    with pytest.raises(ValidationError, match="negative outcome probability"):
        outcome_probabilities(probe, meas)
    gen = build_generator(ProcedureSpec("linear", 3, (0.0, 1.0)))
    with pytest.raises(ValidationError, match="negative outcome probability"):
        _outcome_table(probe, gen.generator, meas, np.linspace(0.0, 1.0, 5))


def test_measurement_dimension_mismatch_is_usage_error():
    meas = Measurement(qubit_optimal_site(), 3)
    with pytest.raises(UsageError):
        outcome_probabilities(PureState.basis_vector(4, 0), meas)
    with pytest.raises(UsageError):
        Measurement(qubit_optimal_site(), 0)
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
    assert calls == [2]  # the three-site measurement; reading the fringe's site validates nothing
    cfg = TrialConfig(0.7, 50, 2, 4, povm, (0.2, 1.2))
    precision_trial(gen, probe, cfg)
    assert calls == [2]


def test_invalid_site_rejected_at_construction():
    with pytest.raises(ValidationError):
        Measurement([HermitianOperator.from_diagonal([0.5, 0.5])], 4)
    assert Measurement(qubit_optimal_site(), 2).n_outcomes == 4


def test_truth_probabilities_are_computed_once_per_run(monkeypatch):
    # every trial's counts are sample_outcomes' on that trial's stream, from one probability evaluation
    import phasebound.estimation as estimation

    calls, seen = [], []
    original_probabilities, original_estimate = estimation.outcome_probabilities, estimation._fringe_estimate
    monkeypatch.setattr(estimation, "outcome_probabilities", lambda *a: calls.append(1) or original_probabilities(*a))
    monkeypatch.setattr(estimation, "_fringe_estimate", lambda *a: seen.append(a[-1]) or original_estimate(*a))
    gen = mode_number_generator(3)
    probe, povm = noon_state(3), optimal_povm(gen)
    cfg = TrialConfig(0.4, 300, 7, 12, povm, (0.1, 0.9))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryWarning)
        precision_trial(gen, probe, cfg)
    assert len(calls) == 1
    truth = evolve(probe, gen.generator, cfg.phi_true)
    for t, counts in enumerate(seen):
        reference = sample_outcomes(truth, povm, cfg.shots_per_trial, np.random.SeedSequence(12, spawn_key=(t,)))
        assert counts.tolist() == reference.tolist()


# --------------------------------------------- reduced site-product fringes

def site_product_povm(spec):
    """The CLI's site-product measurement: the optimal fringe of the default site base on every site."""
    base = HermitianOperator.from_diagonal(base_diagonal(spec))
    return Measurement(optimal_povm(JointGenerator(base, 1)).site, spec.n_systems)


def symmetric_probe(spec, gen, kind):
    """A product_balanced probe, or the two-word optimal_mu probe with mu = 0.3 and relative phase 0.4."""
    if kind == "product":
        base = HermitianOperator.from_diagonal(base_diagonal(spec))
        return product_balanced_state(spec.n_systems, hermitian_eigensystem(base))
    return optimal_state(gen, 0.3, 0.4)


# (spec, probe, search interval): no fringe extremum lies inside any interval
REDUCED_CASES = {
    "product-linear": (ProcedureSpec("linear", 4, (0.0, 1.0)), "product", (0.2, 1.2)),
    "product-qutrit": (ProcedureSpec("linear", 3, (0.0, 1.0), subsystem_dim=3), "product", (0.2, 1.2)),
    "product-negative-base": (ProcedureSpec("linear", 3, (-0.5, 0.7)), "product", (0.2, 1.2)),
    "product-sequential": (ProcedureSpec("sequential-wrapped", 3, (0.0, 1.0), repetitions=2), "product", (0.2, 0.9)),
    "two-word-linear": (ProcedureSpec("linear", 3, (0.0, 1.0)), "two-word", (0.1, 0.9)),
    "two-word-kbody": (ProcedureSpec("kbody", 3, (0.0, 1.0), body_order=2), "two-word", (0.1, 0.9)),
    "two-word-exponential": (ProcedureSpec("exponential", 3, (0.0, 1.0)), "two-word", (0.05, 0.35)),
}


@pytest.mark.parametrize("case", sorted(REDUCED_CASES))
def test_reduced_estimates_match_the_grid_path(monkeypatch, case):
    spec, kind, interval = REDUCED_CASES[case]
    gen = build_generator(spec)
    probe, povm = symmetric_probe(spec, gen, kind), site_product_povm(spec)
    cfg = TrialConfig(sum(interval) / 2, 400, 6, 13, povm, interval)
    grid = _grid_estimator(probe, gen.generator, povm, *interval)
    truth = evolve(probe, gen.generator, cfg.phi_true)
    closed = count_fringe_estimates(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryWarning)
        res = precision_trial(gen, probe, cfg)
        reference = [
            grid(sample_outcomes(truth, povm, cfg.shots_per_trial, np.random.SeedSequence(13, spawn_key=(t,))))
            for t in range(cfg.n_trials)
        ]
    assert len(closed) == cfg.n_trials  # a site-product measurement has no fringe form: each call is a reduced one
    assert_allclose(res.estimates, reference, rtol=0, atol=REFINE_TOL)


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("kind", ["product", "two-word"])
@pytest.mark.parametrize("plus", [0, 1])
def test_reduced_counts_and_fringe_match_the_outcome_words(n, kind, plus):
    # the reduction against an enumeration of the 2^n words, and its fringe against every word's probability
    spec = ProcedureSpec("linear", n, (0.0, 1.0))
    gen = build_generator(spec)
    probe = symmetric_probe(spec, gen, kind)
    site = qubit_optimal_site()[::-1] if plus else qubit_optimal_site()
    (delta, vis, theta), rows = _reduced_fringe(Measurement(site, n), gen, probe)
    counts = rng(n).integers(0, 50, size=2**n)
    n_plus, n_even = site_product_reduced_counts(counts, n, plus)
    shots = int(counts.sum())
    assert (rows @ counts).tolist() == ([n_plus, n * shots - n_plus] if kind == "product" else [n_even, shots - n_even])
    phi = 0.37
    p_plus = 0.5 + vis * math.cos(delta * phi + theta)
    evolved = np.exp(-1j * phi * gen.generator.diagonal) * probe.amplitudes
    words = dense_product_probabilities([e.entries for e in site], n, evolved)
    pluses = np.array([word.count(plus) for word in map(list, np.ndindex(*[2] * n))])
    if kind == "product":  # p(word) = p+^(+ sites) p-^(- sites)
        expected = p_plus**pluses * (1 - p_plus) ** (n - pluses)
    else:  # p(word) = p_even or p_odd, shared by the 2^(n-1) words of that parity
        expected = np.where((n - pluses) % 2 == 0, p_plus, 1 - p_plus) / 2 ** (n - 1)
    assert_allclose(words, expected, rtol=0, atol=1e-14)


def test_a_mirror_tie_goes_to_the_smaller_phase():
    # optimal_mu over linear N = 3: p_even = (1 + cos 3 phi)/2, whose minimum pi/3 lies inside [5/6, 7/6],
    # so the two roots of each count mirror about pi/3 and tie exactly
    spec = ProcedureSpec("linear", 3, (0.0, 1.0))
    gen = build_generator(spec)
    lo, hi = 5 / 6, 7 / 6
    cfg = TrialConfig(1.0, 200, 10, 3, site_product_povm(spec), (lo, hi))
    probe = optimal_state(gen, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryWarning)
        res = precision_trial(gen, probe, cfg)
    truth = evolve(probe, gen.generator, cfg.phi_true)
    mirrored = 0
    for t, estimate in enumerate(res.estimates):
        counts = sample_outcomes(truth, cfg.povm, cfg.shots_per_trial, np.random.SeedSequence(3, spawn_key=(t,)))
        angle = math.acos(2 * site_product_reduced_counts(counts, 3)[1] / cfg.shots_per_trial - 1)
        smaller, larger = angle / 3, (2 * math.pi - angle) / 3
        mirrored += lo <= smaller < larger - 0.01 < hi
        # acos is steep near -1, so an all-odd count lands within REFINE_TOL of pi/3, not at it
        assert estimate == pytest.approx(max(smaller, lo), abs=REFINE_TOL)
    assert mirrored > 0  # two distinct roots inside the interval: an exact tie the smaller phase won


def bloch_site(t):
    """The projective qubit site (I +/- B)/2 with Bloch vector B = (sin t, 0, cos t); (I +/- X)/2 at t = pi/2."""
    b = np.array([[math.cos(t), math.sin(t)], [math.sin(t), -math.cos(t)]])
    return [HermitianOperator((np.eye(2) + b) / 2), HermitianOperator((np.eye(2) - b) / 2)]


REFUSED_CASES = {
    "product-kbody": (ProcedureSpec("kbody", 3, (0.3, 1.0), body_order=2), "product", "site", (0.2, 1.2)),
    "product-exponential": (ProcedureSpec("exponential", 3, (0.0, 1.0)), "product", "site", (0.1, 0.6)),
    "non-product-probe": (ProcedureSpec("linear", 3, (0.0, 1.0)), "random", "site", (0.2, 1.2)),
    "rotated-generator": (ProcedureSpec("linear", 3, (0.0, 1.0)), "product", "site", (0.2, 1.2)),
    "three-outcome-site": (ProcedureSpec("linear", 3, (0.0, 1.0)), "product", "random-3", (0.2, 1.2)),
    # |E+ - E-| peaks on the diagonal, so no two levels are swapped
    "diagonal-peak-site": (ProcedureSpec("linear", 3, (0.0, 1.0)), "product", "bloch-0.5", (0.2, 1.2)),
    # |E+ - E-| peaks off the diagonal, but the elements match (I +/- X)/2 with neither sign
    "tilted-site": (ProcedureSpec("linear", 3, (0.0, 1.0)), "product", "bloch-1.2", (0.2, 1.2)),
}
# the site of each REFUSED_CASES row that is not the CLI's site-product one
REFUSED_SITES = {"random-3": random_three_outcome_site, "bloch-0.5": lambda: bloch_site(0.5),
                 "bloch-1.2": lambda: bloch_site(1.2)}


@pytest.mark.parametrize("case", sorted(REFUSED_CASES))
def test_unreduced_trials_take_the_grid_path(monkeypatch, case):
    # a product probe on kbody or exponential does not factor, since the evolution entangles the sites
    spec, kind, site, interval = REFUSED_CASES[case]
    if case == "rotated-generator":
        u = random_unitary(rng(4), 2)
        gen = build_generator(spec, HermitianOperator(u @ np.diag(base_diagonal(spec)) @ u.conj().T))
        assert not gen.generator.is_diagonal
    else:
        gen = build_generator(spec)
    probe = PureState(random_state_vector(rng(6), gen.dim)) if kind == "random" else symmetric_probe(spec, gen, kind)
    povm = site_product_povm(spec) if site == "site" else Measurement(REFUSED_SITES[site](), 3)
    assert _reduced_fringe(povm, gen, probe) is None
    closed = count_fringe_estimates(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryWarning)
        res = precision_trial(gen, probe, TrialConfig(sum(interval) / 2, 100, 2, 9, povm, interval))
    assert closed == [] and res.estimates.shape == (2,)

