import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import phasebound.metrology as metrology
from phasebound.errors import NumericalIntegrityError, UsageError, ValidationError
from phasebound.estimation import optimal_povm
from phasebound.metrology import (
    NO_SENSITIVITY,
    Measurement,
    build_report,
    classical_fisher,
    heisenberg_bound_expectation,
    heisenberg_bound_stddev,
    mu_sweep,
    outcome_probabilities,
    query_bound,
    resource_count_shifted,
)
from phasebound.opalg import HermitianOperator, PureState, evolve, hermitian_eigensystem, moments
from phasebound.procedures import JointGenerator, ProcedureSpec, build_generator
from phasebound.states import mode_number_generator, noon_state, optimal_state, product_balanced_state
from util import (
    count_measurement_builds,
    fringe_fisher,
    fringe_pair,
    kron_all,
    moments_by_eigensystem,
    parity_pair_probabilities,
    random_hermitian,
    random_state_vector,
    random_unitary,
    rng,
)


def noon_setup(n=3):
    gen = mode_number_generator(n)
    state = noon_state(n)
    parity = np.zeros((n + 1, n + 1), dtype=complex)
    parity[n, 0] = parity[0, n] = 1.0
    return gen, state, HermitianOperator(parity)


def noon_parity_povm(n=3):
    _, _, x = noon_setup(n)
    eye = np.eye(n + 1)
    return Measurement((HermitianOperator((eye + x.entries) / 2), HermitianOperator((eye - x.entries) / 2)))


# ------------------------------------------------------------- resource counts

def test_shifted_count_balanced_linear():
    gen = build_generator(ProcedureSpec("linear", 3, (0.0, 1.0)))
    state = optimal_state(gen, 0.5)
    assert resource_count_shifted(state, gen) == pytest.approx(1.5, abs=1e-10)


def test_shifted_count_ground_state_is_zero():
    gen = build_generator(ProcedureSpec("linear", 2, (0.0, 1.0)))
    state = PureState.basis_vector(4, 0)
    assert resource_count_shifted(state, gen) == pytest.approx(0.0, abs=1e-12)


# -------------------------------------------------------------------- bounds

def test_heisenberg_bound_values():
    assert heisenberg_bound_expectation(1.5) == pytest.approx(1 / 3)
    assert heisenberg_bound_expectation(4.0) == pytest.approx(0.125)
    assert heisenberg_bound_stddev(0.5) == pytest.approx(1.0)
    # doubling the resource halves the bound
    assert heisenberg_bound_expectation(3.0) == pytest.approx(heisenberg_bound_expectation(1.5) / 2)


def test_heisenberg_bound_zero_resource_sentinel():
    assert heisenberg_bound_expectation(0.0) == NO_SENSITIVITY
    assert heisenberg_bound_stddev(5e-13) == NO_SENSITIVITY


def test_heisenberg_bound_rejects_negative():
    with pytest.raises(UsageError):
        heisenberg_bound_expectation(-0.5)


def test_query_bound_values():
    assert query_bound(3, 0.0, 1.0, 1) == pytest.approx(1 / 3)
    assert query_bound(3, 0.0, 1.0, 2) == pytest.approx(1 / 3)  # c_2 = 1 for a (0,1) base
    assert query_bound(10, 0.0, 2.0, 2) == pytest.approx(1 / 40)
    with pytest.raises(ValidationError):
        query_bound(2, 1.0, 1.0, 1)


def test_qfi_balanced_superposition():
    gen = build_generator(ProcedureSpec("linear", 3, (0.0, 1.0)))
    state = optimal_state(gen, 0.5)
    assert build_report(state, gen).qfi == pytest.approx(9.0, abs=1e-10)


def test_qfi_eigenstate_is_zero():
    gen = build_generator(ProcedureSpec("linear", 2, (0.0, 1.0)))
    assert build_report(PureState.basis_vector(4, 0), gen).qfi == pytest.approx(0.0, abs=1e-12)


def test_qfi_is_four_variances():
    g = rng(51)
    values = np.sort(g.uniform(0.0, 3.0, size=5))
    psi = PureState(random_state_vector(g, 5))
    _, var = moments_by_eigensystem(psi.amplitudes, np.diag(values))
    rep = build_report(psi, JointGenerator(HermitianOperator.from_diagonal(values), None))
    assert rep.qfi == pytest.approx(4.0 * var, abs=1e-12)


# ---------------------------------------------------------------- measurement

def test_validate_povm_accepts_parity_pair():
    assert Measurement(noon_parity_povm().site).n_outcomes == 2


def test_validate_povm_rejects_incomplete():
    e = HermitianOperator.from_diagonal([0.5, 0.5])
    with pytest.raises(ValidationError, match="does not sum to identity"):
        Measurement((e,))


def test_validate_povm_rejects_negative_element():
    up = HermitianOperator.from_diagonal([1.5, 0.0])
    down = HermitianOperator.from_diagonal([-0.5, 1.0])
    with pytest.raises(ValidationError, match="negative eigenvalue"):
        Measurement((up, down))


def test_outcome_probabilities_cosine_law():
    gen, state, _ = noon_setup(3)
    povm = noon_parity_povm(3)
    for phi in (0.0, 0.3, 1.0):
        probs = outcome_probabilities(evolve(state, gen.generator, phi), povm)
        assert_allclose(probs, [(1 + math.cos(3 * phi)) / 2, (1 - math.cos(3 * phi)) / 2], atol=1e-12)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_classical_fisher_noon_parity():
    gen, state, _ = noon_setup(3)
    povm = noon_parity_povm(3)
    assert classical_fisher(povm, state, gen.generator, 0.4) == pytest.approx(9.0, rel=1e-12)


def test_classical_fisher_blind_measurement_is_zero():
    gen, state, _ = noon_setup(2)
    povm = Measurement((
        HermitianOperator.from_diagonal([0.5, 0.5, 0.5]),
        HermitianOperator.from_diagonal([0.5, 0.5, 0.5]),
    ))
    assert classical_fisher(povm, state, gen.generator, 0.3) == pytest.approx(0.0, abs=1e-8)


def test_classical_fisher_never_beats_qfi():
    g = rng(52)
    for _ in range(100):
        dim = int(g.integers(2, 5))
        op = HermitianOperator.from_diagonal(np.sort(g.uniform(0.0, 2.0, size=dim)))
        psi = PureState(random_state_vector(g, dim))
        u = random_unitary(g, dim)
        probs = g.uniform(0.0, 1.0, size=dim)
        e1 = u @ np.diag(probs) @ u.conj().T
        povm = Measurement((
            HermitianOperator(e1),
            HermitianOperator(np.eye(dim) - e1),
        ))
        f = classical_fisher(povm, psi, op, 0.7)
        q = 4.0 * moments(psi, op)[1]
        assert f <= q + 1e-6


def qubit_optimal_site():
    return [e.entries for e in fringe_pair(optimal_povm(build_generator(ProcedureSpec("linear", 1, (0.0, 1.0)))))]


def qutrit_parity_site():
    x = np.zeros((3, 3))
    x[0, 2] = x[2, 0] = 1.0
    return [(np.eye(3) + x) / 2, (np.eye(3) - x) / 2]


def random_qubit_povm(g, outcomes=3):
    # full-rank positive parts normalized by S^(-1/2); the elements do not commute
    z = g.normal(size=(outcomes, 2, 2)) + 1j * g.normal(size=(outcomes, 2, 2))
    parts = [m @ m.conj().T + 0.1 * np.eye(2) for m in z]
    w, v = np.linalg.eigh(sum(parts))
    root = (v / np.sqrt(w)) @ v.conj().T
    return [root @ p @ root for p in parts]


SITES = {
    "qubit-optimal": lambda g: qubit_optimal_site(),
    "qutrit-parity": lambda g: qutrit_parity_site(),
    "qubit-random-3": random_qubit_povm,
}


def dense_derivative_oracle(site_mats, n, amplitudes, h):
    """p_k and 2 Re<psi|E_k|-i H psi> with every E_k an explicit kron chain."""
    tangent = -1j * h @ amplitudes
    p, dp = [], []
    for word in itertools.product(range(len(site_mats)), repeat=n):
        element = kron_all([site_mats[k] for k in word])
        p.append(np.vdot(amplitudes, element @ amplitudes).real)
        dp.append(2 * np.vdot(amplitudes, element @ tangent).real)
    return np.array(p), np.array(dp)


def derivative_case(site, n, form, seed):
    g = rng(seed)
    site_mats = [np.asarray(e, dtype=complex) for e in SITES[site](g)]
    dim = site_mats[0].shape[0] ** n
    if form == "diagonal":
        gen = HermitianOperator.from_diagonal(g.uniform(-1.0, 2.0, size=dim))
    else:
        gen = HermitianOperator(random_hermitian(g, dim))
    state = PureState(random_state_vector(g, dim))
    psi = scipy.linalg.expm(-0.37j * gen.entries) @ state.amplitudes
    measurement = Measurement([HermitianOperator(m) for m in site_mats], n)
    return measurement, state, gen, dense_derivative_oracle(site_mats, n, psi, gen.entries)


@pytest.mark.parametrize("form", ["diagonal", "dense"])
@pytest.mark.parametrize("site", list(SITES))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_classical_fisher_matches_dense_element_oracle(n, site, form):
    measurement, state, gen, (p, dp) = derivative_case(site, n, form, seed=60 + n)
    keep = p >= 1e-12
    expected = np.sum(dp[keep] ** 2 / p[keep])
    assert classical_fisher(measurement, state, gen, 0.37) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("site", list(SITES))
def test_classical_fisher_takes_the_signed_phase_derivative(monkeypatch, site):
    # F is even in dp/dphi, so check the derivative it forms, sign included
    measurement, state, gen, (_, dp) = derivative_case(site, 2, "dense", seed=71)
    seen = []
    kernel = Measurement._derivative

    def spy(self, psi, tangent):
        seen.append(kernel(self, psi, tangent))
        return seen[-1]

    monkeypatch.setattr(Measurement, "_derivative", spy)
    classical_fisher(measurement, state, gen, 0.37)
    assert_allclose(seen[0], dp, rtol=0, atol=1e-12)


# ---------------------------------------------------------------- fringe form

def fringe_case(seed, dim, form):
    """A random generator, its extreme eigenvectors and Delta = h_max - h_min.

    A diagonal generator's extreme eigenvectors are read off its values.  A
    dense one's carry an arbitrary phase that X depends on, so they come from
    the ``eigh`` call the package makes, on the same matrix.
    """
    g = rng(seed)
    if form == "diagonal":
        values = g.normal(size=dim)
        generator = HermitianOperator.from_diagonal(values)
        eye = np.eye(dim)
        vec_max, vec_min, delta = eye[np.argmax(values)], eye[np.argmin(values)], values.max() - values.min()
    else:
        generator = HermitianOperator(random_hermitian(g, dim))
        w, v = np.linalg.eigh(generator.entries)
        vec_max, vec_min, delta = v[:, -1], v[:, 0], w[-1] - w[0]
    return JointGenerator(generator, 1), vec_max, vec_min, delta, g


FRINGE_CASES = dict(seed=st.integers(0, 10**6), dim=st.integers(2, 40), form=st.sampled_from(["diagonal", "dense"]))


@settings(max_examples=60, deadline=None)
@given(**FRINGE_CASES)
def test_fringe_probabilities_match_dense_parity_pair(seed, dim, form):
    gen, vec_max, vec_min, _, g = fringe_case(seed, dim, form)
    povm = optimal_povm(gen)
    batch = np.array([random_state_vector(g, dim) for _ in range(3)])
    expected = parity_pair_probabilities(vec_max, vec_min, batch)
    assert_allclose(povm.probabilities(batch), expected, rtol=0, atol=1e-12)
    assert_allclose(outcome_probabilities(PureState(batch[0]), povm), expected[0], rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(**FRINGE_CASES, phi=st.floats(-3.0, 3.0))
def test_fringe_fisher_matches_closed_form(seed, dim, form, phi):
    gen, vec_max, vec_min, delta, g = fringe_case(seed, dim, form)
    probe = PureState(random_state_vector(g, dim))
    expected = fringe_fisher(delta, vec_max, vec_min, probe.amplitudes, phi)
    assert abs(classical_fisher(optimal_povm(gen), probe, gen.generator, phi) - expected) <= 1e-10 * expected


def test_fringe_has_no_site_elements(monkeypatch):
    calls = count_measurement_builds(monkeypatch)
    gen, vec_max, vec_min, _, g = fringe_case(5, 6, "dense")
    povm = optimal_povm(gen)
    assert povm.site == () and povm.site is povm.site  # nothing is built on a read
    assert calls == []
    pair = fringe_pair(povm)
    cross = np.outer(vec_max, vec_min.conj())
    x, eye = cross + cross.conj().T, np.eye(6)
    assert_allclose([e.entries for e in pair], [(eye + x) / 2, (eye - x) / 2], rtol=0, atol=1e-12)
    for psi in (random_state_vector(g, 6), np.stack([random_state_vector(g, 6) for _ in range(3)])):
        dense = np.einsum("...i,kij,...j->...k", psi.conj(), np.array([e.entries for e in pair]), psi).real
        assert_allclose(povm.probabilities(psi), dense, rtol=0, atol=1e-12)
        assert_allclose(dense, parity_pair_probabilities(vec_max, vec_min, psi), rtol=0, atol=1e-12)


def test_fringe_vectors_must_be_orthonormal():
    eye = np.eye(3)
    for vec_max, vec_min in ((eye[0], eye[0]), (2 * eye[0], eye[1]), (eye[0], (eye[0] + eye[1]) / math.sqrt(2))):
        with pytest.raises(ValidationError, match="not orthonormal"):
            Measurement._of_fringe(vec_max, vec_min)


# ------------------------------------------------------- measurement boundary

@pytest.mark.parametrize("form", [list, tuple])
def test_raw_element_list_is_refused(form):
    gen, state, _ = noon_setup(3)
    elements = form(noon_parity_povm(3).site)
    with pytest.raises(UsageError, match="must be a Measurement"):
        outcome_probabilities(state, elements)
    with pytest.raises(UsageError, match="must be a Measurement"):
        classical_fisher(elements, state, gen.generator, 0.4)


# ------------------------------------------------------------------- reports

def test_report_balanced_linear_three_qubits():
    spec = ProcedureSpec("linear", 3, (0.0, 1.0))
    gen = build_generator(spec)
    rep = build_report(optimal_state(gen, 0.5), gen, spec)
    assert rep.q == 3
    assert rep.expectation_shifted == pytest.approx(1.5, abs=1e-10)
    assert rep.stddev == pytest.approx(1.5, abs=1e-10)
    assert rep.seminorm == pytest.approx(3.0)
    assert rep.bound_new_hl == pytest.approx(1 / 3, abs=1e-10)
    assert rep.bound_stddev == pytest.approx(1 / 3, abs=1e-10)
    assert rep.bound_query == pytest.approx(1 / 3, abs=1e-12)
    assert rep.bound_snl == pytest.approx(1 / (2 * math.sqrt(3) * 0.5), abs=1e-10)
    assert rep.qfi == pytest.approx(9.0, abs=1e-8)


def test_report_without_procedure_omits_query_fields():
    gen = mode_number_generator(3)
    rep = build_report(noon_state(3), gen)
    assert rep.bound_query is None
    assert rep.bound_snl is None
    d = rep.to_dict()
    assert "bound_query" not in d and "bound_snl" not in d and "q" in d


def test_report_no_sensitivity_for_flat_probe():
    gen = build_generator(ProcedureSpec("linear", 2, (0.0, 1.0)))
    rep = build_report(PureState.basis_vector(4, 0), gen)
    assert rep.bound_new_hl == NO_SENSITIVITY
    assert rep.bound_stddev == NO_SENSITIVITY


def test_report_rejects_negative_fields():
    from phasebound.metrology import ResourceReport

    with pytest.raises(ValidationError):
        ResourceReport(
            expectation_raw=1.0,
            expectation_shifted=-1.0,
            stddev=0.5,
            seminorm=2.0,
            bound_new_hl=0.5,
            bound_stddev=1.0,
            qfi=1.0,
        )


def test_kbody_report_uses_order_for_query_bound():
    spec = ProcedureSpec("kbody", 4, (0.0, 2.0), body_order=2)
    gen = build_generator(spec)
    rep = build_report(optimal_state(gen, 0.5), gen, spec)
    # c_2 = 1/(2^2 - 0^2) = 1/4 over C(4,2) queries
    assert rep.bound_query == pytest.approx(1 / 24, abs=1e-12)


def test_exponential_report_query_bound_matches_seminorm():
    spec = ProcedureSpec("exponential", 3, (0.0, 1.0))
    gen = build_generator(spec)
    rep = build_report(optimal_state(gen, 0.5), gen, spec)
    assert rep.bound_query == pytest.approx(1.0 / gen.seminorm, abs=1e-12)
    assert rep.bound_new_hl == pytest.approx(rep.bound_query, abs=1e-10)


def test_report_computes_moments_once(monkeypatch):
    spec = ProcedureSpec("kbody", 3, (0.1, 0.7), body_order=2)
    gen = build_generator(spec)
    state = evolve(optimal_state(gen, 0.3), gen.generator, 0.7)
    before = build_report(state, gen, spec)
    calls = []
    monkeypatch.setattr(metrology, "moments", lambda *args: calls.append(args) or moments(*args))
    after = build_report(state, gen, spec)
    assert len(calls) == 1
    assert after.to_dict() == before.to_dict()
    assert after.expectation_shifted == resource_count_shifted(state, gen)


def test_shifted_expectation_below_the_ground_state_is_an_integrity_error():
    # a generator whose stated ground state sits above the probe's expectation
    op = HermitianOperator.from_diagonal([0.0, 1.0])
    gen = SimpleNamespace(generator=op, dim=2, h_min=0.5, seminorm=0.5, query_complexity=None)
    state = PureState.basis_vector(2, 0)
    with pytest.raises(NumericalIntegrityError, match="below the ground state"):
        resource_count_shifted(state, gen)
    with pytest.raises(NumericalIntegrityError, match="below the ground state"):
        build_report(state, gen)


@pytest.mark.parametrize("base", [(0.0, 1.0), (-0.5, 1.0)])
def test_single_order_exponential_report_is_the_linear_one(base):
    # at N = 1 exponential adds e_1 only, so its query bound is c_1 / Q, as for linear
    reports = []
    for kind in ("linear", "exponential"):
        spec = ProcedureSpec(kind, 1, base)
        gen = build_generator(spec)
        reports.append(build_report(optimal_state(gen, 0.5), gen, spec).to_dict())
    assert reports[1]["bound_query"] == reports[0]["bound_query"] == 1.0 / (base[1] - base[0])
    reports[0].pop("bound_snl")
    assert reports[1] == reports[0]


# ------------------------------------------------------------------ mu sweeps

def test_mu_sweep_endpoints_and_crossing():
    gen = build_generator(ProcedureSpec("linear", 1, (0.0, 1.0)))
    rows = mu_sweep(gen, np.linspace(0.0, 1.0, 11))
    assert len(rows) == 11
    mus = [r[0] for r in rows]
    assert mus[0] == 0.0 and mus[-1] == 1.0
    for mu, shifted, stddev in rows:
        assert shifted == pytest.approx(mu * 1.0, abs=1e-10)
        assert stddev == pytest.approx(math.sqrt(mu * (1 - mu)), abs=1e-10)
    # the two counts agree at mu = 1/2 and nowhere else except the trivial origin
    for mu, shifted, stddev in rows:
        if mu in (0.0, 0.5):
            assert abs(shifted - stddev) < 1e-10
        else:
            assert abs(shifted - stddev) > 1e-3
    with pytest.raises(ValidationError, match=r"^mu must lie in \[0, 1\], got 1.5$"):
        mu_sweep(gen, [0.5, 1.5])


@pytest.mark.parametrize("n", range(2, 13))
def test_exponential_product_probe_counts_match_closed_forms(n):
    # x_j is 0 or 1 with weight 1/2 on each site, and H = prod(1 + x_j) - 1, so
    # <H - h_min> = (3/2)^N - 1 and Var H = (5/2)^N - (9/4)^N
    spec = ProcedureSpec("exponential", n, (0.0, 1.0))
    probe = product_balanced_state(n, hermitian_eigensystem(HermitianOperator.from_diagonal([0.0, 1.0])))
    report = build_report(probe, build_generator(spec), spec)
    shifted = 1.5**n - 1
    assert abs(report.expectation_shifted - shifted) <= 1e-12 * shifted
    assert abs(report.stddev**2 - (2.5**n - 2.25**n)) <= 1e-12 * (2.5**n - 2.25**n)
    # the spread exceeds the paper's count from N = 6 on (Var H <= (h_max - <H>)(<H> - h_min) allows it)
    assert (report.stddev > report.expectation_shifted) == (n >= 6)


def test_bound_new_hl_strictly_decreasing_in_mu():
    gen = build_generator(ProcedureSpec("linear", 3, (0.0, 1.0)))
    values = []
    for mu in np.linspace(0.1, 1.0, 10):
        state = optimal_state(gen, float(mu))
        values.append(heisenberg_bound_expectation(resource_count_shifted(state, gen)))
    assert all(b < a for a, b in zip(values, values[1:]))
