import time
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import phasebound.networks as networks
from phasebound.errors import StepSizeError, UsageError, ValidationError
from phasebound.networks import (
    DEFAULT_FD_STEP,
    MAX_FD_STEP_SCALE,
    BlackBox,
    QuantumNetwork,
    generator_analytic,
    generator_numeric,
    network_unitary,
    query_count,
)
from phasebound.opalg import HermitianOperator, _apply_on_sites, hermitian_eigensystem
from phasebound.procedures import from_network
from util import kron_all, kron_embedding, random_hermitian, random_unitary, rng

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def qubit_box(values, targets=(0,)):
    return BlackBox(HermitianOperator.from_diagonal(values), targets)


def single_box_net(values=(0.0, 1.0)):
    return QuantumNetwork(1, 2, (I2, qubit_box(values), I2))


def bitflip_net():
    return QuantumNetwork(1, 2, (I2, qubit_box((0.0, 1.0)), X, qubit_box((0.0, 1.0)), I2))


def random_net(g, n_boxes, base_scale=2.0):
    """Two qubits, Haar interleavers, random nonnegative diagonal bases."""
    layers = [random_unitary(g, 4)]
    for _ in range(n_boxes):
        base = qubit_box(np.sort(g.uniform(0.0, base_scale, size=2)), (int(g.integers(0, 2)),))
        layers.extend([base, random_unitary(g, 4)])
    return QuantumNetwork(2, 2, tuple(layers))


def mixed_net(g, n, d, targets):
    """Haar interleavers and random non-diagonal bases on the given target tuples."""
    layers = [random_unitary(g, d**n)]
    for sites in targets:
        base = HermitianOperator(random_hermitian(g, d ** len(sites)))
        layers.extend([BlackBox(base, sites), random_unitary(g, d**n)])
    return QuantumNetwork(n, d, tuple(layers))


MIXED_TARGETS = [(1,), (2, 0), (0, 1), (2,), (1, 2)]


def dense_box(net, box):
    return kron_embedding(box.base_generator.entries, box.target_subsystems, net.n_subsystems, net.subsystem_dim)


# ------------------------------------------------------------------ black box

def test_blackbox_shifts_negative_spectrum():
    box = BlackBox(HermitianOperator.from_diagonal([-1.0, 1.0]), (0,))
    assert box.shift == pytest.approx(1.0)
    assert_allclose(np.diagonal(box.base_generator.entries).real, [0.0, 2.0])


def test_blackbox_keeps_nonnegative_spectrum():
    box = qubit_box((0.0, 1.5))
    assert box.shift == 0.0
    assert_allclose(np.diagonal(box.base_generator.entries).real, [0.0, 1.5])


def test_blackbox_order_defaults_to_target_count():
    box = BlackBox(HermitianOperator.identity(4), (0, 1))
    assert box.order == 2
    with pytest.raises(AttributeError):
        box.order = 3
    with pytest.raises(TypeError):
        BlackBox(HermitianOperator.identity(4), (0, 1), order=2)


def test_blackbox_rejects_duplicate_targets():
    with pytest.raises(ValidationError):
        BlackBox(HermitianOperator.identity(4), (1, 1))


@pytest.mark.parametrize("targets", [(0.7,), (True,), ("0",), 0])
def test_blackbox_rejects_non_integer_target(targets):
    with pytest.raises(ValidationError):
        BlackBox(HermitianOperator.identity(2), targets)


def test_blackbox_accepts_numpy_integer_target():
    targets = BlackBox(HermitianOperator.identity(2), (np.int64(1),)).target_subsystems
    assert targets == (1,) and type(targets[0]) is int


def test_network_rejects_box_with_wrong_generator_dim():
    box = BlackBox(HermitianOperator.identity(2), (0, 1))
    with pytest.raises(ValidationError):
        QuantumNetwork(2, 2, (np.eye(4), box, np.eye(4)))


# ------------------------------------------------------------------- network

def test_network_layer_count_must_be_odd():
    with pytest.raises(ValidationError):
        QuantumNetwork(1, 2, (I2, qubit_box((0.0, 1.0))))


def test_network_rejects_non_unitary_layer():
    with pytest.raises(ValidationError):
        QuantumNetwork(1, 2, (np.diag([1.0, 2.0]), qubit_box((0.0, 1.0)), I2))


def test_network_rejects_nan_fixed_unitary():
    v = np.eye(2, dtype=complex)
    v[0, 1] = np.nan
    with pytest.raises(ValidationError):
        QuantumNetwork(1, 2, (v, qubit_box((0.0, 1.0)), I2))


def test_network_copies_and_freezes_fixed_unitaries():
    v = I2.copy()
    net = QuantumNetwork(1, 2, (v, qubit_box((0.0, 1.0)), I2))
    before = network_unitary(net, 0.3)
    v[:] = 5
    assert np.array_equal(network_unitary(net, 0.3), before)
    assert not net.layers[0].flags.writeable
    assert v.flags.writeable


@pytest.mark.parametrize(
    "n, d, layers",
    [
        (2.0, 2, (np.eye(4), qubit_box((0.0, 1.0)), np.eye(4))),
        (2, 2.0, (np.eye(4), qubit_box((0.0, 1.0)), np.eye(4))),
        (True, 2, (I2, qubit_box((0.0, 1.0)), I2)),
        (1, True, (np.eye(1), BlackBox(HermitianOperator.identity(1), (0,)), np.eye(1))),
    ],
    ids=["float-count", "float-dim", "bool-count", "bool-dim"],
)
def test_network_rejects_non_integer_sizes(n, d, layers):
    with pytest.raises(ValidationError, match="must be an integer"):
        QuantumNetwork(n, d, layers)


def test_network_accepts_numpy_integer_sizes():
    net = QuantumNetwork(np.int64(1), np.int64(2), (I2, qubit_box((0.0, 1.0)), I2))
    assert type(net.n_subsystems) is int and type(net.subsystem_dim) is int
    assert net.dim == 2


def test_network_rejects_dim_above_cap_before_reading_layers():
    class Unreadable:
        def __array__(self, *args, **kwargs):
            raise AssertionError("layer was read")

    with pytest.raises(ValidationError, match="exceeds the cap"):
        QuantumNetwork(13, 2, (Unreadable(), qubit_box((0.0, 1.0)), Unreadable()))


@pytest.mark.parametrize("n", [10**6, 10**10])
def test_network_refuses_huge_subsystem_count_before_the_power(n):
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="exceeds the cap"):
        QuantumNetwork(n, 2, (I2, qubit_box((0.0, 1.0)), I2))
    assert time.perf_counter() - start < 1.0  # 2**n is never formed
    one = np.eye(1)
    assert QuantumNetwork(n, 1, (one, BlackBox(HermitianOperator.identity(1), (0,)), one)).dim == 1


def test_network_unitarity_check_peaks_at_the_kept_copies():
    # 10 qubits: each kept copy is 16 MB; the check adds row blocks only
    d = 2**10
    dft = np.fft.fft(np.eye(d)) / np.sqrt(d)
    layers = (dft, qubit_box((0.0, 1.0), (3,)), dft.conj().T)
    tracemalloc.start()
    try:
        QuantumNetwork(10, 2, layers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 16 * d * d + (8 << 20)


@pytest.mark.parametrize("phi", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "extract", [network_unitary, generator_analytic, generator_numeric, from_network], ids=lambda f: f.__name__
)
def test_non_finite_phi_is_rejected(extract, phi):
    with pytest.raises(ValidationError):
        extract(bitflip_net(), phi)


def test_network_rejects_box_outside_subsystems():
    with pytest.raises(ValidationError):
        QuantumNetwork(1, 2, (I2, qubit_box((0.0, 1.0), targets=(1,)), I2))


def test_network_rejects_swapped_layer_kinds():
    with pytest.raises(ValidationError):
        QuantumNetwork(1, 2, (qubit_box((0.0, 1.0)), I2, qubit_box((0.0, 1.0))))


def test_query_count():
    assert query_count(single_box_net()) == 1
    assert query_count(bitflip_net()) == 2


# ------------------------------------------------------------------ embedding

def embedded(small, sites, n, d):
    """The site kernel applied to the identity: ``small`` embedded on ``sites``."""
    return _apply_on_sites(np.asarray(small, dtype=complex), sites, np.eye(d**n, dtype=complex), n, d)


def test_embed_single_site_positions():
    g = rng(21)
    a = random_hermitian(g, 2)
    assert_allclose(embedded(a, (0,), 3, 2), kron_all([a, I2, I2]), atol=1e-14)
    assert_allclose(embedded(a, (1,), 3, 2), kron_all([I2, a, I2]), atol=1e-14)
    assert_allclose(embedded(a, (2,), 3, 2), kron_all([I2, I2, a]), atol=1e-14)


def test_embed_pair_ordered_and_permuted():
    g = rng(22)
    a = random_hermitian(g, 2)
    b = random_hermitian(g, 2)
    ab = np.kron(a, b)
    assert_allclose(embedded(ab, (0, 2), 3, 2), kron_all([a, I2, b]), atol=1e-13)
    # swapped targets route each factor to the stated site
    assert_allclose(embedded(ab, (2, 0), 3, 2), kron_all([b, I2, a]), atol=1e-13)
    # an entangling pair operator on swapped targets
    c = random_hermitian(g, 4)
    assert_allclose(embedded(c, (2, 0), 3, 2), kron_embedding(c, (2, 0), 3, 2), atol=1e-13)


def test_embed_qutrit_site():
    g = rng(23)
    a = random_hermitian(g, 3)
    assert_allclose(embedded(a, (1,), 2, 3), np.kron(np.eye(3), a), atol=1e-14)


# ------------------------------------------------------------ box application

@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("sites", [(0,), (4,), (2, 0), (1, 2), (3, 1, 4), (0, 1, 2)])
@pytest.mark.parametrize("columns", [None, 7])
def test_apply_on_sites_matches_kron_embedding(d, sites, columns):
    g = rng(40)
    n = 5
    small = random_hermitian(g, d ** len(sites)) + 1j * random_hermitian(g, d ** len(sites))
    m = random_unitary(g, d**n) if columns is None else g.normal(size=(d**n, columns)) + 0j
    got = _apply_on_sites(small, sites, m, n, d)
    assert got.shape == m.shape
    assert_allclose(got, kron_embedding(small, sites, n, d) @ m, atol=1e-13)


# ------------------------------------------------------------- network unitary

def test_network_unitary_single_box_diagonal():
    u = network_unitary(single_box_net(), 0.8)
    assert_allclose(u, np.diag([1.0, np.exp(-0.8j)]), atol=1e-12)


def test_network_unitary_zero_angle_composes_fixed_layers():
    g = rng(24)
    v0, v1 = random_unitary(g, 4), random_unitary(g, 4)
    net = QuantumNetwork(2, 2, (v0, qubit_box((0.0, 1.0)), v1))
    assert_allclose(network_unitary(net, 0.0), v1 @ v0, atol=1e-12)


def test_network_unitary_bitflip_hand_product():
    phi = np.pi / 2
    o = np.diag([1.0, np.exp(-1j * phi)])
    assert_allclose(network_unitary(bitflip_net(), phi), o @ X @ o, atol=1e-12)


def test_network_unitary_matches_expm_oracle():
    g = rng(25)
    net = random_net(g, 3)
    phi = 0.7
    expected = np.asarray(net.layers[0])
    for k, layer in enumerate(net.layers[1:], start=1):
        if k % 2 == 1:
            h = kron_embedding(layer.base_generator.entries, layer.target_subsystems, 2, 2)
            expected = scipy.linalg.expm(-1j * phi * h) @ expected
        else:
            expected = np.asarray(layer) @ expected
    assert_allclose(network_unitary(net, phi), expected, atol=1e-11)


@pytest.mark.parametrize(
    "n, d, targets, phi", [(3, 2, MIXED_TARGETS, 0.9), (2, 3, [(1, 0), (0,)], -0.4)], ids=["qubits", "qutrits"]
)
def test_network_unitary_matches_expm_oracle_with_pair_boxes(n, d, targets, phi):
    net = mixed_net(rng(42), n, d, targets)
    expected = net.layers[0]
    for box, v in zip(net.boxes, net.layers[2::2]):
        expected = v @ scipy.linalg.expm(-1j * phi * dense_box(net, box)) @ expected
    assert_allclose(network_unitary(net, phi), expected, atol=1e-11)


def test_network_unitary_is_unitary():
    g = rng(26)
    net = random_net(g, 4)
    u = network_unitary(net, 1.3)
    assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-11)


# ------------------------------------------------------- numeric differentiation

def test_generator_numeric_single_box_recovers_base():
    gen = generator_numeric(single_box_net((0.0, 1.0)), 0.5)
    assert_allclose(gen.entries, np.diag([0.0, 1.0]), atol=1e-9)


def test_generator_numeric_bitflip_gives_identity():
    for phi in (0.0, 0.3, 1.2):
        gen = generator_numeric(bitflip_net(), phi)
        assert_allclose(gen.entries, I2, atol=1e-9)


def test_generator_numeric_two_site_sum():
    # two commuting boxes: joint diagonal counts excited sites
    net = QuantumNetwork(
        2, 2, (np.eye(4), qubit_box((0.0, 1.0), (0,)), np.eye(4), qubit_box((0.0, 1.0), (1,)), np.eye(4))
    )
    gen = generator_numeric(net, 0.9)
    assert_allclose(gen.entries, np.diag([0.0, 1.0, 1.0, 2.0]), atol=1e-9)


def test_generator_numeric_step_validation():
    net = single_box_net()
    with pytest.raises(UsageError):
        generator_numeric(net, 0.1, eps=0.0)
    with pytest.raises(UsageError):
        generator_numeric(net, 0.1, eps=2e-3)


@pytest.mark.parametrize("eps", [DEFAULT_FD_STEP, 1.01e-9])
def test_generator_numeric_refuses_a_step_it_cannot_resolve(monkeypatch, eps):
    # at lambda = 1e6 the default step errs by about 5e5; nothing is composed before the refusal
    phis = []
    monkeypatch.setattr(networks, "network_unitary", lambda net_, phi: phis.append(phi))
    with pytest.raises(StepSizeError, match="exceeds 0.001"):
        generator_numeric(single_box_net((0.0, 1e6)), 0.3, eps=eps)
    assert phis == []


def test_generator_numeric_accepts_a_step_at_its_bound():
    lam = 1e3
    gen = generator_numeric(single_box_net((0.0, lam)), 0.3, eps=MAX_FD_STEP_SCALE / lam)
    assert_allclose(gen.entries, np.diag([0.0, lam]), atol=1e-6 * lam)


def test_generator_numeric_flags_inconsistent_unitaries(monkeypatch):
    net = single_box_net()
    g = rng(27)
    true_unitary = networks.network_unitary

    def noisy(net_, phi):
        return true_unitary(net_, phi) + 1e-7 * g.normal(size=(2, 2))

    monkeypatch.setattr(networks, "network_unitary", noisy)
    with pytest.raises(StepSizeError):
        generator_numeric(net, 0.4)


def test_generator_numeric_composes_only_at_phi_plus_and_minus_eps(monkeypatch):
    net = mixed_net(rng(31), 3, 2, [(1,), (2, 0)])
    phis = []
    true_unitary = networks.network_unitary

    def counted(net_, phi):
        phis.append(phi)
        return true_unitary(net_, phi)

    monkeypatch.setattr(networks, "network_unitary", counted)
    phi, eps = 0.7, 1e-5
    generator_numeric(net, phi, eps=eps)
    assert sorted(phis) == [phi - eps, phi + eps]
    generator_numeric(net, phi)
    assert len(phis) == 4 and phi not in phis


def test_generator_numeric_matches_analytic_on_non_diagonal_three_qubit_nets():
    g = rng(32)
    pairs = [(0, 1), (1, 2), (2, 0), (0, 2)]
    for _ in range(12):
        targets = [
            (int(g.integers(0, 3)),) if g.random() < 0.5 else pairs[int(g.integers(0, 4))]
            for _ in range(int(g.integers(1, 5)))
        ]
        net = mixed_net(g, 3, 2, targets)
        phi = float(g.uniform(-2.0, 2.0))
        ana, _ = generator_analytic(net, phi)
        num = generator_numeric(net, phi)
        assert np.max(np.abs(ana.entries - num.entries)) < 1e-8 * networks._generator_scale(net)


# ------------------------------------------------------------ analytic extraction

def test_generator_analytic_single_box():
    gen, terms = generator_analytic(single_box_net((0.0, 1.5)), 0.3)
    assert len(list(terms)) == 1
    assert_allclose(gen.entries, np.diag([0.0, 1.5]), atol=1e-12)


def test_generator_analytic_bitflip_identity():
    gen, terms = generator_analytic(bitflip_net(), 0.6)
    terms = list(terms)
    assert len(terms) == 2
    assert_allclose(gen.entries, I2, atol=1e-12)
    # the two conjugated copies split the identity
    assert_allclose(terms[0].entries + terms[1].entries, I2, atol=1e-12)


def test_generator_analytic_three_site_linear():
    layers = [np.eye(8)]
    for site in range(3):
        layers.extend([qubit_box((0.0, 1.0), (site,)), np.eye(8)])
    net = QuantumNetwork(3, 2, tuple(layers))
    gen, terms = generator_analytic(net, 0.4)
    terms = list(terms)
    assert len(terms) == 3
    for site, term in enumerate(terms):
        assert_allclose(term.entries, kron_embedding(np.diag([0.0, 1.0]), (site,), 3, 2), atol=1e-12)
    weights = [bin(i).count("1") for i in range(8)]
    assert_allclose(gen.entries, np.diag(np.array(weights, dtype=float)), atol=1e-12)


def dense_term(net, phi, j):
    """Term j + 1, W H W^dag, with W = V_Q O_Q ... O_{j+2} V_{j+1}, every layer after box j + 1, built densely."""
    w = np.eye(net.dim, dtype=complex)
    for k, layer in enumerate(net.layers[2 * j + 2:], start=2 * j + 2):
        step = layer if k % 2 == 0 else scipy.linalg.expm(-1j * phi * dense_box(net, layer))
        w = step @ w
    return w @ dense_box(net, net.boxes[j]) @ w.conj().T


def test_generator_analytic_terms_match_dense_conjugation():
    g = rng(44)
    net = mixed_net(g, 3, 2, MIXED_TARGETS)
    phi = 0.35
    gen, terms = generator_analytic(net, phi)
    expected_total = np.zeros((8, 8), dtype=complex)
    for j, term in enumerate(terms):
        expected = dense_term(net, phi, j)
        assert_allclose(term.entries, expected, atol=1e-12)
        expected_total += expected
    assert j == query_count(net) - 1
    assert_allclose(gen.entries, expected_total, atol=1e-12)


@pytest.mark.parametrize("targets", [[(0,)], [(1,), (2, 0)], MIXED_TARGETS], ids=len)
def test_generator_analytic_applies_each_box_twice_but_the_first_once(monkeypatch, targets):
    # box j forms H_j W_j^dag and, for j > 1, O_j^dag W_j^dag; no term reads V_0^dag O_1^dag W_1^dag
    net = mixed_net(rng(45), 3, 2, targets)
    calls = []
    kernel = networks._apply_on_sites

    def counted(*args):
        calls.append(args[1])
        return kernel(*args)

    monkeypatch.setattr(networks, "_apply_on_sites", counted)
    generator_analytic(net, 0.35)
    assert query_count(net) == len(targets)
    assert len(calls) == 2 * len(targets) - 1


@pytest.mark.parametrize("targets", [[(0,)], [(1,), (2, 0)], MIXED_TARGETS], ids=len)
def test_generator_analytic_builds_its_terms_once_when_first_read(monkeypatch, targets):
    net = mixed_net(rng(45), 3, 2, targets)
    q = len(targets)
    calls = []
    kernel = networks._apply_on_sites

    def counted(*args):
        calls.append(args[1])
        return kernel(*args)

    monkeypatch.setattr(networks, "_apply_on_sites", counted)
    built = []

    class CountedOperator(HermitianOperator):
        @classmethod
        def _of_matrix(cls, a):
            built.append(1)
            return super()._of_matrix(a)

    monkeypatch.setattr(networks, "HermitianOperator", CountedOperator)
    total, terms = generator_analytic(net, 0.35)
    # one pass and one build, the total's: creating the terms iterator ran nothing
    assert (len(calls), len(built)) == (2 * q - 1, 1)
    first = next(terms)
    assert (len(calls), len(built)) == (2 * (2 * q - 1), 1 + q)
    forward = [first, *terms]
    assert len(forward) == q and (len(calls), len(built)) == (2 * (2 * q - 1), 1 + q)
    assert_allclose(first.entries, dense_term(net, 0.35, 0), atol=1e-12)  # term 1 comes first
    # the total was summed from term Q down to term 1, in the order the pass makes them
    summed = np.zeros_like(total.entries)
    for term in reversed(forward):
        summed += term.entries
    assert summed.tobytes() == total.entries.tobytes()


def test_generator_analytic_terms_are_read_only():
    _, terms = generator_analytic(bitflip_net(), 0.6)
    terms = list(terms)
    assert len(terms) == 2 and not any(term.entries.flags.writeable for term in terms)


def eight_qubit_net():
    g = rng(48)
    n = 8
    layers = [random_unitary(g, 2**n)]
    for site in range(n):
        layers += [BlackBox(HermitianOperator(random_hermitian(g, 2)), (site,)), random_unitary(g, 2**n)]
    return QuantumNetwork(n, 2, tuple(layers))


@pytest.mark.parametrize(
    "extract, arrays", [(generator_analytic, 6), (generator_numeric, 4.5)], ids=lambda v: getattr(v, "__name__", v)
)
def test_generator_peak_memory_does_not_grow_with_the_query_count(extract, arrays):
    # keeping all Q = 8 terms alive would take about (Q + 5) d x d arrays
    net = eight_qubit_net()
    tracemalloc.start()
    try:
        extract(net, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arrays * 16 * net.dim**2


def test_generator_analytic_matches_numeric_on_random_nets():
    g = rng(29)
    for _ in range(25):
        net = random_net(g, int(g.integers(1, 5)))
        phi = float(g.uniform(-2.0, 2.0))
        ana, terms = generator_analytic(net, phi)
        num = generator_numeric(net, phi)
        assert len(list(terms)) == query_count(net)
        assert np.max(np.abs(ana.entries - num.entries)) < 1e-6


def test_generator_analytic_term_spectra_fixed_by_base():
    # interleaver redraws move the terms but never their spectra
    g = rng(30)
    base = (0.2, 1.1)
    embedded = {
        site: np.linalg.eigvalsh(kron_embedding(np.diag(base), (site,), 2, 2)) for site in (0, 1)
    }
    for _ in range(10):
        layers = [random_unitary(g, 4)]
        sites = []
        for _ in range(3):
            site = int(g.integers(0, 2))
            sites.append(site)
            layers.extend([qubit_box(base, (site,)), random_unitary(g, 4)])
        net = QuantumNetwork(2, 2, tuple(layers))
        _, terms = generator_analytic(net, float(g.uniform(0.0, 2.0)))
        for site, term in zip(sites, terms):
            assert_allclose(np.linalg.eigvalsh(term.entries), embedded[site], atol=1e-8)


def test_generator_analytic_tolerance_follows_the_box_scale():
    # at eigenvalues near 1e8 the conjugations round past an absolute 1e-8
    g = rng(40)
    n = 6
    u = random_unitary(g, 2)
    b = (u * np.array([1e8, 1.5e8])) @ u.conj().T
    base = HermitianOperator((b + b.conj().T) / 2)
    layers = [random_unitary(g, 2**n)]
    for site in range(n):
        layers += [BlackBox(base, (site,)), random_unitary(g, 2**n)]
    total, _ = generator_analytic(QuantumNetwork(n, 2, tuple(layers)), 0.3)
    expected = n * 2 ** (n - 1) * np.trace(base.entries).real
    assert np.trace(total.entries).real == pytest.approx(expected, rel=1e-9)


def test_generator_analytic_global_prefix_is_inert():
    g = rng(31)
    net = random_net(g, 3)
    w = random_unitary(g, 4)
    layers = list(net.layers)
    layers[0] = np.asarray(layers[0]) @ w
    altered = QuantumNetwork(2, 2, tuple(layers))
    gen, _ = generator_analytic(net, 0.8)
    gen_w, _ = generator_analytic(altered, 0.8)
    assert_allclose(gen_w.entries, gen.entries, atol=1e-11)


def test_generator_analytic_global_suffix_conjugates():
    g = rng(32)
    net = random_net(g, 3)
    w = random_unitary(g, 4)
    layers = list(net.layers)
    layers[-1] = w @ np.asarray(layers[-1])
    altered = QuantumNetwork(2, 2, tuple(layers))
    gen, _ = generator_analytic(net, 0.8)
    gen_w, _ = generator_analytic(altered, 0.8)
    assert_allclose(gen_w.entries, w @ gen.entries @ w.conj().T, atol=1e-11)
    assert_allclose(
        hermitian_eigensystem(gen_w).eigenvalues,
        hermitian_eigensystem(gen).eigenvalues,
        atol=1e-8,
    )


def test_generator_depends_on_interleavers_in_general():
    # the summed generator is not a function of the base spectrum alone
    plain = QuantumNetwork(1, 2, (I2, qubit_box((0.0, 1.0)), I2, qubit_box((0.0, 1.0)), I2))
    gen_plain, _ = generator_analytic(plain, 0.5)
    gen_flip, _ = generator_analytic(bitflip_net(), 0.5)
    assert_allclose(np.linalg.eigvalsh(gen_plain.entries), [0.0, 2.0], atol=1e-12)
    assert_allclose(np.linalg.eigvalsh(gen_flip.entries), [1.0, 1.0], atol=1e-12)


# ------------------------------------------------------------- analytic memo

def count_box_unitaries(monkeypatch):
    calls = []
    box_unitary = networks._box_unitary

    def counted(box, phi):
        calls.append(phi)
        return box_unitary(box, phi)

    monkeypatch.setattr(networks, "_box_unitary", counted)
    return calls


# one analytic pass forms the unitary of every box but the first (no term reads it)
BOX_UNITARIES_PER_PASS = len(MIXED_TARGETS) - 1


def test_from_network_reuses_the_analytic_total(monkeypatch):
    net = mixed_net(rng(45), 3, 2, MIXED_TARGETS)
    calls = count_box_unitaries(monkeypatch)
    total, _ = generator_analytic(net, 0.35)
    assert len(calls) == BOX_UNITARIES_PER_PASS
    gen = from_network(net, 0.35)
    assert len(calls) == BOX_UNITARIES_PER_PASS
    assert gen.generator is total
    # the spectrum from_network needed is cached on the caller's operator
    assert total._spectrum_cache


def test_repeat_analytic_call_reuses_the_total_with_fresh_terms(monkeypatch):
    net = mixed_net(rng(48), 3, 2, MIXED_TARGETS)
    calls = count_box_unitaries(monkeypatch)
    total, terms = generator_analytic(net, 0.35)
    again, fresh = generator_analytic(net, 0.35)
    assert again is total and fresh is not terms
    assert len(calls) == BOX_UNITARIES_PER_PASS
    # the fresh terms run their own pass when read, and match the first call's bit for bit
    fresh = [t.entries.tobytes() for t in fresh]
    assert len(fresh) == len(MIXED_TARGETS) and len(calls) == 2 * BOX_UNITARIES_PER_PASS
    assert fresh == [t.entries.tobytes() for t in terms]
    assert len(calls) == 3 * BOX_UNITARIES_PER_PASS


@pytest.mark.parametrize("phi", [0.35, 0.0, -0.0, -1.2])
def test_memoised_from_network_is_bitwise_a_fresh_one(phi):
    net = mixed_net(rng(46), 3, 2, MIXED_TARGETS)
    fresh = from_network(mixed_net(rng(46), 3, 2, MIXED_TARGETS), phi)
    generator_analytic(net, phi)
    got = from_network(net, phi)
    assert got.generator.entries.tobytes() == fresh.generator.entries.tobytes()
    assert (got.h_min, got.h_max, got.query_complexity) == (fresh.h_min, fresh.h_max, fresh.query_complexity)


def test_memo_holds_only_the_latest_phi(monkeypatch):
    net = mixed_net(rng(47), 3, 2, MIXED_TARGETS)
    calls = count_box_unitaries(monkeypatch)
    first, _ = generator_analytic(net, 0.35)
    second = from_network(net, 0.9)
    assert len(calls) == 2 * BOX_UNITARIES_PER_PASS
    assert second.generator is not first
    assert len(net._analytic_memo) == 1
    assert net._analytic_memo[0][1] is second.generator
    # a signed zero is a different phi
    generator_analytic(net, 0.0)
    from_network(net, -0.0)
    assert len(calls) == 4 * BOX_UNITARIES_PER_PASS
    assert len(net._analytic_memo) == 1


def test_generator_numeric_ignores_the_memo(monkeypatch):
    net = single_box_net()
    generator_analytic(net, 0.4)
    g = rng(27)
    true_unitary = networks.network_unitary

    def noisy(net_, phi):
        return true_unitary(net_, phi) + 1e-7 * g.normal(size=(2, 2))

    monkeypatch.setattr(networks, "network_unitary", noisy)
    with pytest.raises(StepSizeError):
        generator_numeric(net, 0.4)
