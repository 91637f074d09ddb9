import csv
import io
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from phasebound.cli import compare_procedures
from phasebound.errors import StepSizeError, UsageError, ValidationError
from phasebound.networks import BlackBox, QuantumNetwork, generator_analytic, generator_numeric
from phasebound.opalg import DIM_CAP, HERMITIAN_TOL, HermitianOperator, _hermitian_defect, _max_abs, hermitian_eigensystem
from phasebound.procedures import (
    KINDS,
    JointGenerator,
    ProcedureSpec,
    build_generator,
    closed_form_extremes,
    from_network,
    kbody_generator,
    snl_baseline,
)
from util import kron_all, random_unitary, rng


def eigenvalues_by_enumeration(kind, n, base, k=None):
    """Joint diagonal from explicit subset sums over computational digits."""
    base = np.asarray(base, dtype=float)
    d = base.size
    if kind == "linear":
        subsets = [(j,) for j in range(n)]
    elif kind == "kbody":
        subsets = list(itertools.combinations(range(n), k))
    else:  # exponential
        subsets = [s for r in range(1, n + 1) for s in itertools.combinations(range(n), r)]
    out = np.zeros(d**n)
    for idx, digits in enumerate(itertools.product(range(d), repeat=n)):
        out[idx] = sum(math.prod(base[digits[j]] for j in s) for s in subsets)
    return out


def weight_formula_eigenvalue(kind, n, w, a, b, k=None):
    """Closed combinatorial value on a weight-w bitstring for a two-level base."""
    if kind == "linear":
        return w * b + (n - w) * a
    if kind == "kbody":
        return sum(
            math.comb(w, j) * math.comb(n - w, k - j) * b**j * a ** (k - j) for j in range(k + 1)
        )
    return (1.0 + b) ** w * (1.0 + a) ** (n - w) - 1.0


def joint_diagonal(gen):
    assert gen.generator.is_diagonal
    return np.diagonal(gen.generator.entries).real


# ----------------------------------------------------------------- spec rules

def test_spec_rejects_unknown_kind():
    with pytest.raises(ValidationError):
        ProcedureSpec("quadratic", 2, (0.0, 1.0))


def test_spec_rejects_extra_base_eigenvalues():
    with pytest.raises(ValidationError):
        ProcedureSpec("linear", 2, (0.0, 0.5, 1.0))


def test_spec_body_order_only_for_kbody():
    with pytest.raises(ValidationError):
        ProcedureSpec("linear", 2, (0.0, 1.0), body_order=2)
    with pytest.raises(ValidationError):
        ProcedureSpec("kbody", 2, (0.0, 1.0))
    with pytest.raises(UsageError):
        ProcedureSpec("kbody", 2, (0.0, 1.0), body_order=3)


def test_spec_repetitions_only_for_sequential():
    with pytest.raises(ValidationError):
        ProcedureSpec("sequential-wrapped", 2, (0.0, 1.0))
    with pytest.raises(ValidationError):
        ProcedureSpec("linear", 2, (0.0, 1.0), repetitions=2)
    with pytest.raises(ValidationError):
        ProcedureSpec("sequential-wrapped", 2, (0.0, 1.0), repetitions=0)


FIELD_OWNERS = {"body_order": "kbody", "repetitions": "sequential-wrapped"}


def spec_with(kind, **fields):
    own = {name: 2 for name, owner in FIELD_OWNERS.items() if owner == kind}
    return ProcedureSpec(kind, 3, (0.0, 1.0), **{**own, **fields})


@pytest.mark.parametrize("name, owner", FIELD_OWNERS.items())
def test_spec_field_is_required_by_its_kind(name, owner):
    assert getattr(spec_with(owner), name) == 2
    with pytest.raises(ValidationError, match=f"^{owner} needs {name}$"):
        spec_with(owner, **{name: None})


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("name, owner", FIELD_OWNERS.items())
def test_spec_field_must_be_at_least_one(name, owner, value):
    with pytest.raises(ValidationError, match=f"^{name} must be >= 1$"):
        spec_with(owner, **{name: value})


@pytest.mark.parametrize(
    "name, owner, kind",
    [(name, owner, kind) for name, owner in FIELD_OWNERS.items() for kind in KINDS if kind != owner],
)
def test_spec_field_is_refused_on_every_other_kind(name, owner, kind):
    with pytest.raises(ValidationError, match=f"^{name} applies to the {owner} kind only, not '{kind}'$"):
        spec_with(kind, **{name: 1})


def test_spec_base_eigs_must_ascend():
    with pytest.raises(ValidationError):
        ProcedureSpec("linear", 2, (1.0, 0.0))


def test_spec_counts_must_be_positive():
    with pytest.raises(ValidationError):
        ProcedureSpec("linear", 0, (0.0, 1.0))
    with pytest.raises(ValidationError):
        ProcedureSpec("linear", 2, (0.0, 1.0), subsystem_dim=1)


@pytest.mark.parametrize(
    "args, fields, name",
    [
        (("linear", 2.5), {}, "n_systems"),
        (("linear", True), {}, "n_systems"),
        (("linear", 2), {"subsystem_dim": 3.0}, "subsystem_dim"),
        (("kbody", 3), {"body_order": 2.0}, "body_order"),
        (("sequential-wrapped", 3), {"repetitions": 1.5}, "repetitions"),
    ],
)
def test_spec_counts_must_be_integers(args, fields, name):
    with pytest.raises(ValidationError, match=f"^{name} must be an integer"):
        ProcedureSpec(*args, (0.0, 1.0), **fields)


def test_numpy_counts_are_stored_as_int():
    kbody = ProcedureSpec("kbody", np.int64(3), (0, 1), body_order=np.int32(2), subsystem_dim=np.uint8(3))
    wrapped = ProcedureSpec("sequential-wrapped", np.int64(2), (0, 1), repetitions=np.int64(3))
    counts = [kbody.n_systems, kbody.body_order, kbody.subsystem_dim, wrapped.repetitions]
    assert counts == [3, 2, 3, 3] and all(type(c) is int for c in counts)
    gen = JointGenerator(HermitianOperator.from_diagonal([0.0, 1.0]), np.int64(4))
    assert type(gen.query_complexity) is int and gen.query_complexity == 4
    for q in (2.5, True):
        with pytest.raises(ValidationError, match="^query_complexity must be an integer"):
            JointGenerator(HermitianOperator.from_diagonal([0.0, 1.0]), q)


def test_spec_refuses_a_site_wider_than_the_cap():
    assert ProcedureSpec("linear", 1, (0.0, 1.0), subsystem_dim=DIM_CAP).dim == DIM_CAP
    with pytest.raises(ValidationError, match="subsystem_dim"):
        ProcedureSpec("linear", 1, (0.0, 1.0), subsystem_dim=DIM_CAP + 1)
    # snl_baseline would otherwise build a 10^9-level site base
    with pytest.raises(ValidationError, match="subsystem_dim"):
        snl_baseline(ProcedureSpec("linear", 1, (0, 1), subsystem_dim=10**9))


def test_spec_dim_property():
    assert ProcedureSpec("linear", 3, (0.0, 1.0)).dim == 8
    assert ProcedureSpec("linear", 2, (0.0, 1.0), subsystem_dim=3).dim == 9


def extreme_cases():
    """One JointGenerator from every construction path, by name."""
    from phasebound.networks import BlackBox
    from phasebound.states import mode_number_generator, number_operator

    u = random_unitary(rng(47), 2)
    rotated = HermitianOperator(u @ np.diag([-0.4, 1.3]) @ u.conj().T)
    for base_name, base in (("diagonal", None), ("rotated", rotated)):
        base_eigs = (0.0, 1.0) if base is None else (-0.4, 1.3)
        for kind, extra in (("linear", {}), ("kbody", {"body_order": 2}), ("exponential", {}),
                            ("sequential-wrapped", {"repetitions": 3})):
            yield f"{kind}-{base_name}", build_generator(ProcedureSpec(kind, 3, base_eigs, **extra), base)
    layers = [random_unitary(rng(48), 4)]
    for site in range(2):
        layers += [BlackBox(rotated, (site,)), random_unitary(rng(49 + site), 4)]
    yield "from_network", from_network(QuantumNetwork(2, 2, tuple(layers)), 0.2)
    yield "mode_number_generator", mode_number_generator(4)
    yield "number_operator", number_operator(6)


def test_joint_generator_reads_extremes_from_the_spectrum():
    names = []
    for name, gen in extreme_cases():
        names.append(name)
        w = hermitian_eigensystem(gen.generator).eigenvalues
        assert (gen.h_min, gen.h_max) == (w[0], w[-1]), name
        assert gen.seminorm == w[-1] - w[0], name
        # an independent eigensolver on the d x d matrix agrees
        ref = np.linalg.eigvalsh(gen.generator.entries)
        assert_allclose([gen.h_min, gen.h_max], [ref[0], ref[-1]], atol=1e-9, err_msg=name)
    assert len(names) == 11
    with pytest.raises(TypeError):
        JointGenerator(HermitianOperator.from_diagonal([0.0, 2.0]), 1, 0.0, 2.0)


# -------------------------------------------------------------------- linear

def test_linear_single_site_is_base():
    gen = build_generator(ProcedureSpec("linear", 1, (0.0, 1.0)))
    assert_allclose(joint_diagonal(gen), [0.0, 1.0])
    assert gen.query_complexity == 1


def test_linear_three_qubits_binomial_degeneracies():
    gen = build_generator(ProcedureSpec("linear", 3, (0.0, 1.0)))
    diag = joint_diagonal(gen)
    values, counts = np.unique(np.round(diag, 12), return_counts=True)
    assert_allclose(values, [0.0, 1.0, 2.0, 3.0])
    assert list(counts) == [1, 3, 3, 1]
    assert (gen.query_complexity, gen.h_min, gen.h_max) == (3, 0.0, 3.0)


def test_linear_symmetric_base_extremes():
    gen = build_generator(ProcedureSpec("linear", 4, (-0.5, 0.5)))
    assert gen.h_min == pytest.approx(-2.0)
    assert gen.h_max == pytest.approx(2.0)
    assert gen.seminorm == pytest.approx(4.0)


def test_linear_matches_enumeration_oracle():
    # a qutrit site interpolates the pair to [0.1, 0.5, 0.9]
    gen = build_generator(ProcedureSpec("linear", 2, (0.1, 0.9), subsystem_dim=3))
    levels = np.linspace(0.1, 0.9, 3)
    assert_allclose(
        joint_diagonal(gen), eigenvalues_by_enumeration("linear", 2, levels), atol=1e-12
    )


# --------------------------------------------------------------------- k-body

def test_kbody_pair_of_qubits():
    gen = kbody_generator(ProcedureSpec("kbody", 2, (0.0, 1.0), body_order=2))
    assert_allclose(joint_diagonal(gen), [0.0, 0.0, 0.0, 1.0])
    assert gen.query_complexity == 1


def test_kbody_three_qubits_weights():
    gen = kbody_generator(ProcedureSpec("kbody", 3, (0.0, 1.0), body_order=2))
    diag = joint_diagonal(gen)
    weights = [bin(i).count("1") for i in range(8)]
    expected = [weight_formula_eigenvalue("kbody", 3, w, 0.0, 1.0, k=2) for w in weights]
    assert_allclose(diag, expected, atol=1e-12)
    assert gen.query_complexity == 3
    assert gen.h_max == pytest.approx(3.0)


def test_kbody_matches_enumeration_oracle():
    for n, k in ((3, 2), (4, 2), (4, 3), (5, 4)):
        base = (0.2, 0.9)
        gen = kbody_generator(ProcedureSpec("kbody", n, base, body_order=k))
        assert_allclose(
            joint_diagonal(gen), eigenvalues_by_enumeration("kbody", n, base, k=k), atol=1e-12
        )
        assert gen.query_complexity == math.comb(n, k)


def test_kbody_rejects_order_above_system_count():
    with pytest.raises(UsageError):
        ProcedureSpec("kbody", 2, (0.0, 1.0), body_order=3)


# --------------------------------------------------------------- exponential

def test_exponential_three_qubits_power_spectrum():
    gen = build_generator(ProcedureSpec("exponential", 3, (0.0, 1.0)))
    diag = joint_diagonal(gen)
    expected = [2.0 ** bin(i).count("1") - 1.0 for i in range(8)]
    assert_allclose(diag, expected, atol=1e-12)
    assert gen.query_complexity == 7
    assert gen.h_max == pytest.approx(7.0)


def test_exponential_single_site_equals_linear():
    e = build_generator(ProcedureSpec("exponential", 1, (0.0, 1.0)))
    l = build_generator(ProcedureSpec("linear", 1, (0.0, 1.0)))
    assert_allclose(e.generator.entries, l.generator.entries)


def test_exponential_matches_enumeration_oracle():
    base = (0.3, 0.8)
    gen = build_generator(ProcedureSpec("exponential", 4, base))
    assert_allclose(
        joint_diagonal(gen), eigenvalues_by_enumeration("exponential", 4, base), atol=1e-10
    )


def test_exponential_system_cap():
    # only the dimension cap bounds the exponential kind: 2^12 = DIM_CAP builds, 2^13 does not
    for n in (11, 12):
        spec = ProcedureSpec("exponential", n, (0.2, 0.9))
        gen = build_generator(spec)
        q, lo, hi = closed_form_extremes(spec)
        assert gen.query_complexity == q == 2**n - 1
        assert gen.h_min == pytest.approx(lo, rel=1e-12)
        assert gen.h_max == pytest.approx(hi, rel=1e-12)
    assert 2**12 == DIM_CAP
    with pytest.raises(ValidationError, match="exceeds the cap"):
        build_generator(ProcedureSpec("exponential", 13, (0.0, 1.0)))


# Diagonal qubit and qutrit bases; a qutrit joint space passes DIM_CAP at N = 8.
SYMMETRIC_SUM_BASES = {"qubit": ((0.2, 1.1), 8), "qutrit": ((0.3, 1.2), 7)}


@pytest.mark.parametrize(
    "name, n", [(name, n) for name, (_, n_max) in SYMMETRIC_SUM_BASES.items() for n in range(1, n_max + 1)]
)
def test_symmetric_sums_match_enumeration_at_every_order(name, n):
    base, _ = SYMMETRIC_SUM_BASES[name]
    d = 2 if name == "qubit" else 3
    levels = np.linspace(*base, d)
    cases = [("exponential", None, ProcedureSpec("exponential", n, base, subsystem_dim=d))]
    cases.append(("linear", None, ProcedureSpec("linear", n, base, subsystem_dim=d)))
    cases += [("kbody", k, ProcedureSpec("kbody", n, base, body_order=k, subsystem_dim=d)) for k in range(1, n + 1)]
    for kind, k, spec in cases:
        expected = eigenvalues_by_enumeration(kind, n, levels, k=k)
        assert_allclose(joint_diagonal(build_generator(spec)), expected, rtol=0, atol=1e-12 * np.max(np.abs(expected)))


# ----------------------------------------------------------------- sequential

def test_sequential_wrap_scales_everything():
    # T multiplies the linear sum vector before the operator is built
    linear = build_generator(ProcedureSpec("linear", 2, (0.0, 1.0)))
    wrapped = build_generator(ProcedureSpec("sequential-wrapped", 2, (0.0, 1.0), repetitions=3))
    assert wrapped.query_complexity == 6
    assert wrapped.h_max == 6.0
    assert np.array_equal(wrapped.generator.diagonal, 3.0 * linear.generator.diagonal)
    once = build_generator(ProcedureSpec("sequential-wrapped", 2, (0.0, 1.0), repetitions=1))
    assert np.array_equal(once.generator.diagonal, linear.generator.diagonal)


def test_sequential_wrap_rejects_bad_repetitions():
    with pytest.raises(ValidationError, match="repetitions must be >= 1"):
        ProcedureSpec("sequential-wrapped", 1, (0.0, 1.0), repetitions=0)
    # past float range, and past it once scaled by h_max = 4
    for n, t in ((1, 10**400), (4, 10**308)):
        with pytest.raises(ValidationError, match="float range"):
            build_generator(ProcedureSpec("sequential-wrapped", n, (0.0, 1.0), repetitions=t))


def test_sequential_wrap_over_a_rotated_base_needs_no_joint_eigh(monkeypatch):
    # the rounding asymmetry of U D U^dag grows with D, past an absolute 1e-8 at T = 10**8
    u = random_unitary(rng(7), 2)
    base = HermitianOperator(u @ np.diag([0.0, 1.0]) @ u.conj().T)
    once = build_generator(ProcedureSpec("sequential-wrapped", 3, (0.0, 1.0), repetitions=1), base)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    wrapped = build_generator(ProcedureSpec("sequential-wrapped", 3, (0.0, 1.0), repetitions=10**8), base)
    assert not wrapped.generator.is_diagonal
    assert wrapped.query_complexity == 3 * 10**8
    spec = hermitian_eigensystem(once.generator)
    assert np.array_equal(hermitian_eigensystem(wrapped.generator).eigenvalues, 1e8 * spec.eigenvalues)
    assert (wrapped.h_min, wrapped.h_max) == (1e8 * once.h_min, 1e8 * once.h_max)
    assert calls == []


def test_rotated_build_checks_hermiticity_relative_to_its_values():
    # U D U^dag at N = 8 over eigenvalues up to 8e8 rounds past an absolute 1e-8
    u = random_unitary(rng(8), 2)
    b = u @ np.diag([0.0, 1e8]) @ u.conj().T
    base = HermitianOperator((b + b.conj().T) / 2)
    gen = build_generator(ProcedureSpec("linear", 8, (0.0, 1e8)), base)
    assert gen.h_max == pytest.approx(8e8, rel=1e-12)
    assert gen.h_min == pytest.approx(0.0, abs=1e-6)


def haar_rotated(g, values):
    u = random_unitary(g, len(values))
    b = u @ np.diag(values) @ u.conj().T
    return HermitianOperator((b + b.conj().T) / 2)


def extreme_dense_operators():
    """(name, operator) for the package's own dense builds at their extreme scales."""
    g = rng(60)
    for lo in (0.0, -1e8):
        spec = ProcedureSpec("linear", 10, (lo, 1e8))
        yield f"rotated linear ({lo:g}, 1e8)", build_generator(spec, haar_rotated(g, [lo, 1e8])).generator
    spec = ProcedureSpec("sequential-wrapped", 10, (0.0, 1.0), repetitions=10**8)
    yield "sequential-wrapped T = 1e8", build_generator(spec, haar_rotated(g, [0.0, 1.0])).generator
    n = 8

    def network(tops):
        layers = [random_unitary(g, 2**n)]
        for sites, top in zip(((0,), (3, 1, 6), (2, 5, 7), (4,)), tops):
            base = haar_rotated(g, np.sort(g.uniform(0.0, top, size=2 ** len(sites))))
            layers += [BlackBox(base, sites), random_unitary(g, 2**n)]
        return QuantumNetwork(n, 2, tuple(layers))

    net = network((1e6, 1e12, 1e9, 1.0))
    total, terms = generator_analytic(net, 0.4)
    yield "analytic total", total
    for j, term in enumerate(terms):
        yield f"analytic term {j}", term
    # a central difference cannot resolve these boxes; the largest scale it accepts is eps * scale = 1e-3
    with pytest.raises(StepSizeError):
        generator_numeric(net, 0.4)
    yield "numeric", generator_numeric(network((1e2, 5e2, 1e2, 1.0)), 0.4)


def test_dense_builds_keep_a_wide_margin_under_the_hermiticity_rule():
    # the one rule, 1e-9 max(1, max |A|), must sit far above what the builds round to, not just above it
    for name, op in extreme_dense_operators():
        assert not op.is_diagonal, name
        a = op.entries
        assert _hermitian_defect(a) <= 1e-3 * HERMITIAN_TOL * max(1.0, _max_abs(a)), name


def test_build_generator_sequential_spec_wraps_linear():
    spec = ProcedureSpec("sequential-wrapped", 1, (0.0, 1.0), repetitions=5)
    gen = build_generator(spec)
    assert_allclose(joint_diagonal(gen), [0.0, 5.0])
    assert gen.query_complexity == 5


def test_build_generator_dispatch():
    for kind, extra in (
        ("linear", {}),
        ("kbody", {"body_order": 2}),
        ("exponential", {}),
        ("sequential-wrapped", {"repetitions": 2}),
    ):
        spec = ProcedureSpec(kind, 3, (0.0, 1.0), **extra)
        gen = build_generator(spec)
        assert gen.h_max == pytest.approx(closed_form_extremes(spec)[2])


# ------------------------------------------------------------- rotated bases

def test_rotated_base_keeps_joint_spectrum():
    g = rng(41)
    w = random_unitary(g, 2)
    base_diag = np.diag([0.0, 1.0]).astype(complex)
    rotated = HermitianOperator(w @ base_diag @ w.conj().T)
    for kind, extra in (("linear", {}), ("kbody", {"body_order": 2}), ("exponential", {})):
        spec = ProcedureSpec(kind, 3, (0.0, 1.0), **extra)
        plain = build_generator(spec)
        if kind == "linear":
            dense = build_generator(spec, base=rotated)
        elif kind == "kbody":
            dense = kbody_generator(spec, base=rotated)
        else:
            dense = build_generator(spec, base=rotated)
        assert not dense.generator.is_diagonal
        assert_allclose(
            np.linalg.eigvalsh(dense.generator.entries),
            np.sort(joint_diagonal(plain)),
            atol=1e-9,
        )
        assert dense.h_max == pytest.approx(plain.h_max, abs=1e-9)


# Non-real site unitaries: a qubit and a qutrit base u diag(w) u^dag.
ROTATED_BASES = {
    "qubit": (random_unitary(rng(45), 2), (0.2, 1.1)),
    "qutrit": (random_unitary(rng(46), 3), (0.3, 0.7, 1.2)),
}
# kbody cases at every order; the kron-chain reference sums dense joint matrices, so qutrits stop at N = 5
ROTATED_KINDS = ("linear", "exponential", "sequential2", *(f"kbody{k}" for k in range(1, 9)))


def rotated_cases():
    for name, sizes in (("qubit", range(1, 9)), ("qutrit", range(1, 6))):
        for kind in ROTATED_KINDS:
            for n in sizes:
                if not kind.startswith("kbody") or int(kind[5:]) <= n:
                    yield name, kind, n


def rotated_subsets(kind, n):
    """Subsets whose base products sum to the generator; sequential2 lists linear twice."""
    if kind == "linear":
        return [(j,) for j in range(n)]
    if kind == "sequential2":
        return [(j,) for j in range(n)] * 2
    if kind == "exponential":
        return [s for r in range(1, n + 1) for s in itertools.combinations(range(n), r)]
    return list(itertools.combinations(range(n), int(kind[5:])))


def kron_subset_sum(base, n, subsets):
    """Sum over subsets of explicit kron chains: base on each listed site, I elsewhere."""
    eye = np.eye(base.shape[0], dtype=complex)
    total = np.zeros((base.shape[0] ** n,) * 2, dtype=complex)
    for subset in subsets:
        factors = [eye] * n
        for j in subset:
            factors[j] = base
        total += kron_all(factors)
    return total


def build_rotated(kind, n, base):
    d = base.dim
    if kind == "linear":
        return build_generator(ProcedureSpec("linear", n, (0.0, 1.0), subsystem_dim=d), base)
    if kind == "sequential2":
        return build_generator(ProcedureSpec("sequential-wrapped", n, (0.0, 1.0), repetitions=2, subsystem_dim=d), base)
    if kind == "exponential":
        return build_generator(ProcedureSpec("exponential", n, (0.0, 1.0), subsystem_dim=d), base)
    spec = ProcedureSpec("kbody", n, (0.0, 1.0), body_order=int(kind[5:]), subsystem_dim=d)
    return kbody_generator(spec, base)


@pytest.mark.parametrize("name, kind, n", list(rotated_cases()))
def test_rotated_base_matches_kron_chains_with_one_site_eigh(monkeypatch, name, kind, n):
    u, w = ROTATED_BASES[name]
    base_matrix = (u * np.array(w)) @ u.conj().T
    expected = kron_subset_sum(base_matrix, n, rotated_subsets(kind, n))
    scale = np.max(np.abs(expected))
    shapes = []
    real_eigh = np.linalg.eigh

    def counting_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    gen = build_rotated(kind, n, HermitianOperator(base_matrix))
    spectrum = hermitian_eigensystem(gen.generator)
    assert shapes == [(len(w), len(w))]

    h = gen.generator.entries
    assert_allclose(h, expected, rtol=0, atol=1e-12 * scale)
    v, lam = spectrum.eigenvectors, spectrum.eigenvalues
    assert_allclose(h @ v, v * lam, rtol=0, atol=1e-12 * scale)
    assert_allclose(v.conj().T @ v, np.eye(h.shape[0]), rtol=0, atol=1e-12)
    assert_allclose(lam, np.linalg.eigvalsh(expected), rtol=0, atol=1e-12 * scale)
    assert (gen.h_min, gen.h_max) == (lam[0], lam[-1])


# ------------------------------------------------------------------ closed forms

def test_closed_form_examples():
    q, lo, hi = closed_form_extremes(ProcedureSpec("linear", 4, (-0.5, 0.5)))
    assert (q, lo, hi) == (4, -2.0, 2.0)
    q, lo, hi = closed_form_extremes(ProcedureSpec("kbody", 5, (0.0, 1.0), body_order=2))
    assert (q, lo, hi) == (10, 0.0, 10.0)
    q, lo, hi = closed_form_extremes(ProcedureSpec("exponential", 3, (0.0, 1.0)))
    assert (q, lo, hi) == (7, 0.0, 7.0)


GOLDEN_COMPARE = Path(__file__).parent / "data" / "compare_golden.csv"
GOLDEN_KINDS = ["linear", "kbody:1", "kbody:2", "kbody:3", "exponential", "sequential:1", "sequential:3"]
GOLDEN_NS = [1, 2, 3, 5, 8, 13, 64, 100, 1000, 2000]
GOLDEN_BASES = [(0.0, 1.0), (0.1, 0.7), (-0.5, 1.0), (0.3, 2.9)]


def compare_golden_text():
    """``compare_procedures`` rows and skip notes over the golden grid; floats by repr, so every bit shows."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["lambda_min", "lambda_max", "kind", "n", "q", "seminorm", "bound_query", "bound_snl", "skipped"])
    for lo, hi in GOLDEN_BASES:
        rows, skipped = compare_procedures(GOLDEN_NS, GOLDEN_KINDS, (lo, hi))
        for token, n, q, seminorm, bound_query, snl in rows:
            writer.writerow([repr(lo), repr(hi), token, n, q, repr(seminorm), repr(bound_query), snl, ""])
        for note in skipped:
            writer.writerow([repr(lo), repr(hi), "", "", "", "", "", "", note])
    return out.getvalue()


def test_compare_rows_match_the_golden_capture():
    assert compare_golden_text() == GOLDEN_COMPARE.read_text(encoding="utf-8")


def test_closed_form_matches_construction():
    bases = ((0.0, 1.0), (0.2, 0.9), (0.0, 0.5))
    for base in bases:
        for n in range(1, 7):
            specs = [ProcedureSpec("linear", n, base)]
            for k in range(2, min(n, 4) + 1):
                specs.append(ProcedureSpec("kbody", n, base, body_order=k))
            specs.append(ProcedureSpec("exponential", n, base))
            for spec in specs:
                gen = build_generator(spec)
                q, lo, hi = closed_form_extremes(spec)
                assert q == gen.query_complexity
                assert abs(lo - gen.h_min) < 1e-9
                assert abs(hi - gen.h_max) < 1e-9


def test_closed_form_beyond_materialization_cap():
    q, lo, hi = closed_form_extremes(ProcedureSpec("linear", 100, (0.0, 1.0)))
    assert (q, lo, hi) == (100, 0.0, 100.0)
    q, lo, hi = closed_form_extremes(ProcedureSpec("kbody", 50, (0.0, 1.0), body_order=2))
    assert (q, lo, hi) == (1225, 0.0, 1225.0)
    q, lo, hi = closed_form_extremes(ProcedureSpec("exponential", 40, (0.0, 1.0)))
    assert q == 2**40 - 1
    assert hi == pytest.approx(float(2**40 - 1))


def test_closed_form_refuses_extremes_past_float_range(monkeypatch):
    for spec in (
        ProcedureSpec("linear", 10**310, (0.0, 1.0)),
        ProcedureSpec("linear", 10**300, (0.0, 1e10)),  # a finite product that rounds to inf
        ProcedureSpec("kbody", 2000, (0.0, 1.0), body_order=600),
        ProcedureSpec("exponential", 2000, (0.0, 1.0)),
        ProcedureSpec("exponential", 10**30, (0.0, 1e-9)),
        ProcedureSpec("sequential-wrapped", 2, (0.0, 1.0), repetitions=10**400),
    ):
        with pytest.raises(ValidationError, match="float range"):
            closed_form_extremes(spec)
    # 2^1024 - 1 queries, but the extremes stay finite on a small base
    assert closed_form_extremes(ProcedureSpec("exponential", 1024, (0.0, 1e-3)))[0] == 2**1024 - 1
    # a C(N, k) far past float range is refused before its digits are formed
    monkeypatch.setattr(math, "comb", lambda n, k: pytest.fail("C(N, k) was formed"))
    with pytest.raises(ValidationError, match="float range"):
        closed_form_extremes(ProcedureSpec("kbody", 10**6, (0.0, 1.0), body_order=5 * 10**5))


def test_first_order_sums_skip_the_binomial_guard():
    # C(N, 1) = N has few digits, and its bound N^1 is far inside float range
    n = 10**23
    linear = closed_form_extremes(ProcedureSpec("linear", n, (0.0, 1.0)))
    assert linear == (n, 0.0, 1e23)
    assert closed_form_extremes(ProcedureSpec("kbody", n, (0.0, 1.0), body_order=1)) == linear


def test_binomial_guard_passes_a_pair_count_that_fits():
    # log C(10**23, 2) is 105.2; the guard's lower bound 2 log(N / 2) never reads more
    n = 10**23
    spec = ProcedureSpec("kbody", n, (0.0, 1e-40), body_order=2)
    assert closed_form_extremes(spec) == (math.comb(n, 2), 0.0, math.comb(n, 2) * 1e-40**2)


def test_closed_form_requires_nonnegative_base_for_products():
    with pytest.raises(ValidationError):
        closed_form_extremes(ProcedureSpec("kbody", 3, (-0.1, 1.0), body_order=2))
    with pytest.raises(ValidationError):
        closed_form_extremes(ProcedureSpec("exponential", 3, (-0.1, 1.0)))
    # linear has no sign restriction
    closed_form_extremes(ProcedureSpec("linear", 3, (-0.1, 1.0)))


def test_materialization_cap_leaves_closed_forms_usable():
    spec = ProcedureSpec("linear", 13, (0.0, 1.0))
    with pytest.raises(ValidationError):
        build_generator(spec)
    assert closed_form_extremes(spec) == (13, 0.0, 13.0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    k=st.integers(1, 4),
    lo=st.floats(0.0, 0.5),
    gap=st.floats(0.1, 1.5),
)
def test_closed_form_matches_construction_random(n, k, lo, gap):
    if k > n:
        k = n
    base = (lo, lo + gap)
    if k == 1:
        spec = ProcedureSpec("linear", n, base)
    else:
        spec = ProcedureSpec("kbody", n, base, body_order=k)
    gen = build_generator(spec)
    q, lo_c, hi_c = closed_form_extremes(spec)
    assert q == gen.query_complexity
    assert abs(lo_c - gen.h_min) < 1e-9
    assert abs(hi_c - gen.h_max) < 1e-9


# ------------------------------------------------------------------- baseline

def test_snl_baseline_examples():
    delta, bound = snl_baseline(ProcedureSpec("linear", 4, (0.0, 1.0)))
    assert delta == pytest.approx(1.0, abs=1e-12)
    assert bound == pytest.approx(0.5, abs=1e-12)
    delta, bound = snl_baseline(ProcedureSpec("linear", 1, (0.0, 1.0)))
    assert delta == pytest.approx(0.5, abs=1e-12)
    assert bound == pytest.approx(1.0, abs=1e-12)


def test_snl_baseline_scales_without_materializing():
    delta, bound = snl_baseline(ProcedureSpec("linear", 100, (0.0, 1.0)))
    assert delta == pytest.approx(5.0, abs=1e-12)
    assert bound == pytest.approx(0.1, abs=1e-12)


def test_snl_baseline_sqrt_slope():
    ns = np.array([2, 4, 8, 16, 32], dtype=float)
    deltas = [snl_baseline(ProcedureSpec("linear", int(n), (0.0, 1.0)))[0] for n in ns]
    slope = np.polyfit(np.log(ns), np.log(deltas), 1)[0]
    assert slope == pytest.approx(0.5, abs=1e-6)


def test_snl_baseline_linear_only():
    with pytest.raises(UsageError):
        snl_baseline(ProcedureSpec("kbody", 3, (0.0, 1.0), body_order=2))


# ----------------------------------------------------------- network bridge

def test_from_network_bitflip():
    from phasebound.networks import BlackBox

    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    box = lambda: BlackBox(HermitianOperator.from_diagonal([0.0, 1.0]), (0,))
    net = QuantumNetwork(1, 2, (np.eye(2), box(), x, box(), np.eye(2)))
    gen = from_network(net, 0.3)
    assert gen.query_complexity == 2
    assert_allclose(gen.generator.entries, np.eye(2), atol=1e-9)
    assert gen.h_min == pytest.approx(1.0, abs=1e-9)
    assert gen.h_max == pytest.approx(1.0, abs=1e-9)


def test_from_network_linear_pair():
    from phasebound.networks import BlackBox

    layers = [np.eye(4)]
    for site in range(2):
        layers.extend([BlackBox(HermitianOperator.from_diagonal([0.0, 1.0]), (site,)), np.eye(4)])
    gen = from_network(QuantumNetwork(2, 2, tuple(layers)), 0.0)
    spec = hermitian_eigensystem(gen.generator)
    assert_allclose(spec.eigenvalues, [0.0, 1.0, 1.0, 2.0], atol=1e-9)
    assert gen.query_complexity == 2
