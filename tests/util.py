"""Shared test factories and independent numerical oracles.

The oracles deliberately avoid the code paths under test: characteristic
polynomial roots instead of eigh, explicit kron chains instead of the
embedding helper, and per-eigenvalue probability sums instead of vector
moments.
"""
import itertools

import numpy as np


def rng(seed=0):
    return np.random.default_rng(seed)


def random_hermitian(gen, dim, scale=1.0):
    z = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    return scale * (z + z.conj().T) / 2


def random_unitary(gen, dim):
    z = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_state_vector(gen, dim):
    z = gen.normal(size=dim) + 1j * gen.normal(size=dim)
    return z / np.linalg.norm(z)


def charpoly_coefficients(a):
    """Faddeev-LeVerrier recursion; returns [1, c1, ..., cn] for det(xI - A)."""
    n = a.shape[0]
    coeffs = [1.0 + 0j]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    return np.array(coeffs)


def charpoly_eigenvalues(a):
    """Eigenvalues as roots of the characteristic polynomial, ascending."""
    roots = np.roots(charpoly_coefficients(a))
    return np.sort(roots.real)


def moments_by_eigensystem(amplitudes, a):
    """Expectation and variance from the spectral decomposition of ``a``."""
    w, v = np.linalg.eigh(a)
    probs = np.abs(v.conj().T @ amplitudes) ** 2
    mean = float(np.sum(probs * w))
    var = float(np.sum(probs * (w - mean) ** 2))
    return mean, var


def kron_all(mats):
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def dense_product_probabilities(site_mats, n, amplitudes):
    """<psi|E_{k_0} (x) ... (x) E_{k_{n-1}}|psi> for every word k, site 0 most significant.

    ``amplitudes`` is one state (d,) or a batch (G, d).  Each word's element
    is an explicit kron chain of the site matrices, built one at a time, so
    the reference holds no more than one joint element.
    """
    psi = np.asarray(amplitudes, dtype=complex)
    batch = psi.reshape(-1, psi.shape[-1])
    columns = []
    for word in itertools.product(range(len(site_mats)), repeat=n):
        element = kron_all([np.asarray(site_mats[k], dtype=complex) for k in word])
        columns.append(np.einsum("gi,gi->g", batch.conj(), batch @ element.T).real)
    return np.stack(columns, axis=1).reshape(psi.shape[:-1] + (-1,))


def dense_diagonal_operator(values):
    """diag(values) as a dense matrix: the eigh-path reference for the diagonal form.

    A dense operator stays dense whatever its entries, so every spectrum,
    evolution and moment of this twin runs the dense code.
    """
    from phasebound.opalg import HermitianOperator

    return HermitianOperator(np.diag(np.asarray(values, dtype=complex)))


def subset_product_diagonal(site_values, n, subsets):
    """Diagonal of sum over subsets of prod_{j in subset} diag(site_values) on site j.

    Built as explicit Kronecker products of per-site vectors (ones off the
    subset), not by the index arithmetic the package uses.
    """
    site_values = np.asarray(site_values, dtype=float)
    ones = np.ones_like(site_values)
    total = np.zeros(site_values.size**n)
    for subset in subsets:
        total = total + kron_all([site_values if j in subset else ones for j in range(n)])
    return total


def kron_embedding(small, sites, n, d):
    """``small`` (factor t on subsystem sites[t]) padded with identities, site 0 most significant.

    Built as a sum of matrix units, each an explicit kron chain over all n
    subsystems, not by the axis permutation the package uses.
    """
    small = np.asarray(small, dtype=complex)
    k = len(sites)
    eye = np.eye(d, dtype=complex)
    total = np.zeros((d**n, d**n), dtype=complex)
    for row, col in itertools.product(range(d**k), repeat=2):
        if small[row, col] == 0:
            continue
        factors = [eye] * n
        for t, (i, j) in enumerate(zip(np.unravel_index(row, [d] * k), np.unravel_index(col, [d] * k))):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            factors[sites[t]] = unit
        total += small[row, col] * kron_all(factors)
    return total
