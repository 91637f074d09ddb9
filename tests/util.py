"""Shared test factories and independent numerical oracles.

The oracles deliberately avoid the code paths under test: characteristic
polynomial roots instead of eigh, explicit kron chains instead of the
embedding helper, and per-eigenvalue probability sums instead of vector
moments.
"""
import itertools
import math

import numpy as np
import scipy.linalg
import scipy.optimize


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


def parity_pair_probabilities(vec_max, vec_min, amplitudes):
    """<psi|(I +/- X)/2|psi> with X = |max><min| + h.c. built as an explicit d x d matrix.

    ``amplitudes`` is one state (d,) or a batch (G, d); the result has a
    trailing outcome axis (+, -).
    """
    cross = np.outer(vec_max, np.conj(vec_min))
    x = cross + cross.conj().T
    eye = np.eye(len(vec_max))
    batch = np.atleast_2d(np.asarray(amplitudes, dtype=complex))
    probs = [[np.vdot(psi, e @ psi).real for e in ((eye + x) / 2, (eye - x) / 2)] for psi in batch]
    return np.array(probs).reshape(np.shape(amplitudes)[:-1] + (2,))


def fringe_fisher(delta, vec_max, vec_min, amplitudes, phi):
    """F = Delta^2 V^2 sin^2 x / (1/4 - V^2 cos^2 x), x = Delta phi + theta, of the (I +/- X)/2 fringe.

    V = |ab| and theta = arg(conj(a) b) with a = <max|psi>, b = <min|psi> of
    the probe before the phase exp(-i phi H) is applied.
    """
    z = np.conj(np.vdot(vec_max, amplitudes)) * np.vdot(vec_min, amplitudes)
    v, x = abs(z), delta * phi + np.angle(z)
    return delta**2 * v**2 * np.sin(x) ** 2 / (0.25 - v**2 * np.cos(x) ** 2)


def fringe_mle_bounded(delta, vis, theta, lo, hi, counts):
    """argmax over [lo, hi] of the binomial log-likelihood of counts (n+, n-) under p+ = 1/2 + vis cos(delta phi + theta).

    ``scipy.optimize.minimize_scalar(method="bounded")`` runs on each piece
    between fringe extrema, where the likelihood is unimodal, and then again
    within 1e-5 of its result x on the likelihood relative to x,
    L(x + t) - L(x).  That difference is summed from log1p of the
    probability differences -/+ 2 vis sin(delta (x + t/2) + theta) sin(delta t/2),
    which carry no cancellation, so the optimum is found far below the 1e-8
    that values of L itself resolve.  The best piece optimum or piece end
    wins, compared by the same relative form; exact ties (within 1e-15) go
    to the smaller phase.  ``vis`` must stay below 1/2, or no fringe
    extremum with a vanishing probability may lie in [lo, hi].
    """
    def relative(x, t):
        p = 0.5 + vis * math.cos(delta * x + theta)
        dp = -2 * vis * math.sin(delta * (x + t / 2) + theta) * math.sin(delta * t / 2)
        return sum(n * math.log1p(d / q) for n, q, d in ((counts[0], p, dp), (counts[1], 1 - p, -dp)) if n)

    first = math.floor((delta * lo + theta) / math.pi) + 1
    cuts = [lo] + [(m * math.pi - theta) / delta for m in range(first, math.ceil((delta * hi + theta) / math.pi))] + [hi]
    candidates = []
    for a, b in zip(cuts, cuts[1:]):
        x = scipy.optimize.minimize_scalar(lambda phi: -relative(a, phi - a), bounds=(a, b), method="bounded").x
        t_lo, t_hi = max(a, x - 1e-5) - x, min(b, x + 1e-5) - x
        t = scipy.optimize.minimize_scalar(lambda t: -relative(x, t), bounds=(t_lo, t_hi), method="bounded",
                                           options={"xatol": 1e-14}).x
        candidates += [a, x + t, b]
    best = lo
    for phi in sorted(candidates):
        if relative(best, phi - best) > 1e-15:
            best = phi
    return best


def product_probe_mle(counts, n, lo, hi):
    """argmax over [lo, hi], inside [0, pi], of the likelihood of word counts under the site fringe p+ = (1 + cos phi)/2.

    Each of the n sites has outcome 0 (plus) or 1 and word w numbers them
    site 0 most significant, so word w holds n - popcount(w) plus outcomes.
    The likelihood factorizes over sites: only the plus total n+ of the
    nu n site outcomes enters, and on [0, pi] it is unimodal with its peak
    at cos phi = 2 n+ / (nu n) - 1.
    """
    counts = np.asarray(counts)
    plus = np.array([n - bin(w).count("1") for w in range(2**n)])
    peak = math.acos(2 * int(counts @ plus) / (int(counts.sum()) * n) - 1)
    return min(max(peak, lo), hi)


def site_product_reduced_counts(counts, n, plus=0):
    """(n+, n_even) of two-outcome site-product word counts, by enumerating the 2^n words.

    Words run over itertools.product, site 0 most significant, and site
    outcome ``plus`` is the + one: n+ adds each word's count once per +
    site, and n_even adds the counts of words with an even number of -
    sites.
    """
    n_plus = n_even = 0
    for count, word in zip(counts, itertools.product(range(2), repeat=n)):
        pluses = word.count(plus)
        n_plus += int(count) * pluses
        n_even += int(count) * ((n - pluses) % 2 == 0)
    return n_plus, n_even


def dense_score_mle(elements, generator, amplitudes, counts, lo, hi, points=1501):
    """argmax over [lo, hi] of sum_k n_k log p_k, p_k = <psi|E_k|psi> with psi = expm(-i phi H) psi_0, all dense.

    A scan of the log-likelihood over ``points`` phases brackets the
    maximum, and ``scipy.optimize.brentq`` finds the root of the score
    sum_k n_k p_k'/p_k, p_k' = 2 Re <psi|E_k|-i H psi>, between the best
    scan point's neighbours.  A best scan point on an end whose score points
    out of the interval returns that end.
    """
    elements = [np.asarray(e, dtype=complex) for e in elements]
    h = np.asarray(generator, dtype=complex)
    counts = np.asarray(counts, dtype=float)
    seen = counts > 0

    def probabilities_and_slopes(phi):
        psi = scipy.linalg.expm(-1j * phi * h) @ amplitudes
        tangent = -1j * (h @ psi)
        p = np.array([np.vdot(psi, e @ psi).real for e in elements])
        dp = np.array([2 * np.vdot(psi, e @ tangent).real for e in elements])
        return p, dp

    def loglik(phi):
        return counts[seen] @ np.log(probabilities_and_slopes(phi)[0][seen])

    def score(phi):
        p, dp = probabilities_and_slopes(phi)
        return counts[seen] @ (dp[seen] / p[seen])

    grid = np.linspace(lo, hi, points)
    best = int(np.argmax([loglik(phi) for phi in grid]))
    if (best == 0 and score(lo) <= 0) or (best == points - 1 and score(hi) >= 0):
        return float(grid[best])
    return scipy.optimize.brentq(score, grid[max(best - 1, 0)], grid[min(best + 1, points - 1)], xtol=1e-14)
