"""Independent checks of every unit's outputs.

Each oracle recomputes the expected values from the generating parameters
with hand-written closed forms and plain numpy, never through the package
code it checks.  A check returns a list of failure strings; empty means the
output passed.
"""

from __future__ import annotations

import json
import math

import numpy as np

REL_TOL = 1e-9
CRB_REL_TOL = 1e-6
NETWORK_TOL = 1e-6
# acceptance criterion 07: pooled RMSE within 15% of the Cramer-Rao value
RMSE_REL_TOL = 0.15
# the RMSE ratio has standard error about 1/sqrt(2n) for n efficient
# estimates; a run pooling few trials widens the band to this many errors
RMSE_SIGMAS = 4.0


def _close(got, want, scale: float, rel: float = REL_TOL) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= rel * max(1.0, abs(scale))


def joint_extremes(procedure: dict) -> tuple[int, float, float]:
    """Query count and extreme eigenvalues of a procedure on a diagonal base with 0 <= lo < hi."""
    lo, hi = procedure["base_eigs"]
    n = procedure["n_systems"]
    kind = procedure["kind"]
    if kind == "linear":
        return n, n * lo, n * hi
    if kind == "kbody":
        k = procedure["body_order"]
        q = math.comb(n, k)
        return q, q * lo**k, q * hi**k
    if kind == "exponential":
        # sum over nonempty subsets of lo^|s| is (1 + lo)^n - 1 by the binomial theorem
        return 2**n - 1, (1 + lo) ** n - 1, (1 + hi) ** n - 1
    if kind == "sequential-wrapped":
        t = procedure["repetitions"]
        return t * n, t * n * lo, t * n * hi
    raise ValueError(f"unknown procedure kind {kind!r}")


def check_report(report: dict, expect: dict) -> list[str]:
    kind = expect["kind"]
    fails = []
    if kind == "noon":
        n = expect["n"]
        want = {"bound_new_hl": 1.0 / n, "bound_stddev": 1.0 / n}
        q, seminorm = n, float(n)
    else:
        q, h_lo, h_hi = joint_extremes(expect["procedure"])
        seminorm = h_hi - h_lo
        if kind == "optimal_mu":
            mu = expect["mu"]
            shifted, stddev = mu * seminorm, seminorm * math.sqrt(mu * (1 - mu))
        else:  # product_balanced over a linear procedure: site variances add
            n = expect["procedure"]["n_systems"]
            lo, hi = expect["procedure"]["base_eigs"]
            shifted, stddev = n * (hi - lo) / 2, math.sqrt(n) * (hi - lo) / 2
        want = {"seminorm": seminorm, "expectation_shifted": shifted, "stddev": stddev}
    if report.get("q") != q:
        fails.append(f"report q {report.get('q')!r} != {q}")
    for key, value in want.items():
        if not _close(report.get(key), value, seminorm):
            fails.append(f"report {key} {report.get(key)!r} != {value!r}")
    return fails


def check_sweep(text: str, expect: dict) -> list[str]:
    _, h_lo, h_hi = joint_extremes(expect["procedure"])
    seminorm = h_hi - h_lo
    lines = text.splitlines()
    grid = expect["grid"]
    if lines[:1] != ["mu,shifted_expectation,stddev"] or len(lines) != grid + 1:
        return [f"sweep has header {lines[:1]!r} and {len(lines) - 1} rows, expected {grid}"]
    fails = []
    for j, line in enumerate(lines[1:]):
        mu, shifted, stddev = (float(cell) for cell in line.split(","))
        want_mu = j / (grid - 1)
        want = (want_mu, want_mu * seminorm, seminorm * math.sqrt(want_mu * (1 - want_mu)))
        if not (
            _close(mu, want[0], 1.0) and _close(shifted, want[1], seminorm) and _close(stddev, want[2], seminorm)
        ):
            fails.append(f"sweep row {j} {line!r} != {want!r}")
    return fails


def predicted_crb(expect: dict) -> float:
    """Cramer-Rao value of the generated trial: 1/(N sqrt(shots)) for NOON, 1/sqrt(shots N) per-site."""
    shots = expect["trial"]["shots_per_trial"]
    if expect["kind"] == "noon":
        return 1.0 / (expect["n"] * math.sqrt(shots))
    lo, hi = expect["procedure"]["base_eigs"]
    return 1.0 / ((hi - lo) * math.sqrt(shots * expect["procedure"]["n_systems"]))


def check_trial(result: dict, expect: dict) -> list[str]:
    trial = expect["trial"]
    fails = []
    crb = predicted_crb(expect)
    got = result.get("predicted_crb")
    if not (isinstance(got, float) and abs(got - crb) <= CRB_REL_TOL * crb):
        fails.append(f"predicted_crb {result.get('predicted_crb')!r} != {crb!r}")
    estimates = result.get("estimates", [])
    if len(estimates) != trial["n_trials"]:
        fails.append(f"{len(estimates)} estimates for {trial['n_trials']} trials")
    lo, hi = trial["search_interval"]
    outside = [x for x in estimates if not lo <= x <= hi]
    if outside:
        fails.append(f"estimates outside the search interval ({lo}, {hi}): {outside[:3]!r}")
    return fails


def check_cli_unit(expect: dict) -> list[str]:
    """Read and check every artifact a CLI unit wrote."""
    outputs = expect["outputs"]
    with open(outputs["report"], encoding="utf-8") as fh:
        fails = check_report(json.load(fh), expect)
    if "trial" in outputs:
        with open(outputs["trial"], encoding="utf-8") as fh:
            fails += check_trial(json.load(fh), expect)
    if "mu_sweep" in outputs:
        with open(outputs["mu_sweep"], encoding="utf-8") as fh:
            fails += check_sweep(fh.read(), expect)
    return fails


def pooled_rmse(errors, crb: float) -> tuple[bool, str]:
    """Pooled RMSE against the Cramer-Rao value, within 15% or four standard errors."""
    errors = np.asarray(errors, dtype=float)
    n = errors.size
    rmse = float(np.sqrt(np.mean(errors**2)))
    tol = max(RMSE_REL_TOL, RMSE_SIGMAS / math.sqrt(2 * n))
    rel = abs(rmse / crb - 1.0)
    return rel <= tol, f"pooled RMSE {rmse:.6g} over {n} trials vs CRB {crb:.6g}: {100 * rel:.1f}% off, limit {100 * tol:.1f}%"


def check_network(inputs: dict, out: dict) -> list[str]:
    """Cross-check one network-dense unit; ``out`` holds plain arrays and numbers."""
    n, d = inputs["qubits"], 2
    a, b = inputs["base_eigs"]
    scale = n * b
    fails = []
    analytic, numeric = out["analytic"], out["numeric"]
    gap = float(np.max(np.abs(analytic - numeric)))
    if gap > NETWORK_TOL * scale:
        fails.append(f"analytic and numeric generators differ by {gap:.3e}")
    # trace is invariant under the conjugations, so each box adds d^(n-1) tr(base)
    trace = n * d ** (n - 1) * (a + b)
    for label, gen, tol in (("analytic", analytic, REL_TOL), ("numeric", numeric, NETWORK_TOL)):
        got = float(np.trace(gen).real)
        if abs(got - trace) > tol * trace:
            fails.append(f"{label} generator trace {got!r} != {trace!r}")
    eigs = np.linalg.eigvalsh((numeric + numeric.conj().T) / 2)
    seminorm = float(eigs[-1] - eigs[0])
    if out["gen_q"] != n:
        fails.append(f"network query count {out['gen_q']} != {n}")
    if abs(out["gen_seminorm"] - seminorm) > NETWORK_TOL * scale:
        fails.append(f"network seminorm {out['gen_seminorm']!r} != {seminorm!r}")
    report, mu = out["report"], inputs["mu"]
    want = {
        "seminorm": seminorm,
        "expectation_shifted": mu * seminorm,
        "stddev": seminorm * math.sqrt(mu * (1 - mu)),
    }
    for key, value in want.items():
        if not _close(report.get(key), value, scale, NETWORK_TOL):
            fails.append(f"network report {key} {report.get(key)!r} != {value!r}")
    k = out["kbody_order"]
    q = math.comb(n, k)
    # the kbody generator is U^(x)n-conjugate to the diagonal one built from (a, b)
    kb_want = {
        "kbody_q": q,
        "kbody_h_min": q * a**k,
        "kbody_h_max": q * b**k,
        "kbody_trace": q * (a + b) ** k * d ** (n - k),
    }
    for key, value in kb_want.items():
        if not _close(out[key], value, value):
            fails.append(f"{key} {out[key]!r} != {value!r}")
    return fails
