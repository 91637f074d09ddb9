"""Seeded inputs for the four benchmark workloads.

Every input is a pure function of (workload seed, unit index): scenario
files for the three CLI workloads, dense arrays for ``network-dense``.  The
``expect`` dict returned next to each input carries what the oracles need;
it is derived from the generating parameters, never from the package.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

SCHEMA = "metrology-scenario/1"
# distinct spawn keys keep the four workloads' streams independent
STREAM = {"trial-noon": 1, "trial-siteprod": 2, "report-scale": 3, "network-dense": 4}

NOON_PHOTONS = 3
NOON_TRIALS = 25
SITEPROD_N = 6
SITEPROD_TRIALS = 3
SHOTS = 1000
SWEEP_GRID = 101
# report-scale cycles through these in this order; linear N = 12 is the
# 4096-dimensional case that dominates time and memory
REPORT_CYCLE = (
    {"kind": "linear", "n_systems": 12},
    {"kind": "kbody", "n_systems": 10, "body_order": 2},
    {"kind": "exponential", "n_systems": 10},
    {"kind": "sequential-wrapped", "n_systems": 10, "repetitions": 3},
    {"kind": "linear", "n_systems": 10, "state": "product_balanced"},
)
NET_QUBITS = 8
NET_KBODY_ORDER = 2


def unit_rng(workload: str, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(STREAM[workload], index)))


def round_size(workload: str) -> int:
    """Units per round: report-scale runs whole cycles so every round has the same mix."""
    return len(REPORT_CYCLE) if workload == "report-scale" else 1


def _trial_section(rng, phi_true: float, half_width: float, n_trials: int, povm: str) -> dict:
    return {
        "phi_true": phi_true,
        "shots_per_trial": SHOTS,
        "n_trials": n_trials,
        "rng_seed": int(rng.integers(0, 2**31)),
        "search_interval": [phi_true - half_width, phi_true + half_width],
        "povm": povm,
    }


def scenario(workload: str, seed: int, index: int, workdir: Path) -> tuple[Path, dict]:
    """Write one unit's scenario file into ``workdir``; return its path and oracle expectations."""
    rng = unit_rng(workload, seed, index)
    stem = workdir / f"u{index:05d}"
    outputs = {"report": f"{stem}_report.json"}
    expect: dict = {"outputs": outputs}
    body: dict = {"schema": SCHEMA, "name": f"{workload}-{seed}-{index}"}
    if workload == "trial-noon":
        # 3*phi stays inside (0, pi) over the whole interval, away from the
        # points where the parity likelihood is flat or mirror-symmetric
        phi = float(rng.uniform(0.35, 0.7))
        trial = _trial_section(rng, phi, 0.25, NOON_TRIALS, "optimal")
        body.update(state={"kind": "noon", "n_photons": NOON_PHOTONS}, phi=phi, trial=trial)
        outputs["trial"] = f"{stem}_trial.json"
        expect.update(kind="noon", n=NOON_PHOTONS, trial=trial)
    elif workload == "trial-siteprod":
        # per-site phase stays inside (0, pi): unit site Fisher information
        phi = float(rng.uniform(0.6, 1.4))
        trial = _trial_section(rng, phi, 0.25, SITEPROD_TRIALS, "site-product")
        procedure = {"kind": "linear", "n_systems": SITEPROD_N, "base_eigs": [0.0, 1.0]}
        body.update(procedure=procedure, state={"kind": "product_balanced"}, phi=phi, trial=trial)
        outputs["trial"] = f"{stem}_trial.json"
        expect.update(kind="product_balanced", procedure=procedure, trial=trial)
    elif workload == "report-scale":
        shape = dict(REPORT_CYCLE[index % len(REPORT_CYCLE)])
        state_kind = shape.pop("state", "optimal_mu")
        lo = float(rng.uniform(0.0, 0.5))
        hi = lo + float(rng.uniform(0.5, 1.5))
        mu = float(rng.uniform(0.05, 0.95))
        phi = float(rng.uniform(-math.pi, math.pi))
        procedure = dict(shape, base_eigs=[lo, hi])
        state = {"kind": "optimal_mu", "mu": mu} if state_kind == "optimal_mu" else {"kind": state_kind}
        outputs["mu_sweep"] = f"{stem}_sweep.csv"
        body.update(procedure=procedure, state=state, phi=phi)
        expect.update(kind=state_kind, procedure=procedure, mu=mu, grid=SWEEP_GRID)
    else:
        raise ValueError(f"{workload} has no scenario files")
    body["outputs"] = [
        {"type": kind, "path": path, **({"grid": SWEEP_GRID} if kind == "mu_sweep" else {})}
        for kind, path in outputs.items()
    ]
    path = Path(f"{stem}.json")
    path.write_text(json.dumps(body, indent=1), encoding="utf-8")
    return path, expect


def _haar_unitary(rng, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def network_inputs(seed: int, index: int, qubits: int = NET_QUBITS) -> dict:
    """Arrays for one network-dense unit: a random qubit base, fixed unitaries, mu and phi.

    The base is U diag(a, b) U^dag with 0 < a < b, so its eigenvalues are
    known exactly without any eigensolver and no box shift is applied.
    """
    rng = unit_rng("network-dense", seed, index)
    a = float(rng.uniform(0.1, 0.5))
    b = a + float(rng.uniform(0.5, 1.5))
    u = _haar_unitary(rng, 2)
    base = (u * np.array([a, b])) @ u.conj().T
    base = (base + base.conj().T) / 2
    dim = 2**qubits
    fixed = [_haar_unitary(rng, dim) for _ in range(qubits + 1)]
    return {
        "qubits": qubits,
        "base": base,
        "base_eigs": (a, b),
        "fixed": fixed,
        "phi": float(rng.uniform(-1.0, 1.0)),
        "mu": float(rng.uniform(0.1, 0.9)),
    }
