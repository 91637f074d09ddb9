"""Acceptance gate: ten end-to-end criteria with their stated tolerances.

Each test prints one PASS/FAIL line (visible with -rA or on failure) and
asserts the same condition, so the pytest -v report carries one verdict per
criterion.
"""
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np

import phasebound.cli as cli
from phasebound.cli import compare_procedures
from phasebound.estimation import TrialConfig, optimal_povm, precision_trial
from phasebound.metrology import NO_SENSITIVITY, build_report
from phasebound.networks import (
    BlackBox,
    QuantumNetwork,
    generator_analytic,
    generator_numeric,
    query_count,
)
from phasebound.opalg import HermitianOperator, PureState, moments
from phasebound.procedures import (
    ProcedureSpec,
    build_generator,
    closed_form_extremes,
    from_network,
    snl_baseline,
)
from phasebound.states import mode_number_generator, noon_state, optimal_state
from util import random_unitary, rng

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def verdict(num, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_bound_chain_identity():
    t0 = time.monotonic()
    worst = 0.0
    cases = 0
    for n in range(2, 7):
        specs = [
            ProcedureSpec("linear", n, (0.0, 1.0)),
            ProcedureSpec("kbody", n, (0.0, 1.0), body_order=2),
            ProcedureSpec("exponential", n, (0.0, 1.0)),
            ProcedureSpec("sequential-wrapped", n, (0.0, 1.0), repetitions=3),
        ]
        if n >= 3:
            specs.append(ProcedureSpec("kbody", n, (0.0, 1.0), body_order=3))
        for spec in specs:
            gen = build_generator(spec)
            rep = build_report(optimal_state(gen, 0.5), gen, spec)
            dev = max(
                abs(rep.bound_new_hl - rep.bound_stddev),
                abs(rep.bound_new_hl - rep.bound_query),
            )
            worst = max(worst, dev)
            cases += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    verdict(1, ok, f"{cases} kind/N cases, worst bound deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_closed_form_extremes():
    t0 = time.monotonic()

    def enumeration_extremes(spec):
        lo, hi = spec.base_eigs
        levels = np.linspace(lo, hi, spec.subsystem_dim)
        n = spec.n_systems
        if spec.kind == "linear":
            subsets = [(j,) for j in range(n)]
        elif spec.kind == "kbody":
            subsets = list(itertools.combinations(range(n), spec.body_order))
        else:
            subsets = [s for r in range(1, n + 1) for s in itertools.combinations(range(n), r)]
        values = [
            sum(math.prod(levels[digits[j]] for j in s) for s in subsets)
            for digits in itertools.product(range(spec.subsystem_dim), repeat=n)
        ]
        return min(values), max(values)

    worst = 0.0
    cases = 0
    for base in ((0.0, 1.0), (0.2, 0.9)):
        for n in range(1, 9):
            specs = [ProcedureSpec("linear", n, base)]
            for k in range(2, min(n, 4) + 1):
                specs.append(ProcedureSpec("kbody", n, base, body_order=k))
            specs.append(ProcedureSpec("exponential", n, base))
            for spec in specs:
                lo_e, hi_e = enumeration_extremes(spec)
                q, lo_c, hi_c = closed_form_extremes(spec)
                dev = max(abs(lo_c - lo_e), abs(hi_c - hi_e))
                if spec.dim <= 256:
                    gen = build_generator(spec)
                    dev = max(dev, abs(gen.h_min - lo_e), abs(gen.h_max - hi_e))
                    assert gen.query_complexity == q
                worst = max(worst, dev)
                cases += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    verdict(2, ok, f"{cases} specs vs subset enumeration, worst extreme deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_generator_equivalence():
    g = rng(1003)
    worst = 0.0
    for _ in range(100):
        n_boxes = int(g.integers(1, 5))
        layers = [random_unitary(g, 4)]
        for _ in range(n_boxes):
            base = HermitianOperator.from_diagonal(np.sort(g.uniform(0.0, 2.0, size=2)))
            layers.append(BlackBox(base, (int(g.integers(0, 2)),)))
            layers.append(random_unitary(g, 4))
        net = QuantumNetwork(2, 2, tuple(layers))
        phi = float(g.uniform(-2.0, 2.0))
        ana, terms = generator_analytic(net, phi)
        num = generator_numeric(net, phi)
        assert len(list(terms)) == query_count(net)
        worst = max(worst, float(np.max(np.abs(ana.entries - num.entries))))
    ok = worst <= 1e-6
    verdict(3, ok, f"100 random two-qubit networks, worst |analytic - numeric| = {worst:.2e}")


def test_criterion_04_mu_sweep_identities(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["sweep-mu", "--seminorm", "1", "--grid", "101", "--out", "fig5.csv"]) == 0
    lines = (tmp_path / "fig5.csv").read_text().strip().splitlines()
    assert lines[0] == "mu,shifted_expectation,stddev"
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert len(rows) == 101
    worst = 0.0
    crossings = []
    for mu, shifted, stddev in rows:
        worst = max(worst, abs(shifted - mu), abs(stddev - math.sqrt(mu * (1 - mu))))
        if abs(shifted - stddev) < 1e-10:
            crossings.append(mu)
    ok = worst <= 1e-10 and crossings == [0.0, 0.5]
    verdict(4, ok, f"101 grid points, worst identity deviation {worst:.2e}, crossings at {crossings}")


def test_criterion_05_scaling_exponents():
    rows, _ = compare_procedures([2, 4, 8, 16, 32, 64], ["linear"])
    slope_lin = np.polyfit(np.log([r[1] for r in rows]), np.log([r[4] for r in rows]), 1)[0]
    rows, _ = compare_procedures([64, 128, 256, 512], ["kbody:2"])
    slope_k2 = np.polyfit(np.log([r[1] for r in rows]), np.log([r[4] for r in rows]), 1)[0]
    rows, _ = compare_procedures([8, 9], ["exponential"])
    ratio = rows[1][4] / rows[0][4]
    ok = (
        abs(slope_lin + 1.0) <= 0.01
        and abs(slope_k2 + 2.0) <= 0.02
        and abs(ratio - 0.5) / 0.5 <= 0.02
    )
    verdict(
        5,
        ok,
        f"linear slope {slope_lin:.4f}, pairwise slope {slope_k2:.4f}, "
        f"exponential bound ratio {ratio:.4f}",
    )


def test_criterion_06_snl_hl_separation():
    ns = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
    sep = []
    opt = []
    for n in ns:
        spec = ProcedureSpec("linear", int(n), (0.0, 1.0))
        delta, _ = snl_baseline(spec)  # per-site moments on the diagonal fast path
        sep.append(4.0 * delta**2)
        q, lo, hi = closed_form_extremes(spec)
        eff = PureState(np.array([math.sqrt(0.5), math.sqrt(0.5)]))
        two_level = HermitianOperator.from_diagonal(np.array([lo, hi]))
        opt.append(4.0 * moments(eff, two_level)[1])
    slope_sep = np.polyfit(np.log(ns), np.log(sep), 1)[0]
    slope_opt = np.polyfit(np.log(ns), np.log(opt), 1)[0]
    ok = abs(slope_sep - 1.0) <= 0.01 and abs(slope_opt - 2.0) <= 0.01
    verdict(6, ok, f"separable QFI slope {slope_sep:.4f}, optimal-state QFI slope {slope_opt:.4f}")


def test_criterion_07_monte_carlo_saturation():
    t0 = time.monotonic()
    gen = mode_number_generator(3)
    cfg = TrialConfig(
        phi_true=0.4,
        shots_per_trial=1000,
        n_trials=200,
        rng_seed=20260819,
        povm=optimal_povm(gen),
        search_interval=(0.1, 0.9),
    )
    res = precision_trial(gen, noon_state(3), cfg)
    ideal = 1.0 / (3.0 * math.sqrt(1000.0))
    rel = abs(res.empirical_rmse - ideal) / ideal
    elapsed = time.monotonic() - t0
    ok = rel <= 0.15 and elapsed < 60.0
    verdict(
        7,
        ok,
        f"RMSE {res.empirical_rmse:.6f} vs 1/(N sqrt(nu)) = {ideal:.6f} "
        f"({100 * rel:.1f}% off), {elapsed:.1f}s",
    )


def test_criterion_08_coherent_probe_report():
    from phasebound.states import coherent_state, number_operator

    state = coherent_state(2.0, 40)
    gen = number_operator(40)
    rep = build_report(state, gen)
    payload = json.loads(cli.canonical_json(rep.to_dict()))
    ok = (
        abs(rep.expectation_shifted - 4.0) <= 1e-6
        and abs(rep.bound_new_hl - 0.125) <= 1e-6
        and "q" not in payload
        and "bound_query" not in payload
    )
    verdict(
        8,
        ok,
        f"shifted expectation {rep.expectation_shifted:.8f}, bound {rep.bound_new_hl:.8f}, "
        f"q omitted: {'q' not in payload}",
    )


def test_criterion_09_degenerate_generator():
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    box = lambda: BlackBox(HermitianOperator.from_diagonal([0.0, 1.0]), (0,))
    net = QuantumNetwork(1, 2, (np.eye(2), box(), x, box(), np.eye(2)))
    gen = from_network(net, 0.3)
    off_identity = float(np.max(np.abs(gen.generator.entries - np.eye(2))))
    rep = build_report(PureState(np.array([1.0, 1.0]) / math.sqrt(2)), gen)
    ok = (
        gen.query_complexity == 2
        and off_identity <= 1e-9
        and rep.bound_new_hl == NO_SENSITIVITY
        and rep.bound_stddev == NO_SENSITIVITY
    )
    verdict(
        9,
        ok,
        f"Q = {gen.query_complexity}, |H - I| = {off_identity:.2e}, "
        f"bounds = ({rep.bound_new_hl}, {rep.bound_stddev})",
    )


def test_criterion_10_golden_determinism(tmp_path, monkeypatch):
    scenario_files = sorted(SCENARIOS.glob("*.json"))
    assert scenario_files, "bundled scenarios missing"
    mismatches = []
    artifacts = 0
    for scen in scenario_files:
        snapshots = []
        for attempt in ("first", "second"):
            workdir = tmp_path / f"{scen.stem}-{attempt}"
            workdir.mkdir()
            monkeypatch.chdir(workdir)
            assert cli.main(["run", str(scen)]) == 0
            raw = json.loads(scen.read_text())
            blob = {
                entry["path"]: (workdir / entry["path"]).read_bytes()
                for entry in raw.get("outputs", [])
            }
            snapshots.append(blob)
        artifacts += len(snapshots[0])
        if snapshots[0] != snapshots[1]:
            mismatches.append(scen.name)
    ok = not mismatches
    verdict(
        10,
        ok,
        f"{len(scenario_files)} scenarios, {artifacts} artifacts byte-identical across reruns"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )
