"""Self-tests of the benchmark: tracer counts, oracle rejection, trace neutrality.

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import unit  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

import phasebound  # noqa: E402
from phasebound import cli  # noqa: E402

GRID = 1000  # documented grid of mle_estimate
TOL = 1e-8  # documented golden-section tolerance
INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_calls(width: float) -> int:
    """Likelihood calls of golden-section search: two probes, then one per shrink by 1/phi."""
    return 2 + math.ceil(math.log(TOL / width) / math.log(INVPHI))


def shrink(path: Path, **trial) -> Path:
    scenario = json.loads(path.read_text())
    scenario["trial"].update(trial)
    path.write_text(json.dumps(scenario))
    return path


def tiny_unit(workload: str, tmp_path: Path, index: int = 0, n_trials: int | None = None):
    path, expect = workloads.scenario(workload, 7, index, tmp_path)
    if n_trials is not None:
        shrink(path, n_trials=n_trials)
        expect["trial"]["n_trials"] = n_trials
    return path, expect


def run_cli(path: Path) -> None:
    assert cli.main(["run", str(path)]) == 0


def traced_summary(path: Path) -> dict:
    with Tracer() as tracer:
        run_cli(path)
    return tracer.summary()


def test_tracer_counts_match_known_values(tmp_path):
    path, expect = tiny_unit("trial-noon", tmp_path, n_trials=2)
    summary = traced_summary(path)
    spans, counters = summary["spans"], summary["counters"]
    lo, hi = expect["trial"]["search_interval"]
    per_estimate = GRID + golden_calls(2 * (hi - lo) / (GRID - 1))
    assert spans["cli.main"]["calls"] == 1
    assert spans["estimation.precision_trial"]["calls"] == 1
    assert spans["estimation.mle_estimate"]["calls"] == 2
    assert counters["estimation.mle_estimate.model_calls"] == 2 * per_estimate
    # two TrialConfig builds (validation pass, render) and one in classical_fisher
    assert spans["metrology.validate_povm"]["calls"] == 3


def test_counts_repeat_exactly_across_traced_runs(tmp_path):
    path, _ = tiny_unit("trial-noon", tmp_path, n_trials=2)
    first, second = traced_summary(path), traced_summary(path)
    assert {k: v["calls"] for k, v in first["spans"].items()} == {k: v["calls"] for k, v in second["spans"].items()}
    assert first["counters"] == second["counters"]


def test_tracer_rebinds_every_namespace_and_restores():
    import phasebound.estimation as estimation
    import phasebound.opalg as opalg

    before = (estimation.evolve, cli.precision_trial, phasebound.precision_trial, opalg.PureState.__init__)
    with Tracer():
        assert estimation.evolve is opalg.evolve and estimation.evolve is not before[0]
        assert cli.precision_trial is estimation.precision_trial is phasebound.precision_trial
        assert cli.precision_trial is not before[1]
        assert opalg.PureState.__init__ is not before[3]
    after = (estimation.evolve, cli.precision_trial, phasebound.precision_trial, opalg.PureState.__init__)
    assert all(a is b for a, b in zip(before, after))


def test_every_boundary_warning_is_counted():
    # the likelihood of 100 hits on outcome 1 peaks at pi, far right of the interval
    def model(phi):
        return [math.cos(phi / 2) ** 2, math.sin(phi / 2) ** 2]

    filters = warnings.filters[:]
    with Tracer() as tracer:
        for _ in range(3):
            phasebound.mle_estimate([0, 100], model, (0.0, 1.0))
    assert tracer.summary()["counters"]["estimation.mle_estimate.boundary_hits"] == 3
    assert warnings.filters == filters


def unit_artifacts(path: Path, expect: dict, traced: bool, tmp_path: Path) -> dict:
    args = [sys.executable, str(HERE / "unit.py"), "cli", repr(time.monotonic()), str(path)]
    if traced:
        args.append(str(tmp_path / "trace.json"))
    subprocess.run(args, check=True, cwd=ROOT, capture_output=True, timeout=120)
    return {kind: Path(p).read_bytes() for kind, p in expect["outputs"].items()}


@pytest.mark.parametrize("workload,index", [("trial-noon", 0), ("report-scale", 1)])
def test_artifacts_identical_with_and_without_tracing(tmp_path, workload, index):
    path, expect = tiny_unit(workload, tmp_path, index, n_trials=2 if workload == "trial-noon" else None)
    plain = unit_artifacts(path, expect, False, tmp_path)
    traced = unit_artifacts(path, expect, True, tmp_path)
    assert plain == traced
    assert json.loads((tmp_path / "trace.json").read_text())["spans"]["cli.main"]["calls"] == 1


def corrupt_json(path: str, edit) -> None:
    data = json.loads(Path(path).read_text())
    edit(data)
    Path(path).write_text(json.dumps(data))


def assert_rejects(expect: dict, path: str, edit) -> None:
    original = Path(path).read_bytes()
    if path.endswith(".json"):
        corrupt_json(path, edit)
    else:
        Path(path).write_text(edit(Path(path).read_text()))
    assert oracles.check_cli_unit(expect), f"oracle accepted a corrupted {path}"
    Path(path).write_bytes(original)


def test_noon_oracle_rejects_corruption(tmp_path):
    path, expect = tiny_unit("trial-noon", tmp_path, n_trials=3)
    run_cli(path)
    assert oracles.check_cli_unit(expect) == []
    report, trial = expect["outputs"]["report"], expect["outputs"]["trial"]
    hi = expect["trial"]["search_interval"][1]
    edits = [
        (report, lambda d: d.update(bound_new_hl=d["bound_new_hl"] * (1 + 1e-6))),
        (report, lambda d: d.update(bound_stddev=0.5)),
        (report, lambda d: d.update(q=4)),
        (trial, lambda d: d.update(predicted_crb=d["predicted_crb"] * 1.001)),
        (trial, lambda d: d["estimates"].__setitem__(0, hi + 1e-3)),
        (trial, lambda d: d["estimates"].pop()),
    ]
    for target, edit in edits:
        assert_rejects(expect, target, edit)


def test_siteprod_oracle_rejects_corruption(tmp_path):
    path, expect = tiny_unit("trial-siteprod", tmp_path, n_trials=1)
    run_cli(path)
    assert oracles.check_cli_unit(expect) == []
    assert_rejects(expect, expect["outputs"]["trial"], lambda d: d.update(predicted_crb=1 / math.sqrt(5000)))
    assert_rejects(expect, expect["outputs"]["report"], lambda d: d.update(stddev=d["stddev"] * 1.0001))


def test_report_scale_oracle_rejects_corruption(tmp_path):
    path, expect = tiny_unit("report-scale", tmp_path, index=1)
    run_cli(path)
    assert oracles.check_cli_unit(expect) == []
    report, sweep = expect["outputs"]["report"], expect["outputs"]["mu_sweep"]
    for key in ("seminorm", "expectation_shifted", "stddev"):
        assert_rejects(expect, report, lambda d, key=key: d.update({key: d[key] * (1 + 1e-7)}))
    assert_rejects(expect, report, lambda d: d.update(q=d["q"] + 1))

    def bump_row(text):
        lines = text.splitlines()
        mu, shifted, stddev = lines[40].split(",")
        lines[40] = ",".join([mu, shifted, repr(float(stddev) * (1 + 1e-7))])
        return "\n".join(lines) + "\n"

    assert_rejects(expect, sweep, bump_row)
    assert_rejects(expect, sweep, lambda text: "\n".join(text.splitlines()[:-1]) + "\n")


def test_network_oracle_rejects_corruption():
    inputs = workloads.network_inputs(7, 1, qubits=4)
    good = unit.network_outputs(unit.network_unit(inputs))
    assert oracles.check_network(inputs, good) == []

    def bump_entry(out):
        out["numeric"] = out["numeric"].copy()
        out["numeric"][0, 1] += 1e-3

    edits = [
        bump_entry,
        lambda out: out.update(gen_q=out["gen_q"] - 1),
        lambda out: out["report"].update(expectation_shifted=out["report"]["expectation_shifted"] * 1.001),
        lambda out: out.update(kbody_h_max=out["kbody_h_max"] + 1e-6),
        lambda out: out.update(kbody_trace=out["kbody_trace"] * 1.001),
    ]
    for edit in edits:
        out = dict(good, report=dict(good["report"]))
        edit(out)
        assert oracles.check_network(inputs, out), "network oracle accepted a corrupted output"


def test_pooled_rmse_accepts_efficient_and_rejects_inflated_errors():
    rng = np.random.default_rng(3)
    crb = 0.01
    assert oracles.pooled_rmse(rng.normal(0, crb, 400), crb)[0]
    assert not oracles.pooled_rmse(rng.normal(0, 1.3 * crb, 400), crb)[0]
    assert not oracles.pooled_rmse(rng.normal(0, 3 * crb, 30), crb)[0]


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = [
        {"wall_s": 1.0 + i, "traced": i % 2 == 1, "failures": [], "trace": {"spans": {}, "counters": {}}}
        for i in range(4)
    ]
    fake = {"units": units, "setup_samples": [0.2], "peak_rss_mb": 40.0}
    assert list(run.end_to_end_metrics(fake)) == [m["name"] for m in bench["end_to_end"]]
    assert list(run.per_layer_metrics(fake)) == [m["name"] for m in bench["per_layer"]]
    for group in ("end_to_end", "per_layer"):
        produced = run.end_to_end_metrics(fake) if group == "end_to_end" else run.per_layer_metrics(fake)
        assert [u for _, u in produced.values()] == [m["unit"] for m in bench[group]]


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trial-noon", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
