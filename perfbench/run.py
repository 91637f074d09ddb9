"""phasebound benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The load is a closed loop: one caller issues units back to back
for about S seconds (whole rounds; a report-scale round is one cycle of its
five shapes).  Every unit's outputs are checked by an independent oracle.
With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` rounds alternate untraced and traced, and it carries the
per-layer metrics of the traced units (per unit) and the tracing overhead.
A result file with the environment and every unit's record goes to
``perfbench/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread for this process and every unit it starts.  On a 2-vCPU
# host a second BLAS thread makes each dense product wait for the busier
# vCPU, which tripled the run-to-run spread of network-dense (README).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import oracles  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
WORKLOADS = ("trial-noon", "trial-siteprod", "report-scale", "network-dense")
HELD_OUT_SEED = 9001
NETWORK_SETUP_PROBES = 4
UNIT_TIMEOUT_S = 120

LAYER_SPANS = {
    "estimation.precision_trial": ("total_s", "self_s"),
    "estimation.mle_estimate": ("calls", "total_s", "self_s"),
    "estimation.sample_outcomes": ("total_s",),
    "estimation.tensor_power_povm": ("total_s",),
    "estimation.optimal_povm": ("total_s",),
    "metrology.outcome_probabilities": ("calls", "total_s"),
    "metrology.validate_povm": ("calls", "total_s"),
    "metrology.classical_fisher": ("total_s",),
    "metrology.build_report": ("total_s",),
    "metrology.mu_sweep": ("total_s",),
    "opalg.evolve": ("calls", "total_s"),
    "opalg.moments": ("calls", "total_s"),
    "opalg.hermitian_eigensystem": ("calls", "total_s"),
    "opalg.HermitianOperator.init": ("calls", "total_s"),
    "opalg.PureState.init": ("calls", "total_s"),
    "procedures.build_generator": ("total_s",),
    "procedures.JointGenerator.init": ("total_s",),
    "procedures.from_network": ("total_s",),
    "states.optimal_state": ("calls", "total_s"),
    "states.product_balanced_state": ("total_s",),
    "networks.QuantumNetwork.init": ("total_s",),
    "networks.generator_analytic": ("total_s",),
    "networks.generator_numeric": ("total_s",),
    "networks.network_unitary": ("calls",),
    "cli.load_scenario": ("total_s",),
    "cli.realize_scenario": ("total_s",),
    "cli.canonical_json": ("total_s",),
    "cli.main": ("self_s",),
}


def unit_of(field: str) -> str:
    return {"calls": "count", "total_s": "s", "self_s": "s"}[field]


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # the benchmark checkout need not be a git repository
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": commit,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
    }


def blas_threads() -> int | None:
    """Thread count OpenBLAS reports in this process; units inherit its environment."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def spawn(args: list[str]) -> tuple[int, dict, str, float]:
    """Run one child to completion; return (exit code, its JSON record, its output, wall seconds)."""
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "unit.py"), args[0], repr(started), *args[1:]],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=ROOT,
    )
    try:
        out, _ = proc.communicate(timeout=UNIT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    wall = time.monotonic() - started
    lines = out.splitlines()
    record = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    return proc.returncode, record, out, wall


def cli_unit(name: str, seed: int, index: int, traced: bool, workdir: Path, spans_out: Path | None) -> dict:
    path, expect = workloads.scenario(name, seed, index, workdir)
    trace_out = workdir / f"u{index:05d}_trace.json"
    args = ["cli", str(path)]
    if traced:
        args += [str(trace_out)] + ([str(spans_out)] if spans_out else [])
    rc, info, out, wall = spawn(args)
    record = {"index": index, "wall_s": wall, "traced": traced, "rc": rc, "failures": [], **info}
    if rc != 0 or not info:
        record["failures"].append(f"exit code {rc}: {out.strip()[-400:]}")
    else:
        try:
            record["failures"] += oracles.check_cli_unit(expect)
            if "trial" in expect["outputs"]:
                estimates = json.loads(Path(expect["outputs"]["trial"]).read_text())["estimates"]
                record["errors"] = [x - expect["trial"]["phi_true"] for x in estimates]
                record["crb"] = oracles.predicted_crb(expect)
            if traced:
                record["trace"] = json.loads(trace_out.read_text())
        except (OSError, ValueError, KeyError, TypeError) as exc:
            record["failures"].append(f"unreadable artifact: {type(exc).__name__}: {exc}")
    for leftover in [path, trace_out, *map(Path, expect["outputs"].values())]:
        leftover.unlink(missing_ok=True)
    return record


def run_cli_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path, spans_out: Path) -> dict:
    units: list[dict] = []
    start = time.monotonic()
    index = rounds = 0
    while True:
        traced = trace and rounds % 2 == 1
        round_start = time.monotonic()
        for _ in range(workloads.round_size(name)):
            # the span tree of the first traced unit is kept
            spans = spans_out if traced and not any(u["traced"] for u in units) else None
            units.append(cli_unit(name, seed, index, traced, workdir, spans))
            index += 1
        rounds += 1
        now = time.monotonic()
        # two rounds at least: a p90 needs two samples, a traced run one round of each kind
        if now - start + (now - round_start) > seconds and rounds >= 2:
            break
    return {
        "units": units,
        "setup_samples": [u["setup_s"] for u in units if "setup_s" in u],
        "peak_rss_mb": max((u.get("peak_rss_mb", 0.0) for u in units), default=0.0),
    }


def run_network_workload(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    setups = []
    for _ in range(NETWORK_SETUP_PROBES):
        rc, info, out, _ = spawn(["net", str(seed)])
        if rc != 0 or "setup_s" not in info:
            raise RuntimeError(f"network-dense setup probe failed with exit code {rc}: {out.strip()[-400:]}")
        setups.append(info["setup_s"])
    out_path = workdir / "network.json"
    rc, info, out, _ = spawn(["net", str(seed), repr(seconds), "1" if trace else "0", str(out_path)])
    if rc != 0 or "setup_s" not in info:
        raise RuntimeError(f"network-dense worker failed with exit code {rc}: {out.strip()[-400:]}")
    data = json.loads(out_path.read_text())
    return {"units": data["units"], "setup_samples": setups + [info["setup_s"]], "peak_rss_mb": info["peak_rss_mb"]}


def end_to_end_metrics(run: dict) -> dict:
    walls = [u["wall_s"] for u in run["units"]]
    failed = sum(1 for u in run["units"] if u["failures"])
    return {
        "units_per_s": (len(walls) / sum(walls), "1/s"),
        "unit_s_p50": (statistics.median(walls), "s"),
        "unit_s_p90": (statistics.quantiles(walls, n=10, method="inclusive")[-1], "s"),
        "setup_s": (statistics.median(run["setup_samples"]), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "ok_frac": ((len(walls) - failed) / len(walls), "frac"),
    }


def per_layer_metrics(run: dict) -> dict:
    traced = [u for u in run["units"] if u["traced"]]
    plain = [u for u in run["units"] if not u["traced"]]
    n = len(traced)
    spans: dict = {}
    counters: dict = {}
    for unit in traced:
        for name, stats in unit.get("trace", {}).get("spans", {}).items():
            acc = spans.setdefault(name, dict.fromkeys(stats, 0.0))
            for field, value in stats.items():
                acc[field] += value
        for name, value in unit.get("trace", {}).get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    metrics = {}
    for name, fields in LAYER_SPANS.items():
        for field in fields:
            metrics[f"{name}.{field}"] = (spans.get(name, {}).get(field, 0.0) / n, unit_of(field))
    estimates = spans.get("estimation.mle_estimate", {}).get("calls", 0)
    eigen_calls = spans.get("opalg.hermitian_eigensystem", {}).get("calls", 0)
    metrics["estimation.mle_estimate.model_calls_per_estimate"] = (
        counters.get("estimation.mle_estimate.model_calls", 0) / estimates if estimates else 0.0, "count")
    metrics["estimation.mle_estimate.boundary_frac"] = (
        counters.get("estimation.mle_estimate.boundary_hits", 0) / estimates if estimates else 0.0, "frac")
    metrics["opalg.hermitian_eigensystem.cache_hit_ratio"] = (
        counters.get("opalg.hermitian_eigensystem.cache_hits", 0) / eigen_calls if eigen_calls else 0.0, "frac")
    traced_rate = n / sum(u["wall_s"] for u in traced)
    plain_rate = len(plain) / sum(u["wall_s"] for u in plain)
    metrics["trace.units_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_units_per_s"] = (plain_rate, "1/s")
    metrics["trace.overhead_frac"] = (plain_rate / traced_rate - 1.0, "frac")
    return metrics


def rmse_check(run: dict) -> tuple[bool, str] | None:
    trials = [u for u in run["units"] if "errors" in u]
    if not trials:
        return None
    errors = [e for u in trials for e in u["errors"]]
    return oracles.pooled_rmse(errors, trials[0]["crb"])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "phasebound" / "__init__.py").is_file():
        print(f"perfbench: no phasebound source under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    spans_out = results / f"{stem}_spans.json"
    spans_out.unlink(missing_ok=True)
    (HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        if args.workload == "network-dense":
            run = run_network_workload(args.seed, args.seconds, trace, Path(tmp))
        else:
            run = run_cli_workload(args.workload, args.seed, args.seconds, trace, Path(tmp), spans_out)
    metrics = per_layer_metrics(run) if trace else end_to_end_metrics(run)
    metric_json = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    units = run["units"]
    failed = sum(1 for u in units if u["failures"])
    rmse = rmse_check(run)
    correct = failed == 0 and (rmse is None or rmse[0])
    for unit in units:
        for failure in unit["failures"]:
            print(f"FAILED unit {unit['index']}: {failure}")
    print(f"workload {args.workload}  seed {args.seed}  units {len(units)}  failed {failed}")
    if rmse is not None:
        print(("ok: " if rmse[0] else "FAILED: ") + rmse[1])
    for name, (value, unit) in metrics.items():
        print(f"{name:55s} {value:.6g} {unit}")
    env = environment(args.seed)
    result_file = results / f"{stem}.json"
    result_file.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seconds": args.seconds,
                "trace": args.trace,
                "environment": env,
                "unit_samples": len(units),
                "setup_samples": run["setup_samples"],
                "rmse": rmse and rmse[1],
                "metrics": metric_json,
                "units": units,
            },
            indent=1,
        )
    )
    print(f"result file {result_file.relative_to(ROOT)}; environment {json.dumps(env)}")
    print(
        json.dumps({"correct": correct, "attempted": len(units), "failed": failed, "metrics": metric_json})
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
