"""Child-process entry points of the benchmark.

    unit.py cli SPAWNED SCENARIO [TRACE_OUT [SPANS_OUT]]
        One CLI unit in a fresh interpreter: ``phasebound run SCENARIO``.
    unit.py net SPAWNED SEED [SECONDS TRACE OUT]
        network-dense: import, one untimed warm-up unit, then (when SECONDS
        is given) units back to back in this one process.

SPAWNED is the parent's ``time.monotonic()`` just before it started this
process; the system-wide monotonic clock makes ``now - SPAWNED`` the time
from process start.  The last stdout line is a JSON record for the parent.
"""

import sys
import time

# imported as a library (by the self-tests) there is no parent clock
SPAWNED = float(sys.argv[2]) if __name__ == "__main__" else time.monotonic()

from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import phasebound  # noqa: E402

IMPORT_S = time.monotonic() - SPAWNED

import json  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def emit(setup_s: float) -> None:
    """Last stdout line: set-up time and this process's peak resident set."""
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    print(json.dumps({"setup_s": setup_s, "peak_rss_mb": peak_mb}))


def run_cli(scenario: str, trace_out: str | None, spans_out: str | None) -> int:
    from phasebound import cli

    if trace_out is None:
        rc = cli.main(["run", scenario])
    else:
        with Tracer() as tracer:
            rc = cli.main(["run", scenario])
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
        if spans_out:
            with open(spans_out, "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
    emit(IMPORT_S)
    return rc


def network_unit(inputs: dict):
    """The network-dense unit: everything here goes through the public API."""
    pb = phasebound
    n = inputs["qubits"]
    base = pb.HermitianOperator(inputs["base"])
    layers = [inputs["fixed"][0]]
    for site in range(n):
        layers += [pb.BlackBox(base, (site,)), inputs["fixed"][site + 1]]
    net = pb.QuantumNetwork(n, 2, layers)
    phi = inputs["phi"]
    analytic, _ = pb.generator_analytic(net, phi)
    numeric = pb.generator_numeric(net, phi)
    gen = pb.from_network(net, phi)
    probe = pb.optimal_state(gen, inputs["mu"])
    report = pb.build_report(pb.evolve(probe, gen.generator, phi), gen)
    spec = pb.ProcedureSpec("kbody", n, inputs["base_eigs"], body_order=workloads.NET_KBODY_ORDER)
    kbody = pb.kbody_generator(spec, base)
    return analytic, numeric, gen, report, kbody


def network_outputs(result) -> dict:
    """Plain arrays and numbers from a network unit's result, for the oracle."""
    analytic, numeric, gen, report, kbody = result
    return {
        "analytic": np.asarray(analytic.entries),
        "numeric": np.asarray(numeric.entries),
        "gen_q": gen.query_complexity,
        "gen_seminorm": gen.seminorm,
        "report": report.to_dict(),
        "kbody_order": workloads.NET_KBODY_ORDER,
        "kbody_q": kbody.query_complexity,
        "kbody_h_min": kbody.h_min,
        "kbody_h_max": kbody.h_max,
        "kbody_trace": float(np.trace(kbody.generator.entries).real),
    }


def run_network(seed: int, seconds: float | None, trace: bool, out: str | None) -> int:
    warm = workloads.network_inputs(seed, 0)
    network_unit(warm)
    setup_s = time.monotonic() - SPAWNED
    if seconds is None:
        emit(setup_s)
        return 0
    units = []
    start = time.monotonic()
    index = 1
    while True:
        round_start = time.monotonic()
        traced = trace and index % 2 == 0
        inputs = workloads.network_inputs(seed, index)
        tracer = Tracer() if traced else None
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            result = network_unit(inputs)
            error = None
        except Exception as exc:  # a raising unit counts as failed; the run goes on
            result, error = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if tracer:
            tracer.uninstall()
        fails = [error] if error else oracles.check_network(inputs, network_outputs(result))
        units.append(
            {"index": index, "wall_s": wall, "traced": traced, "failures": fails,
             "trace": tracer.summary() if tracer else None}
        )
        index += 1
        now = time.monotonic()
        if now - start + (now - round_start) > seconds and index > 2:
            break
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"setup_s": setup_s, "units": units}, fh)
    emit(setup_s)
    return 0


def main(argv: list[str]) -> int:
    mode = argv[1]
    if mode == "cli":
        rest = argv[3:] + [None, None, None]
        return run_cli(rest[0], rest[1], rest[2])
    if mode == "net":
        seed = int(argv[3])
        if len(argv) > 4:
            return run_network(seed, float(argv[4]), argv[5] == "1", argv[6])
        return run_network(seed, None, False, None)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv))
