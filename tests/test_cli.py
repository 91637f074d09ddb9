import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import phasebound.cli as cli
import phasebound.estimation as estimation
from phasebound.errors import NumericalIntegrityError
from phasebound.opalg import DIM_CAP, evolve
from util import dense_product_probabilities, fringe_mle_bounded, product_probe_mle, site_product_reduced_counts

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def minimal_scenario(**overrides):
    payload = {
        "schema": "metrology-scenario/1",
        "name": "unit",
        "procedure": {"kind": "linear", "n_systems": 2, "base_eigs": [0.0, 1.0]},
        "state": {"kind": "optimal_mu", "mu": 0.5},
        "phi": 0.0,
        "outputs": [{"type": "report", "path": "out/report.json"}],
    }
    payload.update(overrides)
    return payload


# ------------------------------------------------------------------- sweep-mu

def test_sweep_mu_writes_expected_columns(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["sweep-mu", "--seminorm", "1", "--grid", "11", "--out", "sweep.csv"]) == 0
    header, rows = read_csv(tmp_path / "sweep.csv")
    assert header == ["mu", "shifted_expectation", "stddev"]
    assert len(rows) == 11
    for row in rows:
        mu, shifted, stddev = (float(x) for x in row)
        assert shifted == pytest.approx(mu, abs=1e-12)
        assert stddev == pytest.approx(math.sqrt(mu * (1 - mu)), abs=1e-12)


def test_sweep_mu_scales_with_seminorm(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cli.main(["sweep-mu", "--seminorm", "3", "--grid", "5", "--out", "s.csv"])
    _, rows = read_csv(tmp_path / "s.csv")
    mid = [float(x) for x in rows[2]]
    assert mid[0] == pytest.approx(0.5)
    assert mid[1] == pytest.approx(1.5, abs=1e-12)
    assert mid[2] == pytest.approx(1.5, abs=1e-12)


def test_sweep_mu_stdout(capsys):
    assert cli.main(["sweep-mu", "--seminorm", "1", "--grid", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "mu,shifted_expectation,stddev"
    assert len(out) == 4


def test_sweep_mu_rejects_tiny_grid(capsys):
    assert cli.main(["sweep-mu", "--grid", "1", "--out", "x.csv"]) == 3
    assert "validation-error:" in capsys.readouterr().err
    assert cli.main(["sweep-mu", "--grid", str(DIM_CAP + 1), "--out", "x.csv"]) == 3
    assert "validation-error:" in capsys.readouterr().err


# -------------------------------------------------------------------- compare

def test_compare_query_counts_across_kinds(capsys):
    assert cli.main(["compare", "--kinds", "linear,kbody:2,exponential", "--n", "4"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "kind,n,q,seminorm,bound_query,bound_snl"
    fields = [line.split(",") for line in out[1:]]
    assert [f[0] for f in fields] == ["linear", "kbody:2", "exponential"]
    assert [int(f[2]) for f in fields] == [4, 6, 15]
    # the snl column only applies to the linear kind
    assert fields[0][5] != ""
    assert fields[1][5] == "" and fields[2][5] == ""


def test_compare_linear_bound_halves_with_n(capsys):
    assert cli.main(["compare", "--kinds", "linear", "--n", "1,2,4,8"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    bounds = [float(line.split(",")[4]) for line in out[1:]]
    assert bounds == pytest.approx([1.0, 0.5, 0.25, 0.125])


def test_compare_sequential_token(capsys):
    assert cli.main(["compare", "--kinds", "sequential:3", "--n", "2"]) == 0
    line = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert int(line[2]) == 6
    assert float(line[3]) == pytest.approx(6.0)


def test_compare_skips_exponential_beyond_cap(capsys):
    # no system cap: only a query count past float range (2^2000 - 1) skips the row
    assert cli.main(["compare", "--kinds", "exponential", "--n", "2,12,64,2000"]) == 0
    captured = capsys.readouterr()
    rows = [line.split(",") for line in captured.out.strip().splitlines()[1:]]
    assert [(row[1], row[2]) for row in rows] == [("2", "3"), ("12", "4095"), ("64", str(2**64 - 1))]
    assert captured.err.strip().splitlines() == [
        "skipped kind=exponential n=2000: the exponential extremes leave float range"
    ]


def test_compare_skips_rows_past_float_range(capsys):
    huge = "1" * 310
    assert cli.main(["compare", "--kinds", "kbody:600,linear", "--n", f"2000,{huge}"]) == 0
    captured = capsys.readouterr()
    rows = captured.out.strip().splitlines()[1:]
    assert rows == ["linear,2000,2000,2000,0.0005,0.0223606797749979"]
    assert captured.err.strip().splitlines() == [
        "skipped kind=kbody:600 n=2000: the kbody extremes leave float range",
        f"skipped kind=kbody:600 n={huge}: the kbody extremes leave float range",
        f"skipped kind=linear n={huge}: the linear extremes leave float range",
    ]


def test_compare_empty_request_gives_header_only(capsys):
    assert cli.main(["compare"]) == 0
    assert capsys.readouterr().out.strip() == "kind,n,q,seminorm,bound_query,bound_snl"


def test_compare_rejects_unknown_token(capsys):
    assert cli.main(["compare", "--kinds", "cubic", "--n", "2"]) == 3
    assert "validation-error:" in capsys.readouterr().err


def test_compare_custom_base(capsys):
    assert cli.main(["compare", "--kinds", "linear", "--n", "2", "--base", "0,2"]) == 0
    line = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert float(line[3]) == pytest.approx(4.0)
    assert float(line[4]) == pytest.approx(0.25)


def test_compare_negative_base_in_equals_form(capsys):
    # exponential at N = 1 adds e_1 only, so a negative lambda_min gives a row, as for linear
    args = ["compare", "--kinds", "linear,kbody:2,exponential", "--n", "1,2", "--base=-0.5,1"]
    assert cli.main(args) == 0
    captured = capsys.readouterr()
    rows = [line.split(",")[:3] for line in captured.out.strip().splitlines()[1:]]
    assert rows == [["linear", "1", "1"], ["linear", "2", "2"], ["exponential", "1", "1"]]
    assert captured.err.strip().splitlines() == [
        "skipped kind=kbody:2 n=1: body_order 2 exceeds n_systems 1",
        "skipped kind=kbody:2 n=2: kbody closed form needs lambda_min >= 0, got -0.5",
        "skipped kind=exponential n=2: exponential closed form needs lambda_min >= 0, got -0.5",
    ]
    # written as a separate word, argparse reads -0.5,1 as an option and --base as missing its value
    with pytest.raises(SystemExit) as exc:
        cli.main(["compare", "--kinds", "linear", "--n", "1", "--base", "-0.5,1"])
    assert exc.value.code == 2


# a field where the kind has none, no field where it needs one, an unknown name
MALFORMED_KIND_TOKENS = ["linear:3", "exponential:1", "kbody", "sequential", "bogus:2"]


@pytest.mark.parametrize(
    "args",
    [
        ["compare", "--kinds", "linear", "--n", "abc"],
        ["compare", "--kinds", "kbody:x", "--n", "2"],
        ["compare", "--kinds", "linear", "--n", "2", "--base", "a,b"],
        *(["compare", "--kinds", token, "--n", "2"] for token in MALFORMED_KIND_TOKENS),
    ],
    ids=["n", "kbody-order", "base", *MALFORMED_KIND_TOKENS],
)
def test_compare_malformed_number_exits_3_without_output(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    assert cli.main(args + ["--out", "out/c.csv"]) == 3
    assert capsys.readouterr().err.startswith("validation-error:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [["compare", "--kinds", "linear", "--n", "2"], ["sweep-mu", "--grid", "3"]],
    ids=["compare", "sweep-mu"],
)
def test_csv_output_under_a_regular_file_exits_3(tmp_path, monkeypatch, capsys, args):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "blocker").write_text("keep")
    assert cli.main(args + ["--out", "blocker/out.csv"]) == 3
    assert capsys.readouterr().err.startswith("validation-error:")
    assert list(tmp_path.iterdir()) == [tmp_path / "blocker"]
    assert (tmp_path / "blocker").read_text() == "keep"


# ------------------------------------------------------------------------ run

def test_run_bundled_linear_scenario(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", str(SCENARIOS / "linear_n3_optimal.json")]) == 0
    out = capsys.readouterr().out
    assert "wrote out/linear_n3_report.json" in out
    report = json.loads((tmp_path / "out/linear_n3_report.json").read_text())
    assert report["q"] == 3
    assert report["bound_new_hl"] == pytest.approx(1 / 3, abs=1e-10)
    assert report["bound_query"] == pytest.approx(1 / 3, abs=1e-12)
    assert report["expectation_shifted"] == pytest.approx(1.5, abs=1e-10)
    header, rows = read_csv(tmp_path / "out/linear_n3_mu.csv")
    assert header == ["mu", "shifted_expectation", "stddev"]
    assert len(rows) == 11


def test_run_noon_trial_makes_no_eigh_call(tmp_path, monkeypatch):
    # a diagonal generator and the fringe measurement: no element eigensystem, no d x d element
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: calls.append(a.shape) or eigh(a, *args, **kw))
    monkeypatch.chdir(tmp_path)
    trial = {"phi_true": 0.5, "shots_per_trial": 1000, "n_trials": 25, "rng_seed": 3,
             "search_interval": [0.25, 0.75], "povm": "optimal"}
    outputs = [{"type": "report", "path": "out/report.json"}, {"type": "trial", "path": "out/trial.json"}]
    scenario = minimal_scenario(state={"kind": "noon", "n_photons": 3}, phi=0.5, trial=trial, outputs=outputs)
    del scenario["procedure"]
    assert cli.main(["run", write_scenario(tmp_path, scenario)]) == 0
    assert len(json.loads((tmp_path / "out/trial.json").read_text())["estimates"]) == 25
    assert calls == []


def test_run_report_json_is_sorted_and_omits_absent_fields(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", str(SCENARIOS / "coherent_alpha2.json")]) == 0
    text = (tmp_path / "out/coherent_alpha2_report.json").read_text().strip()
    payload = json.loads(text)
    assert list(payload) == sorted(payload)
    assert "q" not in payload and "bound_query" not in payload
    assert payload["expectation_shifted"] == pytest.approx(4.0, abs=1e-6)
    assert payload["bound_new_hl"] == pytest.approx(0.125, abs=1e-6)


def test_run_is_deterministic_across_invocations(tmp_path, monkeypatch):
    scen = str(SCENARIOS / "linear_n3_optimal.json")
    blobs = []
    for sub in ("a", "b"):
        workdir = tmp_path / sub
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        assert cli.main(["run", scen]) == 0
        blobs.append(
            (
                (workdir / "out/linear_n3_report.json").read_bytes(),
                (workdir / "out/linear_n3_mu.csv").read_bytes(),
            )
        )
    assert blobs[0] == blobs[1]


def test_run_malformed_json_exits_2_without_artifacts(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "broken.json"
    bad.write_text('{"schema": "metrology-scenario/1",')
    assert cli.main(["run", str(bad)]) == 2
    assert "parse-error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_missing_file_exits_2(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "absent.json")]) == 2
    assert "parse-error:" in capsys.readouterr().err


def test_run_unknown_key_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = write_scenario(tmp_path, minimal_scenario(extra_section={"x": 1}))
    assert cli.main(["run", path]) == 2
    assert "parse-error:" in capsys.readouterr().err


def test_run_wrong_schema_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = write_scenario(tmp_path, minimal_scenario(schema="metrology-scenario/2"))
    assert cli.main(["run", path]) == 2
    assert "parse-error:" in capsys.readouterr().err


def test_run_invalid_state_exits_3_without_artifacts(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    payload = minimal_scenario(state={"kind": "optimal_mu", "mu": 1.5})
    path = write_scenario(tmp_path, payload)
    assert cli.main(["run", path]) == 3
    assert "validation-error:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_run_out_of_range_mu_exits_3_before_the_generator_is_built(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    calls = []
    build = cli.build_generator
    monkeypatch.setattr(cli, "build_generator", lambda spec: calls.append(spec) or build(spec))
    payload = minimal_scenario(
        procedure={"kind": "linear", "n_systems": 12, "base_eigs": [0.0, 1.0]},
        state={"kind": "optimal_mu", "mu": 1.5},
    )
    assert cli.main(["run", write_scenario(tmp_path, payload)]) == 3
    assert "mu must lie in [0, 1], got 1.5" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "state, message",
    [
        ({"kind": "optimal_mu", "mu": -0.1}, "mu must lie in [0, 1], got -0.1"),
        ({"kind": "optimal_mu"}, "optimal_mu needs mu"),
        ({"kind": "noon", "n_photons": 0}, "n_photons must be >= 1"),
        ({"kind": "noon"}, "noon needs n_photons >= 1"),
        ({"kind": "coherent", "alpha": 2.0, "cutoff": 5}, "cutoff 5 is below 10*|alpha|^2 = 40"),
        ({"kind": "coherent", "alpha": 0.0, "cutoff": 0}, "cutoff must be >= 1"),
        ({"kind": "coherent", "alpha": 2.0}, "coherent needs alpha and cutoff"),
        ({"kind": "squeezed"}, "unknown state kind 'squeezed'"),
        ({"kind": "coherent", "alpha": None, "cutoff": 40}, "coherent needs alpha and cutoff"),
    ],
    ids=[
        "mu-range",
        "mu-missing",
        "n_photons-zero",
        "n_photons-missing",
        "cutoff-low",
        "cutoff-zero",
        "cutoff-missing",
        "kind-unknown",
        "alpha-null",
    ],
)
def test_run_state_family_rejection_exits_3_without_artifacts(tmp_path, monkeypatch, capsys, state, message):
    monkeypatch.chdir(tmp_path)
    payload = minimal_scenario(state=state)
    if state["kind"] != "optimal_mu":
        del payload["procedure"]
    assert cli.main(["run", write_scenario(tmp_path, payload)]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("second", ["./out//a.json", "out/sub/../a.json", "absolute"])
def test_run_duplicate_output_paths_exit_2_before_anything_runs(tmp_path, monkeypatch, capsys, second):
    monkeypatch.chdir(tmp_path)
    second = str(tmp_path / "out" / "a.json") if second == "absolute" else second
    outputs = [{"type": "report", "path": "out/a.json"}, {"type": "mu_sweep", "path": second}]
    assert cli.main(["run", write_scenario(tmp_path, minimal_scenario(outputs=outputs))]) == 2
    captured = capsys.readouterr()
    assert f"parse-error: outputs 'out/a.json' and {second!r} write to the same file" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_run_empty_output_path_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = write_scenario(tmp_path, minimal_scenario(outputs=[{"type": "report", "path": ""}]))
    assert cli.main(["run", path]) == 2
    assert "parse-error:" in capsys.readouterr().err


def test_run_unwritable_output_exits_3_and_removes_earlier_artifacts(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out" / "taken").mkdir(parents=True)
    outputs = [{"type": "report", "path": "out/report.json"}, {"type": "report", "path": "out/taken"}]
    path = write_scenario(tmp_path, minimal_scenario(outputs=outputs))
    assert cli.main(["run", path]) == 3
    assert "validation-error:" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("out_dir", ["out", "out2/sub"], ids=["flat", "nested"])
def test_run_failure_while_rendering_leaves_no_directory(tmp_path, monkeypatch, capsys, out_dir):
    # the extremes stay finite, but the report overflows to inf at serialization
    monkeypatch.chdir(tmp_path)
    payload = minimal_scenario(
        procedure={"kind": "sequential-wrapped", "n_systems": 2, "base_eigs": [0.0, 1.0], "repetitions": 10**307},
        outputs=[{"type": "report", "path": f"{out_dir}/report.json"}],
    )
    path = write_scenario(tmp_path, payload)
    assert cli.main(["run", path]) == 4
    assert "numerical-error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


def test_run_write_failure_removes_the_directories_it_made(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").mkdir()
    outputs = [{"type": "report", "path": "new/a/report.json"}, {"type": "report", "path": "taken"}]
    assert cli.main(["run", write_scenario(tmp_path, minimal_scenario(outputs=outputs))]) == 3
    assert "validation-error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json", "taken"]


def test_run_huge_coherent_amplitude_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    payload = minimal_scenario(procedure=None, state={"kind": "coherent", "alpha": 1e300, "cutoff": 40})
    del payload["procedure"]
    assert cli.main(["run", write_scenario(tmp_path, payload)]) == 3
    assert not (tmp_path / "out").exists()


def test_run_trial_validated_before_any_write(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    payload = minimal_scenario(
        outputs=[
            {"type": "report", "path": "out/report.json"},
            {"type": "trial", "path": "out/trial.json"},
        ],
        trial={
            "phi_true": 5.0,  # outside the search interval
            "shots_per_trial": 10,
            "n_trials": 2,
            "rng_seed": 1,
            "search_interval": [0.1, 0.9],
        },
    )
    path = write_scenario(tmp_path, payload)
    assert cli.main(["run", path]) == 3
    assert not (tmp_path / "out" / "report.json").exists()


def test_run_trial_artifact_without_section_fails(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    payload = minimal_scenario(outputs=[{"type": "trial", "path": "out/trial.json"}])
    path = write_scenario(tmp_path, payload)
    assert cli.main(["run", path]) == 3


def test_run_unknown_povm_token_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    payload = minimal_scenario(
        outputs=[{"type": "trial", "path": "out/trial.json"}],
        trial={
            "phi_true": 0.4,
            "shots_per_trial": 10,
            "n_trials": 2,
            "rng_seed": 1,
            "search_interval": [0.1, 0.9],
            "povm": "magic",
        },
    )
    path = write_scenario(tmp_path, payload)
    assert cli.main(["run", path]) == 3


def test_run_checks_the_povm_token_without_a_trial_output(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    payload = trial_scenario(povm="magic")
    payload["outputs"] = [{"type": "report", "path": "out/report.json"}]
    assert cli.main(["run", write_scenario(tmp_path, payload)]) == 3
    assert capsys.readouterr().err == (
        "validation-error: unknown povm token 'magic'; expected 'optimal' or 'site-product'\n"
    )
    assert not (tmp_path / "out").exists()


def trial_scenario(**trial_overrides):
    trial = {
        "phi_true": 0.4,
        "shots_per_trial": 10,
        "n_trials": 2,
        "rng_seed": 1,
        "search_interval": [0.1, 0.9],
    }
    trial.update(trial_overrides)
    return minimal_scenario(
        outputs=[
            {"type": "report", "path": "out/report.json"},
            {"type": "trial", "path": "out/trial.json"},
        ],
        trial=trial,
    )


@pytest.mark.parametrize(
    "key, value",
    [
        ("n_trials", True),
        ("n_trials", 2.0),
        ("shots_per_trial", "10"),
        ("shots_per_trial", False),
        ("rng_seed", 1.5),
        ("rng_seed", "1"),
        ("rng_seed", None),
    ],
)
def test_run_non_integer_trial_counts_exit_2(tmp_path, monkeypatch, capsys, key, value):
    monkeypatch.chdir(tmp_path)
    path = write_scenario(tmp_path, trial_scenario(**{key: value}))
    assert cli.main(["run", path]) == 2
    assert "parse-error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def noon_scenario(n_photons):
    return minimal_scenario(procedure=None, state={"kind": "noon", "n_photons": n_photons})


@pytest.mark.parametrize(
    "payload",
    [
        minimal_scenario(procedure={"kind": "linear", "n_systems": "3", "base_eigs": [0.0, 1.0]}),
        minimal_scenario(procedure={"kind": "linear", "n_systems": 2, "base_eigs": ["a", 1]}),
        minimal_scenario(state={"kind": "optimal_mu", "mu": "0.5"}),
        noon_scenario("3"),
        noon_scenario(3.0),
        minimal_scenario(procedure={"kind": "kbody", "n_systems": 3, "base_eigs": [0.0, 1.0], "body_order": "2"}),
        trial_scenario(search_interval=[0.2, "x"]),
        trial_scenario(phi_true="0.4"),
        minimal_scenario(procedure={"kind": "linear", "base_eigs": [0.0, 1.0]}),
        minimal_scenario(state={"kind": "optimal_mu", "mu": 0.5, "alpha": "2"}),
        minimal_scenario(state={"kind": "product_balanced", "alpha": [1.0]}),
        minimal_scenario(procedure=None, state={"kind": "noon", "n_photons": 2, "alpha": True}),
        minimal_scenario(procedure=None, state={"kind": "coherent", "alpha": "2", "cutoff": 40}),
    ],
    ids=[
        "n_systems-str",
        "base_eigs-str",
        "mu-str",
        "n_photons-str",
        "n_photons-float",
        "body_order-str",
        "search_interval-str",
        "phi_true-str",
        "n_systems-missing",
        "alpha-str-optimal_mu",
        "alpha-short-pair-product_balanced",
        "alpha-bool-noon",
        "alpha-str-coherent",
    ],
)
def test_run_mistyped_field_exits_2(tmp_path, monkeypatch, capsys, payload):
    monkeypatch.chdir(tmp_path)
    payload = {key: value for key, value in payload.items() if value is not None}
    path = write_scenario(tmp_path, payload)
    assert cli.main(["run", path]) == 2
    assert "parse-error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "payload, code, line",
    [
        (
            minimal_scenario(state={"kind": "noon", "n_photons": 2}),
            3,
            "validation-error: state kind 'noon' defines its own generator; drop the procedure section",
        ),
        (
            minimal_scenario(procedure=None),
            3,
            "validation-error: state kind 'optimal_mu' needs a procedure section",
        ),
        (
            {**trial_scenario(povm="site-product"), "procedure": None, "state": {"kind": "noon", "n_photons": 2}},
            3,
            "validation-error: site-product POVM needs a procedure section",
        ),
        (
            trial_scenario(povm="magic"),
            3,
            "validation-error: unknown povm token 'magic'; expected 'optimal' or 'site-product'",
        ),
        (
            minimal_scenario(outputs=[{"type": "plot", "path": "out/plot.png"}]),
            2,
            "parse-error: output type must be report, mu_sweep or trial, got 'plot'",
        ),
        (
            minimal_scenario(procedure={"kind": "linear", "n_systems": 2}),
            2,
            "parse-error: procedure section is missing 'base_eigs'",
        ),
        (
            minimal_scenario(state={"kind": "squeezed"}),
            3,
            "validation-error: unknown state kind 'squeezed'; expected one of "
            "('optimal_mu', 'noon', 'product_balanced', 'coherent')",
        ),
    ],
    ids=["noon-procedure", "optimal_mu-bare", "site-product-bare", "povm-unknown", "output-unknown",
         "base_eigs-missing", "kind-unknown"],
)
def test_run_schema_messages_are_pinned(tmp_path, monkeypatch, capsys, payload, code, line):
    monkeypatch.chdir(tmp_path)
    payload = {key: value for key, value in payload.items() if value is not None}
    assert cli.main(["run", write_scenario(tmp_path, payload)]) == code
    assert capsys.readouterr().err == line + "\n"
    assert not (tmp_path / "out").exists()


def test_run_out_of_range_float_literal_exits_2(tmp_path, monkeypatch, capsys):
    # 1e400 parses to inf; before the typed parse it reached eigh as a NaN
    monkeypatch.chdir(tmp_path)
    text = json.dumps(minimal_scenario()).replace('"base_eigs": [0.0, 1.0]', '"base_eigs": [0, 1e400]')
    assert "1e400" in text
    path = tmp_path / "scenario.json"
    path.write_text(text)
    assert cli.main(["run", str(path)]) == 2
    assert "parse-error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_negative_rng_seed_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = write_scenario(tmp_path, trial_scenario(rng_seed=-1))
    assert cli.main(["run", path]) == 3
    assert "validation-error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["n_trials", "shots_per_trial"])
@pytest.mark.parametrize("value", [10**30, "limit+1"])
def test_run_trial_count_above_limit_exits_3(tmp_path, monkeypatch, capsys, key, value):
    monkeypatch.chdir(tmp_path)
    limits = {"n_trials": estimation.MAX_TRIALS, "shots_per_trial": estimation.MAX_SHOTS}
    payload = json.loads((SCENARIOS / "noon_n3_trial.json").read_text())
    payload["trial"][key] = limits[key] + 1 if value == "limit+1" else value
    assert cli.main(["run", write_scenario(tmp_path, payload)]) == 3
    assert "validation-error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Each integer is refused before an allocation or a power sized by it.  The run
# is a child process under an address-space limit and a timeout, so a
# regression fails the test instead of hanging or exhausting memory.
OVERSIZE_SCENARIOS = {
    "n_systems": minimal_scenario(procedure={"kind": "linear", "n_systems": 10**30, "base_eigs": [0.0, 1.0]}),
    "n_photons": noon_scenario(10**9),
    "cutoff": minimal_scenario(procedure=None, state={"kind": "coherent", "alpha": 1.0, "cutoff": 10**12}),
    "grid": minimal_scenario(outputs=[{"type": "mu_sweep", "path": "out/mu.csv", "grid": 10**14}]),
    "repetitions": minimal_scenario(
        procedure={"kind": "sequential-wrapped", "n_systems": 2, "base_eigs": [0.0, 1.0], "repetitions": 10**400}
    ),
    "subsystem_dim": minimal_scenario(
        procedure={"kind": "linear", "n_systems": 1, "base_eigs": [0.0, 1.0], "subsystem_dim": 10**9},
        state={"kind": "product_balanced"},
    ),
}
CHILD_ADDRESS_SPACE = 2**31
CHILD_RUN = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[2]), int(sys.argv[2])))\n"
    "from phasebound.cli import main\n"
    "sys.exit(main(['run', sys.argv[1]]))\n"
)


@pytest.mark.parametrize("key", sorted(OVERSIZE_SCENARIOS))
def test_run_oversize_integer_exits_3_at_once(tmp_path, key):
    payload = {name: value for name, value in OVERSIZE_SCENARIOS[key].items() if value is not None}
    path = write_scenario(tmp_path, payload)
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", CHILD_RUN, path, str(CHILD_ADDRESS_SPACE)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=10,
    )
    assert result.returncode == 3, result.stderr
    assert result.stderr.startswith("validation-error:")
    assert list(tmp_path.iterdir()) == [Path(path)]


def test_run_wide_site_exits_3_before_allocating_it(tmp_path, monkeypatch, capsys):
    # a product_balanced probe builds its site base from subsystem_dim: 10^7 levels would be 160 MB
    monkeypatch.chdir(tmp_path)
    payload = minimal_scenario(
        procedure={"kind": "linear", "n_systems": 1, "base_eigs": [0.0, 1.0], "subsystem_dim": 10**7},
        state={"kind": "product_balanced"},
    )
    path = write_scenario(tmp_path, payload)
    tracemalloc.start()
    try:
        rc = cli.main(["run", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3
    assert peak < 2**20
    assert list(tmp_path.iterdir()) == [Path(path)]
    assert "subsystem_dim" in capsys.readouterr().err


MALFORMED_SCENARIOS = {
    "deep-nesting": "[" * 100000 + "]" * 100000,
    "nul-path": json.dumps(minimal_scenario(outputs=[{"type": "report", "path": "out/a\u0000.json"}])),
    "lone-surrogate-path": json.dumps(minimal_scenario(outputs=[{"type": "report", "path": "out/a\ud800.json"}])),
}


@pytest.mark.parametrize("command", ["run", "estimate"])
@pytest.mark.parametrize("case", sorted(MALFORMED_SCENARIOS))
def test_malformed_scenario_exits_2_without_writing(tmp_path, monkeypatch, capsys, case, command):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "scenario.json"
    path.write_text(MALFORMED_SCENARIOS[case])
    assert cli.main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith("parse-error:")
    assert list(tmp_path.iterdir()) == [path]


def test_run_integer_literal_past_the_digit_limit_exits_2(tmp_path, monkeypatch, capsys):
    if not getattr(sys, "get_int_max_str_digits", lambda: 0)():
        pytest.skip("this interpreter has no integer digit limit")
    monkeypatch.chdir(tmp_path)
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    text = json.dumps(minimal_scenario()).replace('"n_systems": 2', f'"n_systems": {digits}')
    path = tmp_path / "scenario.json"
    path.write_text(text)
    assert cli.main(["run", str(path)]) == 2
    assert "parse-error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def test_run_has_no_parallel_flag(tmp_path, capsys):
    path = write_scenario(tmp_path, minimal_scenario())
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", path, "--parallel"])
    assert exc.value.code == 2


def test_run_site_product_trial_at_n10_stays_small(tmp_path, monkeypatch):
    # the site factor is kept as such: 1024 joint outcomes, no 1024 x 1024 element
    monkeypatch.chdir(tmp_path)
    payload = minimal_scenario(
        procedure={"kind": "linear", "n_systems": 10, "base_eigs": [0.0, 1.0]},
        state={"kind": "product_balanced"},
        trial={
            "phi_true": 1.0,
            "shots_per_trial": 100,
            "n_trials": 2,
            "rng_seed": 5,
            "search_interval": [0.8, 1.2],
            "povm": "site-product",
        },
        outputs=[{"type": "trial", "path": "out/trial.json"}],
    )
    path = write_scenario(tmp_path, payload)
    tracemalloc.start()
    try:
        rc = cli.main(["run", path])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak < 128 * 2**20
    assert len(json.loads((tmp_path / "out" / "trial.json").read_text())["estimates"]) == 2


def test_site_product_run_validates_the_site_once(tmp_path, monkeypatch):
    import phasebound.metrology as metrology

    monkeypatch.chdir(tmp_path)
    calls = []
    original = metrology.validate_povm
    monkeypatch.setattr(metrology, "validate_povm", lambda povm: calls.append(len(povm)) or original(povm))
    assert cli.main(["run", str(SCENARIOS / "linear_n8_siteprod.json")]) == 0
    assert calls == [2]


def test_site_product_scenario_estimates_are_the_closed_form_mle(tmp_path, monkeypatch):
    # the product probe's likelihood peaks where the per-site fringe (1 + cos phi)/2 meets the plus share
    monkeypatch.chdir(tmp_path)
    path = str(SCENARIOS / "linear_n8_siteprod.json")
    assert cli.main(["run", path]) == 0
    estimates = json.loads((tmp_path / "out" / "linear_n8_siteprod_trial.json").read_text())["estimates"]
    raw = cli.load_scenario(path)
    spec, gen, probe = cli.realize_scenario(raw)
    config = cli._build_trial_config(raw, spec, gen)
    truth = evolve(probe, gen.generator, config.phi_true)
    reference = [
        product_probe_mle(estimation.sample_outcomes(truth, config.povm, config.shots_per_trial,
                                                     np.random.SeedSequence(config.rng_seed, spawn_key=(t,))),
                          spec.n_systems, *config.search_interval)
        for t in range(config.n_trials)
    ]
    np.testing.assert_allclose(estimates, reference, rtol=0, atol=estimation.REFINE_TOL)



def test_ghz_scenario_estimates_are_the_parity_fringe_mle(tmp_path, monkeypatch):
    # optimal_mu (mu = 1/2) over kbody:2 at N = 6: the even words carry p_even = 1/2 + cos(15 phi)/2,
    # with 15 = C(6, 2) the all-ones value of the generator and no fringe extremum in the interval
    monkeypatch.chdir(tmp_path)
    path = str(SCENARIOS / "ghz_n6_siteprod.json")
    assert cli.main(["run", path]) == 0
    estimates = json.loads((tmp_path / "out" / "ghz_n6_siteprod_trial.json").read_text())["estimates"]
    raw = cli.load_scenario(path)
    spec, gen, probe = cli.realize_scenario(raw)
    config = cli._build_trial_config(raw, spec, gen)
    truth = evolve(probe, gen.generator, config.phi_true)
    reference = []
    for t in range(config.n_trials):
        counts = estimation.sample_outcomes(truth, config.povm, config.shots_per_trial,
                                            np.random.SeedSequence(config.rng_seed, spawn_key=(t,)))
        n_even = site_product_reduced_counts(counts, spec.n_systems)[1]
        reference.append(fringe_mle_bounded(15.0, 0.5, 0.0, *config.search_interval,
                                            (n_even, config.shots_per_trial - n_even)))
    assert len(estimates) == config.n_trials == 20
    np.testing.assert_allclose(estimates, reference, rtol=0, atol=estimation.REFINE_TOL)


def test_bundled_trials_never_tabulate_outcomes(tmp_path, monkeypatch):
    # every bundled trial is a fringe, closed-form or reduced from site-product counts: no grid table is built
    monkeypatch.chdir(tmp_path)
    tables, original = [], estimation._outcome_table
    monkeypatch.setattr(estimation, "_outcome_table", lambda *args: tables.append(args[2]) or original(*args))
    trials = [path for path in sorted(SCENARIOS.glob("*.json")) if "trial" in json.loads(path.read_text())]
    assert {path.name for path in trials} >= {"ghz_n6_siteprod.json", "linear_n8_siteprod.json", "noon_n3_trial.json"}
    for path in trials:
        assert cli.main(["run", str(path)]) == 0, path.name
    assert tables == []


def test_grid_trial_runs_end_to_end_and_matches_the_dense_mle(tmp_path, monkeypatch):
    # a product probe on kbody:2 is neither a site sum nor a two-word probe, so no fringe count exists
    payload = minimal_scenario(
        name="grid", procedure={"kind": "kbody", "n_systems": 6, "base_eigs": [0.0, 1.0], "body_order": 2},
        state={"kind": "product_balanced"}, phi=0.1, outputs=[{"type": "trial", "path": "out/trial.json"}],
        trial={"phi_true": 0.1, "shots_per_trial": 500, "n_trials": 5, "rng_seed": 3,
               "search_interval": [0.03, 0.18], "povm": "site-product"},
    )
    path = write_scenario(tmp_path, payload)
    tables, original = [], estimation._outcome_table
    monkeypatch.setattr(estimation, "_outcome_table", lambda *args: tables.append(args[2]) or original(*args))
    written = []
    for rerun in ("a", "b"):
        (tmp_path / rerun).mkdir()
        monkeypatch.chdir(tmp_path / rerun)
        assert cli.main(["run", path]) == 0
        assert len(tables) == len(written) + 1  # one grid table per run
        written.append((tmp_path / rerun / "out" / "trial.json").read_bytes())
    assert written[0] == written[1]
    raw = cli.load_scenario(path)
    spec, gen, probe = cli.realize_scenario(raw)
    config = cli._build_trial_config(raw, spec, gen)
    site = [element.entries for element in config.povm.site]
    # the kron-chain oracle, tabulated in one batch on mle_estimate's grid and evaluated singly off it
    grid = np.linspace(*config.search_interval, estimation.GRID_POINTS)
    states = np.stack([evolve(probe, gen.generator, phi).amplitudes for phi in grid])
    tabled = dict(zip(grid.tolist(), dense_product_probabilities(site, spec.n_systems, states)))

    def model(phi):
        if phi in tabled:
            return tabled[phi]
        return dense_product_probabilities(site, spec.n_systems, evolve(probe, gen.generator, phi).amplitudes)

    truth = evolve(probe, gen.generator, config.phi_true)
    reference = [
        estimation.mle_estimate(estimation.sample_outcomes(truth, config.povm, config.shots_per_trial,
                                                           np.random.SeedSequence(config.rng_seed, spawn_key=(t,))),
                                model, config.search_interval)
        for t in range(config.n_trials)
    ]
    estimates = json.loads(written[0])["estimates"]
    assert len(estimates) == 5
    np.testing.assert_allclose(estimates, reference, rtol=0, atol=estimation.REFINE_TOL)


def test_site_product_trial_far_from_zero_phase_finishes(tmp_path):
    # near 1e8 adjacent floats are 1.5e-8 apart, wider than REFINE_TOL, so bisection must stop on float spacing
    lo = 1e8
    payload = json.loads((SCENARIOS / "linear_n8_siteprod.json").read_text())
    payload["procedure"]["n_systems"] = 2
    payload["trial"].update(phi_true=lo + 0.1, n_trials=3, search_interval=[lo, lo + 0.2])
    payload["outputs"] = [{"type": "trial", "path": "out/trial.json"}]
    path = write_scenario(tmp_path, payload)
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", CHILD_RUN, path, str(CHILD_ADDRESS_SPACE)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=30,
    )
    assert result.returncode == 0, result.stderr
    raw = cli.load_scenario(path)
    spec, gen, probe = cli.realize_scenario(raw)
    config = cli._build_trial_config(raw, spec, gen)
    # the artifact keeps 15 significant digits, 1e-6 here, so the float estimates are checked in process
    estimates = estimation.precision_trial(gen, probe, config).estimates
    written = json.loads((tmp_path / "out" / "trial.json").read_text())["estimates"]
    np.testing.assert_allclose(written, estimates, rtol=1e-14, atol=0)
    truth = evolve(probe, gen.generator, config.phi_true)
    for t, estimate in enumerate(estimates):
        counts = estimation.sample_outcomes(truth, config.povm, config.shots_per_trial,
                                            np.random.SeedSequence(config.rng_seed, spawn_key=(t,)))
        # the closed-form MLE peak on [0, pi], carried to the period that holds the interval
        peak = product_probe_mle(counts, spec.n_systems, 0.0, math.pi)
        roots = [lo + math.remainder(sign * peak - lo, 2 * math.pi) for sign in (1, -1)]
        assert min(abs(estimate - root) for root in roots) <= 4 * np.spacing(lo)


# -------------------------------------------------- exit-code property test

PROPERTY_MAX_SYSTEMS = 6
WRONG_TYPES = (None, True, "text", 1.5, 3, [], [1.0], {})


def shrunk_bundled(path: Path) -> dict:
    """A bundled scenario cut to property-test size: at most 6 systems, 2 trials of 20 shots."""
    raw = json.loads(path.read_text())
    if "procedure" in raw:
        raw["procedure"]["n_systems"] = min(raw["procedure"]["n_systems"], PROPERTY_MAX_SYSTEMS)
    if "trial" in raw:
        raw["trial"].update(n_trials=2, shots_per_trial=20)
    return raw


def out_of_range(value) -> list:
    # integers stay small so that a mutated count never makes a long run
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, int):
        return [-1, 0, 1, PROPERTY_MAX_SYSTEMS]
    if isinstance(value, float):
        return [-1.0, 0.0, -1e300, 1e300]
    if isinstance(value, str):
        return ["", "bogus"]
    if isinstance(value, list) and len(value) == 2:
        return [value[::-1], [value[0], value[0]], [value[0], 1e300]]
    return list(WRONG_TYPES)


def mutable_keys(raw: dict) -> list:
    """(owner, key) for every top-level key, section key and output-entry key."""
    keys = [(raw, key) for key in raw]
    for value in raw.values():
        if isinstance(value, dict):
            keys += [(value, key) for key in value]
    if isinstance(raw.get("outputs"), list):
        keys += [(entry, key) for entry in raw["outputs"] if isinstance(entry, dict) for key in entry]
    return keys


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_run_exit_code_contract_holds_for_mutated_scenarios(data):
    raw = shrunk_bundled(data.draw(st.sampled_from(sorted(SCENARIOS.glob("*.json"))), label="bundled"))
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        keys = mutable_keys(raw)
        if not keys:
            break
        owner, key = data.draw(st.sampled_from(keys), label="key")
        action = data.draw(st.sampled_from(("delete", "wrong-type", "out-of-range")), label="action")
        if action == "delete":
            del owner[key]
        else:
            choices = WRONG_TYPES if action == "wrong-type" else out_of_range(owner[key])
            owner[key] = copy.deepcopy(data.draw(st.sampled_from(choices), label="value"))
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "scenario.json"
        scenario.write_text(json.dumps(raw))
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(["run", str(scenario)])
        finally:
            os.chdir(cwd)
        assert rc in (0, 2, 3, 4)
        if rc != 0:
            assert [p for p in Path(tmp).rglob("*") if p.is_file()] == [scenario]


# --------------------------------------------------------------------- estimate

def test_estimate_prints_trial_json(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    payload = {
        "schema": "metrology-scenario/1",
        "name": "tiny-noon",
        "state": {"kind": "noon", "n_photons": 2},
        "phi": 0.0,
        "trial": {
            "phi_true": 0.5,
            "shots_per_trial": 50,
            "n_trials": 5,
            "rng_seed": 9,
            "search_interval": [0.2, 1.2],
            "povm": "optimal",
        },
        "outputs": [],
    }
    path = write_scenario(tmp_path, payload)
    assert cli.main(["estimate", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rng_algorithm"] == "pcg64"
    assert len(out["estimates"]) == 5
    assert out["empirical_rmse"] >= 0.0


def test_estimate_without_trial_section_exits_3(tmp_path, capsys):
    path = write_scenario(tmp_path, minimal_scenario())
    assert cli.main(["estimate", path]) == 3


def test_overflowing_phase_is_refused_by_the_evolution(tmp_path, monkeypatch, capsys):
    # at phi = 1e308 the top eigenvalue 3 overflows the phase; the NaN state never reaches serialization
    monkeypatch.chdir(tmp_path)
    procedure = {"kind": "linear", "n_systems": 3, "base_eigs": [0.0, 1.0]}
    path = write_scenario(tmp_path, minimal_scenario(procedure=procedure, phi=1e308))
    with pytest.warns(RuntimeWarning):  # overflow in the phase, then NaN from exp
        assert cli.main(["run", path]) == 4
    assert "numerical-error: evolved state is not normalized" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


# ------------------------------------------------------------------- plumbing

def test_numerical_error_maps_to_exit_4(monkeypatch, capsys):
    def boom(args):
        raise NumericalIntegrityError("synthetic failure")

    monkeypatch.setattr(cli, "cmd_sweep_mu", boom)
    assert cli.main(["sweep-mu"]) == 4
    assert "numerical-error:" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2


def test_format_float_round_trip():
    assert cli.format_float(0.125) == "0.125"
    assert cli.format_float(1 / 3) == "0.333333333333333"
    assert float(cli.format_float(math.pi)) == pytest.approx(math.pi, abs=1e-14)
    with pytest.raises(NumericalIntegrityError):
        cli.format_float(float("nan"))


def test_canonical_json_sorts_and_compacts():
    text = cli.canonical_json({"b": 1.5, "a": "x"})
    assert text == '{"a":"x","b":1.5}'
