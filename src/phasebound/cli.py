"""Command-line front end: scenario runner, procedure comparison, mu sweep.

Scenario files are JSON with a versioned schema field.  All artifacts are
written with canonical formatting (sorted JSON keys, 15-significant-digit
floats, '.' decimal separator) so repeated runs are byte-identical.

Exit codes: 0 success, 2 parse failure, 3 validation failure, 4 numerical
integrity failure.  Each failure prints a one-line prefixed reason on
stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

import numpy as np

from .errors import NumericalIntegrityError, ParseError, UsageError, ValidationError
from .estimation import TrialConfig, optimal_povm, precision_trial, tensor_power_povm
from .metrology import build_report, mu_sweep
from .opalg import DIM_CAP, HermitianOperator, evolve, hermitian_eigensystem
from .procedures import (
    JointGenerator,
    ProcedureSpec,
    base_diagonal,
    build_generator,
    closed_form_extremes,
    snl_baseline,
)
from .states import (
    StateFamily,
    coherent_state,
    mode_number_generator,
    noon_state,
    number_operator,
    optimal_state,
    product_balanced_state,
)

SCHEMA = "metrology-scenario/1"
_PROCEDURE_KEYS = {"kind", "n_systems", "base_eigs", "body_order", "repetitions", "subsystem_dim"}
_STATE_KEYS = {"kind", "mu", "rel_phase", "n_photons", "alpha", "cutoff"}
_TRIAL_KEYS = {"phi_true", "shots_per_trial", "n_trials", "rng_seed", "search_interval", "povm"}
_SCENARIO_KEYS = {"schema", "name", "procedure", "state", "phi", "trial", "outputs"}
_OUTPUT_KEYS = {"type", "path", "grid"}
_REQUIRED_KEYS = {
    "procedure": ("kind", "n_systems", "base_eigs"),
    "state": ("kind",),
    "trial": ("phi_true", "shots_per_trial", "n_trials", "rng_seed", "search_interval"),
}
# JSON type of every typed field; each key means the same in every section it appears in
_FIELD_TYPES = {
    "kind": "string",
    "povm": "string",
    "n_systems": "integer",
    "body_order": "integer",
    "repetitions": "integer",
    "subsystem_dim": "integer",
    "n_photons": "integer",
    "cutoff": "integer",
    "shots_per_trial": "integer",
    "n_trials": "integer",
    "rng_seed": "integer",
    "mu": "number",
    "rel_phase": "number",
    "phi_true": "number",
    "base_eigs": "pair",
    "search_interval": "pair",
}


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise NumericalIntegrityError(f"non-finite value {x!r} reached serialization")
    return format(float(x), ".15g")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed float formatting, compact separators."""
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        return "{" + ",".join(json.dumps(str(k)) + ":" + canonical_json(v) for k, v in items) + "}"
    raise UsageError(f"cannot serialize {type(obj).__name__}")


def _csv_text(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, str):
                cells.append(cell)
            elif isinstance(cell, (int, np.integer)):
                cells.append(str(int(cell)))
            else:
                cells.append(format_float(float(cell)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _expect_dict(value, label: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{label} must be a JSON object, got {type(value).__name__}")
    return value


def _check_keys(section: dict, allowed: set, label: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ParseError(f"unknown {label} keys: {sorted(unknown)}")


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer literal beyond float range
        return False


def _check_fields(section: dict, label: str) -> None:
    # typed parse: every field has its JSON type before any constructor runs
    for key in _REQUIRED_KEYS.get(label, ()):
        if key not in section:
            raise ParseError(f"{label} section is missing {key!r}")
    for key, value in section.items():
        kind = _FIELD_TYPES.get(key)
        if kind == "string" and not isinstance(value, str):
            raise ParseError(f"{label} {key} must be a string, got {value!r}")
        if kind == "integer" and not _is_integer(value):
            raise ParseError(f"{label} {key} must be an integer, got {value!r}")
        if kind == "number" and not _is_number(value):
            raise ParseError(f"{label} {key} must be a finite number, got {value!r}")
        if kind == "pair" and not (
            isinstance(value, list) and len(value) == 2 and all(_is_number(v) for v in value)
        ):
            raise ParseError(f"{label} {key} must be a pair of finite numbers, got {value!r}")


def load_scenario(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read scenario file: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer literal past int's digit limit
        raise ParseError(f"scenario is not valid JSON: {exc}") from exc
    raw = _expect_dict(raw, "scenario")
    _check_keys(raw, _SCENARIO_KEYS, "scenario")
    if raw.get("schema") != SCHEMA:
        raise ParseError(f"schema must be {SCHEMA!r}, got {raw.get('schema')!r}")
    if not isinstance(raw.get("name"), str):
        raise ParseError("scenario needs a string name")
    if "state" not in raw:
        raise ParseError("scenario needs a state section")
    for label, allowed in (("state", _STATE_KEYS), ("procedure", _PROCEDURE_KEYS), ("trial", _TRIAL_KEYS)):
        if label in raw:
            section = _expect_dict(raw[label], label)
            _check_keys(section, allowed, label)
            _check_fields(section, label)
    if not _is_number(raw.get("phi", 0.0)):
        raise ParseError(f"phi must be a finite number, got {raw['phi']!r}")
    outputs = raw.get("outputs", [])
    if not isinstance(outputs, list):
        raise ParseError("outputs must be a list")
    for entry in outputs:
        _check_keys(_expect_dict(entry, "output"), _OUTPUT_KEYS, "output")
        if entry.get("type") not in ("report", "mu_sweep", "trial"):
            raise ParseError(f"output type must be report, mu_sweep or trial, got {entry.get('type')!r}")
        if not isinstance(entry.get("path"), str) or not entry["path"]:
            raise ParseError("every output needs a non-empty string path")
        if "grid" in entry and (not isinstance(entry["grid"], int) or isinstance(entry["grid"], bool)):
            raise ParseError("output grid must be an integer")
    return raw


def _parse_alpha(value):
    if _is_number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(_is_number(v) for v in value):
        return complex(value[0], value[1])
    raise ParseError("alpha must be a finite number or a [re, im] pair")


def _build_family(section: dict) -> StateFamily:
    kwargs = dict(section)
    if "alpha" in kwargs and kwargs["alpha"] is not None:
        kwargs["alpha"] = _parse_alpha(kwargs["alpha"])
    return StateFamily(**kwargs)


def _build_spec(section: dict) -> ProcedureSpec:
    kwargs = dict(section)
    eigs = kwargs["base_eigs"]
    kwargs["base_eigs"] = (float(eigs[0]), float(eigs[1]))
    return ProcedureSpec(**kwargs)


def realize_scenario(raw: dict):
    """Scenario dict -> (spec or None, generator, probe state).

    Photonic state kinds (noon, coherent) define their own generator and
    reject a procedure section; the qubit kinds require one.
    """
    family = _build_family(raw["state"])
    spec = _build_spec(raw["procedure"]) if "procedure" in raw else None
    if family.kind in ("noon", "coherent"):
        if spec is not None:
            raise ValidationError(f"state kind {family.kind!r} defines its own generator; drop the procedure section")
        if family.kind == "noon":
            return None, mode_number_generator(family.n_photons), noon_state(family.n_photons)
        gen = number_operator(family.cutoff)
        return None, gen, coherent_state(family.alpha, family.cutoff)
    if spec is None:
        raise ValidationError(f"state kind {family.kind!r} needs a procedure section")
    gen = build_generator(spec)
    if family.kind == "optimal_mu":
        return spec, gen, optimal_state(gen, family.mu, family.rel_phase)
    base = HermitianOperator.from_diagonal(base_diagonal(spec))
    return spec, gen, product_balanced_state(spec.n_systems, hermitian_eigensystem(base))


def _resolve_povm(token: str, spec: ProcedureSpec | None, gen: JointGenerator):
    if token == "optimal":
        return optimal_povm(gen)
    if token == "site-product":
        if spec is None:
            raise ValidationError("site-product POVM needs a procedure section")
        lo, hi = spec.base_eigs
        site_gen = JointGenerator(
            HermitianOperator.from_diagonal(base_diagonal(spec)), 1, lo, hi
        )
        return tensor_power_povm(optimal_povm(site_gen), spec.n_systems)
    raise ValidationError(f"unknown povm token {token!r}; expected 'optimal' or 'site-product'")


def _build_trial_config(raw: dict, spec, gen) -> TrialConfig:
    section = raw["trial"]
    interval = section["search_interval"]
    povm = _resolve_povm(section.get("povm", "optimal"), spec, gen)
    return TrialConfig(
        phi_true=float(section["phi_true"]),
        shots_per_trial=section["shots_per_trial"],
        n_trials=section["n_trials"],
        rng_seed=section["rng_seed"],
        povm=povm,
        search_interval=(float(interval[0]), float(interval[1])),
    )


def _render_output(entry: dict, raw: dict, spec, gen, probe, config: TrialConfig | None) -> bytes:
    kind = entry["type"]
    if kind == "report":
        evolved = evolve(probe, gen.generator, float(raw.get("phi", 0.0)))
        report = build_report(evolved, gen, spec)
        return (canonical_json(report.to_dict()) + "\n").encode()
    if kind == "mu_sweep":
        rows = mu_sweep(gen, np.linspace(0.0, 1.0, entry.get("grid", 101)))
        return _csv_text(["mu", "shifted_expectation", "stddev"], [list(r) for r in rows]).encode()
    result = precision_trial(gen, probe, config)
    return (canonical_json(result.to_dict()) + "\n").encode()


def _check_grid(grid: int, label: str) -> None:
    # one optimal state per mu point, so the grid is bounded like a dimension
    if not 2 <= grid <= DIM_CAP:
        raise ValidationError(f"{label} must lie in [2, {DIM_CAP}], got {grid}")


def cmd_run(args) -> int:
    raw = load_scenario(args.scenario)
    outputs = raw.get("outputs", [])
    for entry in outputs:
        if entry["type"] == "mu_sweep":
            _check_grid(entry.get("grid", 101), "mu_sweep grid")
    spec, gen, probe = realize_scenario(raw)
    config = None
    if any(entry["type"] == "trial" for entry in outputs):
        if "trial" not in raw:
            raise ValidationError("scenario requests a trial artifact but has no trial section")
        config = _build_trial_config(raw, spec, gen)  # all validation before any computation
    contents = [_render_output(entry, raw, spec, gen, probe, config) for entry in outputs]
    _write_outputs([entry["path"] for entry in outputs], contents)
    for entry in outputs:
        print(f"wrote {entry['path']}")
    return 0


def _write_outputs(paths: list[str], contents: list[bytes]) -> None:
    """Write every rendered artifact, or, on any failure, remove the files and directories this call made."""
    made, written = [], []
    try:
        for path, blob in zip(paths, contents):
            parent = head = os.path.dirname(path) or "."
            missing = []
            while head and not os.path.exists(head):
                missing.append(head)
                head = os.path.dirname(head)
            made += reversed(missing)  # in creation order, outermost first
            try:
                os.makedirs(parent, exist_ok=True)
                with open(path, "wb") as fh:
                    written.append(path)
                    fh.write(blob)
            except OSError as exc:
                raise ValidationError(f"cannot write output {path!r}: {exc}") from exc
    except BaseException:
        for path in written:
            with contextlib.suppress(OSError):
                os.remove(path)
        for path in reversed(made):
            with contextlib.suppress(OSError):
                os.rmdir(path)
        raise


def cmd_estimate(args) -> int:
    raw = load_scenario(args.scenario)
    spec, gen, probe = realize_scenario(raw)
    if "trial" not in raw:
        raise ValidationError("estimate needs a trial section in the scenario")
    config = _build_trial_config(raw, spec, gen)
    result = precision_trial(gen, probe, config)
    print(canonical_json(result.to_dict()))
    return 0


def _parse_number(text: str, cast, label: str):
    """cast(text) for a command-line number; a malformed one is a usage error."""
    try:
        return cast(text)
    except ValueError:
        noun = "an integer" if cast is int else "a number"
        raise UsageError(f"{label} must be {noun}, got {text!r}") from None


def _parse_kind_token(token: str) -> tuple[str, dict]:
    name, _, arg = token.partition(":")
    if name == "linear":
        if arg:
            raise UsageError(f"linear takes no argument, got {token!r}")
        return token, {"kind": "linear"}
    if name == "kbody":
        if not arg:
            raise UsageError("kbody needs an order, e.g. kbody:2")
        return token, {"kind": "kbody", "body_order": _parse_number(arg, int, "kbody order")}
    if name == "exponential":
        if arg:
            raise UsageError(f"exponential takes no argument, got {token!r}")
        return token, {"kind": "exponential"}
    if name == "sequential":
        if not arg:
            raise UsageError("sequential needs a repetition count, e.g. sequential:3")
        return token, {"kind": "sequential-wrapped", "repetitions": _parse_number(arg, int, "repetition count")}
    raise UsageError(f"unknown kind token {token!r}")


def compare_procedures(n_range: list[int], kind_tokens: list[str], base_eigs=(0.0, 1.0)):
    """Rows (kind, N, Q, seminorm, bound_query, bound_snl) from closed forms.

    Rows whose kind cannot be built at the requested N (k > N, a query count
    or extreme past float range) are skipped and reported; no matrices are
    materialized, so N is limited only by float range.
    """
    rows = []
    skipped = []
    for token in kind_tokens:
        token, fields = _parse_kind_token(token)
        for n in n_range:
            try:
                spec = ProcedureSpec(n_systems=n, base_eigs=tuple(base_eigs), **fields)
                q, h_lo, h_hi = closed_form_extremes(spec)
                seminorm = h_hi - h_lo
                if seminorm <= 0:
                    raise ValidationError("flat joint spectrum")
                snl = format_float(snl_baseline(spec)[1]) if spec.kind == "linear" else ""
                rows.append([token, n, q, seminorm, 1.0 / seminorm, snl])
            except (UsageError, ValidationError) as exc:
                skipped.append(f"skipped kind={token} n={n}: {exc}")
    return rows, skipped


def _emit_csv(text: str, out: str) -> None:
    """Write ``text`` to ``out``, creating its directory, or to stdout when ``out`` is empty."""
    if not out:
        sys.stdout.write(text)
        return
    _write_outputs([out], [text.encode()])
    print(f"wrote {out}")


def cmd_compare(args) -> int:
    kinds = [tok for tok in args.kinds.split(",") if tok] if args.kinds else []
    n_range = [_parse_number(tok, int, "--n entry") for tok in args.n.split(",") if tok] if args.n else []
    base = (0.0, 1.0)
    if args.base:
        parts = args.base.split(",")
        if len(parts) != 2:
            raise UsageError("--base needs lambda_min,lambda_max")
        base = tuple(_parse_number(part, float, "--base entry") for part in parts)
    rows, skipped = compare_procedures(n_range, kinds, base)
    text = _csv_text(["kind", "n", "q", "seminorm", "bound_query", "bound_snl"], rows)
    for note in skipped:
        print(note, file=sys.stderr)
    _emit_csv(text, args.out)
    return 0


def cmd_sweep_mu(args) -> int:
    if args.seminorm <= 0:
        raise ValidationError("--seminorm must be positive")
    _check_grid(args.grid, "--grid")
    gen = JointGenerator(
        HermitianOperator.from_diagonal([0.0, args.seminorm]), 1, 0.0, args.seminorm
    )
    rows = mu_sweep(gen, np.linspace(0.0, 1.0, args.grid))
    text = _csv_text(["mu", "shifted_expectation", "stddev"], [list(r) for r in rows])
    _emit_csv(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasebound",
        description="Resource accounting and precision bounds for quantum phase estimation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file and write its artifacts")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.set_defaults(func=cmd_run)

    p_est = sub.add_parser("estimate", help="run the scenario's Monte-Carlo trial, print the result")
    p_est.add_argument("scenario", help="path to a scenario JSON file")
    p_est.set_defaults(func=cmd_estimate)

    p_cmp = sub.add_parser("compare", help="closed-form comparison table across kinds and N")
    p_cmp.add_argument("--kinds", default="", help="comma list: linear, kbody:K, exponential, sequential:T")
    p_cmp.add_argument("--n", default="", help="comma list of system counts")
    p_cmp.add_argument("--base", default="", help="base eigenvalues lambda_min,lambda_max (default 0,1)")
    p_cmp.add_argument("--out", default="", help="output CSV path (default stdout)")
    p_cmp.set_defaults(func=cmd_compare)

    p_sweep = sub.add_parser("sweep-mu", help="shifted expectation and stddev over a mu grid")
    p_sweep.add_argument("--seminorm", type=float, default=1.0, help="spectral width of the generator")
    p_sweep.add_argument("--grid", type=int, default=101, help="number of mu points")
    p_sweep.add_argument("--out", default="", help="output CSV path (default stdout)")
    p_sweep.set_defaults(func=cmd_sweep_mu)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse-error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValidationError) as exc:
        print(f"validation-error: {exc}", file=sys.stderr)
        return 3
    except NumericalIntegrityError as exc:
        print(f"numerical-error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
