"""Command-line front end: scenario runner, procedure comparison, mu sweep.

Scenario files are JSON with a versioned schema field.  All artifacts are
written with canonical formatting (sorted JSON keys, 15-significant-digit
floats, '.' decimal separator) so repeated runs are byte-identical.  The
tables ``_SECTIONS``, ``_STATE_KINDS``, ``_POVMS`` and ``_OUTPUTS`` are the
scenario schema: keys, types, messages and dispatch are read from them, so
a new field, kind, token or output type is one row.

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
from .estimation import TrialConfig, optimal_povm, precision_trial
from .metrology import Measurement, build_report, mu_sweep
from .opalg import DIM_CAP, HermitianOperator, evolve, hermitian_eigensystem
from .procedures import (
    KINDS,
    JointGenerator,
    ProcedureSpec,
    _FIELD_KINDS,
    base_diagonal,
    build_generator,
    closed_form_extremes,
    snl_baseline,
)
from .states import (
    _check_mu,
    coherent_state,
    mode_number_generator,
    noon_state,
    number_operator,
    optimal_state,
    product_balanced_state,
)

SCHEMA = "metrology-scenario/1"
# each section: its required fields, and the JSON type of every field it allows
_SECTIONS = {
    "state": (("kind",), {"kind": "string", "mu": "number", "rel_phase": "number", "n_photons": "integer",
                          "alpha": "complex", "cutoff": "integer"}),
    "procedure": (("kind", "n_systems", "base_eigs"), {"kind": "string", "n_systems": "integer", "base_eigs": "pair",
                  "body_order": "integer", "repetitions": "integer", "subsystem_dim": "integer"}),
    "trial": (("phi_true", "shots_per_trial", "n_trials", "rng_seed", "search_interval"),
              {"phi_true": "number", "shots_per_trial": "integer", "n_trials": "integer", "rng_seed": "integer",
               "search_interval": "pair", "povm": "string"}),
}
_SCENARIO_KEYS = {"schema", "name", "phi", "outputs", *_SECTIONS}
_OUTPUT_KEYS = {"type", "path", "grid"}


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise NumericalIntegrityError(f"non-finite value {x!r} reached serialization")
    return format(float(x), ".15g")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, fixed float formatting, compact separators."""
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
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


def _csv_cell(cell) -> str:
    if isinstance(cell, str):
        return cell
    return str(int(cell)) if isinstance(cell, (int, np.integer)) else format_float(float(cell))


def _csv_text(header: list[str], rows: list[list]) -> str:
    return "\n".join([",".join(header)] + [",".join(map(_csv_cell, row)) for row in rows]) + "\n"


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


def _is_pair(value) -> bool:
    return isinstance(value, list) and len(value) == 2 and all(_is_number(v) for v in value)


# each JSON type: its test, and the noun a violation message names
_TYPES = {
    "string": (lambda v: isinstance(v, str), "a string"),
    "integer": (_is_integer, "an integer"),
    "number": (_is_number, "a finite number"),
    "pair": (_is_pair, "a pair of finite numbers"),
    # a null alpha reads as an absent one
    "complex": (lambda v: v is None or _is_number(v) or _is_pair(v), "a finite number or a [re, im] pair"),
}


def _either(names) -> str:
    """'a, b or c' for the names in order."""
    *head, last = names
    return f"{', '.join(head)} or {last}" if head else last


def load_scenario(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read scenario file: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, an integer past the digit limit, deep nesting
        raise ParseError(f"scenario is not valid JSON: {exc}") from exc
    raw = _expect_dict(raw, "scenario")
    _check_keys(raw, _SCENARIO_KEYS, "scenario")
    if raw.get("schema") != SCHEMA:
        raise ParseError(f"schema must be {SCHEMA!r}, got {raw.get('schema')!r}")
    if not isinstance(raw.get("name"), str):
        raise ParseError("scenario needs a string name")
    if "state" not in raw:
        raise ParseError("scenario needs a state section")
    # typed parse: every field has its JSON type before any constructor runs
    for label, (required, types) in _SECTIONS.items():
        if label in raw:
            section = _expect_dict(raw[label], label)
            _check_keys(section, types.keys(), label)
            for key in required:
                if key not in section:
                    raise ParseError(f"{label} section is missing {key!r}")
            for key, value in section.items():
                test, noun = _TYPES[types[key]]
                if not test(value):
                    raise ParseError(f"{label} {key} must be {noun}, got {value!r}")
    if not _is_number(raw.get("phi", 0.0)):
        raise ParseError(f"phi must be a finite number, got {raw['phi']!r}")
    outputs = raw.get("outputs", [])
    if not isinstance(outputs, list):
        raise ParseError("outputs must be a list")
    paths = {}  # resolved path -> the path as written
    for entry in outputs:
        _check_keys(_expect_dict(entry, "output"), _OUTPUT_KEYS, "output")
        # a non-string type would raise TypeError on the lookup
        if not isinstance(entry.get("type"), str) or entry["type"] not in _OUTPUTS:
            raise ParseError(f"output type must be {_either(_OUTPUTS)}, got {entry.get('type')!r}")
        if not isinstance(entry.get("path"), str) or not entry["path"]:
            raise ParseError("every output needs a non-empty string path")
        try:
            path = os.path.realpath(entry["path"])
        except ValueError as exc:  # a NUL byte, or a lone surrogate the file system encoding cannot hold
            raise ParseError(f"output path {entry['path']!r} is not a valid file name: {exc}") from exc
        if path in paths:
            raise ParseError(f"outputs {paths[path]!r} and {entry['path']!r} write to the same file")
        paths[path] = entry["path"]
        if "grid" in entry and not _is_integer(entry["grid"]):
            raise ParseError("output grid must be an integer")
    return raw


def _optimal_mu(state: dict, spec: ProcedureSpec):
    _check_mu(state["mu"])  # before the joint generator is built
    gen = build_generator(spec)
    return gen, optimal_state(gen, state["mu"], state.get("rel_phase", 0.0))


def _product_balanced(state: dict, spec: ProcedureSpec):
    base = HermitianOperator.from_diagonal(base_diagonal(spec))
    return build_generator(spec), product_balanced_state(spec.n_systems, hermitian_eigensystem(base))


def _noon(state: dict, spec: None):
    return mode_number_generator(state["n_photons"]), noon_state(state["n_photons"])


def _coherent(state: dict, spec: None):
    alpha = complex(*state["alpha"]) if isinstance(state["alpha"], list) else complex(state["alpha"])
    return number_operator(state["cutoff"]), coherent_state(alpha, state["cutoff"])


# each state kind: the fields it needs and the message when one is absent or null, whether it takes
# a procedure section, and its (generator, probe) builder, which checks value ranges; builders look
# build_generator up when called, so a wrapped module attribute sees every call
_STATE_KINDS = {
    "optimal_mu": (("mu",), "optimal_mu needs mu", True, _optimal_mu),
    "noon": (("n_photons",), "noon needs n_photons >= 1", False, _noon),
    "product_balanced": ((), "", True, _product_balanced),
    "coherent": (("alpha", "cutoff"), "coherent needs alpha and cutoff", False, _coherent),
}


def realize_scenario(raw: dict):
    """Scenario dict -> (spec or None, generator, probe state), by the state kind's row.

    Photonic kinds (noon, coherent) define their own generator; the qubit kinds need a procedure.
    """
    state = raw["state"]
    kind = state["kind"]
    if kind not in _STATE_KINDS:
        raise ValidationError(f"unknown state kind {kind!r}; expected one of {tuple(_STATE_KINDS)}")
    needed, message, takes_procedure, build = _STATE_KINDS[kind]
    if any(state.get(key) is None for key in needed):
        raise ValidationError(message)
    spec = ProcedureSpec(**raw["procedure"]) if "procedure" in raw else None
    if spec is not None and not takes_procedure:
        raise ValidationError(f"state kind {kind!r} defines its own generator; drop the procedure section")
    if spec is None and takes_procedure:
        raise ValidationError(f"state kind {kind!r} needs a procedure section")
    return (spec, *build(state, spec))


def _site_product(spec: ProcedureSpec | None, gen: JointGenerator) -> Measurement:
    if spec is None:
        raise ValidationError("site-product POVM needs a procedure section")
    site_gen = JointGenerator(HermitianOperator.from_diagonal(base_diagonal(spec)), 1)
    return Measurement(optimal_povm(site_gen).site, spec.n_systems)


# each trial povm token and its measurement constructor
_POVMS = {"optimal": lambda spec, gen: optimal_povm(gen), "site-product": _site_product}


def _povm_token(trial: dict) -> str:
    token = trial.get("povm", "optimal")  # a string, by the typed parse
    if token not in _POVMS:
        raise ValidationError(f"unknown povm token {token!r}; expected {_either(map(repr, _POVMS))}")
    return token


def _build_trial_config(raw: dict, spec, gen) -> TrialConfig:
    section = raw["trial"]
    lo, hi = section["search_interval"]
    return TrialConfig(
        phi_true=float(section["phi_true"]),
        shots_per_trial=section["shots_per_trial"],
        n_trials=section["n_trials"],
        rng_seed=section["rng_seed"],
        povm=_POVMS[_povm_token(section)](spec, gen),
        search_interval=(float(lo), float(hi)),
    )


def _render_report(entry: dict, raw: dict, spec, gen, probe, config) -> str:
    evolved = evolve(probe, gen.generator, float(raw.get("phi", 0.0)))
    return canonical_json(build_report(evolved, gen, spec).to_dict()) + "\n"


def _render_mu_sweep(entry: dict, raw: dict, spec, gen, probe, config) -> str:
    rows = mu_sweep(gen, np.linspace(0.0, 1.0, entry.get("grid", 101)))
    return _csv_text(["mu", "shifted_expectation", "stddev"], rows)


def _render_trial(entry: dict, raw: dict, spec, gen, probe, config: TrialConfig) -> str:
    return canonical_json(precision_trial(gen, probe, config).to_dict()) + "\n"


# each output type and its artifact renderer
_OUTPUTS = {"report": _render_report, "mu_sweep": _render_mu_sweep, "trial": _render_trial}


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
    if "trial" in raw:
        _povm_token(raw["trial"])  # checked without a trial output too; only a trial output builds it
    config = None
    if any(entry["type"] == "trial" for entry in outputs):
        if "trial" not in raw:
            raise ValidationError("scenario requests a trial artifact but has no trial section")
        config = _build_trial_config(raw, spec, gen)  # all validation before any computation
    contents = [_OUTPUTS[entry["type"]](entry, raw, spec, gen, probe, config).encode() for entry in outputs]
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
    # the trial artifact's bytes, on stdout
    sys.stdout.write(_render_trial({}, raw, spec, gen, probe, _build_trial_config(raw, spec, gen)))
    return 0


def _parse_number(text: str, cast, label: str):
    """cast(text) for a command-line number; a malformed one is a usage error."""
    try:
        return cast(text)
    except ValueError:
        noun = "an integer" if cast is int else "a number"
        raise UsageError(f"{label} must be {noun}, got {text!r}") from None


# each compare token name and its kind: "sequential" names sequential-wrapped
_KIND_TOKENS = {kind.partition("-")[0]: kind for kind in KINDS}


def _parse_kind_token(token: str) -> tuple[str, dict]:
    """The ProcedureSpec fields of a compare token: a kind name, then ":integer" if the kind has a field."""
    name, _, arg = token.partition(":")
    kind = _KIND_TOKENS.get(name)
    if kind is None:
        raise UsageError(f"unknown kind token {token!r}")
    field = next((f for f, owner in _FIELD_KINDS.items() if owner == kind), None)
    if field is None:
        if arg:
            raise UsageError(f"{name} takes no argument, got {token!r}")
        return token, {"kind": kind}
    if not arg:
        raise UsageError(f"{name} needs its {field}, e.g. {name}:2")
    return token, {"kind": kind, field: _parse_number(arg, int, f"{name} {field}")}


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
    gen = JointGenerator(HermitianOperator.from_diagonal([0.0, args.seminorm]), 1)
    rows = mu_sweep(gen, np.linspace(0.0, 1.0, args.grid))
    _emit_csv(_csv_text(["mu", "shifted_expectation", "stddev"], rows), args.out)
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
    p_cmp.add_argument("--base", default="", help="lambda_min,lambda_max (default 0,1); negative: --base=-0.5,1")
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
