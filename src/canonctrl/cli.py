"""Command-line front end.

Subcommands: `simulate` (model JSON -> trajectory CSV), `check`
(implementability verdict from plant/reference CSVs), `synth` (canonical
controller basis + closed-loop verification), `proptest` (seeded batch of
randomized cross-checks).  JSON goes to stdout, diagnostics to stderr.

Each option has one parser, whether its value is a flag's string or a
`--config` value: integers go through `int()`, and the four path options
take strings only.  A rejected value is an input error naming the option.

`check` and `synth` take no tolerance: every inclusion is decided on
:data:`~canonctrl.subspace.DEFAULT_RESIDUAL_TOL` and the closed-loop
equality on :data:`~canonctrl.subspace.DEFAULT_ANGLE_TOL`, as every rank
decision reads :data:`~canonctrl.subspace.DEFAULT_RANK_TOL`.  A `--config`
file supplies option defaults (flags win); each of its keys must name an
option of the subcommand, spelled with underscores, or the command is an
input error.

Exit codes: 0 success / implementable / verified, 1 definite negative,
2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import canonical, harness, lti_core, signal
from .errors import NumericalDegeneracyError
from .implementability import DataBundle, InvariantBounds, check_data
from .signal import Partition


def _parse_path(value, name: str) -> str:
    """A path option: a string (a JSON number would be opened as a file descriptor)."""
    if isinstance(value, str):
        return value
    raise ValueError(f"option {name!r} takes a path string, got {value!r}")


def _parse_int(value, name: str) -> int:
    """An integer option: a flag's string or a JSON integer (not true/false)."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"option {name!r} takes integers, got {value!r}")


def _parse_picks(value, name: str) -> tuple[int, ...]:
    """A comma-list option: a JSON integer, a list of them, or a string like '1,2'."""
    if isinstance(value, str):
        value = [tok for tok in value.split(",") if tok.strip()]
    elif not isinstance(value, list):
        value = [value]
    elif any(isinstance(v, str) for v in value):
        raise ValueError(f"option {name!r} takes integers, got {value!r}")
    return tuple(_parse_int(v, name) for v in value)


def _parse_bound_pair(value, name: str) -> tuple[int, int]:
    """One integer applies to both plant and reference; 'a,b' splits them."""
    vals = _parse_picks(value, name)
    if len(vals) == 1:
        return vals[0], vals[0]
    if len(vals) == 2:
        return vals
    raise ValueError(f"option {name!r} takes one or two integers, got {value!r}")


def _opt(args, name: str, parse, default=None, required: bool = False):
    """The option's flag value, else its --config value, read by `parse`; else `default`."""
    value = getattr(args, name, None)
    if value is None and args.config_data:
        value = args.config_data.get(name)
    if value is None:
        if required:
            raise ValueError(f"missing required option --{name.replace('_', '-')}")
        return default
    return parse(value, name)


def _load_config(args) -> None:
    args.config_data = {}
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as f:
            data = json.load(f)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        options = set(vars(args)) - {"command", "func", "config", "config_data"}
        unknown = sorted(set(data) - options)
        if unknown:
            raise ValueError(
                f"config key(s) {', '.join(map(repr, unknown))} name no option of "
                f"{args.command} (keys are option names with underscores)"
            )
        args.config_data = data


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def cmd_simulate(args) -> int:
    model = lti_core.read_model_json(_opt(args, "model", _parse_path, required=True))
    T = _opt(args, "T", _parse_int, required=True)
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    seed = _opt(args, "seed", _parse_int, default=0)
    out = Path(_opt(args, "out", _parse_path, required=True))
    traj = harness.plant_data(model, T, seed)
    signal.write_csv(out, traj)
    _print_json({"written": str(out), "T": traj.T, "channels": traj.q, "seed": seed})
    return 0


def _bundle_from_args(args) -> DataBundle:
    plant = signal.read_csv(_opt(args, "plant", _parse_path, required=True))
    ref = signal.read_csv(_opt(args, "ref", _parse_path, required=True))
    picks_w = _opt(args, "picks_w", _parse_picks, required=True)
    picks_c = _opt(args, "picks_c", _parse_picks, required=True)
    partition = Partition(plant.q, picks_w, picks_c)
    L = _opt(args, "L", _parse_int, required=True)
    lag_bound = _opt(args, "lag_bound", _parse_int, required=True)
    m_plant, m_ref = _opt(args, "m_bound", _parse_bound_pair, required=True)
    n_plant, n_ref = _opt(args, "n_bound", _parse_bound_pair, required=True)
    bounds = InvariantBounds(m_plant, n_plant, m_ref, n_ref, lag_bound)
    return DataBundle(plant, ref, L, partition, bounds)


def cmd_check(args) -> int:
    verdict = check_data(_bundle_from_args(args))
    _print_json(verdict.to_dict())
    return 0 if verdict.implementable else 1


def cmd_synth(args) -> int:
    bundle = _bundle_from_args(args)
    out = Path(_opt(args, "out", _parse_path, required=True))
    verdict = check_data(bundle)
    syn = canonical.synthesize(bundle)
    ctrl = syn.controller
    canonical.write_controller_csv(out, ctrl)
    _print_json(
        {
            "verdict": verdict.to_dict(),
            "controller": {"written": str(out), "rank": ctrl.dim, "k": ctrl.k, "L": ctrl.L},
            "closed_loop": syn.report.to_dict(),
        }
    )
    return 0 if syn.report.verified else 1


def cmd_proptest(args) -> int:
    seeds = _opt(args, "seeds", _parse_int, required=True)
    base_seed = _opt(args, "seed", _parse_int, default=0)
    bounds = {name: _opt(args, name, _parse_int) for name in ("q_w_max", "q_c_max", "n_max")}
    cfg = harness.HarnessConfig(**{k: v for k, v in bounds.items() if v is not None})
    report = harness.run_batch(seeds, base_seed, cfg)
    report["base_seed"] = base_seed
    _print_json(report)
    return 0 if not report["failures"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canonctrl",
        description="Data-driven implementability checks and canonical controller synthesis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON file of option defaults (flags win)")

    p_sim = sub.add_parser("simulate", help="simulate a model JSON to a trajectory CSV")
    p_sim.add_argument("--model", help="model JSON path")
    p_sim.add_argument("--T", help="trajectory length")
    p_sim.add_argument("--seed", help="seed for input and initial state")
    p_sim.add_argument("--out", help="output CSV path")
    add_common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    def add_check_args(p):
        p.add_argument("--plant", help="plant trajectory CSV")
        p.add_argument("--ref", help="reference trajectory CSV")
        p.add_argument("--picks-w", dest="picks_w", help="1-based to-be-controlled channels, e.g. 1,2")
        p.add_argument("--picks-c", dest="picks_c", help="1-based control channels, e.g. 3")
        p.add_argument("--L", help="horizon")
        p.add_argument("--lag-bound", dest="lag_bound", help="bound on the largest lag")
        p.add_argument("--m-bound", dest="m_bound", help="input-count bound(s): 'm' or 'm_plant,m_ref'")
        p.add_argument("--n-bound", dest="n_bound", help="order bound(s): 'n' or 'n_plant,n_ref'")
        add_common(p)

    p_check = sub.add_parser("check", help="data-driven implementability verdict")
    add_check_args(p_check)
    p_check.set_defaults(func=cmd_check)

    p_synth = sub.add_parser("synth", help="synthesize and verify the canonical controller")
    add_check_args(p_synth)
    p_synth.add_argument("--out", help="controller basis CSV path (JSON sidecar alongside)")
    p_synth.set_defaults(func=cmd_synth)

    p_prop = sub.add_parser("proptest", help="seeded batch of randomized cross-checks")
    p_prop.add_argument("--seeds", help="number of cases")
    p_prop.add_argument("--seed", help="base seed (cases use base..base+seeds-1)")
    p_prop.add_argument("--q-w-max", dest="q_w_max", help="max to-be-controlled channels")
    p_prop.add_argument("--q-c-max", dest="q_c_max", help="max control channels")
    p_prop.add_argument("--n-max", dest="n_max", help="max plant order")
    add_common(p_prop)
    p_prop.set_defaults(func=cmd_proptest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _load_config(args)
        return args.func(args)
    except (ValueError, OSError, KeyError, TypeError, NumericalDegeneracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
