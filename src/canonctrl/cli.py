"""Command-line front end.

Subcommands: `simulate` (model JSON -> trajectory CSV), `check`
(implementability verdict from plant/reference CSVs), `synth` (canonical
controller basis + closed-loop verification), `proptest` (seeded batch of
randomized cross-checks).  JSON goes to stdout, diagnostics to stderr.

Each option is read from its flag alone: integers go through `int()`, and
a rejected value is an input error naming the option.

`check` and `synth` take no tolerance: every inclusion is decided on
:data:`~canonctrl.subspace.DEFAULT_RESIDUAL_TOL` and the closed-loop
equality on :data:`~canonctrl.subspace.DEFAULT_ANGLE_TOL`, as every rank
decision reads :data:`~canonctrl.subspace.DEFAULT_RANK_TOL`.

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


def _parse_int(value: str, name: str) -> int:
    """An integer option: its flag's string, read by `int()`."""
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"option {name!r} takes integers, got {value!r}") from None


def _parse_picks(value: str, name: str) -> tuple[int, ...]:
    """A comma-list option: a string like '1,2'; empty entries are skipped."""
    return tuple(_parse_int(tok, name) for tok in value.split(",") if tok.strip())


def _parse_bound_pair(value: str, name: str) -> tuple[int, int]:
    """One integer applies to both plant and reference; 'a,b' splits them."""
    vals = _parse_picks(value, name)
    if len(vals) == 1:
        return vals[0], vals[0]
    if len(vals) == 2:
        return vals
    raise ValueError(f"option {name!r} takes one or two integers, got {value!r}")


def _opt(args, name: str, parse, default=None):
    """The option's flag value read by `parse`, or `default` when the flag is absent."""
    value = getattr(args, name)
    return default if value is None else parse(value, name)


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def cmd_simulate(args) -> int:
    model = lti_core.read_model_json(args.model)
    T = signal.require_count(_opt(args, "T", _parse_int), "T", 1)
    seed = signal.require_count(_opt(args, "seed", _parse_int, default=0), "seed")
    out = Path(args.out)
    traj = harness.plant_data(model, T, seed)
    signal.write_csv(out, traj)
    _print_json({"written": str(out), "T": traj.T, "channels": traj.q, "seed": seed})
    return 0


def _bundle_from_args(args) -> DataBundle:
    plant = signal.read_csv(args.plant)
    ref = signal.read_csv(args.ref)
    picks_w = _opt(args, "picks_w", _parse_picks)
    picks_c = _opt(args, "picks_c", _parse_picks)
    partition = Partition(plant.q, picks_w, picks_c)
    L = _opt(args, "L", _parse_int)
    lag_bound = _opt(args, "lag_bound", _parse_int)
    m_plant, m_ref = _opt(args, "m_bound", _parse_bound_pair)
    n_plant, n_ref = _opt(args, "n_bound", _parse_bound_pair)
    bounds = InvariantBounds(m_plant, n_plant, m_ref, n_ref, lag_bound)
    return DataBundle(plant, ref, L, partition, bounds)


def cmd_check(args) -> int:
    verdict = check_data(_bundle_from_args(args))
    _print_json(verdict.to_dict())
    return 0 if verdict.implementable else 1


def cmd_synth(args) -> int:
    bundle = _bundle_from_args(args)
    out = Path(args.out)
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
    seeds = _opt(args, "seeds", _parse_int)
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

    p_sim = sub.add_parser("simulate", help="simulate a model JSON to a trajectory CSV")
    p_sim.add_argument("--model", required=True, help="model JSON path")
    p_sim.add_argument("--T", required=True, help="trajectory length")
    p_sim.add_argument("--seed", help="seed for input and initial state")
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.set_defaults(func=cmd_simulate)

    def add_check_args(p):
        for flag, text in (
            ("--plant", "plant trajectory CSV"),
            ("--ref", "reference trajectory CSV"),
            ("--picks-w", "1-based to-be-controlled channels, e.g. 1,2"),
            ("--picks-c", "1-based control channels, e.g. 3"),
            ("--L", "horizon"),
            ("--lag-bound", "bound on the largest lag"),
            ("--m-bound", "input-count bound(s): 'm' or 'm_plant,m_ref'"),
            ("--n-bound", "order bound(s): 'n' or 'n_plant,n_ref'"),
        ):
            p.add_argument(flag, required=True, help=text)

    p_check = sub.add_parser("check", help="data-driven implementability verdict")
    add_check_args(p_check)
    p_check.set_defaults(func=cmd_check)

    p_synth = sub.add_parser("synth", help="synthesize and verify the canonical controller")
    add_check_args(p_synth)
    p_synth.add_argument(
        "--out", required=True, help="controller basis CSV path (JSON sidecar alongside)"
    )
    p_synth.set_defaults(func=cmd_synth)

    p_prop = sub.add_parser("proptest", help="seeded batch of randomized cross-checks")
    p_prop.add_argument("--seeds", required=True, help="number of cases")
    p_prop.add_argument("--seed", help="base seed (cases use base..base+seeds-1)")
    p_prop.add_argument("--q-w-max", help="max to-be-controlled channels")
    p_prop.add_argument("--q-c-max", help="max control channels")
    p_prop.add_argument("--n-max", help="max plant order")
    p_prop.set_defaults(func=cmd_proptest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, TypeError, NumericalDegeneracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
