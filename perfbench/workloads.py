"""Workload inputs, the output gate, and the operations the benchmark times.

The long workloads run fixed plant/reference models on data drawn from
the benchmark seed (long-data's Open item 2 reproducer keeps its pinned
data); proptest derives its cases from the seed.  Operations call the
library through module attributes (``cli.main``, ``harness.build_case``) so
that a traced run sees them through the tracer's wrappers.

Operations and what counts as a failed one:

* ``case``   -- ``harness.build_case`` + ``harness.evaluate_case`` (proptest
  only); fails when it raises or returns a non-empty failure list.
* ``oracle`` -- ``check_model`` on the instance's models; fails when it raises.
* ``check``  -- ``canonctrl check`` through ``cli.main``; fails on an exit code
  other than 0/1, an exception, or a verdict that disagrees with the oracle
  (or no oracle verdict to compare with).
* ``synth``  -- ``canonctrl synth`` through ``cli.main``; fails on an exit code
  other than 0/1, an exception, or a closed loop that is not verified on an
  instance the oracle calls implementable.

An operation that raises or exits with a code other than 0/1 is *aborted*:
it stopped without an answer, after a varying share of its work, so its
time is kept apart from the timings of answered operations.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from canonctrl import canonical, cli, harness, implementability, signal
from canonctrl.implementability import InvariantBounds
from canonctrl.subspace import orthonormal_basis, subspaces_equal

#: proptest cases per pass; enough that the case mix varies little between seeds
PROPTEST_CASES = 200
LONG_DATA = {"L": 60, "T": 8000}
LONG_HORIZON = {"q_w": 2, "q_c": 2, "n": 4, "L": 120, "instances": 2}
CFG = harness.HarnessConfig()


@dataclass(eq=False)
class Instance:
    """One plant/reference pair with its CSV inputs and CLI arguments."""

    label: str
    L: int = 0
    plant: object = None
    partition: object = None
    ref: object = None
    plant_traj: object = None
    cli_args: tuple[str, ...] = ()
    ctrl_csv: str = ""
    #: CLI operations run on the instance after the first oracle run of a pass
    ops: tuple[str, ...] = ("check", "synth")
    case_seed: int | None = None
    case_kind: str = ""
    build_error: str = ""
    model_verdict: bool | None = None
    #: extra oracle runs after check and after synth in each pass; long instances
    #: repeat the cheap, noisy oracle, spread over the pass, for more samples
    oracle_after: int = 0


def _order_bounds(plant, ref) -> InvariantBounds:
    """Bounds for the long instances; the lag bound is the larger order.

    A lag never exceeds the order, and L is far above it.  The exact
    projected lag would need `projected_invariants`, which raises on some
    draws; that failure belongs to the oracle operation, not to set-up.
    """
    return InvariantBounds(plant.m, plant.n, ref.m, ref.n, max(plant.n, ref.n))


def _instance(
    label, work: Path, plant, partition, ref, L, plant_traj, ref_traj, bounds, oracle_after
):
    plant_csv, ref_csv = work / f"{label}_plant.csv", work / f"{label}_ref.csv"
    signal.write_csv(plant_csv, plant_traj)
    signal.write_csv(ref_csv, ref_traj)
    args = (
        "--plant", str(plant_csv),
        "--ref", str(ref_csv),
        "--picks-w", ",".join(map(str, partition.picks_w)),
        "--picks-c", ",".join(map(str, partition.picks_c)),
        "--L", str(L),
        "--lag-bound", str(bounds.lag),
        "--m-bound", f"{bounds.m_plant},{bounds.m_ref}",
        "--n-bound", f"{bounds.n_plant},{bounds.n_ref}",
    )  # fmt: skip
    return Instance(
        label, L, plant, partition, ref, plant_traj, args, str(work / f"{label}_ctrl.csv"),
        oracle_after=oracle_after,
    )


def setup_proptest(seed: int, work: Path) -> list[Instance]:
    """Seeded harness cases, alternating kinds the way `run_batch` does.

    Seeds `seed*PROPTEST_CASES ...` keep the case sets of different seeds
    disjoint.  A controller is synthesized only for closed-loop cases, whose
    references are implementable by construction.
    """
    instances = []
    for i in range(PROPTEST_CASES):
        case_seed = seed * PROPTEST_CASES + i
        kind = "closed_loop" if i % 2 == 0 else "adversarial"
        try:
            case = harness.build_case(case_seed, kind, CFG)
        except Exception as exc:  # recorded like run_batch does; the case op fails on it
            inst = Instance(f"case{case_seed}", build_error=f"{type(exc).__name__}: {exc}")
        else:
            inst = _instance(
                f"case{case_seed}", work, case.plant, case.wc_partition, case.ref_model,
                case.L, case.plant_traj, case.ref_traj, case.bounds, oracle_after=0,
            )  # fmt: skip
        inst.case_seed, inst.case_kind = case_seed, kind
        inst.ops = ("check", "synth") if kind == "closed_loop" else ("check",)
        instances.append(inst)
    return instances


def _open_item_2_draw(rng: np.random.Generator):
    """The ROADMAP Open item 2 draw sequence; its third draw is (4, 3, 12)."""
    for q_w, q_c, n in ((2, 2, 4), (3, 2, 8), (4, 3, 12)):
        plant, partition = harness.random_plant(q_w, q_c, n, rng)
        ref = harness.feedback_reference_model(plant, partition, 1, rng)
    return plant, partition, ref


def setup_long_data(seed: int, work: Path) -> list[Instance]:
    """(q_w,q_c,n,L,T)=(4,3,12,60,8000): the first two draws of the ROADMAP Open item 2 sequence.

    ``ld-open-item-2``: the first draw from ``default_rng(0)``, simulated with
    data seeds 1 and 2: that item's false-negative reproducer, exactly as the
    ROADMAP states it, in every run so the defect shows whatever the seed.
    Its reference is autonomous.

    ``ld-next``: the next draw of the same sequence (four plant inputs, an
    input-driven reference), simulated with data drawn from `seed`.  An
    input-driven reference keeps its samples normal floats: an autonomous
    one decays into subnormals over 8000 samples, which slows each SVD of
    its Hankel matrix by a data-dependent factor of up to 4.

    The models are fixed and the seed draws the data the CLI reads.  So every
    seed gives the oracle the same work and the same verdicts, and the
    failures a run reports do not depend on the seed.  Seeded model draws
    made both follow the seed: in the first ten draws of the sequence the
    oracle raised NumericalDegeneracyError on the three with two plant
    inputs, and on draws with three plant inputs it fails to settle its
    dimension profile about one time in ten.
    """
    rng = np.random.default_rng(0)
    reproducer = _open_item_2_draw(rng)
    following = _open_item_2_draw(rng)
    data_seeds = [int(x) for x in np.random.default_rng(seed).integers(2**31, size=2)]
    instances = []
    for label, (plant, partition, ref), (plant_seed, ref_seed) in (
        ("ld-open-item-2", reproducer, (1, 2)),
        ("ld-next", following, data_seeds),
    ):
        plant_traj = harness.plant_data(plant, LONG_DATA["T"], seed=plant_seed)
        ref_traj = harness.plant_data(ref, LONG_DATA["T"], seed=ref_seed)
        instances.append(
            _instance(
                label, work, plant, partition, ref, LONG_DATA["L"], plant_traj, ref_traj,
                _order_bounds(plant, ref), oracle_after=1,
            )  # fmt: skip
        )
    return instances


def setup_long_horizon(seed: int, work: Path) -> list[Instance]:
    """(q_w,q_c,n,L)=(2,2,4,120) instances with T = harness.gpe_length.

    The models are the first draws from ``default_rng(0)`` whose plant has
    one input, so every seed gives the oracle the same work (n + mL
    simulations per window map) and the same verdicts; the seed draws the
    exciting trajectories the CLI reads.  The references are autonomous;
    over a few hundred samples they stay clear of subnormal floats.
    """
    model_rng = np.random.default_rng(0)
    data_rng = np.random.default_rng(seed)
    p = LONG_HORIZON
    L = p["L"]
    instances = []
    for j in range(p["instances"]):
        plant, partition = harness.random_plant(p["q_w"], p["q_c"], p["n"], model_rng)
        while plant.m != 1:
            plant, partition = harness.random_plant(p["q_w"], p["q_c"], p["n"], model_rng)
        ref = harness.feedback_reference_model(plant, partition, 1, model_rng)
        plant_traj = harness.gpe_trajectory(
            plant, L, harness.gpe_length(plant.m, plant.n, L, plant.q), data_rng
        )
        ref_traj = harness.gpe_trajectory(
            ref, L, harness.gpe_length(ref.m, ref.n, L, ref.q), data_rng
        )
        instances.append(
            _instance(
                f"lh{j}", work, plant, partition, ref, L, plant_traj, ref_traj,
                _order_bounds(plant, ref), oracle_after=2,
            )  # fmt: skip
        )
    return instances


SETUPS = {
    "proptest": setup_proptest,
    "long-data": setup_long_data,
    "long-horizon": setup_long_horizon,
}


# ---------------------------------------------------------------------------
# operations: each returns (ok, reason), or raises when it gives no answer


class Aborted(Exception):
    """The CLI exited with an error code instead of an answer."""


def run_cli(argv) -> tuple[int, str]:
    """`cli.main` in-process with stdout and stderr captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def op_case(inst: Instance) -> tuple[bool, str]:
    case = harness.build_case(inst.case_seed, inst.case_kind, CFG)
    result = harness.evaluate_case(case, CFG)
    return not result.failures, ",".join(result.failures)


def op_oracle(inst: Instance) -> tuple[bool, str]:
    verdict = implementability.check_model(inst.plant, inst.partition, inst.ref, inst.L)
    inst.model_verdict = verdict.implementable
    return True, ""


def op_check(inst: Instance) -> tuple[bool, str]:
    code, out = run_cli(("check", *inst.cli_args))
    if code not in (0, 1):
        raise Aborted(f"exit code {code}")
    implementable = json.loads(out)["implementable"]
    if inst.model_verdict is None:
        return False, "no oracle verdict to compare with"
    if implementable != inst.model_verdict:
        return False, f"data verdict {implementable}, oracle {inst.model_verdict}"
    return True, ""


def op_synth(inst: Instance) -> tuple[bool, str]:
    code, out = run_cli(("synth", *inst.cli_args, "--out", inst.ctrl_csv))
    if code not in (0, 1):
        raise Aborted(f"exit code {code}")
    verified = json.loads(out)["closed_loop"]["verified"]
    if inst.model_verdict is None:
        return False, "no oracle verdict to compare with"
    if inst.model_verdict and not verified:
        return False, "closed loop not verified on an implementable instance"
    return True, ""


OPS = {"case": op_case, "oracle": op_oracle, "check": op_check, "synth": op_synth}


def pass_ops(instances: list[Instance]):
    """One pass: (kind, instance) in order; an oracle run precedes check/synth."""
    for inst in instances:
        if inst.case_seed is not None:
            yield "case", inst
        if inst.build_error:
            continue
        yield "oracle", inst  # check and synth compare with its verdict
        for kind in inst.ops:
            yield kind, inst
            for _ in range(inst.oracle_after):
                yield "oracle", inst


def timed(kind: str, inst: Instance) -> tuple[float, bool, str, bool]:
    """Run one operation: (seconds, ok, reason, answered).

    An exception is a failed, aborted operation (``answered`` false), not a crash.
    """
    start = perf_counter()
    try:
        ok, reason = OPS[kind](inst)
        answered = True
    except Exception as exc:
        ok, reason, answered = False, f"{type(exc).__name__}: {exc}", False
    return perf_counter() - start, ok, reason, answered


# ---------------------------------------------------------------------------
# output gate


def output_gate(work: Path) -> list[tuple[str, bool, str]]:
    """Hand fixtures with known answers, run through `cli.main`.

    The pass-through plant with the decaying reference is implementable
    (exit 0) and its controller spans (1, 0.5) at L=2; the accumulator plant
    is not (exit 1).
    """
    static, _ = harness.static_plant()
    integrator, _ = harness.integrator_plant()
    ref_csv, static_csv, integ_csv = (
        work / "gate_ref.csv", work / "gate_static.csv", work / "gate_integ.csv"
    )
    signal.write_csv(ref_csv, harness.decaying_reference_data(50))
    signal.write_csv(static_csv, harness.plant_data(static, 50, seed=7))
    signal.write_csv(integ_csv, harness.plant_data(integrator, 50, seed=7))
    base = ("--ref", str(ref_csv), "--picks-w", "1", "--picks-c", "2", "--L", "2")
    static_args = ("--plant", str(static_csv), *base,
                   "--lag-bound", "0", "--m-bound", "1,0", "--n-bound", "0,1")  # fmt: skip
    integ_args = ("--plant", str(integ_csv), *base,
                  "--lag-bound", "1", "--m-bound", "1,0", "--n-bound", "1,1")  # fmt: skip
    ctrl_csv = work / "gate_ctrl.csv"

    def static_check():
        code, _ = run_cli(("check", *static_args))
        return code == 0, f"exit code {code}, expected 0"

    def integrator_check():
        code, _ = run_cli(("check", *integ_args))
        return code == 1, f"exit code {code}, expected 1"

    def static_synth():
        code, _ = run_cli(("synth", *static_args, "--out", str(ctrl_csv)))
        if code != 0:
            return False, f"exit code {code}, expected 0"
        ctrl = canonical.read_controller_csv(ctrl_csv)
        equal, angle = subspaces_equal(ctrl.basis, orthonormal_basis(np.array([[1.0], [0.5]])))
        return equal, f"controller is not span (1, 0.5): angle {angle:.3e}"

    results = []
    for check in (static_check, integrator_check, static_synth):
        try:
            ok, reason = check()
        except Exception as exc:
            ok, reason = False, f"{type(exc).__name__}: {exc}"
        results.append((f"gate.{check.__name__}", ok, "" if ok else reason))
    return results
