import json

import numpy as np
import pytest

from canonctrl import canonical, harness, implementability, lti_core, signal
from canonctrl.cli import main
from canonctrl.errors import NumericalDegeneracyError


def run_cli(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:  # argparse exits on usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def fixtures(tmp_path):
    plant, _ = harness.static_plant()
    iplant, _ = harness.integrator_plant()
    paths = {
        "static_model": tmp_path / "static.json",
        "integrator_model": tmp_path / "integrator.json",
        "ref": tmp_path / "ref.csv",
        "static_data": tmp_path / "static_data.csv",
        "integrator_data": tmp_path / "integ_data.csv",
    }
    lti_core.write_model_json(paths["static_model"], plant)
    lti_core.write_model_json(paths["integrator_model"], iplant)
    signal.write_csv(paths["ref"], harness.decaying_reference_data(50))
    signal.write_csv(paths["static_data"], harness.plant_data(plant, 50, seed=7))
    signal.write_csv(paths["integrator_data"], harness.plant_data(iplant, 50, seed=7))
    return paths


def check_args(paths, plant_key, lag, n_plant, extra=()):
    return [
        "check",
        "--plant", str(paths[plant_key]),
        "--ref", str(paths["ref"]),
        "--picks-w", "1",
        "--picks-c", "2",
        "--L", "2",
        "--lag-bound", str(lag),
        "--m-bound", "1,0",
        "--n-bound", f"{n_plant},1",
        *extra,
    ]


class TestSimulate:
    def test_writes_expected_shape(self, tmp_path, fixtures, capsys):
        out = tmp_path / "sim.csv"
        code, stdout, _ = run_cli(
            ["simulate", "--model", str(fixtures["integrator_model"]),
             "--T", "50", "--seed", "7", "--out", str(out)],
            capsys,
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["T"] == 50 and payload["channels"] == 2
        traj = signal.read_csv(out)
        assert traj.T == 50 and traj.q == 2

    def test_byte_identical_across_runs(self, tmp_path, fixtures, capsys):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            code, _, _ = run_cli(
                ["simulate", "--model", str(fixtures["static_model"]),
                 "--T", "30", "--seed", "11", "--out", str(out)],
                capsys,
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_bad_length(self, tmp_path, fixtures, capsys):
        code, _, err = run_cli(
            ["simulate", "--model", str(fixtures["static_model"]),
             "--T", "0", "--seed", "1", "--out", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 2 and "error" in err

    def test_negative_seed_names_the_option(self, tmp_path, fixtures, capsys):
        out = tmp_path / "x.csv"
        code, stdout, err = run_cli(
            ["simulate", "--model", str(fixtures["static_model"]),
             "--T", "5", "--seed", "-1", "--out", str(out)],
            capsys,
        )
        assert code == 2 and stdout == ""
        assert err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_missing_model_file(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["simulate", "--model", str(tmp_path / "nope.json"),
             "--T", "5", "--out", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 2


class TestCheck:
    def test_static_implementable_exit_zero(self, fixtures, capsys):
        code, stdout, _ = run_cli(check_args(fixtures, "static_data", 0, 0), capsys)
        assert code == 0
        payload = json.loads(stdout)
        assert payload["implementable"] is True
        assert payload["gpe"] == {"plant": True, "ref": True}

    def test_integrator_not_implementable_exit_one(self, fixtures, capsys):
        code, stdout, _ = run_cli(check_args(fixtures, "integrator_data", 1, 1), capsys)
        assert code == 1
        payload = json.loads(stdout)
        assert payload["implementable"] is False
        assert payload["residuals"]["hidden_in_ref"] > 0.1

    def test_missing_partition_flag(self, fixtures, capsys):
        args = check_args(fixtures, "static_data", 0, 0)
        idx = args.index("--picks-w")
        del args[idx : idx + 2]
        code, _, err = run_cli(args, capsys)
        assert code == 2 and "picks-w" in err

    def test_horizon_below_lag_bound(self, fixtures, capsys):
        args = check_args(fixtures, "integrator_data", 2, 1)
        code, _, err = run_cli(args, capsys)
        assert code == 2 and "lag" in err

    def test_non_finite_plant_entry_is_an_input_error(self, tmp_path, fixtures, capsys):
        lines = fixtures["static_data"].read_text().splitlines()
        lines[5] = "nan," + lines[5].split(",", 1)[1]
        bad = tmp_path / "nan_data.csv"
        bad.write_text("\n".join(lines) + "\n")
        fixtures["nan_data"] = bad
        code, stdout, err = run_cli(check_args(fixtures, "nan_data", 0, 0), capsys)
        assert code == 2 and stdout == ""
        assert "non-finite entry on line 6" in err

    def test_ref_zero_names_a_file(self, tmp_path, fixtures, capsys, monkeypatch):
        # "0" is a file name, never file descriptor 0 (stdin)
        monkeypatch.chdir(tmp_path)
        args = check_args(fixtures, "static_data", 0, 0)
        args[args.index("--ref") + 1] = "0"
        code, stdout, err = run_cli(args, capsys)
        assert code == 2 and stdout == "" and "'0'" in err
        (tmp_path / "0").write_bytes(fixtures["ref"].read_bytes())
        code, stdout, _ = run_cli(args, capsys)
        expected = run_cli(check_args(fixtures, "static_data", 0, 0), capsys)
        assert (code, stdout) == expected[:2] and code == 0


class TestFixedTolerances:
    """The inclusion and closed-loop tolerances are not options: no flag can
    move a verdict."""

    @pytest.mark.parametrize(
        "command, plant_key, lag, n_plant, tol",
        [
            # a tolerance of 1 would pass the accumulator (hidden_in_ref 0.316)
            ("check", "integrator_data", 1, 1, "1"),
            # 1e-40 would fail the pass-through plant's exact closed loop
            ("synth", "static_data", 0, 0, "1e-40"),
        ],
    )
    def test_tol_flag_is_a_usage_error(
        self, tmp_path, fixtures, capsys, command, plant_key, lag, n_plant, tol
    ):
        out = tmp_path / "controller.csv"
        args = check_args(fixtures, plant_key, lag, n_plant, extra=["--tol", tol])
        args[0] = command
        if command == "synth":
            args += ["--out", str(out)]
        code, stdout, err = run_cli(args, capsys)
        assert code == 2 and stdout == "" and "--tol" in err
        assert not out.exists()


class TestMalformedInputs:
    """Wrongly typed inputs are input errors (exit 2), never a definite negative."""

    def assert_input_error(self, args, capsys):
        code, stdout, err = run_cli(args, capsys)
        assert code == 2 and stdout == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--L", "2.5"),
            ("--lag-bound", "x"),
            ("--L", ""),
            ("--L", "1e1"),
            ("--picks-w", "1.7"),
            ("--picks-c", "2.0"),
            ("--m-bound", "1,0.0"),
            ("--n-bound", "0,1.9"),
            ("--n-bound", "0.0,1.9"),
        ],
    )
    def test_non_integer_flag(self, fixtures, capsys, flag, value):
        # argparse collects the string; the one integer parser rejects it
        # (in a comma list, the first entry that is not an integer)
        args = check_args(fixtures, "static_data", 0, 0)
        args[args.index(flag) + 1] = value
        code, stdout, err = run_cli(args, capsys)
        name = flag[2:].replace("-", "_")
        rejected = next(v for v in value.split(",") if not v.lstrip("-").isdigit())
        assert code == 2 and stdout == ""
        assert err == f"error: option {name!r} takes integers, got {rejected!r}\n"

    def test_non_integer_proptest_seeds_flag(self, capsys):
        # a fractional count is rejected, never truncated to 2 cases
        code, stdout, err = run_cli(["proptest", "--seeds", "2.7"], capsys)
        assert code == 2 and stdout == ""
        assert err == "error: option 'seeds' takes integers, got '2.7'\n"

    @pytest.mark.parametrize("command", ["simulate", "check", "synth", "proptest"])
    def test_config_flag_is_a_usage_error(self, tmp_path, fixtures, capsys, command):
        # every option comes from its own flag; there is no options file
        out = tmp_path / "out.csv"
        args = {
            "simulate": ["simulate", "--model", str(fixtures["static_model"]),
                         "--T", "5", "--out", str(out)],
            "check": check_args(fixtures, "static_data", 0, 0),
            "synth": ["synth", *check_args(fixtures, "static_data", 0, 0)[1:],
                      "--out", str(out)],
            "proptest": ["proptest", "--seeds", "1"],
        }[command]  # fmt: skip
        code, stdout, err = run_cli([*args, "--config", "x.json"], capsys)
        assert code == 2 and stdout == "" and "--config" in err
        assert not out.exists()

    def test_non_integer_flag_bound(self, fixtures, capsys):
        args = check_args(fixtures, "static_data", 0, 0)
        args[args.index("--m-bound") + 1] = "1.9,0"
        code, stdout, err = run_cli(args, capsys)
        assert code == 2 and stdout == ""
        assert err.startswith("error:") and "'m_bound'" in err

    @pytest.mark.parametrize(
        "key, value", [("picks_w", [2.7]), ("picks_c", [1.9]), ("picks_c", [True])]
    )
    def test_non_integer_model_picks(self, tmp_path, fixtures, capsys, key, value):
        payload = json.loads(fixtures["static_model"].read_text())
        payload[key] = value
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        out = tmp_path / "x.csv"
        self.assert_input_error(
            ["simulate", "--model", str(model), "--T", "5", "--out", str(out)], capsys
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2],
            {"A": [], "B": [], "C": [], "D": [[1.0]], "picks_w": 1, "picks_c": [2]},
        ],
    )
    def test_malformed_model_json(self, tmp_path, capsys, payload):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        args = ["simulate", "--model", str(model), "--T", "5", "--out", str(tmp_path / "x.csv")]
        code, stdout, err = run_cli(args, capsys)
        assert code == 2 and stdout == ""
        # the message names what is wrong: the top level, or the key
        named = "picks_w" if isinstance(payload, dict) else "JSON object"
        assert err.startswith("error:") and named in err

    @pytest.mark.parametrize("key", ["picks_c", "A"])
    def test_model_json_without_key(self, tmp_path, fixtures, capsys, key):
        d = json.loads(fixtures["static_model"].read_text())
        del d[key]
        model = tmp_path / "model.json"
        model.write_text(json.dumps(d))
        args = ["simulate", "--model", str(model), "--T", "5", "--out", str(tmp_path / "x.csv")]
        code, stdout, err = run_cli(args, capsys)
        assert code == 2 and stdout == ""
        assert err == f"error: {model}: the model has no key '{key}'\n"

    @pytest.mark.parametrize("m_bound, side", [("9,0", "plant"), ("1,30", "reference")])
    def test_infeasible_excitation_target_named(
        self, fixtures, capsys, monkeypatch, m_bound, side
    ):
        # the bounds are checked before anything is factored
        def no_factorization(*args):
            raise AssertionError("factored before the bounds were checked")

        monkeypatch.setattr(implementability, "hankel_image", no_factorization)
        args = check_args(fixtures, "static_data", 0, 0)
        args[args.index("--m-bound") + 1] = m_bound
        code, stdout, err = run_cli(args, capsys)
        assert code == 2 and stdout == ""
        assert err.startswith(f"error: {side} excitation target m*L + n = ")
        assert "exceeds min(H shape)" in err


class TestSynth:
    def test_static_synthesis(self, tmp_path, fixtures, capsys):
        out = tmp_path / "controller.csv"
        args = check_args(fixtures, "static_data", 0, 0)
        args[0] = "synth"
        args += ["--out", str(out)]
        code, stdout, _ = run_cli(args, capsys)
        assert code == 0
        payload = json.loads(stdout)
        assert payload["closed_loop"]["verified"] is True
        assert payload["controller"]["rank"] == 1
        basis = np.loadtxt(out, delimiter=",").reshape(-1)
        assert pytest.approx(basis[1] / basis[0]) == 0.5
        sidecar = json.loads((tmp_path / "controller.json").read_text())
        assert sidecar["layout"] == "interleaved-time-major"

    def test_non_implementable_exits_one_with_report(self, tmp_path, fixtures, capsys):
        out = tmp_path / "controller.csv"
        args = check_args(fixtures, "integrator_data", 1, 1)
        args[0] = "synth"
        args += ["--out", str(out)]
        code, stdout, _ = run_cli(args, capsys)
        assert code == 1
        payload = json.loads(stdout)
        assert payload["closed_loop"]["verified"] is False
        assert payload["closed_loop"]["max_angle"] > 1e-8
        assert out.exists()

    def test_reference_equal_to_plant_w_gives_full_controller(
        self, tmp_path, fixtures, capsys
    ):
        # reuse the plant's own w channel as the reference
        data = signal.read_csv(fixtures["static_data"])
        w_path = tmp_path / "ref_w.csv"
        signal.write_csv(w_path, signal.Trajectory(data.values[:, [0]]))
        out = tmp_path / "controller.csv"
        code, stdout, _ = run_cli(
            ["synth",
             "--plant", str(fixtures["static_data"]),
             "--ref", str(w_path),
             "--picks-w", "1", "--picks-c", "2",
             "--L", "2", "--lag-bound", "0",
             "--m-bound", "1,1", "--n-bound", "0,0",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["controller"]["rank"] == 2  # all of the c window space


    def test_json_out_path_is_an_input_error(self, tmp_path, fixtures, capsys):
        # the JSON sidecar goes to the .json path, which would overwrite the basis
        out = tmp_path / "controller.json"
        args = check_args(fixtures, "static_data", 0, 0)
        args[0] = "synth"
        args += ["--out", str(out)]
        code, stdout, stderr = run_cli(args, capsys)
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error:") and ".json" in stderr
        assert not out.exists()

    def test_numerical_degeneracy_is_an_input_error(
        self, tmp_path, fixtures, capsys, monkeypatch
    ):
        def degenerate(*args, **kwargs):
            raise NumericalDegeneracyError("projector not idempotent: defect 1e-3")

        monkeypatch.setattr(canonical, "controller_basis", degenerate)
        args = check_args(fixtures, "static_data", 0, 0)
        args[0] = "synth"
        args += ["--out", str(tmp_path / "controller.csv")]
        code, stdout, stderr = run_cli(args, capsys)
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: projector not idempotent")


class TestOneFactorizationPerCommand:
    """`check` and `synth` each build one Hankel matrix per trajectory they read."""

    @pytest.fixture
    def case_args(self, tmp_path):
        case = harness.build_case(6000, "closed_loop")  # channels not in (w, c) order
        plant_csv, ref_csv = tmp_path / "plant.csv", tmp_path / "ref.csv"
        signal.write_csv(plant_csv, case.plant_traj)
        signal.write_csv(ref_csv, case.ref_traj)
        b, p = case.bounds, case.wc_partition
        return [
            "--plant", str(plant_csv),
            "--ref", str(ref_csv),
            "--picks-w", ",".join(map(str, p.picks_w)),
            "--picks-c", ",".join(map(str, p.picks_c)),
            "--L", str(case.L),
            "--lag-bound", str(b.lag),
            "--m-bound", f"{b.m_plant},{b.m_ref}",
            "--n-bound", f"{b.n_plant},{b.n_ref}",
        ]  # fmt: skip

    def test_check_factors_each_trajectory_once(self, case_args, hankel_calls, capsys):
        code, stdout, _ = run_cli(["check", *case_args], capsys)
        assert code == 0, stdout
        assert len(hankel_calls) == 2
        assert len({id(w) for w in hankel_calls}) == 2

    def test_synth_factors_each_trajectory_once(
        self, tmp_path, case_args, hankel_calls, capsys
    ):
        code, check_out, _ = run_cli(["check", *case_args], capsys)
        hankel_calls.clear()
        out = tmp_path / "controller.csv"
        code, stdout, _ = run_cli(["synth", *case_args, "--out", str(out)], capsys)
        assert code == 0, stdout
        assert len(hankel_calls) == 2
        assert len({id(w) for w in hankel_calls}) == 2
        # the arranged plant gives the verdict the original channel order gives
        assert json.loads(stdout)["verdict"] == json.loads(check_out)


class TestProptest:
    def test_small_batch_passes(self, capsys):
        code, stdout, _ = run_cli(
            ["proptest", "--seeds", "6", "--seed", "100"], capsys
        )
        assert code == 0
        payload = json.loads(stdout)
        assert payload["cases"] == 6 and payload["passes"] == 6
        assert payload["failures"] == []
        assert payload["failure_counts"] == {}

    def test_failing_case_exits_1_and_is_listed(self, monkeypatch, capsys):
        evaluate = harness.evaluate_case

        def forced_evaluate(case, cfg):
            result = evaluate(case, cfg)
            if case.seed == 102:
                result.failures.append("closed_loop_exact")
            return result

        monkeypatch.setattr(harness, "evaluate_case", forced_evaluate)
        code, stdout, _ = run_cli(["proptest", "--seeds", "4", "--seed", "100"], capsys)
        assert code == 1
        payload = json.loads(stdout)
        assert payload["passes"] == 3
        assert payload["failures"] == [
            {"seed": 102, "kind": "closed_loop", "checks": ["closed_loop_exact"]}
        ]

    def test_rank_tolerance_flag_is_gone(self, capsys):
        # the rank rule is fixed; a tolerance override is a usage error
        code, stdout, err = run_cli(["proptest", "--seeds", "1", "--tol", "1e-1"], capsys)
        assert code == 2 and "--tol" in err and stdout == ""

    def test_zero_seeds_is_usage_error(self, capsys):
        code, _, err = run_cli(["proptest", "--seeds", "0"], capsys)
        assert code == 2 and "seed" in err

    @pytest.mark.parametrize(
        "flags,name",
        [
            (["--q-w-max", "0"], "q_w_max"),
            (["--q-c-max", "0"], "q_c_max"),
            (["--n-max", "-1"], "n_max"),
            (["--seed", "-1"], "seed"),
        ],
    )
    def test_bad_bounds_are_input_errors(self, flags, name, capsys):
        code, stdout, err = run_cli(["proptest", "--seeds", "2", *flags], capsys)
        assert code == 2
        assert err.startswith("error: ") and name in err
        assert stdout == ""
