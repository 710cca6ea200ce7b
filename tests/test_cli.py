import json

import numpy as np
import pytest

from nlqsim import cli
from nlqsim.cli import (
    ConfigError,
    ExperimentConfig,
    InitialStateSpec,
    config_from_dict,
    config_to_dict,
    load_config,
)
from nlqsim.problems import GridSpec, KernelSpec


def hartree_config_dict(**overrides):
    base = {
        "problem": "hartree",
        "grid": {"points": [16], "dx": 0.5, "x0": -4.0},
        "kernel": {"form": "gaussian", "sigma": 1.0, "amplitude": 2.0},
        "initial_state": {"preset": "gaussian", "center": 0.0, "sigma": 1.0, "kappa": 0.4},
        "t": 0.4,
        "eps": 0.1,
        "mode": "direct",
    }
    base.update(overrides)
    return base


class TestConfig:
    def test_round_trip_is_identity(self):
        cfg = config_from_dict(hartree_config_dict())
        again = config_from_dict(config_to_dict(cfg))
        assert again == cfg

    def test_rejects_unknown_problem(self):
        with pytest.raises(ConfigError, match="unknown problem"):
            config_from_dict(hartree_config_dict(problem="vortex"))

    def test_hartree_requires_kernel(self):
        d = hartree_config_dict()
        del d["kernel"]
        with pytest.raises(ConfigError, match="kernel"):
            config_from_dict(d)

    def test_missing_referenced_file(self, tmp_path):
        d = hartree_config_dict(
            problem="custom-f", coupling_csv=str(tmp_path / "nope.csv")
        )
        del d["kernel"]
        with pytest.raises(ConfigError, match="does not exist"):
            config_from_dict(d)

    def test_default_kinetic_prefactors(self):
        cfg = config_from_dict(hartree_config_dict())
        assert cfg.kinetic_prefactor == 1.0
        gp = hartree_config_dict(problem="gross-pitaevskii", g=1.0)
        del gp["kernel"]
        assert config_from_dict(gp).kinetic_prefactor == 0.5

    def test_oracle_dt_default(self):
        cfg = config_from_dict(hartree_config_dict())
        assert cfg.resolved_oracle_dt() == pytest.approx(cfg.eps / 20)

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_config(str(path))


class TestSimulate:
    def write_config(self, tmp_path, payload):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_zero_time_run(self, tmp_path):
        cfg_path = self.write_config(tmp_path, hartree_config_dict(t=0.0))
        rc = cli.main(["simulate", "--config", cfg_path, "--out", str(tmp_path)])
        assert rc == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["tally"]["total"]["nonlinear"] == 0
        assert summary["norm_drift"] < 1e-12
        traj = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert traj[0] == "step,time,k,re,im"

    def test_deterministic_summaries(self, tmp_path):
        cfg_path = self.write_config(tmp_path, hartree_config_dict())
        out1 = tmp_path / "run1"
        out2 = tmp_path / "run2"
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(out2)]) == 0
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()
        assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()

    def test_missing_config_exits_2(self, tmp_path):
        rc = cli.main(["simulate", "--config", str(tmp_path / "none.json")])
        assert rc == 2

    def test_compiled_mode_runs(self, tmp_path):
        cfg_path = self.write_config(
            tmp_path,
            hartree_config_dict(
                grid={"points": [8], "dx": 0.5, "x0": -2.0}, mode="compiled", t=0.2
            ),
        )
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["tally"]["total"]["nonlinear"] > 0

    def test_eps_and_steps_overrides(self, tmp_path):
        cfg_path = self.write_config(tmp_path, hartree_config_dict())
        out = tmp_path / "o"
        rc = cli.main([
            "simulate", "--config", cfg_path, "--out", str(out),
            "--eps", "0.05", "--steps", "6",
        ])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["tally"]["n_steps"] == 6
        assert summary["config"]["eps"] == 0.05

    def test_navier_stokes_uniform(self, tmp_path):
        payload = {
            "problem": "navier-stokes",
            "grid": {"points": [16], "dx": 0.5, "x0": 0.0},
            "rho0": 0.125,
            "initial_state": {"preset": "uniform"},
            "t": 0.5,
            "eps": 0.05,
        }
        cfg_path = self.write_config(tmp_path, payload)
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(tmp_path)]) == 0

    def test_custom_f_from_csv(self, tmp_path):
        from nlqsim.problems import coupling_to_triplet_csv, navier_stokes_coupling

        grid = GridSpec(points=(8,), dx=0.5)
        fpath = tmp_path / "f.csv"
        coupling_to_triplet_csv(navier_stokes_coupling(1.0, grid), fpath)
        payload = {
            "problem": "custom-f",
            "grid": {"points": [8], "dx": 0.5},
            "coupling_csv": str(fpath),
            "initial_state": {"preset": "basis", "k": 2},
            "t": 0.2,
            "eps": 0.05,
        }
        cfg_path = self.write_config(tmp_path, payload)
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(tmp_path)]) == 0


class TestSmokeBenchmark:
    def test_hartree_n6_200_steps_compiled(self, tmp_path):
        """Desk-scale budget: a 64-site compiled run of 200 steps finishes
        comfortably within minutes (measured seconds)."""
        import time

        payload = hartree_config_dict(
            grid={"points": [64], "dx": 0.25, "x0": -8.0},
            initial_state={"preset": "gaussian", "center": -2.0, "sigma": 1.0, "kappa": -1.0},
            t=10.0, eps=0.05, mode="compiled",
        )
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(payload))
        start = time.monotonic()
        rc = cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)])
        elapsed = time.monotonic() - start
        assert rc == 0
        assert elapsed < 120.0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["tally"]["n_steps"] == 200
        assert summary["tally"]["per_step"]["nonlinear"] == 64 * 65 // 2
        assert summary["norm_drift"] < 1e-10


class TestCompare:
    def test_free_particle_high_fidelity(self, tmp_path):
        payload = {
            "problem": "custom-f",
            "grid": {"points": [16], "dx": 0.5, "x0": -4.0},
            "coupling_csv": "zero.csv",
            "initial_state": {"preset": "gaussian", "center": 0.0, "sigma": 1.0},
            "t": 0.5,
            "eps": 0.05,
        }
        zero = tmp_path / "zero.csv"
        zero.write_text("k,j,f\n")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(payload))
        rc = cli.main(["compare", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "compare.json").read_text())
        assert report["comparisons"][0]["fidelity"] >= 1 - 1e-8

    def test_halvings_table(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(hartree_config_dict(t=0.8, eps=0.08)))
        rc = cli.main([
            "compare", "--config", str(cfg_path), "--out", str(tmp_path),
            "--halvings", "2",
        ])
        assert rc == 0
        report = json.loads((tmp_path / "compare.json").read_text())
        rows = report["comparisons"]
        assert len(rows) == 3
        assert 1.5 <= rows[0]["l2_ratio"] <= 2.7
        assert (tmp_path / "convergence.csv").exists()


class TestResources:
    def test_table_and_instrumented(self, tmp_path):
        rc = cli.main([
            "resources", "--n-min", "1", "--n-max", "4", "--steps", "2",
            "--instrument", "--out", str(tmp_path),
        ])
        assert rc == 0
        report = json.loads((tmp_path / "resources.json").read_text())
        rows = {row["n"]: row for row in report["rows"]}
        assert rows[1]["nonlinear_per_step"] == 3
        assert rows[1]["mcx_per_step"] == 8
        assert rows[1]["nonlinear_total"] == 6
        assert report["instrumented"]["matches_closed_form"] is True
        csv_lines = (tmp_path / "resources.csv").read_text().splitlines()
        assert len(csv_lines) == 1 + 4

    def test_quadrupling(self, tmp_path):
        rc = cli.main(["resources", "--n-min", "5", "--n-max", "6", "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "resources.json").read_text())
        a, b = report["rows"]
        assert b["nonlinear_per_step"] / a["nonlinear_per_step"] == pytest.approx(4.0, abs=0.1)


class TestBadArguments:
    @pytest.mark.parametrize(
        "argv",
        [
            ["resources", "--n-min", "4", "--n-max", "2"],
            ["resources", "--n-min", "0"],
            ["resources", "--steps", "-1"],
            ["resources", "--basic-c", "0"],
            ["compare", "--halvings", "2", "--steps", "0"],
            ["compare", "--halvings", "-1"],
        ],
    )
    def test_exit_2_with_one_line(self, tmp_path, capsys, argv):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(hartree_config_dict()))
        if argv[0] == "compare":
            argv = argv + ["--config", str(cfg_path)]
        rc = cli.main(argv + ["--out", str(tmp_path / "out")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1
        assert err[0].startswith("config error: ")


class TestBadPhysics:
    CONFIGS = {
        "short-kernel-table": hartree_config_dict(
            kernel={"form": "tabulated", "samples": [1.0, 0.5]}
        ),
        "nan-g": hartree_config_dict(problem="gross-pitaevskii", g=float("nan")),
        "negative-rho0": hartree_config_dict(problem="navier-stokes", rho0=-1.0),
        "basis-out-of-range": hartree_config_dict(initial_state={"preset": "basis", "k": 99}),
    }

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("case", sorted(CONFIGS))
    def test_exit_2_with_one_line(self, tmp_path, capsys, command, case):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(self.CONFIGS[case]))
        rc = cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1
        assert err[0].startswith("config error: ")

    @pytest.mark.parametrize("case", ["short-triplet-row", "short-field-row", "csv-is-dir"])
    def test_bad_input_file_exit_2(self, tmp_path, capsys, case):
        (tmp_path / "f.csv").write_text("k,j,f\n0,0,1.0\n1,2\n")
        (tmp_path / "state.csv").write_text("x,re,im\n0.0,1.0,0.0\n0.5,1.0\n")
        (tmp_path / "adir").mkdir()
        if case == "short-field-row":
            payload = hartree_config_dict(initial_state={"preset": "file", "path": "state.csv"})
        else:
            csv_name = "f.csv" if case == "short-triplet-row" else "adir"
            payload = hartree_config_dict(problem="custom-f", coupling_csv=csv_name)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(payload))
        rc = cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert len(err) == 1
        assert err[0].startswith("config error: ")

    @pytest.mark.parametrize(
        "field, payload",
        [
            ("t", {"t": float("nan")}),
            ("eps", {"eps": float("inf")}),
            ("g", {"g": float("nan")}),
            ("rho0", {"rho0": float("-inf")}),
            ("dx", {"grid": {"points": [16], "dx": float("inf")}}),
            ("x0", {"grid": {"points": [16], "dx": 0.5, "x0": float("nan")}}),
            ("c_T", {"c_T": float("nan")}),
            ("oracle_dt", {"oracle_dt": float("inf")}),
        ],
    )
    def test_non_finite_parameter_named(self, field, payload):
        with pytest.raises(ConfigError, match=f"^{field} must be finite"):
            config_from_dict(hartree_config_dict(**payload))

    def test_non_finite_override_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(hartree_config_dict()))
        rc = cli.main(["simulate", "--config", str(cfg_path), "--eps", "nan",
                       "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err.splitlines()
        assert rc == 2
        assert err == ["config error: eps must be finite, got nan"]


class TestBec:
    def test_sweep_deviations(self, tmp_path):
        rc = cli.main([
            "bec", "--out", str(tmp_path), "--grid-points", "64",
            "--t", "0.05", "--dt", "2e-4", "--sweep", "2",
        ])
        assert rc == 0
        report = json.loads((tmp_path / "bec.json").read_text())
        assert len(report["rows"]) == 2
        assert report["rows"][0]["deviation"] < 0.05

    def test_t_zero(self, tmp_path):
        rc = cli.main(["bec", "--out", str(tmp_path), "--grid-points", "64", "--t", "0"])
        assert rc == 0
        report = json.loads((tmp_path / "bec.json").read_text())
        assert report["rows"][0]["measured_relative"] == 0.0
        assert report["rows"][0]["predicted_relative"] == 0.0
