import csv
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nlqsim
from nlqsim import cli, evolution, nlcompiler, oracle, problems, statevec
from nlqsim.cli import (
    ConfigError,
    ExperimentConfig,
    InitialStateSpec,
    config_from_dict,
    config_to_dict,
    load_config,
)
from nlqsim.nlcompiler import CouplingMatrix
from nlqsim.oracle import FieldState
from nlqsim.problems import GridSpec, KernelSpec

import support


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
        assert cfg.oracle_step(cfg.eps) == cfg.eps
        # a halving row's reference step follows its own eps
        assert cfg.oracle_step(cfg.eps / 2) == cfg.eps / 2
        fixed = config_from_dict(hartree_config_dict(oracle_dt=1e-3))
        assert fixed.oracle_step(cfg.eps / 2) == 1e-3

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_config(str(path))

    @pytest.mark.parametrize(
        "text", [b"\xff\xfe{}", b"[" * 100_000, b"1" + b"0" * 5000, b"[1, 2]"]
    )
    def test_unreadable_json_is_a_config_error(self, tmp_path, text):
        # non-UTF-8 bytes, nesting beyond the recursion limit, an integer
        # beyond the digit limit, and a document that is not an object
        path = tmp_path / "cfg.json"
        path.write_bytes(text)
        with pytest.raises(ConfigError):
            load_config(str(path))


#: the sorted-key JSON echo of kernel_echo_config, with the kernel's own echo at %s
KERNEL_ECHO = (
    '{"basic_c": 1, "eps": 0.1, "g": 0.0, "grid": {"dx": 0.5, "points": [16], "x0": 0.0}, '
    '"initial_state": {"center": 0.0, "k": 0, "kappa": 0.0, "mode": 1, "preset": "uniform", '
    '"sigma": 1.0}, "kernel": %s, "mode": "direct", "problem": "hartree", '
    '"record_stride": 0, "rho0": 1.0, "t": 0.4}'
)


class TestKernelEcho:
    """The kernel section is echoed like every other: the given form's keys,
    reals as floats, a signed table as its folded samples, and no other key."""

    # name: (kernel section, its echo)
    CASES = {
        "constant": ({"form": "constant", "c": 2}, '{"c": 2.0, "form": "constant"}'),
        "gaussian": ({"form": "gaussian", "sigma": 1, "amplitude": -2.5},
                     '{"amplitude": -2.5, "form": "gaussian", "sigma": 1.0}'),
        "contact": ({"form": "contact", "g": 1.5}, '{"form": "contact", "g": 1.5}'),
        "tabulated": ({"form": "tabulated", "samples": [1, 0.5, 0.25]},
                      '{"form": "tabulated", "samples": [1.0, 0.5, 0.25]}'),
        "samples_signed": ({"form": "tabulated", "samples_signed": [0.25, 0.5, 1, 0.5, 0.25]},
                           '{"form": "tabulated", "samples": [1.0, 0.5, 0.25]}'),
    }

    @staticmethod
    def kernel_echo_config(kernel):
        return config_from_dict({"problem": "hartree", "grid": {"points": [16], "dx": 0.5},
                                 "kernel": kernel, "t": 0.4, "eps": 0.1})

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_echo_is_the_section(self, case):
        kernel, echo = self.CASES[case]
        cfg = self.kernel_echo_config(kernel)
        assert json.dumps(config_to_dict(cfg), sort_keys=True) == KERNEL_ECHO % echo

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_echo_reads_back(self, case):
        cfg = self.kernel_echo_config(self.CASES[case][0])
        assert config_from_dict(config_to_dict(cfg)) == cfg
        assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_eps_override_keeps_the_kernel(self, case):
        cfg = self.kernel_echo_config(self.CASES[case][0])
        args = cli.build_parser().parse_args(["simulate", "--config", "c.json", "--eps", "0.05"])
        assert cli._apply_overrides(cfg, args) == replace(cfg, eps=0.05)


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

    def test_norm_drift_exit_1(self, tmp_path, capsys, monkeypatch):
        support.leak_norm(monkeypatch)
        cfg_path = self.write_config(tmp_path, hartree_config_dict())
        rc = cli.main(["simulate", "--config", cfg_path, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert one_error_line(capsys).startswith("numerical failure: norm drifted by ")

    @pytest.mark.parametrize(
        "steps, stride, recorded", [(0, 0, [0]), (0, 2, [0]), (3, 0, [0, 3])]
    )
    def test_recorded_steps(self, tmp_path, steps, stride, recorded):
        # stride 0 writes the first and last states, a zero-step run's once
        cfg_path = self.write_config(tmp_path, hartree_config_dict(record_stride=stride))
        argv = ["simulate", "--config", cfg_path, "--out", str(tmp_path), "--steps", str(steps)]
        assert cli.main(argv) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["n_snapshots"] == len(recorded)
        with open(tmp_path / "trajectory.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16 * len(recorded)
        assert [int(row["step"]) for row in rows[::16]] == recorded

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
        from nlqsim.problems import navier_stokes_coupling

        grid = GridSpec(points=(8,), dx=0.5)
        fpath = tmp_path / "f.csv"
        support.coupling_to_triplet_csv(navier_stokes_coupling(1.0, grid), fpath)
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

    def test_mode_override_is_echoed(self, tmp_path):
        cfg_path = self.write_config(tmp_path, hartree_config_dict(t=0.2))
        argv = ["simulate", "--config", cfg_path, "--out", str(tmp_path), "--mode", "compiled"]
        assert cli.main(argv) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"]["mode"] == "compiled"
        assert summary["tally"]["total"]["nonlinear"] > 0

    def test_plane_wave_on_a_2d_grid(self, tmp_path):
        payload = hartree_config_dict(grid={"points": [8, 4], "dx": 0.5}, t=0.0,
                                      initial_state={"preset": "plane-wave", "mode": 1})
        cfg_path = self.write_config(tmp_path, payload)
        assert cli.main(["simulate", "--config", cfg_path, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "trajectory.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        amps = np.array([complex(float(r["re"]), float(r["im"])) for r in rows]).reshape(8, 4)
        assert np.max(np.abs(np.abs(amps) - 1 / np.sqrt(32))) < 1e-15
        # the phase varies along axis 0 only
        assert np.array_equal(amps, np.repeat(amps[:, :1], 4, axis=1))
        assert len(set(amps[:, 0].tolist())) == 8

    @pytest.mark.parametrize("kind", ["coupling", "field"])
    def test_blank_lines_are_skipped(self, tmp_path, kind):
        from nlqsim.problems import navier_stokes_coupling

        grid = GridSpec(points=(8,), dx=0.5)
        support.coupling_to_triplet_csv(navier_stokes_coupling(1.0, grid), tmp_path / "f.csv")
        field = "x,re,im\n" + "".join(f"{x},{1 + x},{-x}\n" for x in range(8))
        (tmp_path / "state.csv").write_text(field)
        name = "f.csv" if kind == "coupling" else "state.csv"
        text = (tmp_path / name).read_text()
        (tmp_path / ("blank-" + name)).write_text(text.replace("\n", "\n\n"))
        trajectories = []
        for prefix in ("", "blank-"):
            names = {"coupling": "f.csv", "field": "state.csv", kind: prefix + name}
            payload = {"problem": "custom-f", "grid": {"points": [8], "dx": 0.5},
                       "coupling_csv": names["coupling"], "t": 0.2, "eps": 0.05,
                       "initial_state": {"preset": "file", "path": names["field"]}}
            out = tmp_path / f"out-{prefix}"
            cfg_path = self.write_config(tmp_path, payload)
            assert cli.main(["simulate", "--config", cfg_path, "--out", str(out)]) == 0
            trajectories.append((out / "trajectory.csv").read_bytes())
        assert trajectories[0] == trajectories[1]


class TestDataFilePaths:
    """Data-file paths are echoed as written and read against the config
    file's directory, so a fixed config gives the same bytes anywhere."""

    @staticmethod
    def write_run(where, *extra):
        """A custom-f config on a field file, both beside it in where; the
        argv of a simulate run on it."""
        where.mkdir()
        (where / "data").mkdir()
        (where / "data" / "f.csv").write_text("k,j,f\n0,0,1.5\n0,1,-0.5\n3,3,2.0\n")
        (where / "data" / "state.csv").write_text(
            "x,re,im\n" + "".join(f"{0.5 * k},{1 + k % 3},{k % 2}\n" for k in range(16))
        )
        payload = gp_config_dict(problem="custom-f", coupling_csv="data/f.csv",
                                 initial_state={"preset": "file", "path": "data/state.csv"})
        (where / "config.json").write_text(json.dumps(payload))
        return ["simulate", "--config", str(where / "config.json"),
                "--out", str(where / "out"), *extra]

    @pytest.mark.parametrize("extra", [(), ("--eps", "0.05")], ids=["as-given", "override"])
    def test_same_bytes_in_two_directories(self, tmp_path, monkeypatch, extra):
        # run from a third directory, so no path is read against the cwd
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        outputs = []
        for name in ("one", "two"):
            assert cli.main(self.write_run(tmp_path / name, *extra)) == 0
            outputs.append((tmp_path / name / "out" / "summary.json").read_bytes())
        assert outputs[0] == outputs[1]
        echo = json.loads(outputs[0])["config"]
        assert echo["coupling_csv"] == "data/f.csv"
        assert echo["initial_state"]["path"] == "data/state.csv"

    def test_base_dir_is_not_a_config_key(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(gp_config_dict(base_dir=str(tmp_path))))
        rc = cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert one_error_line(capsys).startswith("config error: base_dir is not a config key")


class TestSparseCouplings:
    def test_stencil_runs_never_build_the_dense_matrix(self, tmp_path, monkeypatch):
        def no_dense(self):
            raise AssertionError("the dense N x N coupling was built")

        monkeypatch.setattr(CouplingMatrix, "dense", property(no_dense))
        cfg = config_from_dict(support.stencil_config_dict((32, 32), 5))
        cli.run_simulate(cfg, str(tmp_path / "simulate"))
        cli.run_compare(cfg, str(tmp_path / "compare"))

    def test_128x128_stencil_in_small_memory(self, tmp_path):
        """A 16384-site stencil needs 2 GiB as a dense matrix; stored as
        its 81920 nonzero entries the whole run stays small. The child's
        address space is capped at 1 GiB, so a dense build fails fast. Its
        peak is VmHWM: ru_maxrss would also count the RSS of this test
        process, which a spawned child inherits until it execs."""
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(support.stencil_config_dict((128, 128), 10)))
        child = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
            "from nlqsim import cli\n"
            "rc = cli.main(sys.argv[1:])\n"
            "print(next(ln for ln in open('/proc/self/status') if ln.startswith('VmHWM:')))\n"
            "sys.exit(rc)\n"
        )
        proc = run_child(["-c", child, "simulate", "--config", str(cfg_path),
                          "--out", str(tmp_path / "out")])
        assert proc.returncode == 0, proc.stderr
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["tally"]["n_steps"] == 10
        peak_kib = int(proc.stdout.split()[-2])  # "VmHWM: <n> kB"
        assert peak_kib < 200 * 1024


def run_child(args, timeout=120):
    """Run the interpreter on args with this nlqsim package importable."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nlqsim.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=timeout)


class TestModuleEntryPoint:
    def test_python_m_runs_without_warnings(self, tmp_path):
        proc = run_child(["-m", "nlqsim.cli", "resources", "--n-min", "1", "--n-max", "2",
                          "--out", str(tmp_path)])
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert (tmp_path / "resources.json").exists()

    def test_package_import_loads_no_module(self):
        """`import nlqsim` reads only the package docstring and version; each
        module loads when a caller imports it."""
        proc = run_child(["-c", "import sys, nlqsim\n"
                                "print(sorted(m for m in sys.modules if m.startswith('nlqsim.')))"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_only_compare_loads_the_reference_solver(self, tmp_path):
        """`simulate` never imports `oracle`; `compare` does."""
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(hartree_config_dict()))
        code = ("import sys\nfrom nlqsim import cli\n"
                "print(cli.main(sys.argv[1:]), 'nlqsim.oracle' in sys.modules)")
        for command, loaded in (("simulate", False), ("compare", True)):
            proc = run_child(["-c", code, command, "--config", str(cfg_path),
                              "--out", str(tmp_path / command)])
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.split() == ["0", str(loaded)]


class TestTracerNames:
    def test_every_traced_name_exists(self):
        """The benchmark tracer wraps each name it lists with a bare getattr,
        so a name its module no longer has breaks every traced run."""
        path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
        spec = importlib.util.spec_from_file_location("benchmark_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        listed = [(short, name) for table in (tracing.SPANNED, tracing.COUNTED)
                  for short, names in table.items() for name in names]
        listed += [("oracle", name) for name in tracing.RULE_FACTORIES]
        missing = [f"{short}.{name}" for short, name in listed
                   if not hasattr(importlib.import_module(f"nlqsim.{short}"), name)]
        assert len(listed) > 20
        assert missing == []


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

    def test_rows_hand_evolve_their_step_counts(self, tmp_path, monkeypatch):
        calls = []
        evolve = evolution.evolve

        def recording(psi0, f, spec, n_steps, eps, **kwargs):
            calls.append((n_steps, eps))
            return evolve(psi0, f, spec, n_steps, eps, **kwargs)

        monkeypatch.setattr(evolution, "evolve", recording)
        cfg = config_from_dict(hartree_config_dict(t=1.0, eps=0.3))
        report = cli.run_compare(cfg, str(tmp_path), halvings=2)
        assert calls == [(3, 0.3), (6, 0.15), (13, 0.075)]
        assert all(type(n_steps) is int for n_steps, _ in calls)
        assert [row["n_steps"] for row in report["comparisons"]] == [3, 6, 13]

    def test_convergence_csv_parses(self, tmp_path):
        """Every l2_ratio field is a float literal, except the finest row's,
        which has no finer row to divide by and is left empty."""
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(hartree_config_dict(t=0.16, eps=0.08)))
        rc = cli.main([
            "compare", "--config", str(cfg_path), "--out", str(tmp_path),
            "--halvings", "2",
        ])
        assert rc == 0
        rows = json.loads((tmp_path / "compare.json").read_text())["comparisons"]
        with open(tmp_path / "convergence.csv", newline="") as fh:
            table = list(csv.DictReader(fh))
        assert len(table) == len(rows) == 3
        assert table[-1]["l2_ratio"] == ""
        for line, row in zip(table[:-1], rows):
            assert float(line["l2_ratio"]) == row["l2_ratio"]

    @pytest.mark.parametrize(
        "payload, halvings, t_runs, ref_steps",
        [
            # the acceptance Hartree config: t is a multiple of eps, so every
            # row ends at 1.6
            (hartree_config_dict(grid={"points": [64], "dx": 0.25, "x0": -8.0},
                                 initial_state={"preset": "gaussian", "center": -2.0,
                                                "sigma": 1.0, "kappa": -1.0},
                                 t=1.6, eps=0.08), 3, [1.6], 160),
            # rows of 3, 6, 13 and 26 steps end at 3 * 0.3 and at 13 * 0.075
            (hartree_config_dict(t=1.0, eps=0.3), 3, [3 * 0.3, 13 * (0.3 / 4)], 26),
            # rows of 1, 2, 5 and 11 steps end at 0.7, 0.875 and 0.9625
            (hartree_config_dict(t=1.0, eps=0.7), 3, [0.7, 5 * (0.7 / 4), 11 * (0.7 / 8)],
             11),
            # t just under 10 steps of 0.1: the first row counts 10 steps and
            # ends last, at 1.0; the later rows of 19, 39 and 79 steps end
            # before it
            (hartree_config_dict(t=0.99999999993, eps=0.1), 3,
             [19 * (0.1 / 2), 39 * (0.1 / 4), 79 * (0.1 / 8), 10 * 0.1], 80),
        ],
        ids=["acceptance", "two-final-times", "three-final-times", "first-row-last"],
    )
    def test_reference_is_continued_through_the_final_times(
        self, tmp_path, monkeypatch, payload, halvings, t_runs, ref_steps
    ):
        solves = []

        def counting(phi0, rule, c_T, t, dt, *args, **kwargs):
            out = solve(phi0, rule, c_T, t, dt, *args, **kwargs)
            solves.append((phi0, t, dt, out))
            assert kwargs == {"row": oracle.BLANES_MOAN4}
            return out

        solve = oracle.split_step_solve
        monkeypatch.setattr(oracle, "split_step_solve", counting)
        cfg = config_from_dict(payload)
        rows = cli.run_compare(cfg, str(tmp_path), halvings=halvings)["comparisons"]
        finest = rows[-1]["eps"]
        assert finest == cfg.eps / 2**halvings
        assert len(rows) == halvings + 1
        # one solve per final time, from the one before it, at the finest step
        spans = [end - start for start, end in zip([0.0] + t_runs, t_runs)]
        assert [(t, dt) for _, t, dt, _ in solves] == [(t, finest) for t in spans]
        for (_, _, _, before), (start, _, _, _) in zip(solves, solves[1:]):
            assert start is before
        # as many steps as one solve to the latest final time, never more
        # than a solve per row at its own eps would take
        steps = sum(oracle.step_count(t, dt) for _, t, dt, _ in solves)
        assert steps == ref_steps == oracle.step_count(t_runs[-1], finest)
        per_row = sum(oracle.step_count(row["n_steps"] * row["eps"], row["eps"])
                      for row in rows)
        assert steps < per_row

    def test_finest_row_equals_a_single_row_compare(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(hartree_config_dict(t=0.8, eps=0.08)))
        runs = {}
        for name, extra in (("halved", ["--halvings", "2"]), ("single", ["--eps", repr(0.02)])):
            out = tmp_path / name
            assert cli.main(["compare", "--config", str(cfg_path), "--out", str(out),
                             *extra]) == 0
            runs[name] = json.loads((out / "compare.json").read_text())["comparisons"]
        assert runs["halved"][-1] == runs["single"][0]

    def test_rows_with_oracle_dt_equal_single_row_compares(self, tmp_path):
        # every row ends at 0.8 and already used oracle_dt, so sharing its
        # solve moves no bit
        cfg = config_from_dict(hartree_config_dict(t=0.8, eps=0.08, oracle_dt=0.002))
        rows = cli.run_compare(cfg, str(tmp_path / "halved"), halvings=2)["comparisons"]
        for i, row in enumerate(rows):
            single = cli.run_compare(replace(cfg, eps=row["eps"]), str(tmp_path / str(i)))
            shared = {k: v for k, v in row.items() if not k.endswith("_ratio")}
            assert shared == single["comparisons"][0]

    @pytest.mark.parametrize(
        "payload",
        [
            # the acceptance Hartree config at eps 0.08: measured 1.2e-8
            # against 9.5e-7 for a Strang reference at eps/20
            hartree_config_dict(grid={"points": [64], "dx": 0.25, "x0": -8.0},
                                initial_state={"preset": "gaussian", "center": -2.0,
                                               "sigma": 1.0, "kappa": -1.0},
                                t=1.6, eps=0.08),
            # 8x8 Navier-Stokes stencil at eps 0.04: 6.3e-11 against 1.8e-9
            {"problem": "navier-stokes", "grid": {"points": [8, 8], "dx": 1.0, "x0": -4.0},
             "initial_state": {"preset": "gaussian", "center": [0.0, 0.0], "sigma": 2.0,
                               "kappa": [0.5, 0.0]},
             "t": 0.4, "eps": 0.04},
        ],
        ids=["acceptance-hartree", "stencil-2d"],
    )
    def test_reference_beats_a_strang_reference_at_a_twentieth(
        self, tmp_path, monkeypatch, payload
    ):
        solves = []

        def recording(*args, **kwargs):
            solves.append(solve(*args, **kwargs))
            return solves[-1]

        solve = oracle.split_step_solve
        monkeypatch.setattr(oracle, "split_step_solve", recording)
        cfg = config_from_dict(payload)
        cli.run_compare(cfg, str(tmp_path))
        (used,) = solves
        phi0 = FieldState.from_amplitudes(cli.build_problem(cfg)[1], cfg.grid)
        rule = cli.build_oracle_potential(cfg)
        c_T = cfg.kinetic_prefactor
        fine = solve(phi0, rule, c_T, cfg.t, cfg.eps / 32, row=oracle.BLANES_MOAN4)
        strang = solve(phi0, rule, c_T, cfg.t, cfg.eps / 20)
        used_err = np.linalg.norm(used.values - fine.values)
        strang_err = np.linalg.norm(strang.values - fine.values)
        assert used_err < strang_err / 4

    def test_stencil_bug_raises_compare_error(self, tmp_path, monkeypatch):
        """The reference builds the Navier-Stokes potential from the physics,
        not from the gate path's coupling, so a 1% error in the stencil
        builder shows in compare's state error."""
        payload = {
            "problem": "navier-stokes",
            "grid": {"points": [16], "dx": 0.5, "x0": -4.0},
            "initial_state": {"preset": "gaussian", "center": 0.0, "sigma": 1.0, "kappa": 0.4},
            "t": 0.4,
            "eps": 0.002,
        }
        cfg = config_from_dict(payload)
        clean = cli.run_compare(cfg, str(tmp_path / "clean"))["comparisons"][0]
        builder = problems.navier_stokes_coupling
        monkeypatch.setattr(
            problems, "navier_stokes_coupling",
            lambda rho0, grid: CouplingMatrix.from_dense(builder(rho0, grid).dense * 1.01),
        )
        mutated = cli.run_compare(cfg, str(tmp_path / "mutated"))["comparisons"][0]
        assert mutated["l2_error"] > 3.0 * clean["l2_error"]

    def test_csv_coupling_bug_raises_compare_error(self, tmp_path, monkeypatch):
        """The reference reads a custom-f triplet file itself, so a 1% error
        in the gate path's coupling shows in compare's state error."""
        grid = GridSpec(points=(16,), dx=0.5)
        support.coupling_to_triplet_csv(problems.navier_stokes_coupling(1.0, grid),
                                        tmp_path / "f.csv")
        payload = {
            "problem": "custom-f",
            "grid": {"points": [16], "dx": 0.5, "x0": -4.0},
            "coupling_csv": str(tmp_path / "f.csv"),
            "initial_state": {"preset": "gaussian", "center": 0.0, "sigma": 1.0, "kappa": 0.4},
            "t": 0.4,
            "eps": 0.001,
        }
        cfg = config_from_dict(payload)
        clean = cli.run_compare(cfg, str(tmp_path / "clean"))["comparisons"][0]
        reader = problems.coupling_from_triplet_csv

        def scaled(path, dim):
            f = reader(path, dim)
            return CouplingMatrix(f.dim, f.rows, f.cols, f.vals * 1.01)

        monkeypatch.setattr(problems, "coupling_from_triplet_csv", scaled)
        mutated = cli.run_compare(cfg, str(tmp_path / "mutated"))["comparisons"][0]
        assert mutated["l2_error"] > 3.0 * clean["l2_error"]


def _scale_potential(monkeypatch):
    potential = CouplingMatrix.potential
    monkeypatch.setattr(CouplingMatrix, "potential", lambda f, dens: 1.01 * potential(f, dens))


def _scale_momentum_ladder(monkeypatch):
    ladder = evolution.KineticSpec.axis_momentum_sq
    monkeypatch.setattr(evolution.KineticSpec, "axis_momentum_sq",
                        lambda spec: [1.01 * p_sq for p_sq in ladder(spec)])


def _negate_angles(monkeypatch):
    calibrate = nlcompiler.gammas_from_coupling

    def negated(f, eps):
        s = calibrate(f, eps)
        return nlcompiler.GammaSchedule(-s.gamma_k, s.pair_k, s.pair_l, -s.gamma_kl)

    monkeypatch.setattr(nlcompiler, "gammas_from_coupling", negated)


class TestCompareSeesGatePathFaults:
    """A fault in a gate-path layer the reference does not share shows in
    `compare --halvings`: the finest row's l2 error rises at least 5x, or a
    halving ratio leaves the first-order band. A fault in the kernel row,
    which both paths sample alike, does not show and is not listed."""

    L2_RATIO_BAND = (1.6, 2.6)

    # the acceptance Hartree config (64 sites, t = 20 * eps)
    ACCEPTANCE = hartree_config_dict(grid={"points": [64], "dx": 0.25, "x0": -8.0},
                                     initial_state={"preset": "gaussian", "center": -2.0,
                                                    "sigma": 1.0, "kappa": -1.0},
                                     t=1.6, eps=0.08)

    @pytest.mark.parametrize(
        "fault, payload, halvings",
        [
            # measured: ratios 2.00/1.87/1.51, finest l2 error 2.10e-3 -> 2.95e-3
            (_scale_potential, ACCEPTANCE, 3),
            # measured: finest l2 error 2.10e-3 -> 2.69e-2
            (_scale_momentum_ladder, ACCEPTANCE, 3),
            # measured on 16 sites: finest l2 error 5.8e-3 -> 0.22
            (_negate_angles, hartree_config_dict(mode="compiled"), 1),
        ],
        ids=["potential", "momentum-ladder", "compiled-angles"],
    )
    def test_fault_shows(self, tmp_path, monkeypatch, fault, payload, halvings):
        cfg = config_from_dict(payload)
        lo, hi = self.L2_RATIO_BAND

        def run(name):
            rows = cli.run_compare(cfg, str(tmp_path / name), halvings=halvings)["comparisons"]
            return [row["l2_ratio"] for row in rows[:-1]], rows[-1]["l2_error"]

        ratios, finest = run("clean")
        assert all(lo <= ratio <= hi for ratio in ratios)
        fault(monkeypatch)
        faulty_ratios, faulty_finest = run("faulty")
        assert (faulty_finest >= 5.0 * finest
                or not all(lo <= ratio <= hi for ratio in faulty_ratios))


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

    def test_instrument_counts_the_executed_ops(self, tmp_path, monkeypatch):
        """The instrumented counts are the primitive calls that execute made:
        an execute that skips its last op no longer matches the closed form,
        and the primitives are restored afterwards."""
        primitives = {name: getattr(statevec, name) for name in nlcompiler.GATES.values()}
        execute = nlcompiler.execute

        def skip_last(seq, r):
            return execute(replace(seq, ops=seq.ops[:-1]), r)

        monkeypatch.setattr(nlcompiler, "execute", skip_last)
        report = cli.run_resources(2, 2, 1, 1, str(tmp_path), instrument=True)
        (row,) = report["rows"]
        closed_form = (row["mcx_per_step"] + row["nonlinear_per_step"]
                       + row["ancilla_phase_per_step"])
        assert report["instrumented"]["matches_closed_form"] is False
        assert sum(report["instrumented"]["measured"].values()) == closed_form - 1
        assert {name: getattr(statevec, name) for name in primitives} == primitives

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
            # usage errors found by the argument parser
            ["resources", "--n-min", "abc"],
            ["bec", "--sweep", "1.5"],
            ["simulate"],
            ["frobnicate"],
            ["compare", "--mode", "bogus"],
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

    def test_usage_error_names_the_argument(self, capsys):
        assert cli.main(["resources", "--n-min", "abc"]) == 2
        err = capsys.readouterr().err
        assert err == "config error: argument --n-min: invalid int value: 'abc'\n"

    def test_help_unchanged(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr()
        assert out.out.startswith("usage: nlqsim ") and out.err == ""


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


class TestBadInputFile:
    """A malformed coupling or field file exits 2 with one line that names
    the file, and the line of a malformed row."""

    FILES = {
        "f.csv": ("custom-f", {"coupling_csv": "f.csv"}),
        "state.csv": ("hartree", {"initial_state": {"preset": "file", "path": "state.csv"}}),
    }

    # name: (file, text, message after "config error: <file>: ")
    CASES = {
        "triplet-index": ("f.csv", "k,j,f\n0,0,1.0\n3,99,0.5\n",
                          "index (3,99) out of range for dim 16"),
        "triplet-int": ("f.csv", "k,j,f\n0,0,1.0\n0,x,0.5\n",
                        "line 3: invalid literal for int() with base 10: 'x'"),
        "triplet-nan": ("f.csv", "k,j,f\n0,0,1.0\n1,2,nan\n", "line 3: f must be finite, got nan"),
        "triplet-inf": ("f.csv", "k,j,f\n1,2,-inf\n", "line 2: f must be finite, got -inf"),
        # the csv module's own error is named like a parse error
        "triplet-long-field": ("f.csv", "k,j,f\n0,0,1" + "0" * csv.field_size_limit() + "\n",
                               f"line 2: field larger than field limit ({csv.field_size_limit()})"),
        "field-empty": ("state.csv", "", "empty field file"),
        "field-float": ("state.csv", "x,re,im\n0,a,0\n",
                        "line 2: could not convert string to float: 'a'"),
        "field-nan": ("state.csv", "x,re,im\n0,1,0\n\n1,0,nan\n",
                      "line 4: sample must be finite, got re 0.0, im nan"),
        # a single column is not read as both re and im
        "field-one-column": ("state.csv", "re\n" + "".join(f"{i}\n" for i in range(1, 17)),
                             "line 1: needs at least 2 columns (re,im last), header has 1"),
    }

    @pytest.mark.parametrize("name, text, message", CASES.values(), ids=list(CASES))
    def test_exit_2_naming_file_and_line(self, tmp_path, capsys, name, text, message):
        (tmp_path / name).write_text(text)
        problem, section = self.FILES[name]
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(hartree_config_dict(problem=problem, **section)))
        for command in ("simulate", "compare"):
            rc = cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / command)])
            assert rc == 2
            assert one_error_line(capsys) == f"config error: {tmp_path / name}: {message}"

    @pytest.mark.parametrize("case", [case for case in CASES if case.startswith("triplet")])
    def test_reference_refuses_triplets_alike(self, tmp_path, case):
        """The custom-f reference reads its file through the same reader as
        the gate path, so it refuses each bad file with the same text."""
        name, text, message = self.CASES[case]
        path = tmp_path / name
        path.write_text(text)
        grid = GridSpec(points=(16,), dx=0.5)
        with pytest.raises(ValueError) as gate:
            problems.coupling_from_triplet_csv(path, grid.size)
        with pytest.raises(ValueError) as reference:
            oracle.coupling_potential(path, grid)
        assert str(reference.value) == str(gate.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"initial_state": {"preset": "file"}}, "file preset needs a path"),
            ({"kernel": {"form": "tabulated", "samples": []}}, "tabulated kernel needs samples"),
        ],
        ids=["file-preset-without-path", "empty-kernel-table"],
    )
    def test_missing_input_exit_2(self, tmp_path, capsys, payload, message):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(hartree_config_dict(**payload)))
        rc = cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert one_error_line(capsys) == f"config error: {message}"


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

    @pytest.mark.parametrize("points", ["4", "8"])
    def test_small_grids_run(self, tmp_path, points):
        # the coarsest trap grids reach the ground state's residual bound too
        rc = cli.main(["bec", "--out", str(tmp_path), "--grid-points", points, "--sweep", "1"])
        assert rc == 0
        assert json.loads((tmp_path / "bec.json").read_text())["rows"]

    def test_t_zero(self, tmp_path):
        rc = cli.main(["bec", "--out", str(tmp_path), "--grid-points", "64", "--t", "0"])
        assert rc == 0
        report = json.loads((tmp_path / "bec.json").read_text())
        assert report["rows"][0]["measured_relative"] == 0.0
        assert report["rows"][0]["predicted_relative"] == 0.0


INF = float("inf")


def gp_config_dict(**overrides):
    """16-point Gross-Pitaevskii run; the base of the config-boundary cases."""
    base = {
        "problem": "gross-pitaevskii",
        "grid": {"points": [16], "dx": 0.5, "x0": -4.0},
        "g": 1.0,
        "initial_state": {"preset": "gaussian", "center": 0.0, "sigma": 1.0, "kappa": 0.4},
        "t": 0.4,
        "eps": 0.1,
    }
    base.update(overrides)
    return base


def gp_kernel_dict(kernel, **overrides):
    return gp_config_dict(problem="hartree", kernel=kernel, **overrides)


GAUSSIAN = {"form": "gaussian", "sigma": 1.0, "amplitude": 2.0}


def one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err + captured.out
    err = captured.err.splitlines()
    assert len(err) == 1, err
    return err[0]


class TestConfigBoundary:
    # name: (config, exit code, fragment of the one stderr line)
    CASES = {
        "misspelled-key": (gp_config_dict(mdoe="compiled"), 2, "unknown config key 'mdoe'"),
        "grid-extra-key": (
            gp_config_dict(grid={"points": [16], "dx": 0.5, "spacing": 1.0}), 2,
            "unknown grid key 'spacing'",
        ),
        "initial-state-extra-key": (
            gp_config_dict(initial_state={"preset": "uniform", "width": 1.0}), 2,
            "unknown initial_state key 'width'",
        ),
        "kernel-extra-key": (
            gp_kernel_dict({"form": "gaussian", "sigma": 1.0, "amplitude": 2.0, "width": 3.0}),
            2, "unknown kernel key 'width'",
        ),
        "basic_c-negative": (gp_config_dict(basic_c=-3), 2, "basic_c must be >= 1"),
        "basic_c-zero": (gp_config_dict(basic_c=0), 2, "basic_c must be >= 1"),
        "basic_c-fraction": (gp_config_dict(basic_c=2.7), 2, "basic_c must be an integer"),
        "record_stride-bool": (gp_config_dict(record_stride=True), 2, "record_stride must be an integer"),
        "record_stride-fraction": (gp_config_dict(record_stride=1.9), 2, "record_stride must be an integer"),
        "points-fraction": (
            gp_config_dict(grid={"points": [16.7], "dx": 0.5}), 2, "points must be an integer",
        ),
        "plane-wave-mode-fraction": (
            gp_config_dict(initial_state={"preset": "plane-wave", "mode": 2.5}), 2,
            "mode must be an integer",
        ),
        "plane-wave-mode-string": (
            gp_config_dict(initial_state={"preset": "plane-wave", "mode": "x"}), 2,
            "mode must be an integer",
        ),
        "basis-k-fraction": (
            gp_config_dict(initial_state={"preset": "basis", "k": 3.9}), 2, "k must be an integer",
        ),
        "basis-k-string": (
            gp_config_dict(initial_state={"preset": "basis", "k": "3"}), 2, "k must be an integer",
        ),
        "kernel-string": (gp_kernel_dict("x"), 2, "kernel must be an object"),
        "gaussian-amplitude-inf": (
            gp_kernel_dict({"form": "gaussian", "sigma": 1.0, "amplitude": INF}), 2,
            "amplitude must be finite",
        ),
        "constant-c-inf": (gp_kernel_dict({"form": "constant", "c": INF}), 2, "must be finite"),
        "coupling_csv-number": (
            gp_config_dict(problem="custom-f", coupling_csv=5), 2, "coupling_csv must be a string",
        ),
        "file-path-number": (
            gp_config_dict(initial_state={"preset": "file", "path": 7}), 2, "path must be a string",
        ),
        "navier-stokes-dx-tiny": (
            gp_config_dict(problem="navier-stokes", grid={"points": [16], "dx": 1e-200}), 2,
            "dx 1e-200 gives a Nyquist momentum squared 1 * (pi/dx)**2 that overflows",
        ),
        # passes the grid checks; the stencil weight's denominator underflows,
        # overflows, is subnormal, and the weight itself underflows to zero
        "navier-stokes-dx-small": (
            gp_config_dict(problem="navier-stokes", grid={"points": [16], "dx": 1e-150}), 2,
            "rho0 1.0 and dx 1e-150 put the stencil weight w = 1 / (4 rho0 dx**2 dx**1) "
            "or the diagonal 2 * 1 * w outside the normal floats",
        ),
        "navier-stokes-dx-huge": (
            gp_config_dict(problem="navier-stokes", grid={"points": [16], "dx": 1e200}), 2,
            "rho0 1.0 and dx 1e+200 put the stencil weight",
        ),
        "navier-stokes-rho0-tiny": (
            gp_config_dict(problem="navier-stokes", rho0=1e-320), 2,
            "rho0 1e-320 and dx 0.5 put the stencil weight",
        ),
        "navier-stokes-rho0-huge": (
            gp_config_dict(problem="navier-stokes", rho0=1e308), 2,
            "rho0 1e+308 and dx 0.5 put the stencil weight",
        ),
        "gaussian-sigma-tiny": (
            gp_kernel_dict({"form": "gaussian", "sigma": 1e-200, "amplitude": 2.0}), 2,
            "coupling matrix entries must be finite",
        ),
        "c_T-huge": (
            gp_config_dict(c_T=1e308), 1,
            "non-finite kinetic phase for step size eps = 0.1; lower c_T or eps",
        ),
        "step-count-overflow": (
            gp_config_dict(t=1e308, eps=0.08), 2, "the step count t / (eps) overflows",
        ),
        "reference-step-count-overflow": (
            gp_config_dict(oracle_dt=1e-320), 2, "the step count t / (oracle_dt) overflows",
        ),
        "constant-c-huge": (
            gp_kernel_dict({"form": "constant", "c": 1e308}, eps=8.0, t=8.0), 1,
            "non-finite rotation angle",
        ),
        # the cell volume dx**dims underflows to zero, is subnormal, overflows
        "cell-volume-zero": (
            gp_kernel_dict(GAUSSIAN, grid={"points": [4, 4], "dx": 1e-200}, t=0.1, eps=0.05),
            2, "dx 1e-200 gives a cell volume dx**2 outside the normal floats",
        ),
        "cell-volume-subnormal": (
            gp_kernel_dict(GAUSSIAN, grid={"points": [8], "dx": 5e-324}, t=0.1, eps=0.05),
            2, "dx 5e-324 gives a cell volume dx**1 outside the normal floats",
        ),
        "cell-volume-overflow": (
            gp_kernel_dict(GAUSSIAN, grid={"points": [4, 4], "dx": 1e200}, t=0.1, eps=0.05),
            2, "dx 1e+200 gives a cell volume dx**2 outside the normal floats",
        ),
        # a normal cell volume, but p**2 at the Nyquist corner overflows, which
        # no eps or c_T can mend; in 2-d the two axes' squares add
        "nyquist-momentum-overflow-1d": (
            gp_kernel_dict(GAUSSIAN, grid={"points": [16], "dx": 1e-200}, t=0.1, eps=0.05),
            2, "dx 1e-200 gives a Nyquist momentum squared 1 * (pi/dx)**2 that overflows",
        ),
        "nyquist-momentum-overflow-2d": (
            gp_kernel_dict(GAUSSIAN, grid={"points": [4, 4], "dx": 3e-154}, t=0.1, eps=0.05),
            2, "dx 3e-154 gives a Nyquist momentum squared 2 * (pi/dx)**2 that overflows",
        ),
    }

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_code_and_one_line(self, tmp_path, capsys, command, case):
        payload, code, fragment = self.CASES[case]
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(payload))
        rc = cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        line = one_error_line(capsys)
        assert rc == code
        assert line.startswith("config error: " if code == 2 else "numerical failure: ")
        assert fragment in line

    @pytest.mark.parametrize("initial_state, grid, cause", [
        # the packet underflows to zero at every site
        ({"center": 1e300}, {}, "0"),
        # (x - c) / sigma overflows
        ({"sigma": 1e-300}, {}, "not finite"),
        # the coordinates overflow, and the packet underflows to zero
        ({}, {"x0": 1e308}, "0"),
    ])
    def test_unnormalizable_initial_state_names_its_cause(
        self, tmp_path, capsys, initial_state, grid, cause
    ):
        payload = gp_config_dict(
            grid={"points": [16], "dx": 0.5, "x0": -4.0, **grid},
            initial_state={"preset": "gaussian", **initial_state},
        )
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(payload))
        rc = cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert one_error_line(capsys) == (
            f"config error: initial_state preset 'gaussian' is unnormalizable: the norm is {cause}"
        )

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    @pytest.mark.parametrize("points", [[16], [4, 4]])
    def test_small_dx_still_runs(self, tmp_path, capsys, command, points):
        """dx 1e-150 keeps the cell volume normal and p**2 finite."""
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(
            gp_kernel_dict(GAUSSIAN, grid={"points": points, "dx": 1e-150}, t=0.1, eps=0.05)
        ))
        rc = cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
        assert rc == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["--grid-points", "100"], "grid-points must be a power of two"),
            (["--grid-points", "0"], "grid-points must be a power of two"),
            (["--dt", "0"], "dt must be positive"),
            (["--dt", "nan"], "dt must be finite"),
            (["--t", "-1"], "t must be >= 0"),
            (["--t", "nan"], "t must be finite"),
            (["--weight", "1.5"], "weight must be in [0, 1]"),
            (["--weight=-0.1"], "weight must be in [0, 1]"),
            (["--weight", "nan"], "weight must be finite"),
            (["--g11", "inf"], "g11 must be finite"),
            (["--g22", "nan"], "g22 must be finite"),
            (["--g12=-inf"], "g12 must be finite"),
            (["--sweep", "0"], "sweep must be >= 1"),
        ],
    )
    def test_bec_arguments(self, tmp_path, capsys, argv, fragment):
        rc = cli.main(["bec", "--out", str(tmp_path)] + argv)
        line = one_error_line(capsys)
        assert rc == 2
        assert line.startswith("config error: ")
        assert fragment in line
        assert not (tmp_path / "bec.json").exists()

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["--steps", "-1"], "t must be >= 0"),
            (["--eps", "0"], "eps must be positive"),
            (["--eps", "1e-320"], "the step count t / (eps) overflows"),
        ],
    )
    def test_overrides_reenter_the_boundary(self, tmp_path, capsys, argv, fragment):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(gp_config_dict()))
        rc = cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)] + argv)
        assert rc == 2
        assert fragment in one_error_line(capsys)

    @pytest.mark.parametrize(
        "payload, halvings, fragment",
        [
            # the reference runs at the row's own step, so the gate path's
            # count is the one that overflows
            (gp_config_dict(), "1100", "the step count t / (eps/2**1023) overflows"),
            (gp_config_dict(oracle_dt=0.01), "1100", "the step count t / (eps/2**1023) overflows"),
        ],
    )
    def test_halved_row_step_counts(self, tmp_path, capsys, payload, halvings, fragment):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        rc = cli.main(["compare", "--config", str(cfg_path), "--out", str(out),
                       "--halvings", halvings])
        assert rc == 2
        assert fragment in one_error_line(capsys)
        assert not out.exists()

    @pytest.mark.parametrize(
        "message, expected",
        [
            ("Unable to allocate 8.00 TiB for an array",
             "out of memory: Unable to allocate 8.00 TiB for an array"),
            ("", "out of memory: an allocation failed"),
        ],
    )
    def test_memory_error_exit_1(self, tmp_path, capsys, monkeypatch, message, expected):
        def no_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "run_bec", no_memory)
        rc = cli.main(["bec", "--out", str(tmp_path)])
        line = one_error_line(capsys)
        assert rc == 1
        assert line == expected

    def test_sections_parse_every_field(self):
        from dataclasses import fields

        for parsers, cls in (
            (cli._CONFIG, ExperimentConfig),
            (cli._GRID, GridSpec),
            (cli._INITIAL_STATE, InitialStateSpec),
            (cli._KERNEL, KernelSpec),
        ):
            assert set(parsers) == {f.name for f in fields(cls)}

    def test_integer_center_echoes_unchanged(self, tmp_path):
        payload = gp_config_dict(
            initial_state={"preset": "gaussian", "center": 1, "sigma": [1], "kappa": 0}
        )
        cfg = config_from_dict(payload)
        echo = config_to_dict(cfg)["initial_state"]
        assert echo == {"preset": "gaussian", "center": 1, "sigma": [1], "kappa": 0,
                        "k": 0, "mode": 1}
        assert type(echo["center"]) is int
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(payload))
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        text = (tmp_path / "summary.json").read_text()
        assert '"center": 1,' in text
        assert json.loads(text)["config"]["initial_state"]["center"] == 1


class TestStepCap:
    """No run takes more than MAX_STEPS steps: gate path for simulate, gate
    path plus reference over all rows for compare."""

    @pytest.mark.parametrize(
        "command, payload, extra",
        [
            ("simulate", gp_config_dict(t=1e20, eps=0.1), []),
            ("compare", gp_config_dict(oracle_dt=1e-300), []),
            ("compare", gp_config_dict(t=1.6, eps=0.08), ["--halvings", "60"]),
        ],
        ids=["huge-t", "tiny-oracle-dt", "60-halvings"],
    )
    def test_refused_within_a_time_limit(self, tmp_path, command, payload, extra):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        proc = run_child(["-m", "nlqsim.cli", command, "--config", str(cfg_path),
                          "--out", str(out), *extra], timeout=30)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("config error: ")
        assert "steps, above the cap of 100000000" in lines[0]
        assert not out.exists()

    def test_cap_is_inclusive(self):
        assert cli.MAX_STEPS == 10**8
        cfg = config_from_dict(gp_config_dict(t=0.5 * cli.MAX_STEPS, eps=0.5))
        assert cfg.eps == 0.5
        with pytest.raises(ConfigError, match=r"gate path at eps takes 100000001 steps"):
            config_from_dict(gp_config_dict(t=0.5 * (cli.MAX_STEPS + 1), eps=0.5))

    @staticmethod
    def no_work(monkeypatch):
        def refuse(*args):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "build_problem", refuse)

    def test_override_is_capped(self, tmp_path, capsys, monkeypatch):
        self.no_work(monkeypatch)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(gp_config_dict()))
        rc = cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path),
                       "--eps", "0.5", "--steps", str(cli.MAX_STEPS + 1)])
        assert rc == 2
        assert "takes 100000001 steps" in one_error_line(capsys)

    def test_simulate_counts_no_reference_steps(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(gp_config_dict(oracle_dt=1e-300)))
        assert cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0

    def test_compare_counts_every_row(self, tmp_path, capsys, monkeypatch):
        # 8 + 16 + ... gate steps, and one reference solve for the one final
        # time, at the finest row's eps: 22 halvings stay under the cap row
        # by row, not in total; refused before any work
        self.no_work(monkeypatch)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(gp_config_dict(t=0.8, eps=0.1)))
        rc = cli.main(["compare", "--config", str(cfg_path), "--out", str(tmp_path / "out"),
                       "--halvings", "22"])
        assert rc == 2
        line = one_error_line(capsys)
        assert line == (
            "config error: compare (gate path and reference, all 23 row(s)) takes "
            f"{8 * (2**23 - 1) + 8 * 2**22} steps, above the cap of 100000000"
        )

    def test_override_of_many_steps_is_capped(self, tmp_path, capsys, monkeypatch):
        # t = 100000001 * 0.1 reads back as exactly 100000001 steps, not one fewer
        self.no_work(monkeypatch)
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(gp_config_dict()))
        rc = cli.main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path),
                       "--eps", "0.1", "--steps", "100000001"])
        assert rc == 2
        assert "the gate path at eps takes 100000001 steps" in one_error_line(capsys)


class TestRunBounds:
    """`resources` and `bec` refuse arguments above their bounds before any
    work: the work functions are replaced by ones that fail the test."""

    @staticmethod
    def no_work(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the run started")

        for module, name in ((cli.nlcompiler, "estimate_resources"),
                             (cli.nlcompiler, "compile_w"),
                             (oracle, "ground_state")):
            monkeypatch.setattr(module, name, refuse)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["resources", "--n-min", "1", "--n-max", "15000"], "n-max must be <= 64, got 15000"),
            (["resources", "--n-max", "65"], "n-max must be <= 64, got 65"),
            (["resources", "--n-min", "9", "--n-max", "9", "--instrument"],
             "--instrument needs n-min <= 8, got 9"),
            (["resources", "--steps", "100000001"],
             "the counted run takes 100000001 steps, above the cap of 100000000"),
            (["resources", "--basic-c", "1000001"], "basic-c must be <= 1000000, got 1000001"),
            (["bec", "--dt", "1e-12", "--sweep", "1", "--grid-points", "64"],
             "bec (1 coupling scale(s)) takes 100000000000 steps, above the cap of 100000000"),
            (["bec", "--t", "1e300", "--dt", "1e-300"],
             "the step count t / dt overflows: t 1e+300, dt 1e-300"),
            # more steps than a float holds
            (["bec", "--t", "1.7e308", "--dt", "1", "--sweep", "64"],
             "bec (64 coupling scale(s)) takes about 1.09e+310 steps, above the cap of 100000000"),
            (["bec", "--grid-points", "2048"], "grid-points must be <= 1024, got 2048"),
            (["bec", "--sweep", "65", "--t", "0"], "sweep must be <= 64, got 65"),
        ],
        ids=["n-max-15000", "n-max", "instrument", "steps", "basic-c", "bec-steps",
             "bec-overflow", "bec-steps-beyond-float", "bec-grid", "bec-sweep"],
    )
    def test_refused_before_any_work(self, tmp_path, capsys, monkeypatch, argv, message):
        self.no_work(monkeypatch)
        out = tmp_path / "out"
        assert cli.main(argv + ["--out", str(out)]) == 2
        assert one_error_line(capsys) == f"config error: {message}"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["resources", "--n-min", "64", "--n-max", "64", "--steps", "100000000",
             "--basic-c", "1000000"],
            ["resources", "--n-min", "8", "--n-max", "8", "--instrument"],
            ["bec", "--t", "1", "--dt", "2e-8", "--sweep", "2"],
            ["bec", "--grid-points", "1024", "--sweep", "64"],
        ],
        ids=["resources", "instrument", "bec-steps", "bec-grid-and-sweep"],
    )
    def test_bounds_are_inclusive(self, tmp_path, monkeypatch, argv):
        self.no_work(monkeypatch)
        with pytest.raises(AssertionError, match="the run started"):
            cli.main(argv + ["--out", str(tmp_path / "out")])

    def test_largest_table_is_written(self, tmp_path):
        rc = cli.main(["resources", "--n-min", "64", "--n-max", "64", "--steps", "100000000",
                       "--basic-c", "1000000", "--out", str(tmp_path)])
        assert rc == 0
        (row,) = json.loads((tmp_path / "resources.json").read_text())["rows"]
        assert row["grid_points"] == 2**64


class TestOutDir:
    """An --out that cannot be a directory is refused before any work, and a
    failed write is one stderr line."""

    @staticmethod
    def no_work(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the run started")

        for module, name in ((cli, "load_config"), (cli, "build_problem"),
                             (cli.nlcompiler, "estimate_resources"),
                             (oracle, "ground_state")):
            monkeypatch.setattr(module, name, refuse)

    @pytest.mark.parametrize("below", [False, True], ids=["file", "file-sub"])
    @pytest.mark.parametrize("command", ["simulate", "compare", "resources", "bec"])
    def test_refused_before_any_work(self, tmp_path, capsys, monkeypatch, command, below):
        self.no_work(monkeypatch)
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        out = blocker / "sub" if below else blocker
        argv = [command, "--out", str(out)]
        if command in ("simulate", "compare"):
            argv += ["--config", str(tmp_path / "config.json")]
        assert cli.main(argv) == 2
        line = one_error_line(capsys)
        assert line.startswith(f"config error: --out {out} cannot be a directory")
        assert str(blocker) in line
        assert blocker.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]

    def test_empty_out_refused(self, capsys, monkeypatch):
        self.no_work(monkeypatch)
        assert cli.main(["resources", "--out", ""]) == 2
        assert one_error_line(capsys) == "config error: --out must name a directory, got ''"

    def test_write_failure_is_one_line(self, tmp_path, capsys, monkeypatch):
        def full_disk(path, payload):
            raise OSError(28, "No space left on device", path)

        monkeypatch.setattr(cli, "_write_json", full_disk)
        rc = cli.main(["resources", "--n-max", "2", "--out", str(tmp_path / "out")])
        line = one_error_line(capsys)
        assert rc == 1
        assert line.startswith("cannot write outputs: [Errno 28] No space left on device")
        assert "resources.json" in line


# values written over a config entry by the property test below
MUTANTS = [
    float("nan"), INF, -INF, 1e308, -1e308, 1e-300, 10**400, 2**62, -3, 0, 2.5,
    True, None, "x", [], {}, [1.0, "x"],
]


def config_entries(node, out):
    """Every (container, key) below node: object keys and list items."""
    for key, value in list(node.items() if isinstance(node, dict) else enumerate(node)):
        out.append((node, key))
        if isinstance(value, (dict, list)):
            config_entries(value, out)
    return out


# a kernel table for separations 0..8, enough for 16 points
TABLE = [2.0 / (1 + d) for d in range(9)]


class TestConfigProperty:
    @pytest.fixture(scope="class")
    def bases(self, tmp_path_factory):
        """Base configs covering every key, with their files in one directory."""
        base_dir = tmp_path_factory.mktemp("bases")
        (base_dir / "f.csv").write_text("k,j,f\n0,0,1.0\n0,1,0.5\n")
        (base_dir / "state.csv").write_text(
            "x,re,im\n" + "".join(f"{0.5 * i},1.0,0.0\n" for i in range(16))
        )
        return str(base_dir), [
            hartree_config_dict(record_stride=2, basic_c=2, oracle_dt=0.01, c_T=0.5),
            gp_config_dict(initial_state={"preset": "plane-wave", "mode": 2, "kappa": [0.1]}),
            gp_config_dict(problem="navier-stokes", rho0=0.5,
                           initial_state={"preset": "basis", "k": 3}),
            gp_config_dict(
                grid={"points": [4, 4], "dx": 0.5},
                initial_state={"preset": "gaussian", "center": [0.1, 0.2], "sigma": [1, 1]},
            ),
            gp_kernel_dict({"form": "tabulated", "samples_signed": TABLE[:0:-1] + TABLE}),
            gp_kernel_dict({"form": "constant", "c": 1.5}, initial_state={"preset": "uniform"}),
            gp_kernel_dict({"form": "contact", "g": 2.0}),
            gp_config_dict(problem="custom-f", coupling_csv="f.csv",
                           initial_state={"preset": "file", "path": "state.csv"}),
        ]

    @staticmethod
    def mutated(data, configs, numbers_only=False):
        """A deep copy of one base config with one to three entries set to a
        mutant, dropped, or joined by an extra entry; with numbers_only, only
        numeric entries are set, and only to numeric mutants."""
        import copy

        from hypothesis import strategies as st

        cfg = copy.deepcopy(data.draw(st.sampled_from(configs)))
        mutants = [m for m in MUTANTS if isinstance(m, (int, float))] if numbers_only else MUTANTS
        for _ in range(data.draw(st.integers(1, 3))):
            entries = config_entries(cfg, [])
            if numbers_only:
                entries = [(node, key) for node, key in entries
                           if isinstance(node[key], (int, float))]
            node, key = data.draw(st.sampled_from(entries))
            action = "set" if numbers_only else data.draw(st.sampled_from(["set", "drop", "add"]))
            if action == "set":
                node[key] = copy.deepcopy(data.draw(st.sampled_from(mutants)))
            elif action == "drop":
                del node[key]
            elif isinstance(node, dict):
                node[f"extra_{key}"] = 1.0
            else:
                node.append(copy.deepcopy(data.draw(st.sampled_from(MUTANTS))))
        return cfg

    def test_mutated_configs_raise_only_config_error(self, bases):
        from hypothesis import given, settings, strategies as st

        base_dir, configs = bases

        @settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @given(st.data())
        def check(data):
            cfg = self.mutated(data, configs)
            try:
                with np.errstate(all="ignore"):
                    cli.build_problem(config_from_dict(cfg, base_dir=base_dir))
            except ConfigError:
                pass

        check()

    def test_mutated_configs_run_to_an_exit_code(self, bases):
        """Whole short `simulate` and `compare` runs of mutated configs end in
        exit 0, 1 or 2, never a traceback; a failure is one stderr line. The
        mutants are numbers, so that runs get past the config boundary the
        test above covers for every mutant."""
        import contextlib
        import io

        from hypothesis import given, settings, strategies as st

        base_dir, configs = bases
        cfg_path = os.path.join(base_dir, "run.json")
        out_dir = os.path.join(base_dir, "out")

        @settings(max_examples=100, deadline=None, derandomize=True, database=None)
        @given(st.data())
        def check(data):
            with open(cfg_path, "w") as fh:
                json.dump(self.mutated(data, configs, numbers_only=True), fh)
            command = data.draw(st.sampled_from(["simulate", "compare"]))
            steps = data.draw(st.sampled_from([0, 1, 3]))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main([command, "--config", cfg_path, "--out", out_dir,
                               "--steps", str(steps)])
            assert rc in (0, 1, 2)
            if rc:
                assert len(err.getvalue().splitlines()) == 1, err.getvalue()

        check()

    #: values drawn for each argument of `resources` and `bec`, valid and not;
    #: with the bounds, an accepted run tabulates at most 64 registers,
    #: executes at most a 6-qubit instrumented step and takes at most 3000
    #: two-mode steps (the default --t and --dt at --sweep 3) on at most 128
    #: points
    ARGUMENTS = {
        "resources": {
            "--n-min": [-1, 0, 1, 2, 6, 9, 64, 65, 15000, "x"],
            "--n-max": [-1, 0, 1, 6, 9, 64, 65, 15000, "1.5"],
            "--steps": [-1, 0, 3, 10**8, 10**8 + 1, 10**30, int("9" * 4000)],
            "--basic-c": [-1, 0, 1, 7, 10**6, 10**6 + 1, 10**30, int("9" * 4000)],
        },
        "bec": {
            "--grid-points": [-4, 0, 2, 16, 64, 100, 2048, 2**70],
            "--weight": [-0.1, 0.0, 0.36, 1.0, 1.5, "nan", "inf"],
            "--g11": [0.0, 0.5, -1.0, 1e300, "nan"],
            "--g22": [0.0, 1.0, 1e300, "-inf"],
            "--g12": [0.0, 0.5, -2.0, "nan"],
            "--t": [-1.0, 0.0, 0.01, 0.1, 1e300, 1.7e308, "nan", "inf"],
            "--dt": [-1.0, 0.0, 5e-324, 1e-12, 1e-3, 0.01, 1.0, "nan"],
            "--sweep": [-1, 0, 1, 3, 65, 10**30],
        },
    }

    def test_subcommand_arguments_run_to_an_exit_code(self, tmp_path):
        """Whole `resources` and `bec` runs on drawn arguments end in exit 0,
        1 or 2, never a traceback; a failure is one stderr line."""
        import contextlib
        import io

        from hypothesis import given, settings, strategies as st

        out_dir = str(tmp_path / "out")

        @settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @given(st.data())
        def check(data):
            command = data.draw(st.sampled_from(sorted(self.ARGUMENTS)))
            argv = [command, "--out", out_dir]
            for flag, values in self.ARGUMENTS[command].items():
                if data.draw(st.booleans()):
                    argv += [flag, str(data.draw(st.sampled_from(values)))]
            if command == "resources" and data.draw(st.booleans()):
                argv.append("--instrument")
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            assert rc in (0, 1, 2)
            if rc:
                assert len(err.getvalue().splitlines()) == 1, err.getvalue()

        check()
