"""Batch front-end: parse an experiment config, run one subcommand, write
machine-readable results.

Subcommands:
  simulate   - run the gate-level evolution, write trajectory CSV + summary JSON
  compare    - run the gate-level path and the classical reference on the same
               physics; report fidelity, density error, optional step-halving
               convergence table
  resources  - closed-form gate-count table over a range of register sizes,
               optionally cross-checked against an instrumented run
  bec        - two-mode condensate phase-map check over a coupling sweep

Exit codes: 0 success, 1 numerical failure, 2 usage or config error.
All outputs are deterministic for a fixed config: floats are
serialized with full round-trip precision and JSON keys are sorted.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import evolution, nlcompiler, oracle, problems, statevec
from .evolution import KineticSpec, SimulationError
from .nlcompiler import CouplingMatrix
from .oracle import FieldState, TwoModeState
from .problems import GridSpec, KernelSpec

PROBLEMS = ("hartree", "gross-pitaevskii", "navier-stokes", "custom-f")
PRESETS = ("gaussian", "uniform", "basis", "plane-wave", "file")

#: default kinetic prefactor per problem (second-derivative convention)
DEFAULT_CT = {
    "hartree": 1.0,
    "gross-pitaevskii": 0.5,
    "navier-stokes": 0.5,
    "custom-f": 1.0,
}


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass(frozen=True)
class InitialStateSpec:
    preset: str
    center: float | list[float] = 0.0
    sigma: float | list[float] = 1.0
    kappa: float | list[float] = 0.0
    k: int = 0
    mode: int = 1
    path: str | None = None

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown initial-state preset {self.preset!r}")
        if self.preset == "file" and not self.path:
            raise ConfigError("file preset needs a path")


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    grid: GridSpec
    t: float
    eps: float
    initial_state: InitialStateSpec = field(
        default_factory=lambda: InitialStateSpec("uniform")
    )
    kernel: KernelSpec | None = None
    g: float = 0.0
    rho0: float = 1.0
    coupling_csv: str | None = None
    c_T: float | None = None
    mode: str = "direct"
    oracle_dt: float | None = None
    record_stride: int = 0
    basic_c: int = 1

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ConfigError(f"unknown problem {self.problem!r}")
        for name, value in (
            ("t", self.t), ("eps", self.eps), ("g", self.g), ("rho0", self.rho0),
            ("dx", self.grid.dx), ("x0", self.grid.x0), ("c_T", self.c_T),
            ("oracle_dt", self.oracle_dt),
        ):
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.t < 0:
            raise ConfigError(f"t must be >= 0, got {self.t}")
        if not self.eps > 0:
            raise ConfigError(f"eps must be positive, got {self.eps}")
        if self.mode not in evolution.MODES:
            raise ConfigError(f"mode must be one of {evolution.MODES}")
        if self.problem == "hartree" and self.kernel is None:
            raise ConfigError("hartree runs need a kernel")
        if self.problem == "custom-f" and not self.coupling_csv:
            raise ConfigError("custom-f runs need coupling_csv")
        if self.record_stride < 0:
            raise ConfigError("record_stride must be >= 0")

    @property
    def kinetic_prefactor(self) -> float:
        return DEFAULT_CT[self.problem] if self.c_T is None else self.c_T

    def resolved_oracle_dt(self) -> float:
        # reference step defaults to a twentieth of the run step so the
        # reference error is negligible against the first-order step error
        return self.eps / 20.0 if self.oracle_dt is None else self.oracle_dt


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out = {
        "problem": cfg.problem,
        "grid": {"points": list(cfg.grid.points), "dx": cfg.grid.dx, "x0": cfg.grid.x0},
        "t": cfg.t,
        "eps": cfg.eps,
        "initial_state": {
            k: v for k, v in asdict(cfg.initial_state).items() if v is not None
        },
        "g": cfg.g,
        "rho0": cfg.rho0,
        "mode": cfg.mode,
        "record_stride": cfg.record_stride,
        "basic_c": cfg.basic_c,
    }
    if cfg.kernel is not None:
        out["kernel"] = cfg.kernel.to_json_dict()
    if cfg.coupling_csv is not None:
        out["coupling_csv"] = cfg.coupling_csv
    if cfg.c_T is not None:
        out["c_T"] = cfg.c_T
    if cfg.oracle_dt is not None:
        out["oracle_dt"] = cfg.oracle_dt
    return out


def config_from_dict(d: dict, base_dir: str = ".") -> ExperimentConfig:
    try:
        grid_d = d["grid"]
        grid = GridSpec(
            points=tuple(grid_d["points"]),
            dx=float(grid_d["dx"]),
            x0=float(grid_d.get("x0", 0.0)),
        )
        init_d = dict(d.get("initial_state", {"preset": "uniform"}))
        init = InitialStateSpec(**init_d)
        kernel = None
        if "kernel" in d:
            kernel = KernelSpec.from_json_dict(d["kernel"])
        cfg = ExperimentConfig(
            problem=d["problem"],
            grid=grid,
            t=float(d["t"]),
            eps=float(d["eps"]),
            initial_state=init,
            kernel=kernel,
            g=float(d.get("g", 0.0)),
            rho0=float(d.get("rho0", 1.0)),
            coupling_csv=d.get("coupling_csv"),
            c_T=float(d["c_T"]) if "c_T" in d else None,
            mode=d.get("mode", "direct"),
            oracle_dt=float(d["oracle_dt"]) if "oracle_dt" in d else None,
            record_stride=int(d.get("record_stride", 0)),
            basic_c=int(d.get("basic_c", 1)),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad config: {exc}") from exc
    # referenced files are resolved against the config location and must
    # exist at load time
    def resolve(ref):
        if ref is None:
            return None
        path = ref if os.path.isabs(ref) else os.path.join(base_dir, ref)
        if not os.path.exists(path):
            raise ConfigError(f"referenced file does not exist: {ref}")
        return path

    coupling_path = resolve(cfg.coupling_csv)
    state_path = resolve(cfg.initial_state.path)
    if coupling_path != cfg.coupling_csv:
        cfg = replace(cfg, coupling_csv=coupling_path)
    if state_path != cfg.initial_state.path:
        cfg = replace(cfg, initial_state=replace(cfg.initial_state, path=state_path))
    return cfg


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(data, base_dir=os.path.dirname(os.path.abspath(path)))


def build_coupling(cfg: ExperimentConfig) -> CouplingMatrix:
    if cfg.problem == "hartree":
        return problems.hartree_coupling(cfg.kernel, cfg.grid)
    if cfg.problem == "gross-pitaevskii":
        return problems.gross_pitaevskii_coupling(cfg.g, cfg.grid)
    if cfg.problem == "navier-stokes":
        return problems.navier_stokes_coupling(cfg.rho0, cfg.grid)
    path = cfg.coupling_csv
    return problems.coupling_from_triplet_csv(path, cfg.grid.size)


def build_problem(cfg: ExperimentConfig) -> tuple[CouplingMatrix, statevec.Register]:
    """Coupling and initial register of a config.

    The builders validate the physics and the referenced files (a kernel
    table shorter than the grid, a non-positive rho0, a state file of the
    wrong size or unreadable), so their ValueError or OSError is a config
    error like any other.
    """
    try:
        f = build_coupling(cfg)
        r0 = statevec.init_from_amplitudes(build_initial_amplitudes(cfg))
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc
    return f, r0


def build_initial_amplitudes(cfg: ExperimentConfig) -> np.ndarray:
    spec = cfg.initial_state
    grid = cfg.grid
    if spec.preset == "gaussian":
        center = tuple(spec.center) if isinstance(spec.center, list) else spec.center
        sigma = tuple(spec.sigma) if isinstance(spec.sigma, list) else spec.sigma
        kappa = tuple(spec.kappa) if isinstance(spec.kappa, list) else spec.kappa
        return problems.gaussian_packet(grid, center, sigma, kappa)
    if spec.preset == "uniform":
        return problems.uniform_amplitudes(grid)
    if spec.preset == "basis":
        return problems.basis_amplitudes(grid, spec.k)
    if spec.preset == "plane-wave":
        return problems.plane_wave_amplitudes(grid, spec.mode)
    state = oracle.field_from_csv(spec.path, grid)
    return state.to_amplitudes()


def build_oracle_potential(cfg: ExperimentConfig, f: CouplingMatrix):
    """Reference-solver potential rule: convolution when a kernel defines the
    physics, coupling-matrix route otherwise."""
    if cfg.problem == "hartree":
        return oracle.kernel_potential(cfg.kernel, cfg.grid)
    return oracle.coupling_potential(f, cfg.grid)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_simulate(cfg: ExperimentConfig, out_dir: str) -> dict:
    f, r0 = build_problem(cfg)
    spec = KineticSpec(cfg.kinetic_prefactor, cfg.grid)
    stride = cfg.record_stride
    result = evolution.evolve(
        r0, f, spec, cfg.t, cfg.eps,
        mode=cfg.mode, record_stride=stride, basic_c=cfg.basic_c,
    )
    if not result.snapshots:
        result.snapshots = [
            evolution.Snapshot(0, 0.0, r0.amps.copy()),
            evolution.Snapshot(
                result.tally.n_steps, result.tally.n_steps * cfg.eps,
                result.final.amps.copy(),
            ),
        ]
    os.makedirs(out_dir, exist_ok=True)
    traj_path = os.path.join(out_dir, "trajectory.csv")
    evolution.write_trajectory_csv(traj_path, result.snapshots)
    summary = evolution.summary_dict(
        result, cfg.grid, f, cfg.kinetic_prefactor,
        extra={"config": config_to_dict(cfg)},
    )
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    return summary


def run_compare(cfg: ExperimentConfig, out_dir: str, halvings: int = 0) -> dict:
    if halvings < 0:
        raise ConfigError(f"halvings must be >= 0, got {halvings}")
    if halvings and evolution.n_steps_for(cfg.t, cfg.eps) == 0:
        # every row must take a step: a zero-step row has zero error and
        # the ratio over it would divide by zero
        raise ConfigError(f"halvings need t >= eps, got t {cfg.t}, eps {cfg.eps}")
    f, r0 = build_problem(cfg)
    spec = KineticSpec(cfg.kinetic_prefactor, cfg.grid)
    rule = build_oracle_potential(cfg, f)
    phi0 = FieldState.from_amplitudes(r0.ancilla0.copy(), cfg.grid)

    def one_comparison(eps: float) -> dict:
        n_steps = evolution.n_steps_for(cfg.t, eps)
        t_run = n_steps * eps  # both paths integrate to the same final time
        result = evolution.evolve(r0, f, spec, t_run, eps, mode=cfg.mode)
        dt = eps / 20.0 if cfg.oracle_dt is None else cfg.oracle_dt
        ref = oracle.split_step_solve(phi0, rule, cfg.kinetic_prefactor, t_run, dt)
        ref_amps = ref.to_amplitudes()
        quantum = result.final.ancilla0.copy()
        ov = np.vdot(ref_amps, quantum)
        fid = float(abs(ov))
        l2 = float(np.linalg.norm(quantum * np.exp(-1j * np.angle(ov)) - ref_amps))
        dens_err = float(
            np.max(np.abs(np.abs(quantum) ** 2 - np.abs(ref_amps) ** 2))
        )
        return {
            "eps": eps,
            "n_steps": n_steps,
            "fidelity": fid,
            "infidelity": 1.0 - fid,
            "l2_error": l2,
            "max_density_error": dens_err,
            "norm_drift": result.norm_drift,
        }

    rows = [one_comparison(cfg.eps)]
    for i in range(1, halvings + 1):
        rows.append(one_comparison(cfg.eps / 2**i))
    for i in range(len(rows) - 1):
        nxt = rows[i + 1]
        rows[i]["l2_ratio"] = rows[i]["l2_error"] / nxt["l2_error"]
        rows[i]["infidelity_ratio"] = rows[i]["infidelity"] / nxt["infidelity"]
    report = {"config": config_to_dict(cfg), "comparisons": rows}
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "compare.json"), report)
    if halvings:
        with open(os.path.join(out_dir, "convergence.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["eps", "n_steps", "infidelity", "l2_error", "l2_ratio"]
            )
            for row in rows:
                writer.writerow(
                    [
                        repr(row["eps"]),
                        row["n_steps"],
                        repr(row["infidelity"]),
                        repr(row["l2_error"]),
                        repr(row.get("l2_ratio", "")),
                    ]
                )
    return report


def run_resources(
    n_min: int,
    n_max: int,
    n_steps: int,
    basic_c: int,
    out_dir: str,
    instrument: bool = False,
) -> dict:
    if not 1 <= n_min <= n_max:
        raise ConfigError(f"need 1 <= n-min <= n-max, got n-min {n_min}, n-max {n_max}")
    if n_steps < 0:
        raise ConfigError(f"steps must be >= 0, got {n_steps}")
    if basic_c < 1:
        raise ConfigError(f"basic-c must be >= 1, got {basic_c}")
    rows = []
    for n in range(n_min, n_max + 1):
        tally = nlcompiler.estimate_resources(n, n_steps, basic_c=basic_c)
        singles, pairs = nlcompiler.dense_sparsity(n)
        rows.append(
            {
                "n": n,
                "grid_points": 2**n,
                "singles": singles,
                "pairs": pairs,
                "mcx_per_step": tally.per_step.mcx,
                "nonlinear_per_step": tally.per_step.nonlinear,
                "ancilla_phase_per_step": tally.per_step.ancilla_phase,
                "basic_per_step": tally.basic_per_step,
                "mcx_total": tally.mcx_count,
                "nonlinear_total": tally.nonlinear_count,
                "basic_total": tally.basic_gate_count,
            }
        )
    report = {"n_steps": n_steps, "basic_c": basic_c, "rows": rows}
    if instrument:
        # execute a dense compiled step at the smallest size and check that
        # the measured counts reproduce the closed form exactly
        n = n_min
        rng = np.random.default_rng(0)
        dim = 2**n
        mat = rng.normal(size=(dim, dim))
        f = CouplingMatrix((mat + mat.T) / 2.0)
        seq = nlcompiler.compile_w(f, 0.1)
        r = statevec.uniform_state(n)
        _, counts = nlcompiler.execute_counted(seq, r)
        expected = nlcompiler.estimate_resources(n, 1, basic_c=basic_c).per_step
        report["instrumented"] = {
            "n": n,
            "measured": {
                "mcx": counts.mcx,
                "nonlinear": counts.nonlinear,
                "ancilla_phase": counts.ancilla_phase,
            },
            "matches_closed_form": counts == expected,
        }
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "resources.json"), report)
    with open(os.path.join(out_dir, "resources.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow(row.values())
    return report


def run_bec(
    out_dir: str,
    grid_points: int = 128,
    extent: float = 20.0,
    weight: float = 0.36,
    g11: float = 1.0,
    g22: float = 1.0,
    g12: float = 0.5,
    t: float = 0.1,
    dt: float = 1e-4,
    sweep: int = 3,
) -> dict:
    grid = GridSpec(points=(grid_points,), dx=extent / grid_points, x0=-extent / 2)
    x = grid.coords(0)
    trap = 0.5 * x**2
    ground = oracle.imaginary_time_ground_state(trap, 0.0, grid, c_T=0.5)
    rows = []
    for i in range(sweep):
        scale = 1.0 / 2**i
        state = TwoModeState(
            phi1=ground.state,
            phi2=ground.state,
            alpha=complex(np.sqrt(weight)),
            beta=complex(np.sqrt(1.0 - weight)),
            g11=g11 * scale,
            g22=g22 * scale,
            g12=g12 * scale,
            V=trap,
        )
        check = oracle.bec_phase_check(state, t, dt)
        rows.append(
            {
                "coupling_scale": scale,
                "measured_relative": check.measured_relative,
                "predicted_relative": check.predicted_relative,
                "deviation": check.deviation,
            }
        )
    report = {
        "trap": "harmonic, unit frequency",
        "weight": weight,
        "g11": g11,
        "g22": g22,
        "g12": g12,
        "t": t,
        "dt": dt,
        "rows": rows,
    }
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "bec.json"), report)
    with open(os.path.join(out_dir, "bec.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["coupling_scale", "measured_relative", "predicted_relative", "deviation"])
        for row in rows:
            writer.writerow([repr(row[k]) for k in
                             ("coupling_scale", "measured_relative", "predicted_relative", "deviation")])
    return report


def _apply_overrides(cfg: ExperimentConfig, args) -> ExperimentConfig:
    updates = {}
    if args.eps is not None:
        updates["eps"] = args.eps
    if args.steps is not None:
        eps = updates.get("eps", cfg.eps)
        updates["t"] = args.steps * eps
    if args.mode is not None:
        updates["mode"] = args.mode
    return replace(cfg, **updates) if updates else cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlqsim",
        description="nonlinear-ancilla simulator and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--eps", type=float, default=None, help="override step size")
        p.add_argument("--steps", type=int, default=None,
                       help="override step count (sets t = steps * eps)")
        p.add_argument("--mode", choices=evolution.MODES, default=None)

    add_common(sub.add_parser("simulate", help="run the gate-level evolution"))
    p_cmp = sub.add_parser("compare", help="gate-level run vs classical reference")
    add_common(p_cmp)
    p_cmp.add_argument("--halvings", type=int, default=0,
                       help="extra runs at eps/2, eps/4, ... with ratio table")

    p_res = sub.add_parser("resources", help="gate-count table")
    p_res.add_argument("--n-min", type=int, default=1)
    p_res.add_argument("--n-max", type=int, default=6)
    p_res.add_argument("--steps", type=int, default=1)
    p_res.add_argument("--basic-c", type=int, default=1,
                       help="basic gates per controlled flip = c * n^2")
    p_res.add_argument("--instrument", action="store_true",
                       help="cross-check counts by executing a compiled step")
    p_res.add_argument("--out", default=".")

    p_bec = sub.add_parser("bec", help="two-mode condensate phase-map sweep")
    p_bec.add_argument("--out", default=".")
    p_bec.add_argument("--grid-points", type=int, default=128)
    p_bec.add_argument("--weight", type=float, default=0.36,
                       help="|alpha|^2 of the first mode")
    p_bec.add_argument("--g11", type=float, default=1.0)
    p_bec.add_argument("--g22", type=float, default=1.0)
    p_bec.add_argument("--g12", type=float, default=0.5)
    p_bec.add_argument("--t", type=float, default=0.1)
    p_bec.add_argument("--dt", type=float, default=1e-4)
    p_bec.add_argument("--sweep", type=int, default=3)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            cfg = _apply_overrides(load_config(args.config), args)
            run_simulate(cfg, args.out)
        elif args.command == "compare":
            cfg = _apply_overrides(load_config(args.config), args)
            run_compare(cfg, args.out, halvings=args.halvings)
        elif args.command == "resources":
            run_resources(
                args.n_min, args.n_max, args.steps, args.basic_c,
                args.out, instrument=args.instrument,
            )
        elif args.command == "bec":
            run_bec(
                args.out,
                grid_points=args.grid_points,
                weight=args.weight,
                g11=args.g11, g22=args.g22, g12=args.g12,
                t=args.t, dt=args.dt, sweep=args.sweep,
            )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
