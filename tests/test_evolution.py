import csv

import numpy as np
import pytest

from nlqsim import evolution, nlcompiler, oracle, statevec
from nlqsim.evolution import (
    KineticSpec,
    SimulationError,
    Snapshot,
    apply_kinetic,
    evolve,
    kinetic_phases,
    n_steps_for,
    observables,
    trotter_step,
    write_trajectory_csv,
)
from nlqsim.nlcompiler import CouplingMatrix, compile_w, estimate_resources
from nlqsim.problems import (
    GridSpec,
    KernelSpec,
    gaussian_packet,
    hartree_coupling,
    navier_stokes_coupling,
)
from nlqsim.statevec import fidelity, init_from_amplitudes

from conftest import random_coupling, random_register


@pytest.fixture
def grid():
    return GridSpec(points=(16,), dx=0.5, x0=-4.0)


@pytest.fixture
def spec(grid):
    return KineticSpec(1.0, grid)


class TestKineticPhases:
    def test_zero_momentum_zero_phase(self, spec):
        assert kinetic_phases(spec, 0.3)[0] == 0.0

    def test_zero_step_all_zero(self, spec):
        assert np.all(kinetic_phases(spec, 0.0) == 0.0)

    def test_wrapped_ladder(self):
        grid = GridSpec(points=(4,), dx=1.0)
        psq = KineticSpec(1.0, grid).momentum_sq()
        base = 2 * np.pi / 4
        assert psq == pytest.approx([0.0, base**2, (2 * base) ** 2, base**2])

    def test_plane_wave_dispersion(self):
        """A plane wave picks up exactly exp(-i*eps*c_T*kappa^2) per step."""
        grid = GridSpec(points=(16,), dx=0.5)
        spec = KineticSpec(1.0, grid)
        mode = 3
        kappa = 2 * np.pi * mode / (16 * 0.5)
        a = np.exp(2j * np.pi * mode * np.arange(16) / 16)
        r = init_from_amplitudes(a)
        eps = 0.07
        apply_kinetic(r, spec, eps)
        expected = init_from_amplitudes(a * np.exp(-1j * eps * kappa**2))
        assert np.max(np.abs(r.amps - expected.amps)) < 1e-12

    def test_2d_ladder_adds(self):
        grid = GridSpec(points=(4, 4), dx=1.0)
        psq = KineticSpec(1.0, grid).momentum_sq()
        base = (2 * np.pi / 4) ** 2
        assert psq[0] == 0.0
        assert psq[1] == pytest.approx(base)       # (0, 1)
        assert psq[4] == pytest.approx(base)       # (1, 0)
        assert psq[5] == pytest.approx(2 * base)   # (1, 1)


class TestKineticPropagator:
    def test_factors_of_the_phases(self, spec):
        factors = spec.propagator(0.1)
        assert np.array_equal(factors, np.exp(1j * kinetic_phases(spec, 0.1)))
        assert not factors.flags.writeable
        assert spec.propagator(0.1) is factors
        assert spec == KineticSpec(spec.c_T, spec.grid)

    def test_non_finite_factors_are_a_simulation_error(self, grid):
        # eps * c_T * p^2 overflows to inf, whose phase factor is NaN
        with np.errstate(all="ignore"), pytest.raises(SimulationError, match="kinetic"):
            KineticSpec(1e308, grid).propagator(0.1)

    def test_built_once_per_run(self, grid, spec, rng, monkeypatch):
        calls = []
        phases = evolution.kinetic_phases

        def counting(*args):
            calls.append(args)
            return phases(*args)

        monkeypatch.setattr(evolution, "kinetic_phases", counting)
        evolve(random_register(rng, 4), CouplingMatrix.zeros(16), spec, 1.0, 0.1)
        assert calls == [(spec, 0.1)]

    def test_matches_per_step_phases(self, grid, spec, rng):
        # the kinetic step with cached factors equals transform, exp of the
        # phases, inverse transform
        r = random_register(rng, 4)
        expected = r.copy()
        statevec.dft_principal(expected)
        statevec.apply_principal_diagonal(expected, kinetic_phases(spec, 0.05))
        statevec.dft_principal(expected, inverse=True)
        apply_kinetic(r, spec, 0.05)
        assert np.array_equal(r.amps, expected.amps)


class TestTracerSeams:
    """evolve reaches each layer through its module attribute, once per step,
    so a wrapper installed on that attribute (as the benchmark's per-layer
    tracer does) sees every call."""

    SEAMS = [
        (nlcompiler, "apply_w_direct"),
        (nlcompiler, "execute"),
        (evolution, "apply_kinetic"),
        (statevec, "dft_principal"),
        (statevec, "apply_mcx_k"),
        (statevec, "apply_nonlinear"),
        (statevec, "apply_ancilla_phase"),
    ]

    @pytest.mark.parametrize("mode", evolution.MODES)
    def test_each_seam_called_per_step(self, grid, spec, rng, monkeypatch, mode):
        counts = {}
        for module, name in self.SEAMS:
            key = f"{module.__name__.split('.')[-1]}.{name}"
            counts[key] = 0

            def wrapper(*args, _fn=getattr(module, name), _key=key, **kwargs):
                counts[_key] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
        steps = 7
        result = evolve(random_register(rng, 4), random_coupling(rng, 4, scale=0.3), spec,
                        steps * 0.05, 0.05, mode=mode)
        # the gate primitives run only in compiled mode, each as often as the tally says
        gates = steps if mode == "compiled" else 0
        per_step = result.tally.per_step
        assert counts == {
            "nlcompiler.apply_w_direct": steps if mode == "direct" else 0,
            "nlcompiler.execute": steps if mode == "compiled" else 0,
            "evolution.apply_kinetic": steps,
            "statevec.dft_principal": 2 * steps,
            "statevec.apply_mcx_k": gates * per_step.mcx,
            "statevec.apply_nonlinear": gates * per_step.nonlinear,
            "statevec.apply_ancilla_phase": gates * per_step.ancilla_phase,
        }


class TestTrotterStep:
    def test_free_particle_matches_analytic(self, grid, spec):
        mode = 2
        kappa = 2 * np.pi * mode / (16 * 0.5)
        a = np.exp(-1j * kappa * grid.coords(0))
        r = init_from_amplitudes(a)
        f = CouplingMatrix.zeros(16)
        for _ in range(5):
            trotter_step(r, f, spec, 0.05)
        expected = init_from_amplitudes(a * np.exp(-1j * 0.25 * kappa**2))
        assert fidelity(r, expected) > 1 - 1e-12

    def test_zero_kinetic_diagonal_flow(self, grid, rng):
        """With c_T = 0 and diagonal coupling, each weight is frozen and the
        phases advance by exactly -eps*f_kk*|a_k|^2 per step."""
        spec0 = KineticSpec(0.0, grid)
        diag = rng.normal(size=16)
        f = CouplingMatrix.from_dense(np.diag(diag))
        r = random_register(rng, 4)
        dens0 = np.abs(r.ancilla0) ** 2
        r2 = r.copy()
        for _ in range(3):
            trotter_step(r2, f, spec0, 0.1)
        assert np.abs(np.abs(r2.ancilla0) ** 2 - dens0).max() < 1e-14
        expected = r.ancilla0 * np.exp(-1j * 3 * 0.1 * diag * dens0)
        assert np.max(np.abs(r2.ancilla0 - expected)) < 1e-12

    def test_compiled_matches_direct(self, grid, spec, rng):
        f = random_coupling(rng, 4, scale=0.5)
        r = random_register(rng, 4)
        direct = trotter_step(r.copy(), f, spec, 0.08)
        compiled = trotter_step(r.copy(), f, spec, 0.08, sequence=compile_w(f, 0.08))
        assert fidelity(direct, compiled) > 1 - 1e-12

    def test_ancilla_clean_after_step(self, grid, spec, rng):
        f = random_coupling(rng, 4)
        r = trotter_step(random_register(rng, 4), f, spec, 0.05, sequence=compile_w(f, 0.05))
        assert r.ancilla_is_clean()


class TestEvolve:
    def test_zero_time_identity(self, grid, spec, rng):
        r0 = random_register(rng, 4)
        result = evolve(r0, CouplingMatrix.zeros(16), spec, 0.0, 0.1)
        assert np.array_equal(result.final.amps, r0.amps)
        assert result.tally.n_steps == 0
        assert result.tally.nonlinear_count == 0

    def test_step_count_floor(self):
        assert n_steps_for(1.6, 0.08) == 20
        assert n_steps_for(1.0, 0.3) == 3
        assert n_steps_for(0.0, 0.1) == 0

    def test_input_register_untouched(self, grid, spec, rng):
        r0 = random_register(rng, 4)
        before = r0.amps.copy()
        evolve(r0, random_coupling(rng, 4), spec, 0.5, 0.1)
        assert np.array_equal(r0.amps, before)

    def test_tally_matches_estimate(self, grid, spec, rng):
        f = random_coupling(rng, 4)
        result = evolve(random_register(rng, 4), f, spec, 1.0, 0.1, mode="compiled")
        singles, pairs = nlcompiler.gammas_from_coupling(f, 0.1).sparsity()
        expected = estimate_resources(4, 10, singles=singles, pairs=pairs)
        assert result.tally.per_step == expected.per_step
        assert result.tally.total == expected.total
        assert result.tally.n_steps == 10

    def test_direct_mode_builds_no_gate_list(self, grid, spec, rng, monkeypatch):
        def no_compile(*args, **kwargs):
            raise AssertionError("direct mode compiled a gate sequence")

        monkeypatch.setattr(nlcompiler, "compile_w", no_compile)
        f = random_coupling(rng, 4)
        result = evolve(random_register(rng, 4), f, spec, 1.0, 0.1, mode="direct")
        singles, pairs = nlcompiler.gammas_from_coupling(f, 0.1).sparsity()
        assert result.tally == estimate_resources(4, 10, singles=singles, pairs=pairs)

    def test_mode_equivalence(self, grid, spec, rng):
        f = random_coupling(rng, 4, scale=0.3)
        r0 = random_register(rng, 4)
        direct = evolve(r0, f, spec, 2.0, 0.02, mode="direct")
        compiled = evolve(r0, f, spec, 2.0, 0.02, mode="compiled")
        assert fidelity(direct.final, compiled.final) >= 1 - 1e-9

    def test_norm_conservation_long_run(self, rng):
        grid = GridSpec(points=(64,), dx=0.25, x0=-8.0)
        spec = KineticSpec(1.0, grid)
        f = hartree_coupling(KernelSpec.gaussian(1.0, 2.0), grid)
        r0 = init_from_amplitudes(gaussian_packet(grid, 0.0, 1.0, 0.5))
        result = evolve(r0, f, spec, 100.0, 0.01)
        assert result.tally.n_steps == 10**4
        assert result.norm_drift < 1e-10

    def test_snapshots(self, grid, spec, rng):
        r0 = random_register(rng, 4)
        result = evolve(r0, CouplingMatrix.zeros(16), spec, 1.0, 0.1, record_stride=4)
        steps = [s.step for s in result.snapshots]
        assert steps == [0, 4, 8, 10]
        assert result.snapshots[-1].time == pytest.approx(1.0)

    def test_plan_validation(self, spec, rng):
        r0 = random_register(rng, 4)
        f = CouplingMatrix.zeros(16)
        with pytest.raises(ValueError, match="step size"):
            evolve(r0, f, spec, 0.5, -0.1)
        with pytest.raises(ValueError, match="time"):
            evolve(r0, f, spec, -0.5, 0.1)
        # the mode is checked also when the run takes no step
        for t in (0.5, 0.0):
            with pytest.raises(ValueError, match="mode"):
                evolve(r0, f, spec, t, 0.1, mode="magic")

    def test_non_finite_angle_is_a_simulation_error(self, spec, rng):
        # each entry is finite, but eps * f overflows
        f = CouplingMatrix.from_dense(np.full((16, 16), 1e308))
        with np.errstate(all="ignore"), pytest.raises(SimulationError, match="rotation angle"):
            evolve(random_register(rng, 4), f, spec, 8.0, 8.0)


class TestFirstOrderAccuracy:
    def test_l2_error_halves_with_eps(self):
        """State error against a converged reference is first order in eps."""
        grid = GridSpec(points=(32,), dx=0.5, x0=-8.0)
        spec = KineticSpec(1.0, grid)
        kernel = KernelSpec.gaussian(1.0, 2.0)
        f = hartree_coupling(kernel, grid)
        a0 = gaussian_packet(grid, center=-1.0, sigma=1.0, kappa=0.6)
        r0 = init_from_amplitudes(a0)
        phi0 = oracle.FieldState.from_amplitudes(r0.ancilla0.copy(), grid)
        rule = oracle.kernel_potential(kernel, grid)
        t = 1.0
        errs = []
        for eps in (0.05, 0.025, 0.0125):
            result = evolve(r0, f, spec, t, eps)
            ref = oracle.split_step_solve(phi0, rule, 1.0, t, eps / 20)
            ref_amps = ref.to_amplitudes()
            out = result.final.ancilla0
            ov = np.vdot(ref_amps, out)
            errs.append(np.linalg.norm(out * np.exp(-1j * np.angle(ov)) - ref_amps))
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        for ratio in ratios:
            assert 1.6 <= ratio <= 2.6

    def test_energy_drift_shrinks_with_eps(self):
        grid = GridSpec(points=(32,), dx=0.5, x0=-8.0)
        spec = KineticSpec(1.0, grid)
        f = hartree_coupling(KernelSpec.gaussian(1.0, 2.0), grid)
        r0 = init_from_amplitudes(gaussian_packet(grid, -1.0, 1.0, 0.6))
        e0 = observables(r0, grid, f, c_T=1.0).energy
        drifts = []
        for eps in (0.05, 0.025):
            result = evolve(r0, f, spec, 1.0, eps)
            e1 = observables(result.final, grid, f, c_T=1.0).energy
            drifts.append(abs(e1 - e0))
        assert 1.6 <= drifts[0] / drifts[1] <= 2.6


class TestTwoDimensional:
    def test_uniform_state_stationary_under_stencil(self):
        """Full 2-d pipeline: 8x8 grid, quantum-pressure stencil, compiled
        gates. The uniform state is a zero-momentum eigenstate and feels no
        net potential, so it stays put."""
        grid = GridSpec(points=(8, 8), dx=1.0)
        f = navier_stokes_coupling(1.0 / 64.0, grid)
        spec = KineticSpec(0.5, grid)
        r0 = init_from_amplitudes(np.ones(64))
        result = evolve(r0, f, spec, 1.0, 0.05, mode="compiled")
        assert fidelity(r0, result.final) > 1 - 1e-12

    def test_2d_packet_spreads_symmetrically(self):
        grid = GridSpec(points=(8, 8), dx=1.0, x0=-4.0)
        spec = KineticSpec(0.5, grid)
        a0 = gaussian_packet(grid, center=0.0, sigma=1.0)
        r0 = init_from_amplitudes(a0)
        result = evolve(r0, nlcompiler.CouplingMatrix.zeros(64), spec, 2.0, 0.05)
        dens = result.final.principal_probabilities().reshape(8, 8)
        assert np.allclose(dens, dens.T, atol=1e-12)  # axis symmetry preserved


class TestObservables:
    def test_uniform_zero_momentum_state(self, grid):
        r = statevec.uniform_state(4)
        obs = observables(r, grid, CouplingMatrix.zeros(16), c_T=1.0)
        assert obs.energy == pytest.approx(0.0, abs=1e-14)
        assert obs.momentum_density[0] == pytest.approx(1.0)

    def test_basis_state_energy(self, grid):
        """Kinetic spread of a position eigenstate plus half the self-coupling."""
        f = np.zeros((16, 16))
        f[3, 3] = 2.0
        r = statevec.basis_state(4, 3)
        obs = observables(r, grid, CouplingMatrix.from_dense(f), c_T=1.0)
        psq = KineticSpec(1.0, grid).momentum_sq()
        kinetic_spread = np.mean(psq)  # flat momentum distribution
        assert obs.energy == pytest.approx(kinetic_spread + 0.5 * 2.0)

    def test_density_sums_to_one(self, grid, rng):
        obs = observables(random_register(rng, 4), grid, CouplingMatrix.zeros(16))
        assert np.sum(obs.density) == pytest.approx(1.0)
        assert np.sum(obs.momentum_density) == pytest.approx(1.0)


class TestTrajectoryExport:
    def test_csv_columns(self, tmp_path, grid, spec, rng):
        r0 = random_register(rng, 4)
        result = evolve(r0, CouplingMatrix.zeros(16), spec, 0.3, 0.1, record_stride=1)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, result.snapshots)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,time,k,re,im"
        assert len(lines) == 1 + 16 * len(result.snapshots)

    def test_fields_are_plain_numbers(self, tmp_path, grid, spec, rng):
        f = random_coupling(rng, 4)
        result = evolve(random_register(rng, 4), f, spec, 0.3, 0.1, record_stride=1)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, result.snapshots)
        for line in path.read_text().splitlines()[1:]:
            for field in line.split(","):
                float(field)

    @staticmethod
    def csv_writer_reference(path, snapshots):
        """The row format written by a plain csv.writer, one row at a time."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "time", "k", "re", "im"])
            for snap in snapshots:
                a0 = snap.amps[0::2]
                for k in range(a0.shape[0]):
                    row = [repr(float(a0[k].real)), repr(float(a0[k].imag))]
                    writer.writerow([snap.step, repr(snap.time), k, *row])

    def test_bytes_match_csv_writer(self, tmp_path, rng):
        special = np.array([-0.0, 0.0, 1e-300, -2.5e-310, 1.7e150, -3.3e-5, 1.0, 123456.789])
        amps = np.empty(16, dtype=complex)
        amps[0::2] = special + 1j * special[::-1]
        amps[1::2] = 0.0
        snapshots = [
            Snapshot(0, 0.0, amps),
            Snapshot(3, 3 * 0.1, rng.normal(size=16) + 1j * rng.normal(size=16)),
            Snapshot(12, 12 * 0.1, amps[::-1].copy()),
        ]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_trajectory_csv(got, snapshots)
        self.csv_writer_reference(want, snapshots)
        assert got.read_bytes() == want.read_bytes()
        assert b"\r\n" in got.read_bytes()
