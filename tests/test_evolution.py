import csv
import errno
import json
import os
import tracemalloc

import numpy as np
import pytest

from nlqsim import cli, evolution, nlcompiler, oracle, statevec
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
from nlqsim.nlcompiler import CouplingMatrix, GateSequence, compile_w, estimate_resources
from nlqsim.problems import (
    GridSpec,
    KernelSpec,
    gaussian_packet,
    hartree_coupling,
    navier_stokes_coupling,
    plane_wave_amplitudes,
)
from nlqsim.statevec import clean_register, init_from_amplitudes

from conftest import random_coupling, random_register, random_state
from support import basis_state, fidelity, leak_norm, stencil_config_dict, zero_coupling


@pytest.fixture
def grid():
    return GridSpec(points=(16,), dx=0.5, x0=-4.0)


@pytest.fixture
def spec(grid):
    return KineticSpec(1.0, grid)


@pytest.fixture
def fft_spec():
    """A grid past KINETIC_MATRIX_MAX_POINTS: the kinetic step transforms."""
    return KineticSpec(1.0, GridSpec(points=(512,), dx=0.05, x0=-12.8))


def count_axis_builds(monkeypatch):
    """The arguments of every per-axis unitary build, recorded as they happen."""
    calls = []
    build = evolution.axis_unitary

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(evolution, "axis_unitary", counting)
    return calls


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
        psi = init_from_amplitudes(a)
        eps = 0.07
        apply_kinetic(psi, spec, eps)
        expected = init_from_amplitudes(a * np.exp(-1j * eps * kappa**2))
        assert np.max(np.abs(psi - expected)) < 1e-12

    def test_2d_ladder_adds(self):
        grid = GridSpec(points=(4, 4), dx=1.0)
        psq = KineticSpec(1.0, grid).momentum_sq()
        base = (2 * np.pi / 4) ** 2
        assert psq[0] == 0.0
        assert psq[1] == pytest.approx(base)       # (0, 1)
        assert psq[4] == pytest.approx(base)       # (1, 0)
        assert psq[5] == pytest.approx(2 * base)   # (1, 1)


class TestKineticPropagator:
    def test_factors_of_the_phases(self, fft_spec):
        factors = fft_spec.operator(0.1)
        assert np.array_equal(factors, np.exp(1j * kinetic_phases(fft_spec, 0.1)))
        assert not factors.flags.writeable
        assert fft_spec.operator(0.1) is factors
        assert fft_spec == KineticSpec(fft_spec.c_T, fft_spec.grid)

    def test_non_finite_factors_are_a_simulation_error(self, grid):
        # eps * c_T * p^2 overflows to inf, whose phase factor is NaN
        with np.errstate(all="ignore"), pytest.raises(SimulationError, match="kinetic"):
            KineticSpec(1e308, grid).operator(0.1)

    def test_built_once_per_run(self, grid, spec, rng, monkeypatch):
        # the 16-site grid takes the per-axis route: one matrix for its axis
        calls = count_axis_builds(monkeypatch)
        evolve(random_state(rng, 4), zero_coupling(16), spec, n_steps_for(1.0, 0.1), 0.1)
        assert [args[1:] for args in calls] == [(1.0, 0.1)]
        assert np.array_equal(calls[0][0], spec.momentum_sq())

    def test_built_once_per_axis_2d(self, rng, monkeypatch):
        calls = count_axis_builds(monkeypatch)
        spec = KineticSpec(0.5, GridSpec(points=(4, 8), dx=0.5))
        evolve(random_state(rng, 5), zero_coupling(32), spec, n_steps_for(1.0, 0.1), 0.1)
        assert [(args[0].size,) + args[1:] for args in calls] == [(4, 0.5, 0.1), (8, 0.5, 0.1)]

    def test_keeps_the_latest_step_size(self, spec, monkeypatch):
        # a step-halving comparison runs each step size once, so only the
        # latest step size's matrices are kept
        calls = count_axis_builds(monkeypatch)
        first = spec.operator(0.05)
        assert spec.operator(0.05) is first
        spec.operator(0.1)
        again = spec.operator(0.05)
        assert [args[2] for args in calls] == [0.05, 0.1, 0.05]
        assert np.array_equal(again[0], first[0])

    @pytest.mark.parametrize("route", ["axes", "dft"])
    def test_one_operator_on_both_routes(self, spec, fft_spec, route):
        # one cache serves both routes and keeps only the latest step size
        spec = spec if route == "axes" else fft_spec
        first = spec.operator(0.1)
        spec.operator(0.05)
        again = spec.operator(0.1)
        assert len(spec._operator) == 1
        assert again is not first
        assert isinstance(again, tuple) == (route == "axes")
        assert np.array_equal(np.asarray(again), np.asarray(first))

    def test_factors_built_once_on_fft_grid(self, fft_spec, rng, monkeypatch):
        calls = []
        phases = evolution.kinetic_phases

        def counting(*args):
            calls.append(args)
            return phases(*args)

        monkeypatch.setattr(evolution, "kinetic_phases", counting)
        evolve(random_state(rng, 9), zero_coupling(512), fft_spec,
               n_steps_for(0.3, 0.1), 0.1)
        assert calls == [(fft_spec, 0.1)]

    def test_matches_per_step_phases(self, fft_spec, rng):
        # on a grid past the per-axis threshold, the kinetic step with cached
        # factors equals transform, exp of the phases, inverse transform
        psi = random_state(rng, 9)
        expected = psi.copy()
        statevec.dft_principal(expected)
        statevec.apply_principal_diagonal(expected, kinetic_phases(fft_spec, 0.05))
        statevec.dft_principal(expected, inverse=True)
        apply_kinetic(psi, fft_spec, 0.05)
        assert np.array_equal(psi, expected)


class TestPerAxisRoute:
    """On small grids apply_kinetic multiplies by one circulant unitary per
    axis; the transform route stays the reference it must agree with."""

    POINTS = [(m,) for m in (2, 4, 8, 16, 32, 64, 128, 256)] + [
        (2, 2), (2, 8), (8, 2), (16, 16), (128, 128),
    ]

    @staticmethod
    def register(rng, size, live_ancilla):
        r = statevec.Register(int(size).bit_length() - 1, np.zeros(2 * size))
        r.ancilla0[:] = rng.normal(size=size) + 1j * rng.normal(size=size)
        if live_ancilla:
            r.ancilla1[:] = rng.normal(size=size) + 1j * rng.normal(size=size)
        r.amps /= np.linalg.norm(r.amps)
        return r

    @pytest.mark.parametrize(
        "points, route",
        [((256,), "axes"), ((128, 128), "axes"), ((512,), "dft"), ((2, 256), "dft")],
    )
    def test_route_follows_the_axis_sum(self, monkeypatch, points, route):
        calls = []
        monkeypatch.setattr(statevec, "dft_principal", lambda r, **kw: calls.append("dft") or r)
        monkeypatch.setattr(statevec, "apply_principal_axes", lambda r, m: calls.append("axes") or r)
        spec = KineticSpec(1.0, GridSpec(points=points, dx=0.1))
        apply_kinetic(init_from_amplitudes(np.ones(spec.grid.size)), spec, 0.01)
        assert calls == (["axes"] if route == "axes" else ["dft", "dft"])

    @pytest.mark.parametrize("points", POINTS)
    @pytest.mark.parametrize("live_ancilla", [False, True])
    def test_routes_agree_after_100_steps(self, rng, monkeypatch, points, live_ancilla):
        # each route maps the ancilla-|0> branch view in place, as in a
        # compiled run, and leaves the other half of the register as it was
        spec = KineticSpec(0.7, GridSpec(points=points, dx=0.3))
        r = self.register(rng, spec.grid.size, live_ancilla)
        expected = r.copy()
        for _ in range(100):
            apply_kinetic(r.ancilla0, spec, 0.01)
        monkeypatch.setattr(evolution, "KINETIC_MATRIX_MAX_POINTS", 0)
        spec = KineticSpec(spec.c_T, spec.grid)  # the route is picked when the operator is built
        for _ in range(100):
            apply_kinetic(expected.ancilla0, spec, 0.01)
        assert np.max(np.abs(r.amps - expected.amps)) <= 1e-12
        assert r.ancilla1.any() == live_ancilla

    @pytest.mark.parametrize("points", [(16,), (8, 8)])
    @pytest.mark.parametrize("route", ["axes", "dft"])
    def test_zero_ancilla0_branch_stays_zero(self, rng, monkeypatch, points, route):
        # mapping the ancilla-|1> branch view writes nothing into the zero
        # ancilla-|0> half
        spec = KineticSpec(0.7, GridSpec(points=points, dx=0.3))
        r = self.register(rng, spec.grid.size, live_ancilla=True)
        r.ancilla0[:] = 0.0
        expected = r.ancilla1.copy()
        if route == "dft":
            monkeypatch.setattr(evolution, "KINETIC_MATRIX_MAX_POINTS", 0)
        apply_kinetic(r.ancilla1, spec, 0.01)
        assert not r.ancilla0.any()
        expected = np.fft.ifftn(
            np.exp(1j * kinetic_phases(spec, 0.01)).reshape(points)
            * np.fft.fftn(expected.reshape(points), norm="ortho"),
            norm="ortho",
        ).reshape(-1)
        assert np.max(np.abs(r.ancilla1 - expected)) < 1e-13

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64, 128, 256])
    def test_axis_matrix_is_unitary(self, m):
        spec = KineticSpec(1.0, GridSpec(points=(m,), dx=0.1))
        (u,) = spec.operator(0.05)
        assert np.linalg.norm(u.conj().T @ u - np.eye(m), 2) <= 1e-14
        assert not u.flags.writeable
        assert spec.operator(0.05)[0] is u

    def test_circulant_of_the_factors(self):
        # U = DFT^-1 . diag(factors) . DFT, with the unitary DFT matrix
        spec = KineticSpec(1.0, GridSpec(points=(8,), dx=0.5))
        (u,) = spec.operator(0.3)
        dft = np.fft.fft(np.eye(8), norm="ortho")
        expected = dft.conj().T @ np.diag(np.exp(1j * kinetic_phases(spec, 0.3))) @ dft
        assert np.max(np.abs(u - expected)) < 1e-15

    def test_norm_drift_long_run(self):
        grid = GridSpec(points=(64,), dx=0.25, x0=-8.0)
        spec = KineticSpec(1.0, grid)
        psi = init_from_amplitudes(gaussian_packet(grid, 0.0, 1.0, 0.5))
        for _ in range(20000):
            apply_kinetic(psi, spec, 0.01)
        assert abs(np.linalg.norm(psi) - 1.0) <= 1e-10

    @pytest.mark.parametrize("points", [(16,), (8, 8), (512,)])
    def test_non_finite_phase_is_a_simulation_error(self, rng, points):
        # eps * c_T * p^2 overflows to inf on either route
        spec = KineticSpec(1e308, GridSpec(points=points, dx=0.5))
        psi = random_state(rng, spec.grid.size.bit_length() - 1)
        message = r"^non-finite kinetic phase for step size eps = 0\.1; lower c_T or eps$"
        with np.errstate(all="ignore"), pytest.raises(SimulationError, match=message):
            apply_kinetic(psi, spec, 0.1)


class TestTracerSeams:
    """evolve reaches each layer through its module attribute, once per step,
    so a wrapper installed on that attribute (as the benchmark's per-layer
    tracer does) sees every call."""

    SEAMS = [
        (nlcompiler, "apply_w_direct"),
        (nlcompiler, "execute"),
        (evolution, "apply_kinetic"),
        (statevec, "dft_principal"),
        (statevec, "apply_principal_axes"),
        (statevec, "apply_mcx_k"),
        (statevec, "apply_nonlinear"),
        (statevec, "apply_ancilla_phase"),
    ]

    def count_seams(self, monkeypatch):
        counts = {}
        for module, name in self.SEAMS:
            key = f"{module.__name__.split('.')[-1]}.{name}"
            counts[key] = 0

            def wrapper(*args, _fn=getattr(module, name), _key=key, **kwargs):
                counts[_key] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
        return counts

    @pytest.mark.parametrize("mode", evolution.MODES)
    def test_each_seam_called_per_step(self, grid, spec, rng, monkeypatch, mode):
        counts = self.count_seams(monkeypatch)
        steps = 7
        result = evolve(random_state(rng, 4), random_coupling(rng, 4, scale=0.3), spec,
                        n_steps_for(steps * 0.05, 0.05), 0.05, mode=mode)
        # the gate primitives run only in compiled mode, each as often as the tally says
        gates = steps if mode == "compiled" else 0
        per_step = result.tally.per_step
        assert counts == {
            "nlcompiler.apply_w_direct": steps if mode == "direct" else 0,
            "nlcompiler.execute": steps if mode == "compiled" else 0,
            "evolution.apply_kinetic": steps,
            # the 16-site grid takes the per-axis route: no transform
            "statevec.dft_principal": 0,
            "statevec.apply_principal_axes": steps,
            "statevec.apply_mcx_k": gates * per_step.mcx,
            "statevec.apply_nonlinear": gates * per_step.nonlinear,
            "statevec.apply_ancilla_phase": gates * per_step.ancilla_phase,
        }

    def test_fft_side_grid_transforms_twice_per_step(self, fft_spec, rng, monkeypatch):
        counts = self.count_seams(monkeypatch)
        steps = 3
        evolve(random_state(rng, 9), zero_coupling(512), fft_spec,
               n_steps_for(steps * 0.05, 0.05), 0.05, mode="direct")
        assert counts == {
            "nlcompiler.apply_w_direct": steps,
            "nlcompiler.execute": 0,
            "evolution.apply_kinetic": steps,
            "statevec.dft_principal": 2 * steps,
            "statevec.apply_principal_axes": 0,
            "statevec.apply_mcx_k": 0,
            "statevec.apply_nonlinear": 0,
            "statevec.apply_ancilla_phase": 0,
        }


class TestTrotterStep:
    def test_free_particle_matches_analytic(self, grid, spec):
        mode = 2
        kappa = 2 * np.pi * mode / (16 * 0.5)
        a = np.exp(-1j * kappa * grid.coords(0))
        psi = init_from_amplitudes(a)
        f = zero_coupling(16)
        for _ in range(5):
            trotter_step(psi, f, spec, 0.05)
        expected = init_from_amplitudes(a * np.exp(-1j * 0.25 * kappa**2))
        assert fidelity(psi, expected) > 1 - 1e-12

    def test_zero_kinetic_diagonal_flow(self, grid, rng):
        """With c_T = 0 and diagonal coupling, each weight is frozen and the
        phases advance by exactly -eps*f_kk*|a_k|^2 per step."""
        spec0 = KineticSpec(0.0, grid)
        diag = rng.normal(size=16)
        f = CouplingMatrix.from_dense(np.diag(diag))
        psi = random_state(rng, 4)
        dens0 = np.abs(psi) ** 2
        psi2 = psi.copy()
        for _ in range(3):
            trotter_step(psi2, f, spec0, 0.1)
        assert np.abs(np.abs(psi2) ** 2 - dens0).max() < 1e-14
        expected = psi * np.exp(-1j * 3 * 0.1 * diag * dens0)
        assert np.max(np.abs(psi2 - expected)) < 1e-12

    def test_compiled_matches_direct(self, grid, spec, rng):
        f = random_coupling(rng, 4, scale=0.5)
        psi = random_state(rng, 4)
        direct = trotter_step(psi.copy(), f, spec, 0.08)
        r = clean_register(psi)
        compiled = trotter_step(r.ancilla0, f, spec, 0.08, compile_w(f, 0.08), r)
        assert compiled is r.ancilla0
        assert fidelity(direct, compiled) > 1 - 1e-12

    def test_ancilla_clean_after_step(self, grid, spec, rng):
        f = random_coupling(rng, 4)
        r = random_register(rng, 4)
        trotter_step(r.ancilla0, f, spec, 0.05, compile_w(f, 0.05), r)
        assert r.ancilla_is_clean()


class TestEvolve:
    def test_zero_time_identity(self, grid, spec, rng):
        psi0 = random_state(rng, 4)
        result = evolve(psi0, zero_coupling(16), spec, n_steps_for(0.0, 0.1), 0.1)
        assert np.array_equal(result.final, psi0)
        assert result.tally.n_steps == 0
        assert result.tally.nonlinear_count == 0

    def test_step_count_floor(self):
        assert n_steps_for(1.6, 0.08) == 20
        assert n_steps_for(1.0, 0.3) == 3
        assert n_steps_for(0.0, 0.1) == 0

    def test_step_count_of_large_multiples(self):
        # t = N * eps reads back as t / eps a few ulps below N for some N
        # past 1e7, which an absolute guard alone floors to N - 1
        assert n_steps_for(47762388 * 0.1, 0.1) == 47762388
        rng = np.random.default_rng(13)
        for eps in (0.1, 0.08, 0.3, 0.002, 1e-3, 0.7):
            for n in rng.integers(10**7, 10**8, size=200_000 // 6, endpoint=True).tolist():
                assert n_steps_for(n * eps, eps) == n, (n, eps)

    def test_step_count_keeps_fractions(self):
        assert n_steps_for(1.0 - 1e-6, 0.1) == 9
        assert n_steps_for(1e7 + 0.5, 1.0) == 10**7
        assert n_steps_for(2.0**52, 1.0) == 2**52

    def test_input_register_untouched(self, grid, spec, rng):
        psi0 = random_state(rng, 4)
        before = psi0.copy()
        f = random_coupling(rng, 4)
        for mode in evolution.MODES:
            evolve(psi0, f, spec, n_steps_for(0.5, 0.1), 0.1, mode=mode)
            assert np.array_equal(psi0, before)

    def test_tally_matches_estimate(self, grid, spec, rng):
        f = random_coupling(rng, 4)
        result = evolve(random_state(rng, 4), f, spec,
                        n_steps_for(1.0, 0.1), 0.1, mode="compiled")
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
        result = evolve(random_state(rng, 4), f, spec,
                        n_steps_for(1.0, 0.1), 0.1, mode="direct")
        singles, pairs = nlcompiler.gammas_from_coupling(f, 0.1).sparsity()
        assert result.tally == estimate_resources(4, 10, singles=singles, pairs=pairs)

    def test_mode_equivalence(self, grid, spec, rng):
        f = random_coupling(rng, 4, scale=0.3)
        r0 = random_state(rng, 4)
        direct = evolve(r0, f, spec, n_steps_for(2.0, 0.02), 0.02, mode="direct")
        compiled = evolve(r0, f, spec, n_steps_for(2.0, 0.02), 0.02, mode="compiled")
        assert fidelity(direct.final, compiled.final) >= 1 - 1e-9

    def test_norm_conservation_long_run(self, rng):
        grid = GridSpec(points=(64,), dx=0.25, x0=-8.0)
        spec = KineticSpec(1.0, grid)
        f = hartree_coupling(KernelSpec("gaussian", sigma=1.0, amplitude=2.0), grid)
        r0 = init_from_amplitudes(gaussian_packet(grid, 0.0, 1.0, 0.5))
        result = evolve(r0, f, spec, n_steps_for(100.0, 0.01), 0.01)
        assert result.tally.n_steps == 10**4
        assert result.norm_drift < 1e-10

    def test_snapshots(self, grid, spec, rng):
        r0 = random_state(rng, 4)
        result = evolve(r0, zero_coupling(16), spec,
                        n_steps_for(1.0, 0.1), 0.1, record_stride=4)
        steps = [s.step for s in result.snapshots]
        assert steps == [0, 4, 8, 10]
        assert result.snapshots[-1].time == pytest.approx(1.0)

    def test_plan_validation(self, spec, rng):
        r0 = random_state(rng, 4)
        f = zero_coupling(16)
        with pytest.raises(ValueError, match="step size"):
            evolve(r0, f, spec, n_steps_for(0.5, -0.1), -0.1)
        with pytest.raises(ValueError, match="time"):
            evolve(r0, f, spec, n_steps_for(-0.5, 0.1), 0.1)
        # the mode is checked also when the run takes no step
        for t in (0.5, 0.0):
            with pytest.raises(ValueError, match="mode"):
                evolve(r0, f, spec, n_steps_for(t, 0.1), 0.1, mode="magic")

    def test_norm_drift_is_a_simulation_error(self, spec, rng, monkeypatch):
        leak_norm(monkeypatch)
        with pytest.raises(SimulationError, match=r"^norm drifted by 4\.\d+e-09 after 4 steps$"):
            evolve(random_state(rng, 4), random_coupling(rng, 4), spec,
                   n_steps_for(0.4, 0.1), 0.1)

    def test_non_finite_angle_is_a_simulation_error(self, spec, rng):
        # each entry is finite, but eps * f overflows
        f = CouplingMatrix.from_dense(np.full((16, 16), 1e308))
        with np.errstate(all="ignore"), pytest.raises(SimulationError, match="rotation angle"):
            evolve(random_state(rng, 4), f, spec, n_steps_for(8.0, 8.0), 8.0)


class TestRunState:
    """The run state is the principal vector: a direct run builds no
    register, and in compiled mode the final norm check over the vector
    catches weight a block leaves in the ancilla-|1> branch."""

    HARTREE_64 = {
        "problem": "hartree",
        "grid": {"points": [64], "dx": 0.25, "x0": -8.0},
        "kernel": {"form": "gaussian", "sigma": 1.0, "amplitude": 2.0},
        "initial_state": {"preset": "gaussian", "center": 0.0, "sigma": 1.0, "kappa": 0.4},
        "t": 0.4,
        "eps": 0.08,
    }
    # the 2x256 stencil's axis lengths sum past KINETIC_MATRIX_MAX_POINTS
    CONFIGS = {
        "hartree-64": HARTREE_64,
        "stencil-32x32": stencil_config_dict((32, 32), 5),
        "transform-2x256": stencil_config_dict((2, 256), 5),
    }

    @pytest.mark.parametrize("mode", evolution.MODES)
    def test_final_is_the_principal_vector(self, spec, rng, mode):
        result = evolve(random_state(rng, 4), random_coupling(rng, 4, scale=0.3), spec,
                        3, 0.05, mode=mode)
        assert type(result.final) is np.ndarray
        assert result.final.shape == (16,) and result.final.dtype == np.complex128

    @pytest.mark.parametrize("case", sorted(CONFIGS))
    def test_direct_simulate_builds_no_register(self, tmp_path, monkeypatch, case):
        def refuse(*args):
            raise AssertionError("a Register was built")

        monkeypatch.setattr(statevec, "Register", refuse)
        assert (case == "transform-2x256") == (
            sum(self.CONFIGS[case]["grid"]["points"]) > evolution.KINETIC_MATRIX_MAX_POINTS
        )
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**self.CONFIGS[case], "mode": "direct"}))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["norm_drift"] < 1e-10

    def test_weight_left_in_the_ancilla_fails_the_norm_check(self, spec, rng, monkeypatch):
        compile_w = nlcompiler.compile_w

        def drop_last_flip(f, eps):
            seq = compile_w(f, eps)
            last = max(i for i, (kind, _) in enumerate(seq.ops) if kind == "MCX")
            return GateSequence(seq.n, seq.ops[:last] + seq.ops[last + 1:])

        monkeypatch.setattr(nlcompiler, "compile_w", drop_last_flip)
        with pytest.raises(SimulationError, match=r"^norm drifted by .* after 3 steps$"):
            evolve(random_state(rng, 4), random_coupling(rng, 4, scale=0.3), spec,
                   3, 0.05, mode="compiled")


class TestFirstOrderAccuracy:
    def test_l2_error_halves_with_eps(self):
        """State error against a converged reference is first order in eps."""
        grid = GridSpec(points=(32,), dx=0.5, x0=-8.0)
        spec = KineticSpec(1.0, grid)
        kernel = KernelSpec("gaussian", sigma=1.0, amplitude=2.0)
        f = hartree_coupling(kernel, grid)
        a0 = gaussian_packet(grid, center=-1.0, sigma=1.0, kappa=0.6)
        r0 = init_from_amplitudes(a0)
        phi0 = oracle.FieldState.from_amplitudes(r0, grid)
        rule = oracle.kernel_potential(kernel, grid)
        t = 1.0
        errs = []
        for eps in (0.05, 0.025, 0.0125):
            result = evolve(r0, f, spec, n_steps_for(t, eps), eps)
            ref = oracle.split_step_solve(phi0, rule, 1.0, t, eps / 20)
            ref_amps = ref.to_amplitudes()
            out = result.final
            ov = np.vdot(ref_amps, out)
            errs.append(np.linalg.norm(out * np.exp(-1j * np.angle(ov)) - ref_amps))
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        for ratio in ratios:
            assert 1.6 <= ratio <= 2.6

    @pytest.mark.parametrize("c_T", [1.0, 0.5])
    def test_energy_drift_shrinks_with_eps(self, c_T):
        grid = GridSpec(points=(32,), dx=0.5, x0=-8.0)
        spec = KineticSpec(c_T, grid)
        f = hartree_coupling(KernelSpec("gaussian", sigma=1.0, amplitude=2.0), grid)
        r0 = init_from_amplitudes(gaussian_packet(grid, -1.0, 1.0, 0.6))
        e0 = observables(r0, spec, f).energy
        drifts = []
        for eps in (0.05, 0.025):
            result = evolve(r0, f, spec, n_steps_for(1.0, eps), eps)
            e1 = observables(result.final, spec, f).energy
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
        result = evolve(r0, f, spec, n_steps_for(1.0, 0.05), 0.05, mode="compiled")
        assert fidelity(r0, result.final) > 1 - 1e-12

    def test_2d_packet_spreads_symmetrically(self):
        grid = GridSpec(points=(8, 8), dx=1.0, x0=-4.0)
        spec = KineticSpec(0.5, grid)
        a0 = gaussian_packet(grid, center=0.0, sigma=1.0)
        r0 = init_from_amplitudes(a0)
        result = evolve(r0, zero_coupling(64), spec,
                        n_steps_for(2.0, 0.05), 0.05)
        dens = (np.abs(result.final) ** 2).reshape(8, 8)
        assert np.allclose(dens, dens.T, atol=1e-12)  # axis symmetry preserved


class TestObservables:
    def test_uniform_zero_momentum_state(self, spec):
        psi = init_from_amplitudes(np.ones(16))
        obs = observables(psi, spec, zero_coupling(16))
        assert obs.energy == pytest.approx(0.0, abs=1e-14)
        assert obs.momentum_density[0] == pytest.approx(1.0)

    def test_basis_state_energy(self, grid, spec):
        """Kinetic spread of a position eigenstate plus half the self-coupling."""
        f = np.zeros((16, 16))
        f[3, 3] = 2.0
        r = basis_state(4, 3)
        obs = observables(r, spec, CouplingMatrix.from_dense(f))
        psq = KineticSpec(1.0, grid).momentum_sq()
        kinetic_spread = np.mean(psq)  # flat momentum distribution
        assert obs.energy == pytest.approx(kinetic_spread + 0.5 * 2.0)

    @pytest.mark.parametrize("c_T", [1.0, 0.5])
    def test_plane_wave_energy_is_c_T_kappa_squared(self, grid, c_T):
        # mode 2 on 16 sites of 0.5: kappa = 2*pi*2/8, kappa**2 = 2.4674
        r = init_from_amplitudes(plane_wave_amplitudes(grid, 2))
        obs = observables(r, KineticSpec(c_T, grid), zero_coupling(16))
        assert obs.energy == pytest.approx(c_T * (np.pi / 2) ** 2, rel=1e-12)

    def test_density_sums_to_one(self, spec, rng):
        obs = observables(random_state(rng, 4), spec, zero_coupling(16))
        assert np.sum(obs.density) == pytest.approx(1.0)
        assert np.sum(obs.momentum_density) == pytest.approx(1.0)


class TestTrajectoryExport:
    SPECIAL = np.array([-0.0, 0.0, 1e-300, -2.5e-310, 1.7e150, -3.3e-5, 1.0, 123456.789])
    LONG_ROWS = 8192

    def test_csv_columns(self, tmp_path, grid, spec, rng):
        r0 = random_state(rng, 4)
        result = evolve(r0, zero_coupling(16), spec,
                        n_steps_for(0.3, 0.1), 0.1, record_stride=1)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, result.snapshots)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,time,k,re,im"
        assert len(lines) == 1 + 16 * len(result.snapshots)

    def test_fields_are_plain_numbers(self, tmp_path, grid, spec, rng):
        f = random_coupling(rng, 4)
        result = evolve(random_state(rng, 4), f, spec,
                        n_steps_for(0.3, 0.1), 0.1, record_stride=1)
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
                for k, a in enumerate(snap.amps):
                    row = [repr(float(a.real)), repr(float(a.imag))]
                    writer.writerow([snap.step, repr(snap.time), k, *row])

    def reference_bytes(self, path, snapshots):
        self.csv_writer_reference(path, snapshots)
        return path.read_bytes()

    def test_bytes_match_csv_writer(self, tmp_path, rng):
        amps = self.SPECIAL + 1j * self.SPECIAL[::-1]
        snapshots = [
            Snapshot(0, 0.0, amps),
            Snapshot(3, 3 * 0.1, rng.normal(size=8) + 1j * rng.normal(size=8)),
            Snapshot(12, 12 * 0.1, amps[::-1].copy()),
        ]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_trajectory_csv(got, snapshots)
        self.csv_writer_reference(want, snapshots)
        assert got.read_bytes() == want.read_bytes()
        assert b"\r\n" in got.read_bytes()

    def trajectory(self, rng, count, rows=LONG_ROWS):
        """count snapshots of at least `rows` rows in all; the first and the
        last hold the special values."""
        m = -(-rows // count)
        special = np.resize(self.SPECIAL, m)
        snapshots = [
            Snapshot(5 * s, 5 * s * 0.1, rng.normal(size=m) + 1j * rng.normal(size=m))
            for s in range(count)
        ]
        snapshots[0] = Snapshot(0, 0.0, special + 1j * special[::-1])
        snapshots[-1] = Snapshot(snapshots[-1].step, snapshots[-1].time,
                                 special[::-1] + 1j * special)
        return snapshots

    @pytest.mark.parametrize("count", [2, 3, 8, 9])
    def test_long_bytes_match_csv_writer(self, tmp_path, rng, count):
        snapshots = self.trajectory(rng, count)
        got = tmp_path / "got.csv"
        write_trajectory_csv(got, snapshots)
        assert got.read_bytes() == self.reference_bytes(tmp_path / "want.csv", snapshots)

    def test_replaces_a_longer_file(self, tmp_path, rng):
        snapshots = self.trajectory(rng, 4)
        want = self.reference_bytes(tmp_path / "want.csv", snapshots)
        got = tmp_path / "got.csv"
        got.write_bytes(b"x" * (2 * len(want)))
        write_trajectory_csv(got, snapshots)
        assert got.read_bytes() == want

    def test_directory_path_raises(self, tmp_path, rng):
        with pytest.raises(OSError) as info:
            write_trajectory_csv(tmp_path, self.trajectory(rng, 3))
        assert info.value.errno == errno.EISDIR
        assert info.value.filename == str(tmp_path)

    def test_write_failure_is_one_line(self, tmp_path, capsys):
        """A simulate run whose trajectory.csv is a directory exits 1 with
        one line naming the file."""
        steps = -(-self.LONG_ROWS // 1024)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**stencil_config_dict((32, 32), steps), "record_stride": 1}))
        out = tmp_path / "out"
        (out / "trajectory.csv").mkdir(parents=True)
        rc = cli.main(["simulate", "--config", str(config), "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "Traceback" not in captured.err + captured.out
        [line] = captured.err.splitlines()
        assert line.startswith("cannot write outputs: [Errno 21] Is a directory")
        assert line.endswith("trajectory.csv'")

    def test_never_forks(self, tmp_path, rng, monkeypatch):
        """One process writes every trajectory, however long, and on as
        many CPUs as it may run on."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

        def refuse():
            raise AssertionError("a writer process was forked")

        monkeypatch.setattr(os, "fork", refuse)
        snapshots = self.trajectory(rng, 9, rows=9 * 1024)
        got = tmp_path / "got.csv"
        write_trajectory_csv(got, snapshots)
        assert got.read_bytes() == self.reference_bytes(tmp_path / "want.csv", snapshots)

    def test_streams_snapshots(self, tmp_path, rng):
        """The rows go to the file snapshot by snapshot: the traced
        allocation peak of writing 16 snapshots stays below a quarter of
        the file's size."""
        snapshots = self.trajectory(rng, 16, rows=16 * 1024)
        got = tmp_path / "got.csv"
        tracemalloc.start()
        try:
            write_trajectory_csv(got, snapshots)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < got.stat().st_size / 4


class TestGuards:
    @pytest.mark.parametrize("c_T", [np.inf, -np.inf, np.nan])
    def test_refuses_non_finite_kinetic_prefactor(self, grid, c_T):
        with pytest.raises(ValueError, match="kinetic prefactor must be finite"):
            KineticSpec(c_T, grid)
