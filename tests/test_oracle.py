import csv
from dataclasses import replace

import numpy as np
import pytest

from nlqsim import oracle
from nlqsim.evolution import SimulationError
from nlqsim.oracle import (
    BLANES_MOAN4,
    STRANG,
    FieldState,
    TwoModeState,
    bec_phase_check,
    field_from_csv,
    gpe2_solve,
    ground_state,
    kernel_potential,
    laplacian_potential,
    split_step_solve,
)
from nlqsim.problems import (
    GridSpec,
    KernelSpec,
    coupling_from_triplet_csv,
    gaussian_packet,
    gross_pitaevskii_coupling,
    hartree_coupling,
    navier_stokes_coupling,
)

from support import convergence_ratios, radial_kernel, squared_separations


@pytest.fixture(scope="module")
def grid():
    return GridSpec(points=(128,), dx=20.0 / 128, x0=-10.0)


def harmonic_trap(grid):
    x = grid.coords(0)
    return 0.5 * x**2


@pytest.fixture(scope="module")
def trap_ground(grid):
    """Noninteracting harmonic ground state, shared across this module."""
    return ground_state(harmonic_trap(grid), grid)


def gaussian_field(grid, center=0.0, sigma=1.0, kappa=0.0):
    x = grid.coords(0)
    return FieldState.from_samples(
        np.exp(-((x - center) ** 2) / (4 * sigma**2) - 1j * kappa * x), grid
    )


def field_to_csv(state: FieldState, path) -> None:
    """Write a field file: (x, re, im) rows for 1-d fields, (x0, x1, re, im)
    for 2-d."""
    grid = state.grid
    coords = np.meshgrid(*map(grid.coords, range(grid.dims)), indexing="ij")
    columns = [c.reshape(-1) for c in (*coords, state.values.real, state.values.imag)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow((["x"] if grid.dims == 1 else ["x0", "x1"]) + ["re", "im"])
        for row in zip(*columns):
            writer.writerow([repr(float(v)) for v in row])


class TestFieldState:
    def test_normalization_enforced(self, grid):
        with pytest.raises(ValueError, match="not normalized"):
            FieldState(np.ones(grid.size), grid)

    def test_from_samples_normalizes(self, grid):
        state = FieldState.from_samples(np.ones(grid.size), grid)
        assert state.norm() == pytest.approx(1.0)

    def test_amplitude_round_trip(self, grid):
        state = gaussian_field(grid)
        amps = state.to_amplitudes()
        assert np.sum(np.abs(amps) ** 2) == pytest.approx(1.0)
        back = FieldState.from_amplitudes(amps, grid)
        assert np.allclose(back.values, state.values)

    def test_csv_round_trip(self, tmp_path, grid):
        state = gaussian_field(grid, kappa=0.4)
        path = tmp_path / "field.csv"
        field_to_csv(state, path)
        back = field_from_csv(path, grid)
        assert np.max(np.abs(back.values - state.values)) < 1e-15

    def test_csv_bytes_2d(self, tmp_path):
        """A 2-d field is written row-major, x1 fastest, with repr floats."""
        g = GridSpec(points=(2, 2), dx=0.5, x0=-0.5)
        path = tmp_path / "field.csv"
        field_to_csv(FieldState(np.array([[1.0, 1j], [0.6 + 0.8j, -1.0]]), g), path)
        assert path.read_bytes() == (
            b"x0,x1,re,im\r\n"
            b"-0.5,-0.5,1.0,0.0\r\n"
            b"-0.5,0.0,0.0,1.0\r\n"
            b"0.0,-0.5,0.6,0.8\r\n"
            b"0.0,0.0,-1.0,0.0\r\n"
        )


class TestSplitStep:
    def test_free_plane_wave_dispersion(self, grid):
        """Plane wave acquires the analytic phase exp(-i*c_T*kappa^2*t)."""
        mode = 4
        kappa = 2 * np.pi * mode / (grid.points[0] * grid.dx)
        x = grid.coords(0)
        phi0 = FieldState.from_samples(np.exp(1j * kappa * x), grid)
        zero_rule = lambda dens: np.zeros_like(dens)
        out = split_step_solve(phi0, zero_rule, c_T=1.0, t=0.7, dt=0.01)
        expected = phi0.values * np.exp(-1j * 0.7 * kappa**2)
        assert np.max(np.abs(out.values - expected)) < 1e-10

    def test_zero_time_copy(self, grid):
        phi0 = gaussian_field(grid)
        out = split_step_solve(phi0, lambda d: np.zeros_like(d), 1.0, 0.0, 0.01)
        assert np.array_equal(out.values, phi0.values)
        assert out is not phi0

    def test_contact_uniform_density_frozen(self, grid):
        """Uniform state under a contact kernel only picks up a global phase."""
        phi0 = FieldState.from_samples(np.ones(grid.size), grid)
        rule = kernel_potential(KernelSpec("contact", g=2.0), grid)
        out = split_step_solve(phi0, rule, c_T=1.0, t=0.5, dt=0.005)
        assert np.max(np.abs(np.abs(out.values) - np.abs(phi0.values))) < 1e-12

    def test_second_order_convergence(self, grid):
        phi0 = gaussian_field(grid, center=-1.0, sigma=1.2, kappa=0.8)
        rule = kernel_potential(KernelSpec("gaussian", sigma=1.0, amplitude=3.0), grid)
        ratios = convergence_ratios(
            phi0, rule, c_T=1.0, t=0.5, dts=[0.02, 0.01, 0.005, 0.0025]
        )
        for ratio in ratios:
            assert 3.4 <= ratio <= 4.6

    def test_fourth_order_convergence(self, grid):
        # the field of test_second_order_convergence; measured 16.23, 16.06
        phi0 = gaussian_field(grid, center=-1.0, sigma=1.2, kappa=0.8)
        rule = kernel_potential(KernelSpec("gaussian", sigma=1.0, amplitude=3.0), grid)
        ratios = convergence_ratios(
            phi0, rule, c_T=1.0, t=0.5, dts=[0.1, 0.05, 0.025, 0.0125], row=BLANES_MOAN4
        )
        for ratio in ratios:
            assert 12 <= ratio <= 20

    def test_kernel_and_coupling_rules_agree(self, grid):
        kernel = KernelSpec("gaussian", sigma=1.5, amplitude=2.0)
        k_rule = kernel_potential(kernel, grid)
        f = hartree_coupling(kernel, grid)
        dens = gaussian_field(grid).density()
        weights = dens.reshape(-1) * grid.cell_volume
        assert np.max(np.abs(k_rule(dens) - f.dense @ weights)) < 1e-12

    def test_contact_kernel_rule_is_g_rho(self, grid):
        rule = kernel_potential(KernelSpec("contact", g=1.3), grid)
        dens = gaussian_field(grid).density()
        assert np.max(np.abs(rule(dens) - 1.3 * dens)) < 1e-12

    def test_gp_coupling_rule_is_g_rho(self, grid):
        f = gross_pitaevskii_coupling(1.3, grid)
        dens = gaussian_field(grid).density()
        weights = dens.reshape(-1) * grid.cell_volume
        assert np.max(np.abs(f.dense @ weights - 1.3 * dens)) < 1e-12

    def test_non_finite_aborts(self, grid):
        values = np.ones(grid.size, dtype=complex)
        phi0 = FieldState.from_samples(values, grid)
        bad_rule = lambda dens: np.full_like(dens, np.nan)
        with pytest.raises(SimulationError, match="reduce dt"):
            split_step_solve(phi0, bad_rule, 1.0, 1.0, 0.1, check_interval=1)

    def test_late_non_finite_caught_at_next_check(self, grid):
        """A potential that turns NaN after step 40 is reported at the next
        every-50-steps norm check."""
        phi0 = gaussian_field(grid)
        calls = []

        def rule(dens):
            calls.append(None)
            return np.zeros_like(dens) if len(calls) <= 40 else np.full_like(dens, np.nan)

        with pytest.raises(SimulationError, match=r"at step 50; reduce dt"):
            split_step_solve(phi0, rule, 1.0, t=1.0, dt=0.01)


#: 1-d grid and a 2-d grid with a 2-point axis
GRIDS = [
    GridSpec(points=(64,), dx=0.25, x0=-8.0),
    GridSpec(points=(16, 2), dx=0.5, x0=-4.0),
]


def packet_field(grid):
    return FieldState.from_samples(gaussian_packet(grid, -1.0, 1.0, 0.7), grid)


def random_density(grid, seed):
    return np.random.default_rng(seed).random(grid.points)


def unfused_solve(phi0, rule, c_T, t, n, row=STRANG):
    """n steps of the splitting row, K(a_0) V(b_1) K(a_1) ... V(b_s) K(a_s),
    each kinetic substep a complex n-d FFT pair, no substeps merged; on the
    Strang row, half kinetic, full potential, half kinetic."""
    grid = phi0.grid
    dt = t / n
    axes = tuple(range(grid.dims))
    p = [2.0 * np.pi * np.fft.fftfreq(m, d=grid.dx) for m in grid.points]
    psq = sum(np.meshgrid(*[q**2 for q in p], indexing="ij"))

    def kinetic(phi, w):
        factor = np.exp(-1j * w * dt * c_T * psq)
        return np.fft.ifftn(factor * np.fft.fftn(phi, axes=axes), axes=axes)

    a, b = row
    phi = phi0.values.copy()
    for _ in range(n):
        phi = kinetic(phi, a[0])
        for wa, wb in zip(a[1:], b):
            phi = phi * np.exp(-1j * wb * dt * rule(np.abs(phi) ** 2))
            phi = kinetic(phi, wa)
    return phi


def merged_strang_solve(phi0, rule, c_T, t, n):
    """The fused Strang loop written for that row alone: one half-kinetic
    factor, squared to join neighbouring steps."""
    grid = phi0.grid
    dt = t / n
    fft, ifft = (np.fft.fft, np.fft.ifft) if grid.dims == 1 else (np.fft.fft2, np.fft.ifft2)
    half_kin = np.exp(-0.5j * dt * c_T * oracle._momentum_sq(grid))
    full_kin = half_kin**2
    phi_hat = half_kin * fft(phi0.values)
    for step in range(1, n + 1):
        phi = ifft(phi_hat)
        phi *= np.exp(-1j * dt * rule(np.abs(phi) ** 2))
        phi_hat = fft(phi)
        phi_hat *= full_kin if step < n else half_kin
    return ifft(phi_hat)


def complex_fft_convolution(kernel, grid, dens):
    """dV * (Phi circularly convolved with rho), by complex n-d FFTs."""
    r = np.sqrt(squared_separations(grid.points)[0].reshape(grid.points)) * grid.dx
    w = radial_kernel(kernel, r)
    conv = np.fft.ifftn(np.fft.fftn(w) * np.fft.fftn(dens)).real
    return conv * grid.cell_volume


class TestFusedStepper:
    @pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d-two-point-axis"])
    @pytest.mark.parametrize("n", [1, 49, 50, 51])
    def test_matches_unfused_steps(self, grid, n):
        phi0 = packet_field(grid)
        rule = kernel_potential(KernelSpec("gaussian", sigma=1.0, amplitude=2.0), grid)
        t = 0.4
        fused = split_step_solve(phi0, rule, 1.0, t, t / n).values
        assert np.max(np.abs(fused - unfused_solve(phi0, rule, 1.0, t, n))) <= 1e-12

    @pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d-two-point-axis"])
    @pytest.mark.parametrize("n", [1, 2, 51])
    def test_row_matches_unfused_composition(self, grid, n):
        phi0 = packet_field(grid)
        rule = kernel_potential(KernelSpec("gaussian", sigma=1.0, amplitude=2.0), grid)
        t = 0.4
        fused = split_step_solve(phi0, rule, 0.7, t, t / n, row=BLANES_MOAN4).values
        unfused = unfused_solve(phi0, rule, 0.7, t, n, BLANES_MOAN4)
        assert np.max(np.abs(fused - unfused)) <= 1e-12

    @pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d-two-point-axis"])
    @pytest.mark.parametrize("n", [1, 2, 51])
    def test_strang_row_is_bit_identical_to_the_merged_strang_loop(self, grid, n):
        phi0 = packet_field(grid)
        for rule in (kernel_potential(KernelSpec("gaussian", sigma=1.0, amplitude=2.0), grid),
                     laplacian_potential(1.0, grid)):
            fused = split_step_solve(phi0, rule, 0.7, 0.4, 0.4 / n).values
            assert np.array_equal(fused, merged_strang_solve(phi0, rule, 0.7, 0.4, n))

    @pytest.mark.parametrize("grid", GRIDS, ids=["1d", "2d-two-point-axis"])
    @pytest.mark.parametrize(
        "kernel",
        [KernelSpec("gaussian", sigma=1.0, amplitude=2.0), KernelSpec("constant", c=0.7)],
        ids=["gaussian", "constant"],
    )
    def test_real_fft_kernel_rule_matches_complex_convolution(self, grid, kernel):
        dens = random_density(grid, 3)
        got = kernel_potential(kernel, grid)(dens)
        assert got.shape == grid.points
        assert np.max(np.abs(got - complex_fft_convolution(kernel, grid, dens))) <= 1e-12


def unfused_two_mode_solve(s, t, n):
    """The two-mode Strang step with four complex FFTs per mode and no
    merged half steps."""
    grid = s.grid
    dt = t / n
    p = 2.0 * np.pi * np.fft.fftfreq(grid.points[0], d=grid.dx)
    half = np.exp(-0.5j * dt * 0.5 * p**2)
    w1, w2 = abs(s.alpha) ** 2, abs(s.beta) ** 2
    p1, p2 = s.phi1.values.copy(), s.phi2.values.copy()
    for _ in range(n):
        p1 = np.fft.ifft(half * np.fft.fft(p1))
        p2 = np.fft.ifft(half * np.fft.fft(p2))
        d1, d2 = np.abs(p1) ** 2, np.abs(p2) ** 2
        p1 = p1 * np.exp(-1j * dt * (s.V + s.g11 * w1 * d1 + s.g12 * w2 * d2))
        p2 = p2 * np.exp(-1j * dt * (s.V + s.g12 * w1 * d1 + s.g22 * w2 * d2))
        p1 = np.fft.ifft(half * np.fft.fft(p1))
        p2 = np.fft.ifft(half * np.fft.fft(p2))
    return p1, p2


class TestFusedTwoModes:
    @pytest.fixture
    def state(self, grid, trap_ground):
        moving = FieldState.from_samples(np.exp(-((grid.coords(0) - 1.0) ** 2) / 2), grid)
        return TwoModeState(
            moving, trap_ground.state, complex(np.sqrt(0.36)), complex(np.sqrt(0.64)),
            1.0, 0.8, 0.5, harmonic_trap(grid),
        )

    @pytest.mark.parametrize("n", [1, 99, 100, 101])
    def test_matches_unfused_steps(self, state, n):
        t = 0.2
        out = gpe2_solve(state, t, t / n)
        p1, p2 = unfused_two_mode_solve(state, t, n)
        assert np.max(np.abs(out.phi1.values - p1)) <= 1e-12
        assert np.max(np.abs(out.phi2.values - p2)) <= 1e-12

    def test_non_finite_mode_2_named(self, state):
        """A potential that is non-finite in mode 2 only is reported as mode 2
        after mode 1 passes its check."""
        bad = replace(state, g22=np.inf, g12=0.0)
        with np.errstate(invalid="ignore"), pytest.raises(
            SimulationError, match=r"^mode 2 norm drifted to .* at step 1; "
        ):
            gpe2_solve(bad, 1e-3, 1e-3)

    def test_non_finite_mode_2_named_at_the_check_interval(self, state):
        """With g12 exactly 0 the coupling adds no term, so mode 2's NaN
        density never reaches mode 1 (0 * NaN would), and the first check,
        at step 100, still names mode 2; the norm prints as a plain float."""
        bad = replace(state, g22=np.inf, g12=0.0)
        with np.errstate(invalid="ignore"), pytest.raises(
            SimulationError, match=r"^mode 2 norm drifted to nan at step 100; reduce dt$"
        ):
            gpe2_solve(bad, 0.2, 1e-3)

    def test_zero_coupling_adds_no_term(self, state):
        # a finite run with g12 = 0 matches the loop that adds the 0 terms
        free = replace(state, g12=0.0)
        out = gpe2_solve(free, 0.2, 0.2 / 99)
        p1, p2 = unfused_two_mode_solve(free, 0.2, 99)
        assert np.max(np.abs(out.phi1.values - p1)) <= 1e-12
        assert np.max(np.abs(out.phi2.values - p2)) <= 1e-12


#: grids for the matrix-free routes: 1-d, 2-point axes, 2-d
ROUTE_GRIDS = [(32,), (2,), (8, 4), (8, 2), (2, 2)]


class TestPhysicsRoutes:
    """The reference's own potentials against the gate path's coupling matrices."""

    @pytest.mark.parametrize("points", ROUTE_GRIDS)
    def test_contact_rule_matches_gross_pitaevskii_coupling(self, points):
        grid = GridSpec(points=points, dx=0.4)
        dens = random_density(grid, 5)
        got = kernel_potential(KernelSpec("contact", g=1.7), grid)(dens)
        weights = dens.reshape(-1) * grid.cell_volume
        want = (gross_pitaevskii_coupling(1.7, grid).dense @ weights).reshape(grid.points)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("points", ROUTE_GRIDS)
    def test_laplacian_rule_matches_stencil_coupling(self, points):
        grid = GridSpec(points=points, dx=0.5)
        dens = random_density(grid, 7)
        got = laplacian_potential(1.3, grid)(dens)
        weights = dens.reshape(-1) * grid.cell_volume
        want = (navier_stokes_coupling(1.3, grid).dense @ weights).reshape(grid.points)
        assert np.max(np.abs(want)) > 0.1
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_csv_rule_matches_the_gate_path_reader(self, tmp_path):
        # repeated positions (last row wins), a k > j row and an explicit zero
        path = tmp_path / "f.csv"
        path.write_text("k,j,f\n0,1,2.0\n5,2,-0.7\n1,0,3.0\n4,4,1.5\n2,5,0.0\n6,3,0.25\n")
        grid = GridSpec(points=(8,), dx=0.5)
        dens = random_density(grid, 11)
        got = oracle.coupling_potential(path, grid)(dens)
        weights = dens.reshape(-1) * grid.cell_volume
        want = coupling_from_triplet_csv(path, grid.size).dense @ weights
        assert np.max(np.abs(want)) > 0.1
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_laplacian_rule_rejects_non_positive_rho0(self):
        with pytest.raises(ValueError, match="reference density"):
            laplacian_potential(0.0, GridSpec(points=(8,), dx=0.5))


class TestImaginaryTime:
    """`ground_state`: the long imaginary-time limit of any start that
    overlaps it, taken as the lowest eigenvector of T + V."""

    def test_harmonic_ground_state(self, grid, trap_ground):
        """Gaussian ground state at energy omega/2 for the half-Laplacian."""
        ground = trap_ground
        assert ground.residual < 1e-8
        assert ground.mu == pytest.approx(0.5, rel=5e-3)
        x = grid.coords(0)
        exact = np.exp(-(x**2) / 2.0) / np.pi**0.25
        overlap = abs(np.sum(np.conj(ground.state.values) * exact) * grid.dx)
        assert overlap == pytest.approx(1.0, abs=1e-6)

    def test_flat_potential_uniform(self, grid):
        ground = ground_state(np.zeros(grid.size), grid)
        values = ground.state.values
        assert np.max(np.abs(values - values[0])) < 1e-8

    @pytest.mark.parametrize("points", [4, 8, 16, 128])
    def test_trap_residual_at_roundoff(self, points):
        """The trap `bec` builds, down to its coarsest grids: the residual
        is at roundoff and the samples sum to a positive number."""
        g = GridSpec(points=(points,), dx=20.0 / points, x0=-10.0)
        ground = ground_state(harmonic_trap(g), g)
        assert ground.residual < 1e-12
        assert np.sum(ground.state.values).real > 0

    def test_two_dimensional_trap(self):
        g = GridSpec(points=(16, 16), dx=0.5, x0=-4.0)
        x = g.coords(0)
        trap = 0.5 * (x[:, None] ** 2 + x[None, :] ** 2)
        ground = ground_state(trap, g)
        assert ground.state.values.shape == (16, 16)
        assert ground.residual < 1e-12
        assert ground.mu == pytest.approx(1.0, rel=5e-3)

    def test_nonconvergence_raises(self, grid):
        # eigh's roundoff scales with the trap's height, so a steep trap
        # leaves a residual far above the 1e-8 bound
        with pytest.raises(SimulationError, match="residual"):
            ground_state(1e9 * harmonic_trap(grid), grid)


class TestTwoModes:
    def test_weight_validation(self, grid):
        phi = gaussian_field(grid)
        with pytest.raises(ValueError, match="alpha"):
            TwoModeState(phi, phi, 1.0, 0.5, 1.0, 1.0, 1.0, harmonic_trap(grid))

    def test_noninteracting_ground_state_stationary(self, grid, trap_ground):
        trap = harmonic_trap(grid)
        ground = trap_ground
        s = TwoModeState(
            ground.state, ground.state, complex(np.sqrt(0.5)), complex(np.sqrt(0.5)),
            0.0, 0.0, 0.0, trap,
        )
        out = gpe2_solve(s, t=0.5, dt=2e-4)
        # density unchanged up to the integrator's own O(dt^2) error
        assert np.max(np.abs(out.phi1.density() - s.phi1.density())) < 1e-6

    def test_equal_couplings_zero_relative_phase(self, grid, trap_ground):
        trap = harmonic_trap(grid)
        ground = trap_ground
        s = TwoModeState(
            ground.state, ground.state, complex(np.sqrt(0.36)), complex(np.sqrt(0.64)),
            1.0, 1.0, 1.0, trap,
        )
        check = bec_phase_check(s, t=0.1, dt=1e-4)
        assert check.predicted_relative == 0.0
        assert abs(check.measured_relative) < 1e-9

    def test_t_zero_phases_zero(self, grid):
        trap = harmonic_trap(grid)
        phi = gaussian_field(grid)
        s = TwoModeState(phi, phi, complex(np.sqrt(0.36)), complex(np.sqrt(0.64)),
                         1.0, 1.0, 0.5, trap)
        check = bec_phase_check(s, t=0.0, dt=1e-3)
        assert check.measured == (0.0, 0.0)
        assert check.predicted == (0.0, 0.0)

    def test_norm_conserved(self, grid, trap_ground):
        trap = harmonic_trap(grid)
        ground = trap_ground
        s = TwoModeState(
            ground.state, ground.state, complex(np.sqrt(0.36)), complex(np.sqrt(0.64)),
            1.0, 1.0, 0.5, trap,
        )
        out = gpe2_solve(s, t=0.3, dt=1e-3)
        assert abs(out.phi1.norm() - 1.0) < 1e-10
        assert abs(out.phi2.norm() - 1.0) < 1e-10

    def test_energy_conserved_at_second_order(self, grid, trap_ground):
        """The two-mode energy functional drifts at O(dt^2)."""
        x = grid.coords(0)
        trap = harmonic_trap(grid)
        p = 2 * np.pi * np.fft.fftfreq(grid.points[0], d=grid.dx)

        def energy(s):
            w1, w2 = abs(s.alpha) ** 2, abs(s.beta) ** 2
            total = 0.0
            for w, phi in ((w1, s.phi1.values), (w2, s.phi2.values)):
                phi_hat = np.fft.fft(phi)
                kin = np.sum(0.5 * p**2 * np.abs(phi_hat) ** 2) / grid.points[0] * grid.dx
                total += w * (kin + np.sum(trap * np.abs(phi) ** 2) * grid.dx)
            d1, d2 = s.phi1.density(), s.phi2.density()
            total += 0.5 * s.g11 * w1**2 * np.sum(d1**2) * grid.dx
            total += 0.5 * s.g22 * w2**2 * np.sum(d2**2) * grid.dx
            total += s.g12 * w1 * w2 * np.sum(d1 * d2) * grid.dx
            return total

        moving = FieldState.from_samples(np.exp(-((x - 1.0) ** 2) / 2), grid)
        s0 = TwoModeState(
            moving, trap_ground.state,
            complex(np.sqrt(0.36)), complex(np.sqrt(0.64)), 1.0, 1.0, 0.5, trap,
        )
        e0 = energy(s0)
        drifts = [abs(energy(gpe2_solve(s0, 0.3, dt)) - e0) for dt in (2e-3, 1e-3)]
        assert drifts[0] < 1e-7
        assert 3.4 <= drifts[0] / drifts[1] <= 4.6

    def test_weak_coupling_phase_map(self, grid, trap_ground):
        """Relative phase follows the frozen-profile prediction, with the
        deviation shrinking as the coupling scale drops."""
        trap = harmonic_trap(grid)
        ground = trap_ground
        deviations = []
        for scale in (1.0, 0.5, 0.25):
            s = TwoModeState(
                ground.state, ground.state,
                complex(np.sqrt(0.36)), complex(np.sqrt(0.64)),
                g11=1.0 * scale, g22=1.0 * scale, g12=0.5 * scale, V=trap,
            )
            check = bec_phase_check(s, t=0.1, dt=1e-4)
            deviations.append(check.deviation)
        assert deviations[0] < 0.01
        assert deviations[0] > deviations[1] > deviations[2]

    def test_predicted_form_matches_expected_algebra(self, grid, trap_ground):
        """With equal diagonal couplings and shared profiles the prediction
        reduces to t * I4 * (g11 - g12) * (w1 - w2)."""
        trap = harmonic_trap(grid)
        ground = trap_ground
        w1 = 0.36
        s = TwoModeState(
            ground.state, ground.state, complex(np.sqrt(w1)), complex(np.sqrt(1 - w1)),
            g11=1.0, g22=1.0, g12=0.4, V=trap,
        )
        check = bec_phase_check(s, t=0.05, dt=1e-4)
        i4 = float(np.sum(ground.state.density() ** 2) * grid.dx)
        expected = 0.05 * i4 * (1.0 - 0.4) * (w1 - (1 - w1))
        assert check.predicted_relative == pytest.approx(expected, rel=1e-12)


GUARD_GRID = GridSpec(points=(16,), dx=0.5, x0=-4.0)
FLAT = FieldState.from_samples(np.ones(16), GUARD_GRID)


class TestGuards:
    # name: (call, fragment of its ValueError)
    CASES = {
        "zero-samples": (lambda: FieldState.from_samples(np.zeros(16), GUARD_GRID),
                         "unnormalizable"),
        "negative-time": (lambda: split_step_solve(FLAT, np.sqrt, 1.0, -0.1, 0.01),
                          r"time must be >= 0, got -0\.1"),
        "zero-dt": (lambda: split_step_solve(FLAT, np.sqrt, 1.0, 0.1, 0.0),
                    r"dt must be positive, got 0\.0"),
        "negative-dt": (lambda: split_step_solve(FLAT, np.sqrt, 1.0, 0.1, -0.01),
                        r"dt must be positive, got -0\.01"),
        "modes-on-two-grids": (
            lambda: TwoModeState(FLAT, FieldState.from_samples(np.ones(16), GridSpec((16,), 0.25)),
                                 1.0, 0.0, 1.0, 1.0, 0.5, np.zeros(16)),
            "both modes must share one grid"),
        "non-finite-potential": (
            lambda: ground_state(np.where(np.arange(16) == 3, np.inf, 0.0), GUARD_GRID),
            "potential must be finite"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_refuses(self, case):
        call, message = self.CASES[case]
        with pytest.raises(ValueError, match=message):
            call()
