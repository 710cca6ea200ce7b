"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line. Desk
scale throughout: at most 6 principal qubits (64 grid sites, 8x8 in 2-d).

Every evolution run here goes through `evolve`, which itself enforces the
norm bound |norm - 1| < 1e-10 and raises on violation, so criterion 3 is
active in every other criterion as well as in its dedicated long run.
"""

import math
import time

import numpy as np
import pytest

from nlqsim import evolution, nlcompiler, oracle, problems, statevec
from nlqsim.cli import instrumented_counts
from nlqsim.evolution import KineticSpec, evolve, observables
from nlqsim.nlcompiler import (
    CouplingMatrix,
    apply_w_direct,
    compile_w,
    dense_sparsity,
    estimate_resources,
    execute,
    gammas_from_coupling,
)
from nlqsim.oracle import (
    FieldState,
    TwoModeState,
    bec_phase_check,
    ground_state,
    kernel_potential,
    split_step_solve,
)
from nlqsim.problems import (
    GridSpec,
    KernelSpec,
    gaussian_packet,
    gross_pitaevskii_coupling,
    hartree_coupling,
    navier_stokes_coupling,
    plane_wave_amplitudes,
    uniform_amplitudes,
)
from nlqsim.statevec import init_from_amplitudes

from conftest import random_coupling, random_register
from support import (
    convergence_ratios,
    fidelity,
    global_phase_aligned,
    madelung_fields,
    tensor_square,
    zero_coupling,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


# --- shared Hartree benchmark configuration (6 qubits, 64 sites) -----------

HARTREE_GRID = GridSpec(points=(64,), dx=0.25, x0=-8.0)
HARTREE_KERNEL = KernelSpec("gaussian", sigma=1.0, amplitude=2.0)
HARTREE_CT = 1.0
HARTREE_T = 1.6


def hartree_initial_register():
    a0 = gaussian_packet(HARTREE_GRID, center=-2.0, sigma=1.0, kappa=-1.0)
    return init_from_amplitudes(a0)


def hartree_errors(eps_list):
    """(infidelity, aligned-l2-error) of the stepped run vs the reference,
    both integrated to the same final time, reference at dt = eps/20."""
    f = hartree_coupling(HARTREE_KERNEL, HARTREE_GRID)
    spec = KineticSpec(HARTREE_CT, HARTREE_GRID)
    r0 = hartree_initial_register()
    phi0 = FieldState.from_amplitudes(r0.ancilla0.copy(), HARTREE_GRID)
    rule = kernel_potential(HARTREE_KERNEL, HARTREE_GRID)
    rows = []
    for eps in eps_list:
        n_steps = evolution.n_steps_for(HARTREE_T, eps)
        t_run = n_steps * eps
        result = evolve(r0, f, spec, n_steps, eps, mode="direct")
        ref = split_step_solve(phi0, rule, HARTREE_CT, t_run, eps / 20.0)
        ref_amps = ref.to_amplitudes()
        out = result.final.ancilla0
        ov = np.vdot(ref_amps, out)
        infid = 1.0 - abs(ov)
        l2 = float(np.linalg.norm(out * np.exp(-1j * np.angle(ov)) - ref_amps))
        rows.append((infid, l2))
    return rows


def ratios(values):
    return [values[i] / values[i + 1] for i in range(len(values) - 1)]


class TestCriterion1:
    def test_compiler_oracle_equivalence(self):
        """100 random (state, symmetric coupling, step) cases at n <= 5:
        compiled sequence matches the direct diagonal to 1e-12."""
        rng = np.random.default_rng(101)
        start = time.monotonic()
        worst = 1.0
        for case in range(100):
            n = int(rng.integers(1, 6))
            r = random_register(rng, n)
            f = random_coupling(rng, n)
            eps = float(rng.uniform(1e-3, 0.3))
            direct = apply_w_direct(r.copy(), f, eps)
            compiled = execute(compile_w(f, eps), r.copy())
            worst = min(worst, fidelity(direct, compiled))
        elapsed = time.monotonic() - start
        report(
            "C1 compiler-oracle equivalence",
            worst >= 1 - 1e-12 and elapsed < 60.0,
            f"min fidelity deficit {1 - worst:.2e} over 100 cases, {elapsed:.1f} s",
        )


class TestCriterion2:
    def test_trotter_order_infidelity_band(self):
        """Infidelity halving ratios must lie in [1.6, 2.6] across three
        halvings of the step size (reference at dt = eps/20).

        Observed behavior: the overlap deficit 1 - |<ref|run>| of a
        first-order splitting scales quadratically in eps, because fidelity
        is stationary at 1 and measures the squared orthogonal component of
        the O(eps) state error; the measured ratios sit at 4, not 2. The
        companion test below shows the same runs pass the band on the
        state-error metric, which is the quantity that is first order.
        """
        rows = hartree_errors([0.08, 0.04, 0.02, 0.01])
        infid_ratios = ratios([row[0] for row in rows])
        ok = all(1.6 <= r <= 2.6 for r in infid_ratios)
        report(
            "C2 first-order stepping, infidelity-ratio band [1.6, 2.6]",
            ok,
            "ratios " + ", ".join(f"{r:.3f}" for r in infid_ratios),
        )

    def test_supplement_first_order_state_error(self):
        """Supplementary evidence (not a numbered criterion): the aligned
        L2 state error against the reference halves with eps, confirming the
        stepping scheme is first order with the predicted constant-ratio
        behavior across the same three halvings."""
        rows = hartree_errors([0.08, 0.04, 0.02, 0.01])
        l2_ratios = ratios([row[1] for row in rows])
        ok = all(1.6 <= r <= 2.6 for r in l2_ratios)
        report(
            "C2-supplement first-order state-error ratios",
            ok,
            "ratios " + ", ".join(f"{r:.3f}" for r in l2_ratios),
        )


class TestCriterion3:
    def test_norm_conservation_long_run(self):
        """10^4 steps at 6 qubits stay within 1e-10 of unit norm. Every other
        acceptance run enforces the same bound inside `evolve`."""
        f = hartree_coupling(HARTREE_KERNEL, HARTREE_GRID)
        spec = KineticSpec(HARTREE_CT, HARTREE_GRID)
        n_steps = evolution.n_steps_for(100.0, 0.01)
        result = evolve(hartree_initial_register(), f, spec, n_steps, 0.01)
        ok = result.tally.n_steps == 10**4 and result.norm_drift < 1e-10
        report(
            "C3 norm conservation",
            ok,
            f"drift {result.norm_drift:.2e} over {result.tally.n_steps} steps",
        )


class TestCriterion4:
    def test_gate_count_claims(self):
        rng = np.random.default_rng(404)
        failures = []

        # closed forms for the dense case, n = 1..6
        for n in range(1, 7):
            big_n = 2**n - 1
            tally = estimate_resources(n, 1)
            if tally.nonlinear_count != (big_n + 1) * (big_n + 2) // 2:
                failures.append(f"dense nonlinear count at n={n}")
            if tally.mcx_count != 2 * (big_n + 1) + 2 * (big_n + 1) * big_n:
                failures.append(f"dense flip count at n={n}")

        # instrumented execution reproduces the closed form exactly
        for n in (1, 2, 3, 4):
            f = random_coupling(rng, n)
            seq = compile_w(f, 0.1)
            counts = instrumented_counts(seq, random_register(rng, n))
            singles, pairs = gammas_from_coupling(f, 0.1).sparsity()
            if counts != estimate_resources(n, 1, singles=singles, pairs=pairs).per_step:
                failures.append(f"instrumented mismatch at n={n}")

        # accumulated run tally equals per-step counts times the step count
        grid = GridSpec(points=(8,), dx=0.5)
        f = navier_stokes_coupling(1.0, grid)
        spec = KineticSpec(0.5, grid)
        r0 = init_from_amplitudes(gaussian_packet(grid, -1.0, 0.7))
        result = evolve(r0, f, spec, evolution.n_steps_for(0.7, 0.1), 0.1, mode="compiled")
        singles, pairs = gammas_from_coupling(f, 0.1).sparsity()
        expected = estimate_resources(3, 7, singles=singles, pairs=pairs)
        if result.tally.total != expected.total:
            failures.append("evolution tally mismatch")

        # quadratic growth: +1 qubit multiplies the nonlinear count by ~4
        growth = [
            estimate_resources(n + 1, 1).nonlinear_count
            / estimate_resources(n, 1).nonlinear_count
            for n in range(1, 6)
        ]
        if not all(b > a for a, b in zip(growth, growth[1:])):
            failures.append("growth ratios not monotone")
        if abs(growth[-1] - 4.0) > 0.1:
            failures.append(f"asymptotic ratio {growth[-1]:.3f} not near 4")

        report(
            "C4 gate-count claims",
            not failures,
            "; ".join(failures) if failures else
            f"growth ratios {', '.join(f'{g:.3f}' for g in growth)}",
        )


class TestCriterion5:
    def test_contact_limit_and_frozen_density(self):
        grid = GridSpec(points=(64,), dx=0.25, x0=-8.0)
        g = 1.3
        via_kernel = hartree_coupling(KernelSpec("contact", g=g), grid)
        direct = gross_pitaevskii_coupling(g, grid)
        identical = np.array_equal(via_kernel.dense, direct.dense)

        spec = KineticSpec(0.5, grid)
        r0 = init_from_amplitudes(uniform_amplitudes(grid))
        result = evolve(r0, direct, spec, evolution.n_steps_for(100.0, 0.1), 0.1, mode="compiled")
        dens = np.abs(result.final.ancilla0) ** 2
        dev = float(np.max(np.abs(dens - 1.0 / 64.0)))
        ok = identical and result.tally.n_steps == 1000 and dev < 1e-10
        report(
            "C5 contact limit",
            ok,
            f"matrices bit-identical: {identical}; density deviation {dev:.2e} "
            f"after {result.tally.n_steps} steps",
        )


class TestCriterion6:
    def test_navier_stokes_stencil(self):
        # step angles must stay small against the marginal sound modes this
        # stencil produces, so the grid spacing is kept at 1 here; stiffer
        # parameter sets drive a parametric instability of the splitting
        grid = GridSpec(points=(64,), dx=1.0, x0=-32.0)
        rho0 = 1.0 / 64.0  # uniform physical density on this grid
        f = navier_stokes_coupling(rho0, grid)

        rows_zero = all(math.fsum(row) == 0.0 for row in f.dense)

        spec = KineticSpec(0.5, grid)
        r0 = init_from_amplitudes(uniform_amplitudes(grid))
        n_steps = evolution.n_steps_for(10.0, 0.05)
        with_coupling = evolve(r0, f, spec, n_steps, 0.05, mode="compiled")
        without = evolve(r0, zero_coupling(64), spec, n_steps, 0.05, mode="compiled")
        fid = fidelity(with_coupling.final, without.final)

        mode = 2
        kappa = 2 * np.pi * mode / (64 * grid.dx)
        r_wave = init_from_amplitudes(plane_wave_amplitudes(grid, mode))
        fields = madelung_fields(r_wave, grid)
        vel_err = float(np.max(np.abs(fields.u[0] - kappa)) / kappa)

        ok = rows_zero and fid >= 1 - 1e-10 and vel_err < 0.02
        report(
            "C6 quantum-pressure stencil",
            ok,
            f"row sums zero: {rows_zero}; uniform-state fidelity deficit "
            f"{1 - fid:.2e}; plane-wave velocity error {vel_err:.3%}",
        )


class TestCriterion7:
    def test_bec_phase_map_sweep(self):
        grid = GridSpec(points=(128,), dx=20.0 / 128, x0=-10.0)
        x = grid.coords(0)
        trap = 0.5 * x**2
        ground = ground_state(trap, grid)
        deviations = []
        for scale in (1.0, 0.5, 0.25):
            state = TwoModeState(
                ground.state, ground.state,
                complex(np.sqrt(0.36)), complex(np.sqrt(0.64)),
                g11=1.0 * scale, g22=1.0 * scale, g12=0.5 * scale, V=trap,
            )
            deviations.append(bec_phase_check(state, t=0.1, dt=1e-4).deviation)
        monotone = deviations[0] > deviations[1] > deviations[2]
        ok = deviations[2] < 0.01 and monotone
        report(
            "C7 condensate phase map",
            ok,
            "deviations " + ", ".join(f"{d:.5f}" for d in deviations),
        )


class TestCriterion8:
    def test_oracle_self_checks(self):
        grid = GridSpec(points=(128,), dx=20.0 / 128, x0=-10.0)
        phi0 = FieldState.from_samples(
            gaussian_packet(grid, center=-1.0, sigma=1.2, kappa=0.8), grid
        )
        rule = kernel_potential(KernelSpec("gaussian", sigma=1.0, amplitude=3.0), grid)
        rr = convergence_ratios(phi0, rule, c_T=1.0, t=0.5,
                                dts=[0.02, 0.01, 0.005, 0.0025])
        second_order = all(3.4 <= r <= 4.6 for r in rr)

        x = grid.coords(0)
        ground = ground_state(0.5 * x**2, grid)
        psq = 0.5 * (2 * np.pi * np.fft.fftfreq(128, d=grid.dx)) ** 2
        phi_hat = np.fft.fft(ground.state.values)
        kin = float(
            np.sum(psq * np.abs(phi_hat) ** 2) / 128 * grid.dx
        )
        pot = float(np.sum(0.5 * x**2 * ground.state.density()) * grid.dx)
        energy = kin + pot
        energy_ok = abs(energy - 0.5) / 0.5 < 0.005

        ok = second_order and energy_ok
        report(
            "C8 reference-solver self-checks",
            ok,
            f"step ratios {', '.join(f'{r:.2f}' for r in rr)}; "
            f"trap ground-state energy {energy:.6f} (target 0.5)",
        )


class TestCriterion9:
    def test_multi_copy_quartic_phases(self):
        """One potential application on the doubled register produces the
        predicted phases, linear in the doubled weights and hence quartic in
        the original amplitudes."""
        rng = np.random.default_rng(909)
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        a /= np.linalg.norm(a)
        r = init_from_amplitudes(a)
        doubled = tensor_square(r)

        mat = rng.normal(size=(16, 16))
        big_f = CouplingMatrix.from_dense((mat + mat.T) / 2.0)
        eps = 0.21
        compiled = execute(compile_w(big_f, eps), doubled.copy())

        # independent computation straight from the original amplitudes
        w = np.abs(a) ** 2
        quartic_weights = np.outer(w, w).reshape(-1)
        phases = -eps * (big_f.dense @ quartic_weights)
        expected_amps = np.outer(a, a).reshape(-1) * np.exp(1j * phases)
        expected = init_from_amplitudes(expected_amps)

        aligned = global_phase_aligned(expected, compiled)
        max_err = float(np.max(np.abs(aligned - expected.amps)))
        ok = max_err < 1e-12 and fidelity(expected, compiled) >= 1 - 1e-12
        report(
            "C9 multi-copy quartic phases",
            ok,
            f"max aligned amplitude error {max_err:.2e}",
        )
