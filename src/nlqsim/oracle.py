"""Independent classical reference solvers.

These integrate the same physics as the gate-level path but share none of its
machinery: fields live in physical normalization (sum |phi|^2 dV = 1), and
the potentials are built from the physics, never through a coupling matrix:
the nonlocal potential by circular convolution of the kernel with the density
on real-input FFTs, the contact potential as g*rho pointwise and the
Navier-Stokes potential from a Laplacian of rolled density grids, and a
coupling that has no other definition (custom-f) from the oracle's own read
of its triplet file. Time stepping is Strang splitting (half kinetic, full
potential, half kinetic), second order in dt, with the half-kinetic factors
of neighbouring steps merged into one full factor. One such loop (`_strang`)
steps every real-time solve: one field for `split_step_solve`, the two
stacked modes for `gpe2_solve`. Benchmarks run the reference at a far
smaller step than the run under test so its own error is negligible.

Also here: imaginary-time ground-state preparation, which keeps its own loop
because it takes the density before the half kinetic step and renormalizes
every step, and the two-component condensate check that a weakly coupled,
trap-stationary pair of modes accumulates relative phase
t*(g_eff_11 - g_eff_12)*|alpha|^2 + t*(g_eff_12 - g_eff_22)*|beta|^2, with
effective couplings given by overlap integrals of the stationary profiles.
The prediction holds exactly only for frozen profiles; the check quantifies
the deviation, which shrinks with coupling strength and time.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .evolution import SimulationError
from .problems import GridSpec, KernelSpec

#: physical-normalization tolerance for field states
FIELD_NORM_TOL = 1e-10

PotentialRule = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class FieldState:
    """Complex field samples phi(x_k) with sum |phi|^2 * dV = 1."""

    values: np.ndarray
    grid: GridSpec

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128).reshape(self.grid.points)
        object.__setattr__(self, "values", v)
        nrm = self.norm()
        if not np.isfinite(nrm) or abs(nrm - 1.0) > FIELD_NORM_TOL:
            raise ValueError(f"field is not normalized: |phi| = {nrm!r}")

    def norm(self) -> float:
        return float(
            np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.cell_volume)
        )

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    @classmethod
    def from_samples(cls, values, grid: GridSpec) -> "FieldState":
        """Normalize arbitrary samples into a field state."""
        v = np.asarray(values, dtype=np.complex128).reshape(grid.points)
        nrm = np.sqrt(np.sum(np.abs(v) ** 2) * grid.cell_volume)
        if not np.isfinite(nrm) or nrm == 0.0:
            raise ValueError("unnormalizable")
        return cls(v / nrm, grid)

    @classmethod
    def from_amplitudes(cls, a: np.ndarray, grid: GridSpec) -> "FieldState":
        """Convert register amplitudes (sum |a|^2 = 1) to a physical field."""
        a = np.asarray(a, dtype=np.complex128).reshape(grid.points)
        return cls(a / np.sqrt(grid.cell_volume), grid)

    def to_amplitudes(self) -> np.ndarray:
        """Flat register amplitudes a_k = phi_k * sqrt(dV)."""
        return (self.values * np.sqrt(self.grid.cell_volume)).reshape(-1)


def _momentum_sq(grid: GridSpec) -> np.ndarray:
    axes = [2.0 * np.pi * np.fft.fftfreq(m, d=grid.dx) for m in grid.points]
    if grid.dims == 1:
        return axes[0] ** 2
    p0, p1 = axes
    return (p0**2)[:, None] + (p1**2)[None, :]


def _transforms(grid: GridSpec):
    """(fft, ifft, rfft, irfft) over all axes of a field on the grid.

    A 1-d grid gets the 1-d functions, which skip fftn's axis handling
    (about half of a 13 us fftn call at 64 points, numpy 2.4); irfft is
    bound to the grid's shape.
    """
    if grid.dims == 1:
        return np.fft.fft, np.fft.ifft, np.fft.rfft, partial(np.fft.irfft, n=grid.points[0])
    return np.fft.fft2, np.fft.ifft2, np.fft.rfft2, partial(np.fft.irfft2, s=grid.points)


def kernel_potential(kernel: KernelSpec, grid: GridSpec) -> PotentialRule:
    """V = (Phi * rho) evaluated by FFT circular convolution.

    The kernel is wrapped to minimal image on the grid; the quadrature weight
    dV multiplies the convolution sum and is folded into the kernel's
    transform. Kernel and density are real, so the convolution runs on
    real-input transforms. The contact kernel g*delta needs no convolution:
    its rule is V = g*rho pointwise. Independent of any coupling matrix.
    """
    if kernel.form == "contact":
        g = kernel.g
        return lambda density: g * density
    if grid.dims == 1:
        w = kernel.grid_samples(grid)
    else:
        if kernel.form == "tabulated":
            raise ValueError("tabulated kernels require a 1-d grid")
        deltas = [grid.wrapped_deltas(ax)[0] for ax in range(grid.dims)]
        rsq = (deltas[0] ** 2)[:, None] + (deltas[1] ** 2)[None, :]
        w = kernel.radial(np.sqrt(rsq) * grid.dx)
    _, _, rfft, irfft = _transforms(grid)
    w_hat = rfft(w) * grid.cell_volume

    def rule(density: np.ndarray) -> np.ndarray:
        return irfft(w_hat * rfft(density))

    return rule


def laplacian_potential(rho0: float, grid: GridSpec) -> PotentialRule:
    """V = lap(rho) / (4 rho0), the Navier-Stokes pressure-cancelling potential.

    The periodic Laplacian sums roll(+1) + roll(-1) - 2*rho over each axis of
    the field grid, so a 2-point axis counts its one neighbour twice.
    Independent of any coupling matrix.
    """
    if not rho0 > 0:
        raise ValueError(f"reference density must be positive, got {rho0}")
    scale = 1.0 / (4.0 * rho0 * grid.dx**2)

    def rule(density: np.ndarray) -> np.ndarray:
        lap = -2.0 * grid.dims * density
        for axis in range(grid.dims):
            lap += np.roll(density, 1, axis=axis)
            lap += np.roll(density, -1, axis=axis)
        return lap * scale

    return rule


def coupling_potential(path, grid: GridSpec) -> PotentialRule:
    """V_k = sum_j f_kj * |a_j|^2 with |a_j|^2 = rho_j * dV, for f given as a
    triplet CSV (header k,j,f).

    The file is read here, not through the gate path's coupling: each row
    (k, j, v) sets f_kj = f_jk = v, so for a repeated position the last row
    wins, and V is accumulated entry by entry with np.add.at.
    """
    cells: dict[tuple[int, int], float] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:3]] != ["k", "j", "f"]:
            raise ValueError(f"{path}: expected header k,j,f")
        for row in reader:
            if not row:
                continue
            if len(row) < 3:
                raise ValueError(f"{path}: line {reader.line_num} needs k,j,f, got {row!r}")
            k, j = int(row[0]), int(row[1])
            if not (0 <= k < grid.size and 0 <= j < grid.size):
                raise ValueError(f"{path}: index ({k},{j}) out of range for {grid.size} sites")
            cells[k, j] = cells[j, k] = float(row[2])
    rows = np.array([k for k, _ in cells], dtype=np.intp)
    cols = np.array([j for _, j in cells], dtype=np.intp)
    vals = np.array(list(cells.values()), dtype=np.float64)

    def rule(density: np.ndarray) -> np.ndarray:
        weights = density.reshape(-1) * grid.cell_volume
        v = np.zeros(grid.size)
        np.add.at(v, rows, vals * weights[cols])
        return v.reshape(grid.points)

    return rule


def _strang(values, grid, potential, c_T, t, dt, check_interval, labels):
    """Fused Strang integration of one field, or of several stacked on a
    leading axis, up to time t; returns the evolved values.

    Each step is half-kinetic, full-potential (densities frozen during the
    phase-only potential step, so that substep is exact), half-kinetic; the
    scheme is second order in dt. The trailing half-kinetic of one step and
    the leading one of the next merge into one full kinetic factor, so the
    fields stay in momentum space between steps and a step costs one inverse
    and one forward transform per field. The step count is round(t/dt) and
    dt is adjusted to land on t exactly. The potential rule maps the
    densities to potentials of the same shape. Each field's norm is checked
    right after the potential phase every check_interval steps and at the
    last step; drift beyond 1e-6 or non-finite values abort with an error
    that starts with the field's label and suggests a smaller dt.
    """
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    if t == 0:
        return values.copy()
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = max(1, round(t / dt))
    dt = t / n
    fft, ifft, _, _ = _transforms(grid)
    half_kin = np.exp(-0.5j * dt * c_T * _momentum_sq(grid))
    full_kin = half_kin**2
    grid_axes = tuple(range(-grid.dims, 0))
    phi_hat = half_kin * fft(values)
    for step in range(1, n + 1):
        phi = ifft(phi_hat)
        phi *= np.exp(-1j * dt * potential(np.abs(phi) ** 2))
        if step % check_interval == 0 or step == n:
            norms = np.sqrt(np.sum(np.abs(phi) ** 2, axis=grid_axes) * grid.cell_volume)
            for label, nrm in zip(labels, np.atleast_1d(norms)):
                if not np.isfinite(nrm) or abs(nrm - 1.0) > 1e-6:
                    raise SimulationError(
                        f"{label}norm drifted to {nrm!r} at step {step}; reduce dt"
                    )
        phi_hat = fft(phi)
        phi_hat *= full_kin if step < n else half_kin
    return ifft(phi_hat)


def split_step_solve(
    phi0: FieldState,
    potential: PotentialRule,
    c_T: float,
    t: float,
    dt: float,
    check_interval: int = 50,
) -> FieldState:
    """Fused Strang split-step integration of one field up to time t (see
    `_strang`); the norm is checked every check_interval steps."""
    values = _strang(phi0.values, phi0.grid, potential, c_T, t, dt, check_interval, ("",))
    return FieldState(values, phi0.grid)


@dataclass(frozen=True)
class TwoModeState:
    """Two spatial modes with weights (alpha, beta) and contact couplings.

    The modes evolve under i d/dt phi_i = (-1/2 d^2/dx^2 + V
    + sum_j g_ij * w_j * |phi_j|^2) phi_i, where w_1 = |alpha|^2 and
    w_2 = |beta|^2 are the fixed mode weights of the mean-field reduction.
    """

    phi1: FieldState
    phi2: FieldState
    alpha: complex
    beta: complex
    g11: float
    g22: float
    g12: float
    V: np.ndarray

    def __post_init__(self):
        if self.phi1.grid != self.phi2.grid:
            raise ValueError("both modes must share one grid")
        wsum = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(wsum - 1.0) > 1e-12:
            raise ValueError(f"|alpha|^2 + |beta|^2 must be 1, got {wsum!r}")
        V = np.asarray(self.V, dtype=np.float64).reshape(self.phi1.grid.points)
        object.__setattr__(self, "V", V)

    @property
    def grid(self) -> GridSpec:
        return self.phi1.grid


def gpe2_solve(s: TwoModeState, t: float, dt: float) -> TwoModeState:
    """Coupled symmetric split-step evolution of both modes.

    The modes are stacked and stepped together by `_strang` with c_T = 1/2.
    Both densities are frozen during the joint potential substep (it is
    phase-only for each mode), so the coupling term is handled exactly within
    the substep and the scheme stays second order.
    """
    w1 = abs(s.alpha) ** 2
    w2 = abs(s.beta) ** 2

    def potential(densities: np.ndarray) -> np.ndarray:
        d1, d2 = densities
        return np.stack([
            s.V + s.g11 * w1 * d1 + s.g12 * w2 * d2,
            s.V + s.g12 * w1 * d1 + s.g22 * w2 * d2,
        ])

    values = np.stack([s.phi1.values, s.phi2.values])
    p1, p2 = _strang(values, s.grid, potential, 0.5, t, dt, 100, ("mode 1 ", "mode 2 "))
    return replace(s, phi1=FieldState(p1, s.grid), phi2=FieldState(p2, s.grid))


@dataclass(frozen=True)
class GroundState:
    state: FieldState
    mu: float
    residual: float
    iterations: int


def _residual(phi, V, g, grid, c_T):
    fft, ifft, _, _ = _transforms(grid)
    h_phi = ifft(c_T * _momentum_sq(grid) * fft(phi)) + (V + g * np.abs(phi) ** 2) * phi
    mu = float(np.real(np.sum(np.conj(phi) * h_phi) * grid.cell_volume))
    res = float(np.linalg.norm(h_phi - mu * phi) / np.linalg.norm(phi))
    return res, mu


def imaginary_time_ground_state(
    V: np.ndarray,
    g_eff: float,
    grid: GridSpec,
    c_T: float = 0.5,
    tol: float = 1e-8,
    dtau_min: float = 1e-4,
) -> GroundState:
    """Ground state of T + V + g_eff*|phi|^2 by imaginary-time relaxation.

    Symmetric split stepping with renormalization after every step. The
    nonlinear factor uses the density of the renormalized state entering the
    step, which keeps the fixed-point bias at second order in the step size.
    The step size starts at 0.05 and is divided by 4 whenever the residual
    stops improving (each fixed point is accurate to O(dtau^2), so refining
    the step lowers the reachable residual floor) until the residual
    |H phi - mu phi| / |phi| falls below tol. Runs that exhaust the schedule
    or 2,000,000 iterations raise with the residual reached.
    """
    V = np.asarray(V, dtype=np.float64).reshape(grid.points)
    if not np.all(np.isfinite(V)):
        raise ValueError("potential must be finite")
    fft, ifft, _, _ = _transforms(grid)
    psq = _momentum_sq(grid)
    # ground-state guess: Boltzmann-like envelope on the potential well
    vspan = np.max(V) - np.min(V)
    phi = np.exp(-(V - np.min(V)) / (vspan + 1.0)).astype(np.complex128)
    phi /= np.sqrt(np.sum(np.abs(phi) ** 2) * grid.cell_volume)

    dtau = 0.05
    max_iter = 2_000_000
    half = np.exp(-0.5 * dtau * c_T * psq)
    res_prev = np.inf
    iterations = 0
    res, mu = _residual(phi, V, g_eff, grid, c_T)
    if res < tol:
        return GroundState(FieldState(phi, grid), mu, res, iterations)
    while iterations < max_iter:
        window = max(25, int(round(1.0 / dtau)))
        for _ in range(window):
            iterations += 1
            dens = np.abs(phi) ** 2
            phi = ifft(half * fft(phi))
            phi = phi * np.exp(-dtau * (V + g_eff * dens))
            phi = ifft(half * fft(phi))
            phi /= np.sqrt(np.sum(np.abs(phi) ** 2) * grid.cell_volume)
        res, mu = _residual(phi, V, g_eff, grid, c_T)
        if res < tol:
            return GroundState(FieldState(phi, grid), mu, res, iterations)
        if res > 0.5 * res_prev:
            if dtau <= dtau_min:
                raise SimulationError(
                    f"imaginary-time relaxation stalled at residual {res:.3e} "
                    f"(target {tol:.1e}) after {iterations} iterations"
                )
            dtau /= 4.0
            half = np.exp(-0.5 * dtau * c_T * psq)
            res_prev = np.inf
        else:
            res_prev = res
    raise SimulationError(
        f"imaginary-time relaxation did not reach residual {tol:.1e} within "
        f"{max_iter} iterations (reached {res:.3e})"
    )


@dataclass(frozen=True)
class PhaseCheck:
    """Measured vs predicted mode phases of the two-mode evolution.

    Phases are arg<phi_i(t)|phi_i(0)> so a mode evolving as exp(-i*mu*t)
    reports +mu*t. The predicted relative phase uses the frozen-profile map
    with overlap-integral effective couplings; deviation is relative to the
    predicted relative phase (absolute when that prediction is zero).
    """

    measured: tuple[float, float]
    predicted: tuple[float, float]
    measured_relative: float
    predicted_relative: float
    deviation: float


def bec_phase_check(s: TwoModeState, t: float, dt: float | None = None) -> PhaseCheck:
    """Evolve the two-mode state and compare phases with the frozen-profile map.

    Effective couplings g_eff_ij = g_ij * integral |phi_i|^2 |phi_j|^2 dV are
    computed from the initial profiles; the predicted per-mode phases are
    t*(g_eff_i1*|alpha|^2 + g_eff_i2*|beta|^2). The trap/kinetic baseline
    phase is common to both modes, so the comparison uses the relative phase.
    """
    if dt is None:
        dt = min(1e-3, t / 100) if t > 0 else 1e-3
    grid = s.grid
    dV = grid.cell_volume
    d1 = s.phi1.density()
    d2 = s.phi2.density()
    overlap_11 = float(np.sum(d1 * d1) * dV)
    overlap_22 = float(np.sum(d2 * d2) * dV)
    overlap_12 = float(np.sum(d1 * d2) * dV)
    w1 = abs(s.alpha) ** 2
    w2 = abs(s.beta) ** 2
    predicted_1 = t * (s.g11 * overlap_11 * w1 + s.g12 * overlap_12 * w2)
    predicted_2 = t * (s.g12 * overlap_12 * w1 + s.g22 * overlap_22 * w2)

    if t == 0:
        measured_1 = measured_2 = 0.0
    else:
        evolved = gpe2_solve(s, t, dt)
        measured_1 = float(
            np.angle(np.sum(np.conj(evolved.phi1.values) * s.phi1.values) * dV)
        )
        measured_2 = float(
            np.angle(np.sum(np.conj(evolved.phi2.values) * s.phi2.values) * dV)
        )

    meas_rel = measured_1 - measured_2
    pred_rel = predicted_1 - predicted_2
    if pred_rel != 0.0:
        deviation = abs(meas_rel - pred_rel) / abs(pred_rel)
    else:
        deviation = abs(meas_rel)
    return PhaseCheck(
        measured=(measured_1, measured_2),
        predicted=(predicted_1, predicted_2),
        measured_relative=meas_rel,
        predicted_relative=pred_rel,
        deviation=deviation,
    )


def convergence_ratios(
    phi0: FieldState,
    potential: PotentialRule,
    c_T: float,
    t: float,
    dts: list[float],
) -> list[float]:
    """Successive-difference step-halving ratios for the split-step solver.

    err_j = |phi(dt_j) - phi(dt_{j+1})| in the discrete 2-norm; for a
    second-order scheme the ratio err_j / err_{j+1} approaches 4.
    """
    finals = [
        split_step_solve(phi0, potential, c_T, t, dt).values.reshape(-1) for dt in dts
    ]
    errs = [
        float(np.linalg.norm(finals[i] - finals[i + 1]))
        for i in range(len(finals) - 1)
    ]
    return [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]


def field_to_csv(state: FieldState, path) -> None:
    """Write (x, re, im) rows for 1-d fields, (x0, x1, re, im) for 2-d."""
    grid = state.grid
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if grid.dims == 1:
            writer.writerow(["x", "re", "im"])
            x = grid.coords(0)
            for k, v in enumerate(state.values.reshape(-1)):
                writer.writerow(
                    [repr(float(x[k])), repr(float(v.real)), repr(float(v.imag))]
                )
        else:
            writer.writerow(["x0", "x1", "re", "im"])
            x0 = grid.coords(0)
            x1 = grid.coords(1)
            for i0 in range(grid.points[0]):
                for i1 in range(grid.points[1]):
                    v = state.values[i0, i1]
                    writer.writerow(
                        [
                            repr(float(x0[i0])),
                            repr(float(x1[i1])),
                            repr(float(v.real)),
                            repr(float(v.imag)),
                        ]
                    )


def field_from_csv(path, grid: GridSpec) -> FieldState:
    """Read a field written by `field_to_csv` (values normalized on load)."""
    values = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty field file")
        ncoord = len(header) - 2
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path}: line {reader.line_num} has {len(row)} fields, "
                                 f"header has {len(header)}")
            values.append(complex(float(row[ncoord]), float(row[ncoord + 1])))
    if len(values) != grid.size:
        raise ValueError(f"{path}: expected {grid.size} samples, got {len(values)}")
    return FieldState.from_samples(np.array(values), grid)
