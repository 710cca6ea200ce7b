"""Independent classical reference solvers.

These integrate the same physics as the gate-level path but share none of its
machinery: fields live in physical normalization (sum |phi|^2 dV = 1), and
the potentials are built from the physics, never through a coupling matrix:
the nonlocal potential by circular convolution of the kernel with the density
on real-input FFTs, the contact potential as g*rho pointwise and the
Navier-Stokes potential from a Laplacian of rolled density grids. The one
exception is a coupling with no other definition (custom-f): its file is the
problem, so its cells come from `problems.triplet_cells`, the reader the gate
path uses, and only the potential is accumulated here. Time stepping is a
splitting row of alternating kinetic and potential substeps, with the last
kinetic factor of each step merged into the first of the next. One such loop
(`_split_step`) steps every real-time solve: one field for
`split_step_solve`, the two stacked modes for `gpe2_solve`. The default row
is Strang splitting (half kinetic, full potential, half kinetic), second
order in dt; `gpe2_solve` steps by it, and `split_step_solve` unless given
another row. `compare` steps its reference by the fourth-order `BLANES_MOAN4`
row at the step of the run under test, where its own error is negligible
against that run's first-order error.

Also here: the ground state of a trap, the lowest eigenvector of the dense
kinetic-plus-trap matrix, and the two-component condensate check that a
weakly coupled, trap-stationary pair of modes accumulates relative phase
t*(g_eff_11 - g_eff_12)*|alpha|^2 + t*(g_eff_12 - g_eff_22)*|beta|^2, with
effective couplings given by overlap integrals of the stationary profiles.
The prediction holds exactly only for frozen profiles; the check quantifies
the deviation, which shrinks with coupling strength and time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from .evolution import SimulationError
from .problems import GridSpec, KernelSpec, read_csv, triplet_cells

#: physical-normalization tolerance for field states
FIELD_NORM_TOL = 1e-10

PotentialRule = Callable[[np.ndarray], np.ndarray]

#: kinetic prefactor of the condensate code (`gpe2_solve`, `ground_state`):
#: T = -1/2 d^2/dx^2 = c_T * p^2 with c_T = 1/2
CONDENSATE_C_T = 0.5


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

    The kernel is sampled at minimal image on the grid (`grid_samples`); the
    quadrature weight dV multiplies the convolution sum and is folded into the
    kernel's transform. Kernel and density are real, so the convolution runs
    on real-input transforms. The contact kernel g*delta needs no convolution:
    its rule is V = g*rho pointwise. Independent of any coupling matrix.
    """
    if kernel.form == "contact":
        g = kernel.g
        return lambda density: g * density
    _, _, rfft, irfft = _transforms(grid)
    w_hat = rfft(kernel.grid_samples(grid)) * grid.cell_volume

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
    triplet CSV (header k,j,f). The file is the problem, so its cells come
    from the shared reader (`problems.triplet_cells`), never from the gate
    path's coupling; V is accumulated here entry by entry with np.add.at."""
    rows, cols, vals = triplet_cells(path, grid.size)

    def rule(density: np.ndarray) -> np.ndarray:
        weights = density.reshape(-1) * grid.cell_volume
        v = np.zeros(grid.size)
        np.add.at(v, rows, vals * weights[cols])
        return v.reshape(grid.points)

    return rule


def step_count(t: float, dt: float) -> int:
    """Steps a real-time solve to time t takes at step dt: round(t/dt), at
    least one when t > 0, none when t is 0."""
    return max(1, round(t / dt)) if t > 0 else 0


#: A splitting row ((a_0, ..., a_s), (b_1, ..., b_s)): one step of size dt is
#: K(a_0 dt) V(b_1 dt) K(a_1 dt) ... V(b_s dt) K(a_s dt), with K the kinetic and
#: V the potential flow. The kinetic weights and the potential weights each
#: sum to 1.
Row = tuple[tuple[float, ...], tuple[float, ...]]

#: Strang splitting: half kinetic, full potential, half kinetic; second order
STRANG: Row = ((0.5, 0.5), (1.0,))

_A1, _A2, _A3 = 0.0792036964311957, 0.353172906049774, -0.0420650803577195
_B1, _B2 = 0.209515106613362, -0.143851773179818
#: the palindromic 6-stage fourth-order row of Blanes & Moan (2002, J. Comput.
#: Appl. Math. 142:313): six potential rounds per step
BLANES_MOAN4: Row = (
    (_A1, _A2, _A3, 1.0 - 2.0 * (_A1 + _A2 + _A3), _A3, _A2, _A1),
    (_B1, _B2, 0.5 - _B1 - _B2, 0.5 - _B1 - _B2, _B2, _B1),
)


def _split_step(values, grid, potential, c_T, t, dt, check_interval, labels, row):
    """Fused split-step integration of one field, or of several stacked on a
    leading axis, up to time t by the splitting row `row`; returns the
    evolved values.

    Each potential round is phase-only with the densities frozen at its
    start, so that substep is exact. The trailing kinetic factor of one step
    and the leading one of the next merge into one factor, so the fields stay
    in momentum space between rounds and a round costs one inverse and one
    forward transform per field. The step count is `step_count(t, dt)` and
    dt is adjusted to land on t exactly. The potential rule maps the
    densities to potentials of the same shape. Each field's norm is checked
    right after the last potential round of every check_interval-th step and
    of the last step; drift beyond 1e-6 or non-finite values abort with an
    error that starts with the field's label and suggests a smaller dt.
    """
    if t < 0:
        raise ValueError(f"time must be >= 0, got {t}")
    if t == 0:
        return values.copy()
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    n = step_count(t, dt)
    dt = t / n
    fft, ifft, _, _ = _transforms(grid)
    psq = _momentum_sq(grid)
    a, b = row
    kin = [np.exp(-1j * (w * dt) * c_T * psq) for w in a]
    phases = [-1j * (w * dt) for w in b]
    # the kinetic factor after each potential round; the last one carries
    # into the next step until the last step
    after = [*kin[1:-1], kin[-1] * kin[0]]
    grid_axes = tuple(range(-grid.dims, 0))
    phi_hat = kin[0] * fft(values)
    for step in range(1, n + 1):
        if step == n:
            after[-1] = kin[-1]
        for phase, factor in zip(phases, after):
            phi = ifft(phi_hat)
            phi *= np.exp(phase * potential(np.abs(phi) ** 2))
            phi_hat = fft(phi)
            phi_hat *= factor
        if step % check_interval == 0 or step == n:
            norms = np.sqrt(np.sum(np.abs(phi) ** 2, axis=grid_axes) * grid.cell_volume)
            for label, nrm in zip(labels, np.atleast_1d(norms)):
                if not np.isfinite(nrm) or abs(nrm - 1.0) > 1e-6:
                    raise SimulationError(
                        f"{label}norm drifted to {float(nrm)!r} at step {step}; reduce dt"
                    )
    return ifft(phi_hat)


def split_step_solve(
    phi0: FieldState,
    potential: PotentialRule,
    c_T: float,
    t: float,
    dt: float,
    check_interval: int = 50,
    row: Row = STRANG,
) -> FieldState:
    """Fused split-step integration of one field up to time t by the
    splitting row `row`, Strang by default (see `_split_step`); the norm is
    checked every check_interval steps."""
    values = _split_step(
        phi0.values, phi0.grid, potential, c_T, t, dt, check_interval, ("",), row
    )
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

    The modes are stacked and stepped together by `_split_step` on the Strang
    row with c_T = `CONDENSATE_C_T`. Both densities are frozen during the
    joint potential substep (it is phase-only for each mode), so the coupling
    term is handled exactly within the substep and the scheme stays second
    order.
    """
    w1 = abs(s.alpha) ** 2
    w2 = abs(s.beta) ** 2

    def mode_potential(couplings, densities):
        # V + g_i1*w1*d1 + g_i2*w2*d2, with no term for a coupling that is
        # exactly 0, so a diverged mode cannot reach the other through 0 * NaN
        v = s.V
        for g, w, d in zip(couplings, (w1, w2), densities):
            if g != 0:
                v = v + g * w * d
        return v

    def potential(densities: np.ndarray) -> np.ndarray:
        return np.stack([
            mode_potential((s.g11, s.g12), densities),
            mode_potential((s.g12, s.g22), densities),
        ])

    values = np.stack([s.phi1.values, s.phi2.values])
    p1, p2 = _split_step(
        values, s.grid, potential, CONDENSATE_C_T, t, dt, 100, ("mode 1 ", "mode 2 "), STRANG
    )
    return replace(s, phi1=FieldState(p1, s.grid), phi2=FieldState(p2, s.grid))


@dataclass(frozen=True)
class GroundState:
    state: FieldState
    mu: float
    residual: float


def _residual(phi, V, grid):
    fft, ifft, _, _ = _transforms(grid)
    h_phi = ifft(CONDENSATE_C_T * _momentum_sq(grid) * fft(phi)) + V * phi
    mu = float(np.real(np.sum(np.conj(phi) * h_phi) * grid.cell_volume))
    res = float(np.linalg.norm(h_phi - mu * phi) / np.linalg.norm(phi))
    return res, mu


def ground_state(V: np.ndarray, grid: GridSpec) -> GroundState:
    """Ground state of T + V, T = c_T*p^2 with c_T = `CONDENSATE_C_T`, by one
    dense diagonalization.

    The kinetic matrix is the transform route applied to every unit vector
    of the grid; its momentum ladder is even, so the matrix is real
    symmetric. The lowest eigenvector of T + V is signed so its samples sum
    to a positive number. Its residual |H phi - mu phi| / |phi| is then
    measured on the transform route, apart from the dense matrix, and a
    residual not below 1e-8 raises SimulationError. The cost grows as the
    cube of the grid size.
    """
    V = np.asarray(V, dtype=np.float64).reshape(grid.points)
    if not np.all(np.isfinite(V)):
        raise ValueError("potential must be finite")
    fft, ifft, _, _ = _transforms(grid)
    unit = np.eye(grid.size).reshape(grid.size, *grid.points)
    h = ifft(CONDENSATE_C_T * _momentum_sq(grid) * fft(unit)).real.reshape(grid.size, grid.size)
    h[np.diag_indices(grid.size)] += V.reshape(-1)
    phi = np.linalg.eigh(h)[1][:, 0]
    if phi.sum() < 0:
        phi = -phi
    state = FieldState.from_samples(phi, grid)
    res, mu = _residual(state.values, V, grid)
    if not res < 1e-8:
        raise SimulationError(f"ground state residual {res:.3e} is not below 1e-8")
    return GroundState(state, mu, res)


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


def bec_phase_check(s: TwoModeState, t: float, dt: float) -> PhaseCheck:
    """Evolve the two-mode state to time t at step dt and compare phases with
    the frozen-profile map.

    Effective couplings g_eff_ij = g_ij * integral |phi_i|^2 |phi_j|^2 dV are
    computed from the initial profiles; the predicted per-mode phases are
    t*(g_eff_i1*|alpha|^2 + g_eff_i2*|beta|^2). The trap/kinetic baseline
    phase is common to both modes, so the comparison uses the relative phase.
    """
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


def field_from_csv(path, grid: GridSpec) -> FieldState:
    """Read a field file: a header row (``x,re,im`` in 1-d, ``x0,x1,re,im``
    in 2-d), then one row per grid point in row-major order (the last axis
    fastest), holding the point's coordinates and the real and imaginary
    parts of its sample. Only the last two columns are read, so the file
    needs at least two; the values are normalized on load."""

    def sample_parser(header: list[str]):
        if len(header) < 2:
            raise ValueError(f"needs at least 2 columns (re,im last), header has {len(header)}")

        def sample(row: list[str]) -> complex:
            if len(row) != len(header):
                raise ValueError(f"row has {len(row)} fields, header has {len(header)}")
            value = complex(float(row[-2]), float(row[-1]))
            if not np.isfinite(value):
                raise ValueError(f"sample must be finite, got re {value.real}, im {value.imag}")
            return value

        return sample

    values = read_csv(path, "field", sample_parser)
    if len(values) != grid.size:
        raise ValueError(f"{path}: expected {grid.size} samples, got {len(values)}")
    return FieldState.from_samples(np.array(values), grid)
