"""The principal vector, and the register the gate interpreter runs on.

A run's state is the principal vector: a normalized complex vector of length
N = 2**n, one amplitude per principal basis state |k>
(`init_from_amplitudes`). The principal-index maps act on it in place: a
diagonal phase (as phases or as precomputed unit factors), the unitary DFT,
and one matrix per grid axis (``apply_principal_axes``, for the kinetic
unitary on small grids). Each writes only through the array it is given.

A `Register` is the gate interpreter's state (`nlcompiler.execute`): n
principal qubits and the phase-feedback ancilla, ``amps[b*N + k]`` holding
|k> with ancilla bit b. The ancilla is the most significant bit, so the
branches are the contiguous halves ``amps[:N]`` (`ancilla0`) and ``amps[N:]``
(`ancilla1`). Only this module knows the layout. A `Register` builds both
views once, and its attributes are frozen, so ``amps`` cannot be rebound
behind them; the gates act on the views in place. The ancilla is entangled
only inside a compiled block and is back in |0> after each, so a run keeps
no |1> half: `clean_register` puts a principal vector in the |0> branch.

The register's gates are the ancilla flip on one principal index, the
branch-probability phase gate and an ancilla-conditioned phase; with the
principal-index maps they realize the potential and kinetic steps. Each is
phase-only or an amplitude swap, so the 2-norm is preserved to machine
precision. Both branch weights come from one function, `branch_weights`: one
``np.add.reduce`` over the rows of the squared magnitudes, numpy's pairwise
summation of each row, which is deterministic for a fixed length; the
feedback phases of the nonlinear gate are therefore bit-reproducible. The
squared magnitudes go into one float64 buffer per register, allocated by the
first weight computation, so a compiled step allocates no array per gate and
a register that never needs the weights never holds the buffer.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import FrozenInstanceError

import numpy as np

#: tolerance for exactness checks (normalization, clean-ancilla tests)
NORM_TOL = 1e-12


class Register:
    """Amplitudes of an (n+1)-qubit system, ancilla stored as the flat MSB.

    `ancilla0` and `ancilla1` are views of the two halves of ``amps``, built
    once at construction. The attributes are frozen, so ``amps`` cannot be
    rebound behind the views: assigning one raises ``FrozenInstanceError``,
    except the self-assignment an in-place operator makes
    (``r.amps *= c``). The gates update ``amps`` in place. The float64
    buffer the branch weights are computed in is allocated on first use, by
    `branch_weights` or `apply_nonlinear`, so a register that never needs
    the weights never holds it. Registers compare by identity.
    """

    def __init__(self, n: int, amps: np.ndarray):
        if n < 1:
            raise ValueError("need at least one principal qubit")
        amps = np.asarray(amps, dtype=np.complex128)
        if amps.shape != (2 ** (n + 1),):
            raise ValueError(
                f"amplitude vector must have length {2 ** (n + 1)}, got {amps.shape}"
            )
        size = 1 << n
        self.n = n
        self.amps = amps
        #: views of the ancilla-|0> and ancilla-|1> branch amplitudes (2**n each)
        self.ancilla0 = amps[:size]
        self.ancilla1 = amps[size:]
        #: squared-magnitude buffer (length 2**(n+1)) and its (2, 2**n) row
        #: view; None until the first weight computation
        self._mags = None

    def __setattr__(self, name, value):
        # frozen by hand, so the self-assignment of ``r.amps *= c`` passes
        if name in self.__dict__ and not (name == "amps" and value is self.amps):
            raise FrozenInstanceError(f"cannot assign to attribute {name!r}")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete attribute {name!r}")

    def __reduce__(self):
        # copies and pickles rebuild the views on the new amplitudes
        return Register, (self.n, self.amps)

    def copy(self) -> "Register":
        return Register(self.n, self.amps.copy())

    def ancilla_is_clean(self) -> bool:
        """True when the ancilla-|1> branch holds at most NORM_TOL of weight."""
        a1 = self.ancilla1
        return float(np.vdot(a1, a1).real) <= NORM_TOL


def init_from_amplitudes(a: np.ndarray) -> np.ndarray:
    """The principal vector of amplitudes a, normalized.

    The length must be a power of two >= 2, and the norm finite and nonzero.
    """
    a = np.asarray(a, dtype=np.complex128).ravel()
    size = a.shape[0]
    if size < 2 or size & (size - 1) != 0:
        raise ValueError(f"length must be a power of two >= 2, got {size}")
    nrm = np.linalg.norm(a)
    if nrm == 0.0:
        raise ValueError("unnormalizable: the norm is 0")
    if not np.isfinite(nrm):
        raise ValueError("unnormalizable: the norm is not finite")
    return a / nrm


def clean_register(psi: np.ndarray) -> Register:
    """A register whose ancilla-|0> branch is a copy of the principal vector
    psi and whose ancilla-|1> branch is zero, as at every block boundary."""
    size = psi.shape[0]
    amps = np.zeros(2 * size, dtype=np.complex128)
    amps[:size] = psi
    return Register(size.bit_length() - 1, amps)


def branch_weights(r: Register) -> list[float]:
    """[p0, p1], the ancilla branch probabilities (p0 + p1 = 1 for a
    normalized state): both branch rows summed in one deterministic
    reduction over the register's weight buffer."""
    if r._mags is None:
        mags = np.empty(r.amps.shape[0])
        object.__setattr__(r, "_mags", (mags, mags.reshape(2, -1)))
    mags, rows = r._mags
    np.abs(r.amps, out=mags)
    mags *= mags
    return np.add.reduce(rows, axis=1).tolist()


def apply_mcx_k(r: Register, k: int) -> Register:
    """Flip the ancilla exactly on principal state |k> (amplitude swap).

    Semantically this is the multi-controlled NOT conditioned on every bit of
    k; the simulator applies it as a native two-amplitude swap. An involution.
    """
    a0, a1 = r.ancilla0, r.ancilla1
    if not 0 <= k < len(a0):
        raise ValueError(f"index {k} out of range for {r.n} principal qubits")
    a0[k], a1[k] = a1[k], a0[k]
    return r


def apply_nonlinear(r: Register, gamma: float) -> Register:
    """Branch-probability phase gate on the ancilla.

    With branch weights (p0, p1), multiplies every ancilla-|0> amplitude by
    exp(i*gamma*p0) and every ancilla-|1> amplitude by exp(i*gamma*p1). This
    is the state-dependent Bloch-sphere rotation
    (theta, phi) -> (theta, phi - gamma*cos(theta)) of the ancilla qubit,
    written out on the full register. Phase-only, hence norm-preserving; an
    empty branch just receives an irrelevant phase. The factors come from
    ``cmath.exp`` on the Python complex, which gives the bits of ``np.exp``
    without its array-call overhead, and multiply each branch view in place.
    """
    p0, p1 = branch_weights(r)
    a0, a1 = r.ancilla0, r.ancilla1
    a0 *= cmath.exp(1j * gamma * p0)
    a1 *= cmath.exp(1j * gamma * p1)
    return r


def apply_ancilla_phase(r: Register, lam: float) -> Register:
    """Multiply every ancilla-|1> amplitude by exp(i*lam)."""
    a1 = r.ancilla1
    a1 *= cmath.exp(1j * lam)
    return r


def apply_principal_diagonal(psi: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Multiply principal index k by exp(i*phases[k]), in place."""
    phases = np.asarray(phases, dtype=np.float64).ravel()
    return apply_principal_factors(psi, np.exp(1j * phases))


def apply_principal_factors(psi: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Multiply principal index k by factors[k], in place.

    The factors are taken as given (unit modulus keeps the norm), so a
    diagonal applied every step can be exponentiated once by the caller.
    """
    if factors.shape != psi.shape:
        raise ValueError(f"need {psi.size} factors, got shape {factors.shape}")
    psi *= factors
    return psi


def dft_principal(
    psi: np.ndarray, inverse: bool = False, axes_shape: tuple[int, ...] | None = None
) -> np.ndarray:
    """Unitary DFT over the principal index, in place.

    ``axes_shape`` optionally factors the principal index into a row-major
    multi-axis grid (e.g. (8, 8) for a 2-d field) and transforms each axis,
    which is what the kinetic step needs on multi-dimensional grids. The
    default is the full one-dimensional transform. Forward uses the
    exp(-2*pi*i*k*m/M) kernel; inverse undoes it exactly (round trip is
    identity to machine precision).
    """
    if axes_shape is None:
        axes_shape = psi.shape
    if math.prod(axes_shape) != psi.size:
        raise ValueError(f"axes shape {axes_shape} does not cover {psi.size} states")
    transform = np.fft.ifftn if inverse else np.fft.fftn
    psi[:] = transform(psi.reshape(axes_shape), norm="ortho").reshape(-1)
    return psi


def apply_principal_axes(psi: np.ndarray, matrices: tuple[np.ndarray, ...]) -> np.ndarray:
    """Multiply the principal index by one square matrix per grid axis, in
    place.

    The principal index is factored row-major into one axis per matrix (one
    matrix: the whole index; two: rows and columns of a 2-d field), and
    ``matrices[a]`` acts on axis a.
    """
    if not 1 <= len(matrices) <= 2:
        raise ValueError(f"need one or two axis matrices, got {len(matrices)}")
    shape = tuple(m.shape[0] for m in matrices)
    if math.prod(shape) != psi.size:
        raise ValueError(f"axis matrices {shape} do not cover {psi.size} states")
    block = matrices[0] @ psi.reshape(shape)
    if len(matrices) == 2:
        block = block @ matrices[1].T
    psi[:] = block.reshape(-1)
    return psi
