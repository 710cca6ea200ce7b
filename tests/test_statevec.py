import copy
import dataclasses
import itertools
import pickle

import numpy as np
import pytest

from nlqsim import statevec
from nlqsim.statevec import (
    NORM_TOL,
    Register,
    apply_ancilla_phase,
    apply_mcx_k,
    apply_nonlinear,
    apply_principal_axes,
    apply_principal_diagonal,
    branch_weights,
    dft_principal,
    init_from_amplitudes,
    uniform_state,
)

from conftest import random_register
from support import basis_state, fidelity


class TestInit:
    def test_basis_state(self):
        r = init_from_amplitudes(np.array([1.0, 0.0]))
        assert r.ancilla0[0] == 1.0
        assert r.ancilla0[1] == 0.0
        assert np.all(r.ancilla1 == 0.0)

    def test_normalization(self):
        r = init_from_amplitudes(np.array([1.0, 1.0]))
        assert r.ancilla0[0] == pytest.approx(1 / np.sqrt(2))
        assert r.ancilla0[1] == pytest.approx(1 / np.sqrt(2))

    def test_three_four_five(self):
        r = init_from_amplitudes(np.array([3.0, 4.0j]))
        assert r.ancilla0[0] == pytest.approx(0.6)
        assert r.ancilla0[1] == pytest.approx(0.8j)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="unnormalizable"):
            init_from_amplitudes(np.zeros(4))

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            init_from_amplitudes(np.ones(3))

    def test_single_entry_rejected(self):
        with pytest.raises(ValueError):
            init_from_amplitudes(np.ones(1))

    def test_ancilla_starts_clean(self, rng):
        r = random_register(rng, 3)
        assert r.ancilla_is_clean()

    @pytest.mark.parametrize("factor, clean", [(1 - 1e-6, True), (1 + 1e-6, False)])
    def test_clean_ancilla_threshold(self, factor, clean):
        """The ancilla-|1> weight is compared with tol itself, spread over
        two entries so the test sums the branch."""
        r = Register(2, np.zeros(8))
        r.ancilla0[0] = 1.0
        r.ancilla1[[1, 3]] = np.sqrt(0.5 * NORM_TOL * factor) * np.array([1j, -1])
        assert r.ancilla_is_clean() is clean


def split_register(a0: complex, a1: complex) -> Register:
    """a0|0>|0>_a + a1|1>|1>_a on one principal qubit."""
    r = Register(1, np.zeros(4))
    r.ancilla0[0], r.ancilla1[1] = a0, a1
    return r


class TestStorageOrder:
    """The register is stored branch-major: amps[b*N + k] is |k> with
    ancilla bit b, and the branch views are the two halves."""

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_amps_are_the_two_halves_joined(self, rng, n):
        amps = rng.normal(size=2 ** (n + 1)) + 1j * rng.normal(size=2 ** (n + 1))
        r = Register(n, amps)
        assert np.array_equal(r.amps, np.concatenate([r.ancilla0, r.ancilla1]))
        assert np.array_equal(r.ancilla0, amps[: 2**n])
        assert np.array_equal(r.ancilla1, amps[2**n :])
        assert np.shares_memory(r.ancilla0, r.amps) and np.shares_memory(r.ancilla1, r.amps)

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_mcx_swaps_k_and_n_plus_k(self, rng, n):
        size = 2**n
        amps = rng.normal(size=2 * size) + 1j * rng.normal(size=2 * size)
        r = Register(n, amps / np.linalg.norm(amps))
        for k in (0, size - 1, int(rng.integers(size))):
            expected = r.amps.copy()
            expected[[k, size + k]] = expected[[size + k, k]]
            apply_mcx_k(r, k)
            assert np.array_equal(r.amps, expected)


class TestFixedViews:
    """The branch views are built once and stay views of ``amps``, which
    cannot be rebound; the weight buffer exists only once weights are taken."""

    BUILDERS = {
        "init_from_amplitudes": lambda rng: init_from_amplitudes(rng.normal(size=8)),
        "basis_state": lambda rng: basis_state(3, 5),
        "Register": lambda rng: Register(3, rng.normal(size=16) + 1j * rng.normal(size=16)),
        "copy": lambda rng: random_register(rng, 3).copy(),
        "deepcopy": lambda rng: copy.deepcopy(random_register(rng, 3)),
        "pickle": lambda rng: pickle.loads(pickle.dumps(random_register(rng, 3))),
    }

    @pytest.mark.parametrize("builder", list(BUILDERS))
    def test_views_share_memory_with_amps(self, rng, builder):
        r = self.BUILDERS[builder](rng)
        assert np.shares_memory(r.ancilla0, r.amps)
        assert np.shares_memory(r.ancilla1, r.amps)
        r.amps[:] = np.arange(16)
        assert np.array_equal(r.ancilla0, np.arange(8))
        assert np.array_equal(r.ancilla1, np.arange(8, 16))

    def test_views_are_built_once(self, rng):
        r = random_register(rng, 3)
        a0, a1 = r.ancilla0, r.ancilla1
        apply_mcx_k(r, 2)
        apply_nonlinear(r, 0.3)
        apply_ancilla_phase(r, 0.2)
        dft_principal(r)
        assert r.ancilla0 is a0 and r.ancilla1 is a1

    def test_amps_cannot_be_rebound(self, rng):
        r = random_register(rng, 3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.amps = r.amps.copy()
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.ancilla0 = r.amps[:8].copy()
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.n = 4
        with pytest.raises(dataclasses.FrozenInstanceError):
            del r.amps

    def test_registers_compare_by_identity(self, rng):
        r = random_register(rng, 3)
        assert r == r and r != r.copy()

    def test_in_place_operator_on_amps_is_allowed(self, rng):
        r = random_register(rng, 3)
        amps = r.amps
        expected = 2.0 * amps
        r.amps *= 2.0
        assert r.amps is amps
        assert np.array_equal(r.ancilla0, expected[:8])

    def test_no_buffer_without_weights(self, rng):
        r = random_register(rng, 3)
        apply_mcx_k(r, 1)
        apply_ancilla_phase(r, 0.4)
        apply_principal_diagonal(r, np.linspace(0.0, 1.0, 8))
        dft_principal(r)
        apply_principal_axes(r, (np.eye(8),))
        r.principal_probabilities()
        r.ancilla_is_clean()
        assert r._mags is None
        assert r.copy()._mags is None

    @pytest.mark.parametrize("first", [branch_weights, lambda r: apply_nonlinear(r, 0.7)])
    def test_buffer_allocated_once_on_first_use(self, rng, first):
        r = random_register(rng, 3)
        first(r)
        buffer, rows = r._mags
        assert buffer.shape == (16,) and buffer.dtype == np.float64
        assert rows.shape == (2, 8) and np.shares_memory(rows, buffer)
        apply_nonlinear(r, 0.1)
        branch_weights(r)
        assert r._mags[0] is buffer and r._mags[1] is rows
        assert r.copy()._mags is None


class TestBranchWeights:
    def test_basis(self):
        p0, p1 = branch_weights(basis_state(1, 0))
        assert (p0, p1) == (1.0, 0.0)

    def test_bell_like(self):
        p0, p1 = branch_weights(split_register(1 / np.sqrt(2), 1 / np.sqrt(2)))
        assert p0 == pytest.approx(0.5)
        assert p1 == pytest.approx(0.5)

    def test_unequal_split(self):
        p0, p1 = branch_weights(split_register(0.6, 0.8))
        assert p0 == pytest.approx(0.36)
        assert p1 == pytest.approx(0.64)

    def test_sums_to_one(self, rng):
        for n in (1, 3, 5):
            p0, p1 = branch_weights(random_register(rng, n))
            assert abs(p0 + p1 - 1.0) < 1e-12

    def test_bitwise_equal_to_np_sum(self, rng):
        # np.add.reduce is the pairwise sum np.sum runs, without its wrapper
        for n in range(1, 9):
            r = random_register(rng, n)
            statevec.apply_mcx_k(r, int(rng.integers(2**n)))
            p0, p1 = branch_weights(r)
            assert p0 == float(np.sum(np.abs(r.ancilla0) ** 2))
            assert p1 == float(np.sum(np.abs(r.ancilla1) ** 2))


class TestMcx:
    def test_flips_target(self):
        r = apply_mcx_k(basis_state(2, 3), 3)
        assert r.ancilla1[3] == 1.0
        assert r.ancilla0[3] == 0.0

    def test_other_indices_untouched(self):
        r = apply_mcx_k(basis_state(2, 1), 3)
        assert r.ancilla0[1] == 1.0

    def test_involution(self, rng):
        r = random_register(rng, 3)
        before = r.amps.copy()
        apply_mcx_k(apply_mcx_k(r, 5), 5)
        assert np.array_equal(r.amps, before)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            apply_mcx_k(basis_state(2, 0), 4)


class TestNonlinear:
    def test_zero_angle_is_identity(self, rng):
        r = random_register(rng, 2)
        before = r.amps.copy()
        apply_nonlinear(r, 0.0)
        assert np.array_equal(r.amps, before)

    def test_pure_branch_is_global_phase(self, rng):
        r = random_register(rng, 2)
        ref = r.copy()
        apply_nonlinear(r, 1.3)
        assert fidelity(ref, r) == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(r.amps, np.exp(1.3j) * ref.amps)

    def test_split_branch_phases(self):
        # 0.6|0>|0>_a + 0.8|1>|1>_a with angle pi
        r = apply_nonlinear(split_register(0.6, 0.8), np.pi)
        assert r.ancilla0[0] == pytest.approx(0.6 * np.exp(1j * np.pi * 0.36))
        assert r.ancilla1[1] == pytest.approx(0.8 * np.exp(1j * np.pi * 0.64))

    def test_angles_additive(self, rng):
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        r1 = Register(2, amps.copy())
        apply_nonlinear(apply_nonlinear(r1, 0.4), 0.35)
        r2 = Register(2, amps.copy())
        apply_nonlinear(r2, 0.75)
        assert np.allclose(r1.amps, r2.amps, atol=1e-14)


class TestAncillaPhase:
    def test_zero_is_identity(self, rng):
        r = random_register(rng, 2)
        before = r.amps.copy()
        apply_ancilla_phase(r, 0.0)
        assert np.array_equal(r.amps, before)

    def test_two_pi_is_identity(self, rng):
        r = random_register(rng, 2)
        before = r.amps.copy()
        apply_ancilla_phase(r, 2 * np.pi)
        assert np.max(np.abs(r.amps - before)) < 1e-15

    def test_quarter_turn(self):
        r = apply_mcx_k(basis_state(2, 3), 3)  # |3>|1>_a
        apply_ancilla_phase(r, np.pi / 2)
        assert r.ancilla1[3] == pytest.approx(1j)


class TestPrincipalDiagonal:
    def test_zero_phases(self, rng):
        r = random_register(rng, 2)
        before = r.amps.copy()
        apply_principal_diagonal(r, np.zeros(4))
        assert np.array_equal(r.amps, before)

    def test_constant_phases_global(self, rng):
        r = random_register(rng, 2)
        ref = r.copy()
        apply_principal_diagonal(r, np.full(4, 0.7))
        assert fidelity(ref, r) == pytest.approx(1.0, abs=1e-14)

    def test_z_action(self):
        r = init_from_amplitudes(np.array([1.0, 1.0]))
        apply_principal_diagonal(r, np.array([0.0, np.pi]))
        assert r.ancilla0[0] == pytest.approx(1 / np.sqrt(2))
        assert r.ancilla0[1] == pytest.approx(-1 / np.sqrt(2))

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            apply_principal_diagonal(random_register(rng, 2), np.zeros(3))


class TestPhaseFactorBits:
    """The gates take their phase factor from cmath.exp; the bits must be
    those of np.exp on the same angle."""

    @staticmethod
    def live_register(rng, n=3):
        """Both branches dense: every amplitude nonzero."""
        amps = rng.normal(size=2 ** (n + 1)) + 1j * rng.normal(size=2 ** (n + 1))
        return Register(n, amps / np.linalg.norm(amps))

    def test_nonlinear_bit_equal_to_np_exp(self, rng):
        """Both weights come from one reduction; they must be the bits of a
        separate pairwise sum over each branch, and the phases those of
        np.exp on them, for n = 1..10 on clean registers with 0, 1 and 2
        flipped indices and on live registers whose branches are both dense
        (500 each, so every row is reduced in full)."""
        for n, flips in itertools.product(range(1, 11), (0, 1, 2, "live")):
            for _ in range(500 if flips == "live" else 50):
                if flips == "live":
                    r = self.live_register(rng, n)
                else:
                    r = random_register(rng, n)
                    for k in rng.choice(2**n, size=min(flips, 2**n), replace=False).tolist():
                        apply_mcx_k(r, k)
                gamma = float(rng.normal() * 10.0 ** rng.integers(-3, 4))
                p0 = float(np.add.reduce(np.abs(r.ancilla0) ** 2))
                p1 = float(np.add.reduce(np.abs(r.ancilla1) ** 2))
                assert branch_weights(r) == [p0, p1], (n, flips)
                expected = r.copy()
                a0, a1 = expected.ancilla0, expected.ancilla1
                a0 *= np.exp(1j * gamma * p0)
                a1 *= np.exp(1j * gamma * p1)
                apply_nonlinear(r, gamma)
                assert np.array_equal(r.amps, expected.amps), (n, flips)

    def test_ancilla_phase_bit_equal_to_np_exp(self, rng):
        for _ in range(500):
            r = self.live_register(rng)
            lam = float(rng.normal() * 10.0 ** rng.integers(-3, 4))
            expected = r.copy()
            a1 = expected.ancilla1
            a1 *= np.exp(1j * lam)
            apply_ancilla_phase(r, lam)
            assert np.array_equal(r.amps, expected.amps)


class TestPrincipalAxes:
    @staticmethod
    def random_unitary(rng, m):
        q, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
        return q

    @pytest.mark.parametrize("shape", [(2,), (64,), (2, 8), (8, 2), (16, 16)])
    def test_matches_kronecker_product(self, rng, shape):
        size = int(np.prod(shape))
        amps = rng.normal(size=2 * size) + 1j * rng.normal(size=2 * size)
        r = Register(size.bit_length() - 1, amps / np.linalg.norm(amps))
        mats = tuple(self.random_unitary(rng, m) for m in shape)
        full = mats[0] if len(mats) == 1 else np.kron(mats[0], mats[1])
        expected = r.copy()
        for branch in (expected.ancilla0, expected.ancilla1):
            branch[:] = full @ branch
        apply_principal_axes(r, mats)
        assert np.max(np.abs(r.amps - expected.amps)) < 1e-13
        assert abs(r.norm() - 1.0) < 1e-12

    def test_clean_ancilla_stays_exactly_zero(self, rng):
        r = random_register(rng, 4)
        apply_principal_axes(r, (self.random_unitary(rng, 4), self.random_unitary(rng, 4)))
        assert not r.ancilla1.any()

    def test_zero_ancilla0_branch(self, rng):
        r = Register(3, np.zeros(16))
        r.ancilla1[:] = rng.normal(size=8) / np.sqrt(8)
        u = self.random_unitary(rng, 8)
        expected = u @ r.ancilla1
        apply_principal_axes(r, (u,))
        assert np.max(np.abs(r.ancilla1 - expected)) < 1e-14
        assert not r.ancilla0.any()

    def test_identity_leaves_register(self, rng):
        r = random_register(rng, 5)
        before = r.amps.copy()
        apply_principal_axes(r, (np.eye(4), np.eye(8)))
        assert np.array_equal(r.amps, before)

    def test_bad_shapes(self, rng):
        r = random_register(rng, 4)
        with pytest.raises(ValueError, match="cover"):
            apply_principal_axes(r, (np.eye(8),))
        with pytest.raises(ValueError, match="one or two"):
            apply_principal_axes(r, (np.eye(2),) * 4)


class TestDft:
    def test_uniform_to_origin(self):
        r = dft_principal(uniform_state(3))
        assert abs(r.ancilla0[0]) == pytest.approx(1.0)
        assert np.max(np.abs(r.ancilla0[1:])) < 1e-14
        assert not r.ancilla1.any()

    def test_origin_to_uniform(self):
        r = dft_principal(basis_state(3, 0))
        assert np.allclose(r.ancilla0, np.full(8, 1 / np.sqrt(8)))

    @pytest.mark.parametrize("n", [1, 4, 10])
    def test_round_trip(self, rng, n):
        r = random_register(rng, n)
        before = r.amps.copy()
        dft_principal(dft_principal(r), inverse=True)
        assert np.max(np.abs(r.amps - before)) < 1e-12

    def test_axes_shape_round_trip(self, rng):
        r = random_register(rng, 6)
        before = r.amps.copy()
        dft_principal(r, axes_shape=(8, 8))
        dft_principal(r, inverse=True, axes_shape=(8, 8))
        assert np.max(np.abs(r.amps - before)) < 1e-12

    def test_bad_axes_shape(self, rng):
        with pytest.raises(ValueError):
            dft_principal(random_register(rng, 3), axes_shape=(4, 4))

    SHAPES = [(64,), (1024,), (32, 32), (8, 16)]

    @staticmethod
    def block_transform(r, shape, inverse):
        """Reference: one transform of both branches stacked as (2, *shape),
        returned as the transformed (ancilla0, ancilla1) branches."""
        transform = np.fft.ifftn if inverse else np.fft.fftn
        stacked = np.stack([r.ancilla0.reshape(shape), r.ancilla1.reshape(shape)])
        axes = tuple(range(1, len(shape) + 1))
        return transform(stacked, axes=axes, norm="ortho").reshape(2, -1)

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("inverse", [False, True])
    def test_clean_register_bit_equal_to_block_transform(self, rng, shape, inverse):
        r = random_register(rng, int(np.log2(np.prod(shape))))
        expected0, expected1 = self.block_transform(r, shape, inverse)
        dft_principal(r, inverse=inverse, axes_shape=shape)
        assert np.array_equal(r.ancilla0, expected0)
        assert np.array_equal(r.ancilla1, expected1)
        assert not r.ancilla1.any()

    @pytest.mark.parametrize("shape", SHAPES)
    def test_live_ancilla_branch(self, rng, shape):
        size = int(np.prod(shape))
        amps = rng.normal(size=2 * size) + 1j * rng.normal(size=2 * size)
        r = Register(int(np.log2(size)), amps / np.linalg.norm(amps))
        before = r.amps.copy()
        expected0, expected1 = self.block_transform(r, shape, inverse=False)
        dft_principal(r, axes_shape=shape)
        assert np.max(np.abs(r.ancilla0 - expected0)) < 1e-14
        assert np.max(np.abs(r.ancilla1 - expected1)) < 1e-14
        dft_principal(r, inverse=True, axes_shape=shape)
        assert np.max(np.abs(r.amps - before)) < 1e-12

    def test_zero_ancilla0_branch(self, rng):
        # only the ancilla-|1> branch is live: it alone is transformed
        r = Register(3, np.zeros(16))
        r.ancilla1[:] = rng.normal(size=8) / np.sqrt(8)
        _, expected1 = self.block_transform(r, (8,), inverse=False)
        dft_principal(r)
        assert np.max(np.abs(r.ancilla1 - expected1)) < 1e-14
        assert not r.ancilla0.any()


class TestFidelity:
    def test_self(self, rng):
        r = random_register(rng, 3)
        assert fidelity(r, r) == pytest.approx(1.0)

    def test_global_phase_invariant(self, rng):
        r = random_register(rng, 3)
        r2 = Register(3, np.exp(0.9j) * r.amps)
        assert fidelity(r, r2) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert fidelity(basis_state(2, 0), basis_state(2, 1)) == 0.0

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            fidelity(basis_state(1, 0), basis_state(2, 0))


class TestNormPreservation:
    def test_random_gate_stream(self, rng):
        """Every primitive keeps the norm within 1e-12 of 1."""
        r = random_register(rng, 4)
        for _ in range(200):
            pick = rng.integers(5)
            if pick == 0:
                apply_mcx_k(r, int(rng.integers(16)))
            elif pick == 1:
                apply_nonlinear(r, float(rng.normal()))
            elif pick == 2:
                apply_ancilla_phase(r, float(rng.normal()))
            elif pick == 3:
                apply_principal_diagonal(r, rng.normal(size=16))
            else:
                dft_principal(r, inverse=bool(rng.integers(2)))
            assert abs(r.norm() - 1.0) < 1e-12

    def test_magnitudes_invariant_under_phase_gates(self, rng):
        r = random_register(rng, 3)
        # put weight on both branches first
        apply_mcx_k(r, 2)
        apply_mcx_k(r, 5)
        mags = np.abs(r.amps)
        apply_nonlinear(r, 0.8)
        apply_ancilla_phase(r, -1.1)
        apply_principal_diagonal(r, np.linspace(0, 1, 8))
        assert np.max(np.abs(np.abs(r.amps) - mags)) < 1e-14


class TestGuards:
    # name: (call, fragment of its ValueError)
    CASES = {
        "no-principal-qubit": (lambda: Register(0, np.zeros(2)), "at least one principal qubit"),
        "wrong-length": (lambda: Register(2, np.zeros(4)),
                         r"must have length 8, got \(4,\)"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_refuses(self, case):
        call, message = self.CASES[case]
        with pytest.raises(ValueError, match=message):
            call()
