import tracemalloc

import numpy as np
import pytest

from nlqsim import evolution, nlcompiler, statevec
from nlqsim.cli import instrumented_counts
from nlqsim.nlcompiler import (
    GATES,
    CouplingMatrix,
    GammaSchedule,
    GateCounts,
    GateSequence,
    apply_w_direct,
    compile_w,
    dense_sparsity,
    estimate_resources,
    execute,
    gammas_from_coupling,
    schedule_blocks,
)
from nlqsim.problems import GridSpec, gross_pitaevskii_coupling, navier_stokes_coupling
from nlqsim.statevec import clean_register, init_from_amplitudes

from conftest import random_coupling, random_register, random_state
from support import basis_state, fidelity, global_phase_aligned, tensor_square, zero_coupling


class TestCouplingMatrix:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError, match="symmetric"):
            CouplingMatrix.from_dense(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_power_of_two(self):
        with pytest.raises(ValueError):
            CouplingMatrix.from_dense(np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_named_before_symmetry(self, bad):
        # a NaN diagonal is "asymmetric" bitwise (NaN != NaN); the entry
        # check runs first and names the real fault
        for f in (np.diag([bad, 0.0]), np.array([[0.0, bad], [bad, 0.0]])):
            with pytest.raises(ValueError, match="must be finite"):
                CouplingMatrix.from_dense(f)

    def test_n_qubits(self):
        assert CouplingMatrix.from_dense(np.zeros((8, 8))).n_qubits == 3

    @pytest.mark.parametrize("rows, cols, vals", [
        ([0, 1], [1, 0], [1.0, 0.5]),  # asymmetric values
        ([0, 2], [1, 2], [1.0, 3.0]),  # one-sided entry (0, 1)
    ])
    def test_asymmetric_triplets_rejected(self, rows, cols, vals):
        with pytest.raises(ValueError, match="symmetric"):
            CouplingMatrix(4, rows, cols, vals)

    @pytest.mark.parametrize("rows, cols, vals, match", [
        ([1, 0], [0, 1], [1.0, 1.0], "row-major"),
        ([0, 0], [0, 0], [1.0, 1.0], "row-major"),
        ([0, 1], [0, 1], [1.0, 0.0], "nonzero"),
        ([0, 4], [0, 4], [1.0, 1.0], "out of range"),
        ([0, 1], [0, 1], [1.0, np.nan], "must be finite"),
    ])
    def test_triplet_form_enforced(self, rows, cols, vals, match):
        with pytest.raises(ValueError, match=match):
            CouplingMatrix(4, rows, cols, vals)

    def test_from_dense_keeps_the_array(self):
        mat = np.array([[0.0, 2.0], [2.0, -1.0]])
        f = CouplingMatrix.from_dense(mat)
        assert f.dense is mat
        assert f.rows.tolist() == [0, 1, 1]
        assert f.cols.tolist() == [1, 0, 1]
        assert f.vals.tolist() == [2.0, 2.0, -1.0]


def loop_calibration(mat, eps):
    """Scalar reference for gammas_from_coupling: each single angle subtracts
    its row's pair angles summed left to right; pairs are the nonzero (k < l)
    angles in row-major order."""
    dim = mat.shape[0]
    gamma_k = np.empty(dim)
    pairs = []
    for k in range(dim):
        pair_sum = 0.0
        for l in range(dim):
            if l != k:
                pair_sum += -eps * mat[k, l] / 2.0
        gamma_k[k] = -eps * mat[k, k] / 2.0 - pair_sum
        for l in range(k + 1, dim):
            g = -eps * mat[k, l] / 2.0
            if g != 0.0:
                pairs.append((k, l, g))
    return gamma_k, pairs


class TestGammas:
    def test_matches_scalar_loop(self, rng):
        for n in range(1, 7):
            dim = 2**n
            mat = random_coupling(rng, n).dense.copy()
            zero = rng.random((dim, dim)) < 0.3
            mat[zero | zero.T] = 0.0
            for eps in (1e-3, 0.0731, 0.3):
                sch = gammas_from_coupling(CouplingMatrix.from_dense(mat), eps)
                gamma_k, pairs = loop_calibration(mat, eps)
                assert np.array_equal(sch.gamma_k, gamma_k)
                assert np.array_equal(sch.pair_k, [k for k, _, _ in pairs])
                assert np.array_equal(sch.pair_l, [l for _, l, _ in pairs])
                assert np.array_equal(sch.gamma_kl, [g for _, _, g in pairs])

    def test_zero_coupling(self):
        sch = gammas_from_coupling(zero_coupling(4), 0.1)
        assert np.all(sch.gamma_k == 0.0)
        assert sch.pair_k.size == sch.pair_l.size == sch.gamma_kl.size == 0

    def test_off_diagonal_pair(self):
        f = CouplingMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        sch = gammas_from_coupling(f, 0.2)
        assert sch.pair_k.tolist() == [0]
        assert sch.pair_l.tolist() == [1]
        assert sch.gamma_kl[0] == pytest.approx(-0.1)
        assert sch.gamma_k[0] == pytest.approx(0.1)
        assert sch.gamma_k[1] == pytest.approx(0.1)

    def test_diagonal_only(self):
        f = CouplingMatrix.from_dense(np.eye(2))
        sch = gammas_from_coupling(f, 0.1)
        assert sch.pair_k.size == sch.pair_l.size == sch.gamma_kl.size == 0
        assert sch.gamma_k[0] == pytest.approx(-0.05)
        assert sch.gamma_k[1] == pytest.approx(-0.05)

    def test_sparsity_counts(self):
        f = CouplingMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 0.0]]))
        sch = gammas_from_coupling(f, 0.1)
        # f_00 feeds gamma_0 only; gamma_1 and the pair stay zero
        assert sch.sparsity() == (1, 0)


class TestCompile:
    def test_zero_coupling_empty(self):
        assert len(compile_w(zero_coupling(2), 0.1).ops) == 0

    def test_dense_two_state_counts(self, rng):
        f = CouplingMatrix.from_dense(np.array([[0.3, 0.2], [0.2, -0.1]]))
        seq = compile_w(f, 0.1)
        counts = instrumented_counts(seq, random_register(rng, 1))
        assert counts.nonlinear == 3  # 2 singles + 1 pair
        assert counts.mcx == 8
        assert counts.ancilla_phase == 3

    def test_tridiagonal_counts(self):
        # periodic nearest-neighbor stencil: M singles and M wrapped pairs
        m = 8
        f = np.zeros((m, m))
        for k in range(m):
            f[k, k] = -2.0
            f[k, (k + 1) % m] += 1.0
            f[(k + 1) % m, k] += 1.0
        sch = gammas_from_coupling(CouplingMatrix.from_dense(f), 0.05)
        assert sch.sparsity() == (m, m)

    def test_sequence_is_singles_then_pairs(self):
        f = CouplingMatrix.from_dense(np.array([[0.3, 0.2], [0.2, -0.1]]))
        kinds = [kind for kind, _ in compile_w(f, 0.1).ops]
        assert kinds == ["MCX", "NL", "APH", "MCX",
                         "MCX", "NL", "APH", "MCX",
                         "MCX", "MCX", "NL", "APH", "MCX", "MCX"]

    def test_ops_are_plain_kind_arg_pairs(self):
        f = CouplingMatrix.from_dense(np.array([[0.3, 0.2], [0.2, -0.1]]))
        sch = gammas_from_coupling(f, 0.1)
        g0, g1 = sch.gamma_k.tolist()
        (g01,) = sch.gamma_kl.tolist()
        ops = compile_w(f, 0.1).ops
        assert all(type(op) is tuple and len(op) == 2 and op[0] in GATES for op in ops)
        assert all(type(arg) is int for kind, arg in ops if kind == "MCX")
        assert all(type(arg) is float for kind, arg in ops if kind != "MCX")
        assert ops == (("MCX", 0), ("NL", g0), ("APH", g0), ("MCX", 0),
                       ("MCX", 1), ("NL", g1), ("APH", g1), ("MCX", 1),
                       ("MCX", 0), ("MCX", 1), ("NL", g01), ("APH", g01),
                       ("MCX", 1), ("MCX", 0))


def sparse_random_coupling(rng, dim, fill):
    """Symmetric coupling with about `fill` of its entries nonzero."""
    mask = np.triu(rng.random((dim, dim)) < fill / 2.0)
    m = np.where(mask, rng.normal(size=(dim, dim)), 0.0)
    return CouplingMatrix.from_dense(m + np.triu(m, 1).T)


class TestSparsePotential:
    CASES = {
        "stencil-1d": lambda rng: navier_stokes_coupling(0.8, GridSpec((256,), 0.3)),
        "stencil-2d": lambda rng: navier_stokes_coupling(1.0, GridSpec((32, 32), 0.5)),
        "diagonal-gp": lambda rng: gross_pitaevskii_coupling(2.5, GridSpec((128,), 0.25)),
        "random-5pct": lambda rng: sparse_random_coupling(rng, 256, 0.05),
        "dense": lambda rng: random_coupling(rng, 6),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_nonzero_entries_match_dense_product(self, rng, monkeypatch, case):
        # every entry counts as sparse here, so each case runs the
        # nonzero-entry path whatever its fill
        monkeypatch.setattr(nlcompiler, "SPARSE_MAX_FILL", 1.0)
        f = self.CASES[case](rng)
        dens = rng.random(f.dim)
        scale = np.max(np.abs(f.dense) @ dens)
        assert f.sparse
        assert np.max(np.abs(f.potential(dens) - f.dense @ dens)) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "case, sparse",
        [("stencil-1d", True), ("stencil-2d", True), ("diagonal-gp", True),
         ("random-5pct", False), ("dense", False)],
    )
    def test_path_follows_fill(self, rng, case, sparse):
        f = self.CASES[case](rng)
        assert f.sparse == sparse
        dens = rng.random(f.dim)
        if not sparse:
            # the dense side is the BLAS product itself, bit for bit
            assert np.array_equal(f.potential(dens), f.dense @ dens)

    def test_entries_found_once(self, rng):
        f = navier_stokes_coupling(1.0, GridSpec((16, 16), 0.5))
        assert f.dense is f.dense
        rows, cols, vals = f.rows, f.cols, f.vals
        assert rows.shape == cols.shape == vals.shape == (5 * 256,)

    def test_direct_step_on_stencil_matches_dense_diagonal(self, rng):
        f = navier_stokes_coupling(1.0, GridSpec((32, 32), 0.5))
        psi = random_state(rng, 10)
        dens = np.abs(psi) ** 2
        expected = psi * np.exp(-1j * 0.01 * (f.dense @ dens))
        apply_w_direct(psi, f, 0.01)
        assert np.max(np.abs(psi - expected)) < 1e-14


class TestOracleEquivalence:
    def test_w_direct_uniform_diagonal_global_phase(self):
        # uniform state and uniform diagonal coupling: pure global phase
        psi = init_from_amplitudes(np.ones(8))
        ref = psi.copy()
        f = CouplingMatrix.from_dense(np.diag(np.full(8, 2.5)))
        apply_w_direct(psi, f, 0.1)
        assert fidelity(ref, psi) == pytest.approx(1.0, abs=1e-14)
        assert psi[0] == pytest.approx(ref[0] * np.exp(-1j * 0.1 * 2.5 / 8))

    def test_w_direct_zero_coupling(self, rng):
        psi = random_state(rng, 2)
        before = psi.copy()
        apply_w_direct(psi, zero_coupling(4), 0.3)
        assert np.array_equal(psi, before)

    def test_compiled_matches_direct_100_random_cases(self, rng):
        """Compiled block sequence reproduces the diagonal to 1e-12."""
        for case in range(100):
            n = int(rng.integers(1, 6))
            psi = random_state(rng, n)
            f = random_coupling(rng, n)
            eps = float(rng.uniform(1e-3, 0.3))
            direct = apply_w_direct(psi.copy(), f, eps)
            compiled = execute(compile_w(f, eps), clean_register(psi))
            assert compiled.ancilla_is_clean()
            assert fidelity(direct, compiled.ancilla0) >= 1 - 1e-12

    def test_compiled_amplitudes_match_after_alignment(self, rng):
        psi = random_state(rng, 3)
        f = random_coupling(rng, 3)
        direct = apply_w_direct(psi.copy(), f, 0.15)
        compiled = execute(compile_w(f, 0.15), clean_register(psi))
        aligned = global_phase_aligned(direct, compiled.ancilla0)
        assert np.max(np.abs(aligned - direct)) < 1e-13


def reference_execute(seq, amps):
    """The ops of seq applied to a copy of the flat amplitudes with plain
    formulas: ``np.abs(branch) ** 2`` summed by one ``np.add.reduce`` per
    branch, ``np.exp`` factors, and an index swap for the ancilla flip."""
    amps = amps.copy()
    size = amps.shape[0] // 2
    a0, a1 = amps[:size], amps[size:]
    for kind, arg in seq.ops:
        if kind == "MCX":
            amps[arg], amps[size + arg] = amps[size + arg], amps[arg]
        elif kind == "NL":
            p0 = float(np.add.reduce(np.abs(a0) ** 2))
            p1 = float(np.add.reduce(np.abs(a1) ** 2))
            a0 *= np.exp(1j * arg * p0)
            a1 *= np.exp(1j * arg * p1)
        else:
            a1 *= np.exp(1j * arg)
    return amps


class TestExecuteBits:
    """`execute` gives the bits of the op-by-op reference on whole compiled
    sequences, so keeping views and a weight buffer changed no arithmetic."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_compiled_sequence_bit_identical(self, rng, n):
        for _ in range(3):
            seq = compile_w(random_coupling(rng, n), float(rng.uniform(0.01, 0.3)))
            r = random_register(rng, n)
            expected = reference_execute(seq, r.amps)
            execute(seq, r)
            assert np.array_equal(r.amps, expected), n

    def test_live_register_bit_identical(self, rng):
        """Both branches dense, so both weights are full reductions."""
        n = 4
        seq = compile_w(random_coupling(rng, n), 0.2)
        amps = rng.normal(size=2 ** (n + 1)) + 1j * rng.normal(size=2 ** (n + 1))
        r = statevec.Register(n, amps / np.linalg.norm(amps))
        expected = reference_execute(seq, r.amps)
        execute(seq, r)
        assert np.array_equal(r.amps, expected)

    def test_compiled_evolve_bit_identical(self, rng):
        n, eps, steps = 6, 0.05, 5
        grid = GridSpec(points=(2**n,), dx=0.25)
        spec = evolution.KineticSpec(1.0, grid)
        f = random_coupling(rng, n, scale=0.5)
        psi0 = random_state(rng, n)
        result = evolution.evolve(psi0, f, spec, steps, eps, mode="compiled")
        seq = compile_w(f, eps)
        r = clean_register(psi0)
        op = spec.operator(eps)
        for _ in range(steps):
            r = statevec.Register(n, reference_execute(seq, r.amps))
            evolution.apply_kinetic(r.ancilla0, op)
        assert not r.ancilla1.any()
        assert np.array_equal(result.final, r.ancilla0)


class TestExecuteAllocation:
    """A compiled step allocates no array per gate: the weight buffer comes
    with the register, and the traced peak of a block does not grow with n."""

    BLOCK_OPS = 600
    PEAK_MAX_BYTES = 2048

    def peak_during_execute(self, rng, n):
        seq = compile_w(random_coupling(rng, n), 0.05)
        block = GateSequence(n, seq.ops[: self.BLOCK_OPS])
        r = random_register(rng, n)
        execute(block, r)  # warm-up: one-time costs of the first calls
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            execute(block, r)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - start

    def test_peak_independent_of_n(self, rng):
        peak6 = self.peak_during_execute(rng, 6)
        peak8 = self.peak_during_execute(rng, 8)
        assert peak6 == peak8
        assert peak6 < self.PEAK_MAX_BYTES

    def test_direct_step_and_tensor_square_never_allocate_the_buffer(self, rng, monkeypatch):
        # neither builds a register at all
        def refuse(*args):
            raise AssertionError("a Register was built")

        n = 4
        grid = GridSpec(points=(2**n,), dx=0.25)
        psi0, f = random_state(rng, n), random_coupling(rng, n)
        monkeypatch.setattr(statevec, "Register", refuse)
        result = evolution.evolve(psi0, f, evolution.KineticSpec(1.0, grid), 3, 0.05)
        assert result.final.shape == (2**n,)
        assert tensor_square(random_state(rng, 3)).shape == (64,)


class TestOrderIndependence:
    def test_shuffled_blocks_same_state(self, rng):
        f = random_coupling(rng, 3)
        sch = gammas_from_coupling(f, 0.12)
        blocks = schedule_blocks(sch)
        r0 = random_register(rng, 3)

        ref = r0.copy()
        for block in blocks:
            for op in block:
                _dispatch(ref, op)

        shuffled = list(blocks)
        rng.shuffle(shuffled)
        out = r0.copy()
        for block in shuffled:
            for op in block:
                _dispatch(out, op)

        aligned = global_phase_aligned(ref.amps, out.amps)
        assert np.max(np.abs(aligned - ref.amps)) < 1e-12


def _dispatch(r, op):
    execute(GateSequence(r.n, (op,)), r)


class TestBlockClosedForm:
    """One block of angle g on a clean register, global phase included: with
    P the weight of the block's indices B before it, every amplitude gains
    exp(i*g*(1 - P)), the indices in B a further exp(2i*g*P), and the
    ancilla-|1> branch ends at exactly zero."""

    @staticmethod
    def run_block(rng, n, single):
        dim = 2**n
        g = float(rng.uniform(-3.0, 3.0))
        gamma_k = np.zeros(dim)
        if single:
            block = [int(rng.integers(dim))]
            gamma_k[block] = g
            schedule = GammaSchedule(gamma_k, np.empty(0, int), np.empty(0, int), np.empty(0))
        else:
            block = sorted(rng.choice(dim, 2, replace=False).tolist())
            k, l = np.array(block).reshape(2, 1)
            schedule = GammaSchedule(gamma_k, k, l, np.array([g]))
        (ops,) = schedule_blocks(schedule)
        r = random_register(rng, n)
        a = r.ancilla0.copy()
        weight = float(np.sum(np.abs(a[block]) ** 2))
        expected = a * np.exp(1j * g * (1.0 - weight))
        expected[block] *= np.exp(2j * g * weight)
        execute(GateSequence(n, ops), r)
        return r, expected

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("single", [True, False], ids=["single", "pair"])
    def test_block_phases(self, rng, n, single):
        for _ in range(25):
            r, expected = self.run_block(rng, n, single)
            assert np.max(np.abs(r.ancilla0 - expected)) <= 1e-13
            assert not r.ancilla1.any()


class TestResources:
    def test_smallest_dense_case(self):
        tally = estimate_resources(1, 1)
        assert tally.nonlinear_count == 3
        assert tally.mcx_count == 8
        assert tally.ancilla_phase_count == 3

    def test_zero_steps(self):
        tally = estimate_resources(4, 0)
        assert tally.mcx_count == 0
        assert tally.nonlinear_count == 0
        assert tally.basic_gate_count == 0

    def test_dense_closed_forms(self):
        for n in range(1, 7):
            big_n = 2**n - 1
            tally = estimate_resources(n, 1)
            assert tally.nonlinear_count == (big_n + 1) * (big_n + 2) // 2
            assert tally.mcx_count == 2 * (big_n + 1) + 2 * (big_n + 1) * big_n

    def test_quadratic_growth_ratio(self):
        ratios = []
        for n in range(1, 6):
            a = estimate_resources(n, 1).nonlinear_count
            b = estimate_resources(n + 1, 1).nonlinear_count
            ratios.append(b / a)
        assert all(r2 > r1 for r1, r2 in zip(ratios, ratios[1:]))
        assert ratios[-1] == pytest.approx(4.0, abs=0.1)

    def test_basic_gate_expansion(self):
        tally = estimate_resources(3, 2, basic_c=5)
        per_step = tally.per_step
        assert tally.basic_per_step == per_step.mcx * 5 * 9 + per_step.nonlinear + per_step.ancilla_phase
        assert tally.basic_gate_count == 2 * tally.basic_per_step

    def test_instrumented_counts_match_closed_form(self, rng):
        for n in (1, 2, 3):
            f = random_coupling(rng, n)
            seq = compile_w(f, 0.1)
            counts = instrumented_counts(seq, random_register(rng, n))
            singles, pairs = gammas_from_coupling(f, 0.1).sparsity()
            expected = estimate_resources(n, 1, singles=singles, pairs=pairs)
            assert counts == expected.per_step

    def test_instrumented_counts_sparse(self, rng):
        f = np.zeros((8, 8))
        f[1, 4] = f[4, 1] = 0.3
        seq = compile_w(CouplingMatrix.from_dense(f), 0.1)
        counts = instrumented_counts(seq, random_register(rng, 3))
        # one pair block and the two compensating singles it induces
        assert counts == GateCounts(mcx=8, nonlinear=3, ancilla_phase=3)


class TestTensorSquare:
    def test_basis(self):
        doubled = tensor_square(basis_state(2, 0))
        assert doubled.shape == (16,)
        assert doubled[0] == 1.0

    def test_uniform(self):
        doubled = tensor_square(init_from_amplitudes(np.ones(2)))
        assert np.allclose(doubled, np.full(4, 0.5))

    def test_product_weights(self):
        doubled = tensor_square(init_from_amplitudes(np.array([0.6, 0.8])))
        weights = np.abs(doubled) ** 2
        assert weights == pytest.approx([0.1296, 0.2304, 0.2304, 0.4096])

    def test_memory_bound(self, rng):
        with pytest.raises(ValueError, match="bound"):
            tensor_square(random_state(rng, 3), max_result_qubits=6)


class TestGateSequence:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown gate kind 'FOO'"):
            GateSequence(1, (("MCX", 0), ("FOO", 1.0)))


class TestGuards:
    # name: (call, fragment of its ValueError)
    CASES = {
        "entry-shapes": (lambda: CouplingMatrix(4, [0, 1], [0, 1], [1.0]),
                         "rows, cols and vals must be 1-d arrays of one length"),
        "dense-not-square": (lambda: CouplingMatrix.from_dense(np.ones((2, 4))),
                             r"must be square, got \(2, 4\)"),
        "execute-other-n": (
            lambda: execute(compile_w(zero_coupling(4), 0.1), clean_register(basis_state(3, 0))),
            "sequence is for n=2, register has n=3",
        ),
        "direct-other-dim": (lambda: apply_w_direct(basis_state(3, 0), zero_coupling(4), 0.1),
                             "coupling is 4-dimensional, the state has 8 amplitudes"),
        "resources-no-qubit": (lambda: estimate_resources(0, 1), "need n >= 1"),
        "resources-negative-steps": (lambda: estimate_resources(1, -1), "need n_steps >= 0"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_refuses(self, case):
        call, message = self.CASES[case]
        with pytest.raises(ValueError, match=message):
            call()
