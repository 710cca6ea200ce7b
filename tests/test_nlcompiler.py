import numpy as np
import pytest

from nlqsim import nlcompiler, statevec
from nlqsim.nlcompiler import (
    CouplingMatrix,
    GateCounts,
    GateOp,
    GateSequence,
    apply_w_direct,
    compile_w,
    dense_sparsity,
    estimate_resources,
    execute,
    gammas_from_coupling,
    schedule_blocks,
    sequence_from_text,
    sequence_to_text,
    tensor_square,
)
from nlqsim.problems import GridSpec, gross_pitaevskii_coupling, navier_stokes_coupling
from nlqsim.statevec import fidelity, global_phase_aligned, init_from_amplitudes

from conftest import random_coupling, random_register


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
        sch = gammas_from_coupling(CouplingMatrix.zeros(4), 0.1)
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
        assert len(compile_w(CouplingMatrix.zeros(2), 0.1)) == 0

    def test_dense_two_state_counts(self):
        f = CouplingMatrix.from_dense(np.array([[0.3, 0.2], [0.2, -0.1]]))
        seq = compile_w(f, 0.1)
        counts = seq.counts()
        assert counts.nonlinear == 3  # 2 singles + 1 pair
        assert counts.mcx == 8
        assert counts.ancilla_phase == 3

    def test_counts_per_kind(self):
        seq = GateSequence(1, (GateOp("APH", 0.1), GateOp("NL", 0.1), GateOp("APH", 0.2),
                               GateOp("MCX", 0), GateOp("NL", 0.2), GateOp("APH", 0.3)))
        assert seq.counts() == GateCounts(mcx=1, nonlinear=2, ancilla_phase=3)

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
        kinds = [op.kind for op in compile_w(f, 0.1)]
        assert kinds == ["MCX", "NL", "APH", "MCX",
                         "MCX", "NL", "APH", "MCX",
                         "MCX", "MCX", "NL", "APH", "MCX", "MCX"]


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
        r = random_register(rng, 10)
        dens = np.abs(r.ancilla0) ** 2
        expected = r.ancilla0 * np.exp(-1j * 0.01 * (f.dense @ dens))
        apply_w_direct(r, f, 0.01)
        assert np.max(np.abs(r.ancilla0 - expected)) < 1e-14
        assert r.ancilla_is_clean()


class TestOracleEquivalence:
    def test_w_direct_uniform_diagonal_global_phase(self):
        # uniform state and uniform diagonal coupling: pure global phase
        r = statevec.uniform_state(3)
        ref = r.copy()
        f = CouplingMatrix.from_dense(np.diag(np.full(8, 2.5)))
        apply_w_direct(r, f, 0.1)
        assert fidelity(ref, r) == pytest.approx(1.0, abs=1e-14)
        assert r.amps[0] == pytest.approx(ref.amps[0] * np.exp(-1j * 0.1 * 2.5 / 8))

    def test_w_direct_zero_coupling(self, rng):
        r = random_register(rng, 2)
        before = r.amps.copy()
        apply_w_direct(r, CouplingMatrix.zeros(4), 0.3)
        assert np.array_equal(r.amps, before)

    def test_w_direct_requires_clean_ancilla(self, rng):
        r = random_register(rng, 2)
        statevec.apply_mcx_k(r, 1)
        with pytest.raises(ValueError, match="ancilla not clean"):
            apply_w_direct(r, CouplingMatrix.zeros(4), 0.1)

    def test_compiled_matches_direct_100_random_cases(self, rng):
        """Compiled block sequence reproduces the diagonal to 1e-12."""
        for case in range(100):
            n = int(rng.integers(1, 6))
            r = random_register(rng, n)
            f = random_coupling(rng, n)
            eps = float(rng.uniform(1e-3, 0.3))
            direct = apply_w_direct(r.copy(), f, eps)
            compiled = execute(compile_w(f, eps), r.copy())
            assert compiled.ancilla_is_clean()
            assert fidelity(direct, compiled) >= 1 - 1e-12

    def test_compiled_amplitudes_match_after_alignment(self, rng):
        r = random_register(rng, 3)
        f = random_coupling(rng, 3)
        direct = apply_w_direct(r.copy(), f, 0.15)
        compiled = execute(compile_w(f, 0.15), r.copy())
        aligned = global_phase_aligned(direct, compiled)
        assert np.max(np.abs(aligned - direct.amps)) < 1e-13


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

        aligned = global_phase_aligned(ref, out)
        assert np.max(np.abs(aligned - ref.amps)) < 1e-12


def _dispatch(r, op):
    execute(GateSequence(r.n, (op,)), r)


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
            execute(seq, random_register(rng, n))
            counts = seq.counts()
            singles, pairs = gammas_from_coupling(f, 0.1).sparsity()
            expected = estimate_resources(n, 1, singles=singles, pairs=pairs)
            assert counts == expected.per_step

    def test_instrumented_counts_sparse(self, rng):
        f = np.zeros((8, 8))
        f[1, 4] = f[4, 1] = 0.3
        seq = compile_w(CouplingMatrix.from_dense(f), 0.1)
        execute(seq, random_register(rng, 3))
        counts = seq.counts()
        # one pair block and the two compensating singles it induces
        assert counts == GateCounts(mcx=8, nonlinear=3, ancilla_phase=3)


class TestTensorSquare:
    def test_basis(self):
        doubled = tensor_square(statevec.basis_state(2, 0))
        assert doubled.n == 4
        assert doubled.amps[0] == 1.0

    def test_uniform(self):
        doubled = tensor_square(statevec.uniform_state(1))
        assert np.allclose(doubled.ancilla0, np.full(4, 0.5))

    def test_product_weights(self):
        r = init_from_amplitudes(np.array([0.6, 0.8]))
        doubled = tensor_square(r)
        weights = np.abs(doubled.ancilla0) ** 2
        assert weights == pytest.approx([0.1296, 0.2304, 0.2304, 0.4096])

    def test_memory_bound(self, rng):
        with pytest.raises(ValueError, match="bound"):
            tensor_square(random_register(rng, 3), max_result_qubits=6)

    def test_requires_clean_ancilla(self, rng):
        r = random_register(rng, 2)
        statevec.apply_mcx_k(r, 0)
        with pytest.raises(ValueError, match="ancilla not clean"):
            tensor_square(r)


class TestSerialization:
    def test_round_trip(self, rng):
        f = random_coupling(rng, 2)
        seq = compile_w(f, 0.173)
        text = sequence_to_text(seq)
        back = sequence_from_text(text, seq.n)
        assert back == seq

    def test_known_lines(self):
        seq = GateSequence(3, (GateOp("MCX", 5), GateOp("NL", 0.125), GateOp("APH", 0.125)))
        assert sequence_to_text(seq) == "MCX 5\nNL 0.125\nAPH 0.125\n"

    def test_numpy_args_written_as_plain_numbers(self):
        seq = GateSequence(3, (GateOp("MCX", np.int64(5)), GateOp("NL", np.float64(0.125))))
        assert sequence_to_text(seq) == "MCX 5\nNL 0.125\n"

    def test_full_precision(self):
        angle = -0.1234567890123456789
        seq = GateSequence(1, (GateOp("NL", angle),))
        back = sequence_from_text(sequence_to_text(seq), 1)
        assert back.ops[0].arg == seq.ops[0].arg

    def test_bad_line(self):
        with pytest.raises(ValueError, match="bad gate line"):
            sequence_from_text("MCX notanint\n", 2)
        # a line is exactly <KIND> <arg>, with a finite arg
        # an MCX index must address one of the 2**n principal states
        for line in ("MCX 5 7", "NL nan", "APH inf", "FOO 1", "NL", "MCX 99", "MCX -1"):
            with pytest.raises(ValueError, match="bad gate line 2"):
                sequence_from_text(f"MCX 0\n{line}\n", 2)

    def test_blank_lines_skipped(self):
        seq = sequence_from_text("\nMCX 1\n  \nNL -0.5\n", 2)
        assert seq.ops == (GateOp("MCX", 1), GateOp("NL", -0.5))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown gate kind 'FOO'"):
            GateSequence(1, (GateOp("MCX", 0), GateOp("FOO", 1.0)))

    def test_executes_after_round_trip(self, rng):
        f = random_coupling(rng, 2)
        seq = compile_w(f, 0.2)
        r = random_register(rng, 2)
        direct = execute(seq, r.copy())
        replayed = execute(sequence_from_text(sequence_to_text(seq), 2), r.copy())
        assert np.array_equal(direct.amps, replayed.amps)
