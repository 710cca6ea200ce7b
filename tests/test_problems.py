import csv
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from nlqsim import nlcompiler, statevec
from nlqsim.cli import ConfigError, ExperimentConfig, config_from_dict, config_to_dict
from nlqsim.problems import (
    GridSpec,
    KernelSpec,
    basis_amplitudes,
    coupling_from_triplet_csv,
    gaussian_packet,
    gross_pitaevskii_coupling,
    hartree_coupling,
    navier_stokes_coupling,
    periodic_coupling,
    plane_wave_amplitudes,
    uniform_amplitudes,
)

from support import (
    coupling_to_triplet_csv,
    dense_hartree,
    fidelity,
    madelung_fields,
    radial_kernel,
)


@pytest.fixture
def grid16():
    return GridSpec(points=(16,), dx=0.5, x0=-4.0)


@pytest.fixture
def grid8x8():
    return GridSpec(points=(8, 8), dx=0.5, x0=-2.0)


class TestGridSpec:
    def test_basic_properties(self, grid16):
        assert grid16.dims == 1
        assert grid16.size == 16
        assert grid16.coords(0)[0] == -4.0

    def test_2d(self, grid8x8):
        assert grid8x8.dims == 2
        assert grid8x8.size == 64
        assert grid8x8.cell_volume == 0.25

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            GridSpec(points=(12,), dx=0.1)

    def test_rejects_bad_dx(self):
        with pytest.raises(ValueError):
            GridSpec(points=(8,), dx=0.0)

    def test_rejects_3d(self):
        with pytest.raises(ValueError):
            GridSpec(points=(4, 4, 4), dx=0.1)

    def test_wrapped_deltas(self):
        # a table indexed by separation reads back the minimal-image separation
        # of every site from site 0
        table = KernelSpec("tabulated", samples=[0.0, 1.0, 2.0])
        d = table.grid_samples(GridSpec(points=(4,), dx=1.0))
        assert d.tolist() == [0.0, 1.0, 2.0, 1.0]  # site 3 is 1 away, not 3
        gaussian = KernelSpec("gaussian", sigma=1.0, amplitude=1.0)
        r = gaussian.grid_samples(GridSpec(points=(4, 2), dx=1.0))
        assert r.shape == (4, 2)
        assert r[1, 0] == r[3, 0] == r[0, 1]
        assert r[3, 1] == r[1, 1] < r[1, 0]


class TestKernelSpec:
    def test_constant(self, grid16):
        f = hartree_coupling(KernelSpec("constant", c=2.0), grid16)
        assert np.all(f.dense == 2.0)

    def test_gaussian_even_by_distance(self, grid16):
        f = hartree_coupling(KernelSpec("gaussian", sigma=1.0, amplitude=3.0), grid16).dense
        assert f[0, 1] == f[1, 0]
        assert f[0, 1] == f[0, 15]  # wrap
        assert f[0, 0] == 3.0

    def test_tabulated_lookup(self, grid16):
        samples = [5.0, 3.0, 2.0, 1.0, 0.5, 0.25, 0.1, 0.05, 0.01]
        f = hartree_coupling(KernelSpec("tabulated", samples=samples), grid16).dense
        assert f[0, 0] == 5.0
        assert f[0, 3] == 1.0
        assert f[0, 15] == 3.0  # separation 1 via wrap

    def test_tabulated_too_short(self, grid16):
        with pytest.raises(ValueError, match="covers separations"):
            hartree_coupling(KernelSpec("tabulated", samples=[1.0, 0.5]), grid16)

    def test_signed_table_not_even(self):
        with pytest.raises(ValueError, match="kernel not even"):
            KernelSpec("tabulated", samples_signed=[1.0, 2.0, 3.0, 2.5, 1.0])

    def test_signed_table_folds(self):
        k = KernelSpec("tabulated", samples_signed=[1.0, 2.0, 3.0, 2.0, 1.0])
        assert k.samples == (3.0, 2.0, 1.0)

    @staticmethod
    def kernel_config(kernel) -> ExperimentConfig:
        """A 16-site Hartree config read around a kernel section."""
        return config_from_dict({"problem": "hartree", "grid": {"points": [16], "dx": 0.5},
                                 "kernel": kernel, "t": 0.4, "eps": 0.1})

    def test_json_round_trip(self):
        base = self.kernel_config({"form": "contact", "g": 0.0})
        for k in (
            KernelSpec("constant", c=1.5),
            KernelSpec("gaussian", sigma=0.7, amplitude=-2.0),
            KernelSpec("contact", g=3.0),
            KernelSpec("tabulated", samples=[1.0, 0.5, 0.25]),
        ):
            echo = json.loads(json.dumps(config_to_dict(replace(base, kernel=k))))
            assert self.kernel_config(echo["kernel"]).kernel == k

    def test_json_signed_samples(self):
        k = self.kernel_config(
            json.loads('{"form": "tabulated", "samples_signed": [1.0, 2.0, 1.0]}')
        ).kernel
        assert k.samples == (2.0, 1.0)

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            self.kernel_config(json.loads('{"form": "cubic"}'))

    @pytest.mark.parametrize(
        "payload, match",
        [
            ("x", "must be an object"),
            ({"form": ["constant"]}, "unknown kernel form"),
            ({"form": "constant", "c": 1.0, "sigma": 2.0}, "unknown constant kernel key 'sigma'"),
            ({"form": "gaussian", "sigma": 1.0, "amplitude": 2.0, "g": 0.0}, "key 'g'"),
            ({"form": "tabulated", "samples": [1.0], "c": 1.0}, "key 'c'"),
            ({"form": "constant", "c": "3"}, "c must be a number"),
            ({"form": "contact", "g": True}, "g must be a number"),
            ({"form": "gaussian", "sigma": 1.0}, "gaussian kernel needs 'amplitude'"),
            ({"form": "tabulated", "samples": 5}, "samples must be a list of numbers"),
            ({"form": "tabulated", "samples": [1.0, None]}, "samples must be a number"),
            ({"form": "gaussian", "sigma": 1.0, "amplitude": float("inf")}, "amplitude must be finite"),
            ({"form": "gaussian", "sigma": float("nan"), "amplitude": 1.0}, "sigma must be finite"),
            ({"form": "contact", "g": float("-inf")}, "g must be finite"),
        ],
    )
    def test_json_rejects(self, payload, match):
        with pytest.raises(ConfigError, match=match):
            self.kernel_config(payload)

    def test_json_integers_accepted(self):
        kernel = self.kernel_config({"form": "constant", "c": 2}).kernel
        assert kernel == KernelSpec("constant", c=2.0)


class TestHartreeCoupling:
    def test_symmetric_bitwise(self, grid16):
        f = hartree_coupling(KernelSpec("gaussian", sigma=1.3, amplitude=0.8), grid16).dense
        assert np.array_equal(f, f.T)

    def test_contact_equals_gp_bitwise(self, grid16):
        via_kernel = hartree_coupling(KernelSpec("contact", g=1.7), grid16)
        direct = gross_pitaevskii_coupling(1.7, grid16)
        assert np.array_equal(via_kernel.dense, direct.dense)

    def test_convolution_consistency(self, grid16):
        """Matrix route equals FFT circular convolution of the kernel."""
        rng = np.random.default_rng(5)
        kernel = KernelSpec("gaussian", sigma=1.0, amplitude=2.0)
        f = hartree_coupling(kernel, grid16).dense
        a = rng.normal(size=16) + 1j * rng.normal(size=16)
        a /= np.linalg.norm(a)
        weights = np.abs(a) ** 2
        via_matrix = f @ weights

        m = grid16.points[0]
        d = np.arange(m)
        w = radial_kernel(kernel, np.minimum(d, m - d) * grid16.dx)
        via_fft = np.fft.ifft(np.fft.fft(w) * np.fft.fft(weights)).real
        assert np.max(np.abs(via_matrix - via_fft)) < 1e-12

    def test_2d_radial(self, grid8x8):
        f = hartree_coupling(KernelSpec("gaussian", sigma=1.0, amplitude=1.0), grid8x8).dense
        assert np.array_equal(f, f.T)
        # neighbor along either axis sits at the same distance
        k = 0
        right = 1          # (0, 1)
        down = 8           # (1, 0)
        assert f[k, right] == f[k, down]

    def test_2d_tabulated_rejected(self, grid8x8):
        with pytest.raises(ValueError, match="1-d"):
            hartree_coupling(KernelSpec("tabulated", samples=[1.0] * 10), grid8x8)


class TestGrossPitaevskii:
    def test_zero_coupling(self, grid16):
        assert np.all(gross_pitaevskii_coupling(0.0, grid16).dense == 0.0)

    def test_diagonal_value(self, grid16):
        f = gross_pitaevskii_coupling(2.0, grid16).dense
        assert f[3, 3] == 2.0 / 0.5
        assert np.count_nonzero(f - np.diag(np.diag(f))) == 0

    def test_2d_diagonal_value(self, grid8x8):
        f = gross_pitaevskii_coupling(2.0, grid8x8).dense
        assert f[0, 0] == 2.0 / 0.25

    def test_uniform_state_pure_global_phase(self, grid16):
        f = gross_pitaevskii_coupling(1.3, grid16)
        r = statevec.init_from_amplitudes(uniform_amplitudes(grid16))
        ref = r.copy()
        nlcompiler.apply_w_direct(r, f, 0.2)
        assert fidelity(ref, r) == pytest.approx(1.0, abs=1e-14)


class TestNavierStokes:
    def test_row_sums_exactly_zero(self, grid16, grid8x8):
        # exact summation: the stencil weights cancel identically, but a
        # fixed-order float reduction may round intermediates
        for grid in (grid16, grid8x8):
            f = navier_stokes_coupling(1.2, grid).dense
            assert all(math.fsum(row) == 0.0 for row in f)

    def test_stencil_weights(self, grid16):
        f = navier_stokes_coupling(2.0, grid16).dense
        w = 1.0 / (4.0 * 2.0 * grid16.dx**2 * grid16.dx)
        assert f[0, 1] == w
        assert f[0, 15] == w
        assert f[0, 0] == -2.0 * w

    def test_stencil_ratio_2d(self, grid8x8):
        # diagonal is -2*dims times one neighbor weight
        f = navier_stokes_coupling(1.0, grid8x8).dense
        assert f[0, 0] == -2.0 * grid8x8.dims * f[0, 1]

    def test_symmetric_bitwise(self, grid8x8):
        f = navier_stokes_coupling(0.7, grid8x8).dense
        assert np.array_equal(f, f.T)

    def test_uniform_density_feels_nothing(self, grid16):
        f = navier_stokes_coupling(1.0, grid16)
        weights = np.full(16, 1.0 / 16.0)
        assert np.max(np.abs(f.dense @ weights)) < 1e-16

    def test_rejects_bad_rho0(self, grid16):
        with pytest.raises(ValueError):
            navier_stokes_coupling(0.0, grid16)

    @staticmethod
    def loop_stencil(rho0, grid):
        """Scalar reference: visit each site, add w at both neighbours of
        each axis, then take 2w off the diagonal."""
        w = 1.0 / (4.0 * rho0 * grid.dx**2 * grid.cell_volume)
        f = np.zeros((grid.size, grid.size))
        for flat in range(grid.size):
            idx = np.unravel_index(flat, grid.points)
            for axis in range(grid.dims):
                for step in (-1, 1):
                    nb = list(idx)
                    nb[axis] = (nb[axis] + step) % grid.points[axis]
                    f[flat, int(np.ravel_multi_index(nb, grid.points))] += w
                f[flat, flat] -= 2.0 * w
        return f

    @pytest.mark.parametrize("points", [(2,), (16,), (2, 4), (8, 8), (32, 32)])
    def test_matches_scalar_loop(self, points):
        for rho0, dx in ((1.0, 0.5), (0.37, 0.13)):
            grid = GridSpec(points=points, dx=dx)
            got = navier_stokes_coupling(rho0, grid).dense
            assert np.array_equal(got, self.loop_stencil(rho0, grid))


def dense_navier_stokes(rho0, grid):
    """The dense N x N stencil builder the triplet builder replaced."""
    w = 1.0 / (4.0 * rho0 * grid.dx**2 * grid.cell_volume)
    f = np.zeros((grid.size, grid.size))
    sites = np.arange(grid.size).reshape(grid.points)
    rows = sites.reshape(-1)
    for axis in range(grid.dims):
        for step in (-1, 1):
            f[rows, np.roll(sites, -step, axis=axis).reshape(-1)] += w
        f[rows, rows] -= 2.0 * w
    return f


def dense_gross_pitaevskii(g, grid):
    return np.diag(np.full(grid.size, g / grid.cell_volume))


class TestTripletBuilders:
    """The builders emit the nonzero entries directly, in row-major order;
    they must hold exactly what the dense builders held."""

    GRIDS = [(2,), (16,), (2, 2), (2, 8), (8, 2), (16, 16)]

    @staticmethod
    def assert_entries_of(f, mat):
        rows, cols = np.nonzero(mat)
        assert np.array_equal(f.rows, rows)
        assert np.array_equal(f.cols, cols)
        assert np.array_equal(f.vals, mat[rows, cols])
        assert np.array_equal(f.dense, mat)

    @pytest.mark.parametrize("points", GRIDS)
    def test_navier_stokes(self, points):
        for rho0, dx in ((1.0, 0.5), (0.37, 0.13)):
            grid = GridSpec(points=points, dx=dx)
            self.assert_entries_of(navier_stokes_coupling(rho0, grid),
                                   dense_navier_stokes(rho0, grid))

    @pytest.mark.parametrize("points", GRIDS)
    def test_gross_pitaevskii(self, points):
        grid = GridSpec(points=points, dx=0.3)
        for g in (1.7, -0.4, 0.0):
            self.assert_entries_of(gross_pitaevskii_coupling(g, grid),
                                   dense_gross_pitaevskii(g, grid))

    KERNELS = [KernelSpec("constant", c=1.5), KernelSpec("gaussian", sigma=1.0, amplitude=2.0),
               KernelSpec("contact", g=1.3), KernelSpec("contact", g=0.0),
               KernelSpec("tabulated", samples=[1.0 / (1 + d) for d in range(9)])]

    @pytest.mark.parametrize("points", GRIDS)
    @pytest.mark.parametrize("kernel", KERNELS,
                             ids=["constant", "gaussian", "contact", "contact-zero", "tabulated"])
    def test_hartree(self, points, kernel):
        # at dx 6 the Gaussian underflows to zero beyond 38 / 6 grid steps
        for dx in (0.3, 6.0):
            grid = GridSpec(points=points, dx=dx)
            if kernel.form == "tabulated" and grid.dims == 2:
                with pytest.raises(ValueError, match="tabulated kernels require a 1-d grid"):
                    hartree_coupling(kernel, grid)
                continue
            mat = dense_hartree(kernel, grid)
            self.assert_entries_of(hartree_coupling(kernel, grid), mat)
            if kernel.form == "gaussian" and dx == 6.0 and grid.size == 256:
                assert 0 < np.count_nonzero(mat) < mat.size

    def test_zero_g_stores_nothing(self, grid16):
        assert gross_pitaevskii_coupling(0.0, grid16).vals.size == 0


class TestPeriodicCoupling:
    """`periodic_coupling` against its definition, evaluated pairwise: the
    nonzero entries of the dense f[k, j] = row[(j - k) mod points]."""

    GRIDS = [(2,), (4,), (16,), (64,), (2, 2), (2, 8), (8, 2), (4, 16), (16, 16), (32, 32)]

    @staticmethod
    def pairwise(row):
        coords = np.indices(row.shape).reshape(row.ndim, -1)
        offsets = tuple(np.subtract.outer(c, c).T % m for c, m in zip(coords, row.shape))
        f = row[offsets]
        rows, cols = np.nonzero(f)
        return rows, cols, f[rows, cols]

    @staticmethod
    def random_even_row(rng, points, fill):
        row = rng.normal(size=points) * (rng.random(points) < fill)
        # row + its reflection d -> -d mod points is exactly even
        return row + np.roll(np.flip(row), 1, axis=tuple(range(len(points))))

    @pytest.mark.parametrize("points", GRIDS)
    def test_matches_pairwise_definition(self, rng, points):
        rows = [np.zeros(points)]
        rows += [self.random_even_row(rng, points, fill) for fill in (0.05, 0.3, 1.0) * 4]
        for row in rows:
            f = periodic_coupling(row)
            for got, want in zip((f.rows, f.cols, f.vals), self.pairwise(row)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


class TestMadelung:
    def test_real_positive_zero_velocity(self, grid16):
        a = gaussian_packet(grid16, center=0.0, sigma=1.0)
        r = statevec.init_from_amplitudes(a)
        fields = madelung_fields(r, grid16)
        assert np.nanmax(np.abs(fields.u)) < 1e-14

    def test_density_normalization(self, grid16):
        a = gaussian_packet(grid16, center=0.5, sigma=0.8, kappa=0.3)
        fields = madelung_fields(statevec.init_from_amplitudes(a), grid16)
        assert np.sum(fields.rho) * grid16.cell_volume == pytest.approx(1.0)

    def test_plane_wave_velocity(self):
        grid = GridSpec(points=(64,), dx=0.25, x0=-8.0)
        mode = 2
        kappa = 2 * np.pi * mode / (64 * 0.25)
        r = statevec.init_from_amplitudes(plane_wave_amplitudes(grid, mode))
        fields = madelung_fields(r, grid)
        assert fields.defined.all()
        assert np.max(np.abs(fields.u[0] - kappa)) / kappa < 0.02

    def test_low_density_flagged(self, grid16):
        a = basis_amplitudes(grid16, 3)
        fields = madelung_fields(statevec.init_from_amplitudes(a), grid16)
        assert not fields.defined[0]
        assert np.isnan(fields.u[0, 0])
        assert fields.defined[3]

    def test_2d_shapes(self, grid8x8):
        a = gaussian_packet(grid8x8, sigma=0.7)
        fields = madelung_fields(statevec.init_from_amplitudes(a), grid8x8)
        assert fields.rho.shape == (8, 8)
        assert fields.u.shape == (2, 8, 8)


class TestTripletCsv:
    def test_round_trip(self, tmp_path, grid16):
        f = navier_stokes_coupling(1.5, grid16)
        path = tmp_path / "f.csv"
        coupling_to_triplet_csv(f, path)
        back = coupling_from_triplet_csv(path, grid16.size)
        assert np.array_equal(back.dense, f.dense)

    @pytest.mark.parametrize("body, expected", [
        # a repeated position: the last row wins, for both (k, j) and (j, k)
        ("0,1,2.0\n1,0,3.0\n0,1,5.0\n", {(0, 1): 5.0, (1, 0): 5.0}),
        # an explicit zero clears an earlier value and stores no entry
        ("0,1,2.0\n2,2,1.5\n1,0,0.0\n", {(2, 2): 1.5}),
        # a k > j row completes to both triangles
        ("3,1,-0.25\n", {(1, 3): -0.25, (3, 1): -0.25}),
    ])
    def test_symmetric_completion(self, tmp_path, body, expected):
        path = tmp_path / "f.csv"
        path.write_text("k,j,f\n" + body)
        f = coupling_from_triplet_csv(path, 4)
        want = np.zeros((4, 4))
        for (k, j), v in expected.items():
            want[k, j] = v
        assert np.array_equal(f.dense, want)
        assert sorted(zip(f.rows.tolist(), f.cols.tolist())) == sorted(expected)
        assert f.rows.tolist() == [k for k, _ in sorted(expected)]

    def test_writes_what_the_dense_loop_wrote(self, tmp_path, grid16):
        for f in (navier_stokes_coupling(0.7, GridSpec((2, 8), 0.5)),
                  hartree_coupling(KernelSpec("gaussian", sigma=1.0, amplitude=3.0), grid16)):
            path = tmp_path / "f.csv"
            coupling_to_triplet_csv(f, path)
            want = tmp_path / "want.csv"
            with open(want, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["k", "j", "f"])
                for k in range(f.dim):
                    for j in range(k, f.dim):
                        if f.dense[k, j] != 0.0:
                            writer.writerow([k, j, repr(float(f.dense[k, j]))])
            assert path.read_bytes() == want.read_bytes()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0,0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            coupling_from_triplet_csv(path, 4)


class TestInitialStates:
    def test_gaussian_packet_velocity_convention(self, grid16):
        a = gaussian_packet(grid16, center=0.0, sigma=2.0, kappa=0.5)
        r = statevec.init_from_amplitudes(a)
        fields = madelung_fields(r, grid16)
        mid = fields.defined
        assert np.nanmedian(fields.u[0][mid]) == pytest.approx(0.5, rel=0.05)

    def test_gaussian_2d_product(self, grid8x8):
        a = gaussian_packet(grid8x8, center=(0.0, 0.5), sigma=(0.8, 1.0))
        assert a.shape == (64,)

    def test_basis_out_of_range(self, grid16):
        with pytest.raises(ValueError):
            basis_amplitudes(grid16, 99)


class TestGuards:
    # name: (keys of a KernelSpec built directly, fragment of its ValueError)
    CASES = {
        "table-inf": ({"form": "tabulated", "samples": (1.0, math.inf)},
                      "tabulated kernel samples must be finite"),
        "table-nan": ({"form": "tabulated", "samples": (math.nan, 0.5)},
                      "tabulated kernel samples must be finite"),
        "constant-inf": ({"form": "constant", "c": math.inf}, "kernel c must be finite, got inf"),
        "gaussian-sigma-nan": ({"form": "gaussian", "sigma": math.nan, "amplitude": 1.0},
                               "kernel sigma must be finite, got nan"),
        "contact-g-inf": ({"form": "contact", "g": -math.inf},
                          "kernel g must be finite, got -inf"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_kernel_refuses(self, case):
        keys, message = self.CASES[case]
        with pytest.raises(ValueError, match=message):
            KernelSpec(**keys)
