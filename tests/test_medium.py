"""Medium models: Fourier slices, depth breaks, validation, sampled-grid ingestion."""
import re

import numpy as np
import pytest

import qpscat as q


def dft2_oracle(grid):
    """Direct double-loop 2-d DFT, coefficient convention qhat_0 = mean."""
    n1, n2 = grid.shape
    out = {}
    x1 = 2 * np.pi * np.arange(n1) / n1
    x2 = 2 * np.pi * np.arange(n2) / n2
    for m1 in range(-n1 // 2 + 1, n1 // 2):
        for m2 in range(-n2 // 2 + 1, n2 // 2):
            acc = 0.0 + 0.0j
            for i in range(n1):
                for j in range(n2):
                    acc += grid[i, j] * np.exp(-1j * (m1 * x1[i] + m2 * x2[j]))
            out[(m1, m2)] = acc / (n1 * n2)
    return out


def depth_coefficients(med, depths, M):
    """q_hat_m at each depth for |m|_inf <= M, (len(depths), 2M + 1, 2M + 1):
    the `cell_coefficients` of the cell between the medium's breaks that holds
    the depth (the upper cell on an inner break)."""
    cells = np.searchsorted(med.breaks, depths, side="right") - 1
    return med.cell_coefficients(M)[np.clip(cells, 0, len(med.breaks) - 2)]


def slice_at(med, x3, M):
    """q_hat_m(x3) for |m|_inf <= M at the one depth x3 (`depth_coefficients`)."""
    qhat = depth_coefficients(med, [x3], M)[0]
    return {m: complex(qhat[m[0] + M, m[1] + M]) for m in q.mode_range(M)}


class TestFourierSlice:
    def test_homogeneous(self):
        med = q.MediumModel.homogeneous(2.0, 1.0)
        assert med.values.tolist() == [[[2.0 + 0j]]] and med.breaks.tolist() == [-1.0, 1.0]
        assert med.transversely_uniform
        fs = slice_at(med, 0.3, 2)
        assert fs[(0, 0)] == 2.0
        assert all(fs[m] == 0.0 for m in q.mode_range(2) if m != (0, 0))

    def test_cosine_grid(self):
        n = 16
        x1 = 2 * np.pi * np.arange(n) / n
        vals = 1.0 + 0.5 * np.cos(x1)[:, None, None] * np.ones((1, n, 4))
        med = q.MediumModel.sampled(vals, 1.0)
        fs = slice_at(med, 0.0, 2)
        assert fs[(0, 0)] == pytest.approx(1.0, abs=1e-14)
        assert fs[(1, 0)] == pytest.approx(0.25, abs=1e-14)
        assert fs[(-1, 0)] == pytest.approx(0.25, abs=1e-14)
        assert fs[(0, 1)] == pytest.approx(0.0, abs=1e-14)

    def test_hermitian_symmetry_random_real(self):
        rng = np.random.default_rng(5)
        vals = 1.5 + 0.3 * rng.standard_normal((8, 8, 3))
        med = q.MediumModel.sampled(vals, 1.0)
        fs = slice_at(med, -0.4, 3)
        for m in q.mode_range(3):
            assert fs[m] == pytest.approx(np.conj(fs[(-m[0], -m[1])]), abs=1e-13)

    def test_matches_dft_oracle(self):
        rng = np.random.default_rng(11)
        vals = 1.5 + 0.3 * rng.standard_normal((6, 6, 2))
        med = q.MediumModel.sampled(vals, 1.0)
        fs = slice_at(med, -0.9, 2)
        oracle = dft2_oracle(vals[:, :, 0])
        for m in q.mode_range(2):
            assert fs[m] == pytest.approx(oracle[m], abs=1e-13)

    def test_round_trip_band_limited(self):
        n = 16
        x1 = 2 * np.pi * np.arange(n) / n
        x2 = 2 * np.pi * np.arange(n) / n
        grid = (2.0 + 0.4 * np.cos(x1)[:, None] + 0.2 * np.sin(2 * x2)[None, :]
                + 0.1 * np.cos(x1[:, None] + x2[None, :]))
        med = q.MediumModel.sampled(grid[:, :, None], 1.0)
        fs = slice_at(med, 0.0, 4)
        recon = np.zeros((n, n), dtype=complex)
        for m, c in fs.items():
            recon += c * np.exp(1j * (m[0] * x1[:, None] + m[1] * x2[None, :]))
        assert np.max(np.abs(recon - grid)) < 1e-12

    def test_slab_depth_independent(self):
        med = q.MediumModel.slab_stack([(-1.0, 1.0, 2.0)], 1.0)
        for x3 in (-0.9, 0.0, 0.75):
            assert slice_at(med, x3, 1)[(0, 0)] == 2.0

    def test_stacked_layers_lookup(self):
        med = q.MediumModel.slab_stack([(-1.0, 0.0, 2.0), (0.0, 1.0, 3.0)], 1.0)
        assert slice_at(med, -0.5, 0)[(0, 0)] == 2.0
        assert slice_at(med, 0.5, 0)[(0, 0)] == 3.0

    def test_cell_coefficients_are_each_cells_dft(self):
        rng = np.random.default_rng(7)
        vals = 1.5 + 0.3 * rng.standard_normal((6, 4, 3))
        coef = q.MediumModel.sampled(vals, 1.0).cell_coefficients(2)
        assert coef.shape == (3, 5, 5)
        for c in range(3):
            fh = np.fft.fft2(vals[:, :, c]) / 24
            for m1, m2 in q.mode_range(2):
                assert coef[c, m1 + 2, m2 + 2] == fh[m1 % 6, m2 % 4]


class TestBreaks:
    """The depth breaks -h = z_0 < ... < z_L = h between which q is constant."""

    def test_stack_breaks_are_its_layer_bounds(self):
        layers = [(0.45, 1.0 + 5e-13, 1.4), (-1.0 - 5e-13, -0.3, 2.0), (-0.3, 0.45, 3.2)]
        med = q.MediumModel.slab_stack(layers, 1.0)
        assert med.breaks.tolist() == [-1.0, -0.3, 0.45, 1.0]
        assert q.MediumModel.homogeneous(2.0, 0.8).breaks.tolist() == [-0.8, 0.8]

    def test_sampled_breaks_are_equal_cells(self):
        med = q.MediumModel.sampled(np.full((4, 4, 5), 2.0), 0.7)
        assert med.breaks.tolist() == (0.7 * np.linspace(-1.0, 1.0, 6)).tolist()
        assert med.breaks[0] == -0.7 and med.breaks[-1] == 0.7

    def test_zero_width_cells_are_refused(self):
        for layers in ([(-1.0, 0.2, 2.0), (0.2, 0.2, 3.0), (0.2, 1.0, 1.5)],
                       [(-1.0, -1.0, 2.0), (-1.0, 1.0, 1.5)]):
            with pytest.raises(ValueError, match="positive width"):
                q.MediumModel.slab_stack(layers, 1.0)
        with pytest.raises(ValueError, match="positive width"):
            q.MediumModel.sampled(np.full((2, 2, 4), 2.0), 5e-324)

    def test_breaks_are_read_only(self):
        med = q.MediumModel.sampled(np.full((4, 4, 2), 2.0), 1.0)
        with pytest.raises(ValueError):
            med.breaks[1] = 0.5


class TestValidate:
    def test_hypothesis_holds(self):
        med = q.MediumModel.homogeneous(2.0, 1.0)
        inc = q.IncidenceSpec.from_angles(1.0, np.pi / 4, 0.0, 1.0)
        rep = q.validate(med, inc)
        assert rep.q_ge_sin2 and rep.q_ge_one and not rep.warnings

    def test_hypothesis_violated_warns(self):
        med = q.MediumModel.homogeneous(0.3, 1.0)
        inc = q.IncidenceSpec.from_angles(1.0, np.pi / 3, 0.0, 1.0)
        rep = q.validate(med, inc)
        assert rep.q_ge_sin2 is False
        assert rep.warnings

    def test_guided_example_slab(self):
        med = q.MediumModel.slab_stack([(-1.0, 1.0, 2.0)], 1.0)
        rep = q.validate(med)
        assert rep.q_ge_one

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_constructor_rejects_non_finite_h_and_bounds(self, bad):
        with pytest.raises(ValueError, match="h must be positive and finite"):
            q.MediumModel.sampled(np.full((8, 8, 1), 2.0), bad)
        with pytest.raises(ValueError, match="finite"):
            q.MediumModel.homogeneous(2.0, bad)
        with pytest.raises(ValueError, match="layer bounds must be finite"):
            q.MediumModel.slab_stack([(-1.0, bad, 1.5), (0.2, 1.0, 2.0)], 1.0)

    @pytest.mark.parametrize("layer", [(-1.0, 1.0, 2.0), (1.0, -1.0, 2.0)],
                             ids=["ascending", "descending"])
    @pytest.mark.parametrize("h", [-1.0, 0.0])
    def test_slab_stack_checks_h_before_the_layer_cover(self, layer, h):
        # whether or not the layers would cover [-h, h], a bad h is named
        with pytest.raises(ValueError, match=f"h must be positive and finite, got {h!r}"):
            q.MediumModel.slab_stack([layer], h)

    def test_constructor_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="min Re q = -1 below q_floor = 1e-06"):
            q.MediumModel.homogeneous(-1.0, 1.0)
        with pytest.raises(ValueError):
            q.MediumModel.homogeneous(2.0 - 0.1j, 1.0)  # gain medium

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(2.0, np.nan),
                                     complex(2.0, np.inf)])
    def test_constructor_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            q.MediumModel.homogeneous(bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            q.MediumModel.slab_stack([(-1.0, 0.0, 2.0), (0.0, 1.0, bad)], 1.0)
        vals = np.full((8, 8, 1), 2.0, dtype=complex)
        vals[3, 5, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            q.MediumModel.sampled(vals, 1.0)

    def test_all_nan_sampled_medium_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            q.MediumModel.sampled(np.full((8, 8, 1), np.nan), 1.0)


    @pytest.mark.parametrize("shape", [(0, 4, 2), (4, 0, 2), (4, 4, 0)])
    def test_empty_axis_names_the_shape(self, shape):
        # once numpy's "zero-size array to reduction operation minimum"
        with pytest.raises(ValueError, match=re.escape(f"on every axis, got shape {shape}")):
            q.MediumModel.sampled(np.zeros(shape), 1.0)

    @pytest.mark.parametrize("values", [np.array([[["a"]]]), np.array([[[b"2"]]]),
                                        np.array([[[None]]]), np.array([[[True]]])],
                             ids=["str", "bytes", "object", "bool"])
    def test_non_numbers_name_the_dtype(self, values):
        # a string grid once raised numpy's UFuncTypeError, a TypeError
        with pytest.raises(ValueError, match=f"q values must be numbers, got dtype {values.dtype}"):
            q.MediumModel.sampled(values, 1.0)


class TestSampledValues:
    """A sampled medium keeps a private, read-only copy of its values."""

    def test_editing_the_source_leaves_the_medium_unchanged(self):
        src = np.full((8, 8, 2), 2.0)
        med = q.MediumModel.sampled(src, 1.0)
        src[0, 0, 0] = -5.0  # would fail the q_floor check if it reached the medium
        assert np.all(med.values == 2.0)

    def test_values_are_read_only(self):
        med = q.MediumModel.sampled(np.full((8, 8, 2), 2.0 + 0.0j), 1.0)
        with pytest.raises(ValueError):
            med.values[0, 0, 0] = -5.0
        assert med.values.dtype == float and med.values.flags.c_contiguous

    def test_small_loss_is_kept(self):
        # a 1 x 1 x 1 grid of 2 + 1e-9i was once stored real (an allclose test
        # of its imaginary part), so it was solved lossless and read max_im_q 0
        grid = q.MediumModel.sampled(np.full((1, 1, 1), 2.0 + 1e-9j), 1.0)
        slab = q.MediumModel.homogeneous(2.0 + 1e-9j, 1.0)
        assert q.validate(grid).max_im_q == q.validate(slab).max_im_q == 1e-9
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        disc = q.Discretization(N=1, M=16)
        rds = [q.rayleigh_data(q.solve(q.assemble(inc, med, disc), q.rhs(inc, disc)), inc)
               for med in (grid, slab)]
        for side in ("efficiencies_up", "efficiencies_down"):
            got, want = getattr(rds[0], side), getattr(rds[1], side)
            assert got.keys() == want.keys()
            assert all(got[n] == pytest.approx(want[n], rel=1e-14, abs=0) for n in want)
        assert rds[0].total_efficiency < 1.0 - 1e-9  # the loss

    def test_single_precision_grid_gets_double_precision_coefficients(self):
        # a float32 grid once kept float32, and its fft2 complex64 coefficients
        x = 2 * np.pi * np.arange(12) / 12
        grid = (2.0 + 0.5 * np.cos(x)[:, None, None] * np.cos(x)[None, :, None]).astype(np.float32)
        single, double = (q.MediumModel.sampled(v, 1.0) for v in (grid, grid.astype(float)))
        assert single.values.dtype == float
        got, want = single.cell_coefficients(4), double.cell_coefficients(4)
        assert got.dtype == complex and np.array_equal(got, want)


class TestReadOnlyModel:
    """No attribute of a medium can be rebound: checks and cached tables stay valid."""

    @pytest.mark.parametrize("build", [
        lambda: q.MediumModel.homogeneous(2.0, 1.0),
        lambda: q.MediumModel.slab_stack([(-1.0, 1.0, 2.0)], 1.0),
        lambda: q.MediumModel.sampled(np.full((8, 8, 1), 2.0), 1.0),
    ], ids=["homogeneous", "slab_stack", "sampled"])
    @pytest.mark.parametrize("name, value", [
        ("h", 2.0), ("values", np.full((8, 8, 1), 3.0)), ("breaks", np.array([-2.0, 2.0])),
    ], ids=["h-2.0", "values-value5", "breaks"])
    def test_rebinding_raises(self, build, name, value):
        med = build()
        before = getattr(med, name)
        with pytest.raises(AttributeError):
            setattr(med, name, value)
        with pytest.raises(AttributeError):
            delattr(med, name)
        assert getattr(med, name) is before


class TestIngestion:
    def test_round_trip_file(self, tmp_path):
        rng = np.random.default_rng(3)
        vals = 1.2 + 0.2 * rng.standard_normal((6, 4, 3))
        path = tmp_path / "medium.dat"
        q.save_sampled_medium(path, vals, 0.8)
        med = q.load_sampled_medium(path)
        assert med.h == 0.8
        assert med.values.shape == (6, 4, 3)
        assert np.allclose(med.values, vals, atol=0)

    def test_complex_values(self, tmp_path):
        vals = np.full((4, 4, 2), 1.5 + 0.25j)
        path = tmp_path / "medium.dat"
        q.save_sampled_medium(path, vals, 1.0)
        med = q.load_sampled_medium(path)
        assert np.allclose(med.values, vals)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_text("not a medium file\n")
        with pytest.raises(q.QpscatError):
            q.load_sampled_medium(path)

    @pytest.mark.parametrize("sizes, values, key", [
        ((-1, -1, 1), "2.0", "n1"),  # two unknown sizes once reached numpy's reshape
        ((0, 1, 1), "", "n1"),       # an empty grid once reached a reduction of nothing
        ((2, 0, 1), "", "n2"),
        ((2, 2, -3), "", "n3"),
    ])
    def test_sizes_below_one_rejected(self, tmp_path, sizes, values, key):
        path = tmp_path / "sizes.dat"
        n1, n2, n3 = sizes
        path.write_text(f"qpscat-medium v1\nn1 {n1}\nn2 {n2}\nn3 {n3}\nh 1.0\n"
                        f"data csv\n{values}\n")
        with pytest.raises(q.QpscatError, match=f"header key {key} = -?[0-9]+ must be >= 1"):
            q.load_sampled_medium(path)

    def test_wrong_count_rejected(self, tmp_path):
        path = tmp_path / "short.dat"
        path.write_text("qpscat-medium v1\nn1 2\nn2 2\nn3 2\nh 1.0\ndata csv\n1,2,3\n")
        with pytest.raises(q.QpscatError):
            q.load_sampled_medium(path)
