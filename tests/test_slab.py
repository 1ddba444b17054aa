"""Constant-slab oracles: dispersion, Brillouin map, transfer matrix, determinants."""
import tracemalloc

import numpy as np
import pytest

import qpscat as q

K_EX = np.pi / (2 * np.sqrt(2))
MODE_RADIUS = np.pi * np.sqrt(3) / 4


class TestDispersionResidual:
    def test_even_mode_at_analytic_root(self):
        p = q.SlabParams(q0=2.0, h=1.0, k=K_EX, abs_alpha=MODE_RADIUS)
        assert abs(q.dispersion_residual(p, "even")) < 1e-14

    def test_odd_residual_nonzero_at_even_root(self):
        # decay sin(g) + g cos(g) at g = decay = pi/4: two equal terms
        p = q.SlabParams(q0=2.0, h=1.0, k=K_EX, abs_alpha=MODE_RADIUS)
        val = q.dispersion_residual(p, "odd")
        assert val == pytest.approx(2 * (np.pi / 4) * (np.sqrt(2) / 2), rel=1e-12)

    def test_limit_at_lower_edge(self):
        # |alpha| -> k+: residual -> -gamma sin(gamma) < 0 for gamma in (0, pi)
        k = 1.3
        p = q.SlabParams(q0=2.0, h=1.0, k=k)
        a = k * (1 + 1e-9)
        g = np.sqrt(k * k * 2.0 - a * a)
        assert 0 < g < np.pi
        val = q.dispersion_residual(p, "even", a)
        assert val == pytest.approx(-g * np.sin(g), abs=1e-4)
        assert val < 0

    def test_domain_error_outside_range(self):
        p = q.SlabParams(q0=2.0, h=1.0, k=1.0)
        with pytest.raises(q.DomainError):
            q.dispersion_residual(p, "even", 0.5)
        with pytest.raises(q.DomainError):
            q.dispersion_residual(p, "even", 2.0)


    @pytest.mark.parametrize("k, q0", [(1e300, 2.0), (1e300, 0.5), (1e154, 2.0)])
    def test_overflowing_wavenumber_is_a_domain_error(self, k, q0):
        # k^2 q0 overflows (at k = 1e154 only once multiplied by q0 = 2)
        with pytest.raises(q.DomainError, match="overflows double precision"):
            q.SlabParams(q0=q0, h=1.0, k=k)
        with pytest.raises(q.DomainError, match="overflows double precision"):
            q.find_dispersion_roots(q0, 1.0, k, "even")


class TestFindDispersionRoots:
    def test_analytic_even_root(self):
        roots = q.find_dispersion_roots(2.0, 1.0, K_EX, "even")
        assert len(roots) == 1
        assert roots[0].abs_alpha == pytest.approx(MODE_RADIUS, abs=1e-10)
        assert roots[0].inner_wavenumber == pytest.approx(np.pi / 4, abs=1e-10)
        assert roots[0].decay == pytest.approx(np.pi / 4, abs=1e-10)

    def test_low_index_empty(self):
        for k in (0.5, 1.0, 2.0):
            assert q.find_dispersion_roots(0.5, 1.0, k, "even") == []

    def test_count_matches_dense_scan(self):
        # independent oracle: count sign changes on a 10^4-point scan
        q0, h, k = 4.0, 1.0, 1.0
        p = q.SlabParams(q0=q0, h=h, k=k)
        for parity in ("even", "odd"):
            lo, hi = k * (1 + 1e-9), k * np.sqrt(q0) * (1 - 1e-9)
            grid = np.linspace(lo, hi, 10_000)
            vals = np.array([q.dispersion_residual(p, parity, a) for a in grid])
            scan_count = int(np.sum(np.sign(vals[:-1]) != np.sign(vals[1:])))
            roots = q.find_dispersion_roots(q0, h, k, parity)
            assert len(roots) == scan_count

    def test_roots_satisfy_interface_conditions(self):
        # closed-form mode: value and derivative continuous at x3 = +-h
        for parity in ("even", "odd"):
            for r in q.find_dispersion_roots(4.0, 1.0, 1.0, parity):
                g, d = r.inner_wavenumber, r.decay
                if parity == "even":
                    inner_val, inner_der = np.cos(g), -g * np.sin(g)
                else:
                    inner_val, inner_der = np.sin(g), g * np.cos(g)
                outer_val = inner_val
                outer_der = -d * outer_val
                assert abs(inner_der - outer_der) < 1e-12 * max(1.0, abs(inner_der))
                # mirrored interface at x3 = -h by parity
                prof = q.guided_mode_profile(r, 1.0, np.array([-1.0, 1.0]))
                assert abs(prof[1] - inner_val) < 1e-12
                sym = 1.0 if parity == "even" else -1.0
                assert abs(prof[0] - sym * inner_val) < 1e-12


class TestBrillouinMap:
    def test_marked_cells_lie_on_circles(self):
        bmap = q.brillouin_map(K_EX, MODE_RADIUS, grid=256)
        c = bmap.centers()
        A1, A2 = np.meshgrid(c, c, indexing="ij")
        pts = np.stack([A1.ravel(), A2.ravel()], axis=1)
        ls = np.array([(i, j) for i in range(-2, 3) for j in range(-2, 3)], dtype=float)
        dist = np.linalg.norm(pts[:, None, :] + ls[None, :, :], axis=2)
        diag = np.sqrt(2.0) / 256
        for cls_bit, radius in ((1, K_EX), (2, MODE_RADIUS)):
            marked = (bmap.classes.ravel() & cls_bit) > 0
            err = np.abs(dist[marked] - radius).min(axis=1)
            assert err.max() < 2 * diag
            assert marked.sum() > 0

    def test_circle_points_are_marked(self):
        bmap = q.brillouin_map(K_EX, MODE_RADIUS, grid=256)
        c = bmap.centers()
        for radius, bit in ((K_EX, 1), (MODE_RADIUS, 2)):
            for t in np.linspace(0, 2 * np.pi, 40, endpoint=False):
                pt = radius * np.array([np.cos(t), np.sin(t)])
                pt = (pt + 0.5) % 1.0 - 0.5  # fold into the zone
                i = int(np.argmin(np.abs(c - pt[0])))
                j = int(np.argmin(np.abs(c - pt[1])))
                block = bmap.classes[max(i - 1, 0):i + 2, max(j - 1, 0):j + 2]
                assert np.any((block & bit) > 0)

    def test_symmetry(self):
        bmap = q.brillouin_map(K_EX, MODE_RADIUS, grid=64)
        cl = bmap.classes
        assert np.array_equal(cl, cl[::-1, :])   # alpha1 -> -alpha1
        assert np.array_equal(cl, cl[:, ::-1])   # alpha2 -> -alpha2
        assert np.array_equal(cl, cl.T)          # square-lattice diagonal

    def test_zero_mode_radius_origin_only(self):
        bmap = q.brillouin_map(0.4, 0.0, grid=33)
        prop = np.argwhere((bmap.classes & 2) > 0)
        assert len(prop) == 1
        c = bmap.centers()
        i, j = prop[0]
        assert abs(c[i]) < 1e-12 and abs(c[j]) < 1e-12

    def test_marked_counts_proportional_to_arc_length(self):
        # estimate the in-zone arc length of each translated circle family by
        # dense sampling; marked-cell counts scale like arclength / cell size
        grid = 256
        bmap = q.brillouin_map(K_EX, MODE_RADIUS, grid=grid)
        ts = np.linspace(0, 2 * np.pi, 200_000, endpoint=False)
        for bit, radius in ((1, K_EX), (2, MODE_RADIUS)):
            arc = 0.0
            for l1 in range(-2, 3):
                for l2 in range(-2, 3):
                    pts = radius * np.stack([np.cos(ts), np.sin(ts)], axis=1) \
                        - np.array([l1, l2], dtype=float)
                    inside = np.all(np.abs(pts) <= 0.5, axis=1)
                    arc += 2 * np.pi * radius * inside.mean()
            count = int(((bmap.classes & bit) > 0).sum())
            expected = arc * grid  # one cell column per unit arc, roughly
            assert 0.5 * expected < count < 2.5 * expected

    def test_small_k_single_circle(self):
        # k = 0.4: no lattice translate reaches the zone; one full circle
        bmap = q.brillouin_map(0.4, 0.0, grid=128)
        c = bmap.centers()
        A1, A2 = np.meshgrid(c, c, indexing="ij")
        r = np.hypot(A1, A2)
        marked = (bmap.classes & 1) > 0
        assert np.all(np.abs(r[marked] - 0.4) < 2 * np.sqrt(2) / 128)
        # arc-length proportionality: count ~ circumference / cell
        expected = 2 * np.pi * 0.4 * 128
        assert 0.5 * expected < marked.sum() < 2.0 * expected


    @pytest.mark.parametrize("k, radius", [(K_EX, MODE_RADIUS), (0.4, 0.0), (1.9, 0.25)])
    @pytest.mark.parametrize("grid", [33, 64, 128])
    def test_classes_are_the_broadcast_formula(self, k, radius, grid):
        # every cell against all 25 translates at once, as one (grid^2, 25) array
        cell = 1.0 / grid
        tol = 0.5 * np.sqrt(2.0) * cell
        c = (np.arange(grid) + 0.5) * cell - 0.5
        A1, A2 = np.meshgrid(c, c, indexing="ij")
        pts = np.stack([A1.ravel(), A2.ravel()], axis=1)
        ls = np.array([(i, j) for i in range(-2, 3) for j in range(-2, 3)], dtype=float)
        dist = np.linalg.norm(pts[:, None, :] + ls[None, :, :], axis=2)
        want = (np.abs(dist - k) < tol).any(axis=1).astype(np.int8)
        if radius > 0:
            want |= (np.abs(dist - radius) < tol).any(axis=1).astype(np.int8) * 2
        else:
            want |= (np.linalg.norm(pts, axis=1) <= tol * (1 + 1e-9)).astype(np.int8) * 2
        classes = q.brillouin_map(k, radius, grid=grid).classes
        assert classes.dtype == np.int8
        assert np.array_equal(classes, want.reshape(grid, grid))

    def test_default_grid_holds_a_few_arrays_of_cells(self):
        # the broadcast over all 25 translates peaked at 323 MB on this grid
        tracemalloc.start()
        try:
            q.brillouin_map(K_EX, MODE_RADIUS, grid=512)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6

    def test_guard_counts_the_map_before_allocating(self, monkeypatch):
        grid = 64
        need = 96 * grid ** 2
        for have, fits in ((need - 1, False), (need, True)):
            monkeypatch.setattr(q.helmholtz.os, "sysconf", lambda name, have=have:
                                1 if name == "SC_PAGE_SIZE" else have)
            if fits:
                assert q.brillouin_map(K_EX, MODE_RADIUS, grid=grid).count(1) > 0
            else:
                with pytest.raises(q.OperatorTooLarge,
                                   match=f"needs {need / 2**30:.4g} GiB"):
                    q.brillouin_map(K_EX, MODE_RADIUS, grid=grid)


class TestTransferMatrix:
    def test_transparent_layer(self):
        inc = q.IncidenceSpec.from_angles(2.0, 0.3, 0.0, 1.0)
        p = q.SlabParams(q0=1.0, h=1.0, k=2.0)
        rd = q.transfer_matrix_scattering(p, inc)
        assert abs(rd.u_plus[(0, 0)]) < 1e-14
        ct = np.cos(0.3)
        assert rd.u_minus[(0, 0)] == pytest.approx(np.exp(1j * 2.0 * ct * 1.0), rel=1e-13)

    def test_energy_conservation(self):
        inc = q.IncidenceSpec.from_angles(1.0, 0.0, 0.0, 1.0)
        p = q.SlabParams(q0=2.0, h=1.0, k=1.0)
        rd = q.transfer_matrix_scattering(p, inc)
        assert rd.balance_residual < 1e-13

    def test_energy_conservation_random(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            k = rng.uniform(0.3, 3.0)
            t1 = rng.uniform(-1.3, 1.3)
            q0 = rng.uniform(0.2, 5.0)
            inc = q.IncidenceSpec.from_angles(k, t1, rng.uniform(0, 6), 1.0)
            p = q.SlabParams(q0=q0, h=1.0, k=k)
            rd = q.transfer_matrix_scattering(p, inc)
            assert rd.balance_residual < 1e-12

    def test_continuity_system_oracle(self):
        """Independent residual check: the returned coefficients satisfy the
        4x4 continuity conditions evaluated directly on the field ansatz."""
        k, t1, q0, h = 1.0, 0.0, 2.0, 1.0
        inc = q.IncidenceSpec.from_angles(k, t1, 0.0, h)
        rd = q.transfer_matrix_scattering(q.SlabParams(q0=q0, h=h, k=k), inc)
        up, um = rd.u_plus[(0, 0)], rd.u_minus[(0, 0)]
        b0 = k * np.cos(t1)
        g = np.sqrt(k * k * q0)
        # recover interior amplitudes from the bottom interface conditions
        A = np.array([[np.exp(-1j * g * h), np.exp(1j * g * h)],
                      [1j * g * np.exp(-1j * g * h), -1j * g * np.exp(1j * g * h)]])
        a, b = np.linalg.solve(A, [um, -1j * b0 * um])
        # top interface conditions must then hold
        lhs_val = np.exp(-1j * b0 * h) + up
        rhs_val = a * np.exp(1j * g * h) + b * np.exp(-1j * g * h)
        assert lhs_val == pytest.approx(rhs_val, rel=1e-12)
        lhs_der = -1j * b0 * np.exp(-1j * b0 * h) + 1j * b0 * up
        rhs_der = 1j * g * (a * np.exp(1j * g * h) - b * np.exp(-1j * g * h))
        assert lhs_der == pytest.approx(rhs_der, rel=1e-12)

    def test_rejects_surface_incidence(self):
        inc = q.IncidenceSpec.from_alpha(1.0, (1.5, 0.0), 1.0)
        with pytest.raises(q.DomainError):
            q.transfer_matrix_scattering(q.SlabParams(q0=2.0, h=1.0, k=1.0), inc)


class TestNoModeDeterminant:
    def test_plugin_value(self):
        # q0=0.5, k=2, |alpha_n|=1.5: |gamma| = 0.5, value (e^-1 - e) * 4 * 0.5
        p = q.SlabParams(q0=0.5, h=1.0, k=2.0)
        val = q.no_mode_determinant(p, 1.5)
        assert val == pytest.approx((np.exp(-1.0) - np.e) * 2.0, rel=1e-14)
        assert val < 0

    def test_vanishes_as_contrast_closes(self):
        k = 2.0
        vals = [q.no_mode_determinant(q.SlabParams(q0=q0, h=1.0, k=k),
                                      0.5 * k * (np.sqrt(q0) + 1.0))
                for q0 in (0.9, 0.99, 0.999)]
        assert all(v < 0 for v in vals)
        assert abs(vals[2]) < abs(vals[1]) < abs(vals[0])

    def test_sign_randomized(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            q0 = rng.uniform(0.01, 0.99)
            k = rng.uniform(0.2, 3.0)
            a = rng.uniform(k * np.sqrt(q0) * (1 + 1e-6), k * (1 - 1e-6))
            assert q.no_mode_determinant(q.SlabParams(q0=q0, h=1.0, k=k), a) < 0

    def test_domain_errors(self):
        p = q.SlabParams(q0=0.5, h=1.0, k=2.0)
        with pytest.raises(q.DomainError):
            q.no_mode_determinant(p, 1.0)  # gamma real: interior oscillates
        with pytest.raises(q.DomainError):
            q.no_mode_determinant(p, 2.5)  # order not propagating
        with pytest.raises(q.DomainError):
            q.no_mode_determinant(q.SlabParams(q0=2.0, h=1.0, k=2.0), 1.5)
