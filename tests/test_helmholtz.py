"""Assembly, solve, Rayleigh extraction, lift: oracles and invariants."""
import time

import numpy as np
import pytest

import qpscat as q

K_EX = np.pi / (2 * np.sqrt(2))
ALPHA_EX = (1 - np.pi * np.sqrt(3) / 4, 0.0)


def solve_slab(q0, k, theta1, M, scheme=q.CHEBYSHEV, N=0, h=1.0):
    inc = q.IncidenceSpec.from_angles(k, theta1, 0.0, h)
    med = q.MediumModel.homogeneous(q0, h)
    disc = q.Discretization(N=N, M=M, depth_scheme=scheme)
    op = q.assemble(inc, med, disc)
    v = q.solve(op, q.rhs(inc, disc, op.space))
    return inc, v, q.rayleigh_data(v, inc)


def oracle_u(q0, k, theta1, h=1.0):
    inc = q.IncidenceSpec.from_angles(k, theta1, 0.0, h)
    p = q.SlabParams(q0=q0, h=h, k=k)
    rd = q.transfer_matrix_scattering(p, inc)
    return rd.u_plus[(0, 0)], rd.u_minus[(0, 0)]


class TestDiscretization:
    @pytest.mark.parametrize("N, M", [(1.5, 16), (1, 16.0), (1.0, 16), (1, "16")])
    def test_rejects_non_integer_sizes(self, N, M):
        with pytest.raises(ValueError, match="must be an integer"):
            q.Discretization(N=N, M=M)

    def test_accepts_numpy_integers(self):
        disc = q.Discretization(N=np.int64(1), M=np.int32(16))
        assert disc.unknowns == 9 * 16


class TestAssemble:
    def test_transparent_layer_no_scattering(self):
        _, _, rd = solve_slab(1.0, 1.3, 0.37, 32, N=2)
        assert all(abs(c) < 1e-12 for c in rd.u_plus.values())

    def test_block_diagonal_for_slab(self):
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.0, 1.0)
        med = q.MediumModel.slab_stack([(-1.0, 1.0, 2.0)], 1.0)
        op = q.assemble(inc, med, q.Discretization(N=1, M=16))
        assert op.block_diagonal

    def test_constant_sampled_medium_off_blocks_vanish(self):
        # a transversely constant sampled grid must produce exactly zero coupling
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.0, 1.0)
        vals = np.full((8, 8, 4), 2.0)
        med = q.MediumModel.sampled(vals, 1.0)
        disc = q.Discretization(N=1, M=12)
        op = q.assemble(inc, med, disc)
        assert not op.block_diagonal
        M = disc.M
        G = op.matrix
        for i, n in enumerate(op.space.modes):
            for j, m in enumerate(op.space.modes):
                if i != j:
                    blk = G[i * M:(i + 1) * M, j * M:(j + 1) * M]
                    assert np.all(blk == 0.0)

    def test_zero_order_block_matches_transfer_matrix_problem(self):
        # N=0 discrete solve converges to the analytic 1-d oracle
        up_o, um_o = oracle_u(2.0, 1.0, 0.0)
        _, _, rd = solve_slab(2.0, 1.0, 0.0, 40)
        assert abs(rd.u_plus[(0, 0)] - up_o) < 1e-12
        assert abs(rd.u_minus[(0, 0)] - um_o) < 1e-12

    def test_cutoff_violation_real_k(self):
        inc = q.IncidenceSpec.from_alpha(1.0, (0.0, 0.0), 1.0)  # |(±1,0)| = k
        med = q.MediumModel.homogeneous(2.0, 1.0)
        with pytest.raises(q.CutoffViolation):
            q.assemble(inc, med, q.Discretization(N=1, M=16))

    def test_complex_k_no_cutoff_screening(self):
        inc = q.IncidenceSpec.from_alpha(1.0 + 0.01j, (0.0, 0.0), 1.0)
        med = q.MediumModel.homogeneous(2.0, 1.0)
        q.assemble(inc, med, q.Discretization(N=1, M=16))  # must not raise

    def test_alias_error(self):
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.0, 1.0)
        vals = np.full((8, 8, 4), 2.0)
        med = q.MediumModel.sampled(vals, 1.0)
        with pytest.raises(q.AliasError):
            q.assemble(inc, med, q.Discretization(N=2, M=12))  # needs >= 10 points


def coupled_medium(n=12, h=1.0):
    """12 x 12 x 3 sampled grid varying in x1, x2 and x3."""
    x = 2 * np.pi * np.arange(n) / n
    c1, s2 = np.cos(x)[:, None, None], np.sin(x)[None, :, None]
    z = np.array([-0.5, 0.1, 0.7])[None, None, :]
    vals = 2.0 + 0.4 * c1 + 0.3 * s2 * (1 + z) + 0.2 * c1 * s2 * z
    return q.MediumModel.sampled(vals, h)


class TestCoupledMedium:
    N, M = 2, 16

    def setup_method(self):
        self.med = coupled_medium()
        self.disc = q.Discretization(N=self.N, M=self.M)
        self.space = q.FieldSpace(self.disc, 1.0)
        # criterion 10's incidence; its FD constant is set by the beta_n
        # curvature near cut-off and is the same on a homogeneous layer
        self.inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)

    def test_dense_blocks_are_fourier_coupling_masses(self):
        grid, M, k = self.space.grid, self.M, self.inc.k
        slices = [self.med.fourier_slice(z, 2 * self.N) for z in grid.quad_x]
        G = q.assemble(self.inc, self.med, self.disc, self.space).matrix
        for i, n in enumerate(self.space.modes):
            for j, m in enumerate(self.space.modes):
                if i == j:
                    continue
                d = (n[0] - m[0], n[1] - m[1])
                qhat = np.array([s[d] for s in slices])
                want = -k * k * grid.weighted_mass(qhat)
                assert np.array_equal(G[i * M:(i + 1) * M, j * M:(j + 1) * M], want)

    def test_eps_derivative_matches_finite_difference(self):
        A0 = q.assemble(self.inc, self.med, self.disc, self.space).matrix
        Ap = q.assemble_eps_derivative(self.inc, self.med, self.disc, self.space).matrix
        nm = len(self.space.modes)
        assert np.abs(Ap.reshape(nm, self.M, nm, self.M)[0, :, 1]).max() > 0  # coupled
        errs = []
        for delta in (1e-4, 1e-5):
            Ad = q.assemble(self.inc.with_k(K_EX + 1j * delta), self.med, self.disc,
                            self.space).matrix
            errs.append(np.linalg.norm((Ad - A0) / delta - Ap) / np.linalg.norm(Ap))
            assert errs[-1] <= 5 * delta
        assert 2.0 < errs[0] / errs[1] < 50.0  # first order

    def test_fourier_profiles_match_per_depth_slices(self):
        depths = self.space.grid.quad_x
        vals = self.med.values
        profs = self.med.fourier_profiles(depths, 2 * self.N)
        assert sorted(profs) == sorted(q.mode_range(2 * self.N))
        for a, z in enumerate(depths):
            cell = min(int((z + 1.0) // (2.0 / 3)), 2)
            fh = np.fft.fft2(vals[:, :, cell]) / vals[:, :, cell].size
            fs = self.med.fourier_slice(z, 2 * self.N)
            for m, p in profs.items():
                assert p[a] == fs[m]
                assert p[a] == pytest.approx(fh[m[0] % 12, m[1] % 12], abs=1e-15)


def inclusion_medium(n=12, h=1.0):
    """z-invariant disc of index 2.5 in a square of index 1.5, n x n x 1."""
    x = (np.arange(n) + 0.5) * 2 * np.pi / n
    r2 = (x[:, None] - np.pi) ** 2 + (x[None, :] - np.pi) ** 2
    vals = np.where(r2 < (0.35 * 2 * np.pi) ** 2, 2.5, 1.5)
    return q.MediumModel.sampled(vals[:, :, None], h)


def recorded_shapes(monkeypatch, name):
    """Patch numpy.linalg.<name> to record the shape of its first argument."""
    shapes, fn = [], getattr(np.linalg, name)

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return fn(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recording)
    return shapes


class TestParityScreen:
    """The dense singularity screen against a full SVD of the whitened matrix."""

    def svd_shapes(self, monkeypatch, op):
        """Singular values from the screen, and the shape of each SVD it ran."""
        with monkeypatch.context() as m:
            shapes = recorded_shapes(m, "svd")
            return op.whitened_singular_values(), shapes

    @pytest.mark.parametrize("scheme", [q.CHEBYSHEV, q.FINITE_DIFFERENCE])
    @pytest.mark.parametrize("k", [1.3, 1.3 + 0.05j])
    def test_symmetric_medium_splits_into_two_halves(self, monkeypatch, scheme, k):
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0).with_k(k)
        disc = q.Discretization(N=2, M=16, depth_scheme=scheme)
        op = q.assemble(inc, inclusion_medium(), disc)
        s, shapes = self.svd_shapes(monkeypatch, op)
        half = disc.unknowns // 2
        assert shapes == [(2, half, half)]  # one batched call per screen
        full = np.linalg.svd(op.whitened(), compute_uv=False)
        assert np.all(np.diff(s) <= 0)
        assert np.max(np.abs(s - full)) <= 1e-13 * full[0]

    @pytest.mark.parametrize("medium, M", [(coupled_medium, 16), (inclusion_medium, 15)])
    def test_fallback_is_the_full_svd(self, monkeypatch, medium, M):
        # a depth-asymmetric medium, and odd M, keep the full whitened SVD
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        disc = q.Discretization(N=2, M=M)
        op = q.assemble(inc, medium(), disc)
        s, shapes = self.svd_shapes(monkeypatch, op)
        assert shapes == [(disc.unknowns, disc.unknowns)]
        assert np.array_equal(s, np.linalg.svd(op.whitened(), compute_uv=False))

    def test_near_singular_on_guided_sampled_medium(self):
        inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
        med = q.MediumModel.sampled(np.full((8, 8, 1), 2.0), 1.0)
        disc = q.Discretization(N=1, M=16)
        op = q.assemble(inc, med, disc)
        assert not op.block_diagonal
        with pytest.raises(q.NearSingular) as exc:
            q.solve(op, q.rhs(inc, disc, op.space))
        assert exc.value.smallest_singular_value < 1e-8 * exc.value.sigma_max


class TestParitySolve:
    """Dense solves through the screen's parity halves against the full LU."""

    @pytest.mark.parametrize("scheme", [q.CHEBYSHEV, q.FINITE_DIFFERENCE])
    @pytest.mark.parametrize("k", [1.3, 1.3 + 0.05j])
    def test_symmetric_medium_solves_in_two_halves(self, monkeypatch, scheme, k):
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0).with_k(k)
        disc = q.Discretization(N=2, M=16, depth_scheme=scheme)
        op = q.assemble(inc, inclusion_medium(), disc)
        load = q.rhs(inc, disc)
        full = np.linalg.solve(op.dense, load.ravel()).reshape(load.shape)
        shapes = recorded_shapes(monkeypatch, "solve")
        v = q.solve(op, load).values
        half = disc.unknowns // 2
        assert shapes == [(2, half, half)]  # one batched LU, no refinement
        assert np.linalg.norm((v - full).ravel()) <= 1e-12 * np.linalg.norm(full.ravel())

    @pytest.mark.parametrize("medium, M", [(coupled_medium, 16), (inclusion_medium, 15)])
    def test_fallback_is_the_full_lu(self, monkeypatch, medium, M):
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        disc = q.Discretization(N=2, M=M)
        op = q.assemble(inc, medium(), disc)
        load = q.rhs(inc, disc)
        full = np.linalg.solve(op.dense, load.ravel()).reshape(load.shape)
        shapes = recorded_shapes(monkeypatch, "solve")
        v = q.solve(op, load).values
        assert shapes == [(disc.unknowns, disc.unknowns)]
        assert np.array_equal(v, full)

    def test_near_singular_before_any_factorization(self, monkeypatch):
        inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
        med = q.MediumModel.sampled(np.full((8, 8, 1), 2.0), 1.0)
        disc = q.Discretization(N=1, M=16)
        op = q.assemble(inc, med, disc)
        shapes = recorded_shapes(monkeypatch, "solve")
        with pytest.raises(q.NearSingular):
            q.solve(op, q.rhs(inc, disc))
        assert q.helmholtz._parity_halves(op) is not None  # the split path
        assert shapes == []


class TestOperatorSizeGuard:
    def test_terabyte_dense_operator_fails_before_allocating(self):
        # 81^2 modes x 64 nodes: a dense operator of about 2.8 TB; the 4 x 4
        # grid would also alias at N = 40, so only the guard can raise first
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        med = q.MediumModel.sampled(np.full((4, 4, 1), 2.0), 1.0)
        disc = q.Discretization(N=40, M=64)
        assert 16 * disc.unknowns ** 2 > 2.8e12
        for build in (q.assemble, q.assemble_eps_derivative):
            t0 = time.perf_counter()
            with pytest.raises(q.OperatorTooLarge, match="physical memory"):
                build(inc, med, disc)
            assert time.perf_counter() - t0 < 0.1


class TestRhs:
    def test_plugin_value(self):
        inc = q.IncidenceSpec.from_angles(2.0, 0.0, 0.0, 1.0)
        disc = q.Discretization(N=1, M=16)
        space = q.FieldSpace(disc, 1.0)
        load = q.rhs(inc, disc, space)
        i0 = space.mode_index[(0, 0)]
        assert load[i0, -1] == pytest.approx(-4j * np.exp(-2j), rel=1e-15)
        mask = np.ones(load.shape, dtype=bool)
        mask[i0, -1] = False
        assert np.all(load[mask] == 0.0)

    def test_grazing_limit(self):
        disc = q.Discretization(N=0, M=16)
        space = q.FieldSpace(disc, 1.0)
        t1 = np.pi / 2 - 1e-8
        inc = q.IncidenceSpec.from_angles(2.0, t1, 0.0, 1.0)
        load = q.rhs(inc, disc, space)
        assert np.max(np.abs(load)) < 1e-7

    def test_eps_derivative_against_finite_difference(self):
        # d/d eps of the load: 2 cos t1 (1 - ikh cos t1) e^{-ikh cos t1}
        inc = q.IncidenceSpec.from_angles(1.7, 0.4, 0.2, 1.0)
        disc = q.Discretization(N=0, M=16)
        space = q.FieldSpace(disc, 1.0)
        dl = q.rhs_eps_derivative(inc, disc, space)
        ct = np.cos(0.4)
        expected = 2 * ct * (1 - 1j * 1.7 * 1.0 * ct) * np.exp(-1j * 1.7 * 1.0 * ct)
        assert dl[0, -1] == pytest.approx(expected, rel=1e-14)
        errs = []
        for delta in (1e-5, 1e-6):
            fd = (q.rhs(inc.with_k(1.7 + 1j * delta), disc, space)
                  - q.rhs(inc, disc, space)) / delta
            errs.append(np.max(np.abs(fd - dl)))
        assert errs[1] < errs[0]
        assert errs[1] < 1e-4


class TestSolve:
    def test_transparent_layer_field_is_incident(self):
        inc, v, _ = solve_slab(1.0, 1.3, 0.37, 32, N=1)
        x3 = v.space.grid.nodes
        exact = np.exp(-1j * 1.3 * np.cos(0.37) * x3)
        assert np.max(np.abs(v.profile((0, 0)) - exact)) < 1e-10
        for n in v.space.modes:
            if n != (0, 0):
                assert np.max(np.abs(v.profile(n))) < 1e-12

    def test_residual_contract(self):
        inc, v, _ = solve_slab(2.0, 1.0, 0.0, 24)
        med = q.MediumModel.homogeneous(2.0, 1.0)
        op = q.assemble(inc, med, q.Discretization(N=0, M=24))
        load = q.rhs(inc, q.Discretization(N=0, M=24), op.space)
        resid = np.linalg.norm((op.apply(v.values) - load).ravel())
        assert resid <= 1e-10 * np.linalg.norm(load.ravel())

    def test_near_singular_at_propagative_wave_vector(self):
        inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
        med = q.MediumModel.homogeneous(2.0, 1.0)
        disc = q.Discretization(N=2, M=32)
        op = q.assemble(inc, med, disc)
        with pytest.raises(q.NearSingular) as exc:
            q.solve(op, q.rhs(inc, disc, op.space))
        assert exc.value.smallest_singular_value < 1e-10 * exc.value.sigma_max

    @pytest.mark.parametrize("scheme,tol64", [(q.CHEBYSHEV, 1e-6),
                                              (q.FINITE_DIFFERENCE, 1e-3)])
    def test_slab_convergence(self, scheme, tol64):
        up_o, um_o = oracle_u(4.0, 2.0, 0.0)
        errs = []
        for M in (16, 32, 64):
            _, _, rd = solve_slab(4.0, 2.0, 0.0, M, scheme)
            errs.append(max(abs(rd.u_plus[(0, 0)] - up_o),
                            abs(rd.u_minus[(0, 0)] - um_o)))
        assert errs[-1] < tol64
        if scheme == q.FINITE_DIFFERENCE:
            slope = -np.polyfit(np.log([16, 32, 64]), np.log(errs), 1)[0]
            assert 1.6 < slope < 2.6
        else:
            assert max(errs) < 1e-10  # at the round-off floor from M=16 on

    def test_chebyshev_geometric_decay_preasymptotic(self):
        # below the round-off floor the depth error decays geometrically;
        # visible at small M for a high-contrast slab
        up_o, um_o = oracle_u(4.0, 2.0, 0.0)
        errs = []
        for M in (8, 10, 12, 14):
            _, _, rd = solve_slab(4.0, 2.0, 0.0, M)
            errs.append(max(abs(rd.u_plus[(0, 0)] - up_o),
                            abs(rd.u_minus[(0, 0)] - um_o)))
        assert errs[0] > errs[1] > errs[2] > errs[3]
        assert errs[3] < 1e-4 * errs[0]

    def test_complex_k_solvable_and_bounded_at_resonance(self):
        inc0 = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
        med = q.MediumModel.homogeneous(2.0, 1.0)
        disc = q.Discretization(N=2, M=24)
        norms = []
        for eps in (1e-1, 1e-2, 1e-3):
            inc = inc0.with_k(K_EX + 1j * eps)
            op = q.assemble(inc, med, disc)
            v = q.solve(op, q.rhs(inc, disc, op.space))
            norms.append(v.norm())
        assert max(norms) < 10 * min(norms)  # stays bounded as eps -> 0


class TestRayleighData:
    def test_transparent_layer_bookkeeping(self):
        _, _, rd = solve_slab(1.0, 1.3, 0.37, 32)
        ct = np.cos(0.37)
        assert rd.u_minus[(0, 0)] == pytest.approx(np.exp(1j * 1.3 * ct), abs=1e-11)
        assert abs(abs(rd.u_minus[(0, 0)]) - 1.0) < 1e-11
        assert rd.total_efficiency == pytest.approx(1.0, abs=1e-11)

    def test_slab_energy_balance(self):
        _, _, rd = solve_slab(2.0, 1.0, 0.0, 24)
        assert rd.balance_residual < 1e-8

    def test_energy_balance_many_configs(self):
        # lossless solves balance to near round-off (Hermitian bulk + exact
        # skew boundary part of the discrete form)
        rng = np.random.default_rng(12)
        for _ in range(10):
            q0 = rng.uniform(0.3, 4.0)
            k = rng.uniform(0.4, 2.5)
            t1 = rng.uniform(-1.2, 1.2)
            _, _, rd = solve_slab(q0, k, t1, 20)
            assert rd.balance_residual < 1e-12

    def test_absorbing_medium_loses_energy(self):
        inc = q.IncidenceSpec.from_angles(1.0, 0.0, 0.0, 1.0)
        med = q.MediumModel.homogeneous(2.0 + 0.3j, 1.0)
        disc = q.Discretization(N=0, M=32)
        op = q.assemble(inc, med, disc)
        v = q.solve(op, q.rhs(inc, disc, op.space))
        rd = q.rayleigh_data(v, inc)
        assert rd.total_efficiency < 1.0 - 1e-3


class TestQuasiperiodicLift:
    def test_pure_phase(self):
        disc = q.Discretization(N=0, M=16)
        space = q.FieldSpace(disc, 1.0)
        inc = q.IncidenceSpec.from_alpha(1.3, (1.0, 0.0), 1.0)
        v = q.FieldCoefficients(space=space, inc=inc,
                                values=np.ones((1, 16), dtype=complex))
        val = q.quasiperiodic_lift(v, inc, (np.pi, 0.0, 0.2))
        assert val == pytest.approx(-1.0, rel=1e-13)

    def test_transparent_layer_recovers_incident_wave(self):
        inc, v, _ = solve_slab(1.0, 1.3, 0.37, 32, N=1)
        that = np.array([np.sin(0.37), 0.0, -np.cos(0.37)])
        rng = np.random.default_rng(4)
        for _ in range(6):
            x = np.array([rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi),
                          rng.uniform(-2.0, 2.0)])
            exact = np.exp(1j * 1.3 * (that @ x))
            assert q.quasiperiodic_lift(v, inc, x) == pytest.approx(exact, abs=1e-10)

    @pytest.mark.parametrize("x", [(0.0, 0.0), (0.0, 0.0, 0.5, 1.0)])
    def test_rejects_points_that_are_not_3_vectors(self, x):
        inc, v, _ = solve_slab(2.0, 1.0, 0.2, 16)
        with pytest.raises(ValueError, match="3-vector"):
            q.quasiperiodic_lift(v, inc, x)

    def test_continuity_across_boundaries(self):
        inc, v, _ = solve_slab(2.0, 1.0, 0.2, 40)
        d = 1e-9
        for x3 in (1.0, -1.0):
            inside = q.quasiperiodic_lift(v, inc, (0.7, 1.1, x3 - np.sign(x3) * d))
            outside = q.quasiperiodic_lift(v, inc, (0.7, 1.1, x3 + np.sign(x3) * d))
            assert inside == pytest.approx(outside, rel=1e-7)

    @pytest.mark.parametrize("scheme", [q.CHEBYSHEV, q.FINITE_DIFFERENCE])
    def test_interior_lift_matches_per_mode_sum(self, monkeypatch, scheme):
        disc = q.Discretization(N=2, M=16, depth_scheme=scheme)
        space = q.FieldSpace(disc, 1.0)
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        rng = np.random.default_rng(7)
        vals = rng.normal(size=(25, 16)) + 1j * rng.normal(size=(25, 16))
        v = q.FieldCoefficients(space=space, inc=inc, values=vals)
        grid = space.grid
        calls, interp = [], q.helmholtz.DepthGrid._interp_matrix

        def counting(self, pts):
            calls.append(len(pts))
            return interp(self, pts)

        monkeypatch.setattr(q.helmholtz.DepthGrid, "_interp_matrix", counting)
        for x in ((0.7, 1.1, 0.23), (5.0, 2.0, -0.81), (0.1, 0.2, 1.0)):
            calls.clear()
            got = q.quasiperiodic_lift(v, inc, x)
            assert len(calls) == (scheme == q.CHEBYSHEV)  # one row per lift
            want = sum(complex(grid.interpolate(vals[i], x[2]))
                       * np.exp(1j * (n[0] * x[0] + n[1] * x[1]))
                       for i, n in enumerate(space.modes))
            want *= np.exp(1j * (inc.alpha_vec @ np.array(x[:2])))
            assert abs(got - want) <= 1e-14 * abs(want)


class TestFieldSpace:
    def test_inner_product_properties(self):
        disc = q.Discretization(N=1, M=16)
        sp = q.FieldSpace(disc, 1.0)
        rng = np.random.default_rng(31)
        u = rng.standard_normal((9, 16)) + 1j * rng.standard_normal((9, 16))
        v = rng.standard_normal((9, 16)) + 1j * rng.standard_normal((9, 16))
        assert sp.inner(u, u).real > 0
        assert abs(sp.inner(u, u).imag) < 1e-12 * sp.inner(u, u).real
        assert sp.inner(u, v) == pytest.approx(np.conj(sp.inner(v, u)), rel=1e-12)

    def test_whiten_roundtrip_and_isometry(self):
        disc = q.Discretization(N=1, M=16)
        sp = q.FieldSpace(disc, 1.0)
        rng = np.random.default_rng(32)
        u = rng.standard_normal((9, 16)) + 1j * rng.standard_normal((9, 16))
        y = sp.whiten(u)
        assert np.allclose(sp.unwhiten(y), u, atol=1e-10)
        assert np.linalg.norm(y.ravel()) == pytest.approx(sp.norm(u), rel=1e-12)


STACK_LAYERS = ((-1.0, -0.3, 2.0), (-0.3, 0.45, 3.2), (0.45, 1.0, 1.4))


class TestSharedSpace:
    """A Discretization builds one FieldSpace per h and every solve shares it."""

    def test_space_is_built_once_per_h(self):
        disc = q.Discretization(N=1, M=16)
        assert disc.space(1.0) is disc.space(1.0)
        assert disc.space(1) is disc.space(1.0)
        assert disc.space(2.0) is not disc.space(1.0)
        assert disc.space(2.0).h == 2.0
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.0, 1.0)
        op = q.assemble(inc, q.MediumModel.homogeneous(2.0, 1.0), disc)
        assert op.space is disc.space(1.0)
        assert q.rhs(inc, disc).shape == (9, 16)

    def test_cache_takes_no_part_in_equality(self):
        a, b = q.Discretization(N=1, M=16), q.Discretization(N=1, M=16)
        a.space(1.0)
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b)
        assert a != q.Discretization(N=1, M=16, depth_scheme=q.FINITE_DIFFERENCE)

    def test_w_factors_built_once_across_solves(self, monkeypatch):
        calls, eigh = [], np.linalg.eigh

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        disc = q.Discretization(N=2, M=16)
        med = q.MediumModel.slab_stack(STACK_LAYERS, 1.0)
        for k in (1.1, 1.7):
            inc = q.IncidenceSpec.from_angles(k, 0.3, 0.7, 1.0)
            op = q.assemble(inc, med, disc)
            q.solve(op, q.rhs(inc, disc))
        distinct = {n[0] ** 2 + n[1] ** 2 for n in q.mode_range(disc.N)}
        assert len(calls) == len(distinct)

    @pytest.mark.parametrize("medium, disc", [
        (q.MediumModel.slab_stack(STACK_LAYERS, 1.0), q.Discretization(N=2, M=32)),
        (inclusion_medium(), q.Discretization(N=2, M=16)),
    ])
    def test_shared_space_gives_identical_coefficients(self, medium, disc):
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        got = []
        for space in (disc.space(1.0), q.FieldSpace(disc, 1.0)):
            op = q.assemble(inc, medium, disc, space)
            rd = q.rayleigh_data(q.solve(op, q.rhs(inc, disc, space)), inc)
            got.append([rd.u_plus[n] for n in space.modes]
                       + [rd.u_minus[n] for n in space.modes])
        assert np.array_equal(got[0], got[1])

    def test_batched_block_solve_equals_per_block_solve(self):
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.7, 1.0)
        disc = q.Discretization(N=2, M=32)
        op = q.assemble(inc, q.MediumModel.slab_stack(STACK_LAYERS, 1.0), disc)
        assert op.blocks.shape == (25, 32, 32)
        load = q.rhs(inc, disc)
        v = q.solve(op, load)
        ref = np.stack([np.linalg.solve(B, load[i]) for i, B in enumerate(op.blocks)])
        assert np.array_equal(v.values, ref)


class TestStructuralInvariants:
    def test_reciprocity_of_symbols(self):
        # beta_n(alpha) = beta_{-n}(-alpha) at the symbol level
        al = np.array([0.21, -0.4])
        inc_p = q.IncidenceSpec.from_alpha(1.7, al, 1.0)
        inc_m = q.IncidenceSpec.from_alpha(1.7, -al, 1.0)
        for n in q.mode_range(3):
            assert q.beta(n, inc_p) == q.beta((-n[0], -n[1]), inc_m)

    def test_solution_satisfies_dtn_closure(self):
        # the weak radiation closure enforces v' = +-i beta v at the traces
        # (and the inhomogeneous variant at the driven order)
        inc, v, _ = solve_slab(2.0, 1.0, 0.3, 48, N=1)
        g = v.space.grid
        k, ct = 1.0, np.cos(0.3)
        for n in v.space.modes:
            prof = v.profile(n)
            b = q.beta(n, inc)
            top = (g.diff @ prof)[-1] - 1j * b * prof[-1]
            bot = (g.diff @ prof)[0] + 1j * b * prof[0]
            drive = -2j * k * ct * np.exp(-1j * k * ct) if n == (0, 0) else 0.0
            assert abs(top - drive) < 1e-7
            assert abs(bot) < 1e-7

    def test_whitened_conditioning_stays_moderate(self):
        # the weighted-metric normal form keeps singular values O(1) in M
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.0, 1.0)
        med = q.MediumModel.homogeneous(2.0, 1.0)
        conds = []
        for M in (16, 32, 64):
            op = q.assemble(inc, med, q.Discretization(N=1, M=M))
            smin, smax = op.singularity_report()
            conds.append(smax / smin)
        assert max(conds) < 1e4
        assert conds[2] < 10 * conds[0]

    def test_dense_and_block_paths_agree(self):
        inc = q.IncidenceSpec.from_angles(1.3, 0.3, 0.0, 1.0)
        disc = q.Discretization(N=1, M=12)
        med_b = q.MediumModel.homogeneous(2.0, 1.0)
        med_d = q.MediumModel.sampled(np.full((8, 8, 3), 2.0), 1.0)
        op_b = q.assemble(inc, med_b, disc)
        op_d = q.assemble(inc, med_d, disc)
        assert np.allclose(op_b.matrix, op_d.matrix, atol=1e-12)
        vb = q.solve(op_b, q.rhs(inc, disc, op_b.space))
        vd = q.solve(op_d, q.rhs(inc, disc, op_d.space))
        assert np.allclose(vb.values, vd.values, atol=1e-11)

    def test_transversely_varying_medium_energy_balance(self):
        # a true bi-periodic (coupled) lossless medium still balances
        n = 12
        x1 = 2 * np.pi * np.arange(n) / n
        vals = 2.0 + 0.5 * np.cos(x1)[:, None, None] * np.ones((1, n, 6))
        med = q.MediumModel.sampled(vals, 1.0)
        inc = q.IncidenceSpec.from_angles(1.2, 0.25, 0.0, 1.0)
        disc = q.Discretization(N=2, M=20)
        op = q.assemble(inc, med, disc)
        v = q.solve(op, q.rhs(inc, disc, op.space))
        rd = q.rayleigh_data(v, inc)
        assert rd.balance_residual < 1e-10
        # the cosine coupling scatters nonzero energy into the (+-1, 0) orders
        assert abs(rd.u_plus[(1, 0)]) > 1e-4
