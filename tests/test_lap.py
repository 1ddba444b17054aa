"""Limiting absorption: derivative operator, projection, constrained solve,
eps-sweep cross-validation, and the orthogonality-constraint evaluator."""
import dataclasses

import numpy as np
import pytest

import qpscat as q
from test_helmholtz import bad_loads, coupled_medium, dense, diagonal_blocks, \
    inclusion_medium, lamellar_medium, recorded_shapes, reference_masses, \
    sampled_stack_medium

K_EX = np.pi / (2 * np.sqrt(2))
ALPHA_EX = (1 - np.pi * np.sqrt(3) / 4, 0.0)


@pytest.fixture(scope="module")
def scenario():
    inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
    med = q.MediumModel.homogeneous(2.0, 1.0)
    disc = q.Discretization(N=2, M=32)
    op = q.assemble(inc, med, disc)
    return q.kernel(op), med, op


class TestDerivativeOperator:
    def test_forward_difference_consistency(self, scenario):
        # ||(A(d) - A(0))/d - A'(0)|| = O(d), checked at d = 1e-4, 1e-5
        basis, med, op = scenario
        dop = q.assemble_eps_derivative(basis.inc, med, basis.space.disc)
        A0 = dense(op)
        Ap = dense(dop)
        norm_p = np.linalg.norm(Ap)
        errs = []
        for delta in (1e-4, 1e-5):
            inc_d = basis.inc.with_k(basis.inc.k + 1j * delta)
            Ad = dense(q.assemble(inc_d, med, basis.space.disc))
            errs.append(np.linalg.norm((Ad - A0) / delta - Ap) / norm_p)
        assert errs[0] <= 5e-4 and errs[1] <= 5e-5  # <= 5 * delta
        assert 2.0 < errs[0] / errs[1] < 50.0       # first-order ratio ~ 10

    def test_evanescent_boundary_entry_value(self, scenario):
        # order (-1,0): -i dbeta/deps = i (n.theta~ - k cos^2 t1)/sqrt(...) with
        # sqrt(|n+alpha|^2 - k^2) = pi/4
        basis, med, _ = scenario
        inc = basis.inc
        n = (-1, 0)
        tt = inc.tilde_theta
        expected = 1j * (np.array(n, dtype=float) @ tt - K_EX * inc.cos2_theta1) \
            / (np.pi / 4)
        assert -1j * q.d_beta_d_eps(n, inc) == pytest.approx(expected, rel=1e-12)
        # and it lands in the boundary corners of the derivative block
        dop = q.assemble_eps_derivative(basis.inc, med, basis.space.disc)
        B = diagonal_blocks(dop)[basis.space.mode_index[n]]
        grid = basis.space.grid
        k = inc.k.real
        vol_corner = (-2j * (k * inc.cos2_theta1 - np.array(n, float) @ tt)
                      * grid.mass[-1, -1]
                      - 2j * k * (2.0 - 1.0) * grid.mass[-1, -1])
        assert B[-1, -1] - vol_corner == pytest.approx(expected, rel=1e-12)

    def test_degenerate_potential_drops_out(self):
        # q == sin^2(theta1): the potential part of the derivative vanishes,
        # leaving the pure transport symbol 2i n.theta~ in the volume
        t1 = np.pi / 4
        inc = q.IncidenceSpec.from_angles(1.3, t1, 0.0, 1.0)
        med = q.MediumModel.homogeneous(np.sin(t1) ** 2, 1.0)
        disc = q.Discretization(N=1, M=16)
        dop = q.assemble_eps_derivative(inc, med, disc)
        space = dop.space
        blocks = diagonal_blocks(dop)
        for n in space.modes:
            B = blocks[space.mode_index[n]]
            db = q.d_beta_d_eps(n, inc)
            B[0, 0] += 1j * db
            B[-1, -1] += 1j * db
            nth = float(np.array(n, float) @ inc.tilde_theta)
            assert np.max(np.abs(B - 2j * nth * space.grid.mass)) < 1e-13


class TestProjection:
    def test_projects_kernel_to_itself(self, scenario):
        basis, med, _ = scenario
        v = basis.vectors[0]
        assert basis.space.norm(basis.project(v) - v) < 1e-12

    def test_idempotent(self, scenario):
        basis, med, _ = scenario
        rng = np.random.default_rng(5)
        u = rng.standard_normal((len(basis.space.modes), basis.space.M)) \
            + 1j * rng.standard_normal((len(basis.space.modes), basis.space.M))
        pu = basis.project(u)
        assert basis.space.norm(basis.project(pu) - pu) < 1e-12 * basis.space.norm(u)

    def test_annihilates_range_vectors(self, scenario):
        basis, med, op = scenario
        sp = basis.space
        rng = np.random.default_rng(6)
        for _ in range(4):
            w = rng.standard_normal((len(sp.modes), sp.M)) \
                + 1j * rng.standard_normal((len(sp.modes), sp.M))
            gw = op.apply(w)
            r = np.linalg.solve(sp.W, gw[..., None])[..., 0]  # W^-1 (G w): range field
            assert sp.norm(basis.project(r)) <= 1e-7 * sp.norm(r)

    def test_annihilates_load_and_derivative(self, scenario):
        # P f(0) = P f'(0) = 0: the loads live in the zero order, the kernel
        # does not
        basis, med, _ = scenario
        sp = basis.space
        for vec in (q.rhs(basis.inc, basis.space.disc),
                    q.rhs_eps_derivative(basis.inc, basis.space.disc)):
            f = np.linalg.solve(sp.W, vec[..., None])[..., 0]
            assert sp.norm(basis.project(f)) <= 1e-8 * max(sp.norm(f), 1e-300)


class TestBasisSpace:
    """The LAP runs on its kernel basis's discretization at its h."""

    def test_kernel_on_an_equal_discretization_is_accepted(self, scenario):
        basis, med, _ = scenario
        disc = basis.space.disc
        equal = q.Discretization(N=disc.N, M=disc.M)
        kern = dataclasses.replace(basis, space=equal.space(basis.inc.h))
        got = q.constrained_solve(kern, med)
        assert got.field.space is equal.space(basis.inc.h)
        assert np.array_equal(got.field.values,
                              q.constrained_solve(basis, med).field.values)
        for a, b in zip(q.eps_sweep(kern, med, (0.1, 0.05)).v_eps,
                        q.eps_sweep(basis, med, (0.1, 0.05)).v_eps):
            assert np.array_equal(a.values, b.values)


class TestConstrainedSolve:
    def test_methods_agree(self, scenario):
        basis, med, _ = scenario
        a = q.constrained_solve(basis, med, method="stacked")
        b = q.constrained_solve(basis, med, method="two_step")
        d = basis.space.norm(a.field.values - b.field.values)
        assert d <= 1e-8 * a.field.norm()
        assert a.solve_residual < 1e-8
        assert a.constraint_block_residual < 1e-8

    def test_empty_kernel_reduces_to_plain_solve(self):
        inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
        med = q.MediumModel.homogeneous(1.0, 1.0)
        disc = q.Discretization(N=1, M=16)
        op = q.assemble(inc, med, disc)
        cs = q.constrained_solve(q.kernel(op), med)
        plain = q.solve(op, q.rhs(inc, disc))
        assert np.allclose(cs.field.values, plain.values, atol=1e-12)
        assert cs.method == "plain"

    def test_recovers_prescribed_solution(self, scenario):
        # with f = A(0) w and f' = A'(0) w the unique constrained solution is w
        basis, med, op = scenario
        dop = q.assemble_eps_derivative(basis.inc, med, basis.space.disc)
        rng = np.random.default_rng(9)
        w = rng.standard_normal((len(basis.space.modes), basis.space.M)) \
            + 1j * rng.standard_normal((len(basis.space.modes), basis.space.M))
        load = op.apply(w)
        dload = dop.apply(w)
        for method in ("stacked", "two_step"):
            cs = q.constrained_solve(basis, med, load=load, load_deriv=dload, method=method)
            assert basis.space.norm(cs.field.values - w) <= 1e-8 * basis.space.norm(w)

    def test_kernel_coefficient_pinned_by_constraint(self, scenario):
        # adding c * v_kernel changes only the constraint block, linearly in c;
        # the solve drives c to a unique value independent of the method
        basis, med, op = scenario
        dop = q.assemble_eps_derivative(basis.inc, med, basis.space.disc)
        rng = np.random.default_rng(10)
        w = np.stack([np.exp(-np.linalg.norm(n) ** 2)
                      * (rng.standard_normal(basis.space.M)
                         + 1j * rng.standard_normal(basis.space.M))
                      for n in basis.space.modes])
        load = op.apply(w)  # in the range of A(0); eps-independent
        zero = np.zeros_like(load)
        a = q.constrained_solve(basis, med, load=load, load_deriv=zero, method="stacked")
        b = q.constrained_solve(basis, med, load=load, load_deriv=zero, method="two_step")
        assert basis.space.norm(a.field.values - b.field.values) \
            <= 1e-8 * a.field.norm()
        assert abs(a.kernel_coefficients[0]) > 1e-3  # genuinely kernel-active
        # linearity of the constraint block in the kernel coefficient
        v = basis.vectors[0]
        row = np.conj(dop.apply_adjoint(v).ravel())
        r0 = row @ a.field.values.ravel()
        r1 = row @ (a.field.values + 1.0 * v).ravel()
        r2 = row @ (a.field.values + 2.0 * v).ravel()
        assert (r2 - r1) == pytest.approx(r1 - r0, rel=1e-10)

    def test_injectivity_surrogate(self, scenario):
        # kernel-restricted derivative Gram is far from singular
        basis, med, _ = scenario
        dop = q.assemble_eps_derivative(basis.inc, med, basis.space.disc)
        m = basis.dimension
        gram = np.zeros((m, m), dtype=complex)
        for j, vj in enumerate(basis.vectors):
            av = dop.apply(vj)
            for i, vi in enumerate(basis.vectors):
                gram[i, j] = np.vdot(vi.ravel(), av.ravel())
        smin = np.linalg.svd(gram, compute_uv=False)[-1]
        norm_deriv = dop.whitened_singular_values()[0]
        assert smin > 1e-6 * norm_deriv


def guided_sampled_scenario(M=16):
    """The guided scenario on a dense (sampled, z-invariant) q = 2 medium, N = 1."""
    inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
    med = q.MediumModel.sampled(np.full((8, 8, 1), 2.0), 1.0)
    disc = q.Discretization(N=1, M=M)
    op = q.assemble(inc, med, disc)
    return q.kernel(op), med, op


def prescribed_loads(basis, med, op, seed=12):
    """A random field w with the loads A(0) w and A'(0) w that recover it."""
    rng = np.random.default_rng(seed)
    shape = (len(basis.space.modes), basis.space.M)
    w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    dop = q.assemble_eps_derivative(basis.inc, med, basis.space.disc)
    return w, op.apply(w), dop.apply(w)


def one_block_basis(op):
    """A one-vector basis in one block of the operator's whitened stack.

    The least singular vector of the stack: not a kernel, but a constraint
    that lives in one block, for layouts where the medium has no guided mode.
    """
    _, s, Vh = np.linalg.svd(op.stack)
    b, r = np.unravel_index(np.argmin(s), s.shape)
    z = np.zeros(s.shape, dtype=complex)
    z[b] = np.conj(Vh[b, r])
    return q.KernelBasis(vectors=[op.back(z)], singular_values=[float(s[b, r])],
                         sigma_max=float(s.max()), space=op.space, inc=op.inc)


def full_stacked_lstsq(basis, med, op, load, dload):
    """The full-size stacked least squares with the unwhitened rows."""
    dop = q.assemble_eps_derivative(basis.inc, med, basis.space.disc)
    G = dense(op)
    rows = [np.conj(dop.apply_adjoint(v).ravel()) for v in basis.vectors]
    dvals = [np.vdot(v.ravel(), dload.ravel()) for v in basis.vectors]
    scale = np.linalg.norm(G) / np.sqrt(len(G))
    f = [scale / np.linalg.norm(r) for r in rows]
    full, *_ = np.linalg.lstsq(
        np.vstack([G] + [fl * r for fl, r in zip(f, rows)]),
        np.concatenate([load.ravel(), np.multiply(f, dvals)]), rcond=None)
    return full


class TestConstrainedSolveBlocks:
    """The constrained solves on the whitened diagonal blocks of A."""

    def test_split_operator_solves_one_half_by_least_squares(self, monkeypatch):
        # a coupled medium mirror-symmetric in depth: its two parity halves
        inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
        med, disc = inclusion_medium(), q.Discretization(N=1, M=16)
        op = q.assemble(inc, med, disc)
        # the constant medium: every mode is its own component
        guided = guided_sampled_scenario()
        for (basis, med, op), c in (((one_block_basis(op), med, op), 9), (guided, 1)):
            w, load, dload = prescribed_loads(basis, med, op)
            with monkeypatch.context() as m:
                lstsq = recorded_shapes(m, "lstsq")
                solve = recorded_shapes(m, "solve")
                cs = q.constrained_solve(basis, med, load=load, load_deriv=dload)
            n, m_ = c * basis.space.M // 2, basis.dimension
            blocks = 2 * len(basis.space.modes) // c
            assert m_ == 1
            assert lstsq == [(n + m_, n)]            # the block holding the constraint
            assert solve == [(blocks - 1, n, n)]     # the other blocks, one LU
            full = full_stacked_lstsq(basis, med, op, load, dload)
            got = cs.field.values.ravel()
            assert np.linalg.norm(got - full) <= 1e-12 * np.linalg.norm(full)
            assert np.linalg.norm(got - w.ravel()) <= 1e-10 * np.linalg.norm(w)

    @pytest.mark.parametrize("layout", ["block_diagonal", "dense_M15", "coupled_asymmetric"])
    def test_other_layouts_agree_with_two_step(self, scenario, layout):
        if layout == "block_diagonal":
            basis, med, op = scenario
        elif layout == "dense_M15":
            # odd M: one whitened block per component, here per mode
            basis, med, op = guided_sampled_scenario(M=15)
            assert op.stack.shape == (9, 15, 15)
        else:
            # a depth-asymmetric coupled medium: the full whitened matrix
            inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
            med, disc = coupled_medium(), q.Discretization(N=1, M=16)
            op = q.assemble(inc, med, disc)
            assert len(op.stack) == 1
            basis = one_block_basis(op)
        assert basis.dimension == 1
        w, load, dload = prescribed_loads(basis, med, op)
        a = q.constrained_solve(basis, med, load=load, load_deriv=dload, method="stacked")
        b = q.constrained_solve(basis, med, load=load, load_deriv=dload, method="two_step")
        assert basis.space.norm(a.field.values - b.field.values) <= 1e-10 * a.field.norm()
        assert basis.space.norm(a.field.values - w) <= 1e-8 * basis.space.norm(w)

    def test_unknown_method_fails_before_assembly(self, scenario, monkeypatch):
        basis, med, _ = scenario

        def no_assembly(*args, **kwargs):
            raise AssertionError("assembled before checking the method")

        monkeypatch.setattr(q.lap, "assemble", no_assembly)
        monkeypatch.setattr(q.lap, "assemble_eps_derivative", no_assembly)
        with pytest.raises(ValueError, match="unknown method 'bogus'"):
            q.constrained_solve(basis, med, method="bogus")

    @pytest.mark.parametrize("name", ["load", "load_deriv"])
    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "coupled"])
    def test_bad_load_fails_before_assembly(self, scenario, monkeypatch, uniform, name):
        basis, med, op = scenario if uniform else guided_sampled_scenario()
        assert op.block_diagonal == uniform and basis.dimension == 1

        def no_assembly(*args, **kwargs):
            raise AssertionError("assembled before checking the loads")

        monkeypatch.setattr(q.lap, "assemble", no_assembly)
        monkeypatch.setattr(q.lap, "assemble_eps_derivative", no_assembly)
        good = {"load": q.rhs(basis.inc, basis.space.disc),
                "load_deriv": q.rhs_eps_derivative(basis.inc, basis.space.disc)}
        for bad in bad_loads(good[name]):
            for method in ("stacked", "two_step"):
                with pytest.raises(ValueError, match=f"^{name} "):
                    q.constrained_solve(basis, med, **{**good, name: bad}, method=method)


class TestEpsSweep:
    @pytest.mark.parametrize("schedule", [(np.nan, 0.05), (0.1, np.nan), (np.inf,),
                                          (0.1, 0.0), (-0.1,), (0.1, 0.1), (0.05, 0.1),
                                          ()])
    def test_rejects_bad_schedule_before_assembly(self, scenario, monkeypatch, schedule):
        # NaN and inf pass a plain `eps <= 0` / `diff >= 0` screen
        basis, med, _ = scenario

        def no_assembly(*args, **kwargs):
            raise AssertionError("assembled before checking the schedule")

        monkeypatch.setattr(q.lap, "assemble", no_assembly)
        monkeypatch.setattr(q.lap, "assemble_eps_derivative", no_assembly)
        with pytest.raises(ValueError, match="finite, positive and decreasing"):
            q.eps_sweep(basis, med, schedule)

    def test_repeat_sweeps_are_bitwise_equal(self):
        # the second sweep reads every coupling mass from the cached table
        basis, med, _ = guided_sampled_scenario()
        first, second = q.eps_sweep(basis, med), q.eps_sweep(basis, med)
        for name in ("sweep_deltas", "cond_estimates", "constraint_residuals_eps",
                     "constraint_residuals"):
            assert np.array_equal(getattr(first, name), getattr(second, name))
        for a, b in zip([*first.v_eps, first.v_limit_extrapolated,
                         first.v_limit_constrained.field],
                        [*second.v_eps, second.v_limit_extrapolated,
                         second.v_limit_constrained.field]):
            assert np.array_equal(a.values, b.values)
        assert first.slope == second.slope

    def test_physical_scenario(self, scenario):
        basis, med, _ = scenario
        res = q.eps_sweep(basis, med)
        assert 0.8 <= res.slope <= 1.2
        assert res.final_relative_delta < 1e-3
        # extrapolated limit agrees with the constrained solve
        d = basis.space.norm(res.v_limit_extrapolated.values
                           - res.v_limit_constrained.field.values)
        assert d <= 1e-6 * res.v_limit_constrained.field.norm()
        # deltas decrease monotonically along the tail
        assert np.all(np.diff(res.sweep_deltas[2:]) < 0)
        # constraint residual of the limit vanishes; of v(eps) it decays
        assert np.all(np.abs(res.constraint_residuals) < 1e-8)

    def test_transparent_layer_baseline(self):
        # no kernel: v(eps) converges to the plain solution, first order in eps
        inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
        med = q.MediumModel.homogeneous(1.0, 1.0)
        disc = q.Discretization(N=1, M=16)
        op = q.assemble(inc, med, disc)
        res = q.eps_sweep(q.kernel(op), med)
        assert 0.8 <= res.slope <= 1.2
        assert res.final_relative_delta < 1e-3

    def test_schedule_near_the_underflow_threshold(self):
        # eps down to about 1e-323, where e1 - e0 is subnormal: the
        # extrapolation warns of nothing (a RuntimeWarning fails the test)
        inc = q.IncidenceSpec.from_angles(1.0, 0.3, 0.0, 1.0)
        med = q.MediumModel.homogeneous(2.0, 1.0)
        basis = q.kernel(q.assemble(inc, med, q.Discretization(N=1, M=16)))
        res = q.eps_sweep(basis, med, tuple(1e-320 * 2.0 ** -j for j in range(11)))
        limit = res.v_limit_constrained.field
        d = basis.space.norm(res.v_limit_extrapolated.values - limit.values)
        assert d <= 1e-12 * limit.norm()

    @pytest.mark.parametrize("q0", [1e200, 1e300])
    def test_field_whose_squares_underflow(self, q0):
        # max |v| ~ 1e-198 at q0 = 1e200: the norms still come out nonzero
        inc = q.IncidenceSpec.from_angles(1.0, 0.3, 0.0, 1.0)
        med = q.MediumModel.homogeneous(q0, 1.0)
        basis = q.kernel(q.assemble(inc, med, q.Discretization(N=1, M=16)))
        res = q.eps_sweep(basis, med)
        assert 0.0 < res.v_limit_constrained.field.norm() < 1e-190
        assert 0.0 < res.final_relative_delta < 1e-3

    def test_dense_cond_estimates_match_full_svd(self):
        # the guided scenario on a dense (sampled) q = 2 medium: each level's
        # estimate is sigma_max / sigma_min of its whole whitened matrix
        inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
        med = q.MediumModel.sampled(np.full((8, 8, 1), 2.0), 1.0)
        disc = q.Discretization(N=1, M=16)
        op = q.assemble(inc, med, disc)
        assert not op.block_diagonal
        res = q.eps_sweep(q.kernel(op), med)
        assert len(res.cond_estimates) == len(q.lap.DEFAULT_EPS_SCHEDULE) == 11
        for eps, cond in zip(q.lap.DEFAULT_EPS_SCHEDULE, res.cond_estimates):
            op_e = q.assemble(inc.with_k(K_EX + 1j * eps), med, disc)
            s = np.linalg.svd(op_e.whitened(), compute_uv=False)
            assert cond == pytest.approx(s[0] / s[-1], rel=1e-12)

    def test_kernel_active_synthetic_load(self, scenario):
        # a fixed load in the range of A(0) makes the limit pick up a nonzero
        # kernel coefficient; the sweep still converges to the constrained
        # solution at first order
        basis, med, op = scenario
        rng = np.random.default_rng(7)
        w = np.stack([np.exp(-np.linalg.norm(n) ** 2)
                      * (rng.standard_normal(basis.space.M)
                         + 1j * rng.standard_normal(basis.space.M))
                      for n in basis.space.modes])
        load = op.apply(w)
        res = q.eps_sweep(basis, med, load_provider=lambda inc_e: load,
                          load_deriv=np.zeros_like(load))
        assert 0.8 <= res.slope <= 1.2
        assert abs(res.v_limit_constrained.kernel_coefficients[0]) > 1e-3
        assert res.final_relative_delta < 1e-3

    def test_boundedness_along_schedule(self, scenario):
        # sup ||v(eps)|| <= c (||f|| + ||f'||), c stable under refinement
        basis, med, _ = scenario
        sp = basis.space
        res = q.eps_sweep(basis, med)
        norms = [v.norm() for v in res.v_eps]
        fnorm = 0.0
        for vec in (q.rhs(basis.inc, basis.space.disc),
                    q.rhs_eps_derivative(basis.inc, basis.space.disc)):
            f = np.linalg.solve(sp.W, vec[..., None])[..., 0]
            fnorm += sp.norm(f)
        assert max(norms) <= 50.0 * fnorm  # measured c ~ 22 for this scenario
        # refining the schedule does not grow the bound
        res2 = q.eps_sweep(basis, med, tuple(0.1 * 2.0 ** -j for j in range(14)))
        assert max(v.norm() for v in res2.v_eps) <= max(norms) * 1.01


class TestConstraintResidual:
    def test_limit_satisfies_constraint(self, scenario):
        basis, med, _ = scenario
        cs = q.constrained_solve(basis, med)
        res = q.constraint_residual(cs.field, basis, med)
        assert np.all(np.abs(res) < 1e-8)

    def test_mode_shift_breaks_constraint(self, scenario):
        # u + phi has residual I(phi, phi) on phi: nonzero, and equal to the
        # weighted derivative pairing (two-route consistency)
        basis, med, _ = scenario
        cs = q.constrained_solve(basis, med)
        [v] = basis.vectors
        dop = q.assemble_eps_derivative(basis.inc, med, basis.space.disc)
        shifted = q.FieldCoefficients(space=basis.space, inc=basis.inc,
                                      values=cs.field.values + v)
        res = q.constraint_residual(shifted, basis, med)[0]
        pairing = 0.5 * 4 * np.pi ** 2 * np.vdot(v.ravel(), dop.apply(v).ravel())
        assert abs(pairing) > 1e-3
        assert res == pytest.approx(pairing, rel=1e-8)

    def test_rejects_non_evanescent_mode(self, scenario):
        basis, med, _ = scenario
        cs = q.constrained_solve(basis, med)
        vals = basis.vectors[0].copy()
        vals[basis.space.mode_index[(0, 0)], -1] = 1.0  # a propagating tail above
        bad = dataclasses.replace(basis, vectors=[vals])
        for _ in range(2):  # on every call: a refusal is never kept as a pass
            with pytest.raises(q.NonEvanescentMode, match="propagating Rayleigh content"):
                q.constraint_residual(cs.field, bad, med)

    def test_kept_basis_terms_give_the_residuals_of_a_fresh_basis(self, scenario):
        # the terms computed on the first call and kept on the basis
        basis, med, _ = scenario
        cs = q.constrained_solve(basis, med)
        res = q.eps_sweep(basis, med, (0.1, 0.05))
        for u in (cs.field, *res.v_eps):
            warm = q.constraint_residual(u, basis, med)
            fresh = dataclasses.replace(basis)
            assert "_constraint_terms" not in vars(fresh)
            assert np.array_equal(q.constraint_residual(u, fresh, med), warm)
        assert "_constraint_terms" in vars(basis)

    def test_basis_is_immutable(self, scenario):
        basis, _, _ = scenario
        with pytest.raises(dataclasses.FrozenInstanceError):
            basis.inc = basis.inc.with_k(1.0)
        with pytest.raises(ValueError, match="read-only"):
            basis.vectors[0, 0, 0] = 1.0
        fields = np.array(basis.vectors)
        copy = q.KernelBasis(vectors=fields, singular_values=[0.0], sigma_max=1.0,
                             space=basis.space, inc=basis.inc)
        fields[0, 0, 0] += 1.0  # the basis keeps its own copy
        assert np.array_equal(copy.vectors, basis.vectors)

    def test_field_of_another_space_is_refused(self, scenario):
        basis, med, _ = scenario
        for space in (q.Discretization(N=1, M=32).space(1.0), basis.space.disc.space(0.5)):
            u = q.FieldCoefficients(space=space, inc=basis.inc, values=space.zeros())
            with pytest.raises(ValueError, match="field space"):
                q.constraint_residual(u, basis, med)

    def test_empty_basis_gives_no_residuals(self, scenario):
        basis, med, _ = scenario
        cs = q.constrained_solve(basis, med)
        empty = dataclasses.replace(basis, vectors=[], singular_values=[])
        assert q.constraint_residual(cs.field, empty, med).shape == (0,)


def residual_double_loop(u, v, inc, medium):
    """The theta-form constraint residual against the kernel vector v, as a
    plain sum over mode pairs."""
    sp, N = u.space, u.space.disc.N
    g, k = sp.grid, inc.k.real
    C = reference_masses(medium, sp)
    C[(0, 0)] = C[(0, 0)] + g.mass  # the full qhat_0
    total = 0.0
    for i, n in enumerate(sp.modes):
        psi = np.conj(v[i])
        nth = float(np.array(n, float) @ inc.tilde_theta)
        total += (1j * nth + 1j * k * inc.sin2_theta1) * (psi @ g.mass @ u.values[i])
        for j, m in enumerate(sp.modes):
            total += -1j * k * (psi @ C[(n[0] - m[0], n[1] - m[1])] @ u.values[j])
    rd = q.rayleigh_data(u, inc)
    for n in q.classify_modes(inc, N).evanescent:
        i = sp.mode_index[n]
        nth = float(np.array(n, float) @ inc.tilde_theta)
        c = (1j * nth - 1j * k * inc.cos2_theta1) / (2 * abs(q.beta(n, inc)))
        total += c * (rd.u_plus[n] * np.conj(v[i, -1]) + rd.u_minus[n] * np.conj(v[i, 0]))
    return 4 * np.pi ** 2 * total


def evanescent_pair():
    """A field u and a two-vector basis of evanescent fields on N = 2, M = 16."""
    inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
    sp = q.FieldSpace(q.Discretization(N=2, M=16), 1.0)
    rng = np.random.default_rng(21)
    u, *vs = (rng.standard_normal((3, len(sp.modes), sp.M))
              + 1j * rng.standard_normal((3, len(sp.modes), sp.M)))
    for v in vs:
        for n in q.classify_modes(inc, 2).propagating:
            v[sp.mode_index[n], [0, -1]] = 0.0
    basis = q.KernelBasis(vectors=vs, singular_values=[0.0, 0.0], sigma_max=1.0,
                          space=sp, inc=inc)
    return u, vs, basis


class TestCoupledConstraintResidual:
    """The residual on a coupled medium, where every q_(n-m) enters."""

    @pytest.mark.parametrize("medium", [inclusion_medium, lamellar_medium,
                                        sampled_stack_medium])
    def test_matches_the_mode_pair_sum(self, monkeypatch, medium):
        # a two-vector basis of evanescent fields, each vector checked alone
        u, vs, basis = evanescent_pair()
        med, sp, inc = medium(), basis.space, basis.inc
        field = q.FieldCoefficients(space=sp, inc=inc, values=u)
        calls = []
        profiles = q.lap._medium_profiles

        def counting(*args):
            calls.append(args)
            return profiles(*args)

        monkeypatch.setattr(q.lap, "_medium_profiles", counting)
        got = q.constraint_residual(field, basis, med)
        assert len(calls) == 1
        for r, v in zip(got, vs):
            want = residual_double_loop(field, v, inc, med)
            assert abs(r - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("method", ["stacked", "two_step"])
    @pytest.mark.parametrize("medium", [inclusion_medium, lamellar_medium,
                                        sampled_stack_medium])
    def test_two_vector_basis_recovers_prescribed_loads(self, medium, method):
        # the constraint rows, Gram matrix and loads of two vectors at once
        _, _, basis = evanescent_pair()
        med = medium()
        op = q.assemble(basis.inc, med, basis.space.disc)
        w, load, dload = prescribed_loads(basis, med, op)
        cs = q.constrained_solve(basis, med, load=load, load_deriv=dload, method=method)
        assert basis.space.norm(cs.field.values - w) <= 1e-12 * basis.space.norm(w)
        want = basis.coefficients(w)
        assert want.shape == (2,)
        assert np.max(np.abs(cs.kernel_coefficients - want)) <= 1e-12 * np.max(np.abs(want))


class TestSignStructure:
    def _quadratic_forms(self, basis, phi):
        """A = int |grad v|^2, B = 2i int (theta~.grad v) v~, C = int (q - s^2)|v|^2
        over the infinite cell, interior by matrix quadrature + exact tails."""
        sp = basis.space
        g = sp.grid
        inc = basis.inc
        q0 = 2.0
        s2 = inc.sin2_theta1
        A = B = C = 0.0
        for i, n in enumerate(sp.modes):
            prof = phi.field.values[i]
            if np.max(np.abs(prof)) == 0.0:
                continue
            n2 = float(np.dot(n, n))
            nth = float(np.array(n, float) @ inc.tilde_theta)
            m_int = float(np.real(np.conj(prof) @ (g.mass @ prof)))
            k_int = float(np.real(np.conj(prof) @ (g.stiffness @ prof)))
            babs = abs(q.beta(n, inc))
            tails = (abs(prof[-1]) ** 2 + abs(prof[0]) ** 2) / (2 * babs)
            A += k_int + n2 * m_int + (n2 + babs ** 2) * tails
            B += -2 * nth * (m_int + tails)
            C += (q0 - s2) * m_int + (1.0 - s2) * tails
        w = 4 * np.pi ** 2
        return w * A, w * B, w * C

    def test_green_identity_and_injectivity_structure(self, scenario):
        basis, med, _ = scenario
        k = basis.inc.k.real
        [phi] = q.mode_lift(basis)
        A, B, C = self._quadratic_forms(basis, phi)
        # the mode satisfies the quadratic identity A - k B - k^2 C = 0
        assert abs(A - k * B - k * k * C) < 1e-9 * A
        # the derivative pairing reduces to -i (B + 2 k C)
        res = q.constraint_residual(phi.field, basis, med)[0]
        assert 2 * res == pytest.approx(-1j * (B + 2 * k * C), rel=1e-9)
        # positivity that forces injectivity: A + k^2 C > 0 for any nonzero mode
        assert A + k * k * C > 0
        # hence no nonzero kernel vector passes both residual gates
        assert abs(B + 2 * k * C) > 1e-3 * A


def test_sweep_csv_schema(tmp_path, scenario):
    basis, med, _ = scenario
    res = q.eps_sweep(basis, med)
    path = tmp_path / "sweep.csv"
    q.write_sweep_csv(res, path)
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["eps", "delta_to_constrained", "cond_estimate"]
    assert len(header) == 3 + basis.dimension
    assert len(lines) == 1 + len(q.lap.DEFAULT_EPS_SCHEDULE)
    eps_col = [float(row.split(",")[0]) for row in lines[1:]]
    assert eps_col == sorted(eps_col, reverse=True)
