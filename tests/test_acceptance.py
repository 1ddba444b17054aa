"""Acceptance suite: every contract criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion with its runtime.  Each test asserts both the numerical tolerance
and the stated runtime budget.
"""
import time

import numpy as np
import pytest

import qpscat as q
from test_helmholtz import dense

K_EX = np.pi / (2 * np.sqrt(2))
ALPHA_EX = (1 - np.pi * np.sqrt(3) / 4, 0.0)
MODE_RADIUS = np.pi * np.sqrt(3) / 4

SLAB_CONFIGS = [(q0, t1, k) for q0 in (0.5, 2.0, 4.0)
                for t1 in (0.0, np.pi / 6) for k in (1.0, 2.0)]


class _Watch:
    def __init__(self, label, budget):
        self.label, self.budget = label, budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        self.elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.label}: {status} ({self.elapsed:.2f} s, "
              f"budget {self.budget:.0f} s)")
        return False


def slab_solve_errors(q0, t1, k, scheme, Ms=(16, 32, 64)):
    inc = q.IncidenceSpec.from_angles(k, t1, 0.0, 1.0)
    tm = q.transfer_matrix_scattering(q.SlabParams(q0=q0, h=1.0, k=k), inc)
    med = q.MediumModel.homogeneous(q0, 1.0)
    errs = []
    for M in Ms:
        disc = q.Discretization(N=0, M=M, depth_scheme=scheme)
        op = q.assemble(inc, med, disc)
        rd = q.rayleigh_data(q.solve(op, q.rhs(inc, disc)), inc)
        errs.append(max(abs(rd.u_plus[(0, 0)] - tm.u_plus[(0, 0)]),
                        abs(rd.u_minus[(0, 0)] - tm.u_minus[(0, 0)])))
    return errs


def test_criterion_1_example_dispersion_root():
    with _Watch("1 (guided-mode dispersion root)", 1.0) as w:
        roots = q.find_dispersion_roots(2.0, 1.0, K_EX, "even")
        assert len(roots) == 1
        assert abs(roots[0].abs_alpha - MODE_RADIUS) < 1e-10
    assert w.elapsed < 1.0


def test_criterion_2_brillouin_zone_map():
    with _Watch("2 (Brillouin-zone circle map)", 5.0) as w:
        grid = 512
        bmap = q.brillouin_map(K_EX, MODE_RADIUS, grid=grid)
        c = bmap.centers()
        A1, A2 = np.meshgrid(c, c, indexing="ij")
        pts = np.stack([A1.ravel(), A2.ravel()], axis=1)
        ls = np.array([(i, j) for i in range(-2, 3) for j in range(-2, 3)],
                      dtype=float)
        dist = np.linalg.norm(pts[:, None, :] + ls[None, :, :], axis=2)
        diag = np.sqrt(2.0) / grid
        for bit, radius in ((1, K_EX), (2, MODE_RADIUS)):
            marked = (bmap.classes.ravel() & bit) > 0
            assert marked.sum() > 0
            err = np.abs(dist[marked] - radius).min(axis=1)
            assert err.max() < 2 * diag
            # and the circles are fully covered: sampled circle points are marked
            for t in np.linspace(0, 2 * np.pi, 64, endpoint=False):
                pt = radius * np.array([np.cos(t), np.sin(t)])
                pt = (pt + 0.5) % 1.0 - 0.5
                i = int(np.argmin(np.abs(c - pt[0])))
                j = int(np.argmin(np.abs(c - pt[1])))
                assert np.any((bmap.classes[max(i - 1, 0):i + 2,
                                            max(j - 1, 0):j + 2] & bit) > 0)
    assert w.elapsed < 5.0


def test_criterion_3_solver_vs_transfer_matrix_oracle():
    with _Watch("3 (solver vs transfer-matrix oracle)", 30.0) as w:
        for q0, t1, k in SLAB_CONFIGS:
            errs_c = slab_solve_errors(q0, t1, k, q.CHEBYSHEV)
            # spectral scheme: decaying or already at the round-off floor
            assert errs_c[-1] < 1e-6
            assert (errs_c[0] > errs_c[1] > errs_c[2]) or max(errs_c) < 1e-10
            errs_f = slab_solve_errors(q0, t1, k, q.FINITE_DIFFERENCE)
            assert errs_f[-1] < 1e-3
            slope = -np.polyfit(np.log([16, 32, 64]), np.log(errs_f), 1)[0]
            assert 1.6 < slope < 2.6  # nominal second order
    assert w.elapsed < 30.0


def test_criterion_4_energy_balance():
    with _Watch("4 (energy balance and transparency)", 10.0) as w:
        for q0, t1, k in SLAB_CONFIGS:
            inc = q.IncidenceSpec.from_angles(k, t1, 0.0, 1.0)
            med = q.MediumModel.homogeneous(q0, 1.0)
            disc = q.Discretization(N=0, M=64)
            op = q.assemble(inc, med, disc)
            rd = q.rayleigh_data(q.solve(op, q.rhs(inc, disc)), inc)
            assert rd.balance_residual < 1e-8
        # transparent layer: no scattering at all, to 1e-12
        inc = q.IncidenceSpec.from_angles(1.3, 0.37, 0.9, 1.0)
        med = q.MediumModel.homogeneous(1.0, 1.0)
        disc = q.Discretization(N=2, M=64)
        op = q.assemble(inc, med, disc)
        rd = q.rayleigh_data(q.solve(op, q.rhs(inc, disc)), inc)
        assert all(abs(c) < 1e-12 for c in rd.u_plus.values())
    assert w.elapsed < 10.0


def test_criterion_5_shifted_wavenumber_positivity():
    with _Watch("5 (Im beta_n > 0 for Im k > 0)", 1.0) as w:
        rng = np.random.default_rng(2024)
        failures = 0
        for _ in range(1000):
            k = rng.uniform(0.2, 5.0)
            eps = 10.0 ** rng.uniform(-6, 0)
            t1 = rng.uniform(-1.5, 1.5)
            t2 = rng.uniform(0, 2 * np.pi)
            N = int(rng.integers(0, 21))
            inc = q.IncidenceSpec.from_angles(k + 1j * eps, t1, t2, 1.0)
            if q.min_im_beta(inc, N) <= 0:
                failures += 1
        assert failures == 0
    assert w.elapsed < 1.0


def test_criterion_6_kernel_detection_and_mode_lift():
    with _Watch("6 (kernel detection at the guided scenario)", 30.0) as w:
        M = 32
        inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
        med = q.MediumModel.homogeneous(2.0, 1.0)
        disc = q.Discretization(N=2, M=M)
        op = q.assemble(inc, med, disc)
        basis = q.kernel(op)
        assert basis.dimension == 1
        rep = q.verify_evanescent(basis)
        assert rep.max_propagating_coeff < 1e-8
        assert q.adjoint_kernel_check(op, basis) < 1e-7
        # lifted mode matches cos(pi x3/4) up to a scalar, within 5x the
        # solver's slab error at the same resolution
        slab_err = max(slab_solve_errors(2.0, 0.0, K_EX, q.CHEBYSHEV, Ms=(M,)))
        g = op.space.grid
        prof = basis.vectors[0][op.space.mode_index[(-1, 0)]]
        # the interpolant of cos(pi x3/4) at the nodes, in the grid's basis
        exact = np.linalg.solve(g.nodal(np.eye(M)).T, np.cos(np.pi * g.nodes / 4)).astype(complex)
        c = (np.conj(exact) @ (g.mass @ prof)) / (np.conj(exact) @ (g.mass @ exact))
        d = prof - c * exact
        rel = np.sqrt(abs(np.conj(d) @ (g.mass @ d))
                      / abs(np.conj(c * exact) @ (g.mass @ (c * exact))))
        assert rel <= 5 * slab_err
    assert w.elapsed < 30.0


def test_criterion_7_limiting_absorption_cross_validation():
    with _Watch("7 (limiting absorption cross-validation)", 300.0) as w:
        inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
        med = q.MediumModel.homogeneous(2.0, 1.0)
        disc = q.Discretization(N=2, M=32)
        op = q.assemble(inc, med, disc)
        basis = q.kernel(op)
        res = q.eps_sweep(basis, med)  # schedule 0.1 * 2^-j, j = 0..10; tail from j = 4
        assert 0.8 <= res.slope <= 1.2
        assert res.final_relative_delta < 1e-3
        # constraint residual of the limit, and its violation by a mode shift
        [phi] = basis.vectors
        v_star = res.v_limit_constrained.field
        res_star = q.constraint_residual(v_star, basis, med)[0]
        assert abs(res_star) < 1e-8
        shifted = q.FieldCoefficients(space=basis.space, inc=inc,
                                      values=v_star.values + phi)
        res_shift = q.constraint_residual(shifted, basis, med)[0]
        # scale of the mode: k * ||phi||^2 over the infinite cell
        g = basis.space.grid
        l2 = 0.0
        for i, n in enumerate(basis.space.modes):
            prof = phi[i]
            if np.max(np.abs(prof)) == 0.0:
                continue
            l2 += float(np.real(np.conj(prof) @ (g.mass @ prof)))
            babs = abs(q.beta(n, inc))
            l2 += (abs(prof[-1]) ** 2 + abs(prof[0]) ** 2) / (2 * babs)
        scale = 4 * np.pi ** 2 * K_EX * l2
        assert abs(res_shift) > 1e-2 * scale
    assert w.elapsed < 300.0


def test_criterion_8_low_index_slab_nonexistence():
    with _Watch("8 (no guided modes below unit index)", 60.0) as w:
        rng = np.random.default_rng(77)
        for _ in range(1000):
            q0 = rng.uniform(0.01, 0.99)
            k = rng.uniform(0.2, 3.0)
            a = rng.uniform(k * np.sqrt(q0) * (1 + 1e-6), k * (1 - 1e-6))
            assert q.no_mode_determinant(q.SlabParams(q0=q0, h=1.0, k=k), a) < 0
        med = q.MediumModel.homogeneous(0.5, 1.0)
        disc = q.Discretization(N=2, M=16)
        checked = 0
        while checked < 20:
            k = rng.uniform(0.3, 1.4)
            al = rng.uniform(-0.5, 0.5, 2)
            inc = q.IncidenceSpec.from_alpha(k, al, 1.0)
            try:
                op = q.assemble(inc, med, disc)
            except q.CutoffViolation:
                continue
            assert q.kernel(op).dimension == 0
            checked += 1
    assert w.elapsed < 60.0


def test_criterion_9_maxwell_operator_layer():
    with _Watch("9 (electromagnetic operator layer)", 10.0) as w:
        rng = np.random.default_rng(99)
        # Calderon map against the half-space definition
        done = 0
        while done < 100:
            alpha = rng.uniform(-0.5, 0.5, 2)
            k = rng.uniform(0.5, 2.5)
            n = tuple(int(t) for t in rng.integers(-3, 4, 2))
            if abs(np.linalg.norm(np.asarray(n) + alpha) - k) < 1e-2:
                continue
            vn = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            vn[2] = 0.0
            tf = q.TangentialField(coeffs={n: vn}, alpha=tuple(alpha), k=k)
            a = q.calderon_apply(tf).coeffs[n]
            b = q.calderon_halfspace_oracle(tf).coeffs[n]
            assert np.max(np.abs(a - b)) < 1e-12
            done += 1
        # sign of the imaginary quadratic form
        done = 0
        while done < 1000:
            alpha = rng.uniform(-0.5, 0.5, 2)
            k = rng.uniform(0.5, 2.5)
            coeffs = {}
            for _ in range(5):
                n = tuple(int(t) for t in rng.integers(-3, 4, 2))
                if abs(np.linalg.norm(np.asarray(n) + alpha) - k) < 1e-2:
                    continue
                vn = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                vn[2] = 0.0
                coeffs[n] = vn
            if not coeffs:
                continue
            tf = q.TangentialField(coeffs=coeffs, alpha=tuple(alpha), k=k)
            assert q.calderon_forms(tf)[1] >= -1e-12
            done += 1
        # electromagnetic slab determinant positivity
        for _ in range(1000):
            q0 = rng.uniform(0.01, 0.99)
            k = rng.uniform(0.2, 3.0)
            an = rng.uniform(k * 1.001, 4 * k)
            assert q.maxwell_slab_determinant(q0, k, an) > 0
        # incident trace vector: closed form vs assembled route
        for _ in range(100):
            t1 = rng.uniform(-1.2, 1.2)
            t2 = rng.uniform(0, 2 * np.pi)
            k = rng.uniform(0.5, 2.5)
            th = np.array([np.sin(t1) * np.cos(t2), np.sin(t1) * np.sin(t2),
                           -np.cos(t1)])
            s = rng.standard_normal(3)
            s = s - (s @ th) * th
            s /= np.linalg.norm(s)
            minc = q.MaxwellIncidence(k=k, theta1=t1, theta2=t2, s=tuple(s))
            d = q.incident_trace_vector(minc, 1.0) \
                - q.incident_trace_vector_assembled(minc, 1.0)
            assert np.max(np.abs(d)) < 1e-12
    assert w.elapsed < 10.0


def test_criterion_10_derivative_operator_consistency():
    with _Watch("10 (eps-derivative of the operator family)", 10.0) as w:
        inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
        med = q.MediumModel.homogeneous(2.0, 1.0)
        disc = q.Discretization(N=2, M=24)
        A0 = dense(q.assemble(inc, med, disc))
        Ap = dense(q.assemble_eps_derivative(inc, med, disc))
        norm_p = np.linalg.norm(Ap)
        errs = []
        for delta in (1e-4, 1e-5):
            Ad = dense(q.assemble(inc.with_k(K_EX + 1j * delta), med, disc))
            err = np.linalg.norm((Ad - A0) / delta - Ap) / norm_p
            assert err <= 5 * delta
            errs.append(err)
        assert 2.0 < errs[0] / errs[1] < 50.0  # first-order Richardson ratio
    assert w.elapsed < 10.0
