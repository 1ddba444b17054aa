"""Calderon map, quadratic forms, divergence closure, incident trace,
slab determinant, and the electromagnetic constraint evaluator."""
import numpy as np
import pytest

import qpscat as q


def random_tangential(rng, nmodes=5):
    alpha = rng.uniform(-0.5, 0.5, 2)
    k = rng.uniform(0.5, 2.5)
    coeffs = {}
    while len(coeffs) < nmodes:
        n = tuple(int(t) for t in rng.integers(-3, 4, 2))
        if abs(np.linalg.norm(np.asarray(n) + alpha) - k) < 1e-2:
            continue
        vn = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        vn[2] = 0.0
        coeffs[n] = vn
    return q.TangentialField(coeffs=coeffs, alpha=(alpha[0], alpha[1]), k=k)


def random_polarized(rng, k, t1, t2):
    th = np.array([np.sin(t1) * np.cos(t2), np.sin(t1) * np.sin(t2), -np.cos(t1)])
    s = rng.standard_normal(3)
    s = s - (s @ th) * th
    s /= np.linalg.norm(s)
    return q.MaxwellIncidence(k=k, theta1=t1, theta2=t2, s=tuple(s))


class TestCalderonApply:
    def test_transverse_polarization_propagating(self):
        # v_n perpendicular to alpha_hat_n: pure (i k^2 / beta_n) multiplication
        alpha = (0.2, 0.0)
        k = 1.5
        n = (0, 0)
        an = np.array([0.2, 0.0])
        vn = np.array([0.0, 1.0, 0.0], dtype=complex)  # perp to (0.2, 0, 0)
        tf = q.TangentialField(coeffs={n: vn}, alpha=alpha, k=k)
        b = np.sqrt(k * k - an @ an)
        out = q.calderon_apply(tf).coeffs[n]
        assert np.allclose(out, (1j * k * k / b) * vn, rtol=1e-14)

    def test_parallel_polarization_identity(self):
        # v_n parallel to alpha_hat_n: result (i/beta)(k^2 - |alpha_n|^2) v = i beta v
        alpha = (0.3, 0.1)
        k = 1.2
        n = (1, 0)
        an = np.array([1.3, 0.1])
        vn = np.array([an[0], an[1], 0.0], dtype=complex)
        tf = q.TangentialField(coeffs={n: vn}, alpha=alpha, k=k)
        b = q.branch_sqrt(k * k - an @ an)
        out = q.calderon_apply(tf).coeffs[n]
        assert np.allclose(out, 1j * b * vn, rtol=1e-13)

    def test_against_halfspace_oracle(self):
        rng = np.random.default_rng(14)
        worst = 0.0
        for _ in range(100):
            tf = random_tangential(rng, nmodes=1)
            a = q.calderon_apply(tf)
            b = q.calderon_halfspace_oracle(tf)
            for n in tf.coeffs:
                worst = max(worst, float(np.max(np.abs(a.coeffs[n] - b.coeffs[n]))))
        assert worst < 1e-12

    def test_linearity_exact_power_of_two(self):
        rng = np.random.default_rng(15)
        tf = random_tangential(rng)
        scaled = q.TangentialField(coeffs={n: 2.0 * v for n, v in tf.coeffs.items()},
                                  alpha=tf.alpha, k=tf.k)
        a2 = q.calderon_apply(scaled)
        a1 = q.calderon_apply(tf)
        for n in tf.coeffs:
            assert np.array_equal(a2.coeffs[n], 2.0 * a1.coeffs[n])

    def test_cutoff_rejected(self):
        tf = q.TangentialField(coeffs={(1, 0): np.array([0, 1.0, 0], dtype=complex)},
                               alpha=(0.0, 0.0), k=1.0)
        with pytest.raises(q.CutoffViolation):
            q.calderon_apply(tf)


class TestCalderonForms:
    def test_zero_field(self):
        tf = q.TangentialField(coeffs={}, alpha=(0.1, 0.0), k=1.0)
        assert q.calderon_forms(tf) == (0.0, 0.0)

    def test_single_propagating_mode_value(self):
        alpha = (0.2, 0.0)
        k = 1.5
        vn = np.array([0.0, 1.0, 0.0], dtype=complex)
        tf = q.TangentialField(coeffs={(0, 0): vn}, alpha=alpha, k=k)
        b = np.sqrt(k * k - 0.04)
        re, im = q.calderon_forms(tf)
        assert re == 0.0
        assert im == pytest.approx(4 * np.pi ** 2 * k * k / b, rel=1e-14)

    def test_im_form_nonnegative_randomized(self):
        rng = np.random.default_rng(16)
        for _ in range(1000):
            _, im = q.calderon_forms(random_tangential(rng))
            assert im >= -1e-12

    def test_two_route_pairing_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            tf = random_tangential(rng)
            re, im = q.calderon_forms(tf)
            pair = q.calderon_pairing(tf)
            assert pair == pytest.approx(re + 1j * im, rel=1e-12, abs=1e-10)


class TestGradientTraceForm:
    def test_single_evanescent_value(self):
        # |p_n(h)| = 1, |alpha_n| = 2, k = 1: 4 pi^2 * 4 / sqrt(3)
        val = q.gradient_trace_form({(2, 0): 1.0}, (0.0, 0.0), 1.0)
        assert val == pytest.approx(4 * np.pi ** 2 * 4.0 / np.sqrt(3.0), rel=1e-14)

    def test_propagating_only_vanishes(self):
        val = q.gradient_trace_form({(0, 0): 1.0, (1, 0): 0.5 + 0.2j}, (0.1, 0.1), 2.0)
        assert val == 0.0

    def test_cross_check_against_calderon_route(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            alpha = rng.uniform(-0.5, 0.5, 2)
            k = rng.uniform(0.5, 2.0)
            p_coeffs = {}
            while len(p_coeffs) < 4:
                n = tuple(int(t) for t in rng.integers(-3, 4, 2))
                if abs(np.linalg.norm(np.asarray(n) + alpha) - k) < 1e-2:
                    continue
                p_coeffs[n] = complex(*rng.standard_normal(2))
            direct = q.gradient_trace_form(p_coeffs, alpha, k)
            tf = q.gradient_trace_field(p_coeffs, alpha, k)
            via_pairing = q.calderon_pairing(tf).real
            assert direct == pytest.approx(via_pairing, rel=1e-12, abs=1e-10)


class TestDivergenceClose:
    def test_orthogonal_pair_gives_zero(self):
        k, tt = 1.3, np.array([0.3, 0.0])
        n = (2, 1)
        an = k * tt + np.asarray(n, float)
        Ft = np.array([-an[1], an[0]]) * (0.7 - 0.2j)
        assert q.divergence_close(Ft, n, k, tt) == 0.0

    def test_zero_order_normal_incidence(self):
        val = q.divergence_close(np.array([1.0 + 1j, -2.0]), (0, 0), 2.0, (0.0, 0.0))
        assert val == 0.0

    def test_full_vector_divergence_free(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            k = rng.uniform(0.5, 2.5)
            tt = rng.uniform(-0.8, 0.8, 2)
            n = tuple(int(t) for t in rng.integers(-3, 4, 2))
            an = k * tt + np.asarray(n, float)
            if abs(np.linalg.norm(an) - k) < 1e-2:
                continue
            Ft = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            f3 = q.divergence_close(Ft, n, k, tt)
            b = q.branch_sqrt(k * k - an @ an)
            resid = an @ Ft + b * f3
            assert abs(resid) < 1e-13 * max(1.0, np.linalg.norm(Ft))


class TestIncidentTrace:
    def test_normal_incidence_reduction(self):
        # theta_check = 0 at normal incidence: only the first two terms survive
        rng = np.random.default_rng(20)
        minc = random_polarized(rng, 1.7, 0.0, 0.0)
        p = minc.p
        nu = np.array([0, 0, 1.0])
        th = minc.theta_hat.astype(complex)
        k = 1.7
        expected = (1j * k * np.cross(np.cross(nu, np.cross(th, p)), nu)
                    - 1j * k * np.cross(nu, p)) * np.exp(-1j * k)
        assert np.allclose(q.incident_trace_vector(minc, 1.0), expected, rtol=1e-14)

    def test_two_route_agreement(self):
        rng = np.random.default_rng(22)
        worst = 0.0
        for _ in range(100):
            minc = random_polarized(rng, rng.uniform(0.5, 2.5),
                                    rng.uniform(-1.2, 1.2), rng.uniform(0, 2 * np.pi))
            d = q.incident_trace_vector(minc, 1.0) \
                - q.incident_trace_vector_assembled(minc, 1.0)
            worst = max(worst, float(np.max(np.abs(d))))
        assert worst < 1e-12

    def test_k_derivative_finite_difference(self):
        rng = np.random.default_rng(23)
        minc = random_polarized(rng, 1.3, 0.4, 1.1)
        dq = q.incident_trace_vector_dk(minc, 1.0)
        errs = []
        for delta in (1e-5, 1e-6):
            minc_d = q.MaxwellIncidence(k=1.3 + delta, theta1=0.4, theta2=1.1,
                                        s=minc.s)
            fd = (q.incident_trace_vector(minc_d, 1.0)
                  - q.incident_trace_vector(minc, 1.0)) / delta
            errs.append(float(np.max(np.abs(fd - dq))))
        assert errs[1] < errs[0]
        assert errs[1] < 1e-4

    def test_polarization_invariant_enforced(self):
        with pytest.raises(ValueError):
            q.MaxwellIncidence(k=1.0, theta1=0.3, theta2=0.0, s=(0.0, 0.0, 1.0))


class TestMaxwellSlabDeterminant:
    def test_plugin_value(self):
        # q0 = 0.5, k = 1, |alpha_n| = 1.5
        babs = np.sqrt(1.5 ** 2 - 1.0)
        gabs = np.sqrt(1.5 ** 2 - 0.5)
        expected = 1.0 + 0.5 * (babs / gabs) / np.tanh(gabs)
        val = q.maxwell_slab_determinant(0.5, 1.0, 1.5)
        assert val == pytest.approx(expected, rel=1e-14)
        assert val > 1.0

    def test_vanishing_contrast_limit(self):
        vals = [q.maxwell_slab_determinant(t, 1.0, 1.5) for t in (1e-2, 1e-4, 1e-6)]
        assert all(v > 1.0 for v in vals)
        assert abs(vals[2] - 1.0) < abs(vals[1] - 1.0) < abs(vals[0] - 1.0)

    def test_positive_randomized(self):
        rng = np.random.default_rng(24)
        for _ in range(1000):
            q0 = rng.uniform(0.01, 0.99)
            k = rng.uniform(0.2, 3.0)
            an = rng.uniform(k * 1.001, 4 * k)
            assert q.maxwell_slab_determinant(q0, k, an) > 0

    def test_domain_errors(self):
        with pytest.raises(q.DomainError):
            q.maxwell_slab_determinant(1.5, 1.0, 2.0)
        with pytest.raises(q.DomainError):
            q.maxwell_slab_determinant(0.5, 1.0, 0.5)


class TestMaxwellConstraintResidual:
    def test_zero_fields(self):
        F = q.ModeField(segments={}, alpha=(0.1, 0.0), k=1.0)
        assert q.maxwell_constraint_residual(F, F, (0.1, 0.0), 1.0) == 0.0

    def test_single_mode_symbolic_oracle(self):
        # one evanescent order, constant materials: both sides are elementary
        # exponential integrals; compare the generic evaluator to the closed form
        an = np.array([1.5, 0.3])
        k = 1.0
        babs = np.sqrt(an @ an - k * k)
        A = np.array([0.3 + 0.1j, -0.2j, 0.5 + 0.0j])
        seg = q.FieldSegment(z0=0.0, z1=np.inf, amp=tuple(A), rate=-babs)
        F = q.ModeField(segments={(1, 0): (seg,)}, alpha=(0.5, 0.3), k=k)
        tt = np.array([0.2, 0.1])
        got = q.maxwell_constraint_residual(F, F, tt, k)
        ah = np.array([an[0], an[1], 0.0])
        kappa = 1j * ah + (-babs) * np.array([0, 0, 1.0])
        curl = np.cross(kappa, A)
        tch = np.array([tt[0], tt[1], 0.0], dtype=complex)
        integral = 1.0 / (2 * babs)
        lhs = 2 * k * 4 * np.pi ** 2 * (A @ np.conj(A)) * integral
        rhs = 1j * 4 * np.pi ** 2 * ((np.conj(curl) @ np.cross(tch, A))
                                     - (curl @ np.cross(tch, np.conj(A)))) * integral
        assert abs(got - (lhs - rhs)) < 1e-12 * max(1.0, abs(lhs))

    def test_segment_splitting_invariance(self):
        # splitting depth segments at an artificial breakpoint leaves the value
        # unchanged; same for the material profiles
        an = np.array([1.8, 0.0])
        k = 1.0
        babs = np.sqrt(an @ an - k * k)
        A = np.array([0.2, 0.5j, -0.1])
        whole = q.FieldSegment(z0=0.0, z1=np.inf, amp=tuple(A), rate=-babs)
        lower = q.FieldSegment(z0=0.0, z1=2.0, amp=tuple(A), rate=-babs)
        upper = q.FieldSegment(z0=2.0, z1=np.inf,
                               amp=tuple(A * np.exp(-babs * 2.0)), rate=-babs)
        F1 = q.ModeField(segments={(1, 0): (whole,)}, alpha=(0.8, 0.0), k=k)
        F2 = q.ModeField(segments={(1, 0): (lower, upper)}, alpha=(0.8, 0.0), k=k)
        tt = (0.3, 0.2)
        r1 = q.maxwell_constraint_residual(F1, F1, tt, k)
        r2 = q.maxwell_constraint_residual(F2, F2, tt, k)
        assert r2 == pytest.approx(r1, rel=1e-12)
        prof = [(0.0, 1.0, 1.0), (1.0, np.inf, 1.0)]
        r3 = q.maxwell_constraint_residual(F1, F1, tt, k,
                                           mu_ratio_profile=prof,
                                           eps_ratio_profile=prof)
        assert r3 == pytest.approx(r1, rel=1e-12)

    def test_piecewise_materials_change_value(self):
        an = np.array([1.8, 0.0])
        k = 1.0
        babs = np.sqrt(an @ an - k * k)
        A = np.array([0.2, 0.5j, -0.1])
        seg = q.FieldSegment(z0=0.0, z1=np.inf, amp=tuple(A), rate=-babs)
        F = q.ModeField(segments={(1, 0): (seg,)}, alpha=(0.8, 0.0), k=k)
        tt = (0.3, 0.2)
        r1 = q.maxwell_constraint_residual(F, F, tt, k)
        r2 = q.maxwell_constraint_residual(
            F, F, tt, k, eps_ratio_profile=[(0.0, 1.0, 2.0), (1.0, np.inf, 1.0)])
        assert abs(r1 - r2) > 1e-3

    def test_bad_profile_rejected(self):
        F = q.ModeField(segments={}, alpha=(0.1, 0.0), k=1.0)
        with pytest.raises(q.UnsupportedMedium):
            q.maxwell_constraint_residual(F, F, (0.1, 0.0), 1.0,
                                          mu_ratio_profile=[(0.0, 1.0, 1.0)])
        with pytest.raises(q.UnsupportedMedium):
            q.maxwell_constraint_residual(F, F, (0.1, 0.0), 1.0,
                                          eps_ratio_profile=[(0.5, np.inf, 1.0)])
