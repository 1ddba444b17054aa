"""Branch square root, vertical wavenumbers, mode classification, DtN symbols."""
import math
import warnings

import numpy as np
import pytest

import qpscat as q

K_EX = np.pi / (2 * np.sqrt(2))
ALPHA_EX = (1 - np.pi * np.sqrt(3) / 4, 0.0)


def rotated_principal_sqrt(z):
    """Independent oracle: sqrt via r^(1/2) e^(i phi/2) with arg in (-pi/2, 3pi/2]."""
    z = complex(z)
    phi = math.atan2(z.imag, z.real)
    if phi <= -np.pi / 2:
        phi += 2 * np.pi
    return np.sqrt(abs(z)) * np.exp(0.5j * phi)


class TestBranchSqrt:
    def test_positive_real(self):
        assert q.branch_sqrt(4.0) == pytest.approx(2.0)

    def test_negative_real_maps_to_positive_imaginary(self):
        assert q.branch_sqrt(-4.0) == pytest.approx(2.0j)

    def test_continuity_below_negative_real_axis(self):
        # continuous across the negative real axis from below
        val = q.branch_sqrt(-4 - 0.01j)
        oracle = rotated_principal_sqrt(-4 - 0.01j)
        assert val == pytest.approx(oracle, rel=1e-13)
        assert val.real == pytest.approx(-0.0025, abs=1e-6)
        assert val.imag == pytest.approx(2.0, abs=1e-5)

    def test_square_property_random(self):
        rng = np.random.default_rng(42)
        count = 0
        while count < 10_000:
            z = complex(*rng.uniform(-10, 10, 2))
            if z.real <= 0 and abs(z.real) < 1e-3 * abs(z) and z.imag < 0:
                continue  # stay off the cut
            r = q.branch_sqrt(z)
            assert abs(r * r - z) <= 1e-13 * abs(z)
            assert -np.pi / 4 < np.angle(r) <= 3 * np.pi / 4 or r == 0
            count += 1

    def test_continuity_across_negative_axis(self):
        r = 3.7
        gaps = [abs(q.branch_sqrt(-r + 1j * d) - q.branch_sqrt(-r - 1j * d))
                for d in (1e-3, 1e-6, 1e-9)]
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 1e-9

    def test_cut_raises(self):
        with pytest.raises(q.CutProximity, match="lies on the cut"):
            q.branch_sqrt(-1j)
        with pytest.raises(q.CutProximity, match="lies on the cut"):
            q.branch_sqrt(-3.7e5j)
        with pytest.raises(q.CutProximity, match=r"within 1e-14\*\|z\| of the cut"):
            q.branch_sqrt(1e-20 - 1j)

    def test_zero_allowed(self):
        assert q.branch_sqrt(0.0) == 0.0

    def test_array_kernel_names_the_first_entry_on_the_cut(self):
        z = np.array([4.0, -3.0 - 1e-20j, 1e-20 - 3j, -2.0j], dtype=complex)
        with pytest.raises(q.CutProximity, match=r"\(1e-20-3j\) within"):
            q.qpcore._branch_sqrt(z)


class TestIncidenceSpec:
    def test_alpha_from_angles(self):
        inc = q.IncidenceSpec.from_angles(2.0, 0.3, 1.1, 1.0)
        expected = 2.0 * np.sin(0.3) * np.array([np.cos(1.1), np.sin(1.1)])
        assert np.allclose(inc.alpha_vec, expected, rtol=0, atol=1e-15)
        assert np.linalg.norm(inc.alpha_vec) <= 2.0

    def test_rejects_bad_wavenumber(self):
        with pytest.raises(ValueError):
            q.IncidenceSpec.from_angles(-1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            q.IncidenceSpec.from_alpha(2.0 - 0.1j, (0, 0), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            q.IncidenceSpec.from_alpha(bad, (0.1, 0.0), 1.0)
        with pytest.raises(ValueError, match="finite"):
            q.IncidenceSpec.from_alpha(complex(1.0, bad), (0.1, 0.0), 1.0)
        with pytest.raises(ValueError, match="finite"):
            q.IncidenceSpec.from_alpha(1.0, (bad, 0.0), 1.0)
        with pytest.raises(ValueError, match="finite"):
            q.IncidenceSpec.from_alpha(1.0, (0.1, bad), 1.0)
        with pytest.raises(ValueError, match="finite"):
            q.IncidenceSpec.from_alpha(1.0, (0.1, 0.0), bad)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            q.IncidenceSpec.from_angles(bad, 0.2, 0.0, 1.0)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="finite"):
            q.IncidenceSpec.from_angles(1.0, 0.2, bad, 1.0)

    @pytest.mark.parametrize("k, theta1, theta2", [
        (np.inf, 0.2, 0.0), (np.nan, 0.2, 0.0), (1.0, np.nan, 0.0),
        (1.0, 0.2, np.inf), (1.0, 0.2, -np.inf), (1.0, 0.2, np.nan),
    ])
    def test_non_finite_angle_input_is_refused_before_trigonometry(self, k, theta1,
                                                                   theta2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning escapes
            with pytest.raises(ValueError, match="k, theta1 and theta2 must be finite"):
                q.IncidenceSpec.from_angles(k, theta1, theta2, 1.0)

    @pytest.mark.parametrize("k, alpha", [(1.0, (0.1, 1e300)), (1e-200, (0.1, 1e150))])
    def test_overflowing_direct_sin2_is_a_domain_error(self, k, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(q.DomainError, match="overflows double precision"):
                q.IncidenceSpec.from_alpha(k, alpha, 1.0)

    def test_overflowing_beta_squared_is_one_domain_error(self):
        # sin^2(t1) = 1e300 is finite, |n + alpha|^2 is not: the beta family
        # refuses it as the assembly does
        inc = q.IncidenceSpec.from_alpha(1e10, (0.1, 1e160), 1.0)
        calls = [lambda: q.beta((0, 0), inc), lambda: q.beta_table(inc, 1),
                 lambda: q.d_beta_d_eps((0, 0), inc), lambda: q.dtn_symbol((0, 0), "-", inc),
                 lambda: q.assemble(inc, q.MediumModel.homogeneous(2.0, 1.0),
                                    q.Discretization(N=1, M=16))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(q.DomainError, match="beta_n\\^2 overflows"):
                    call()

    @pytest.mark.parametrize("make", [
        lambda k: q.IncidenceSpec.from_angles(k, 0.3, 0.0, 1.0),
        lambda k: q.IncidenceSpec.from_alpha(k, (0.0, 0.0), 1.0),
        lambda k: q.IncidenceSpec.from_angles(complex(k, k), 0.3, 0.0, 1.0),
    ], ids=["angles", "alpha", "complex_k"])
    @pytest.mark.parametrize("k", [1e-160, 1e-200])
    def test_underflowing_k_squared_is_one_domain_error(self, k, make):
        # k^2 subnormal (1e-160: beta_0 7e-5 off k cos t1) or 0 (1e-200: a
        # silent cut-off): refused wherever beta_n^2 is formed
        inc = make(k)
        med, disc = q.MediumModel.homogeneous(2.0, 1.0), q.Discretization(N=1, M=16)
        calls = [lambda: q.beta((0, 0), inc), lambda: q.beta_table(inc, 1),
                 lambda: q.assemble(inc, med, disc)]
        if inc.k.imag == 0:
            calls.append(lambda: q.assemble_eps_derivative(inc, med, disc))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(q.DomainError, match=r"k\^2 underflows double precision"):
                    call()

    @pytest.mark.parametrize("inc", [
        q.IncidenceSpec.from_alpha(1e200, (0.1, 0.0), 1.0),          # once OverflowError
        q.IncidenceSpec.from_angles(1e200, 0.3, 0.0, 1.0),           # once inf+nanj
        q.IncidenceSpec.from_angles(1e200 + 1e200j, 0.3, 0.0, 1.0),  # once nan
        q.IncidenceSpec.from_angles(1e308 + 1e308j, 0.3, 0.0, 1.0),  # once abs() overflowed
    ], ids=["alpha", "angles", "complex_k", "huge_complex_k"])
    def test_overflowing_k_squared_is_one_domain_error(self, inc):
        # the beta family refuses what both assemblies refuse, with their text
        med, disc = q.MediumModel.homogeneous(2.0, 1.0), q.Discretization(N=1, M=16)
        x = (0.3, -0.2, inc.h + 0.5)
        calls = [lambda: q.beta((1, 0), inc), lambda: q.beta_table(inc, 1),
                 lambda: q.dtn_symbol((1, 0), "+", inc), lambda: q.assemble(inc, med, disc),
                 lambda: q.rayleigh_eval({(0, 0): 1.0}, "above", inc, x)]
        if inc.k.imag == 0:
            calls += [lambda: q.d_beta_d_eps((1, 0), inc),
                      lambda: q.assemble_eps_derivative(inc, med, disc)]
        else:
            calls.append(lambda: q.min_im_beta(inc, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(q.DomainError,
                                   match=r"^k\^2 overflows double precision at k = "):
                    call()

    def test_smallest_normal_k_squared_keeps_beta(self):
        k = q.qpcore._K_MIN
        assert k * k >= np.finfo(float).tiny > np.nextafter(k, 0) ** 2
        inc = q.IncidenceSpec.from_angles(k, 0.3, 0.0, 1.0)
        assert q.beta((0, 0), inc) == pytest.approx(k * np.cos(0.3), rel=1e-15)
        with pytest.raises(q.DomainError):
            q.beta((0, 0), inc.with_k(np.nextafter(k, 0)))

    def test_direct_alpha_complex_k_uses_fixed_tilde_theta(self):
        inc = q.IncidenceSpec.from_alpha(2.0, (0.5, -0.2), 1.0)
        inc_e = inc.with_k(2.0 + 0.01j)
        assert np.allclose(inc_e.tilde_theta, inc.tilde_theta)


class TestBeta:
    def test_normal_incidence_zero_order(self):
        inc = q.IncidenceSpec.from_angles(2.0, 0.0, 0.0, 1.0)
        assert q.beta((0, 0), inc) == pytest.approx(2.0)

    def test_guided_mode_order_value(self):
        # k = pi/(2 sqrt 2), alpha = (1 - pi sqrt3/4, 0): order (-1,0) gives i pi/4
        inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
        assert q.beta((-1, 0), inc) == pytest.approx(1j * np.pi / 4, abs=1e-14)

    def test_evanescent_value(self):
        inc = q.IncidenceSpec.from_angles(2.0, 0.0, 0.0, 1.0)
        assert q.beta((3, 0), inc) == pytest.approx(1j * np.sqrt(5.0))

    def test_real_k_dichotomy_matches_classification(self):
        inc = q.IncidenceSpec.from_angles(1.7, 0.4, 0.9, 1.0)
        cls = q.classify_modes(inc, 4)
        for n in cls.propagating:
            b = q.beta(n, inc)
            assert b.imag == pytest.approx(0.0, abs=1e-12) and b.real > 0
        for n in cls.evanescent:
            b = q.beta(n, inc)
            assert b.real == pytest.approx(0.0, abs=1e-12) and b.imag > 0

    def test_large_order_asymptotics(self):
        # beta_n / (i |n|) -> 1
        inc = q.IncidenceSpec.from_angles(1.7, 0.4, 0.9, 1.0)
        n = (1000, 0)
        assert q.beta(n, inc) / (1j * 1000) == pytest.approx(1.0, rel=1e-2)


class TestMinImBeta:
    def test_positive_on_sample(self):
        inc = q.IncidenceSpec.from_angles(1 + 0.1j, np.pi / 4, 0.0, 1.0)
        assert q.min_im_beta(inc, 20) > 0

    def test_single_mode_value(self):
        # N=0, k=2+i: Im sqrt((2+i)^2) = 1
        inc = q.IncidenceSpec.from_angles(2 + 1j, 0.0, 0.0, 1.0)
        assert q.min_im_beta(inc, 0) == pytest.approx(1.0)

    def test_matches_direct_enumeration(self):
        inc = q.IncidenceSpec.from_alpha(K_EX + 0.01j, ALPHA_EX, 1.0)
        val = q.min_im_beta(inc, 8)
        assert val > 0
        per_mode = [q.beta(n, inc).imag for n in q.mode_range(8)]
        assert val == pytest.approx(min(per_mode))
        assert all(val <= im + 1e-15 for im in per_mode)

    def test_randomized_positivity_grid(self):
        # property of the shifted wavenumber: strictly positive everywhere
        rng = np.random.default_rng(7)
        for _ in range(200):
            k = rng.uniform(0.2, 5.0)
            eps = 10.0 ** rng.uniform(-6, 0)
            t1 = rng.uniform(-1.5, 1.5)
            t2 = rng.uniform(0, 2 * np.pi)
            N = int(rng.integers(0, 21))
            inc = q.IncidenceSpec.from_angles(k + 1j * eps, t1, t2, 1.0)
            assert q.min_im_beta(inc, N) > 0


class TestBetaTable:
    def test_cutoff_rejected(self):
        inc = q.IncidenceSpec.from_alpha(1.0, (0.0, 0.0), 1.0)
        with pytest.raises(q.CutoffViolation):
            q.beta_table(inc, 1)  # |(1,0)+0| = 1 = k exactly

    def test_entries_consistent(self):
        # one beta_n per order, in mode_range order: the checked _beta_rows
        inc = q.IncidenceSpec.from_angles(1.3, 0.2, 0.4, 1.0)
        bt = q.beta_table(inc, 3)
        assert np.array_equal(bt, q.qpcore._beta_rows(np.array(q.mode_range(3), float), inc))
        for i, n in enumerate(q.mode_range(3)):
            assert bt[i] == q.beta(n, inc)

    def test_complex_k_all_upper_half(self):
        inc = q.IncidenceSpec.from_angles(1.3 + 0.05j, 0.2, 0.4, 1.0)
        bt = q.beta_table(inc, 5)
        assert bt.shape == (len(q.mode_range(5)),) and np.all(bt.imag > 0)


def within_ulps(got, want, ulps=2):
    """Real and imaginary parts each within `ulps` units in the last place."""
    got, want = np.asarray(got), np.asarray(want)
    return all(np.all(np.abs(g - w) <= ulps * np.spacing(np.abs(w)))
               for g, w in ((got.real, want.real), (got.imag, want.imag)))


def incidences(seed, count):
    """Angle-derived, alpha-derived and complex-k incidences, in turn."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        k, a = rng.uniform(0.2, 5.0), rng.uniform(-1.0, 1.0, 2)
        t1, t2 = rng.uniform(-1.5, 1.5), rng.uniform(0.0, 2 * np.pi)
        if i % 3 == 0:
            yield q.IncidenceSpec.from_angles(k, t1, t2, 1.0)
        elif i % 3 == 1:
            yield q.IncidenceSpec.from_alpha(k, a, 1.0)
        else:
            kc = k + 1j * 10.0 ** rng.uniform(-8, 0)
            yield (q.IncidenceSpec.from_angles(kc, t1, t2, 1.0) if i % 2
                   else q.IncidenceSpec.from_alpha(kc, a, 1.0))


def raised(fn):
    """(type, message) of what fn() raises, or None."""
    try:
        fn()
    except q.QpscatError as e:
        return type(e), str(e)
    return None


class TestVectorizedBeta:
    """beta_table and classify_modes as array operations, against per-mode formulas."""

    def test_table_matches_scalar_beta(self):
        for inc in incidences(11, 300):
            bt = q.beta_table(inc, 4)
            want = [q.beta(n, inc) for n in q.mode_range(4)]
            assert within_ulps(bt, want)

    @pytest.mark.parametrize("k, alpha", [
        (1 + 1j, (2.0, 0.0)),                      # beta_0^2 = -6i exactly: on the cut
        (np.nextafter(1.0, 2.0) + 1j, (2.0, 0.0)),  # within CUT_RTOL of the cut
        (1.0, (0.0, 0.0)),                         # |(1, 0) + alpha| = k: cut-off
        (1.3 + 0.05j, (0.2, -0.3)),                # neither
    ])
    def test_errors_raised_where_the_scalar_path_raises(self, k, alpha):
        inc = q.IncidenceSpec.from_alpha(k, alpha, 1.0)

        def scalar_table():
            vals = {n: q.beta(n, inc) for n in q.mode_range(1)}
            flagged = [n for n, b in vals.items() if abs(b) < 1e-9 * abs(inc.k)]
            if flagged:
                raise q.CutoffViolation(
                    f"orders {flagged} are at cut-off (|beta| < {1e-9 * abs(inc.k):g})")

        assert raised(lambda: q.beta_table(inc, 1)) == raised(scalar_table)

    def test_complex_k_assembly_on_the_cut(self):
        inc = q.IncidenceSpec.from_alpha(1 + 1j, (2.0, 0.0), 1.0)
        with pytest.raises(q.CutProximity, match="lies on the cut"):
            q.assemble(inc, q.MediumModel.homogeneous(2.0, 1.0), q.Discretization(N=1, M=16))

    def test_classification_matches_the_per_mode_loop(self):
        for inc in incidences(12, 300):
            if inc.k.imag != 0:
                continue
            for tol in (1e-9, 0.05):
                want = ([], [], [])
                for n in q.mode_range(3):
                    r = float(np.linalg.norm(np.asarray(n, dtype=float) + inc.alpha_vec))
                    if abs(r - inc.k.real) < tol:
                        want[2].append(n)
                    if r < inc.k.real:
                        want[0].append(n)
                    elif r > inc.k.real:
                        want[1].append(n)
                cls = q.classify_modes(inc, 3, tol=tol)
                assert (cls.propagating, cls.evanescent, cls.cutoff_flags) == want


class TestClassifyModes:
    def test_guided_scenario_partition(self):
        inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
        cls = q.classify_modes(inc, 2, tol=1e-9)
        assert sorted(cls.propagating) == [(-0, 0), (0, -1), (0, 1), (1, 0)] \
            or sorted(cls.propagating) == [(0, -1), (0, 0), (0, 1), (1, 0)]
        assert not cls.cutoff_flags

    def test_small_k_only_zero_order(self):
        inc = q.IncidenceSpec.from_alpha(1.0, (0.0, 0.0), 1.0)
        cls = q.classify_modes(inc, 1)
        assert cls.propagating == [(0, 0)]

    def test_exact_cutoff_flagged(self):
        inc = q.IncidenceSpec.from_alpha(1.0, (0.0, 0.0), 1.0)
        cls = q.classify_modes(inc, 1)
        assert (1, 0) in cls.cutoff_flags
        with pytest.raises(q.CutoffViolation):
            q.classify_modes(inc, 1, strict=True)

    def test_overflowing_order_norm_is_a_domain_error(self):
        inc = q.IncidenceSpec.from_alpha(1e300, (1e300, 0.0), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # once numpy's overflow in matmul
            with pytest.raises(q.DomainError, match=r"\|n \+ alpha\|\^2 overflows"):
                q.classify_modes(inc, 1)


class TestRayleighEval:
    def test_phase_cancels_on_boundary(self):
        inc = q.IncidenceSpec.from_angles(2.0, 0.1, 0.0, 1.0)
        val = q.rayleigh_eval({(0, 0): 1.0}, "above", inc, (0.0, 0.0, 1.0))
        assert val == pytest.approx(1.0)

    def test_evanescent_decay_factor(self):
        inc = q.IncidenceSpec.from_angles(2.0, 0.0, 0.0, 1.0)
        n = (3, 0)
        b = q.beta(n, inc)
        v1 = q.rayleigh_eval({n: 1.0}, "above", inc, (0.0, 0.0, 1.0))
        v2 = q.rayleigh_eval({n: 1.0}, "above", inc, (0.0, 0.0, 2.0))
        assert abs(v2) / abs(v1) == pytest.approx(np.exp(-abs(b)), rel=1e-12)

    def test_matches_guided_mode_closed_form(self):
        # evanescent tail of the analytic slab mode at x3 = 2
        inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
        n = (-1, 0)
        coeff = np.cos(np.pi / 4)
        xt = (0.33, -0.7)
        val = q.rayleigh_eval({n: coeff}, "above", inc, (*xt, 2.0))
        a_mode = np.array([ALPHA_EX[0] - 1, 0.0])
        closed = np.cos(np.pi / 4) * np.exp(-np.pi / 4) * np.exp(1j * (a_mode @ xt))
        assert val == pytest.approx(closed, rel=1e-13)

    @pytest.mark.parametrize("inc", [q.IncidenceSpec.from_angles(1.7, 0.4, 0.9, 0.8),
                                     q.IncidenceSpec.from_angles(1.7 + 0.3j, 0.4, 0.9, 0.8),
                                     q.IncidenceSpec.from_alpha(2.2, (0.3, -0.6), 0.8)])
    def test_matches_the_per_mode_sum(self, inc):
        # the one phase product against the per-mode loop with the scalar beta,
        # on orders in no particular order; the sums accumulate differently
        rng = np.random.default_rng(11)
        orders = [tuple(int(t) for t in rng.integers(-4, 5, 2)) for _ in range(30)]
        coeffs = {n: complex(*rng.standard_normal(2)) for n in orders}
        for side, x3 in (("above", 0.8), ("above", 1.9), ("below", -0.8), ("below", -2.3)):
            x = np.array([*rng.uniform(0, 2 * np.pi, 2), x3])
            terms = [c * np.exp(1j * ((np.array(n) + inc.alpha_vec) @ x[:2])
                                + 1j * q.beta(n, inc) * (abs(x3) - inc.h))
                     for n, c in coeffs.items()]
            got = q.rayleigh_eval(coeffs, side, inc, x)
            assert abs(got - sum(terms)) <= 1e-14 * sum(abs(t) for t in terms)
        assert q.rayleigh_eval({}, "below", inc, (0.0, 0.0, -1.0)) == 0.0

    def test_wrong_side(self):
        inc = q.IncidenceSpec.from_angles(2.0, 0.0, 0.0, 1.0)
        with pytest.raises(q.WrongSide):
            q.rayleigh_eval({(0, 0): 1.0}, "above", inc, (0.0, 0.0, 0.5))
        with pytest.raises(q.WrongSide):
            q.rayleigh_eval({(0, 0): 1.0}, "below", inc, (0.0, 0.0, 0.5))


class TestDtnSymbol:
    def test_zero_order_normal(self):
        inc = q.IncidenceSpec.from_angles(2.0, 0.0, 0.0, 1.0)
        assert q.dtn_symbol((0, 0), "+", inc) == pytest.approx(2j)

    def test_evanescent_symbol_is_real_negative(self):
        inc = q.IncidenceSpec.from_alpha(K_EX, ALPHA_EX, 1.0)
        # i * (i pi/4) = -pi/4
        assert q.dtn_symbol((-1, 0), "+", inc) == pytest.approx(-np.pi / 4, abs=1e-14)

    def test_lower_symbol_negates_upper(self):
        inc = q.IncidenceSpec.from_angles(1.7, 0.4, 0.9, 1.0)
        for n in q.mode_range(3):
            assert q.dtn_symbol(n, "-", inc) == -q.dtn_symbol(n, "+", inc)


def test_d_beta_d_eps_matches_finite_difference():
    inc = q.IncidenceSpec.from_angles(1.7, 0.4, 0.9, 1.0)
    for n in [(0, 0), (2, -1), (-3, 2)]:
        d = q.d_beta_d_eps(n, inc)
        errs = []
        for delta in (1e-5, 1e-6):
            fd = (q.beta(n, inc.with_k(inc.k + 1j * delta)) - q.beta(n, inc)) / delta
            errs.append(abs(fd - d))
        assert errs[1] <= errs[0] + 1e-14  # first-order one-sided difference
        assert errs[1] < 1e-4 * max(abs(d), 1.0)


def test_d_beta_d_eps_is_the_assembled_boundary_entry():
    # bit for bit, mode by mode, on drawn real-k incidences: the scalar
    # derivative and the boundary entries of the assembled A'(0)
    rng = np.random.default_rng(17)
    disc, med = q.Discretization(N=3, M=8), q.MediumModel.homogeneous(2.0, 1.0)
    for i in range(400):
        k, a = rng.uniform(0.2, 5.0), rng.uniform(-1.0, 1.0, 2)
        inc = (q.IncidenceSpec.from_angles(k, rng.uniform(-1.5, 1.5),
                                           rng.uniform(0.0, 2 * np.pi), 1.0)
               if i % 2 else q.IncidenceSpec.from_alpha(k, a, 1.0))
        try:
            op = q.assemble_eps_derivative(inc, med, disc)
        except q.CutoffViolation:  # a grazing order
            continue
        want = [q.d_beta_d_eps(n, inc) for n in op.space.modes]
        assert np.array_equal(op.boundary, want)
