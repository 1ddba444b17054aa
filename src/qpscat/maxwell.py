"""Electromagnetic operator layer for the bi-periodic half-space problem.

Desk-scale ingredients of the vector (curl-curl) theory: the explicit
quasi-periodic Calderon map on the artificial boundary, its real/imaginary
quadratic forms, the gradient-trace form, the divergence closure of Rayleigh
coefficients, the incident trace vector of a polarized plane wave, the
orthogonality-constraint evaluator on analytic slab-class fields, and the
slab determinant showing that eps1*mu1 > eps0*mu0 is needed for guided modes.

No discretized 3-d curl-curl solve lives here; the general inhomogeneous
problem is exercised only through these operator-level pieces.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CutoffViolation, DomainError, UnsupportedMedium
from .qpcore import branch_sqrt

NU = np.array([0.0, 0.0, 1.0])

#: dual pairing between Curl- and Div-trace data: <u, v> = 4 pi^2 sum u_n . conj(v_n)
PAIRING_WEIGHT = 4 * np.pi ** 2


def _beta(alpha_n: np.ndarray, k: float) -> complex:
    b2 = k * k - float(alpha_n @ alpha_n)
    return branch_sqrt(b2)


def _check_cutoffs(alphas: np.ndarray, k: float):
    """Raise CutoffViolation for the rows with |alpha_n| = k to 1e-12 max(k, 1)."""
    r = np.linalg.norm(alphas, axis=-1)
    bad = np.flatnonzero(np.abs(r - k) < 1e-12 * max(k, 1.0))
    if bad.size:
        raise CutoffViolation(f"|alpha_n| = k at rows {bad.tolist()}", bad.tolist())


@dataclass(frozen=True)
class TangentialField:
    """Tangential trace data sum_n v_n e^{i alpha_n . x~} with nu . v_n = 0."""

    coeffs: dict[tuple[int, int], np.ndarray]
    alpha: tuple[float, float]
    k: float

    def __post_init__(self):
        for n, v in self.coeffs.items():
            v = np.asarray(v, dtype=complex)
            if v.shape != (3,):
                raise ValueError(f"coefficient of {n} must be a 3-vector")
            if abs(v[2]) > 1e-13 * max(1.0, np.linalg.norm(v)):
                raise ValueError(f"coefficient of {n} not tangential: {v}")
            self.coeffs[n] = v

    def alpha_n(self, n) -> np.ndarray:
        return np.asarray(n, dtype=float) + np.asarray(self.alpha, dtype=float)


@dataclass(frozen=True)
class MaxwellIncidence:
    """Polarized plane wave from above: E = p e^{ik x . theta_hat}.

    The electric and magnetic polarizations satisfy p = s x theta_hat and
    s . theta_hat = 0, in units with sqrt(mu0/eps0) = 1.
    """

    k: float
    theta1: float
    theta2: float
    s: tuple[complex, complex, complex]

    @property
    def theta_hat(self) -> np.ndarray:
        t1, t2 = self.theta1, self.theta2
        return np.array([np.sin(t1) * np.cos(t2), np.sin(t1) * np.sin(t2),
                         -np.cos(t1)])

    @property
    def theta_check(self) -> np.ndarray:
        th = self.theta_hat
        return np.array([th[0], th[1], 0.0])

    @property
    def tilde_theta(self) -> np.ndarray:
        return self.theta_hat[:2]

    @property
    def alpha(self) -> np.ndarray:
        return self.k * self.tilde_theta

    @property
    def s_vec(self) -> np.ndarray:
        return np.asarray(self.s, dtype=complex)

    @property
    def p(self) -> np.ndarray:
        return np.cross(self.s_vec, self.theta_hat.astype(complex))

    def __post_init__(self):
        if abs(np.asarray(self.s, dtype=complex) @ self.theta_hat) > 1e-12:
            raise ValueError("magnetic polarization must satisfy s . theta_hat = 0")


def calderon_apply(v: TangentialField) -> TangentialField:
    """Quasi-periodic Calderon (electric-to-magnetic trace) map.

    Per order: (i / beta_n) [k^2 v_n - (alpha_hat_n . v_n) alpha_hat_n], the
    tangential curl trace of the radiating half-space extension of v.
    """
    k = v.k
    out = {}
    for n, vn in v.coeffs.items():
        an = v.alpha_n(n)
        _check_cutoffs(an, k)
        b = _beta(an, k)
        ah = np.array([an[0], an[1], 0.0], dtype=complex)
        out[n] = (1j / b) * (k * k * vn - (ah @ vn) * ah)
    return TangentialField(coeffs=out, alpha=v.alpha, k=v.k)


def calderon_halfspace_oracle(v: TangentialField) -> TangentialField:
    """Independent route to the Calderon map through the half-space solution.

    For each order build the radiating divergence-free field with tangential
    trace v_n, take (nu x curl u) x nu on the boundary.  Used to validate
    `calderon_apply` against the defining boundary problem.
    """
    k = v.k
    out = {}
    for n, vn in v.coeffs.items():
        an = v.alpha_n(n)
        _check_cutoffs(an, k)
        b = _beta(an, k)
        E = np.array([vn[1], -vn[0], 0.0], dtype=complex)  # nu x E = v
        E[2] = -(an @ E[:2]) / b
        kappa = np.array([an[0], an[1], b], dtype=complex)
        curl = 1j * np.cross(kappa, E)
        out[n] = np.cross(np.cross(NU.astype(complex), curl), NU.astype(complex))
    return TangentialField(coeffs=out, alpha=v.alpha, k=v.k)


def calderon_forms(v: TangentialField) -> tuple[float, float]:
    """Real and imaginary quadratic forms of the Calderon pairing.

    re = 4 pi^2 sum_{|alpha_n|>k} (1/|beta_n|)[k^2 |v_n|^2 - |alpha_hat_n . v_n|^2],
    im = the same sum over |alpha_n|<k with 1/beta_n; im >= 0 always (each
    propagating term is bounded below by (k^2 - |alpha_n|^2)|v_n|^2 / beta_n).
    """
    k = v.k
    re = im = 0.0
    for n, vn in v.coeffs.items():
        an = v.alpha_n(n)
        _check_cutoffs(an, k)
        ah = np.array([an[0], an[1], 0.0], dtype=complex)
        val = k * k * float(np.vdot(vn, vn).real) - abs(ah @ vn) ** 2
        b2 = k * k - float(an @ an)
        if b2 > 0:
            im += val / np.sqrt(b2)
        else:
            re += val / np.sqrt(-b2)
    return PAIRING_WEIGHT * re, PAIRING_WEIGHT * im


def calderon_pairing(v: TangentialField) -> complex:
    """<T v, v> in the Curl/Div dual pairing; equals re + i*im of the forms."""
    tv = calderon_apply(v)
    total = 0.0 + 0.0j
    for n, vn in v.coeffs.items():
        total += tv.coeffs[n] @ np.conj(vn)
    return PAIRING_WEIGHT * complex(total)


def gradient_trace_form(p_coeffs: dict[tuple[int, int], complex], alpha, k: float) -> float:
    """Re <T (nu x grad p), nu x grad p> = 4 pi^2 k^2 sum_{|a_n|>k} |a_n|^2 |p_n|^2 / |beta_n|.

    p_coeffs are the boundary values p_n(h) of a scalar quasi-periodic
    potential; the form is nonnegative (only evanescent orders contribute).
    """
    alpha = np.asarray(alpha, dtype=float)
    total = 0.0
    for n, pn in p_coeffs.items():
        an = np.asarray(n, dtype=float) + alpha
        _check_cutoffs(an, k)
        r2 = float(an @ an)
        if r2 > k * k:
            total += r2 * abs(pn) ** 2 / np.sqrt(r2 - k * k)
    return PAIRING_WEIGHT * k * k * total


def gradient_trace_field(p_coeffs: dict[tuple[int, int], complex], alpha,
                         k: float) -> TangentialField:
    """nu x grad of the boundary potential, as a tangential field (two-route check)."""
    alpha = np.asarray(alpha, dtype=float)
    coeffs = {}
    for n, pn in p_coeffs.items():
        an = np.asarray(n, dtype=float) + alpha
        # grad_x~ p has transverse part i a_n p_n; nu x (a, b, 0) = (-b, a, 0)
        coeffs[n] = 1j * pn * np.array([-an[1], an[0], 0.0], dtype=complex)
    return TangentialField(coeffs=coeffs, alpha=(alpha[0], alpha[1]), k=k)


def divergence_close(F_tilde, n, k: float, tilde_theta) -> complex:
    """Third Rayleigh component from the divergence-free condition.

    F_n^(3) = -(k tilde_theta + n) . F~_n / beta_n; the completed 3-vector
    then satisfies alpha_hat_n . F_n + beta_n F_n^(3) = 0 identically.
    """
    F_tilde = np.asarray(F_tilde, dtype=complex)
    nv = np.asarray(n, dtype=float)
    tt = np.asarray(tilde_theta, dtype=float)
    an = k * tt + nv
    b = _beta(an, k)
    if b == 0:
        raise CutoffViolation(f"beta_{tuple(n)} = 0", [tuple(n)])
    return complex(-(an @ F_tilde) / b)


def incident_trace_vector(minc: MaxwellIncidence, h: float) -> np.ndarray:
    """Closed-form boundary source vector of the plane wave on Gamma_h.

    q(k) = [ik nu x (theta_hat x p) x nu - (ik/cos t1)(nu x p)
            + (ik/cos t1)(theta_check . (nu x p)) theta_check] e^{-ikh cos t1},
    i.e. the tangential curl trace minus the Calderon image of the tangential
    trace, both divided by the common phase e^{i alpha . x~}.
    """
    k, t1 = minc.k, minc.theta1
    p = minc.p
    th = minc.theta_hat.astype(complex)
    tc = minc.theta_check.astype(complex)
    ct = np.cos(t1)
    nup = np.cross(NU.astype(complex), p)
    val = (1j * k * np.cross(np.cross(NU.astype(complex), np.cross(th, p)), NU)
           - (1j * k / ct) * nup
           + (1j * k / ct) * (tc @ nup) * tc)
    return val * np.exp(-1j * k * h * ct)


def incident_trace_vector_assembled(minc: MaxwellIncidence, h: float) -> np.ndarray:
    """Two-route validation of q(k): assemble (curl E)_T - T~(nu x E) mode-wise."""
    k, t1 = minc.k, minc.theta1
    p = minc.p
    th = minc.theta_hat.astype(complex)
    ph = np.exp(-1j * k * h * np.cos(t1))
    curl = 1j * k * np.cross(th, p) * ph
    curl_T = np.cross(np.cross(NU.astype(complex), curl), NU)
    v0 = np.cross(NU.astype(complex), p) * ph
    tf = TangentialField(coeffs={(0, 0): v0}, alpha=(minc.alpha[0], minc.alpha[1]),
                         k=k)
    return curl_T - calderon_apply(tf).coeffs[(0, 0)]


def incident_trace_vector_dk(minc: MaxwellIncidence, h: float) -> np.ndarray:
    """d q / d k at fixed incidence direction and polarization."""
    k, t1 = minc.k, minc.theta1
    ct = np.cos(t1)
    q = incident_trace_vector(minc, h)
    return q / k + q * (-1j * h * ct)


def maxwell_slab_determinant(q0_em: float, k: float, abs_alpha_n: float) -> float:
    """Guided-mode determinant of the constant electromagnetic slab.

    For contrast q0 = eps0 mu0 / (eps1 mu1) < 1 and an evanescent order
    |alpha_n| > k (so both vertical rates are imaginary), the continuity
    system has determinant

        k^2 [1 - q0 (|beta_n|/|gamma_n|) (e^{-|g|}+e^{|g|}) / (e^{-|g|}-e^{|g|})]
      = k^2 [1 + q0 (|beta_n|/|gamma_n|) coth|gamma_n|]  >  0,

    so only the trivial solution exists: no guided electromagnetic surface
    waves on such slabs.  The unit-thickness normalization h = 1 of the
    underlying expansion is used.
    """
    if not 0 < q0_em < 1:
        raise DomainError(f"contrast q0 = {q0_em:g} must lie in (0, 1)")
    if abs_alpha_n <= k:
        raise DomainError(f"|alpha_n| = {abs_alpha_n:g} must exceed k = {k:g}")
    babs = np.sqrt(abs_alpha_n ** 2 - k ** 2)
    gabs = np.sqrt(abs_alpha_n ** 2 - k ** 2 * q0_em)
    return float(k * k * (1.0 + q0_em * (babs / gabs) / np.tanh(gabs)))


# ---------------------------------------------------------------------------
# analytic mode-coefficient fields and the orthogonality-constraint evaluator


@dataclass(frozen=True)
class FieldSegment:
    """amp e^{rate (x3 - z0)} on [z0, z1) (z1 may be inf, then Re rate < 0)."""

    z0: float
    z1: float
    amp: tuple[complex, complex, complex]
    rate: complex

    @property
    def amp_vec(self) -> np.ndarray:
        return np.asarray(self.amp, dtype=complex)


@dataclass(frozen=True)
class ModeField:
    """Finite Fourier-mode field with piecewise-exponential depth profiles."""

    segments: dict[tuple[int, int], tuple[FieldSegment, ...]]
    alpha: tuple[float, float]
    k: float

    def alpha_hat(self, n) -> np.ndarray:
        an = np.asarray(n, dtype=float) + np.asarray(self.alpha, dtype=float)
        return np.array([an[0], an[1], 0.0])


def _segment_curl_amp(seg: FieldSegment, ah: np.ndarray) -> np.ndarray:
    kappa = 1j * ah.astype(complex) + seg.rate * NU.astype(complex)
    return np.cross(kappa, seg.amp_vec)


def _exp_pair_integral(r1: complex, a1: float, r2: complex, a2: float,
                       lo: float, hi: float) -> complex:
    """int_lo^hi e^{r1 (x-a1)} conj(e^{r2 (x-a2)}) dx, hi may be inf."""
    R = r1 + np.conj(r2)
    C = np.exp(r1 * (lo - a1) + np.conj(r2) * (lo - a2))
    if np.isinf(hi):
        if R.real >= 0:
            raise DomainError("divergent tail integral (non-decaying product)")
        return complex(-C / R)
    L = hi - lo
    if abs(R) * L < 1e-10:
        return complex(C * L * (1.0 + R * L / 2.0))
    return complex(C * (np.exp(R * L) - 1.0) / R)


def _normalize_profile(profile) -> list[tuple[float, float, complex]]:
    if profile is None:
        return [(0.0, np.inf, 1.0 + 0.0j)]
    out = []
    for z0, z1, val in profile:
        out.append((float(z0), float(z1), complex(val)))
    out.sort(key=lambda t: t[0])
    for (a0, b0, _), (a1, _, _) in zip(out, out[1:]):
        if abs(b0 - a1) > 1e-12:
            raise UnsupportedMedium("profile pieces must tile [0, inf)")
    if out[0][0] != 0.0 or not np.isinf(out[-1][1]):
        raise UnsupportedMedium("profile must cover [0, inf)")
    return out


def maxwell_constraint_residual(E: ModeField, psi: ModeField,
                                tilde_theta, k: float,
                                mu_ratio_profile=None,
                                eps_ratio_profile=None) -> complex:
    """LHS - RHS of the electromagnetic orthogonality constraint.

    LHS = 2k int (eps/eps0) E . conj(psi),
    RHS = i int (mu0/mu) [(curl conj psi) . (theta_check x E)
                          - (curl E) . (theta_check x conj psi)],
    over the half-space cell, with theta_check = (tilde_theta, 0).  Fields
    must be slab-class: finite mode sets with piecewise-exponential depth
    segments; material ratio profiles are piecewise constant on [0, inf).
    """
    if E.alpha != psi.alpha:
        raise UnsupportedMedium("fields must share the quasi-momentum")
    mu_prof = _normalize_profile(mu_ratio_profile)
    eps_prof = _normalize_profile(eps_ratio_profile)
    tt = np.asarray(tilde_theta, dtype=float)
    tcheck = np.array([tt[0], tt[1], 0.0], dtype=complex)

    lhs = 0.0 + 0.0j
    rhs = 0.0 + 0.0j
    for n, esegs in E.segments.items():
        psegs = psi.segments.get(n)
        if not psegs:
            continue
        ah = E.alpha_hat(n)
        for se in esegs:
            ce = _segment_curl_amp(se, ah)
            for sp_ in psegs:
                cp = _segment_curl_amp(sp_, ah)
                lo0 = max(se.z0, sp_.z0)
                hi0 = min(se.z1, sp_.z1)
                if hi0 <= lo0:
                    continue
                cross_e = np.cross(tcheck, se.amp_vec)
                cross_p = np.cross(tcheck, np.conj(sp_.amp_vec))
                dot_lhs = se.amp_vec @ np.conj(sp_.amp_vec)
                dot_rhs = np.conj(cp) @ cross_e - ce @ cross_p
                for z0, z1, mval in mu_prof:
                    lo, hi = max(lo0, z0), min(hi0, z1)
                    if hi > lo:
                        I = _exp_pair_integral(se.rate, se.z0, sp_.rate, sp_.z0, lo, hi)
                        rhs += mval * dot_rhs * I
                for z0, z1, eval_ in eps_prof:
                    lo, hi = max(lo0, z0), min(hi0, z1)
                    if hi > lo:
                        I = _exp_pair_integral(se.rate, se.z0, sp_.rate, sp_.z0, lo, hi)
                        lhs += eval_ * dot_lhs * I
    lhs *= 2.0 * k * PAIRING_WEIGHT
    rhs *= 1j * PAIRING_WEIGHT
    return complex(lhs - rhs)
