"""Quasi-periodic kernel arithmetic.

Branch-cut square root, vertical wavenumbers beta_n of the Rayleigh orders,
their classification into propagating/evanescent, the diagonal DtN symbols,
and the one Rayleigh series sum above/below the layer (`_rayleigh_sum`).

Conventions: the transverse period is 2*pi in both directions, the layer
occupies |x3| < h, and a plane wave e^{ik theta_hat . x} comes in from above
with theta_hat = (sin t1 cos t2, sin t1 sin t2, -cos t1).  The quasi-momentum
is alpha = Re(k) * tilde_theta with tilde_theta = sin t1 (cos t2, sin t2).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import CutoffViolation, CutProximity, DomainError, WrongSide

ModeIndex = tuple[int, int]

#: relative distance to the cut below which branch_sqrt refuses to pick a side
CUT_RTOL = 1e-14


def branch_sqrt(z: complex) -> complex:
    """Square root holomorphic off the cut i*R_{<=0}: the one-entry case of
    `_branch_sqrt`, with z = 0 returning 0.

    sqrt(t) = i sqrt(|t|) for negative real t.  Raises CutProximity for
    arguments on or within CUT_RTOL of the negative imaginary axis.
    """
    z = complex(z)
    return complex(_branch_sqrt(np.array([z]))[0]) if z else 0j


def _branch_sqrt(z: np.ndarray) -> np.ndarray:
    """The fixed branch of sqrt for every entry of the complex array `z`.

    The principal square root, negated wherever its argument falls outside
    (-pi/4, 3pi/4].  Raises CutProximity, for the first entry in C order,
    where Im z < 0 and |Re z| < CUT_RTOL |Im z| (|Im z| rather than |z|,
    which can overflow where z does not).
    """
    cut = (z.imag < 0.0) & (np.abs(z.real) < CUT_RTOL * np.abs(z.imag))
    if cut.any():
        w = complex(z[cut][0])
        if w.real == 0.0:
            raise CutProximity(f"sqrt argument {w} lies on the cut i*R_<0")
        raise CutProximity(f"sqrt argument {w} within {CUT_RTOL:g}*|z| of the cut")
    r = np.sqrt(z)
    a = np.angle(r)
    flip = (a <= -np.pi / 4) | (a > 3 * np.pi / 4)
    r[flip] = -r[flip]
    return r


@dataclass(frozen=True)
class IncidenceSpec:
    """Incident plane-wave data: wavenumber, quasi-momentum, layer half-thickness.

    Either built from incidence angles (`from_angles`) or from a directly
    prescribed quasi-momentum alpha (`from_alpha`).  Direct alpha exists so
    tests can place alpha exactly on a propagative wave vector, which
    floating-point angles cannot hit.  For complex k with direct alpha the
    angle form of beta_n is used with tilde_theta := alpha / Re(k).  A direct
    alpha whose sin^2(t1) = |alpha|^2 / Re(k)^2 overflows double precision
    raises DomainError.
    """

    k: complex
    h: float
    alpha: tuple[float, float]
    theta1: float | None = None
    theta2: float | None = None

    def __post_init__(self):
        if not np.all(np.isfinite([self.k, self.h, *self.alpha])):
            raise ValueError(f"k, h and alpha must be finite, got "
                             f"k={self.k}, h={self.h}, alpha={self.alpha}")
        if self.k.real <= 0:
            raise ValueError(f"Re(k) must be positive, got {self.k}")
        if self.k.imag < 0:
            raise ValueError(f"Im(k) must be >= 0, got {self.k}")
        if self.h <= 0:
            raise ValueError(f"h must be positive, got {self.h}")
        if not self.angle_derived:
            with np.errstate(over="ignore"):
                s2 = self.sin2_theta1
            if not np.isfinite(s2):
                raise DomainError(f"sin^2(theta1) = |alpha|^2 / Re(k)^2 overflows "
                                  f"double precision at k = {self.k:.6g}")

    @classmethod
    def from_angles(cls, k: complex, theta1: float, theta2: float, h: float) -> "IncidenceSpec":
        # before any trigonometry, which warns on an infinite angle or k
        if not np.all(np.isfinite([k, theta1, theta2])):
            raise ValueError(f"k, theta1 and theta2 must be finite, got "
                             f"k={k}, theta1={theta1}, theta2={theta2}")
        if not -np.pi / 2 < theta1 < np.pi / 2:
            raise ValueError(f"theta1 must lie in (-pi/2, pi/2), got {theta1}")
        tt = np.sin(theta1) * np.array([np.cos(theta2), np.sin(theta2)])
        alpha = complex(k).real * tt
        return cls(k=complex(k), h=float(h), alpha=(float(alpha[0]), float(alpha[1])),
                   theta1=float(theta1), theta2=float(theta2) % (2 * np.pi))

    @classmethod
    def from_alpha(cls, k: complex, alpha, h: float) -> "IncidenceSpec":
        a = np.asarray(alpha, dtype=float)
        if a.shape != (2,):
            raise ValueError("alpha must be a 2-vector")
        return cls(k=complex(k), h=float(h), alpha=(float(a[0]), float(a[1])))

    @property
    def angle_derived(self) -> bool:
        return self.theta1 is not None

    @property
    def alpha_vec(self) -> np.ndarray:
        return np.array(self.alpha, dtype=float)

    @property
    def tilde_theta(self) -> np.ndarray:
        if self.angle_derived:
            return np.sin(self.theta1) * np.array([np.cos(self.theta2), np.sin(self.theta2)])
        return self.alpha_vec / self.k.real

    @property
    def sin2_theta1(self) -> float:
        if self.angle_derived:
            return float(np.sin(self.theta1) ** 2)
        tt = self.tilde_theta
        return float(tt @ tt)

    @property
    def cos2_theta1(self) -> float:
        if self.angle_derived:
            return float(np.cos(self.theta1) ** 2)
        return 1.0 - self.sin2_theta1

    @property
    def cos_theta1(self) -> complex:
        c2 = self.cos2_theta1
        return branch_sqrt(c2)

    def with_k(self, k: complex) -> "IncidenceSpec":
        """Same incidence geometry (tilde_theta fixed) at a perturbed wavenumber."""
        if self.angle_derived:
            return IncidenceSpec.from_angles(k, self.theta1, self.theta2, self.h)
        return IncidenceSpec.from_alpha(k, self.alpha, self.h)


def mode_range(N: int) -> list[ModeIndex]:
    """All integer order pairs with |n|_inf <= N, lexicographically sorted."""
    return [(n1, n2) for n1 in range(-N, N + 1) for n2 in range(-N, N + 1)]


#: least |k| whose square is a normal double (about 1.49e-154)
_K_MIN = float(np.sqrt(np.finfo(float).tiny))


def _require_finite(inc: IncidenceSpec, name: str, value) -> None:
    """Raise DomainError unless the scalar (or every entry of) `value` is finite."""
    if not np.all(np.isfinite(value)):
        raise DomainError(f"{name} overflows double precision at k = {inc.k:.6g}")


def _require_normal_k2(inc: IncidenceSpec) -> None:
    """DomainError unless k^2 is finite and |k|^2 normal: a subnormal or 0 k^2
    would make beta_0 lose digits or read 0."""
    _require_finite(inc, "k^2", inc.k * inc.k)  # first: abs() raises on a huge complex k
    if abs(inc.k) < _K_MIN:
        raise DomainError(f"k^2 underflows double precision at k = {inc.k:.6g}; "
                          f"|k| must be at least {_K_MIN:.3g}")


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i . b_i for each row of (n, 2) arrays (b may be one 2-vector).

    Each 2-term dot goes through the same routine as the 1-d `a_i @ b_i` of
    the per-mode formulas, so array results equal theirs bit for bit; a
    row-wise multiply-and-sum rounds differently.
    """
    return (a[:, None, :] @ np.broadcast_to(b, a.shape)[..., None])[:, 0, 0]


@np.errstate(over="ignore", invalid="ignore")  # refused below, with no warning
def _beta_rows(modes: np.ndarray, inc: IncidenceSpec) -> np.ndarray:
    """beta_n for every row n of the (n, 2) float array `modes`, as one array
    operation, from beta_n^2 = k^2 - |n + alpha|^2, or the polynomial-in-k form
    of `beta` for angle-derived incidence and complex k.

    `beta` is its one-row case.  DomainError where k^2 is not normal
    (`_require_normal_k2`) or some beta_n^2 overflows; CutProximity as
    `_branch_sqrt`.
    """
    _require_normal_k2(inc)
    k = inc.k
    if inc.angle_derived or k.imag != 0.0:
        b2 = (k * k * inc.cos2_theta1 - (2.0 * k) * _row_dot(modes, inc.tilde_theta)
              - _row_dot(modes, modes))
    else:
        an = modes + inc.alpha_vec
        b2 = (k.real ** 2 - _row_dot(an, an)).astype(complex)
    _require_finite(inc, "beta_n^2", b2)
    return _branch_sqrt(b2)


def beta(n, inc: IncidenceSpec) -> complex:
    """Vertical wavenumber beta_n = sqrt(k^2 - |n + alpha|^2) on the fixed branch.

    Angle-derived incidence (and any complex k) uses the polynomial-in-k form
    k^2 cos^2(t1) - 2 k n.tilde_theta - |n|^2, which is the holomorphic
    continuation in k at fixed tilde_theta.  The one-row case of `_beta_rows`:
    DomainError where k^2 or beta_n^2 under- or overflows, CutProximity where
    beta_n^2 lies on or near the cut.
    """
    return complex(_beta_rows(np.asarray(n, dtype=float).reshape(1, 2), inc)[0])


def d_beta_d_eps(n, inc: IncidenceSpec) -> complex:
    """Derivative of beta_n(k + i*eps) with respect to eps at eps = 0.

    Equals i (k cos^2 t1 - n.tilde_theta) / beta_n (`_d_beta_rows`).  Raises
    CutoffViolation where beta_n = 0, and DomainError and CutProximity as
    `beta`.
    """
    b = beta(n, inc)
    if b == 0:
        raise CutoffViolation(f"beta_{n} = 0: derivative undefined", [tuple(n)])
    return complex(_d_beta_rows(np.asarray(n, dtype=float).reshape(1, 2), inc,
                                np.array([b]))[1][0])


def _d_beta_rows(modes: np.ndarray, inc: IncidenceSpec, betas: np.ndarray):
    """(s, i s / beta_n) for every row n of `modes`, given its beta_n, with
    s = k cos^2 t1 - n.tilde_theta: d(beta_n^2)/d eps = 2 i s and
    d beta_n / d eps = i s / beta_n, both of k + i eps at eps = 0; one row
    rounds as in the array of every mode (`_row_dot`)."""
    shift = inc.k * inc.cos2_theta1 - _row_dot(modes, inc.tilde_theta)
    return shift, 1j * shift / betas


def beta_table(inc: IncidenceSpec, N: int) -> np.ndarray:
    """beta_n over |n|_inf <= N in mode_range order, as one array operation.

    Raises CutoffViolation if any |beta_n| falls below 1e-9 |k|; beta_n
    enters denominators downstream, so grazing orders must be rejected
    before any table is built.  The values equal `beta` mode by mode, and
    DomainError and CutProximity are raised where `beta` would raise them.
    """
    modes = mode_range(N)
    vals = _beta_rows(np.array(modes, dtype=float), inc)
    cutoff_tolerance = 1e-9 * abs(inc.k)
    flagged = [modes[i] for i in np.flatnonzero(np.abs(vals) < cutoff_tolerance)]
    if flagged:
        raise CutoffViolation(
            f"orders {flagged} are at cut-off (|beta| < {cutoff_tolerance:g})", flagged)
    return vals


def min_im_beta(inc: IncidenceSpec, N: int) -> float:
    """min over |n|_inf <= N of Im beta_n(k + i eps); strictly positive for eps > 0.

    ValueError unless Im k > 0; DomainError and CutProximity as `beta`.
    """
    if inc.k.imag <= 0:
        raise ValueError("min_im_beta requires Im k > 0")
    return float(np.min(_beta_rows(np.array(mode_range(N), dtype=float), inc).imag))


@dataclass(frozen=True)
class ModeClassification:
    propagating: list[ModeIndex]
    evanescent: list[ModeIndex]
    cutoff_flags: list[ModeIndex]


def classify_modes(inc: IncidenceSpec, N: int, tol: float = 1e-9,
                   strict: bool = False) -> ModeClassification:
    """Partition |n|_inf <= N into propagating (|n+alpha| < k) and evanescent orders.

    Orders with ||n+alpha| - k| < tol are flagged as cut-offs; with
    strict=True any flag raises CutoffViolation.  Real k only; DomainError
    where some |n + alpha|^2 overflows.
    """
    if inc.k.imag != 0:
        raise ValueError("classify_modes requires real k")
    k = inc.k.real
    modes = mode_range(N)
    an = np.array(modes, dtype=float) + inc.alpha_vec
    with np.errstate(over="ignore"):
        r2 = _row_dot(an, an)
    _require_finite(inc, "|n + alpha|^2", r2)
    r = np.sqrt(r2)  # |n + alpha|, as np.linalg.norm of each row
    prop, evan, flags = ([modes[i] for i in np.flatnonzero(m)]
                         for m in (r < k, r > k, np.abs(r - k) < tol))
    if strict and flags:
        raise CutoffViolation(f"cut-off orders within tol={tol:g}: {flags}", flags)
    return ModeClassification(propagating=prop, evanescent=evan, cutoff_flags=flags)


def dtn_symbol(n, side: str, inc: IncidenceSpec) -> complex:
    """Diagonal DtN multiplier +-i beta_n relating trace to normal derivative.

    side='+' is the upper boundary x3 = +h, side='-' the lower one.  The
    quasi-periodic and periodic maps share these symbols (the quasi-periodic
    variant acts on the shifted exponentials).
    """
    if side not in ("+", "-"):
        raise ValueError("side must be '+' or '-'")
    s = 1.0 if side == "+" else -1.0
    return s * 1j * beta(n, inc)


def _field_point(x) -> np.ndarray:
    """A field point x = (x1, x2, x3) as a float array; ValueError otherwise."""
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise ValueError("x must be a 3-vector")
    return x


def _rayleigh_sum(modes: np.ndarray, betas: np.ndarray, coeffs: np.ndarray,
                  inc: IncidenceSpec, x) -> complex:
    """sum_n c_n e^{i alpha_n.x~ + i beta_n (|x3| - h)} over the rows n of `modes`: the
    outgoing Rayleigh series at a point x outside the layer, above or below alike.
    `betas` are the rows' beta_n (`_beta_rows`), which a caller may keep."""
    phase = _row_dot(modes + inc.alpha_vec, x[:2]) + betas * (abs(x[2]) - inc.h)
    return complex(coeffs @ np.exp(1j * phase))


def rayleigh_eval(coeffs: Mapping[ModeIndex, complex], side: str, inc: IncidenceSpec,
                  x) -> complex:
    """Evaluate the outgoing Rayleigh series sum u_n e^{i alpha_n.x~ +- i beta_n (x3 -+ h)}.

    side='above' requires x3 > h, side='below' x3 < -h (boundary values allowed).
    Only the finitely many supplied coefficients are summed; the truncation
    error is bounded by the evanescent decay at distance |x3| - h.
    """
    x = _field_point(x)
    if side not in ("above", "below"):
        raise ValueError("side must be 'above' or 'below'")
    if (x[2] < inc.h) if side == "above" else (x[2] > -inc.h):
        raise WrongSide(f"x3 = {x[2]} is not {side} the layer |x3| < {inc.h}")
    modes = np.array(list(coeffs), dtype=float).reshape(-1, 2)
    return _rayleigh_sum(modes, _beta_rows(modes, inc),
                         np.array(list(coeffs.values()), dtype=complex), inc, x)
