"""Guided-mode (kernel) detection and lifting.

At a propagative wave vector the assembled operator acquires a nontrivial
null space consisting of surface-wave fields: evanescent in depth, with no
propagating Rayleigh orders.  Kernels are extracted from the singular
decomposition of the whitened matrix, so the returned basis is orthonormal
in the weighted inner product, and the adjoint-kernel coincidence can be
checked in the same metric.  Each kernel vector carries a canonical phase,
so the reports are independent of the LAPACK build.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ThresholdAmbiguity
from .helmholtz import DiscreteOperator, FieldCoefficients, _interior_field
from .qpcore import IncidenceSpec, ModeIndex, _field_point, beta, classify_modes, \
    rayleigh_eval

DEFAULT_SVD_THRESHOLD = 1e-8


@dataclass
class KernelBasis:
    """Discrete null-space basis, W-orthonormal, with Rayleigh tail data."""

    vectors: list[np.ndarray]            # fields of shape (n_modes, M)
    singular_values: list[float]         # retained (smallest) singular values
    sigma_max: float
    tail_coeffs: list[dict[ModeIndex, tuple[complex, complex]]]
    space: object
    inc: IncidenceSpec

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    def gram(self) -> np.ndarray:
        d = self.dimension
        g = np.zeros((d, d), dtype=complex)
        for i in range(d):
            for j in range(d):
                g[i, j] = self.space.inner(self.vectors[i], self.vectors[j])
        return g

    def coefficients(self, u: np.ndarray) -> np.ndarray:
        """Weighted-inner-product coefficients <u, v_l> of a field."""
        return np.array([self.space.inner(u, v) for v in self.vectors])


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    """v times the unit phase that makes its leading entry real and positive.

    The leading entry is the first one, in (mode, node) order, whose modulus
    is within 1e-8 of the largest; "first" breaks the exact ties between the
    mirror nodes j and M-1-j of a depth-parity vector.  v must be nonzero.
    """
    flat = v.ravel()
    a = np.abs(flat)
    top = flat[np.flatnonzero(a >= (1.0 - 1e-8) * a.max())[0]]
    return v * (np.conj(top) / abs(top))


def kernel(op: DiscreteOperator, svd_threshold: float = DEFAULT_SVD_THRESHOLD) -> KernelBasis:
    """Extract the numerical null space of the assembled operator.

    Singular vectors of the whitened matrix with sigma < svd_threshold *
    sigma_max span the kernel; an empty basis means the quasi-momentum is
    (numerically) not a propagative wave vector.  The whitened matrix is
    taken as the stack the operator was assembled as
    (`DiscreteOperator.stack`: one block per mode group and depth parity,
    so 98 blocks of 8 for a transversely constant medium at N = 3, M = 16,
    sampled or homogeneous), all decomposed in one batched SVD, so every
    kernel vector lives in one block, mapped back by `back`.  Each vector is
    fixed up to its unit phase by `_canonical_phase`, so the reports do not
    depend on the phase LAPACK picks.  Raises ThresholdAmbiguity if any
    singular value lies within a factor 10 of the threshold, in which case
    no reliable kernel/regular split exists at this resolution.
    Raises ValueError unless 0 < svd_threshold < 1.
    """
    if op.inc.k.imag != 0:
        raise ValueError("kernel extraction is defined at real k")
    if not 0.0 < svd_threshold < 1.0:  # also rejects NaN
        raise ValueError(f"svd_threshold must lie in (0, 1), got {svd_threshold!r}")
    space = op.space
    _, s, Vh = np.linalg.svd(op.stack)
    sigma_max = float(s.max())
    rel = np.sort(s.ravel()) / sigma_max
    ambiguous = [float(t) for t in rel
                 if svd_threshold / 10.0 <= t <= svd_threshold * 10.0]
    if ambiguous:
        raise ThresholdAmbiguity(
            f"singular values {ambiguous} within a factor 10 of the "
            f"threshold {svd_threshold:g}; kernel dimension ill-determined",
            ambiguous=ambiguous)
    members = []  # (sigma, field)
    for b, r in zip(*np.nonzero(s < svd_threshold * sigma_max)):
        z = np.zeros(s.shape, dtype=complex)
        z[b] = np.conj(Vh[b, r])
        members.append((float(s[b, r]), _canonical_phase(op.back(z))))
    members.sort(key=lambda t: t[0])
    vectors = [v for _, v in members]
    sigmas = [sg for sg, _ in members]
    tails = []
    for v in vectors:
        tails.append({n: (complex(v[i, -1]), complex(v[i, 0]))
                      for i, n in enumerate(space.modes)})
    return KernelBasis(vectors=vectors, singular_values=sigmas,
                       sigma_max=sigma_max, tail_coeffs=tails,
                       space=space, inc=op.inc)


@dataclass(frozen=True)
class EvanescenceReport:
    max_propagating_coeff: float
    per_vector: tuple[float, ...]
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_propagating_coeff <= self.tolerance


def verify_evanescent(basis: KernelBasis, inc: IncidenceSpec,
                      tolerance: float = 1e-8) -> EvanescenceReport:
    """Check that kernel vectors carry no propagating Rayleigh orders.

    Reports max |v_n^{+-}| over basis vectors and propagating n, scaled by
    the vector's weighted norm.  An empty basis passes trivially.
    """
    cls = classify_modes(inc, basis.space.disc.N)
    per = []
    for v, tails in zip(basis.vectors, basis.tail_coeffs):
        nrm = basis.space.norm(v)
        worst = 0.0
        for n in cls.propagating:
            tp, tm = tails[n]
            worst = max(worst, abs(tp), abs(tm))
        per.append(worst / nrm if nrm > 0 else 0.0)
    return EvanescenceReport(max_propagating_coeff=max(per) if per else 0.0,
                             per_vector=tuple(per), tolerance=tolerance)


def adjoint_kernel_check(op: DiscreteOperator, basis: KernelBasis) -> float:
    """max over the basis of ||A* v|| / (||A|| ||v||), adjoint in the weighted metric.

    Small values certify that the null spaces of the operator and its adjoint
    coincide numerically (the kernels consist of the same surface waves).
    Evaluated on the blocks of the operator's stack, through its map `to`,
    so a split operator never builds its full whitened matrix.  Returns 0.0
    for an empty basis.
    """
    if basis.dimension == 0:
        return 0.0
    W = op.space.W
    _, sigma_max = op.singularity_report()
    worst = 0.0
    for v in basis.vectors:
        # W^{1/2} v in block coordinates, as `to` is the parity part of W^{-1/2}
        y = op.to((W @ v[..., None])[..., 0])
        ady = np.conj(y[:, None]) @ op.stack  # rows y_b^H A_b, conjugates of A_b^H y_b
        worst = max(worst, float(np.linalg.norm(ady.ravel())
                                 / (sigma_max * np.linalg.norm(y.ravel()))))
    return worst


@dataclass
class LiftedMode:
    """Quasi-periodic guided mode: interior samples plus evanescent tails.

    phi(x) = e^{i alpha.x~} sum_n v_n(x3) e^{i n.x~} inside the layer and the
    matching evanescent Rayleigh tails outside.  interior_potential is
    k^2 (q0 - 1) of a constant layer, used by `interior_residual` only.
    """

    field: FieldCoefficients
    inc: IncidenceSpec
    tail_plus: dict[ModeIndex, complex]
    tail_minus: dict[ModeIndex, complex]
    interior_potential: complex = 0.0

    def __call__(self, x) -> complex:
        x = _field_point(x)
        if abs(x[2]) <= self.inc.h:
            return _interior_field(self.field, self.inc, x)
        if x[2] > 0:
            return rayleigh_eval(self.tail_plus, "above", self.inc, x)
        return rayleigh_eval(self.tail_minus, "below", self.inc, x)

    def interior_residual(self) -> float:
        """Collocation residual of Delta phi + k^2 q phi at interior depth nodes.

        Uses the diagnostic differentiation matrix; relative to the field
        scale.  Only meaningful for transversely uniform media (the lift
        stores no medium; caller supplies residual checks for coupled media).
        """
        sp = self.field.space
        g = sp.grid
        worst = 0.0
        scale = max(np.max(np.abs(self.field.values)), 1e-300)
        for i, n in enumerate(sp.modes):
            prof = self.field.values[i]
            if np.max(np.abs(prof)) < 1e-13 * scale:
                continue
            b = beta(n, self.inc)
            res = g.diff @ (g.diff @ prof) + (b * b + self.interior_potential) * prof
            worst = max(worst, float(np.max(np.abs(res[1:-1])) / scale))
        return worst


def mode_lift(basis: KernelBasis, inc: IncidenceSpec,
              interior_potential: complex | None = None) -> list[LiftedMode]:
    """Lift kernel vectors to quasi-periodic modes with evanescent tails.

    interior_potential, when given, is k^2 (q0 - 1) of a constant layer and
    enables the interior collocation residual diagnostic.
    """
    out = []
    for v, tails in zip(basis.vectors, basis.tail_coeffs):
        fc = FieldCoefficients(space=basis.space, inc=inc, values=v.copy())
        out.append(LiftedMode(
            field=fc, inc=inc,
            tail_plus={n: t[0] for n, t in tails.items()},
            tail_minus={n: t[1] for n, t in tails.items()},
            interior_potential=complex(interior_potential or 0.0)))
    return out
