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
from .helmholtz import DiscreteOperator, FieldCoefficients, _interior_field, _real_matmul
from .qpcore import IncidenceSpec, _field_point, classify_modes, rayleigh_eval

DEFAULT_SVD_THRESHOLD = 1e-8


@dataclass
class KernelBasis:
    """Discrete null-space basis, W-orthonormal.

    The Rayleigh tails of a vector are its end nodes: v[i, -1] above and
    v[i, 0] below, for mode space.modes[i].
    """

    vectors: list[np.ndarray]            # fields of shape (n_modes, M)
    singular_values: list[float]         # retained (smallest) singular values
    sigma_max: float
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

    def project(self, u: np.ndarray) -> np.ndarray:
        """P u = sum_l <u, v_l> v_l: the projection onto the kernel span.

        Along the weighted-orthogonal splitting: P^2 = P, and P annihilates
        the range of the real-k operator up to the evanescence quality of
        the kernel.
        """
        out = np.zeros(u.shape, dtype=complex)
        for c, v in zip(self.coefficients(u), self.vectors):
            out += c * v
        return out


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
    return KernelBasis(vectors=[v for _, v in members],
                       singular_values=[sg for sg, _ in members],
                       sigma_max=sigma_max, space=op.space, inc=op.inc)


@dataclass(frozen=True)
class EvanescenceReport:
    max_propagating_coeff: float
    per_vector: tuple[float, ...]
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_propagating_coeff <= self.tolerance


def _propagating_tail(v: np.ndarray, space, propagating) -> float:
    """max |v_n(+-h)| over the orders n in `propagating`: the radiating content.

    The end nodes of a field's mode profiles are its Rayleigh tails, so a
    guided mode's propagating content is read off them directly.
    """
    rows = [space.mode_index[n] for n in propagating]
    return float(np.abs(v[rows][:, [0, -1]]).max(initial=0.0))


def verify_evanescent(basis: KernelBasis) -> EvanescenceReport:
    """Check that kernel vectors carry no propagating Rayleigh orders.

    Reports max |v_n^{+-}| over basis vectors and the orders n propagating
    at the basis's incidence, scaled by the vector's weighted norm
    (`_propagating_tail`); it passes at or below the report's tolerance,
    1e-8.  An empty basis passes trivially.
    """
    sp = basis.space
    propagating = classify_modes(basis.inc, sp.disc.N).propagating
    per = []
    for v in basis.vectors:
        nrm = sp.norm(v)
        per.append(_propagating_tail(v, sp, propagating) / nrm if nrm > 0 else 0.0)
    return EvanescenceReport(max_propagating_coeff=max(per) if per else 0.0,
                             per_vector=tuple(per), tolerance=1e-8)


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
        y = op.to(_real_matmul(W, v[..., None])[..., 0])
        ady = np.conj(y[:, None]) @ op.stack  # rows y_b^H A_b, conjugates of A_b^H y_b
        worst = max(worst, float(np.linalg.norm(ady.ravel())
                                 / (sigma_max * np.linalg.norm(y.ravel()))))
    return worst


@dataclass
class LiftedMode:
    """Quasi-periodic guided mode: interior samples plus evanescent tails.

    phi(x) = e^{i alpha.x~} sum_n v_n(x3) e^{i n.x~} inside the layer and the
    matching evanescent Rayleigh tails outside, whose coefficients are the
    end nodes v_n(+-h) of the field, at the field's incidence.
    """

    field: FieldCoefficients

    def __call__(self, x) -> complex:
        x = _field_point(x)
        inc = self.field.inc
        if abs(x[2]) <= inc.h:
            return _interior_field(self.field, inc, x)
        if x[2] > 0:
            return rayleigh_eval(self.field.trace_top(), "above", inc, x)
        return rayleigh_eval(self.field.trace_bottom(), "below", inc, x)


def mode_lift(basis: KernelBasis) -> list[LiftedMode]:
    """Lift kernel vectors to quasi-periodic modes at the basis's incidence."""
    return [LiftedMode(field=FieldCoefficients(space=basis.space, inc=basis.inc,
                                               values=v.copy()))
            for v in basis.vectors]
