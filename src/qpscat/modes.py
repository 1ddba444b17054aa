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

    `vectors` stacks the fields as one complex array (dimension, n_modes,
    M); any array-like of fields of the space, the empty list included, is
    taken.  The Rayleigh tails of vector l are its end nodes: v[l, i, -1]
    above and v[l, i, 0] below, for mode space.modes[i].  It is taken at a
    real-k incidence `inc`, on a space of its h (ValueError otherwise).
    """

    vectors: np.ndarray                  # (dimension, n_modes, M)
    singular_values: list[float]         # retained (smallest) singular values
    sigma_max: float
    space: object
    inc: IncidenceSpec

    def __post_init__(self):
        sp = self.space
        if self.inc.k.imag != 0 or sp.h != self.inc.h:
            raise ValueError(f"a kernel basis needs real k and its space at the incidence "
                             f"h, got k={self.inc.k!r}, h={self.inc.h!r}, space h={sp.h!r}")
        self.vectors = np.asarray(self.vectors, dtype=complex).reshape(
            -1, len(sp.modes), sp.M)

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    def gram(self) -> np.ndarray:
        """<v_i, v_j> for every pair of vectors, (dimension, dimension)."""
        wv = _real_matmul(self.space.W, self.vectors[..., None])[..., 0]
        return np.tensordot(wv, self.vectors.conj(), axes=([1, 2], [1, 2]))

    def coefficients(self, u: np.ndarray) -> np.ndarray:
        """Weighted-inner-product coefficients <u, v_l> of a field."""
        wu = _real_matmul(self.space.W, u[..., None])[..., 0]
        return np.tensordot(self.vectors.conj(), wu, axes=([1, 2], [0, 1]))

    def project(self, u: np.ndarray) -> np.ndarray:
        """P u = sum_l <u, v_l> v_l: the projection onto the kernel span.

        Along the weighted-orthogonal splitting: P^2 = P, and P annihilates
        the range of the real-k operator up to the evanescence quality of
        the kernel.
        """
        return np.tensordot(self.coefficients(u), self.vectors, axes=1)


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
    b, r = np.nonzero(s < svd_threshold * sigma_max)
    order = np.argsort(s[b, r], kind="stable")  # ascending sigma
    b, r = b[order], r[order]
    vectors = []
    for bl, rl in zip(b, r):
        z = np.zeros(s.shape, dtype=complex)
        z[bl] = np.conj(Vh[bl, rl])
        vectors.append(_canonical_phase(op.back(z)))
    return KernelBasis(vectors=vectors, singular_values=s[b, r].tolist(),
                       sigma_max=sigma_max, space=op.space, inc=op.inc)


@dataclass(frozen=True)
class EvanescenceReport:
    max_propagating_coeff: float
    per_vector: tuple[float, ...]
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_propagating_coeff <= self.tolerance


def _propagating_tail(basis: KernelBasis) -> np.ndarray:
    """Each vector's propagating content relative to its weighted norm, (dimension,).

    max |v_n(+-h)| over the orders n propagating at the basis's incidence:
    the end nodes of a field's mode profiles are its Rayleigh tails, so a
    guided mode's radiating content is read off them directly.  A zero
    vector carries none.
    """
    sp = basis.space
    rows = [sp.mode_index[n] for n in classify_modes(basis.inc, sp.disc.N).propagating]
    tail = np.abs(basis.vectors[:, rows][..., [0, -1]]).max(axis=(1, 2), initial=0.0)
    norm = np.sqrt(np.maximum(basis.gram().diagonal().real, 0.0))
    return np.divide(tail, norm, out=np.zeros_like(tail), where=norm > 0)


def verify_evanescent(basis: KernelBasis) -> EvanescenceReport:
    """Check that kernel vectors carry no propagating Rayleigh orders.

    Reports max |v_n^{+-}| over basis vectors and the orders n propagating
    at the basis's incidence, scaled by the vector's weighted norm
    (`_propagating_tail`); it passes at or below the report's tolerance,
    1e-8.  An empty basis passes trivially.
    """
    per = _propagating_tail(basis)
    return EvanescenceReport(max_propagating_coeff=float(per.max(initial=0.0)),
                             per_vector=tuple(per.tolist()), tolerance=1e-8)


def adjoint_kernel_check(op: DiscreteOperator, basis: KernelBasis) -> float:
    """max over the basis of ||A* v|| / (||A|| ||v||), adjoint in the weighted metric.

    Small values certify that the null spaces of the operator and its adjoint
    coincide numerically (the kernels consist of the same surface waves).
    Evaluated on the blocks of the operator's stack, through its map `to`,
    so a split operator never builds its full whitened matrix.  Returns 0.0
    for an empty basis.  ValueError unless the basis is on a space of op's
    discretization at op's incidence (and so at its h), compared by value.
    """
    sp, bs = op.space, basis.space
    if bs.disc != sp.disc or basis.inc != op.inc:
        raise ValueError(f"kernel basis (N={bs.disc.N}, M={bs.M}, {basis.inc!r}) is "
                         f"not of the operator (N={sp.disc.N}, M={sp.M}, {op.inc!r})")
    if basis.dimension == 0:
        return 0.0
    W = sp.W
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
