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
from functools import cached_property

import numpy as np

from .errors import ThresholdAmbiguity
from .helmholtz import DiscreteOperator, FieldCoefficients, _field_value
from .qpcore import IncidenceSpec, _beta_rows, _row_dot, classify_modes

DEFAULT_SVD_THRESHOLD = 1e-8


@dataclass(frozen=True)
class KernelBasis:
    """Discrete null-space basis, W-orthonormal.

    `vectors` stacks the fields as one complex array (dimension, n_modes,
    M); any array-like of fields of the space, the empty list included, is
    taken.  The Rayleigh tails of vector l are its end nodes: v[l, i, -1]
    above and v[l, i, 0] below, for mode space.modes[i].  It is taken at a
    real-k incidence `inc`, on a space of its h (ValueError otherwise).
    The basis is immutable: its fields cannot be rebound and `vectors` is
    a read-only copy of the fields given, so the terms it computes once
    and keeps (`_propagating_tail`, `_constraint_terms`) cannot go stale.
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
        vectors = np.array(self.vectors, dtype=complex).reshape(-1, len(sp.modes), sp.M)
        vectors.flags.writeable = False
        object.__setattr__(self, "vectors", vectors)

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    def gram(self) -> np.ndarray:
        """<v_i, v_j> for every pair of vectors, (dimension, dimension)."""
        return np.tensordot(self.space.weigh(self.vectors), self.vectors.conj(),
                            axes=([1, 2], [1, 2]))

    def coefficients(self, u: np.ndarray) -> np.ndarray:
        """Weighted-inner-product coefficients <u, v_l> of a field."""
        return np.tensordot(self.vectors.conj(), self.space.weigh(u), axes=([1, 2], [0, 1]))

    def project(self, u: np.ndarray) -> np.ndarray:
        """P u = sum_l <u, v_l> v_l: the projection onto the kernel span.

        Along the weighted-orthogonal splitting: P^2 = P, and P annihilates
        the range of the real-k operator up to the evanescence quality of
        the kernel.
        """
        return np.tensordot(self.coefficients(u), self.vectors, axes=1)

    @cached_property
    def _propagating_tail(self) -> np.ndarray:
        """Each vector's propagating content relative to its weighted norm, (dimension,).

        max |v_n(+-h)| over the orders n propagating at the basis's
        incidence: the end nodes of a field's mode profiles are its
        Rayleigh tails, so a guided mode's radiating content is read off
        them directly.  A zero vector carries none.  Computed on first use.
        """
        sp = self.space
        rows = [sp.mode_index[n] for n in classify_modes(self.inc, sp.disc.N).propagating]
        tail = np.abs(self.vectors[:, rows][..., [0, -1]]).max(axis=(1, 2), initial=0.0)
        norm = np.sqrt(np.maximum(self.gram().diagonal().real, 0.0))
        return np.divide(tail, norm, out=np.zeros_like(tail), where=norm > 0)

    @cached_property
    def _constraint_terms(self):
        """What `lap.constraint_residual` takes of the basis alone, computed on first use.

        (w, ev, c, V, V_top, V_bottom): the interior weight
        w_n = i (n.theta~ + k sin^2 t1) per mode; the indices `ev` of the
        evanescent orders and their tail coefficients
        c_n = i (n.theta~ - k cos^2 t1) / (2 |beta_n|); the conjugated
        vectors V, one flat row per vector; and their end nodes above and
        below over `ev`.
        """
        sp, inc = self.space, self.inc
        k, N = inc.k.real, sp.disc.N
        nth = _row_dot(sp.mode_array, inc.tilde_theta)
        w = 1j * (nth + k * inc.sin2_theta1)
        ev = [sp.mode_index[n] for n in classify_modes(inc, N).evanescent]
        b = np.abs(_beta_rows(sp.mode_array, inc)[ev])
        c = 1j * (nth[ev] - k * inc.cos2_theta1) / (2.0 * b)
        V = np.conj(self.vectors)
        return w, ev, c, V.reshape(len(V), -1), V[:, ev, -1], V[:, ev, 0]


def _canonical_phase(v: np.ndarray, grid) -> np.ndarray:
    """v times the unit phase that makes its leading nodal value real and positive.

    The leading value is the first one of v at the grid's nodes
    (`DepthGrid.nodal`), in (mode, node) order, whose modulus is within
    1e-8 of the largest; "first" breaks the exact ties between the mirror
    nodes j and M-1-j of a depth-parity vector.  v must be nonzero.
    """
    flat = grid.nodal(v).ravel()
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
        vectors.append(_canonical_phase(op.back(z), op.space.grid))
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


def verify_evanescent(basis: KernelBasis) -> EvanescenceReport:
    """Check that kernel vectors carry no propagating Rayleigh orders.

    Reports max |v_n^{+-}| over basis vectors and the orders n propagating
    at the basis's incidence, scaled by the vector's weighted norm
    (`KernelBasis._propagating_tail`); it passes at or below the report's
    tolerance, 1e-8.  An empty basis passes trivially.
    """
    per = basis._propagating_tail
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
    _, sigma_max = op.singularity_report()
    worst = 0.0
    for v in basis.vectors:
        # to(W v) = F^T W v = F^{-1} v: v in block coordinates, as `to` is F^T
        y = op.to(sp.weigh(v))
        ady = np.conj(y[:, None]) @ op.stack  # rows y_b^H A_b, conjugates of A_b^H y_b
        worst = max(worst, float(np.linalg.norm(ady.ravel())
                                 / (sigma_max * np.linalg.norm(y.ravel()))))
    return worst


@dataclass
class LiftedMode:
    """Quasi-periodic guided mode: interior samples plus evanescent tails.

    phi(x) = e^{i alpha.x~} sum_n v_n(x3) e^{i n.x~} inside the layer and the
    matching evanescent Rayleigh tails outside, whose coefficients are the
    end nodes v_n(+-h): `helmholtz._field_value` with no incident wave.
    """

    field: FieldCoefficients

    def __call__(self, x) -> complex:
        return _field_value(self.field, x, incident=False)


def mode_lift(basis: KernelBasis) -> list[LiftedMode]:
    """Lift kernel vectors to quasi-periodic modes at the basis's incidence."""
    return [LiftedMode(field=FieldCoefficients(space=basis.space, inc=basis.inc,
                                               values=v.copy()))
            for v in basis.vectors]
