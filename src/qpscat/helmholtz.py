"""Periodic Fourier-Galerkin solver for the layer scattering problem.

The quasi-periodic total field u is reduced to a periodic unknown
v = e^{-i alpha.x~} u.  Transversally v is expanded in Fourier modes
e^{i n.x~} (exact diagonalization of the DtN closure); in depth each modal
profile v_n(x3) lives on a nodal basis over [-h, h], either Chebyshev-Lobatto
points with exactly integrated Galerkin matrices (default, spectral) or a
uniform grid with the standard second-order stencil.  Per mode the operator
realizes

    v_n'' + beta_n^2 v_n + k^2 sum_m (qhat_{n-m}(x3) - delta_{nm}) v_m = 0

in weak form, closed by the radiation rows v_n'(+-h) = +-i beta_n v_n(+-h);
the constant background is folded into beta_n^2 so a q == 1 layer is
transparent to round-off.  The incident load sits in the n = 0 row at the
top boundary with value -2ik cos(t1) e^{-ikh cos(t1)}.

The weighted inner product used for kernels/projections is

    <v, psi> = int grad v . grad psi~  +  4 pi^2 sum_n (1+|n|^2)^{1/2}
               (v_n^+ psi_n^+~ + v_n^- psi_n^-~),

realized per mode by W_n = 4 pi^2 [K + |n|^2 Mass + sqrt(1+|n|^2)(E_t + E_b)].
Singularity detection and kernel extraction run on the whitened matrix
F^T G F, F_n any real factor with F_n^T W_n F_n = I (`FieldSpace.F`), whose
conditioning stays O(1) in the resolution; every such F gives unitarily
similar whitened operators.
"""
from __future__ import annotations

import functools
import math
import operator
import os
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import AliasError, CutoffViolation, DomainError, NearSingular, \
    OperatorTooLarge, SolveFailed
from .medium import MediumModel
from .qpcore import IncidenceSpec, ModeIndex, _beta_array, _beta_rows, _d_beta_rows, \
    _field_point, _rayleigh_sum, beta_table, classify_modes, mode_range

CHEBYSHEV = "chebyshev_collocation"
FINITE_DIFFERENCE = "finite_difference_order2"

#: relative smallest singular value below which a solve refuses to proceed
NEAR_SINGULAR_THRESHOLD = 1e-8

#: relative Frobenius norm below which the even/odd cross parts of the
#: k-independent pieces of an operator (its couplings, the stiffness and
#: the mass) count as zero, so that its whitened stack is split by depth
#: parity (a medium mirror-symmetric in depth leaves ~1e-15 of round-off);
#: the split between coupling groups needs none, as it is exact
_SPLIT_TOL = 1e-13

#: mass matrix of the second-order depth scheme: average of the consistent
#: and lumped P1 masses.  The average cancels the leading interior dispersion
#: term of either choice (the standard reduced-dispersion mass); the scheme
#: stays second order through its boundary treatment, which dominates the
#: error at desk resolutions.  Plain lumped or consistent masses leave ~4e-3
#: coefficient errors at M = 64 for k h = 2 slabs; the average leaves ~9e-4.
FD_MASS_BLEND = 0.5


@dataclass(frozen=True)
class Discretization:
    """Transverse truncation |n|_inf <= N and M depth nodes on [-h, h].

    Owns one FieldSpace per layer half-height h (see `space`), so repeated
    solves on one discretization build the depth grid and the W_n and their
    whitening factors once.  The cache takes no part in equality,
    hashing or repr.
    """

    N: int
    M: int
    depth_scheme: str = CHEBYSHEV
    _spaces: dict = field(default_factory=dict, init=False, compare=False,
                          hash=False, repr=False)

    def __post_init__(self):
        for name in ("N", "M"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ValueError(f"{name} must be an integer") from None
        if self.M < 8:
            raise ValueError("M must be at least 8")
        if self.N < 0:
            raise ValueError("N must be >= 0")
        if self.depth_scheme not in (CHEBYSHEV, FINITE_DIFFERENCE):
            raise ValueError(f"unknown depth scheme {self.depth_scheme!r}")

    @property
    def unknowns(self) -> int:
        return (2 * self.N + 1) ** 2 * self.M

    def space(self, h: float) -> FieldSpace:
        """The FieldSpace of this discretization on [-h, h], built on first use."""
        h = float(h)
        if h not in self._spaces:
            self._spaces[h] = FieldSpace(self, h)
        return self._spaces[h]


# ---------------------------------------------------------------------------
# depth grids


def _cheb_nodes_diff(M: int, h: float):
    """Chebyshev-Lobatto nodes (ascending) and differentiation matrix on [-h, h]."""
    n = M - 1
    x = np.cos(np.pi * np.arange(M) / n)
    c = np.ones(M)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(M)
    dX = x[:, None] - x[None, :]
    D = np.outer(c, 1.0 / c) / (dX + np.eye(M))
    D -= np.diag(D.sum(axis=1))
    return h * x[::-1], D[::-1, ::-1] / h


def _cheb_bary_weights(M: int) -> np.ndarray:
    wb = np.ones(M)
    wb[0] = wb[-1] = 0.5
    wb *= (-1.0) ** np.arange(M)
    return wb


def _legendre(M: int, x: np.ndarray):
    """P_M(x) and P_M'(x) by the three-term recurrence."""
    p0, p, d = np.ones_like(x), x, np.ones_like(x)
    for j in range(2, M + 1):
        p0, p, d = p, ((2 * j - 1) * x * p - (j - 1) * p0) / j, j * p + x * d
    return p, d


def _gauss_legendre(M: int) -> tuple[np.ndarray, np.ndarray]:
    """The M-point Gauss-Legendre rule on [-1, 1]: ascending nodes and weights.

    Newton on `_legendre` from the cosine guesses, the nodes made exactly
    antisymmetric.  The weight 2 / ((1 - x^2) P_M'(x)^2) is taken at the
    root, not at its rounding x: to first order in the offset -P_M/P_M',
    along which its logarithm has slope -2x / (1 - x^2)."""
    x = -np.cos(np.pi * (np.arange(M) + 0.75) / (M + 0.5))
    for _ in range(50):  # quadratic from the guesses: 4 steps up to M = 512
        p, d = _legendre(M, x)
        step = p / d
        x -= step
        if np.max(np.abs(step)) <= 1e-14:
            break
    x = 0.5 * (x - x[::-1])
    p, d = _legendre(M, x)
    s = 1.0 - x * x
    return x, 2.0 / (s * d * d) * (1.0 + 2.0 * x * p / (d * s))


class DepthGrid:
    """Nodal basis in depth with exact (or scheme-consistent) Galerkin matrices.

    Exposes the nodes, stiffness K = int l_i' l_j', mass = int l_i l_j, the
    mass of each depth cell between given breaks (`cell_masses`), and
    barycentric/linear interpolation.  The Chebyshev matrices are integrated
    by M-point Gauss-Legendre, exact for their degrees 2M - 2 and 2M - 4;
    the mass is the cell mass of the whole layer.
    """

    def __init__(self, disc: Discretization, h: float):
        self.scheme = disc.depth_scheme
        self.M = M = disc.M
        self.h = float(h)
        if self.scheme == CHEBYSHEV:
            self.nodes, D = _cheb_nodes_diff(M, h)
            self._bary = _cheb_bary_weights(M)
            t, w = _gauss_legendre(M)
            ED = self._interp_matrix(h * t) @ D
            stiff = ED.T @ (h * w[:, None] * ED)
            self.stiffness = 0.5 * (stiff + stiff.T)
        else:
            self.nodes = np.linspace(-h, h, M)
            d = self.nodes[1] - self.nodes[0]
            K = np.zeros((M, M))
            idx = np.arange(M - 1)
            np.add.at(K, (idx, idx), 1.0 / d)
            np.add.at(K, (idx + 1, idx + 1), 1.0 / d)
            np.add.at(K, (idx, idx + 1), -1.0 / d)
            np.add.at(K, (idx + 1, idx), -1.0 / d)
            self.stiffness = K
        self.mass = self.cell_masses(np.array([-self.h, self.h]))[0]

    def cell_masses(self, breaks: np.ndarray) -> np.ndarray:
        """The exact mass M_c of each cell between ascending breaks, (L, M, M).

        Chebyshev: int_c l_i l_j by M-point Gauss-Legendre inside the cell.
        Finite differences: the blended P1 element mass (FD_MASS_BLEND) of
        each element, times the fraction of the element inside the cell.
        Over cells that tile [-h, h] the masses sum to `mass`.  Each M_c is
        real symmetric.
        """
        a, b = breaks[:-1, None], breaks[1:, None]
        M = self.M
        if self.scheme == CHEBYSHEV:
            t, w = _gauss_legendre(M)
            half = 0.5 * (b - a)
            E = self._interp_matrix((0.5 * (a + b) + half * t).ravel()).reshape(-1, M, M)
            out = E.swapaxes(1, 2) @ ((half * w)[..., None] * E)
        else:
            x = self.nodes
            d = x[1] - x[0]
            inside = np.minimum(b, x[1:]) - np.maximum(a, x[:-1])
            frac = np.maximum(inside, 0.0) / (x[1:] - x[:-1])  # (L, M - 1)
            th = FD_MASS_BLEND
            diag = th * (d / 3.0) + (1 - th) * (d / 2.0)  # consistent and lumped
            e = np.arange(M - 1)
            out = np.zeros((len(frac), M, M))
            out[:, e, e] = frac * diag
            out[:, e + 1, e + 1] += frac * diag
            out[:, e, e + 1] = out[:, e + 1, e] = frac * (th * (d / 6.0))
        return 0.5 * (out + out.swapaxes(1, 2))

    def _interp_matrix(self, pts: np.ndarray) -> np.ndarray:
        """Rows of the barycentric interpolant at each point: a point within
        1e-13 h of a node takes that node's value.  Distances are taken in
        units of h, so no weight overflows at any h."""
        diff = (pts[:, None] - self.nodes) / self.h
        hit = np.abs(diff) < 1e-13
        t = self._bary / np.where(hit, 1.0, diff)
        out = t / t.sum(axis=1, keepdims=True)
        on = hit.any(axis=1)
        out[on] = np.arange(self.M) == hit[on].argmax(axis=1)[:, None]
        return out

    def interpolate(self, values: np.ndarray, x3: float) -> np.ndarray:
        """Evaluate nodal profiles, shape (..., M), at a point in [-h, h].

        The interpolation row is built once and applied to every profile.
        """
        if self.scheme == CHEBYSHEV:
            return values @ self._interp_matrix(np.array([x3]))[0]
        j = np.searchsorted(self.nodes, x3) - 1
        j = min(max(j, 0), self.M - 2)
        t = (x3 - self.nodes[j]) / (self.nodes[j + 1] - self.nodes[j])
        return (1 - t) * values[..., j] + t * values[..., j + 1]


# ---------------------------------------------------------------------------
# discrete field space (layout + weighted inner product)


def _real_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a real a and a complex b, in real arithmetic.

    numpy would cast a to complex and multiply in complex arithmetic: four
    times the flops, and a complex temporary the size of a.  Here a
    multiplies the float view of b, in which each complex column is a pair
    of real columns.  The view needs b's last axis contiguous: a b whose
    last axis is not is copied first (a last axis of length 1, as in a field
    of column vectors u[..., None], always is).
    """
    if b.shape[-1] > 1 and b.strides[-1] != b.itemsize:
        b = np.ascontiguousarray(b)
    return np.matmul(a, b.view(float)).view(complex)


class FieldSpace:
    """Layout of discrete periodic fields: Fourier modes x depth nodes.

    Fields are arrays of shape (n_modes, M).  The space owns everything that
    depends only on the discretization and h, built once at construction:
    the modes also as one read-only (n_modes, 2) float array `mode_array`;
    the depth grid; the weighted inner-product blocks W_n and one real
    whitening factor F_n with F_n^T W_n F_n = I, stacked in mode order as W
    and F of shape (n_modes, M, M), with one eigendecomposition per distinct
    |n|^2 (the modes of each such class are `classes`, in mode order).  For
    odd M, F_n is W_n^{-1/2}.  For even M the depth parity is folded into
    its column order: the reflection x3 -> -x3 maps node j to M-1-j, P is
    orthonormal with columns (e_j +- e_{M-1-j}) / sqrt(2), j < M/2, even
    ones first, and F_n = P blockdiag(S_e, S_o) with S_e and S_o the
    diagonal blocks of P^T W_n^{-1/2} P, whose cross blocks vanish to
    round-off (W_n commutes with the reflection).  A whitened stack of K
    depth classes (K = 2 only for even M) takes the K column blocks of F_n
    as its classes: its layout is K alone.  `pieces(K)` gives the whitened
    k-independent parts of every diagonal block per |n|^2 class in that
    layout, built on its first assembly and kept: the stiffness, the mass
    and the end-node matrix.
    All these factors are real, and every product
    of one with complex data is taken in real arithmetic: on fields
    (`inner`, `unwhiten`, `whiten`, the stack maps) by `_real_matmul`; no raw complex
    block is ever whitened, only real pieces (`whiten_pieces`,
    `whiten_pairs`).  The space also keeps the coupling table of each
    medium assembled on it (`_medium_profiles`), with its whitened cell
    masses, for as long as that medium lives.  An h so large or so small that the
    grid or W overflows double precision raises DomainError, before any
    eigendecomposition and with no numpy warning; so does an h at which some
    W_n is not positive definite in double precision (its stiffness, of
    order 1/h, and its end-node part, of order 1, too many orders of
    magnitude apart), before any piece is whitened.
    """

    def __init__(self, disc: Discretization, h: float):
        self.disc = disc
        self.h = float(h)
        self.modes: list[ModeIndex] = mode_range(disc.N)
        self.mode_index = {n: i for i, n in enumerate(self.modes)}
        self.mode_array = np.array(self.modes, dtype=float)
        self.mode_array.flags.writeable = False
        self.M = M = disc.M
        self.size = len(self.modes) * M
        n2, which = np.unique((self.mode_array ** 2).sum(axis=1), return_inverse=True)
        with np.errstate(all="ignore"):  # an overflow is refused below
            self.grid = g = DepthGrid(disc, h)
            W = g.stiffness + n2[:, None, None] * g.mass
            s = np.sqrt(1.0 + n2)
            W[:, 0, 0] += s
            W[:, -1, -1] += s
            W *= 4 * np.pi ** 2
        if not all(np.isfinite(a).all() for a in (g.nodes, g.stiffness, g.mass, W)):
            raise DomainError(f"depth grid overflows double precision at "
                              f"h = {self.h:.6g}, M = {M}")
        factors = []
        for Wd in W:
            lam, U = np.linalg.eigh(Wd)
            if lam[0] <= 0:
                raise DomainError(f"weighted inner product not positive definite in "
                                  f"double precision at h = {self.h:.6g}, M = {M}")
            factors.append(U * (1 / np.sqrt(lam)) @ U.T)
        F = np.array(factors)
        if M % 2 == 0:  # P blockdiag(S_e, S_o): the diagonal blocks of P^T F P
            half, j = M // 2, np.arange(M // 2)
            P = np.zeros((M, M))
            P[j, j] = P[M - 1 - j, j] = P[j, half + j] = np.sqrt(0.5)
            P[M - 1 - j, half + j] = -np.sqrt(0.5)
            S = P.T @ F @ P
            S[:, :half, half:] = S[:, half:, :half] = 0.0
            F = P @ S
        self.W, self.F = W[which], F[which]
        self.classes = [np.flatnonzero(which == j) for j in range(len(n2))]
        self.mode_class = which
        self._couplings = weakref.WeakKeyDictionary()
        self._pieces = {}

    def pieces(self, K: int) -> np.ndarray:
        """The whitened stiffness K, mass and end-node matrix E = e_0 e_0^T +
        e_{M-1} e_{M-1}^T of every |n|^2 class in K depth classes
        (`whiten_pieces`), (classes, 3, K n^2): built on first use and kept."""
        if K not in self._pieces:
            g, E = self.grid, np.zeros((self.M, self.M))
            E[0, 0] = E[-1, -1] = 1.0
            self._pieces[K] = self.whiten_pieces(np.stack((g.stiffness, g.mass, E)), K)
        return self._pieces[K]

    def _class_columns(self, K: int) -> np.ndarray:
        """F of every |n|^2 class split into its K column blocks, (K, classes, M, M/K)."""
        F = self.F[[idx[0] for idx in self.classes]]
        return F.reshape(len(F), self.M, K, -1).transpose(2, 0, 1, 3)

    @np.errstate(over="ignore", invalid="ignore")  # assembly refuses the overflow
    def whiten_pieces(self, parts: np.ndarray, K: int) -> np.ndarray:
        """The K diagonal (M/K) blocks of F_j^T X_t F_j for every real (M, M)
        part X_t of `parts` (T, M, M) and every |n|^2 class j.
        Returns (classes, T, K n^2) real, each block row-major."""
        F = self._class_columns(K).swapaxes(0, 1)[:, None]  # (classes, 1, K, M, n)
        out = F.swapaxes(-1, -2) @ parts[:, None] @ F
        return out.reshape(len(out), len(parts), -1)

    @np.errstate(over="ignore", invalid="ignore")  # assembly refuses the overflow
    def whiten_pairs(self, parts: np.ndarray, K: int) -> np.ndarray:
        """The K diagonal (M/K) blocks of F_a^T X_t F_b for every real part X_t
        of `parts` (T, M, M) and every pair (a, b) of |n|^2 classes,
        (T, K, classes, n, classes, n) real: one depth class at a time, every
        F_a^T X_t stacked by rows, times every F_b side by side."""
        T, M = len(parts), self.M
        cols = self._class_columns(K)
        A, n = cols.shape[1], M // K
        out = np.empty((T, K, A * n, A * n))
        for p, F in enumerate(cols):
            left = (F.swapaxes(1, 2) @ parts[:, None]).reshape(T, A * n, M)
            np.matmul(left, F.transpose(1, 0, 2).reshape(M, A * n), out=out[:, p])
        return out.reshape(T, K, A, n, A, n)

    def zeros(self) -> np.ndarray:
        return np.zeros((len(self.modes), self.M), dtype=complex)

    def inner(self, u: np.ndarray, v: np.ndarray) -> complex:
        """<u, v> in the weighted product (conjugate-linear in v)."""
        return complex(np.vdot(v, _real_matmul(self.W, u[..., None])[..., 0]))

    def norm(self, u: np.ndarray) -> float:
        """sqrt <u, u>, u first scaled exactly by the power of two that brings
        its largest real or imaginary part into [1/2, 1): no square under- or
        overflows, and in the normal range the result is unchanged bit for bit."""
        x = np.ascontiguousarray(u, dtype=complex).view(float)
        e = int(np.frexp(np.abs(x).max(initial=0.0))[1])
        y = np.ldexp(x, -e).view(complex)
        return float(np.ldexp(np.sqrt(max(self.inner(y, y).real, 0.0)), e))

    def unwhiten(self, y: np.ndarray) -> np.ndarray:
        """F y: the field of whitened coordinates y, (n_modes, M)."""
        return _real_matmul(self.F, y[..., None])[..., 0]

    def whiten(self, x: np.ndarray) -> np.ndarray:
        """F^T x, the transpose of `unwhiten`: the whitened coordinates of W^{-1} x."""
        return _real_matmul(self.F.swapaxes(1, 2), x[..., None])[..., 0]


# ---------------------------------------------------------------------------
# the discrete operator


class DiscreteOperator:
    """Assembled bilinear-form matrix of the layer problem at one wavenumber.

    The diagonal block of mode n is G_n = x K + y[n] Mass - i boundary[n] E
    - scale c0, with K and Mass the depth grid's stiffness and mass, E =
    e_0 e_0^T + e_{M-1} e_{M-1}^T the end nodes and c0 the medium's
    diagonal coupling; the operator keeps these coefficients, in the order
    of space.modes, and no block.  For a transversely uniform medium that is
    the whole operator, which is block-diagonal.  Otherwise the operator is
    coupled: off the diagonal, block (n, m) is -scale C_{n-m}, with
    C_d = sum_c qhat^(c)_d M_c from the medium's coupling table `table`
    (`_CouplingTable`), one mass per depth cell.
    Every operator is assembled as its whitened `stack` as well, in the
    layout its table decided, with that layout's maps `to` and `back`
    (see `_CouplingTable`); `groups` are the table's mode groups (one per
    mode for a block-diagonal operator).  The screen, `solve`, the kernel
    and the constrained solve read the stack.  No full matrix is stored.
    `apply` and `apply_adjoint` are matrix-free, on one field or a stack of
    fields (..., n_modes, M): the diagonal blocks from their coefficients
    (one product of the fields with each of K, Mass and c0, and the end
    nodes) plus, when coupled, one coupling sum over the table's cells.
    Every dense view of the operator is built from that action
    (`whitened()`, the constraint rows of `lap.constrained_solve`).
    Everything that depends only on the layout and the weighted product
    lives on `space`.  The operator caches its whitened singular values.
    """

    def __init__(self, inc, space, table, x, y, boundary, scale, stack):
        self.inc = inc
        self.space = space
        self.table = table
        self.x, self.y, self.boundary, self.scale = x, y, boundary, scale
        #: always None, as no full matrix is stored; qpbench's tracer
        #: (`spans._operator_size`) still reads it
        self.dense = None
        self._svals = None
        self.stack = stack
        self.to, self.back = table.maps
        self.groups = table.groups

    @property
    def block_diagonal(self) -> bool:
        # only the screen's per-block SVD loop and the matrix-free actions ask;
        # one batched SVD of every stack would retire the flag
        return self.table.uniform

    def _diagonal_action(self, u: np.ndarray) -> np.ndarray:
        """G_n u_n for every mode n, on a field or a stack of fields.

        In the order of the assembly formula, (x K u + y Mass u) - scale c0 u,
        less i boundary u at both end nodes; every factor is symmetric, so
        each acts on the rows of u from the right.
        """
        grid = self.space.grid
        out = self.y[:, None] * (u @ grid.mass)
        if self.x:
            out = self.x * (u @ grid.stiffness) + out
        out -= self.scale * (u @ self.table.c0)
        ib = 1j * self.boundary
        out[..., 0] -= ib * u[..., 0]
        out[..., -1] -= ib * u[..., -1]
        return out

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Matrix action on a field (n_modes, M), or on each of a stack (..., n_modes, M)."""
        out = self._diagonal_action(u)
        if not self.block_diagonal:
            out -= self.scale * self.table.couple(u)
        return out

    def apply_adjoint(self, u: np.ndarray) -> np.ndarray:
        """Action of the conjugate transpose: each G_n is complex symmetric, so
        G_n^H u_n is the conjugate of G_n applied to conj(u_n).

        On a field or a stack of fields, as `apply`.
        """
        out = self._diagonal_action(u.conj()).conj()
        if not self.block_diagonal:
            out -= np.conj(self.scale) * self.table.couple(u, adjoint=True)
        return out

    def whitened(self) -> np.ndarray:
        """F^T G F as a dense matrix, built on request.

        Column by column from `apply` on the columns of F (`space.unwhiten`
        of the unit fields, one mode at a time), whitened again by
        `space.whiten`; parity cross parts that the stack leaves out are
        kept.  No solver path calls it, but qpbench's tracer wraps it by
        name (`spans.Tracer.install` looks up
        `vars(DiscreteOperator)["whitened"]`), so every traced run needs it.
        """
        sp = self.space
        nm = len(sp.modes)
        units = np.eye(sp.size, dtype=complex).reshape(nm, sp.M, nm, sp.M)
        cols = [sp.whiten(self.apply(sp.unwhiten(e))) for e in units]
        return np.concatenate(cols).reshape(sp.size, sp.size).T

    def whitened_singular_values(self) -> np.ndarray:
        """All singular values of F^T G F, descending, cached.

        Taken from the blocks of `stack`: one SVD per stack block of a
        block-diagonal operator (one per mode and depth parity), one batched
        SVD of the stack of a coupled one (one block per coupling group and
        depth parity).  A block of a block-diagonal operator with no
        imaginary part (an evanescent mode of a lossless medium at real k)
        is real symmetric, as G_n is and F_n is real, so its SVD is taken in
        real arithmetic from its eigenvalues (hermitian=True).
        """
        if self._svals is None:
            if self.block_diagonal:
                real = ~self.stack.imag.any(axis=(1, 2))
                s = np.concatenate([
                    np.linalg.svd(B.real, compute_uv=False, hermitian=True) if r
                    else np.linalg.svd(B, compute_uv=False)
                    for B, r in zip(self.stack, real)])
            else:
                s = np.linalg.svd(self.stack, compute_uv=False).ravel()
            self._svals = np.sort(s)[::-1]
        return self._svals

    def singularity_report(self) -> tuple[float, float]:
        s = self.whitened_singular_values()
        return float(s[-1]), float(s[0])


def _stack_maps(space: FieldSpace, groups: np.ndarray, K: int):
    """The maps (to, back) onto the whitened stack of K depth classes; see `_CouplingTable`.

    `to` applies F^T to every mode's depth vector (`space.whiten`) and `back`
    applies F (`space.unwhiten`), each one `_real_matmul` in real
    arithmetic, with the gather into (or out of) the groups' blocks.  A load
    of any memory layout maps.
    """
    nm, M, n = len(space.modes), space.M, space.M // K
    nc, c = groups.shape
    order = groups.ravel()
    inv = np.argsort(order)

    def to(b):
        y = space.whiten(b).reshape(nm, K, n).swapaxes(0, 1)[:, order]  # (K, nc c, n)
        return y.reshape(K, nc, c * n).swapaxes(0, 1).reshape(nc * K, c * n)

    def back(z):
        y = z.reshape(nc, K, c * n).swapaxes(0, 1).reshape(K, nm, n)[:, inv]
        return space.unwhiten(y.swapaxes(0, 1).reshape(nm, M))

    return to, back


def _solve_loaded(stack: np.ndarray, b: np.ndarray, among=None) -> np.ndarray:
    """z with stack[i] z[i] = b[i] on the blocks `among` (default all), else 0.

    `b` holds one right-hand side per block, (B, n).  The blocks are
    decoupled, so a block whose right-hand side is zero has the solution 0:
    only the loaded blocks are factorized, in one batched LU, and every
    other block of z is exactly 0.  When every block is loaded, the stack
    itself is passed on, with no copy.
    """
    loaded = b.any(axis=1)
    if among is not None:
        loaded &= among
    if loaded.all():
        return np.linalg.solve(stack, b[..., None])[..., 0]
    z = np.zeros_like(b)
    if loaded.any():
        z[loaded] = np.linalg.solve(stack[loaded], b[loaded][..., None])[..., 0]
    return z


def _block_diag(blocks: np.ndarray) -> np.ndarray:
    """The dense matrix of a (B, n, n) stack of diagonal blocks.

    The constrained solve's least-squares call on the blocks that hold a
    constraint takes this dense matrix (`lap.constrained_solve`).
    """
    B, n, _ = blocks.shape
    out = np.zeros((B, n, B, n), dtype=blocks.dtype)
    out[np.arange(B), :, np.arange(B)] = blocks
    return out.reshape(B * n, B * n)


def _check_operator_bytes(medium: MediumModel, disc: Discretization) -> None:
    """Raise OperatorTooLarge if a run's arrays cannot fit in physical memory.

    Counts the space's real W and F, modes M^2 entries each; then its whitened
    pieces (`FieldSpace.pieces`), 3 M^2 real entries per |n|^2 class, and
    half as many again for even M, with at most (N+1)(N+2)/2 classes (one
    per 0 <= n1 <= n2 <= N); then the peak of a run that holds two
    operators at once (A and A' in a constrained solve), each with its
    whitened stack, at its largest when K = 1 (the layout is not known
    yet): modes M^2 complex entries for a block-diagonal operator, at most
    unknowns^2 for a coupled one.  The table adds its whitened c0, at most
    M^2 complex entries per class, and a coupled medium's table, for each
    depth cell (each may be live), its Toeplitz matrix, modes^2 complex
    entries, and its whitened mass per pair of classes, classes^2 M^2 real
    entries.  Checked before anything is allocated, the space included.
    """
    modes, classes = (2 * disc.N + 1) ** 2, (disc.N + 1) * (disc.N + 2) // 2
    blocks, pieces = modes * disc.M ** 2, 3 * classes * disc.M ** 2
    half = disc.M % 2 == 0
    space = 8 * (2 * blocks + pieces + (pieces // 2 if half else 0))
    stack, table = blocks, 16 * classes * disc.M ** 2
    if not medium.transversely_uniform:
        stack, cells = disc.unknowns ** 2, len(medium.breaks) - 1
        table += cells * (16 * modes ** 2 + 8 * classes ** 2 * disc.M ** 2)
    _require_memory(space + table + 16 * 2 * stack,
                    f"operator with {disc.unknowns} unknowns (N={disc.N}, M={disc.M})",
                    "lower N or M")


def _require_memory(need: int, what: str, remedy: str) -> None:
    """Raise OperatorTooLarge if `need` bytes exceed the physical memory.

    No guard where sysconf cannot tell the size of the physical memory.
    """
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf: no guard
        return
    if 0 < have < need:
        raise OperatorTooLarge(
            f"{what} needs {need / 2**30:.4g} GiB, more than the "
            f"{have / 2**30:.4g} GiB of physical memory; {remedy}")


def _mirror_symmetric(blocks: np.ndarray, coef: np.ndarray) -> bool:
    """Whether sum_p ||X_p - R X_p R||^2 / 4 <= _SPLIT_TOL^2 sum_p ||X_p||^2.

    X_p = sum_c coef[p, c] blocks[c] over the rows of coef (P, C); R
    reverses the depth nodes of the real (M, M) blocks, so the left side is
    the squared norm of the even/odd cross parts.  Each side is a form in
    the Gram matrix coef^H coef = r^H r, taken as ||r Y||^2 (Y the flat
    blocks or their defects): C rows, and mirror cells' cancelling defects
    cancel in r Y, not in a sum of squares.  Both arrays are first scaled
    exactly so that no square overflows.
    """
    def scaled(a):
        return a * 2.0 ** -max(int(np.frexp(np.abs(a).max())[1]), 0)
    r, blocks = np.linalg.qr(scaled(coef), mode="r"), scaled(blocks)

    def norms(x):
        return np.sum(np.abs(r @ x.reshape(len(x), -1)) ** 2)
    return norms(blocks - blocks[:, ::-1, ::-1]) / 4 <= _SPLIT_TOL ** 2 * norms(blocks)


class _CouplingTable:
    """What assembly takes from a medium on one FieldSpace, independent of k.

    Every medium is piecewise constant in depth, so its coupling is
    sum_c Q_c (x) M_c over the C depth cells between its breaks
    (`MediumModel.breaks`): `cell_masses` (C, M, M) stacks the real
    symmetric exact cell masses M_c (`DepthGrid.cell_masses`), and `c0` =
    sum_c (qhat^(c)_0 - 1) M_c is the diagonal coupling (the background
    sits in the volume term).  When some off-diagonal coefficient
    qhat^(c)_d, d != 0, is nonzero, `toeplitz` (C, modes, modes) holds the
    Toeplitz matrices Q_c[n, m] = qhat^(c)_{n-m} off the diagonal, and
    block (n, m) is C_{n-m} = sum_c qhat^(c)_{n-m} M_c.  Otherwise, as for
    every transversely uniform medium, it is None, and the table holds no
    array of modes^2 entries.  `uniform` is the medium's transverse
    uniformity (one point per period on each axis): its operators are
    block-diagonal; every other medium's are coupled, a constant 16 x 16
    grid's too.

    The table also fixes, once, the layout of the whitened stack of the
    medium's operators (`DiscreteOperator.stack`), and holds a coupled
    medium's cell masses whitened in it.  A stack of blocks (B, n, n) and the layout's
    maps (to, back) are such that G v = b reads blocks z = to(b) (one
    right-hand side per block, shape (B, n)) with v = back(z) (a field).
    `to` and `back` are one real linear map and its transpose, so a row r
    acting on v acts on z as to(r).  Block g K + p is mode group g and
    depth class p (the column block p of F) of K:
    - `groups` (nc, c) are the mode groups: the connected components of
      the graph that links modes n and m when some Q_c[n, m] or Q_c[m, n]
      is nonzero, rows ordered by their first mode, modes ascending, when
      there are several components, all of one size; otherwise one group
      of every mode.  No coupling runs between groups, so the split is
      exact.  Without a Toeplitz the groups are single modes.  `place`
      gives each mode's (group, slot).
    - `K` is 2 when M is even and every k-independent piece of the
      operator is mirror-symmetric in depth to _SPLIT_TOL in Frobenius norm
      (`_mirror_symmetric`): the couplings C_{n-m} of every mode pair
      n != m together with c0 once per mode; the stiffness; the mass.
      The whitened operator F^T G F at any k is then the direct sum of its
      parity halves up to that remainder.  Otherwise it is 1, and each
      group gives its full whitened block.
    - `live` are the cells whose Q_c is not zero, and `pair_pieces`
      (live, K, classes, n, classes, n) their masses whitened per pair of
      |n|^2 classes in that layout (`FieldSpace.whiten_pairs`): the K
      diagonal blocks of F_a^T M_c F_b.  Block (n, m) of a coupled stack is then -scale sum_c
      qhat^(c)_{n-m} times the piece of the classes of n and m
      (`_build_operator`), read through `classes_of_groups`, the class of
      each mode of `groups`.  All three are None without a Toeplitz.
    - `maps` are the (to, back) maps of the layout: to(b) is F^T per mode,
      then a gather of each group's modes into its K blocks; back(z) is its
      transpose.
    - `c0_pieces` (classes, T, K n^2) is c0 whitened per |n|^2 class in
      that layout (`FieldSpace.whiten_pieces`): its real part and, when c0
      is complex (a lossy medium), its imaginary part (T = 1 or 2).
      Assembly combines them with the space's pieces of the same layout.
    - `largest` is the largest real or imaginary part in c0 and in its
      whitened pieces, or the sum over the live cells of the largest part
      of Q_c times the largest |entry| of its pieces, a bound on every
      part of the unit-scale whitened coupling: a Python float.
    """

    def __init__(self, medium: MediumModel, space: FieldSpace):
        grid, N = space.grid, space.disc.N
        coef = medium.cell_coefficients(2 * N)
        self.cell_masses = grid.cell_masses(medium.breaks)
        a = coef[:, 2 * N, 2 * N] - 1.0
        self.c0 = np.tensordot(a, self.cell_masses, axes=1)
        coef[:, 2 * N, 2 * N] = 0.0  # qhat_0 sits in c0
        nm = len(space.modes)
        self.toeplitz, label = None, np.arange(nm)
        weights = np.sqrt(nm) * a[None]  # c0's cell weights, once per mode
        if coef.any():
            d = (space.mode_array[:, None] - space.mode_array[None]).astype(int) + 2 * N
            self.toeplitz = coef[:, d[..., 0], d[..., 1]]  # (C, nm, nm)
            link = self.toeplitz.any(axis=0)
            link = link | link.T
            while True:  # every mode takes the least label among its neighbours
                new = np.minimum(label, np.where(link, label, nm).min(axis=1))
                if np.array_equal(new, label):
                    break
                label = new
            # and one row of cell weights per mode pair (n, m)
            weights = np.vstack([self.toeplitz.reshape(len(a), -1).T, weights])
        _, comp, sizes = np.unique(label, return_inverse=True, return_counts=True)
        self.groups = np.arange(nm)[None]
        if len(sizes) > 1 and np.all(sizes == sizes[0]):
            self.groups = np.argsort(comp, kind="stable").reshape(len(sizes), -1)
        nc, c = self.groups.shape
        group, slot = np.empty(nm, dtype=int), np.empty(nm, dtype=int)
        group[self.groups], slot[self.groups] = np.arange(nc)[:, None], np.arange(c)
        self.place = group, slot
        symmetric = _mirror_symmetric(self.cell_masses, weights) and all(
            _mirror_symmetric(X[None], np.ones((1, 1))) for X in (grid.stiffness, grid.mass))
        self.K = 2 if symmetric and space.M % 2 == 0 else 1
        self.uniform = medium.transversely_uniform
        self.maps = _stack_maps(space, self.groups, self.K)
        parts = (self.c0.real, self.c0.imag) if self.c0.imag.any() else (self.c0.real,)
        self.c0_pieces = space.whiten_pieces(np.stack(parts), self.K)
        # what assembly's overflow guard scales: the largest part of c0, of
        # its whitened pieces, and a bound on the whitened coupling
        self.largest = max(_largest_part(self.c0),
                           float(max(self.c0_pieces.max(), -self.c0_pieces.min())))
        self.live = self.pair_pieces = self.classes_of_groups = None
        if self.toeplitz is not None:
            self.live = np.flatnonzero(self.toeplitz.any(axis=(1, 2)))
            self.pair_pieces = space.whiten_pairs(self.cell_masses[self.live], self.K)
            self.classes_of_groups = space.mode_class[self.groups]
            self.largest = max(self.largest, sum(
                _largest_part(self.toeplitz[c]) * float(np.abs(w).max())
                for c, w in zip(self.live, self.pair_pieces)))

    def couple(self, u: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """sum_{m != n} C_{n-m} u_m for every n, or sum_{n != m} C_{n-m}^H u_n for every m.

        u is a field (modes, M), or a stack of fields (..., modes, M): per
        cell, M_c on every mode's depth vector, then Q_c (or Q_c^H) across
        the modes, summed over the cells; zero without a Toeplitz.
        """
        if self.toeplitz is None:
            return np.zeros(u.shape, dtype=complex)
        U = u[..., None, :, :] @ self.cell_masses  # M_c u_m, as M_c is symmetric
        if adjoint:
            return np.conj((self.toeplitz.swapaxes(1, 2) @ np.conj(U)).sum(axis=-3))
        return (self.toeplitz @ U).sum(axis=-3)


def _largest_part(a: np.ndarray) -> float:
    """The largest |Re| or |Im| over the entries of a complex array, with no temporary."""
    return float(max(a.real.max(), -a.real.min(), a.imag.max(), -a.imag.min()))


def _medium_profiles(medium: MediumModel, space: FieldSpace) -> _CouplingTable:
    """The coupling table (`_CouplingTable`) of `medium` on `space`.

    Built on first use and kept on the space for as long as the medium
    lives (keyed weakly by the medium object), so every assembly and
    constraint residual on one (medium, space) shares one table.  A medium
    with n points on a transverse axis, 1 < n < 2(2N + 1), is too coarse
    for the |d|_inf <= 2N couplings and raises AliasError on every call; an
    axis of one point is constant along it.
    """
    table = space._couplings.get(medium)
    if table is not None:
        return table
    res, need = medium.values.shape[:2], 2 * (2 * space.disc.N + 1)
    if any(1 < n < need for n in res):
        raise AliasError(
            f"sampled medium resolution {res} too coarse for N={space.disc.N}; "
            f"need at least {need} points per period (or one) to resolve the "
            f"qhat_(n-m) couplings without aliasing")
    table = space._couplings[medium] = _CouplingTable(medium, space)
    return table


def _build_operator(inc, medium, space, x, y, boundary, scale) -> DiscreteOperator:
    """Assemble the operator for both `assemble` and `assemble_eps_derivative`.

    Mode n gets the diagonal block G_n = x K + y[n] Mass - i boundary[n] E -
    scale C_0 (see `DiscreteOperator`), `y` and `boundary` one value per mode
    in the order of space.modes; off the diagonal, block (n, m) is -scale
    C_{n-m}.  Here C_d = int qhat_d(x3) l_i l_j dx3, except that C_0
    integrates qhat_0 - 1 (the background sits in the volume term).
    Everything else comes from the cached coupling table
    (`_medium_profiles`): every operator is assembled as its whitened stack
    in the table's layout, and no raw block is formed.  The whitened
    diagonal blocks are linear combinations of the whitened pieces of their
    |n|^2 class: the space's K, Mass and E (`FieldSpace.pieces`) and the
    table's c0 (`_CouplingTable.c0_pieces`): one `_real_matmul` per class
    of its real pieces with the complex coefficients (x, y[n], -i
    boundary[n], -scale) of its modes.  That is the stack of an operator
    whose groups are single modes.  A coupled one's stack is filled by
    `_fill_coupling`, block (n, m) -scale sum_c qhat^(c)_{n-m} times the
    whitened mass of cell c for the classes of n and m
    (`_CouplingTable.pair_pieces`), and the diagonal blocks are then
    written into its diagonal mode slots.
    Raises DomainError, before any product, if scale times the largest
    part of c0, of its whitened pieces or the bound on the whitened
    coupling (`_CouplingTable.largest`) may overflow, and after them if the
    stack is not finite.
    """
    table = _medium_profiles(medium, space)
    # each part of scale times an entry of c0 or of the whitened coupling is
    # a sum of two products of parts, so this bound refuses any overflow
    s = complex(scale)
    if not math.isfinite(2.0 * max(abs(s.real), abs(s.imag)) * table.largest):
        raise DomainError(f"the (q - 1) term of the operator overflows double "
                          f"precision at k = {inc.k:.6g}")
    nm, T = len(space.modes), table.c0_pieces.shape[1]
    coef = np.empty((nm, 3 + T), dtype=complex)
    coef[:, 0], coef[:, 1], coef[:, 2] = x, y, -1j * boundary
    coef[:, 3:] = (-s, -1j * s)[:T]  # on c0's real and imaginary parts
    K = table.K
    pieces, n = space.pieces(K), space.M // K
    stack = np.empty((nm, K * n * n), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for idx, own, c0 in zip(space.classes, pieces, table.c0_pieces):
            stack[idx] = _real_matmul(np.concatenate((own, c0)).T, coef[idx].T).T
        stack = stack.reshape(nm * K, n, n)
        if table.pair_pieces is not None:
            (nc, c), (group, slot) = table.groups.shape, table.place
            diagonal, stack = stack, np.empty((nc * K, c * n, c * n), dtype=complex)
            out = stack.reshape(nc, K, c, n, c, n)
            _fill_coupling(out, table, -s)
            out[group, :, slot, :, slot, :] = diagonal.reshape(nm, K, n, n)
    if not np.isfinite(stack).all():
        raise DomainError(f"whitened operator overflows double precision at "
                          f"h = {space.h:.6g}, M = {space.M}")
    return DiscreteOperator(inc, space, table, x, y, boundary, scale, stack)


def _fill_coupling(out: np.ndarray, table: _CouplingTable, factor: complex) -> None:
    """Write factor sum_c Q_c[n, m] F_a^T M_c F_b into every block of `out`
    (nc, K, c, n, c, n), its diagonal mode slots too (where Q_c is 0).

    Group by group, in chunks of at most c/8 row slots: per live cell, its
    pair pieces gathered for the chunk's modes (rows, then columns, laid
    out as the chunk is) times its Toeplitz entries repeated over each
    column block's n nodes, written (first cell) or added to the chunk.
    """
    K, c, n = out.shape[1:4]
    step = max(1, c // 8)
    for g, cl, blocks in zip(table.groups, table.classes_of_groups, out):
        blocks = blocks.reshape(K, c, n, c * n)
        for lo in range(0, c, step):
            rows = slice(lo, lo + step)
            chunk = blocks[:, rows]
            for i, (cell, w) in enumerate(zip(table.live, table.pair_pieces)):
                q = np.repeat(factor * table.toeplitz[cell][g[rows, None], g], n, axis=1)
                w = w[:, cl[rows]].take(cl, axis=3).reshape(chunk.shape)
                if i == 0:
                    np.multiply(q[:, None], w, out=chunk)
                else:
                    chunk += q[:, None] * w


def _require_finite(inc: IncidenceSpec, name: str, value) -> None:
    """Raise DomainError unless the scalar (or every entry of) `value` is finite."""
    if not np.all(np.isfinite(value)):
        raise DomainError(f"{name} overflows double precision at k = {inc.k:.6g}")


def _require_field(space: FieldSpace, name: str, value) -> None:
    """Raise ValueError unless `value` is a finite field (n_modes, M) of `space`."""
    shape = (len(space.modes), space.M)
    if np.shape(value) != shape:
        raise ValueError(f"{name} must be a field of shape {shape}, got {np.shape(value)}")
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} has non-finite entries")


def _operator_space(inc: IncidenceSpec, medium: MediumModel,
                    disc: Discretization) -> FieldSpace:
    """The entry check of both assemblies, then their space `disc.space(inc.h)`:
    ValueError if the incidence and medium h disagree, OperatorTooLarge as
    `_check_operator_bytes`."""
    if abs(inc.h - medium.h) > 1e-12:
        raise ValueError("incidence h and medium h disagree")
    _check_operator_bytes(medium, disc)
    return disc.space(inc.h)


def assemble(inc: IncidenceSpec, medium: MediumModel,
             disc: Discretization) -> DiscreteOperator:
    """Assemble the layer operator at inc.k (real or complex).

    The operator lives on the discretization's own `disc.space(inc.h)`, so
    the depth grid and W_n factors are shared by every call on one disc.
    Raises CutoffViolation if some order sits at a grazing cut-off (real k
    only), CutProximity if some beta_n^2 lies on the branch cut, AliasError
    if a sampled medium under-resolves the couplings, and OperatorTooLarge,
    before allocating, if the operator exceeds physical memory, and
    DomainError if k^2 or some beta_n^2 overflows.  All beta_n come from one
    array operation (`qpcore.beta_table`).
    """
    space = _operator_space(inc, medium, disc)
    k = inc.k
    k2 = k * k
    _require_finite(inc, "k^2", k2)  # also the coupling scale
    if k.imag == 0:
        betas = beta_table(inc, disc.N)  # raises CutoffViolation at grazing orders
    else:
        betas = _beta_array(inc, disc.N)
    # beta_n^2 by Python's complex product: numpy's may fuse and round differently
    b2 = np.array([b * b for b in betas.tolist()])
    _require_finite(inc, "beta_n^2", b2)
    return _build_operator(inc, medium, space, 1.0, -b2, betas, k2)


def assemble_eps_derivative(inc: IncidenceSpec, medium: MediumModel,
                            disc: Discretization) -> DiscreteOperator:
    """d/d eps of the assembled operator at k + i*eps, eps = 0 (real k).

    Volume coefficient -2i(k cos^2 t1 - n.tilde_theta) per mode plus
    -2ik times the (q - 1) coupling; boundary entries -i d(beta_n)/d(eps).
    On `disc.space(inc.h)`, with the same entry checks as `assemble`
    (`_operator_space`), and the same DomainError guards k^2.
    """
    if inc.k.imag != 0:
        raise ValueError("derivative operator is defined at real k")
    space = _operator_space(inc, medium, disc)
    k = inc.k.real
    _require_finite(inc, "k^2", k * k)  # then beta_n^2 and the scale 2ik are too
    betas = beta_table(inc, disc.N)  # raises CutoffViolation at grazing orders
    zero = np.flatnonzero(betas == 0)
    if zero.size:  # only at k = 0, where the grazing tolerance is 0
        n = space.modes[zero[0]]
        raise CutoffViolation(f"beta_{n} = 0: derivative undefined", [n])
    shift, dbetas = _d_beta_rows(space.mode_array, inc, betas)
    return _build_operator(inc, medium, space, 0.0, -2j * shift, dbetas, 2j * k)


def rhs(inc: IncidenceSpec, disc: Discretization,
        space: FieldSpace | None = None) -> np.ndarray:
    """Incident load: -2ik cos(t1) e^{-ikh cos(t1)} in the n = 0 top boundary row.

    Laid out on the discretization's `disc.space(inc.h)`.  A given `space`
    only sets the layout (no value depends on its h), and `solve` refuses a
    load of the wrong shape; the argument stays while qpbench's worker
    passes it.  Raises DomainError if the load overflows (large Im k).
    """
    k = inc.k
    ct = inc.cos_theta1
    with np.errstate(over="ignore", invalid="ignore"):
        value = -2j * k * ct * np.exp(-1j * k * inc.h * ct)
    return _incident_load(inc, disc, space, value)


def _incident_load(inc, disc, space, value) -> np.ndarray:
    """A field that is `value` in the n = 0 top boundary row and zero elsewhere."""
    _require_finite(inc, "the incident load", value)
    if space is None:
        space = disc.space(inc.h)
    load = space.zeros()
    load[space.mode_index[(0, 0)], -1] = value
    return load


def rhs_eps_derivative(inc: IncidenceSpec, disc: Discretization) -> np.ndarray:
    """d/d eps at eps = 0 of the load: 2 cos(t1)(1 - ikh cos(t1)) e^{-ikh cos(t1)}.

    Laid out on the discretization's `disc.space(inc.h)`; DomainError as for
    `rhs`.
    """
    k = inc.k
    ct = inc.cos_theta1
    with np.errstate(over="ignore", invalid="ignore"):
        value = 2.0 * ct * (1.0 - 1j * k * inc.h * ct) * np.exp(-1j * k * inc.h * ct)
    return _incident_load(inc, disc, None, value)


@dataclass
class FieldCoefficients:
    """Depth profiles v_n(x3_j) of the periodic solution, per transverse mode."""

    space: FieldSpace
    inc: IncidenceSpec
    values: np.ndarray  # (n_modes, M)

    def profile(self, n: ModeIndex) -> np.ndarray:
        return self.values[self.space.mode_index[tuple(n)]]

    @functools.cached_property
    def betas(self) -> np.ndarray:
        """beta_n of every mode at the field's incidence, in mode order: computed
        on the first evaluation outside the layer and kept for the next."""
        return _beta_rows(self.space.mode_array, self.inc)

    def norm(self) -> float:
        return self.space.norm(self.values)


def solve(op: DiscreteOperator, load: np.ndarray) -> FieldCoefficients:
    """Direct factorization solve with singularity screening.

    Raises ValueError, before any factorization, unless `load` is a finite
    field (n_modes, M) of op.space.  Raises NearSingular when the whitened
    relative smallest singular value drops below NEAR_SINGULAR_THRESHOLD
    (the signature of a propagative wave vector; route such scenarios to
    the kernel/limiting-absorption tools).  The screen and the solve read
    the stack every operator carries from assembly
    (`DiscreteOperator.stack`: one block per mode group and depth class):
    every operator is solved by one batched LU of the stack blocks its
    mapped load reaches (`_solve_loaded`), through the maps `to` and
    `back`; the other blocks of the solution are exactly 0.  The residual
    is always checked against the assembled operator, by the matrix-free
    `apply`, which keeps any parity cross parts the stack leaves out: the returned profiles satisfy
    ||A v - load|| <= 1e-10 ||load||, after at most one refinement sweep.
    """
    _require_field(op.space, "load", load)
    smin, smax = op.singularity_report()
    if smin < NEAR_SINGULAR_THRESHOLD * smax:
        raise NearSingular(
            f"operator numerically singular: sigma_min/sigma_max = "
            f"{smin / smax:.3e} (propagative wave vector?)",
            smallest_singular_value=smin, sigma_max=smax)

    def direct(b):
        return op.back(_solve_loaded(op.stack, op.to(b)))

    vals = direct(load)
    resid = np.linalg.norm((op.apply(vals) - load).ravel())
    scale = np.linalg.norm(load.ravel())
    if scale > 0 and resid > 1e-10 * scale:
        # one sweep of iterative refinement
        vals = vals + direct(load - op.apply(vals))
        resid = np.linalg.norm((op.apply(vals) - load).ravel())
        if resid > 1e-10 * scale:
            raise SolveFailed(f"residual {resid / scale:.3e} above 1e-10")
    return FieldCoefficients(space=op.space, inc=op.inc, values=vals)


@dataclass
class RayleighData:
    """Scattered/transmitted Rayleigh coefficients and grating efficiencies."""

    u_plus: dict[ModeIndex, complex]
    u_minus: dict[ModeIndex, complex]
    efficiencies_up: dict[ModeIndex, float]
    efficiencies_down: dict[ModeIndex, float]
    balance_residual: float

    @property
    def total_efficiency(self) -> float:
        return sum(self.efficiencies_up.values()) + sum(self.efficiencies_down.values())


def _rayleigh_tails(v: FieldCoefficients, inc: IncidenceSpec):
    """u_n^+ = v_n(h) - delta_n0 e^{-ikh cos t1} and u_n^- = v_n(-h), in mode order."""
    u_plus = v.values[:, -1].copy()
    u_plus[v.space.mode_index[(0, 0)]] -= np.exp(-1j * inc.k * inc.h * inc.cos_theta1)
    return u_plus, v.values[:, 0]


def rayleigh_data(v: FieldCoefficients, inc: IncidenceSpec) -> RayleighData:
    """Extract u_n^+ and u_n^- (`_rayleigh_tails`) per mode.

    Efficiencies (Re beta_n / beta_0) |u_n|^2, as floats, for the propagating
    orders of a real-k solve, with every beta_n from one array operation
    (`qpcore._beta_array`); the balance residual is |sum - 1| (meaningful
    for lossless media).
    """
    k = inc.k
    u_plus, u_minus = (dict(zip(v.space.modes, t.tolist()))
                       for t in _rayleigh_tails(v, inc))
    eff_up: dict[ModeIndex, float] = {}
    eff_dn: dict[ModeIndex, float] = {}
    balance = float("nan")
    if k.imag == 0:
        N, index = v.space.disc.N, v.space.mode_index
        cls = classify_modes(inc, N)
        b = _beta_array(inc, N).real  # mode_range order, that of space.modes
        b0 = b[index[(0, 0)]]
        for n in cls.propagating:
            ratio = b[index[n]] / b0
            eff_up[n] = float(ratio * abs(u_plus[n]) ** 2)
            eff_dn[n] = float(ratio * abs(u_minus[n]) ** 2)
        balance = abs(sum(eff_up.values()) + sum(eff_dn.values()) - 1.0)
    return RayleighData(u_plus=u_plus, u_minus=u_minus, efficiencies_up=eff_up,
                        efficiencies_down=eff_dn, balance_residual=balance)


def _field_value(v: FieldCoefficients, x, incident: bool) -> complex:
    """The field e^{i alpha.x~} v(x) at a point x: the one field evaluator.

    Inside the layer, one interpolation row for every profile; outside, the
    Rayleigh series (`qpcore._rayleigh_sum`) on the end nodes v_n(+-h), or
    with `incident` on `_rayleigh_tails`, plus the incident wave above,
    with the beta_n the field keeps (`FieldCoefficients.betas`).
    """
    x = _field_point(x)
    inc, sp = v.inc, v.space
    modes, xt, x3 = sp.mode_array, x[:2], x[2]
    if abs(x3) <= inc.h:
        total = sp.grid.interpolate(v.values, x3) @ np.exp(1j * (modes @ xt))
        return complex(np.exp(1j * (inc.alpha_vec @ xt)) * total)
    if x3 < 0:
        return _rayleigh_sum(modes, v.betas, v.values[:, 0], inc, x)
    if not incident:
        return _rayleigh_sum(modes, v.betas, v.values[:, -1], inc, x)
    wave = np.exp(1j * (inc.alpha_vec @ xt) - 1j * inc.k * inc.cos_theta1 * x3)
    return complex(wave + _rayleigh_sum(modes, v.betas, _rayleigh_tails(v, inc)[0], inc, x))


def quasiperiodic_lift(v: FieldCoefficients, inc: IncidenceSpec, x) -> complex:
    """Total quasi-periodic field u(x) = e^{i alpha.x~} v(x) everywhere.

    Inside the layer the modal profiles are interpolated; outside, the Rayleigh
    extension is used, with the incident wave added above.  Needs inc == v.inc.
    """
    if inc != v.inc:
        raise ValueError(f"incidence {inc!r} is not the field's {v.inc!r}")
    return _field_value(v, x, incident=True)
