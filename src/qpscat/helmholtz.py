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
W^{-1/2} G W^{-1/2}, whose conditioning stays O(1) in the resolution.
"""
from __future__ import annotations

import operator
import os
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import AliasError, CutoffViolation, DomainError, NearSingular, \
    OperatorTooLarge, SolveFailed
from .medium import MediumModel
from .qpcore import IncidenceSpec, ModeIndex, _beta_array, _field_point, \
    beta_table, classify_modes, mode_range, rayleigh_eval

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

#: real entries per batch of groups in `_whitened_blocks` (128 KiB of float64):
#: a batch of raw blocks as its real and imaginary parts, and each real
#: temporary of its products, then stay within the C allocator's default mmap
#: threshold (128 KiB in glibc), so whitening a large stack on every assembly
#: reuses freed heap memory instead of mapping, and page-faulting, fresh pages
_BATCH_ENTRIES = 16384

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
    solves on one discretization build the depth grid, the W_n factors and
    the depth-parity basis once.  The cache takes no part in equality,
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


def _clencurt(M: int, h: float):
    """Clenshaw-Curtis weights on the M Chebyshev-Lobatto points, ascending."""
    n = M - 1
    theta = np.pi * np.arange(M) / n
    w = np.zeros(M)
    ii = np.arange(1, n)
    v = np.ones(n - 1)
    if n % 2 == 0:
        w[0] = w[n] = 1.0 / (n * n - 1)
        for m in range(1, n // 2):
            v -= 2.0 * np.cos(2 * m * theta[ii]) / (4 * m * m - 1)
        v -= np.cos(n * theta[ii]) / (n * n - 1)
    else:
        w[0] = w[n] = 1.0 / (n * n)
        for m in range(1, (n - 1) // 2 + 1):
            v -= 2.0 * np.cos(2 * m * theta[ii]) / (4 * m * m - 1)
    w[ii] = 2.0 * v / n
    return h * w[::-1]


def _cheb_bary_weights(M: int) -> np.ndarray:
    wb = np.ones(M)
    wb[0] = wb[-1] = 0.5
    wb *= (-1.0) ** np.arange(M)
    return wb


class DepthGrid:
    """Nodal basis in depth with exact (or scheme-consistent) Galerkin matrices.

    Exposes nodes, stiffness K = int l_i' l_j', mass = int l_i l_j, a
    differentiation matrix for diagnostics, quadrature data for profile-
    weighted mass matrices, and barycentric/linear interpolation.
    """

    def __init__(self, disc: Discretization, h: float):
        self.scheme = disc.depth_scheme
        self.M = disc.M
        self.h = float(h)
        M = disc.M
        if self.scheme == CHEBYSHEV:
            self.nodes, self.diff = _cheb_nodes_diff(M, h)
            self._bary = _cheb_bary_weights(M)
            Q = 2 * M
            self.quad_x, _ = _cheb_nodes_diff(Q, h)
            self.quad_w = _clencurt(Q, h)
            E = self._interp_matrix(self.quad_x)
            self.quad_interp = E
            mass = E.T @ (self.quad_w[:, None] * E)
            self.mass = 0.5 * (mass + mass.T)
            ED = E @ self.diff
            stiff = ED.T @ (self.quad_w[:, None] * ED)
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
            self.mass = self._fd_weighted_mass(np.ones(M)).real
            D = np.zeros((M, M))
            D[1:-1, 2:] += np.eye(M - 2) / (2 * d)
            D[1:-1, :-2] -= np.eye(M - 2) / (2 * d)
            D[0, :3] = np.array([-3.0, 4.0, -1.0]) / (2 * d)
            D[-1, -3:] = np.array([1.0, -4.0, 3.0]) / (2 * d)
            self.diff = D
            self.quad_x = self.nodes
            w = np.full(M, d)
            w[0] = w[-1] = d / 2
            self.quad_w = w
            self.quad_interp = np.eye(M)

    def _fd_weighted_mass(self, profile_at_nodes: np.ndarray) -> np.ndarray:
        """Per-element blended mass with a piecewise-constant profile."""
        M = self.M
        d = self.nodes[1] - self.nodes[0]
        th = FD_MASS_BLEND
        diag_c, off_c = d / 3.0, d / 6.0       # consistent element mass
        diag_l = d / 2.0                       # lumped element mass
        out = np.zeros((M, M), dtype=complex)
        pe = 0.5 * (profile_at_nodes[:-1] + profile_at_nodes[1:])
        dg = th * diag_c + (1 - th) * diag_l
        off = th * off_c
        idx = np.arange(M - 1)
        np.add.at(out, (idx, idx), pe * dg)
        np.add.at(out, (idx + 1, idx + 1), pe * dg)
        np.add.at(out, (idx, idx + 1), pe * off)
        np.add.at(out, (idx + 1, idx), pe * off)
        return out

    def weighted_mass(self, profile_at_quad: np.ndarray) -> np.ndarray:
        """Matrix of int p(x3) l_i(x3) l_j(x3) dx3 for p given at the quadrature nodes."""
        if self.scheme == FINITE_DIFFERENCE:
            return self._fd_weighted_mass(np.asarray(profile_at_quad))
        E = self.quad_interp
        return E.T.astype(complex) @ ((self.quad_w * profile_at_quad)[:, None] * E)

    def _interp_matrix(self, pts: np.ndarray) -> np.ndarray:
        out = np.zeros((len(pts), self.M))
        x = self.nodes
        for a, xx in enumerate(pts):
            diff = xx - x
            hit = np.flatnonzero(np.abs(diff) < 1e-13 * max(self.h, 1.0))
            if hit.size:
                out[a, hit[0]] = 1.0
            else:
                t = self._bary / diff
                out[a] = t / t.sum()
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
    the depth grid; the weighted inner-product blocks W_n and their inverse
    symmetric square roots, stacked in mode order as W and W_isqrt of shape
    (n_modes, M, M), with one eigendecomposition per distinct |n|^2; and, for
    even M, the depth-parity basis `parity` = (P, S): the two depth classes
    of `_whitened_blocks`, which takes W_isqrt as one class otherwise (None
    for odd M).  The reflection x3 -> -x3 maps node j to M-1-j; P is
    orthonormal with columns (e_j +- e_{M-1-j}) / sqrt(2), j < M/2, even ones
    first, and S (2, n_modes, M/2, M/2) holds the even and odd blocks of
    P^T W_n^{-1/2} P, whose cross blocks vanish (W_n commutes with it).
    All these factors are real, and every product of one with complex data
    is taken in real arithmetic: on fields (`inner`, `unwhiten`, the stack
    maps) by `_real_matmul`, on raw blocks by `_whitened_blocks`.  The space
    also keeps the coupling table of each medium assembled on it
    (`_medium_profiles`), with its whitened coupling, for as long as that
    medium lives.  An h so large or so small that the grid or W overflows
    double precision raises DomainError, before any eigendecomposition and
    with no numpy warning.
    """

    def __init__(self, disc: Discretization, h: float):
        self.disc = disc
        self.h = float(h)
        self.modes: list[ModeIndex] = mode_range(disc.N)
        self.mode_index = {n: i for i, n in enumerate(self.modes)}
        self.M = M = disc.M
        self.size = len(self.modes) * M
        n2, which = np.unique([a * a + b * b for a, b in self.modes],
                              return_inverse=True)
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
        isqrt = []
        for Wd in W:
            lam, U = np.linalg.eigh(Wd)
            if lam[0] <= 0:
                raise SolveFailed("weighted inner product not positive definite")
            isqrt.append(U * (1 / np.sqrt(lam)) @ U.T)
        self.W, self.W_isqrt = W[which], np.array(isqrt)[which]
        self._couplings = weakref.WeakKeyDictionary()
        self.parity = None
        if M % 2 == 0:
            half = M // 2
            j = np.arange(half)
            P = np.zeros((M, M))
            P[j, j] = P[M - 1 - j, j] = P[j, half + j] = np.sqrt(0.5)
            P[M - 1 - j, half + j] = -np.sqrt(0.5)
            S = P.T @ self.W_isqrt @ P
            self.parity = (P, np.stack([S[:, :half, :half], S[:, half:, half:]]))

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
        return _real_matmul(self.W_isqrt, y[..., None])[..., 0]


# ---------------------------------------------------------------------------
# the discrete operator


class DiscreteOperator:
    """Assembled bilinear-form matrix of the layer problem at one wavenumber.

    `diagonal` (modes, M, M) holds the raw diagonal mode blocks, in the
    order of space.modes.  For a transversely uniform medium that is the
    whole operator, which is block-diagonal.  Otherwise the operator is
    coupled: off the diagonal, block (n, m) is -scale C_{n-m}, with the
    masses C_d of the medium's coupling table `table` (`_CouplingTable`).
    Every operator is assembled as its whitened `stack` as well, in the
    layout its table decided, with that layout's maps `to` and `back`
    (see `_CouplingTable`); `groups` are the table's mode groups (one per
    mode for a block-diagonal operator).  The screen, `solve`, the kernel
    and the constrained solve read the stack.  No full matrix is stored.
    `apply` and `apply_adjoint` are matrix-free, on one field or a stack of
    fields (..., n_modes, M): the diagonal blocks plus, when coupled, one
    coupling sum over the table's masses.  Every dense view of the operator
    is built from that action (`whitened()`, the constraint rows of
    `lap.constrained_solve`).  Everything that depends only on the layout
    and the weighted product lives on `space`.  The operator caches its
    whitened singular values.
    """

    def __init__(self, inc, space, diagonal, table, scale, stack):
        self.inc = inc
        self.space = space
        self.diagonal = diagonal
        self.table = table
        self.scale = scale
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
        return self.table.coupling is None

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Matrix action on a field (n_modes, M), or on each of a stack (..., n_modes, M)."""
        out = (self.diagonal @ u[..., None])[..., 0]
        if not self.block_diagonal:
            out -= self.scale * self.table.couple(u)
        return out

    def apply_adjoint(self, u: np.ndarray) -> np.ndarray:
        """Action of the conjugate transpose, as (u^H G)^H: no copy of any block.

        On a field or a stack of fields, as `apply`.
        """
        out = (u.conj()[..., None, :] @ self.diagonal)[..., 0, :].conj()
        if not self.block_diagonal:
            out -= np.conj(self.scale) * self.table.couple(u, adjoint=True)
        return out

    def whitened(self) -> np.ndarray:
        """W^{-1/2} G W^{-1/2} as a dense matrix, built on request.

        Column by column from `apply` on the columns of W^{-1/2}
        (`space.unwhiten` of the unit fields, one mode at a time), whitened
        again by `space.unwhiten`; parity cross parts that the stack leaves
        out are kept.  No solver path calls it, but qpbench's tracer wraps
        it by name (`spans.Tracer.install` looks up
        `vars(DiscreteOperator)["whitened"]`), so every traced run needs it.
        """
        sp = self.space
        nm = len(sp.modes)
        units = np.eye(sp.size, dtype=complex).reshape(nm, sp.M, nm, sp.M)
        cols = [sp.unwhiten(self.apply(sp.unwhiten(e))) for e in units]
        return np.concatenate(cols).reshape(sp.size, sp.size).T

    def whitened_singular_values(self) -> np.ndarray:
        """All singular values of W^{-1/2} G W^{-1/2}, descending, cached.

        Taken from the blocks of `stack`: one SVD per stack block of a
        block-diagonal operator (one per mode and depth parity), one batched
        SVD of the stack of a coupled one (one block per coupling group and
        depth parity).  A block of a block-diagonal operator with no
        imaginary part (an evanescent mode of a lossless medium at real k)
        is real symmetric, as G_n and W_n^{-1/2} are, so its SVD is taken in
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


@np.errstate(over="ignore", invalid="ignore")  # `_build_operator` refuses the overflow
def _whitened_blocks(space: FieldSpace, groups: np.ndarray, row, parity):
    """The whitened diagonal blocks of a (mode, node) matrix over mode groups.

    `groups` (nc, c) lists the modes of each group, and row(r) gives the raw
    row slot r of every group, (nc, M, c, M): block (n, m) of the operator
    for n the r-th mode of its group and m each mode of the group.  Without
    parity: one block W^{-1/2} G W^{-1/2} per group, (nc, cM, cM), ordered
    (mode, node).  With parity = space.parity: each group's even and odd
    halves in the parity basis, (2 nc, cM/2, cM/2), leaving out the
    even/odd cross parts.  One row slot of every group at a time, in batches
    of groups of at most _BATCH_ENTRIES real entries, each batch taken as
    its real and imaginary parts stacked as one real batch (2 entries per
    raw entry), so that every factor multiplies in real arithmetic: P^T
    (M x cM), (Mc x M) P, then S of the column modes and of the row mode.
    No full-size raw matrix is made.
    """
    M = space.M
    nc, c = groups.shape
    P, S = parity or (None, space.W_isqrt[None])
    K, n = len(S), M // len(S)
    out = np.empty((nc, K, c, n, c, n), dtype=complex)
    step = max(1, _BATCH_ENTRIES // (2 * c * M * M))
    for r in range(c):
        rows = row(r)  # (group, row depth, column mode, column depth)
        for lo in range(0, nc, step):
            g, t = groups[lo:lo + step], rows[lo:lo + step]
            m = len(g)
            t = np.stack((t.real, t.imag))  # one real batch, (2, m, M, c, M)
            if P is not None:
                t = P.T @ t.reshape(2, m, M, c * M)
                t = (t.reshape(2, m, M * c, M) @ P).reshape(2, m, M, c, M)
            for p in range(K):
                sl = slice(p * n, (p + 1) * n)
                b = np.matmul(t[:, :, sl, :, sl].transpose(0, 1, 3, 2, 4), S[p, g])
                b = S[p, g[:, r]] @ b.transpose(0, 1, 3, 2, 4).reshape(2, m, n, c * n)
                o = out[lo:lo + step, p, r]
                o.real, o.imag = b.reshape(2, m, n, c, n)
    return out.reshape(nc * K, c * n, c * n)


def _stack_maps(space: FieldSpace, groups: np.ndarray, parity):
    """The maps (to, back) onto the whitened stack of one layout; see `_CouplingTable`.

    Both apply the real factors P and S to the float view of the field's
    depth vectors (`_real_matmul`), in real arithmetic; a load of any memory
    layout maps.
    """
    nm, M = len(space.modes), space.M
    P, S = parity or (None, space.W_isqrt[None])
    K, n = len(S), M // len(S)
    nc, c = groups.shape
    order = groups.ravel()
    inv = np.argsort(order)

    def to(b):
        y = b if P is None else _real_matmul(P.T, b[..., None])[..., 0]
        y = y.reshape(nm, K, n).swapaxes(0, 1)
        y = _real_matmul(S, y[..., None])[..., 0][:, order]  # (K, nc c, n)
        return y.reshape(K, nc, c * n).swapaxes(0, 1).reshape(nc * K, c * n)

    def back(z):
        y = z.reshape(nc, K, c * n).swapaxes(0, 1).reshape(K, nm, n)[:, inv]
        y = _real_matmul(S, y[..., None])[..., 0].swapaxes(0, 1).reshape(nm, M)
        return y if P is None else _real_matmul(P, y[..., None])[..., 0]

    return to, back


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
    """Raise OperatorTooLarge if the operators cannot fit in physical memory.

    Counts the peak of a run that holds two operators at once (A and A'
    in a constrained solve), each with its raw diagonal blocks, (2N+1)^2
    blocks of M^2 complex entries, and its whitened stack, at its largest
    when K = 1 (the layout is not known yet): as many entries as the
    diagonal blocks for a block-diagonal operator, at most unknowns^2 for
    a coupled one.  A coupled medium's table adds its whitened coupling,
    the size of a stack.  Checked before anything is allocated, the
    coupling table included.
    """
    blocks = (2 * disc.N + 1) ** 2 * disc.M ** 2
    stack = blocks if medium.transversely_uniform else disc.unknowns ** 2
    coupling = 0 if medium.transversely_uniform else stack
    _require_memory(16 * (coupling + 2 * (blocks + stack)),
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


def _live_pairs(index: np.ndarray, pad: int):
    """Each row's live entries of `index` (those not equal to pad): (columns, values).

    Both arrays are (rows, w), w the most live entries of any row; shorter
    rows are filled up with entries of value pad.
    """
    live = index != pad
    cols = np.argsort(~live, axis=1, kind="stable")[:, :live.sum(axis=1).max(initial=0)]
    return cols, np.take_along_axis(index, cols, axis=1)


def _mirror_symmetric(blocks: np.ndarray, weights) -> bool:
    """Whether sum_i w_i ||X_i - R X_i R||^2 / 4 <= _SPLIT_TOL^2 sum_i w_i ||X_i||^2.

    R reverses the depth nodes (j -> M-1-j) of the (M, M) blocks X_i, so
    the left side is the weighted squared norm of their even/odd cross parts
    in the parity basis.  Blocks with an entry of modulus 1 or more are
    first scaled exactly, by the power of two that brings their largest
    entry into [1/2, 1), so that no square overflows.
    """
    blocks = blocks * 2.0 ** -max(int(np.frexp(np.abs(blocks).max())[1]), 0)

    def norms(x):
        return np.dot(weights, np.sum(np.abs(x) ** 2, axis=(1, 2)))
    return norms(blocks - blocks[:, ::-1, ::-1]) / 4 <= _SPLIT_TOL ** 2 * norms(blocks)


class _CouplingTable:
    """What assembly takes from a medium on one FieldSpace, independent of k.

    `diffs` lists the differences 0 < |d|_inf <= 2N (none for a
    transversely uniform medium) whose profile qhat_d at the quadrature
    depths is not identically zero, and `masses` stacks their C_d = int
    qhat_d l_i l_j, followed by one zero block, (len(diffs) + 1, M, M); the
    profiles themselves are not kept.  `c0` is C_0 of qhat_0 - 1, the
    diagonal coupling (the background sits in the volume term).  `off`
    (modes, modes) gives, for each mode pair (n, m), the index into diffs
    of n - m, or len(diffs), the zero block, when its profile vanishes and
    on the diagonal.  `couple` sums C_{n-m} u_m over the pairs n != m whose
    profile lives.

    The table also fixes, once, the layout of the whitened stack of the
    medium's operators (`DiscreteOperator.stack`), and holds a coupled
    medium's coupling in it.  A stack of blocks (B, n, n) and the layout's
    maps (to, back) are such that G v = b reads blocks z = to(b) (one
    right-hand side per block, shape (B, n)) with v = back(z) (a field).
    `to` and `back` are one real linear map and its transpose, so a row r
    acting on v acts on z as to(r).  Block g K + p is mode group g and
    depth class p of K:
    - `groups` (nc, c) are the mode groups: the connected components of
      the graph that links modes n and m when n - m or m - n is in `diffs`,
      rows ordered by their first mode, modes ascending, when there are
      several components, all of one size; otherwise one group of every
      mode.  No coupling runs between groups, so the split is exact.  A
      transversely uniform medium has no live off-diagonal difference, so
      its groups are single modes.  `place` gives each mode's (group, slot).
    - `parity` is space.parity when every k-independent piece of the
      operator is mirror-symmetric in depth to _SPLIT_TOL in Frobenius norm
      (`_mirror_symmetric`): the masses C_d, d != 0, each weighted by its
      number of mode pairs, with c0 weighted by the number of modes; the
      stiffness; the mass.  The whitened operator at any k is then
      orthogonally similar to the direct sum of its parity halves (K = 2)
      up to that remainder.  Otherwise, and for odd M, it is None, and
      each group gives its full whitened block (K = 1).
    - `coupling` is the whitened stack of the unit-scale coupling of a
      transversely varying medium: block (n, m) is -C_{n-m} off the
      diagonal and zero in the diagonal mode slots.  It is built one raw
      row slot at a time by `_whitened_blocks`, so no full raw matrix is
      allocated.  A transversely uniform medium has none (None).
    - `maps` are the (to, back) maps of the layout: to(b) is b @ P (parity
      only), then S per class and mode, then a gather of each group's
      modes; back(z) is its transpose.
    """

    def __init__(self, medium: MediumModel, space: FieldSpace):
        grid, N, M = space.grid, space.disc.N, space.M
        uniform = medium.transversely_uniform
        profiles = medium.fourier_profiles(grid.quad_x, 0 if uniform else 2 * N)
        live = np.any(np.array(list(profiles.values())), axis=1)
        self.diffs = [d for d, on in zip(profiles, live) if on and d != (0, 0)]
        T = len(self.diffs)
        self.masses = np.array([grid.weighted_mass(profiles[d]) for d in self.diffs]
                               + [np.zeros((M, M), dtype=complex)])
        self.c0 = grid.weighted_mass(profiles[(0, 0)] - np.ones_like(grid.quad_x))
        n = np.array(space.modes)
        nm = len(n)
        d = n[:, None, :] - n[None, :, :] + 2 * N  # (n - m) + 2N, shape (nm, nm, 2)
        index = np.full((4 * N + 1, 4 * N + 1), T)
        for t, (d1, d2) in enumerate(self.diffs):
            index[d1 + 2 * N, d2 + 2 * N] = t
        self.off = index[d[..., 0], d[..., 1]]
        # C_t u_j (or C_t^H u_j) of every live t at once, as one product
        # u @ _act: column block t of _act is C_t^T (or conj(C_t)), and the
        # zero block T pads the rows of `_pairs` that have fewer live pairs
        self._act = (self.masses.transpose(2, 0, 1).reshape(M, -1),
                     self.masses.conj().transpose(1, 0, 2).reshape(M, -1))
        # the pairs `couple` gathers, by adjoint
        self._pairs = (_live_pairs(self.off, T), _live_pairs(self.off.T, T))
        link = self.off < T
        link = link | link.T
        label = np.arange(nm)
        while True:  # every mode takes the least label among its neighbours
            new = np.minimum(label, np.where(link, label, nm).min(axis=1))
            if np.array_equal(new, label):
                break
            label = new
        _, comp, sizes = np.unique(label, return_inverse=True, return_counts=True)
        self.groups = np.arange(nm)[None]
        if len(sizes) > 1 and np.all(sizes == sizes[0]):
            self.groups = np.argsort(comp, kind="stable").reshape(len(sizes), -1)
        nc, c = self.groups.shape
        group, slot = np.empty(nm, dtype=int), np.empty(nm, dtype=int)
        group[self.groups], slot[self.groups] = np.arange(nc)[:, None], np.arange(c)
        self.place = group, slot
        pairs = np.bincount(self.off.ravel(), minlength=T + 1)[:T]
        symmetric = (_mirror_symmetric(np.concatenate([self.masses[:T], self.c0[None]]),
                                       np.append(pairs, nm))
                     and _mirror_symmetric(grid.stiffness[None], [1.0])
                     and _mirror_symmetric(grid.mass[None], [1.0]))
        self.parity = space.parity if symmetric else None
        self.coupling = None if uniform else \
            _whitened_blocks(space, self.groups, self.row, self.parity)
        self.maps = _stack_maps(space, self.groups, self.parity)

    def row(self, r: int) -> np.ndarray:
        """Raw row slot r of every group of the unit-scale coupling, (nc, M, c, M)."""
        g = self.groups
        blocks = self.masses[self.off[g[:, r, None], g]]
        return np.negative(blocks, out=blocks).transpose(0, 2, 1, 3)

    def couple(self, u: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """sum_{m != n} C_{n-m} u_m for every n, or sum_{n != m} C_{n-m}^H u_n for every m.

        u is a field (modes, M), or a stack of fields (..., modes, M).  One
        product with every mass, then one gather of the mode pairs; the
        diagonal pairs are the zero block.
        """
        M = u.shape[-1]
        # U[..., j, t] = C_t u_j (or C_t^H u_j)
        U = (u @ self._act[adjoint]).reshape(u.shape[:-1] + (-1, M))
        return U[(..., *self._pairs[adjoint], slice(None))].sum(axis=-2)


def _medium_profiles(medium: MediumModel, space: FieldSpace) -> _CouplingTable:
    """The coupling table (`_CouplingTable`) of `medium` on `space`.

    Built on first use and kept on the space for as long as the medium
    lives (keyed weakly by the medium object), so every assembly and
    constraint residual on one (medium, space) shares one table.  A sampled
    medium too coarse for the |d|_inf <= 2N couplings raises AliasError on
    every call.
    """
    table = space._couplings.get(medium)
    if table is not None:
        return table
    if not medium.transversely_uniform:
        res = medium.transverse_resolution()
        need = 2 * (2 * space.disc.N + 1)
        if res[0] < need or res[1] < need:
            raise AliasError(
                f"sampled medium resolution {res} too coarse for N={space.disc.N}; "
                f"need at least {need} points per period to resolve the "
                f"qhat_(n-m) couplings without aliasing")
    table = space._couplings[medium] = _CouplingTable(medium, space)
    return table


def _build_operator(inc, medium, space, volume, boundary, scale) -> DiscreteOperator:
    """Assemble the operator for both `assemble` and `assemble_eps_derivative`.

    `volume` stacks one (M, M) block per mode and `boundary` one value per
    mode, in the order of space.modes.  Mode n gets the diagonal block
    volume[n] - scale C_0, formed in `volume` itself (a temporary of the
    caller), with i boundary[n] subtracted at both end nodes; off the
    diagonal, block (n, m) is -scale C_{n-m}.  Here C_d = int qhat_d(x3)
    l_i l_j dx3, except that C_0 integrates qhat_0 - 1 (the background
    sits in volume).  Everything else comes from the cached
    coupling table (`_medium_profiles`): every operator is assembled as its
    whitened stack too, in the table's layout.  The diagonal blocks are
    whitened per mode and depth class by `_whitened_blocks`; that is the
    stack of a block-diagonal operator, and a coupled one's is scale times
    the table's whitened coupling with them written into its (zero)
    diagonal mode slots.  No raw coupling block is formed.
    """
    table = _medium_profiles(medium, space)
    ib = 1j * boundary
    diagonal = volume  # in place: one stack of raw blocks less per assembly
    diagonal -= scale * table.c0
    diagonal[:, 0, 0] -= ib
    diagonal[:, -1, -1] -= ib
    nm = len(diagonal)
    stack = _whitened_blocks(space, np.arange(nm)[:, None],
                             lambda r: diagonal[:, :, None], table.parity)
    if table.coupling is not None:
        B, n, _ = stack.shape
        nc, c = table.groups.shape
        group, slot = table.place
        out = np.multiply(table.coupling, scale)
        out.reshape(nc, B // nm, c, n, c, n)[group, :, slot, :, slot, :] = \
            stack.reshape(nm, B // nm, n, n)
        stack = out
    if not np.isfinite(stack).all():
        raise DomainError(f"whitened operator overflows double precision at "
                          f"h = {space.h:.6g}, M = {space.M}")
    return DiscreteOperator(inc, space, diagonal, table, scale, stack)


def _mode_products(coef: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """coef[n] * mass for every mode n, (modes, M, M) complex, in one allocation.

    Filled in place, entry for entry the complex product numpy forms for
    coef[:, None, None] * mass.
    """
    out = np.empty((len(coef),) + mass.shape, dtype=complex)
    out[...] = coef[:, None, None]
    out *= mass
    return out


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
    grid = space.grid
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
    volume = _mode_products(b2, grid.mass)
    np.subtract(grid.stiffness, volume, out=volume)  # stiffness - beta_n^2 mass
    return _build_operator(inc, medium, space, volume, betas, k2)


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
    grid = space.grid
    k = inc.k.real
    _require_finite(inc, "k^2", k * k)  # then beta_n^2 and the scale 2ik are too
    betas = beta_table(inc, disc.N)  # raises CutoffViolation at grazing orders
    zero = np.flatnonzero(betas == 0)
    if zero.size:  # only at k = 0, where the grazing tolerance is 0
        n = space.modes[zero[0]]
        raise CutoffViolation(f"beta_{n} = 0: derivative undefined", [n])
    # d beta_n / d eps = i (k cos^2 t1 - n.tilde_theta) / beta_n
    shift = k * inc.cos2_theta1 - np.array(space.modes, dtype=float) @ inc.tilde_theta
    dbetas = 1j * shift / betas
    volume = _mode_products(-2j * shift, grid.mass)
    return _build_operator(inc, medium, space, volume, dbetas, 2j * k)


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

    def trace_top(self) -> dict[ModeIndex, complex]:
        return {n: complex(self.values[i, -1]) for i, n in enumerate(self.space.modes)}

    def trace_bottom(self) -> dict[ModeIndex, complex]:
        return {n: complex(self.values[i, 0]) for i, n in enumerate(self.space.modes)}

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
    every operator is solved by one batched LU of its stack, through the
    maps `to` and `back`.  The residual is always checked against the
    assembled operator, by the matrix-free `apply`, which keeps any parity
    cross parts the stack leaves out: the returned profiles satisfy
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
        return op.back(np.linalg.solve(op.stack, op.to(b)[..., None])[..., 0])

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


def _interior_field(v: FieldCoefficients, inc: IncidenceSpec, x) -> complex:
    """e^{i alpha.x~} sum_n v_n(x3) e^{i n.x~} at a point x inside the layer."""
    xt, x3 = x[:2], x[2]
    phases = np.exp(1j * (np.array(v.space.modes) @ xt))
    total = v.space.grid.interpolate(v.values, x3) @ phases
    return complex(np.exp(1j * (inc.alpha_vec @ xt)) * total)


def quasiperiodic_lift(v: FieldCoefficients, inc: IncidenceSpec, x) -> complex:
    """Total quasi-periodic field u(x) = e^{i alpha.x~} v(x) everywhere.

    Inside the layer the modal profiles are interpolated; outside, the
    Rayleigh extension is used, with the incident wave added above.
    """
    x = _field_point(x)
    xt, x3 = x[:2], x[2]
    h = inc.h
    if abs(x3) <= h:
        return _interior_field(v, inc, x)
    rd = rayleigh_data(v, inc)
    if x3 > h:
        inc_wave = np.exp(1j * (inc.alpha_vec @ xt) - 1j * inc.k * inc.cos_theta1 * x3)
        return complex(inc_wave + rayleigh_eval(rd.u_plus, "above", inc, x))
    return rayleigh_eval(rd.u_minus, "below", inc, x)
